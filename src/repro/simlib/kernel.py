"""Core discrete-event simulation kernel: events, processes, simulator.

Design notes
------------
The kernel is deliberately small and allocation-light (the guides for this
domain stress avoiding needless object churn in inner loops):

* The event queue is a binary heap of ``(time, priority, seq, event)``
  tuples.  ``seq`` is a monotonically increasing tie-breaker, so event
  ordering is fully deterministic — two runs with the same seed produce
  identical traces.
* Processes are plain generators.  A process yields an :class:`Event`; the
  kernel resumes it with the event's value when the event fires (or throws
  :class:`Interrupt` into it).
* There is no global state: any number of :class:`Simulator` instances can
  coexist (the test-suite relies on this).
* Hot path: a simulated message costs about a dozen events.
  :class:`Timeout`, process bootstraps and resumptions push their heap
  entries directly instead of via :meth:`Event.succeed`, and
  :meth:`Simulator.run` fires events in its own loop.  The entries and
  their order are exactly those of the general-purpose methods
  (``tests/cluster/test_golden_trace.py`` pins the stream bit for bit).
"""

from __future__ import annotations

import heapq
from heapq import heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "AllOf",
    "AnyOf",
]

#: Event priorities: lower fires first at equal times.  URGENT is used for
#: internal bookkeeping (resource releases) so that releases at time *t*
#: are observed by acquisitions at time *t*.
URGENT = 0
NORMAL = 1


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double-trigger, running a finished sim...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value supplied by the interrupter.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; it becomes *triggered* when given a value (or
    an exception) and scheduled; callbacks run when the simulator pops it.

    Attributes
    ----------
    callbacks:
        List of callables invoked with the event when it fires.  ``None``
        after the event has been processed (guards against double fire),
        so it doubles as the processed flag.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_triggered")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only after processing)."""
        return self._exc is None

    @property
    def value(self) -> Any:
        """The event's value (raises if the event failed)."""
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully after ``delay`` sim-seconds."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.sim._schedule(self, delay, priority)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception after ``delay`` sim-seconds."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._triggered = True
        self._exc = exc
        self.sim._schedule(self, delay, priority)
        return self

    # -- internals ------------------------------------------------------
    def _fire(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("processed" if self.callbacks is None
                 else "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` sim-seconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exc = None
        self._triggered = True
        heappush(sim._queue, (sim._now + delay, NORMAL, sim._seq, self))
        sim._seq += 1


class Process(Event):
    """A running generator; also an event that fires when the generator ends.

    The generator yields :class:`Event` instances.  When a yielded event
    fires, the generator resumes with the event's value; if the event
    failed, its exception is thrown into the generator (which may catch it).
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        self._generator = generator
        #: The event this process last waited on (only interrupts read it;
        #: a stale, already-processed event has ``callbacks`` None).
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume once the sim starts processing events.
        init = Event(sim)
        init.callbacks.append(self._resume)
        init._triggered = True
        heappush(sim._queue, (sim._now, URGENT, sim._seq, init))
        sim._seq += 1

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event first.
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        evt = Event(self.sim)
        evt.callbacks.append(self._resume_interrupt)
        evt.succeed(cause, priority=URGENT)

    # -- internals ------------------------------------------------------
    def _resume_interrupt(self, evt: Event) -> None:
        if self._triggered:  # finished in the meantime: drop silently
            return
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - already detached
                pass
        self._waiting_on = None
        carrier = Event(self.sim)  # never scheduled: only carries the throw
        carrier._exc = Interrupt(evt._value)
        self._resume(carrier)

    def _resume(self, evt: Event) -> None:
        """Advance the generator with ``evt``'s outcome, then park it on
        the event it yields next."""
        try:
            if evt._exc is None:
                target = self._generator.send(evt._value)
            else:
                target = self._generator.throw(evt._exc)
        except StopIteration as stop:
            sim = self.sim
            self._triggered = True
            self._value = stop.value
            heappush(sim._queue, (sim._now, URGENT, sim._seq, self))
            sim._seq += 1
            return
        except BaseException as exc:
            if not self.callbacks:
                # Nobody is watching this process: crash the simulation
                # rather than swallow the error.
                self.sim._crash(exc)
                self._triggered = True
                return
            self.fail(exc, priority=URGENT)
            return

        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event"
            )
        callbacks = target.callbacks
        if callbacks is not None:
            self._waiting_on = target
            callbacks.append(self._resume)
            return
        # Already fired: resume via a zero-delay event to keep the stack
        # shallow and ordering deterministic.
        sim = self.sim
        again = Event(sim)
        again.callbacks.append(self._resume)
        again._triggered = True
        again._value = target._value
        again._exc = target._exc
        heappush(sim._queue, (sim._now, URGENT, sim._seq, again))
        sim._seq += 1


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._remaining = len(self._events)
        if not self._events:
            self.succeed([])
            return
        for evt in self._events:
            if evt.callbacks is None:
                self._check(evt)
            else:
                evt.callbacks.append(self._check)

    def _check(self, evt: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when all child events have fired; value is the list of values."""

    __slots__ = ()

    def _check(self, evt: Event) -> None:
        if self._triggered:
            return
        if evt._exc is not None:
            self.fail(evt._exc)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e._value for e in self._events])


class AnyOf(_Condition):
    """Fires when the first child event fires; value is that event's value."""

    __slots__ = ()

    def _check(self, evt: Event) -> None:
        if self._triggered:
            return
        if evt._exc is not None:
            self.fail(evt._exc)
            return
        self.succeed(evt._value)


class Simulator:
    """Event loop owning a virtual clock.

    Parameters
    ----------
    start:
        Initial value of the virtual clock (seconds).
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._crashed: Optional[BaseException] = None
        #: Events popped and fired so far.  A plain int, always maintained
        #: (:meth:`run` adds its count when it returns or raises): the
        #: kernel is the hottest loop in the repo, so telemetry reads this
        #: after the fact instead of hooking every step.
        self.events_processed = 0
        #: Optional deterministic profiler (duck-typed against
        #: :class:`repro.obs.prof.Profiler`: ``event_begin(event)`` /
        #: ``event_end()``).  ``None`` keeps the hot path at one attribute
        #: load and an ``is None`` branch per event — the kernel never
        #: imports :mod:`repro.obs`.
        self.profiler: Optional[Any] = None

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event construction ---------------------------------------------
    def event(self) -> Event:
        """A fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    # Backwards-friendly alias mirroring SimPy.
    process = spawn

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing when every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing when the first event in ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        heappush(self._queue, (self._now + delay, priority, self._seq, event))
        self._seq += 1

    def _crash(self, exc: BaseException) -> None:
        self._crashed = exc

    # -- running ----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise SimulationError("no events scheduled")
        time, _prio, _seq, event = heapq.heappop(self._queue)
        self._now = time
        self.events_processed += 1
        prof = self.profiler
        if prof is None:
            event._fire()
        else:
            prof.event_begin(event)
            try:
                event._fire()
            finally:
                prof.event_end()
        if self._crashed is not None:
            exc, self._crashed = self._crashed, None
            raise exc

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, ``until`` time passes, or event fires.

        Returns the value of ``until`` when ``until`` is an event.
        """
        if isinstance(until, Event):
            stop = until
            while not stop.processed:
                if not self._queue:
                    raise SimulationError(
                        "simulation ran out of events before the awaited event fired"
                    )
                self.step()
            return stop.value
        horizon = float("inf") if until is None else float(until)
        queue = self._queue
        if self.profiler is not None:
            while queue and queue[0][0] <= horizon:
                self.step()
        else:
            # step() inlined: this loop fires every event of a run.
            pop = heapq.heappop
            fired = 0
            try:
                while queue and queue[0][0] <= horizon:
                    self._now, _prio, _seq, event = pop(queue)
                    fired += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if self._crashed is not None:
                        exc, self._crashed = self._crashed, None
                        raise exc
            finally:
                self.events_processed += fired
        if until is not None and horizon > self._now:
            self._now = horizon
        return None
