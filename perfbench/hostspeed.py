"""How fast the host runs Python right now, from a fixed reference loop.

On a shared host the same operation slows by a quarter or more for
minutes at a time, while CPU time tracks wall time (the core itself is
slower, it is not descheduled).  The benchmark runs this reference loop
right before and after every timed measurement (and every half second
inside a long one, outside the measured time) and reports times scaled to
the reference loop's nominal speed:

    scaled = measured * NOMINAL_S / (reference time around the measurement)

The DES workloads use it; serve-mixed uses it only for its daemon boots
(see README.md).  The
loop is a small discrete-event scheduler of its own (a heap of
generators with dict bookkeeping, the instruction mix of the simulator)
and shares no code with ``src/``, so a change to the program never moves
it.  Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import heapq
import time

#: Seconds a reference sample takes at "nominal speed".  A fixed constant
#: (samples on the 2-core baseline host measured 0.05-0.07 s): scaled times
#: are what the measurement would take on a host that runs a sample in
#: exactly this long.
NOMINAL_S = 0.05

_PROCESSES = 100
_STEPS = 40


def _block() -> int:
    heap: list = []
    visits: dict[int, int] = {}

    def process(index):
        now = 0.0
        for step in range(_STEPS):
            now = yield (step % 7) * 1e-6 + index * 1e-9
        return now

    for index in range(_PROCESSES):
        gen = process(index)
        heapq.heappush(heap, (next(gen), index, gen))
    while heap:
        now, index, gen = heapq.heappop(heap)
        visits[index] = visits.get(index, 0) + 1
        try:
            heapq.heappush(heap, (now + gen.send(now), index, gen))
        except StopIteration:
            pass
    return sum(visits.values())


#: Reference blocks per sample, chosen so that a sample takes ~NOMINAL_S.
BLOCKS = 16


def sample() -> float:
    """Seconds for one reference sample (``BLOCKS`` blocks)."""
    start = time.perf_counter()
    for _ in range(BLOCKS):
        _block()
    return time.perf_counter() - start


class HostSpeed:
    """Reference samples around (and, for long operations, inside) every
    measurement, and the measurement's time at nominal host speed."""

    #: An operation is cut into segments of about this length; a reference
    #: sample is taken at each cut (outside the measured time).
    SEGMENT_S = 0.5

    def __init__(self) -> None:
        self.last = sample()
        self.samples = [self.last]
        self._start = 0.0
        self._raw = self._scaled = 0.0

    def _factor(self) -> float:
        after = sample()
        self.samples.append(after)
        factor = NOMINAL_S / ((self.last + after) / 2.0)
        self.last = after
        return factor

    def scale(self, seconds: float) -> float:
        """``seconds`` just measured, at nominal speed (the sample after it
        is also the sample before the next measurement)."""
        return seconds * self._factor()

    def start(self) -> None:
        """Begin a segmented measurement."""
        self._raw = self._scaled = 0.0
        self._start = time.perf_counter()

    def tick(self) -> None:
        """Called between units of work: cut a segment when one is due."""
        if time.perf_counter() - self._start >= self.SEGMENT_S:
            self._cut()

    def _cut(self) -> None:
        segment = time.perf_counter() - self._start
        self._raw += segment
        self._scaled += segment * self._factor()
        self._start = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """End the measurement: (raw seconds, seconds at nominal speed),
        both without the reference samples taken inside it."""
        self._cut()
        return self._raw, self._scaled
