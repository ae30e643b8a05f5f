"""Golden DES trace: the simulated event stream, pinned bit for bit.

The fixture ``golden/des_trace.json`` holds, for a fixed set of seeded
runs, every interval the :class:`~repro.simlib.trace.Tracer` records
(sender CPU ``cpu<src>``/``s``, receiver CPU ``cpu<dst>``/``r``, wire
occupancy ``port<dst>``/``w``, RTO gaps ``port<dst>``/``R``, the
two-switch ``uplink``) in recording order; per message, in the order
transfers start, ``(src, dst, nbytes, cpu start, cpu end, wire start,
wire end)``; each rank's finish time; and the kernel's
``events_processed``.  A change to the kernel, the
transport, the MPI layer or the noise model that reorders a heap entry
or an RNG draw moves some float here, so the comparison is ``==``, never
a tolerance.

Covered: linear and binomial scatter and gather on 16 nodes at 1, 16,
48, 64 and 128 KB (eager, rendezvous, the M1-M2 escalation band,
contended root ports); a run sequence under a :class:`FaultInjector`
(slowdown, loss, hang, link degradation) and one under a
:class:`TwoSwitchTopology`, the transport branches the benchmark never
takes; one seeded n=6 LMO estimate.

Re-record only for an intended change of the simulation::

    PYTHONPATH=src python tests/cluster/test_golden_trace.py
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.cluster import (
    FaultInjector,
    FaultPlan,
    FlakyLink,
    LinkDegradation,
    NodeHang,
    NodeSlowdown,
    SimulatedCluster,
    TwoSwitchTopology,
)
from repro.mpi.runtime import run_collective
from repro.simlib import Tracer

KB = 1024
FIXTURE = Path(__file__).resolve().parent / "golden" / "des_trace.json"

COLLECTIVES = [("scatter", "linear"), ("scatter", "binomial"),
               ("gather", "linear"), ("gather", "binomial")]
SIZES = [1 * KB, 16 * KB, 48 * KB, 64 * KB, 128 * KB]


def _watched(transfer, tracer, message: list):
    """Drive one ``transmit`` generator, appending to ``message`` the
    start/end of the tracer intervals its own steps record (the sender
    CPU hold ``s`` and the wire occupancy ``w``)."""
    value, error = None, None
    while True:
        before = len(tracer.intervals)
        try:
            target = transfer.send(value) if error is None else transfer.throw(error)
        except StopIteration as stop:
            target, result = None, stop.value
        for interval in tracer.intervals[before:]:
            if interval.label in ("s", "w"):
                message += [interval.start, interval.end]
        if target is None:
            return result
        try:
            value, error = (yield target), None
        except BaseException as exc:  # thrown in by the kernel: pass it on
            value, error = None, exc


@contextmanager
def _messages_recorded(messages: list):
    """Record every transfer as ``[src, dst, nbytes, cpu start, cpu end,
    wire start, wire end]`` (needs a tracer on the cluster).  The wrapper
    adds no event and no random draw, so the run itself is unchanged."""
    transmit = SimulatedCluster.transmit

    def recording(self, src, dst, nbytes, *args, **kwargs):
        message = [src, dst, nbytes]
        messages.append(message)
        return _watched(transmit(self, src, dst, nbytes, *args, **kwargs),
                        self.tracer, message)

    SimulatedCluster.transmit = recording
    try:
        yield
    finally:
        SimulatedCluster.transmit = transmit


def _traced_cluster(nodes: int, seed: int):
    cluster = api.load_cluster(nodes=nodes, seed=seed)
    tracer = Tracer()
    cluster.attach_tracer(tracer)
    return cluster, tracer


def _run_record(cluster, tracer, operation, algorithm, nbytes, root) -> dict:
    tracer.clear()
    messages: list[list] = []
    with _messages_recorded(messages):
        run = run_collective(cluster, operation, algorithm, nbytes, root=root)
    stats = cluster.stats
    return {
        "run": f"{operation}/{algorithm}/{nbytes}/root{root}",
        "messages": messages,
        "intervals": [[i.lane, i.start, i.end, i.label] for i in tracer.intervals],
        "finish": [run.results[r].finish for r in sorted(run.results)],
        "events": cluster.sim.events_processed,
        "sim_now": cluster.sim.now,
        "stats": [stats.messages, stats.bytes_sent, stats.rendezvous_handshakes,
                  stats.escalations, stats.escalation_time, stats.port_waits],
    }


def collective_runs() -> list[dict]:
    """One fresh 16-node cluster per (collective, size); roots vary."""
    records = []
    for index, (operation, algorithm) in enumerate(COLLECTIVES):
        for size_index, nbytes in enumerate(SIZES):
            cluster, tracer = _traced_cluster(16, seed=7)
            root = (5 * index + 3 * size_index) % 16
            records.append(_run_record(cluster, tracer, operation, algorithm, nbytes, root))
    return records


def fault_runs() -> list[dict]:
    """Back-to-back runs on one cluster under a seeded fault plan.

    The plan's windows sit on the injector's cumulative clock, so the
    runs see the hang and the brownout start and end in between.
    """
    cluster, tracer = _traced_cluster(16, seed=3)
    plan = FaultPlan(faults=(
        NodeSlowdown(node=3, factor=2.5),
        NodeSlowdown(node=9, factor=1.7, start=0.002, end=0.02),
        LinkDegradation(a=0, b=4, latency_factor=3.0, rate_factor=0.5),
        FlakyLink(a=0, b=2, loss_prob=0.5),
        FlakyLink(a=6, b=0, loss_prob=0.3, start=0.001, end=0.05),
        NodeHang(node=7, start=0.0, duration=0.002),
        NodeHang(node=5, start=0.0005, duration=0.004),
    ), seed=21)
    injector = FaultInjector(plan)
    cluster.attach_injector(injector)
    records = [
        _run_record(cluster, tracer, operation, algorithm, nbytes, root)
        for operation, algorithm, nbytes, root in (
            ("gather", "linear", 16 * KB, 0),
            ("scatter", "linear", 128 * KB, 0),
            ("scatter", "binomial", 4 * KB, 2),
            ("gather", "binomial", 64 * KB, 0),
            ("bcast", "binomial", 32 * KB, 5),
        )
    ]
    s = injector.stats
    records.append({"injector": [s.loss_escalations, s.loss_escalation_time, s.hang_stalls,
                                 s.hang_stall_time, s.slowed_activities,
                                 s.degraded_link_crossings]})
    return records


def two_switch_runs() -> list[dict]:
    cluster, tracer = _traced_cluster(16, seed=5)
    cluster.attach_topology(TwoSwitchTopology.split_evenly(16, uplink_rate=60e6))
    return [
        _run_record(cluster, tracer, operation, algorithm, nbytes, root)
        for operation, algorithm, nbytes, root in (
            ("scatter", "linear", 64 * KB, 0),
            ("gather", "linear", 16 * KB, 12),
            ("scatter", "binomial", 128 * KB, 9),
        )
    ]


def lmo_estimate() -> dict:
    """A seeded 6-node LMO estimate: per-run events and clocks, a digest
    of every traced interval, and the estimated parameters."""
    cluster, tracer = _traced_cluster(6, seed=11)
    runs: list[list] = []
    reset = cluster.reset

    def counting_reset() -> None:
        if cluster.sim.events_processed:
            runs.append([cluster.sim.events_processed, cluster.sim.now])
        reset()

    cluster.reset = counting_reset
    messages: list[list] = []
    with _messages_recorded(messages):
        outcome = api.estimate(cluster, "lmo", reps=2)
    counting_reset()
    model = outcome.model
    return {
        "runs": runs,
        "messages": len(messages),
        "messages_sha256": _digest(messages),
        "intervals": len(tracer.intervals),
        "intervals_sha256": _digest(
            [[i.lane, i.start, i.end, i.label] for i in tracer.intervals]
        ),
        "estimation_time": outcome.estimation_time,
        "params": {name: np.asarray(getattr(model, name)).tolist()
                   for name in ("C", "t", "L", "beta")},
    }


def _digest(rows: list) -> str:
    # json writes float subclasses (numpy scalars) with float.__repr__,
    # so the digest pins values, not the Python type that carries them.
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


SCENARIOS = {
    "collectives": collective_runs,
    "faults": fault_runs,
    "two_switch": two_switch_runs,
    "lmo_estimate": lmo_estimate,
}


def record() -> dict:
    return {name: build() for name, build in SCENARIOS.items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def _json_roundtrip(value):
    # The fixture went through JSON: tuples became lists, ints stayed ints,
    # floats round-trip exactly (repr is the shortest exact form).
    return json.loads(json.dumps(value))


@pytest.mark.parametrize("scenario", ["collectives", "faults", "two_switch"])
def test_traced_runs_match_golden_bit_for_bit(golden, scenario):
    expected = golden[scenario]
    actual = _json_roundtrip(SCENARIOS[scenario]())
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        label = want.get("run", "injector")
        for key in want:
            if key in ("intervals", "messages"):
                assert len(got[key]) == len(want[key]), label
                for index, (g, w) in enumerate(zip(got[key], want[key])):
                    assert g == w, f"{label}: {key} {index}"
            else:
                assert got[key] == want[key], f"{label}: {key}"


def test_lmo_estimate_matches_golden_bit_for_bit(golden):
    expected = golden["lmo_estimate"]
    actual = _json_roundtrip(lmo_estimate())
    assert actual["runs"] == expected["runs"]
    assert actual["messages"] == expected["messages"]
    assert actual["messages_sha256"] == expected["messages_sha256"]
    assert actual["intervals"] == expected["intervals"]
    assert actual["intervals_sha256"] == expected["intervals_sha256"]
    assert actual["estimation_time"] == expected["estimation_time"]
    assert actual["params"] == expected["params"]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record(), separators=(",", ":")) + "\n")
    print(f"wrote {FIXTURE}")
