"""The canned kernel-profiling workload.

One fixed, seeded mix of collectives driven through the DES kernel —
shared by ``repro obs profile --target kernel`` and the
``BENCH_kernel_profile.json`` benchmark, so the CLI's flamegraph and the
CI gate describe the *same* workload.  Determinism matters twice here:
the seeded cluster makes the event stream identical run to run (so the
profiler's frame *counts* are exact and comparable across machines), and
the events/sec baseline gives the upcoming kernel-optimization work a
measured before/after.

The workload leans on the operations the paper's figures exercise —
scatter and gather, linear and binomial — across three message-size
decades, which together cover the kernel's event mix: timeouts (CPU
holds, wire occupancy), process resumptions, and condition events.
"""

from __future__ import annotations

import time
from typing import Any, Optional, Sequence

from repro import api
from repro.mpi.runtime import run_collective
from repro.obs import prof as _prof

__all__ = [
    "DEFAULT_COLLECTIVES",
    "DEFAULT_NODES",
    "DEFAULT_REPS",
    "DEFAULT_SIZES",
    "kernel_profile_document",
    "run_kernel_workload",
]

#: (operation, algorithm) pairs the canned workload cycles through.
DEFAULT_COLLECTIVES: tuple[tuple[str, str], ...] = (
    ("scatter", "linear"),
    ("scatter", "binomial"),
    ("gather", "linear"),
    ("gather", "binomial"),
    ("bcast", "binomial"),
)

#: Per-block message sizes (bytes), one per decade the figures sweep.
DEFAULT_SIZES: tuple[int, ...] = (1024, 16384, 131072)

#: Cluster size and repetitions: ~122k events, long enough (>= 0.5 s on a
#: 2-core host) that the events/sec gate measures the kernel, not timer
#: noise.
DEFAULT_NODES = 16
DEFAULT_REPS = 40


def run_kernel_workload(
    nodes: int = DEFAULT_NODES,
    sizes: Sequence[int] = DEFAULT_SIZES,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
    collectives: Sequence[tuple[str, str]] = DEFAULT_COLLECTIVES,
) -> dict[str, Any]:
    """Run the canned workload once; returns run stats.

    Profiling is controlled by the caller: attach via
    ``with repro.obs.profiling():`` (the MPI runtime hands the active
    profiler to the kernel per run).  Returns ``events_processed`` (the
    kernel counter summed over runs), ``wall_seconds``, and the derived
    rates the benchmark gates on.
    """
    cluster = api.load_cluster(nodes=nodes, seed=seed)
    events = 0
    runs = 0
    start = time.perf_counter()
    for _ in range(max(1, reps)):
        for nbytes in sizes:
            for operation, algorithm in collectives:
                run_collective(cluster, operation, algorithm, int(nbytes))
                events += cluster.sim.events_processed
                runs += 1
    wall = time.perf_counter() - start
    return {
        "nodes": nodes,
        "sizes": [int(s) for s in sizes],
        "reps": int(reps),
        "seed": int(seed),
        "collective_runs": runs,
        "events_processed": events,
        "wall_seconds": wall,
        "events_per_second": events / wall if wall > 0 else 0.0,
        "wall_seconds_per_million_events": (
            wall / (events / 1e6) if events else 0.0
        ),
    }


def kernel_profile_document(
    nodes: int = DEFAULT_NODES,
    sizes: Sequence[int] = DEFAULT_SIZES,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
    top_frames: Optional[int] = 30,
) -> tuple[dict[str, Any], _prof.Profiler]:
    """The ``BENCH_kernel_profile.json`` document plus the profiler.

    Two passes over the same workload: an *uninstrumented* baseline run
    (profiler detached — this is the events/sec number the regression
    gate tracks, so it must not include instrumentation cost) and a
    *profiled* run producing the per-event-type breakdown.  The profiler
    is returned too, so callers can also write the speedscope/collapsed
    artifacts without a third pass.
    """
    baseline = run_kernel_workload(nodes=nodes, sizes=sizes, reps=reps,
                                   seed=seed)
    with _prof.profiling() as profiler:
        profiled = run_kernel_workload(nodes=nodes, sizes=sizes, reps=reps,
                                       seed=seed)
    profile = profiler.to_dict()
    frames = profile["frames"]
    if top_frames is not None and len(frames) > top_frames:
        profile["frames_truncated"] = len(frames) - top_frames
        profile["frames"] = frames[:top_frames]
    doc = {
        "bench": "kernel_profile",
        **baseline,
        "profiled_wall_seconds": profiled["wall_seconds"],
        "profiled_events": profiler.events_recorded,
        "profile": profile,
    }
    return doc, profiler
