"""The three in-process workloads on the discrete-event simulator.

Each workload is a seeded input generator plus one *operation* the
benchmark repeats: a full LMO estimate, a durable campaign, or a sweep of
fixed-repetition collective measurements.  Every repetition builds a fresh
cluster from the same seed, so its exact counts (DES events, transport
statistics, MPI runs, estimation rounds) must repeat bit for bit.

The counts come from outside the program: :class:`Hooks` wraps a few
public entry points (``run_ranks``, ``DESEngine.run``/``run_batch``,
``CampaignJournal.append``) and reads the public counters they expose
(``Simulator.events_processed``, ``SimulatedCluster.stats``).  The
wrappers run once per simulated run, not per event, so they stay
installed in untraced runs too.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro import api
from repro.estimation import engines as _engines
from repro.estimation.journal import CampaignJournal, replay
from repro.mpi import runtime as _runtime
from repro.stats import MeasurementPolicy

KB = 1024

#: Median relative p2p error an estimate may have before the run fails.
#: Seeds 0-9 measure 0.027-0.074 (estimate) and 0.004-0.005 (campaign).
ESTIMATE_ERR_LIMIT = 0.15

#: Collectives and sizes of measure-coll16.  1 KB is eager, 64 KB and up
#: take the rendezvous handshake, and 4-48 KB cover the linear-gather
#: escalation band between M1 and M2 of the LAM profile.
COLLECTIVES = [("scatter", "linear"), ("scatter", "binomial"),
               ("gather", "linear"), ("gather", "binomial")]
SIZES = [1 * KB, 4 * KB, 8 * KB, 16 * KB, 32 * KB, 48 * KB, 64 * KB, 128 * KB]
MEASURE_REPS = 10


@dataclass
class Counts:
    """Exact counts of one operation; all must repeat for a seed."""

    events: int = 0
    sim_s: float = 0.0
    mpi_runs: int = 0
    rounds: int = 0
    experiments: int = 0
    journal_appends: int = 0
    journal_started: int = 0
    journal_done: int = 0

    def exact(self) -> dict:
        return {
            "simlib.events": self.events,
            "cluster.sim_s": float(self.sim_s),
            "mpi.runs": self.mpi_runs,
            "estimation.rounds": self.rounds,
            "estimation.experiments": self.experiments,
            "estimation.journal.appends": self.journal_appends,
        }


class Hooks:
    """Counting wrappers around the DES entry points (install/remove)."""

    def __init__(self) -> None:
        self.counts = Counts()
        self._saved: list[tuple[object, str, object]] = []
        #: Called after every simulated run (the host-speed tracker's tick).
        self.after_run = None

    def install(self) -> "Hooks":
        counts = lambda: self.counts  # noqa: E731 - rebinds on reset()
        original_run_ranks = _runtime.run_ranks

        def run_ranks(cluster, programs, reset=True):
            try:
                return original_run_ranks(cluster, programs, reset)
            finally:
                c = counts()
                c.mpi_runs += 1
                c.events += cluster.sim.events_processed
                c.sim_s += cluster.sim.now
                if self.after_run is not None:
                    self.after_run()

        engine = _engines.DESEngine
        original_run, original_batch = engine.run, engine.run_batch

        def run(self_, exp):
            c = counts()
            c.rounds += 1
            c.experiments += 1
            return original_run(self_, exp)

        def run_batch(self_, exps):
            c = counts()
            c.rounds += 1
            c.experiments += len(exps)
            return original_batch(self_, exps)

        original_append = CampaignJournal.append

        def append(self_, record):
            c = counts()
            c.journal_appends += 1
            c.journal_started += record.get("type") == "experiment_started"
            c.journal_done += record.get("type") == "experiment_done"
            return original_append(self_, record)

        self._patch(_runtime, "run_ranks", run_ranks)
        self._patch(_engines, "run_ranks", run_ranks)
        self._patch(engine, "run", run)
        self._patch(engine, "run_batch", run_batch)
        self._patch(CampaignJournal, "append", append)
        return self

    def _patch(self, owner, name, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def remove(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()

    def reset(self) -> Counts:
        """Start a fresh count; returns the finished one."""
        done, self.counts = self.counts, Counts()
        return done


def transport_counts(cluster) -> dict:
    """The cluster's exact simulated transport statistics."""
    s = cluster.stats
    return {
        "cluster.messages": int(s.messages),
        "cluster.bytes_sent": int(s.bytes_sent),
        "cluster.rendezvous_handshakes": int(s.rendezvous_handshakes),
        "cluster.escalations": int(s.escalations),
        "cluster.port_waits": int(s.port_waits),
    }


def estimate_err(model, cluster) -> float:
    """Median relative error of the model's p2p times against the cluster's
    ground truth, over every ordered pair at 1 KB and 64 KB."""
    errors = []
    for nbytes in (1 * KB, 64 * KB):
        for i in range(cluster.n):
            for j in range(cluster.n):
                if i == j:
                    continue
                truth = cluster.p2p_model_time(i, j, nbytes)
                errors.append(abs(model.p2p_time(i, j, nbytes) - truth) / truth)
    return float(np.median(errors))


def model_is_finite(model) -> bool:
    return all(np.isfinite(np.asarray(getattr(model, name))).all()
               for name in ("C", "t", "L")) and bool(
        (np.asarray(model.beta) > 0).all())


@dataclass
class OpResult:
    """What one repetition of a workload's operation produced."""

    seconds: float
    units: int  # operations inside it (collective runs for measure-coll16)
    exact: dict
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    scaled: float = 0.0  # ``seconds`` at nominal host speed


class DesWorkload:
    """Base: a seeded input set and one repeatable operation."""

    name = ""
    nodes = 0

    def __init__(self, seed: int, workdir: str, hooks: Hooks):
        self.seed = seed
        self.workdir = workdir
        self.hooks = hooks

    def cluster(self):
        return api.load_cluster(nodes=self.nodes, seed=self.seed)

    def run_once(self, profiler=None, speed=None) -> OpResult:
        """One timed operation on a fresh cluster.  ``profiler`` (a
        ``cProfile.Profile``) is enabled around the operation alone;
        ``speed`` (a :class:`hostspeed.HostSpeed`) tracks the host's speed
        during it and gives the scaled time."""
        cluster = self.cluster()
        self.hooks.reset()
        if speed is not None:
            self.hooks.after_run = speed.tick
            speed.start()
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            output = self.operation(cluster)
        finally:
            if profiler is not None:
                profiler.disable()
            self.hooks.after_run = None
        seconds = scaled = time.perf_counter() - start
        if speed is not None:
            seconds, scaled = speed.stop()
        counts = self.hooks.reset()
        exact = {**counts.exact(), **transport_counts(cluster)}
        result = OpResult(seconds=seconds, units=1, exact=exact, scaled=scaled)
        self.check(cluster, output, counts, result)
        return result

    def operation(self, cluster):
        raise NotImplementedError

    def check(self, cluster, output, counts: Counts, result: OpResult) -> None:
        raise NotImplementedError


class EstimateLmo16(DesWorkload):
    """One full extended-LMO estimate on 16 nodes (reps=3)."""

    name = "estimate-lmo16"
    nodes = 16

    def operation(self, cluster):
        return api.estimate(cluster, "lmo", reps=3)

    def check(self, cluster, output, counts, result):
        check_model(output.model, cluster, result)


class CampaignLmo10(DesWorkload):
    """One serial durable campaign on 10 nodes, default fsynced journal."""

    name = "campaign-lmo10"
    nodes = 10

    def operation(self, cluster):
        journal = os.path.join(self.workdir, "campaign.jsonl")
        if os.path.exists(journal):
            os.unlink(journal)
        return api.run_campaign(cluster, journal)

    def check(self, cluster, output, counts, result):
        journal = output.journal_path
        # Records carry wall-clock fields, so the size is not exact.
        result.info["journal_bytes"] = os.path.getsize(journal)
        result.info["useful"] = (counts.journal_done, counts.journal_started)
        if not output.coverage_ok or output.stopped != "complete":
            result.problems.append(
                f"campaign ended {output.stopped!r} with coverage "
                f"{output.coverage:.3f} (coverage_ok={output.coverage_ok})")
        records = replay(journal)
        if records.truncated_tail or not records.of_type("campaign_complete"):
            result.problems.append("campaign journal is not complete")
        if output.model is None:
            result.problems.append("campaign produced no model")
            return
        check_model(output.model, cluster, result)
        os.unlink(journal)


def check_model(model, cluster, result: OpResult) -> None:
    if not model_is_finite(model):
        result.problems.append("estimated model has non-finite parameters")
        return
    err = estimate_err(model, cluster)
    result.info["estimate_err"] = err
    if not err < ESTIMATE_ERR_LIMIT:
        result.problems.append(
            f"estimate_err {err:.4f} is not under {ESTIMATE_ERR_LIMIT}")


class MeasureColl16(DesWorkload):
    """A fixed-repetition ``api.measure`` sweep on 16 nodes, roots by seed."""

    name = "measure-coll16"
    nodes = 16

    def __init__(self, seed, workdir, hooks):
        super().__init__(seed, workdir, hooks)
        rng = np.random.default_rng([seed, 16])
        self.points = [(op, alg, nbytes, int(rng.integers(0, self.nodes)))
                       for op, alg in COLLECTIVES for nbytes in SIZES]

    def operation(self, cluster):
        policy = MeasurementPolicy.fixed(MEASURE_REPS)
        return [api.measure(cluster, op, alg, nbytes, root=root, policy=policy)
                for op, alg, nbytes, root in self.points]

    def check(self, cluster, output, counts, result):
        reps = sum(m.reps for m in output)
        result.units = reps
        result.exact["benchlib.reps"] = reps
        # Means are a deterministic function of the seed as well.
        result.exact["benchlib.mean_sum"] = float(sum(m.mean for m in output))
        if counts.mpi_runs != reps:
            result.problems.append(
                f"{reps} measured repetitions but {counts.mpi_runs} MPI runs")
        bad = [m for m in output if not (np.isfinite(m.mean) and m.mean > 0)]
        if bad:
            result.problems.append(f"{len(bad)} measurements are not positive")


WORKLOADS = {cls.name: cls for cls in (EstimateLmo16, CampaignLmo10, MeasureColl16)}


class Workdir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self, root: str):
        os.makedirs(root, exist_ok=True)
        self.path = tempfile.mkdtemp(dir=root)

    def __enter__(self) -> str:
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass  # another run still uses it
