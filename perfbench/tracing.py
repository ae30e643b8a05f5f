"""Layer accounting from a deterministic profile taken outside the program.

The benchmark never edits ``src/``.  A traced run enables ``cProfile``
around the workload and folds every function's self time into the layer
(module) that defines it.  Time spent in code outside ``repro`` (the
standard library, NumPy, builtins such as ``os.fsync``) is charged to the
``repro`` functions that called it, in proportion to the time each caller
accounts for.  Whatever cannot be charged to a layer lands in an explicit
``unattributed`` bucket, so the buckets always sum to the traced wall time.

The DES layers run as generators: wrapping a call would only time the
creation of a generator, while the profiler sees every resume.
"""

from __future__ import annotations

import os
import pstats

#: Buckets beside the layers: time charged to no layer, and the daemon's
#: event loop waiting for the wire.
UNATTRIBUTED = "unattributed"
IDLE = "idle"
#: How far below zero ``unattributed`` may fall, as a share of the wall
#: time, before the accounting is a problem (clock-read jitter).
ACCOUNTING_TOLERANCE = 0.01

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def bucket_of(filename: str, funcname: str) -> str | None:
    """The layer a function belongs to, or None for code outside ``repro``."""
    if filename.startswith(_BENCH_DIR):
        return "bench"
    marker = os.sep + "repro" + os.sep
    cut = filename.rfind(marker)
    if cut < 0:
        if "select.epoll" in funcname or "select.select" in funcname:
            return IDLE  # the daemon's event loop waiting for the wire
        return None
    rel = filename[cut + len(marker):].replace(os.sep, "/")
    top, _, rest = rel.partition("/")
    if top == "simlib":
        return "simlib"
    if top == "cluster":
        return {"machine.py": "cluster.transport",
                "noise.py": "cluster.noise"}.get(rest, "cluster")
    if top == "mpi":
        return "mpi.collectives" if rest.startswith("collectives/") else "mpi"
    if top == "estimation":
        if rest == "scheduling.py":
            return "estimation.schedule"
        if rest == "journal.py":
            return "estimation.journal"
        if rest in ("campaign.py", "breakers.py", "robust.py"):
            return "estimation.campaign"
        return "estimation"
    if top == "serve":
        if rest == "protocol.py":
            if funcname.startswith("decode") or funcname == "peek_id":
                return "serve.protocol.decode"
            return "serve.protocol.encode"
        return "serve"
    if top == "models":
        return "models.collectives" if rest.startswith("collectives/") else "models"
    if top in ("benchlib", "stats", "obs", "api"):
        return top
    if rel == "predict_service.py":
        return "predict_service"
    return "repro.other"


class LayerProfile:
    """Self time per layer, plus call counts and cumulative times by function."""

    def __init__(self, stats: pstats.Stats, wall_s: float):
        self.wall_s = wall_s
        self._stats = stats.stats  # {func: (cc, nc, tt, ct, callers)}
        self._shares: dict = {}
        self.self_s = self._attribute()

    def _share(self, func) -> dict[str, float]:
        """Fractions of ``func``'s self time owed to each layer."""
        cached = self._shares.get(func)
        if cached is not None:
            return cached
        layer = bucket_of(func[0], func[2])
        if layer is not None:
            share = {layer: 1.0}
        else:
            # A call cycle among outside functions charges the cycle's
            # entry point to nobody.
            self._shares[func] = {UNATTRIBUTED: 1.0}
            entry = self._stats.get(func)
            callers = entry[4] if entry else {}
            column = 2 if sum(c[2] for c in callers.values()) > 0 else 1
            total = sum(c[column] for c in callers.values())
            share = {}
            if total <= 0:
                share = {UNATTRIBUTED: 1.0}
            for caller, c in callers.items():
                weight = c[column] / total if total > 0 else 0.0
                for name, frac in self._share(caller).items():
                    share[name] = share.get(name, 0.0) + weight * frac
        self._shares[func] = share
        return share

    def _attribute(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for func, (_cc, _nc, tt, _ct, _callers) in self._stats.items():
            for name, frac in self._share(func).items():
                totals[name] = totals.get(name, 0.0) + tt * frac
        profiled = sum(totals.values())
        # Time outside any profiled function (profiler start/stop, the
        # wall-clock reads around it) is unattributed as well.
        totals[UNATTRIBUTED] = totals.get(UNATTRIBUTED, 0.0) + (self.wall_s - profiled)
        return totals

    def layer(self, *names: str) -> float:
        """Summed self time of the named buckets (0 when absent)."""
        return sum(self.self_s.get(name, 0.0) for name in names)

    def _matching(self, path_suffix: str, funcname: str):
        suffix = path_suffix.replace("/", os.sep)
        for func, entry in self._stats.items():
            if func[2] == funcname and func[0].endswith(suffix):
                yield entry

    def calls(self, path_suffix: str, funcname: str) -> int:
        """Exact primitive call count of one function."""
        return sum(entry[1] for entry in self._matching(path_suffix, funcname))

    def cumulative(self, path_suffix: str, funcname: str) -> float:
        """Inclusive time of one function (children included)."""
        return sum(entry[3] for entry in self._matching(path_suffix, funcname))

    def check_accounting(self) -> list[str]:
        """Problems with the accounting.  ``unattributed`` is the residual,
        so the buckets always sum to the wall time; it must not be
        negative by more than ``ACCOUNTING_TOLERANCE`` of the wall, which
        would mean the layers claim more than the wall."""
        residual = self.self_s.get(UNATTRIBUTED, 0.0)
        if residual < -ACCOUNTING_TOLERANCE * self.wall_s:
            return [f"profiled self time exceeds wall time by {-residual:.6f}s"]
        return []


def format_accounting(self_s: dict, wall_s: float) -> list:
    """Human-readable accounting table: bucket, seconds, share of wall."""
    lines = [f"  {'bucket':<24} {'self_s':>10} {'share':>7}"]
    for name, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        share = seconds / wall_s if wall_s > 0 else 0.0
        lines.append(f"  {name:<24} {seconds:>10.4f} {share:>7.1%}")
    lines.append(f"  {'wall (traced)':<24} {wall_s:>10.4f} {1:>7.1%}")
    return lines
