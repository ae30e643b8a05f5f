"""The repository's benchmark: estimation, measurement, campaigns, serving.

One workload per run (the form ``BENCHMARK.json`` describes)::

    python3 perfbench/run.py --workload estimate-lmo16 --seed 0 --seconds 15 --trace 0

prints a readable report and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
gives the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separately traced run plus the tracing overhead.  Without ``--workload``
every workload runs in its own process and a table of all metrics is
printed; the exit code is non-zero when any output check failed::

    python3 perfbench/run.py                 # end-to-end, all workloads
    python3 perfbench/run.py --trace 1       # per-layer tables + overhead

See ``perfbench/README.md`` for why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("estimate-lmo16", "campaign-lmo10", "measure-coll16", "serve-mixed")

def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Layered benchmark of the LMO reproduction.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, with a table)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main() -> int:
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import run_workload  # noqa: E402 - needs SRC on the path

    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), WORKDIR, SRC)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; one table of all metrics."""
    ok = True
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"== {name}: no result (exit {proc.returncode})")
            print(proc.stderr[-2000:])
            ok = False
            continue
        print("\n".join(lines[:-1]))
        ok &= bool(result["correct"]) and proc.returncode == 0
    print("all output checks passed" if ok else "OUTPUT CHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
