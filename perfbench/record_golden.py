"""Record the exact counts of the DES workloads for a range of seeds.

    python3 perfbench/record_golden.py 0 31

writes ``perfbench/golden_counts.json``.  A run on a recorded seed fails
when any exact count differs, so a change that must not alter the
simulation (a faster kernel, a leaner transport) proves it from the
benchmark.  Re-record only for a change that alters the simulated
behaviour on purpose, and say so in its description.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import des  # noqa: E402
from workloads import GOLDEN, load_golden  # noqa: E402


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    golden = load_golden() or {}
    hooks = des.Hooks().install()
    try:
        with des.Workdir(os.path.join(os.path.dirname(HERE), ".perfbench_work")) as wd:
            for name, cls in des.WORKLOADS.items():
                for seed in range(first, last + 1):
                    result = cls(seed, wd, hooks).run_once()
                    if result.problems:
                        print(f"{name} seed {seed}: {result.problems}")
                        return 1
                    golden.setdefault(name, {})[str(seed)] = result.exact
                    print(f"{name} seed {seed}: {result.exact}", flush=True)
    finally:
        hooks.remove()
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
