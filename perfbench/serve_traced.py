"""Launch ``repro serve`` with the benchmark's tracing installed.

Used only by the traced run of serve-mixed.  It starts the same server
``repro serve`` starts, with the default configuration, after wrapping a
few public methods from outside (queue entry, batch evaluation, request
dispatch) and enabling a deterministic profile.  Spans stay in memory;
when the server has drained, one JSON document with the layer accounting,
the counters and the per-request server times is written to ``--out``.

    python perfbench/serve_traced.py --model MODEL.json --out TRACE.json
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import json
import os
import pstats
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from repro import predict_service  # noqa: E402
from repro.serve import protocol  # noqa: E402
from repro.serve.server import PredictionServer, ServeConfig  # noqa: E402
from repro.serve.service import PredictWorker, StatefulWorker  # noqa: E402

from tracing import LayerProfile  # noqa: E402


class ServeSpans:
    """Counters and intervals recorded at the serve layer boundaries."""

    def __init__(self) -> None:
        self.submitted: dict[int, float] = {}
        self.queue_window_s: list[float] = []
        self.batch_sizes: list[int] = []
        self.dispatch_s: dict = {}

    def install(self) -> None:
        spans = self
        submit = StatefulWorker.submit
        evaluate = PredictWorker._evaluate_predicts
        handle = PredictWorker._handle
        dispatch = PredictionServer._dispatch

        def traced_submit(self_, item):
            spans.submitted[id(item)] = time.perf_counter()
            return submit(self_, item)

        def waited(items) -> None:
            now = time.perf_counter()
            for item in items:
                start = spans.submitted.pop(id(item), None)
                if start is not None:
                    spans.queue_window_s.append(now - start)

        def traced_evaluate(self_, items):
            waited(items)
            spans.batch_sizes.append(len(items))
            return evaluate(self_, items)

        async def traced_handle(self_, item):
            waited([item])
            return await handle(self_, item)

        async def traced_dispatch(self_, line):
            start = time.perf_counter()
            try:
                return await dispatch(self_, line)
            finally:
                spans.dispatch_s[protocol.peek_id(line)] = time.perf_counter() - start

        StatefulWorker.submit = traced_submit
        PredictWorker._evaluate_predicts = traced_evaluate
        PredictWorker._handle = traced_handle
        PredictionServer._dispatch = traced_dispatch


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spans = ServeSpans()
    spans.install()
    profiler = cProfile.Profile()
    clock: dict[str, float] = {}

    async def run() -> None:
        server = PredictionServer(ServeConfig(models={"lmo": args.model}))
        await server.start()
        print(f"listening on {server.endpoint}", flush=True)
        clock["start"] = time.perf_counter()
        profiler.enable()
        try:
            await server.serve_forever()
        finally:
            profiler.disable()
            clock["end"] = time.perf_counter()

    asyncio.run(run())
    profile = LayerProfile(pstats.Stats(profiler), clock["end"] - clock["start"])
    doc = {
        "wall_s": profile.wall_s,
        "self_s": profile.self_s,
        "accounting_problems": profile.check_accounting(),
        "compute_s": profile.cumulative("repro/predict_service.py", "_compute_sweep"),
        "cache": predict_service.cache_info(),
        "batch_sizes": spans.batch_sizes,
        "queue_window_s": spans.queue_window_s,
        "dispatch_s": {str(k): v for k, v in spans.dispatch_s.items()},
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
