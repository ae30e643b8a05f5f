"""serve-mixed: an open-loop, seeded traffic mix against ``repro serve``.

The daemon runs as its own process with its default configuration and one
saved 16-node LMO model.  The generator is a single thread driving at most
two non-blocking connections, so it never uses more threads or sockets
than a 2-core host has cores.  Requests are sent when they are due whether
or not earlier ones have been answered (open loop), and every latency is
measured from the due time, so a stall also charges the requests queued
behind it.  How late the generator itself ran is reported beside it.

Traffic, all seeded:

* single ``predict`` calls at a few fixed rates, from light load to past
  the knee, over more (operation, algorithm, root, size) keys than the
  daemon's 256-entry sweep cache holds, with Zipf-skewed popularity;
* beside them, a steady stream of ``predict_many`` calls of 64 distinct
  points each (one root, 16 sizes per collective), which always miss the
  cache and run the vectorized formulas.

Every reply is compared with the in-process ``api.predict`` /
``api.predict_many`` answer for the same model file, bit for bit.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro import api
from repro.serve import protocol

KB = 1024
#: Single-predict rates (requests/s); the first is the light-load rate the
#: latency metrics are read at, the last is past the measured knee.
RATES = (150, 300, 450, 900)
#: Share of the measuring time spent at each rate: the light-load phase is
#: long so its tail percentile rests on enough samples, and the overload
#: phase is long so the measured capacity averages out host noise.
PHASE_SHARES = (0.4, 0.15, 0.15, 0.3)
BATCH_RATE = 10.0  # predict_many calls per second, in every phase
BATCH_POINTS = 64
#: A rate is sustained when its single-predict tail latency stays under
#: this limit and every request of the phase was answered correctly.
LATENCY_LIMIT_MS = 25.0
CONNECTIONS = 2
WARMUP_S = 0.5
DRAIN_TIMEOUT_S = 10.0
COLLECTIVES = [("scatter", "linear"), ("scatter", "binomial"),
               ("gather", "linear"), ("gather", "binomial")]
ZIPF_EXPONENT = 1.1
KEY_SIZES = np.unique(np.geomspace(512, 256 * KB, 32).astype(int))

_LISTENING = re.compile(r"listening on (\S+):(\d+)")


def tail_percentile(count: int) -> Optional[float]:
    """Highest of the usual percentiles with at least 10 samples beyond it."""
    for pct in (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0):
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return None


# -- inputs ------------------------------------------------------------------------
def build_model(seed: int, path: str) -> None:
    """The served model: a quick 16-node LMO estimate of the seed's cluster."""
    cluster = api.load_cluster(nodes=16, seed=seed)
    api.save_model(api.estimate(cluster, "lmo", quick=True, reps=1).model, path)


@dataclass
class Req:
    due: float  # seconds after the phase start, like sent and done
    kind: str  # "single" | "batch"
    conn: int
    rid: int
    line: bytes
    expected: dict
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    error: str = ""


@dataclass
class Phase:
    rate: float
    duration: float
    requests: list = field(default_factory=list)


def _normalise(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


class TrafficPlan:
    """The seeded request schedule and the in-process expected answers."""

    def __init__(self, seed: int, model, seconds: float, rates=None, shares=None):
        rates = RATES if rates is None else rates
        shares = PHASE_SHARES if shares is None else shares
        self.rng = np.random.default_rng([seed, 7725])
        self.model = model
        self._rid = 0
        keys = [(op, alg, root, int(size)) for op, alg in COLLECTIVES
                for root in range(model.n) for size in KEY_SIZES]
        order = self.rng.permutation(len(keys))
        self.keys = [keys[i] for i in order]
        weights = 1.0 / np.arange(1, len(keys) + 1) ** ZIPF_EXPONENT
        self.popularity = weights / weights.sum()
        self._expected_single: dict = {}
        self.warmup = self._phase(rates[0], WARMUP_S)
        self.phases = [self._phase(rate, seconds * share)
                       for rate, share in zip(rates, shares)]

    def _next_id(self) -> int:
        self._rid += 1
        return self._rid

    def _single(self, due: float, conn: int) -> Req:
        op, alg, root, size = self.keys[
            int(self.rng.choice(len(self.keys), p=self.popularity))]
        expected = self._expected_single.get((op, alg, root, size))
        if expected is None:
            expected = _normalise(api.predict(self.model, op, alg, size, root=root)
                                  .to_dict())
            self._expected_single[(op, alg, root, size)] = expected
        rid = self._next_id()
        params = {"model": "lmo", "operation": op, "algorithm": alg,
                  "nbytes": size, "root": root}
        return Req(due, "single", conn, rid,
                   protocol.encode_request("predict", params, rid), expected)

    def _batch(self, due: float, conn: int) -> Req:
        # One root, every collective, distinct sizes: four vectorized sweeps
        # of BATCH_POINTS / 4 points that no earlier request has cached.
        root = int(self.rng.integers(0, self.model.n))
        sizes = self.rng.choice(np.arange(1, 256 * KB + 1), BATCH_POINTS,
                                replace=False)
        items = [{"model": "lmo", "operation": op, "algorithm": alg,
                  "nbytes": int(size), "root": root}
                 for (op, alg), chunk in zip(
                     COLLECTIVES, np.split(sizes, len(COLLECTIVES)))
                 for size in chunk]
        seconds = api.predict_many(self.model, [
            api.PredictRequest(operation=i["operation"], algorithm=i["algorithm"],
                               nbytes=i["nbytes"], root=i["root"]) for i in items])
        expected = _normalise(api.schema.PredictionBatch(
            seconds=tuple(float(s) for s in seconds)).to_dict())
        rid = self._next_id()
        return Req(due, "batch", conn, rid, protocol.encode_request(
            "predict_many", {"model": "lmo", "requests": items}, rid), expected)

    def replay(self, phase: Phase) -> Phase:
        """The same requests at the same due times under fresh ids, to
        send one schedule to a second daemon."""
        copy = Phase(phase.rate, phase.duration)
        for req in phase.requests:
            doc = json.loads(req.line)
            rid = self._next_id()
            copy.requests.append(Req(
                req.due, req.kind, req.conn, rid,
                protocol.encode_request(doc["verb"], doc["params"], rid),
                req.expected))
        return copy

    def _phase(self, rate: float, duration: float) -> Phase:
        phase = Phase(rate, duration)
        singles = np.arange(0.0, duration, 1.0 / rate)
        batches = np.arange(0.5 / BATCH_RATE, duration, 1.0 / BATCH_RATE)
        events = sorted([(float(t), "single") for t in singles]
                        + [(float(t), "batch") for t in batches])
        for index, (due, kind) in enumerate(events):
            conn = index % CONNECTIONS
            phase.requests.append(self._single(due, conn) if kind == "single"
                                  else self._batch(due, conn))
        return phase


# -- the open-loop generator ------------------------------------------------------
class _Conn:
    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.sock.setblocking(False)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.out = bytearray()
        self.inbuf = bytearray()

    def close(self) -> None:
        self.sock.close()


def run_phase(conns: list, phase: Phase) -> float:
    """Send ``phase`` open loop and collect every reply; returns lateness
    of the generator (max of send time minus due time), in seconds."""
    sel = selectors.DefaultSelector()
    for index, conn in enumerate(conns):
        sel.register(conn.sock, selectors.EVENT_READ, index)
    pending = {}
    reqs = phase.requests
    nxt, late = 0, 0.0
    t0 = time.perf_counter()
    deadline = t0 + phase.duration + DRAIN_TIMEOUT_S
    try:
        while nxt < len(reqs) or pending:
            now = time.perf_counter()
            if now > deadline:
                for req in pending.values():
                    req.error = "no reply before the drain timeout"
                break
            while nxt < len(reqs) and t0 + reqs[nxt].due <= now:
                req = reqs[nxt]
                req.sent = now - t0
                late = max(late, now - (t0 + req.due))
                conns[req.conn].out += req.line
                pending[req.rid] = req
                nxt += 1
            for index, conn in enumerate(conns):
                if conn.out:
                    try:
                        sent = conn.sock.send(conn.out)
                    except BlockingIOError:
                        sent = 0
                    del conn.out[:sent]
                mask = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.out else 0)
                sel.modify(conn.sock, mask, index)
            wait = (t0 + reqs[nxt].due - time.perf_counter()) if nxt < len(reqs) else 0.05
            for key, events in sel.select(max(0.0, wait)):
                if not events & selectors.EVENT_READ:
                    continue
                conn = conns[key.data]
                data = conn.sock.recv(1 << 16)
                if not data:
                    raise ConnectionError("daemon closed a benchmark connection")
                conn.inbuf += data
                received = time.perf_counter()
                while True:
                    cut = conn.inbuf.find(b"\n")
                    if cut < 0:
                        break
                    line = bytes(conn.inbuf[:cut + 1])
                    del conn.inbuf[:cut + 1]
                    _settle(pending, line, received, t0)
    finally:
        sel.close()
    return late


def _settle(pending: dict, line: bytes, received: float, t0: float) -> None:
    try:
        doc = protocol.decode_response(line)
    except protocol.WireError as exc:
        raise ConnectionError(f"undecodable reply: {exc}") from exc
    req = pending.pop(doc.get("id"), None)
    if req is None:
        raise ConnectionError(f"reply to unknown request id {doc.get('id')!r}")
    req.done = received - t0
    if not doc.get("ok"):
        req.error = str(doc.get("error", {}).get("code", "error"))
    elif doc.get("result") != req.expected:
        req.error = "reply differs from the in-process answer"
    else:
        req.ok = True


# -- daemon lifecycle ---------------------------------------------------------------
def daemon_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("REPRO_FLIGHT_SPILL", None)
    return env


class Daemon:
    """One ``repro serve`` process: boot (timed), talk, drain, reap."""

    def __init__(self, command: list, env: dict, cwd: str, log_path: str):
        self.log = open(log_path, "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=self.log, env=env, cwd=cwd)
        line = self.proc.stdout.readline().decode(errors="replace")
        self.boot_s = time.perf_counter() - start
        match = _LISTENING.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"daemon did not start (first line {line!r}); "
                               f"see {log_path}")
        self.port = int(match.group(2))

    def call(self, verb: str) -> dict:
        with socket.create_connection(("127.0.0.1", self.port), timeout=10) as s:
            s.sendall(protocol.encode_request(verb, {}, 0))
            reply = s.makefile("rb").readline()
        doc = protocol.decode_response(reply)
        if not doc.get("ok"):
            raise RuntimeError(f"{verb} failed: {doc.get('error')}")
        return doc["result"]

    def proc_status(self) -> dict:
        """Peak RSS (MB) and CPU seconds of the daemon since it started."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            hwm = next(int(line.split()[1]) for line in fh
                       if line.startswith("VmHWM:"))
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return {"peak_rss_mb": hwm / 1024.0,
                "cpu_s": (int(fields[11]) + int(fields[12])) / ticks}

    def stop(self) -> int:
        """Drain gracefully; kill if the daemon does not exit in time."""
        try:
            if self.proc.poll() is None:
                try:
                    self.call("drain")
                except (OSError, RuntimeError, protocol.WireError):
                    pass
                try:
                    self.proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=15)
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self.log.close()
        return self.proc.returncode


def serve_command(model_path: str) -> list:
    return [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--model", f"lmo={model_path}"]


def traced_command(model_path: str, out_path: str) -> list:
    launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "serve_traced.py")
    return [sys.executable, launcher, "--model", model_path, "--out", out_path]


# -- summaries ----------------------------------------------------------------------
def summarise(phases: list, lateness: list) -> dict:
    """Per-rate accounting and the serve-mixed end-to-end figures."""
    rows = []
    for phase, late in zip(phases, lateness):
        singles = [r for r in phase.requests if r.kind == "single"]
        batches = [r for r in phase.requests if r.kind == "batch"]
        lat = np.array([(r.done - r.due) * 1e3 for r in singles if r.ok])
        failed = sum(not r.ok for r in phase.requests)
        pct = tail_percentile(len(singles))
        tail = (float(np.percentile(lat, pct)) if pct is not None and len(lat)
                else float("inf"))
        span = (max(r.done for r in singles if r.ok) - min(r.due for r in singles)
                if len(lat) else 0.0)
        rows.append({
            "rate": phase.rate,
            "sent": len(phase.requests),
            "succeeded": len(phase.requests) - failed,
            "failed": failed,
            "single_p50_ms": float(np.median(lat)) if len(lat) else float("inf"),
            "tail_pct": pct,
            "single_tail_ms": tail,
            "batch_p50_ms": float(np.median(
                [(r.done - r.due) * 1e3 for r in batches if r.ok] or [np.inf])),
            "completed_per_s": (len(lat) / span) if span > 0 else 0.0,
            "gen_late_ms": late * 1e3,
            "sustained": failed == 0 and tail <= LATENCY_LIMIT_MS,
        })
    sustained = [row["rate"] for row in rows if row["sustained"]]
    return {
        "rows": rows,
        "predict_p50_ms": rows[0]["single_p50_ms"],
        "predict_tail_ms": rows[0]["single_tail_ms"],
        "predict_tail_pct": rows[0]["tail_pct"],
        "predict_max_rps": max(sustained) if sustained else 0.0,
        "batch_p50_ms": rows[0]["batch_p50_ms"],
        "saturated_per_s": rows[-1]["completed_per_s"],
    }
