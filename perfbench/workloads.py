"""Run one workload: untraced for the end-to-end metrics, or traced for the
per-layer metrics, with every output check applied."""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
from repro import api

import des
import hostspeed
import serveload
from tracing import LayerProfile, UNATTRIBUTED, format_accounting

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_counts.json")
SETUP_SAMPLES = 7

#: name -> unit of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: name -> unit of every per-layer metric a traced run reports.  Layers a
#: workload does not exercise report 0.  DES figures are per operation
#: (one estimate, campaign or measurement sweep); serve figures cover the
#: traced traffic schedule.
PER_LAYER = {
    "simlib.events": "count",
    "simlib.events_per_message": "ratio",
    "simlib.self_s": "s",
    "cluster.messages": "count",
    "cluster.bytes_sent": "B",
    "cluster.rendezvous_handshakes": "count",
    "cluster.escalations": "count",
    "cluster.port_waits": "count",
    "cluster.sim_s": "s",
    "cluster.transport.self_s": "s",
    "cluster.noise.draws": "count",
    "cluster.noise.self_s": "s",
    "mpi.runs": "count",
    "mpi.self_s": "s",
    "mpi.collectives.self_s": "s",
    "estimation.experiments": "count",
    "estimation.rounds": "count",
    "estimation.schedule.self_s": "s",
    "estimation.solve_s": "s",
    "estimation.estimate_err": "ratio",
    "estimation.journal.appends": "count",
    "estimation.journal.bytes": "B",
    "estimation.journal.append_s": "s",
    "estimation.campaign.useful_ratio": "ratio",
    "estimation.campaign.unit_attempts": "count",
    "benchlib.reps": "count",
    "benchlib.self_s": "s",
    "serve.requests": "count",
    "serve.batches": "count",
    "serve.coalesced_mean": "ratio",
    "serve.queue_window_ms": "ms",
    "serve.self_s": "s",
    "serve.protocol.decode_s": "s",
    "serve.protocol.encode_s": "s",
    "serve.wire_ms": "ms",
    "serve.gen_late_ms": "ms",
    "predict_service.cache_hit_ratio": "ratio",
    "predict_service.cache_lookups": "count",
    "predict_service.sweeps": "count",
    "predict_service.compute_s": "s",
    "models.collectives.self_s": "s",
    "obs.self_s": "s",
    "trace.overhead": "ratio",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
}

def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_golden():
    """The recorded exact counts, or None when the file is missing."""
    try:
        with open(GOLDEN) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def check_exact(name: str, seed: int, runs: list, golden) -> list:
    """Problems with exact counts: they must repeat across the run's
    operations and equal the counts recorded for this seed.  A missing
    record file is a problem too."""
    problems = []
    first = runs[0]
    for index, counts in enumerate(runs[1:], 2):
        diff = sorted(k for k in first if counts.get(k) != first[k])
        if diff:
            problems.append(f"operation {index} changed exact counts {diff}")
    if golden is None:
        return problems + [f"{GOLDEN} is missing: exact counts not compared"]
    recorded = golden.get(name, {}).get(str(seed))
    if recorded is not None:
        diff = sorted(k for k in set(recorded) | set(first)
                      if recorded.get(k) != first.get(k))
        if diff:
            problems.append("exact counts differ from the recorded ones: " + ", ".join(
                f"{k} {first.get(k)!r} != {recorded.get(k)!r}" for k in diff))
    return problems


def golden_note(name: str, seed: int, golden) -> str:
    """What the exact counts of this run were compared against."""
    if golden is not None and str(seed) in golden.get(name, {}):
        return f"exact counts: compared with those recorded for seed {seed}"
    if golden is not None:
        return (f"exact counts: none recorded for seed {seed}; checked only "
                "for repetition within the run")
    return "exact counts: no record file"


# -- set-up ---------------------------------------------------------------------------
_SETUP_CHILD = (
    "import sys; sys.path[:0] = [{src!r}, {here!r}]; import workloads; "
    "from repro import api; api.load_cluster(nodes={nodes}, seed={seed}); "
    "print('ready', flush=True)"
)


def des_setup_s(src: str, nodes: int, seed: int, speed) -> tuple:
    """Fresh-process set-up times (interpreter start, imports, cluster
    build): raw samples and samples at nominal host speed."""
    raw, scaled = [], []
    code = _SETUP_CHILD.format(src=src, here=HERE, nodes=nodes, seed=seed)
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            raw.append(time.perf_counter() - start)
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("set-up child failed")
        scaled.append(speed.scale(raw[-1]))
    return raw, scaled


# -- DES workloads ---------------------------------------------------------------------
def _loop(workload, seconds: float, speed) -> list:
    """Repeat the operation for ``seconds``; start another only if one as
    long as the last would still end within them."""
    results = []
    start = time.perf_counter()
    while True:
        result = workload.run_once(speed=speed)
        results.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + result.seconds > seconds:
            return results


def run_des(name: str, seed: int, seconds: float, traced: bool, workdir: str,
            src: str) -> dict:
    hooks = des.Hooks().install()
    golden = load_golden()
    try:
        with des.Workdir(workdir) as scratch:
            workload = des.WORKLOADS[name](seed, scratch, hooks)
            if traced:
                return _traced_des(workload, seed, seconds, golden)
            speed = hostspeed.HostSpeed()
            setup_raw, setup = des_setup_s(src, workload.nodes, seed, speed)
            ops = _loop(workload, seconds, speed)
    finally:
        hooks.remove()
    problems = [p for r in ops for p in r.problems]
    problems += check_exact(name, seed, [r.exact for r in ops], golden)
    per_unit = [r.scaled / r.units for r in ops]
    units = sum(r.units for r in ops)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "op_p50_ms": metric(statistics.median(per_unit) * 1e3, "ms"),
        "ops_per_s": metric(units / sum(r.scaled for r in ops), "1/s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    report_des(name, seed, ops, setup_raw, metrics, problems, speed,
               golden_note(name, seed, golden))
    return {"correct": not problems, "attempted": units,
            "failed": sum(r.units for r in ops if r.problems),
            "metrics": metrics}


def report_des(name, seed, ops, setup_raw, metrics, problems, speed, note) -> None:
    op = {"estimate-lmo16": "api.estimate call",
          "campaign-lmo10": "api.run_campaign call",
          "measure-coll16": "simulated collective run"}[name]
    print(f"== {name} (seed {seed}): {len(ops)} operations, unit = one {op}")
    per_unit = sorted(r.seconds / r.units * 1e3 for r in ops)
    print(f"  raw per-unit ms: min {per_unit[0]:.4f}  median "
          f"{statistics.median(per_unit):.4f}  max {per_unit[-1]:.4f} "
          f"(n={len(per_unit)})")
    print("  raw set-up samples s: " + ", ".join(f"{s:.3f}" for s in setup_raw))
    print(f"  host reference sample s: median {statistics.median(speed.samples):.4f} "
          f"(nominal {hostspeed.NOMINAL_S}, n={len(speed.samples)}); "
          "metrics below are at nominal speed")
    errs = [r.info["estimate_err"] for r in ops if "estimate_err" in r.info]
    if errs:
        print(f"  estimate_err: {errs[0]:.4f} (limit {des.ESTIMATE_ERR_LIMIT})")
    print(f"  failed_ratio: {sum(bool(r.problems) for r in ops)}/{len(ops)}")
    print(f"  {note}")
    for key, value in metrics.items():
        print(f"  {key:<14} {value['value']:>14.4f} {value['unit']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")


def _traced_des(workload, seed: int, seconds: float, golden) -> dict:
    profiler = cProfile.Profile()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(workload.run_once())
        traced.append(workload.run_once(profiler))
    wall = sum(r.seconds for r in traced)
    profile = LayerProfile(pstats.Stats(profiler), wall)
    runs = plain + traced
    problems = [p for r in runs for p in r.problems]
    problems += check_exact(workload.name, seed, [r.exact for r in runs], golden)
    problems += profile.check_accounting()
    n = len(traced)
    exact = traced[0].exact
    info = traced[0].info
    per = lambda seconds_: seconds_ / n  # noqa: E731 - per-operation figure
    messages = exact["cluster.messages"]
    done, started = info.get("useful", (0, 0))
    solve = profile.cumulative("estimation/robust.py", "solve_and_assemble") or sum(
        profile.cumulative("estimation/lmo_est.py", f)
        for f in ("solve_triplet", "collect_parameter_samples", "assemble_model"))
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update({k: v for k, v in exact.items() if k in PER_LAYER})
    values.update({
        "simlib.events_per_message": exact["simlib.events"] / messages,
        "simlib.self_s": per(profile.layer("simlib")),
        "cluster.transport.self_s": per(profile.layer("cluster.transport", "cluster")),
        "cluster.noise.draws": profile.calls("cluster/noise.py", "perturb") / n,
        "cluster.noise.self_s": per(profile.layer("cluster.noise")),
        "mpi.self_s": per(profile.layer("mpi")),
        "mpi.collectives.self_s": per(profile.layer("mpi.collectives")),
        "estimation.schedule.self_s": per(profile.layer("estimation.schedule")),
        "estimation.solve_s": per(solve),
        "estimation.estimate_err": info.get("estimate_err", 0.0),
        "estimation.journal.bytes": info.get("journal_bytes", 0),
        "estimation.journal.append_s": per(
            profile.cumulative("estimation/journal.py", "append")),
        "estimation.campaign.useful_ratio": done / started if started else 0.0,
        "estimation.campaign.unit_attempts": started,
        "benchlib.self_s": per(profile.layer("benchlib")),
        "models.collectives.self_s": per(profile.layer("models.collectives")),
        "obs.self_s": per(profile.layer("obs")),
        "trace.overhead": (statistics.median(r.seconds for r in traced)
                           / statistics.median(r.seconds for r in plain)),
        "trace.wall_s": wall,
        "trace.unattributed_s": profile.self_s.get(UNATTRIBUTED, 0.0),
    })
    metrics = {k: metric(values[k], PER_LAYER[k]) for k in PER_LAYER}
    print(f"== {workload.name} (seed {seed}) traced: {n} traced, "
          f"{len(plain)} untraced operations")
    print(f"  tracing overhead: {values['trace.overhead']:.3f}x "
          f"(traced median op / untraced median op)")
    print(f"  untraced op_p50_ms: "
          f"{statistics.median(r.seconds / r.units for r in plain) * 1e3:.4f}")
    print("  accounting (all traced operations):")
    print("\n".join(format_accounting(profile.self_s, profile.wall_s)))
    report_layers(metrics)
    print(f"  {golden_note(workload.name, seed, golden)}")
    if started:
        print(f"  useful_ratio = {done} units completed / {started} unit attempts")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    return {"correct": not problems, "attempted": len(runs),
            "failed": sum(bool(r.problems) for r in runs), "metrics": metrics}


def report_layers(metrics: dict) -> None:
    """The per-layer metrics this workload exercised (the rest are 0)."""
    print("  per-layer metrics:")
    for key, value in metrics.items():
        if value["value"] != 0.0:
            print(f"    {key:<36} {value['value']:>16.6g} {value['unit']}")


# -- serve-mixed -----------------------------------------------------------------------
def run_serve(seed: int, seconds: float, traced: bool, workdir: str, src: str) -> dict:
    env = serveload.daemon_env(src)
    root = os.path.dirname(src)
    with des.Workdir(workdir) as scratch:
        model_path = os.path.join(scratch, "lmo16.json")
        serveload.build_model(seed, model_path)
        model = api.load_model(model_path)
        log = os.path.join(scratch, "daemon.log")
        if traced:
            return _traced_serve(seed, seconds, model, model_path, env, root,
                                 scratch, log)
        plan = serveload.TrafficPlan(seed, model, seconds)
        # Booting is one process's CPU work, like the DES set-up, so it is
        # scaled to nominal host speed; the traffic figures are not.
        speed = hostspeed.HostSpeed()
        boots, setup = [], []
        for index in range(SETUP_SAMPLES):
            daemon = serveload.Daemon(serveload.serve_command(model_path),
                                      env, root, log)
            boots.append(daemon.boot_s)
            setup.append(speed.scale(daemon.boot_s))
            if index < SETUP_SAMPLES - 1:
                daemon.stop()
        try:
            summary, status, health = _drive(daemon, plan.warmup, plan.phases)
        finally:
            daemon.stop()
    return _serve_result(seed, plan, summary, status, health, boots, setup)


def _drive(daemon, warmup, phases):
    """Send the warm-up and then ``phases`` to a booted daemon.  The
    status carries ``traffic_cpu_s``: the daemon's CPU seconds from
    listening to the last reply, boot excluded."""
    boot = daemon.proc_status()
    conns = [serveload._Conn(daemon.port) for _ in range(serveload.CONNECTIONS)]
    try:
        serveload.run_phase(conns, warmup)
        lateness = [serveload.run_phase(conns, phase) for phase in phases]
    finally:
        for conn in conns:
            conn.close()
    status = daemon.proc_status()
    status["traffic_cpu_s"] = status["cpu_s"] - boot["cpu_s"]
    health = daemon.call("health")
    return serveload.summarise(phases, lateness), status, health


def _serve_result(seed, plan, summary, status, health, boots, setup) -> dict:
    reqs = [r for phase in plan.phases for r in phase.requests]
    failed = [r for r in reqs if not r.ok]
    problems = [f"{len(failed)} requests failed or mismatched"
                f" (first: {failed[0].error})"] if failed else []
    sent = len(reqs) + len(plan.warmup.requests)
    if health["requests_total"] < sent:
        problems.append(f"daemon saw {health['requests_total']} requests, "
                        f"{sent} were sent")
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "op_p50_ms": metric(summary["predict_p50_ms"], "ms"),
        "ops_per_s": metric(summary["saturated_per_s"], "1/s"),
        "peak_rss_mb": metric(status["peak_rss_mb"], "MB"),
    }
    print(f"== serve-mixed (seed {seed}): open loop, {serveload.CONNECTIONS} "
          f"connections, batches of {serveload.BATCH_POINTS} at "
          f"{serveload.BATCH_RATE:g}/s, latency limit {serveload.LATENCY_LIMIT_MS} ms")
    print(f"  {'rate':>6} {'sent':>6} {'ok':>6} {'fail':>5} {'p50_ms':>8} "
          f"{'tail':>5} {'tail_ms':>9} {'batch_p50':>9} {'done/s':>8} "
          f"{'late_ms':>8} sustained")
    for row in summary["rows"]:
        print(f"  {row['rate']:>6g} {row['sent']:>6} {row['succeeded']:>6} "
              f"{row['failed']:>5} {row['single_p50_ms']:>8.3f} "
              f"p{row['tail_pct']:<4g} {row['single_tail_ms']:>9.3f} "
              f"{row['batch_p50_ms']:>9.3f} {row['completed_per_s']:>8.1f} "
              f"{row['gen_late_ms']:>8.3f} {row['sustained']}")
    print(f"  predict_p50_ms {summary['predict_p50_ms']:.4f}  predict_"
          f"p{summary['predict_tail_pct']:g}_ms {summary['predict_tail_ms']:.4f}  "
          f"batch_p50_ms {summary['batch_p50_ms']:.4f}  predict_max_rps "
          f"{summary['predict_max_rps']:g}  failed_ratio {len(failed)}/{len(reqs)}")
    print("  raw set-up (boot to listening) samples s: "
          + ", ".join(f"{b:.3f}" for b in boots) + "; setup_s is at nominal speed")
    for key, value in metrics.items():
        print(f"  {key:<14} {value['value']:>14.4f} {value['unit']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    return {"correct": not problems, "attempted": len(reqs), "failed": len(failed),
            "metrics": metrics}


def _traced_serve(seed, seconds, model, model_path, env, root, scratch, log) -> dict:
    """The light-load phase against a plain daemon, then the same requests
    against the traced launcher; overhead is the ratio of the daemons' CPU
    time for that traffic."""
    rate = serveload.RATES[0]
    plan = serveload.TrafficPlan(seed, model, seconds / 2, rates=(rate,),
                                 shares=(1.0,))
    plain_phase = plan.phases[0]
    daemon = serveload.Daemon(serveload.serve_command(model_path), env, root, log)
    try:
        plain_summary, plain_status, _ = _drive(daemon, plan.warmup, [plain_phase])
    finally:
        daemon.stop()
    traced_phase = plan.replay(plain_phase)
    out = os.path.join(scratch, "trace.json")
    daemon = serveload.Daemon(serveload.traced_command(model_path, out),
                              env, root, log)
    try:
        summary, status, health = _drive(daemon, plan.replay(plan.warmup),
                                         [traced_phase])
    finally:
        code = daemon.stop()
    problems = []
    if code != 0 or not os.path.exists(out):
        problems.append(f"traced daemon exited {code} without its trace")
        doc = {"self_s": {}, "wall_s": 1.0, "accounting_problems": [],
               "compute_s": 0.0, "cache": {"hits": 0, "misses": 0},
               "batch_sizes": [], "queue_window_s": [], "dispatch_s": {}}
    else:
        with open(out) as fh:
            doc = json.load(fh)
    problems += doc["accounting_problems"]
    reqs = plain_phase.requests + traced_phase.requests
    failed = [r for r in reqs if not r.ok]
    if failed:
        problems.append(f"{len(failed)} requests failed or mismatched "
                        f"(first: {failed[0].error})")
    self_s = doc["self_s"]
    cache = doc["cache"]
    lookups = cache["hits"] + cache["misses"]
    wire = [(r.done - r.sent) - doc["dispatch_s"][str(r.rid)]
            for r in traced_phase.requests if r.ok and str(r.rid) in doc["dispatch_s"]]
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update({
        "serve.requests": health["requests_total"],
        "serve.batches": len(doc["batch_sizes"]),
        "serve.coalesced_mean": (float(np.mean(doc["batch_sizes"]))
                                 if doc["batch_sizes"] else 0.0),
        "serve.queue_window_ms": (float(np.median(doc["queue_window_s"])) * 1e3
                                  if doc["queue_window_s"] else 0.0),
        "serve.self_s": self_s.get("serve", 0.0),
        "serve.protocol.decode_s": self_s.get("serve.protocol.decode", 0.0),
        "serve.protocol.encode_s": self_s.get("serve.protocol.encode", 0.0),
        "serve.wire_ms": float(np.median(wire)) * 1e3 if wire else 0.0,
        "serve.gen_late_ms": summary["rows"][0]["gen_late_ms"],
        "predict_service.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "predict_service.cache_lookups": lookups,
        "predict_service.sweeps": cache["misses"],
        "predict_service.compute_s": doc["compute_s"],
        "models.collectives.self_s": self_s.get("models.collectives", 0.0),
        "obs.self_s": self_s.get("obs", 0.0),
        "trace.overhead": status["traffic_cpu_s"] / plain_status["traffic_cpu_s"],
        "trace.wall_s": doc["wall_s"],
        "trace.unattributed_s": self_s.get(UNATTRIBUTED, 0.0),
    })
    metrics = {k: metric(values[k], PER_LAYER[k]) for k in PER_LAYER}
    print(f"== serve-mixed (seed {seed}) traced: {rate} rps singles + batches, "
          f"{len(traced_phase.requests)} requests per daemon")
    print(f"  tracing overhead: {values['trace.overhead']:.3f}x daemon CPU for "
          f"the same requests ({status['traffic_cpu_s']:.2f}s traced / "
          f"{plain_status['traffic_cpu_s']:.2f}s plain, boot excluded)")
    print(f"  predict_p50_ms plain {plain_summary['predict_p50_ms']:.3f}, "
          f"traced {summary['predict_p50_ms']:.3f}")
    print("  accounting (traced daemon, from listening to drained):")
    print("\n".join(format_accounting(self_s, doc["wall_s"])))
    report_layers(metrics)
    print(f"  cache_hit_ratio = {cache['hits']} hits / {lookups} lookups")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    return {"correct": not problems, "attempted": len(reqs), "failed": len(failed),
            "metrics": metrics}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 workdir: str, src: str) -> dict:
    if name == "serve-mixed":
        return run_serve(seed, seconds, traced, workdir, src)
    return run_des(name, seed, seconds, traced, workdir, src)
