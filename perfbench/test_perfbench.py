"""Fast tests of the benchmark itself (tiny clusters, short schedules).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import cProfile
import json
import math
import os
import pstats
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import des  # noqa: E402
import serveload  # noqa: E402
import workloads  # noqa: E402
from repro import api  # noqa: E402
from repro.serve import protocol  # noqa: E402
from tracing import LayerProfile, UNATTRIBUTED  # noqa: E402

DES_NAMES = ["estimate-lmo16", "campaign-lmo10", "measure-coll16"]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload: 4-node clusters, few points, short phases."""
    for cls in des.WORKLOADS.values():
        monkeypatch.setattr(cls, "nodes", 4)
    monkeypatch.setattr(des, "SIZES", [1024, 65536])
    monkeypatch.setattr(des, "MEASURE_REPS", 2)
    monkeypatch.setattr(workloads, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(workloads, "load_golden", lambda: {})
    monkeypatch.setattr(serveload, "RATES", (40, 80))
    monkeypatch.setattr(serveload, "PHASE_SHARES", (0.5, 0.5))
    monkeypatch.setattr(serveload, "WARMUP_S", 0.1)
    return str(tmp_path)


def _run(name, workdir, traced=False, seconds=0.01):
    return workloads.run_workload(name, seed=3, seconds=seconds, traced=traced,
                                  workdir=workdir, src=os.path.join(ROOT, "src"))


def _assert_contract(result, names):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(names)
    assert result["attempted"] >= 1 and result["failed"] == 0
    for value in result["metrics"].values():
        assert set(value) == {"value", "unit"}


@pytest.mark.parametrize("name", DES_NAMES)
def test_des_workload_emits_every_end_to_end_metric(tiny, name):
    result = _run(name, tiny)
    assert result["correct"]
    _assert_contract(result, workloads.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", DES_NAMES)
def test_traced_des_run_emits_every_layer_metric_and_accounts(tiny, name, capsys):
    result = _run(name, tiny, traced=True)
    assert result["correct"], capsys.readouterr().out
    _assert_contract(result, workloads.PER_LAYER)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for exercised in ("simlib.events", "simlib.self_s", "cluster.messages",
                      "cluster.noise.draws", "mpi.runs", "trace.overhead"):
        assert metrics[exercised] > 0, exercised
    assert "accounting" in capsys.readouterr().out


def test_serve_mixed_end_to_end_and_traced(tiny):
    result = _run("serve-mixed", tiny, seconds=1.0)
    assert result["correct"]
    _assert_contract(result, workloads.END_TO_END)
    traced = _run("serve-mixed", tiny, traced=True, seconds=1.0)
    assert traced["correct"]
    _assert_contract(traced, workloads.PER_LAYER)
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    for exercised in ("serve.requests", "serve.batches", "serve.queue_window_ms",
                      "predict_service.cache_lookups", "trace.overhead"):
        assert metrics[exercised] > 0, exercised


def test_changed_exact_count_fails_the_run(tiny, monkeypatch):
    hooks = des.Hooks().install()
    try:
        with des.Workdir(tiny) as wd:
            exact = des.MeasureColl16(3, wd, hooks).run_once().exact
    finally:
        hooks.remove()
    recorded = dict(exact)
    assert workloads.check_exact("measure-coll16", 3, [exact], {
        "measure-coll16": {"3": recorded}}) == []
    recorded["simlib.events"] += 1
    monkeypatch.setattr(workloads, "load_golden",
                        lambda: {"measure-coll16": {"3": recorded}})
    result = _run("measure-coll16", tiny)
    assert not result["correct"]
    changed = dict(exact, **{"cluster.port_waits": exact["cluster.port_waits"] + 1})
    assert workloads.check_exact("measure-coll16", 3, [exact, changed], {})
    assert workloads.check_exact("measure-coll16", 3, [exact], None)
    monkeypatch.setattr(workloads, "load_golden", lambda: None)
    assert not _run("measure-coll16", tiny)["correct"]


def _pending_single():
    model = api.estimate(api.load_cluster(nodes=4, seed=1), "lmo", quick=True,
                         reps=1).model
    plan = serveload.TrafficPlan(1, model, seconds=0.05, rates=(40,), shares=(1.0,))
    req = next(r for r in plan.phases[0].requests if r.kind == "single")
    return req


def test_serve_reply_that_differs_from_in_process_answer_fails():
    req = _pending_single()
    good = protocol.encode_response(req.rid, req.expected)
    pending = {req.rid: req}
    serveload._settle(pending, good, 1.0, 0.0)
    assert req.ok and not req.error

    req = _pending_single()
    wrong = dict(req.expected, seconds=math.nextafter(req.expected["seconds"], 1.0))
    serveload._settle({req.rid: req}, protocol.encode_response(req.rid, wrong),
                      1.0, 0.0)
    assert not req.ok and "differs" in req.error

    req = _pending_single()
    doc = json.loads(protocol.encode_response(req.rid, req.expected))
    doc["result"]["seconds"] *= 2  # changed in transit: the crc no longer matches
    corrupt = json.dumps(doc).encode() + b"\n"
    with pytest.raises(ConnectionError):
        serveload._settle({req.rid: req}, corrupt, 1.0, 0.0)


def test_replayed_phase_is_the_same_schedule_under_fresh_ids():
    model = api.estimate(api.load_cluster(nodes=4, seed=1), "lmo", quick=True,
                         reps=1).model
    plan = serveload.TrafficPlan(1, model, 0.2, rates=(40,), shares=(1.0,))
    phase = plan.phases[0]
    copy = plan.replay(phase)
    ids = {r.rid for r in phase.requests + plan.warmup.requests}
    assert not ids & {r.rid for r in copy.requests}
    strip = lambda r: (r.due, r.kind, r.conn, json.loads(r.line)["params"],  # noqa: E731
                       r.expected)
    assert [strip(r) for r in copy.requests] == [strip(r) for r in phase.requests]


def test_phase_where_every_single_failed_is_reported_not_raised():
    phase = serveload.Phase(40, 0.1, [
        serveload.Req(0.0, "single", 0, 1, b"", {}, error="overloaded"),
        serveload.Req(0.0, "batch", 0, 2, b"", {}, done=0.01, ok=True)])
    row = serveload.summarise([phase], [0.0])["rows"][0]
    assert row["failed"] == 1 and row["completed_per_s"] == 0.0
    assert not row["sustained"]


def test_seed_changes_the_inputs():
    assert des.MeasureColl16(0, "", None).points != des.MeasureColl16(1, "", None).points
    model = api.estimate(api.load_cluster(nodes=4, seed=1), "lmo", quick=True,
                         reps=1).model
    plans = [serveload.TrafficPlan(seed, model, 0.2, rates=(40,), shares=(1.0,))
             for seed in (0, 1)]
    assert [r.line for r in plans[0].phases[0].requests] != [
        r.line for r in plans[1].phases[0].requests]
    hooks = des.Hooks().install()
    try:
        counts = []
        for seed in (0, 1):
            workload = des.CampaignLmo10(seed, "", hooks)
            cluster = workload.cluster()
            api.estimate(cluster, "lmo", quick=True, reps=1)
            counts.append(hooks.reset().sim_s)
    finally:
        hooks.remove()
    assert counts[0] != counts[1]


def test_layer_profile_buckets_sum_to_wall():
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    api.estimate(api.load_cluster(nodes=4, seed=0), "lmo", quick=True, reps=1)
    profiler.disable()
    wall = time.perf_counter() - start
    profile = LayerProfile(pstats.Stats(profiler), wall)
    assert profile.check_accounting() == []
    assert sum(profile.self_s.values()) == pytest.approx(wall)
    assert UNATTRIBUTED in profile.self_s
    assert profile.layer("simlib") > 0 and profile.calls("cluster/noise.py",
                                                          "perturb") > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "measure-coll16",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
