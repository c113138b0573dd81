"""Tiny-size self-test of the benchmark's schema, checks and tracer.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_package()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from superloewner import affine, harness, matrixrep  # noqa: E402
from superloewner.scalars import EXACT  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY_MC = dict(workloads.MC_GATE, order=2, depth=2, paths=300, t_max=0.01,
               checkpoints=(0.005, 0.01))
TINY_BATCH = dict(workloads.SMALL_BATCH, paths=20, dt=1e-3, t_max=0.01)


def tiny(name):
    if name == "mc_gate":
        return workloads.McGate(7, TINY_MC)
    if name == "sim_small_batch":
        return workloads.SmallBatch(7, TINY_BATCH)
    return workloads.ExactOracle(7, pool=2, oracle_states=1, drift_states=1)


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_declared_metric(name):
    w = tiny(name)
    records = run.measure(w, 0.0)
    assert len(records) == run.MIN_OPS[False]
    assert not any(r["problems"] for r in records)
    other = run.measure(w, 0.0)
    other[0]["seconds"] = 1e3
    sessions = [{"setup_s": 0.5, "records": records, "peak_rss_mb": 50.0},
                {"setup_s": 0.4, "records": [], "peak_rss_mb": 10.0},
                {"setup_s": 0.6, "records": other, "peak_rss_mb": 70.0}]
    e2e = run.end_to_end(sessions, w)
    assert set(e2e) == set(run.declared_units(False))
    assert e2e["setup_s"] == 0.5 and e2e["ok_ops_ratio"] == 1.0
    assert e2e["first_run_s"] == (1e3 + records[0]["seconds"]) / 2
    assert e2e["run_s"] == (records[1]["seconds"] + other[1]["seconds"]) / 2
    assert e2e["peak_rss_mb"] == 60.0
    assert all(v > 0 for v in e2e.values())

    tr = tracing.Tracer()
    records = run.measure(tiny(name), 0.0, tr)
    assert [r["traced"] for r in records] == [False, True, False]
    layer = tr.layer_metrics([1], 0.0)
    assert set(layer) == set(run.declared_units(True))


def test_traced_counts_repeat_exactly():
    def counts():
        tr = tracing.Tracer()
        run.measure(tiny("mc_gate"), 0.0, tr)
        m = tr.layer_metrics([1], 0.0)
        return {k: v for k, v in m.items()
                if k.endswith(("calls", "constructions", "dim", "nnz",
                               "calls_per_step"))}

    first = counts()
    assert first["matrixrep.MatrixModule.dim"] > 0
    assert first["series.series_exp.calls_per_step"] == 4.0
    assert first["scalars.Cyclo8.mul_calls"] > 0
    assert counts() == first


def test_tracer_patches_direct_imports_and_restores_them():
    original = affine.act_mode
    assert matrixrep.act_mode is original
    tr = tracing.Tracer()
    tr.start(0)
    try:
        assert affine.act_mode is not original
        assert matrixrep.act_mode is affine.act_mode
        matrixrep.MatrixModule(1, 2)
    finally:
        tr.stop()
    assert affine.act_mode is original and matrixrep.act_mode is original
    assert tr.counts[0]["affine.Module"] == 1
    assert tr.gauges[0]["matrixrep.MatrixModule.dim"] > 0


def test_mc_checks_reject_vacuous_and_dropped_runs():
    w = tiny("mc_gate")
    cfg = w.input(0)
    report = harness.MartingaleReport(config=cfg)
    assert "no cells" in w.check(cfg, report)
    report = w.run(cfg)
    assert w.check(cfg, report) == []
    report.dropped_paths = 3
    assert w.check(cfg, report) == ["3 paths dropped"]
    report.dropped_paths = 0
    late = dataclasses.replace(cfg, checkpoints=(0.005, 0.02))
    assert any("checkpoints" in p for p in w.check(late, report))
    report.cells[0].z = 2 * workloads.MAX_Z
    assert any("misses by" in p for p in w.check(cfg, report))


def test_small_batch_checks_repeat_digest_and_finiteness():
    w = tiny("sim_small_batch")
    records = run.measure(w, 0.0)
    assert [r["problems"] for r in records] == [[], []]
    run.check_fingerprints(records)
    assert [r["problems"] for r in records] == [[], []]
    other = w.run(dataclasses.replace(w.input(0), seed=w.input(0).seed + 1))
    records.append({"op": 2, "fingerprint": w.fingerprint(other),
                    "problems": []})
    run.check_fingerprints(records)
    assert records[2]["problems"] == ["output differs from the first repeat"]
    assert records[0]["problems"] == []
    cfg = w.input(0)
    broken = w.run(cfg)
    broken.checkpoints[0].finite[0] = False
    assert "1 non-finite paths" in w.check(cfg, broken)


def test_exact_checks_reject_unequal_routes_and_nonzero_drift():
    w = tiny("exact_oracle")
    states = w.input(0)
    pairs, drifts = w.run(states)
    assert len(pairs) == 3
    assert w.check(states, (pairs, drifts)) == []
    closed, routed = pairs[0]
    bumped = [(closed, routed + EXACT.one)] + pairs[1:]
    assert w.check(states, (bumped, drifts)) == [
        "observable_current != current_via_module (check 0)"]
    floor = affine.Vector.floor_vector(drifts[0].module)
    assert w.check(states, (pairs, [drifts[0] + floor]))


def test_setup_only_session_times_a_fresh_process():
    s = run.session("mc_gate", 3, 0.0)
    assert s["records"] == [] and s["setup_s"] > 0 and s["peak_rss_mb"] > 0


def test_window_is_split_between_sessions(monkeypatch):
    monkeypatch.setattr(run, "session", lambda w, seed, sec: sec)
    assert run.run_sessions("mc_gate", 1, 30.0, 1) == \
        [0.0] * (run.SETUP_SAMPLES - 1) + [30.0]
    assert run.run_sessions("exact_oracle", 1, 30.0, 5) == [6.0] * 5


def test_negative_control_names_the_failing_cell():
    small = dict(workloads.CONTROL, paths=400)
    ok, note = workloads.negative_control(5, small)
    assert ok, note
    derived = dict(small, variant="derived")
    ok, note = workloads.negative_control(5, derived)
    assert not ok, note


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "mc_gate", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=120)
    assert p.returncode != 0
    assert p.stdout == ""
