import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import superloewner
from superloewner import cli, harness
from superloewner.evolution import flow_step, initial_state
from superloewner.harness import (BlockDrivers, ConfigError,
                                  MartingaleCell, MartingaleReport, RunConfig,
                                  martingale_seed_suite, martingale_test,
                                  parse_config_file, simulate,
                                  trajectory_columns, trajectory_rows,
                                  write_csv)
from superloewner.scalars import COMPLEX
from superloewner.series import SeriesOrderError


def small_cfg(**kw):
    base = dict(k=1.0, kappa=2.0, tau=0.8, order=4, depth=4, dt=1e-3,
                t_max=0.02, paths=200, seed=5, checkpoints=(0.02,))
    base.update(kw)
    return RunConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(dt=-1.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(order=1).validate()
    with pytest.raises(ConfigError):
        RunConfig(paths=0).validate()
    with pytest.raises(ConfigError):
        RunConfig(kappa=-0.5).validate()
    with pytest.raises(ConfigError):
        RunConfig(format="yaml").validate()
    # a statistic past the module depth would read 0 with se 0 and pass
    with pytest.raises(ConfigError):
        RunConfig(depth=2, word_depth=3).validate()
    with pytest.raises(ConfigError):
        RunConfig(word_depth=0).validate()
    # numpy's SeedSequence refuses a negative seed with a traceback
    with pytest.raises(ConfigError, match="seed must be nonnegative, got -1"):
        RunConfig(seed=-1).validate()
    # degenerate but documented configurations are accepted
    RunConfig(tau=0.0).validate()
    RunConfig(kappa=0.0).validate()
    RunConfig(depth=2, word_depth=2).validate()


@pytest.mark.parametrize("name", ["k", "kappa", "tau", "dt", "t_max"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_non_finite_numbers_are_rejected(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        RunConfig(**{name: value}).validate()


def test_critical_level_is_rejected():
    with pytest.raises(ConfigError, match="critical level"):
        RunConfig(k=-1.5).validate()
    with pytest.raises(ConfigError, match="critical level"):
        RunConfig(k=-1.5, tau=0.8).validate()


@pytest.mark.parametrize("args", [
    ("--k", "nan"),        # exited 0 with nan columns
    ("--kappa", "inf"),    # exited 0
    ("--dt", "nan"),       # ValueError from round(nan) inside validate
    ("--checkpoints", "nan"),
])
def test_cli_rejects_non_finite_numbers(args, capsys):
    assert cli.main(["simulate", "--paths", "5", "--t-max", "0.002",
                     *args]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "must be finite" in err


def test_times_off_the_step_grid_are_rejected():
    # dt = 0.003 would silently record t = 0.006 and 0.009
    with pytest.raises(ConfigError, match="whole number of steps"):
        simulate(RunConfig(dt=0.003, t_max=0.01, paths=2,
                           checkpoints=(0.005, 0.01)))
    with pytest.raises(ConfigError, match="whole number of steps"):
        RunConfig(dt=0.003, t_max=0.009, checkpoints=(0.005,)).validate()
    # grid times that are inexact in binary floating point still pass
    RunConfig(dt=1e-3, t_max=0.1, checkpoints=(0.1,)).validate()
    RunConfig(dt=1e-4, t_max=0.09, checkpoints=(0.05,)).validate()


def test_martingale_gate_never_passes_vacuously():
    with pytest.raises(ConfigError):
        martingale_test(small_cfg(t_max=0.05, checkpoints=(0.5,)))
    with pytest.raises(ConfigError):
        martingale_test(small_cfg(t_max=0.0, checkpoints=()))
    with pytest.raises(ConfigError):
        martingale_test(small_cfg(checkpoints=(0.0, 0.02)))
    empty = MartingaleReport(config=small_cfg())
    assert not empty.all_pass() and empty.pass_rate() == 0.0
    suite = martingale_seed_suite(small_cfg(), seeds=())
    assert suite["cells"] == 0 and suite["pass_rate"] == 0.0


def test_config_file_roundtrip(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("k = 1.5\nkappa = 8/3\norder = 3\n"
                 "checkpoints = 0.1, 0.25\nvariant = displayed\n")
    values = parse_config_file(str(p))
    assert values["k"] == 1.5
    assert abs(values["kappa"] - 8 / 3) < 1e-15
    assert values["order"] == 3
    assert values["checkpoints"] == (0.1, 0.25)
    assert values["variant"] == "displayed"
    p2 = tmp_path / "bad.cfg"
    for bad in ("nonsense = 3\n", "h12_literal = true\n"):
        p2.write_text(bad)
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config_file(str(p2))


def test_block_drivers_reproducible():
    def steps(seed):
        drv = BlockDrivers(seed, 50, 1e-3, 2.0, 0.8)
        return np.array([list(drv.step().values()) for _ in range(3)])

    a, b = steps(42), steps(42)
    assert np.array_equal(a, b)
    c = steps(43)
    assert not np.array_equal(a, c)
    # covariance convention: Var(dB0) = kappa dt, others tau dt
    big = BlockDrivers(1, 200000, 1e-2, 4.0, 1.0).step()
    assert abs(big["B0"].var() - 0.04) < 0.002
    assert abs(big["B3"].var() - 0.01) < 0.0005


def test_simulate_t_max_zero():
    res = simulate(small_cfg(t_max=0.0, checkpoints=()))
    assert len(res.checkpoints) == 1
    cp = res.checkpoints[0]
    assert cp.t == 0.0
    assert not np.asarray(cp.state.xH.coeffs[0]).any()


def test_simulate_determinism():
    cfg = small_cfg(seed=42)
    r1 = trajectory_rows(simulate(cfg))
    r2 = trajectory_rows(simulate(dataclasses.replace(cfg)))
    assert r1 == r2


def test_kappa_only_run_matches_sle_mean():
    # tau = 0 silences the internal drivers; E[a_{-1}(t)] = 2t
    cfg = small_cfg(tau=0.0, paths=400, t_max=0.05, dt=1e-3,
                    checkpoints=(0.05,))
    res = simulate(cfg)
    a1 = np.asarray(res.checkpoints[-1].state.rho.coeffs[1])
    assert abs(a1.mean().real - 0.1) < 1e-9
    for name in ("xE", "xH", "x1f", "x12H"):
        series = getattr(res.checkpoints[-1].state, name)
        assert not np.asarray(series.coeffs[0]).any(), name


def test_degenerate_tau_martingale_reduces_to_classical():
    rep = martingale_test(small_cfg(tau=0.0, paths=150))
    for cell in rep.cells:
        if cell.observable.startswith("current"):
            assert cell.mean == 0.0 and cell.se == 0.0
            assert cell.passed


def test_t0_reference_values():
    from superloewner.harness import t0_observable_values
    refs = t0_observable_values(small_cfg())
    assert refs["word[1]"] == 1 + 0j
    assert refs["current[E,n=1]"] == 0j
    assert all(v == 0j for k, v in refs.items() if k != "word[1]")


def test_empty_word_cell_is_constant_one():
    rep = martingale_test(small_cfg(paths=120))
    cells = [c for c in rep.cells if c.observable == "word[1]"]
    assert cells
    for c in cells:
        if c.component == "re":
            assert c.mean == 1.0 and c.se == 0.0 and c.passed
        else:
            assert c.mean == 0.0 and c.se == 0.0 and c.passed


def test_martingale_report_shapes():
    rep = martingale_test(small_cfg())
    names = {c.observable for c in rep.cells}
    assert "current[E,n=1]" in names and "word[H(2)]" in names
    payload = rep.to_json()
    assert payload["summary"]["cells"] == len(rep.cells)
    text = rep.text()
    assert "pass rate" in text
    assert rep.pass_rate() > 0.9


def test_martingale_report_telemetry():
    rep = martingale_test(small_cfg(checkpoints=(0.01, 0.02)))
    payload = rep.to_json()
    # the existing keys stay
    assert {"config", "dropped_paths", "cells", "summary"} <= set(payload)
    timings = payload["timings"]
    assert timings["simulate_s"] > 0 and timings["operators_s"] > 0
    assert len(timings["observables_s"]) == 2
    assert all(t > 0 for t in timings["observables_s"])
    prov = payload["provenance"]
    assert prov["seed"] == 5 and prov["superloewner"]
    assert prov["python"] and prov["numpy"]
    try:
        import scipy
    except ImportError:  # optional: reported as None when absent
        scipy = None
    assert prov["scipy"] == (scipy.__version__ if scipy else None)
    json.dumps(payload)
    lines = rep.text().splitlines()
    assert lines[-2] == "dropped paths: 0"
    worst = sorted(rep.cells, key=lambda c: c.z, reverse=True)[:3]
    assert lines[-1].startswith("worst cells: ")
    for c in worst:
        assert f"{c.observable} {c.component} t={c.t:.3f} z={c.z:.2f}" \
            in lines[-1]


def test_dropped_paths_fail_the_gate():
    cell = MartingaleCell(observable="word[1]", component="re", t=0.02,
                          mean=1.0, se=0.0, reference=1.0, z=0.0,
                          passed=True)
    rep = MartingaleReport(config=small_cfg(), cells=[cell])
    assert rep.all_pass()
    dropped = dataclasses.replace(rep, dropped_paths=1)
    assert not dropped.all_pass()
    assert "dropped paths: 1" in dropped.text()


def test_dropped_paths_count_each_path_once(monkeypatch):
    step = harness.BlockDrivers.step
    calls = []

    def poisoned(self):
        incs = step(self)
        calls.append(None)
        if len(calls) == 1:
            incs["B1"][0] = np.nan
        return incs

    monkeypatch.setattr(harness.BlockDrivers, "step", poisoned)
    rep = martingale_test(small_cfg(checkpoints=(0.01, 0.02)))
    assert rep.dropped_paths == 1
    assert rep.dropped_by_checkpoint == [1, 1]
    assert rep.to_json()["dropped_by_checkpoint"] == [1, 1]
    assert not rep.all_pass()
    assert "dropped paths: 1" in rep.text()


@pytest.mark.parametrize("variant", ["derived", "displayed"])
def test_module_depth_does_not_move_the_cells(variant):
    shallow = martingale_test(small_cfg(depth=2, variant=variant))
    deep = martingale_test(small_cfg(depth=4, variant=variant))
    assert len(shallow.cells) == len(deep.cells) > 0
    for a, b in zip(shallow.cells, deep.cells):
        assert (a.observable, a.component, a.t) \
            == (b.observable, b.component, b.t)
        assert (a.mean, a.se, a.passed) == (b.mean, b.se, b.passed)


# (order, word_depth, order of rho, xF, x2f and x12F, order of the other
# seven processes); a test id ends in the first of the two orders
_FLOW_GRID = [(2, 2, 2, 2), (3, 2, 2, 2), (4, 1, 3, 2), (4, 2, 3, 2),
              (4, 3, 3, 3), (5, 2, 4, 3), (6, 2, 5, 4), (6, 4, 5, 4)]


@pytest.mark.parametrize("variant,order,word_depth,top,rest", [
    pytest.param(v, n, wd, top, rest, id=f"{v}-{n}-{wd}-{top}")
    for v in ("derived", "displayed") for n, wd, top, rest in _FLOW_GRID])
def test_flow_order_does_not_move_the_cells(variant, order, word_depth, top,
                                            rest, monkeypatch):
    cfg = small_cfg(variant=variant, order=order, word_depth=word_depth,
                    checkpoints=(0.01, 0.02))
    names = ("rho",) + harness.PROCESS_NAMES
    orders, assemblers = [], []

    def spy(c, start=None):
        orders.append({n: getattr(start, n).order for n in names})
        return simulate(c, start=start)

    def keep(*args, build=harness.BatchAssembler):
        # the reference reads through the same assembler, which depends
        # on (k, word_depth, order) only; a depth-4 build takes ~1 s
        assemblers.append(build(*args))
        return assemblers[-1]

    monkeypatch.setattr(harness, "simulate", spy)
    monkeypatch.setattr(harness, "BatchAssembler", keep)
    report = martingale_test(cfg)
    want_orders = {n: top if n in ("rho", "xF", "x2f", "x12F") else rest
                   for n in names}
    assert orders == [want_orders]
    assert report.to_json()["flow_orders"] == want_orders
    # the reference: the flow at the full order, read by hand
    sim = simulate(cfg)
    [assembler] = assemblers
    refs = harness.t0_observable_values(cfg)
    want, by_checkpoint = [], []
    dropped = np.zeros(cfg.paths, dtype=bool)
    for cp in sim.checkpoints:
        dropped |= ~cp.finite
        by_checkpoint.append(int((~cp.finite).sum()))
        obs = harness.batch_observables(cp.state, cfg, assembler)
        for name, values in obs.items():
            vals = values[cp.finite]
            for comp in ("real", "imag"):
                arr, ref = getattr(vals, comp), getattr(refs[name], comp)
                mean = float(arr.mean())
                se = float(arr.std(ddof=1) / np.sqrt(len(arr)))
                passed = abs(mean - ref) <= (3.0 * se if se else 1e-12)
                want.append((name, comp[:2], cp.t, mean, se, passed))
    assert [(c.observable, c.component, c.t, c.mean, c.se, c.passed)
            for c in report.cells] == want
    assert report.dropped_paths == int(dropped.sum())
    assert report.dropped_by_checkpoint == by_checkpoint


@pytest.mark.parametrize("variant", ["derived", "displayed"])
def test_flow_step_refuses_to_shorten_a_process(variant):
    # x12F at order 3 steps along 1/rho x2f (derived) or x2f C
    # (displayed); with x2f at order 2 that base has order 2, and a
    # silent truncation would pad x12F's zeta^{-3} coefficient with 0
    orders = harness._flow_orders(small_cfg()) | {"x2f": 2}
    assert orders["x12F"] == 3
    state = initial_state(orders, COMPLEX)
    incs = BlockDrivers(1, 3, 1e-3, 2.0, 0.8).step()
    with pytest.raises(SeriesOrderError, match="x12F"):
        flow_step(state, 1e-3, incs, 0.8, variant=variant)


def test_martingale_warns_under_sampled():
    with pytest.warns(UserWarning):
        martingale_test(small_cfg(paths=20, t_max=0.005,
                                  checkpoints=(0.005,)))


def test_dt_halving_weak_consistency():
    # coupled increments: the coarse step uses the sum of two fine ones
    cfg_f = small_cfg(dt=5e-4, t_max=0.02, paths=1200, seed=9,
                      checkpoints=(0.02,))
    tau = cfg_f.resolved_tau()
    drv = BlockDrivers(cfg_f.seed, cfg_f.paths, cfg_f.dt, cfg_f.kappa, tau)
    fine = [drv.step() for _ in range(40)]
    coarse = [{k: fine[2 * i][k] + fine[2 * i + 1][k]
               for k in fine[0]} for i in range(20)]
    from superloewner.harness import (BatchAssembler, MatrixModule,
                                      batch_observables)
    cfg_c = dataclasses.replace(cfg_f, dt=1e-3)

    def evolve(cfg, increments):
        state = initial_state(cfg.order, COMPLEX)
        for incs in increments:
            state = flow_step(state, cfg.dt, incs, tau, variant=cfg.variant)
        return state

    mm = MatrixModule(1, 4)
    ba = BatchAssembler(mm, 4)
    obs_f = batch_observables(evolve(cfg_f, fine), cfg_f, ba)
    obs_c = batch_observables(evolve(cfg_c, coarse), cfg_c, ba)
    for name in obs_f:
        mf, mc = obs_f[name].mean(), obs_c[name].mean()
        se = obs_f[name].std() / np.sqrt(cfg_f.paths)
        if se == 0:
            assert mf == mc
        else:
            assert abs(mf - mc) < max(se, 1e-12), name


def test_trajectory_csv_schema(tmp_path):
    cfg = small_cfg(paths=3, checkpoints=(0.01, 0.02))
    res = simulate(cfg)
    cols = trajectory_columns(cfg.order)
    rows = trajectory_rows(res)
    assert cols[0] == "t"
    assert cols[1] == "rho.a0.re" and cols[2] == "rho.a0.im"
    assert "xE.m1.re" in cols and "x12F.m4.im" in cols
    assert all(len(r) == len(cols) for r in rows)
    # rho slot names have no upper limit on the order and keep the
    # published names a0, am1 .. am63
    slots = ["a0"] + [f"am{j}" for j in range(1, 64)]
    assert trajectory_columns(63)[1:129:2] == [f"rho.{s}.re" for s in slots]
    wide = trajectory_columns(70)
    assert wide[2 * 70 + 1:2 * 70 + 3] == ["rho.am70.re", "rho.am70.im"]
    assert len(wide) == 1 + 2 * 71 + 2 * 10 * 70
    out = tmp_path / "traj.csv"
    write_csv(str(out), cols, rows)
    text = out.read_text().splitlines()
    assert text[0] == ",".join(cols)
    assert len(text) == 1 + len(rows)


def _run_python(*args):
    # the child imports the package these tests import, installed or not
    src = str(Path(superloewner.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


def _run_cli(*args):
    return _run_python("-m", "superloewner.cli", *args)


def test_package_needs_no_scipy():
    # importing scipy.sparse costs about 0.3 s in every process; the
    # package loads none of scipy, and reports it only when installed
    r = _run_python("-c", """if True:
        import sys
        import superloewner, superloewner.cli
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded
        sys.modules["scipy"] = None
        from superloewner.harness import RunConfig, martingale_test
        rep = martingale_test(RunConfig(dt=1e-3, t_max=0.002, paths=100))
        assert rep.cells and rep.provenance["scipy"] is None, rep.provenance
        """)
    assert r.returncode == 0, r.stderr


def test_cli_exit_codes(tmp_path, capsys):
    # usage error
    r = _run_cli("no-such-command")
    assert r.returncode == 2
    # passing verification
    r = _run_cli("verify-annihilator", "--k-list", "1", "--kappa-list", "2")
    assert r.returncode == 0, r.stderr
    # failing check: the displayed variant drifts hard on word[H(2)]
    r = _run_cli("martingale-test", "--paths", "400", "--dt", "1e-3",
                 "--t-max", "0.05", "--checkpoints", "0.05", "--seed", "3",
                 "--variant", "displayed")
    assert r.returncode == 1, r.stdout
    # config file drives a run; flags override
    cfg = tmp_path / "c.cfg"
    cfg.write_text("paths = 50\nt_max = 0.004\ndt = 1e-3\n"
                   "checkpoints = 0.004\nseed = 12\n")
    out = tmp_path / "t.csv"
    r = _run_cli("--config", str(cfg), "simulate", "--paths", "60",
                 "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert out.exists()
    # bad config file
    bad = tmp_path / "bad.cfg"
    bad.write_text("dt = -1\n")
    r = _run_cli("--config", str(bad), "simulate")
    assert r.returncode == 2
    # a gate with no cells to test is a config error, not a pass
    for flags in (("--t-max", "0.05", "--checkpoints", "0.5"),
                  ("--t-max", "0")):
        r = _run_cli("martingale-test", "--paths", "200", *flags)
        assert r.returncode == 2 and "config error" in r.stderr, flags
    # a malformed value is a config error naming the key and the value
    for name, text in (("k", "abc"), ("paths", "1.5"), ("k", "1/0")):
        bad.write_text(f"{name} = {text}\n")
        assert cli.main(["--config", str(bad), "simulate"]) == 2, text
        err = capsys.readouterr().err
        assert "config error" in err and f"{name}: {text!r}" in err
    for args in (("simulate", "--checkpoints", "abc"),
                 ("verify-virasoro", "--k-list", "abc"),
                 ("verify-annihilator", "--kappa-list", "1/0")):
        assert cli.main(list(args)) == 2, args
        err = capsys.readouterr().err
        assert "config error" in err and f"{args[1]}: {args[2]!r}" in err
    with pytest.raises(SystemExit) as exc:  # argparse rejects the flag
        cli.main(["null-scan", "--lam", "1/0"])
    assert exc.value.code == 2 and "--lam" in capsys.readouterr().err
    # the critical level k = -3/2 is a config error in every subcommand,
    # given as a flag or in a config file
    bad.write_text("k = -3/2\n")
    for args in (("simulate", "--k", "-1.5"),
                 ("martingale-test", "--k", "-1.5"),
                 ("--config", str(bad), "simulate"),
                 ("verify-virasoro", "--k-list=-3/2"),
                 ("verify-annihilator", "--k-list=1,-3/2"),
                 ("null-scan", "--k=-3/2")):
        assert cli.main(list(args)) == 2, args
        err = capsys.readouterr().err
        assert "config error" in err and "critical level" in err, args
    # a level whose exact values overflow a float names k, no traceback
    for args in (("martingale-test", "--paths", "150", "--t-max", "0.002",
                  "--k", "1e308"),
                 ("martingale-test", "--paths", "150", "--t-max", "0.002",
                  "--k=-1e308"),
                 ("null-scan", "--samples", "1", "--k", "1e308")):
        r = _run_cli(*args)
        assert r.returncode == 2, (args, r.stderr)
        assert "config error" in r.stderr and "k " in r.stderr, args
        assert "Traceback" not in r.stderr, args
    # a negative seed is a config error naming the seed, no traceback
    bad.write_text("seed = -3\n")
    for args in (("simulate", "--paths", "3", "--t-max", "0.002",
                  "--seed", "-1"),
                 ("martingale-test", "--paths", "150", "--t-max", "0.002",
                  "--seed", "-1"),
                 ("--config", str(bad), "simulate")):
        r = _run_cli(*args)
        assert r.returncode == 2, (args, r.stderr)
        assert "config error" in r.stderr and "seed" in r.stderr, args
        assert "Traceback" not in r.stderr, args
    # a scan with no samples confirms nothing
    for n in ("0", "-3"):
        assert cli.main(["null-scan", "--samples", n]) == 2, n
        assert "config error" in capsys.readouterr().err


_FLAG_SETS = {
    "verify-annihilator": {"--k-list", "--kappa-list", "--out"},
    "verify-virasoro": {"--k-list", "--out"},
    "null-scan": {"--k", "--lam", "--samples", "--seed", "--out"},
    "simulate": {"--k", "--kappa", "--tau", "--order", "--dt", "--t-max",
                 "--paths", "--seed", "--out", "--format", "--checkpoints",
                 "--variant"},
}
_FLAG_SETS["martingale-test"] = _FLAG_SETS["simulate"] - {"--format"}


def _subparsers() -> dict:
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_each_subcommand_takes_only_the_flags_it_reads(tmp_path, capsys):
    got = {name: {o for a in sp._actions for o in a.option_strings
                  if o not in ("-h", "--help")}
           for name, sp in _subparsers().items()}
    assert got == _FLAG_SETS
    assert sum(map(len, got.values())) == 33
    cfg = tmp_path / "f.cfg"
    cfg.write_text("k = 2\n")
    for args in (("verify-virasoro", "--k", "2"),
                 ("simulate", "--pa", "7"),
                 ("martingale-test", "--lam", "1"),
                 ("martingale-test", "--format", "csv"),
                 ("trace", "--t-max", "0.002"),
                 ("simulate", "--depth", "4")):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(args))
        assert exc.value.code == 2, args
    assert cli.main(["--config", str(cfg), "verify-annihilator"]) == 2
    assert "config error" in capsys.readouterr().err


def test_readme_cli_block_lists_the_subcommands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```")[1]
    names = [line.split()[1] for line in block.splitlines()
             if line.startswith("superloewner ")]
    assert sorted(names) == sorted(_subparsers())


def test_run_flags_parse_like_config_values(tmp_path, capsys):
    args = ["--paths", "6", "--t-max", "0.002", "--seed", "3",
            "--order", "3"]
    assert cli.main(["simulate", *args, "--k", "0.5", "--kappa",
                     "2.6666666666666665", "--tau", "0.5"]) == 0
    decimal = capsys.readouterr().out
    assert cli.main(["simulate", *args, "--k", "1/2", "--kappa", "8/3",
                     "--tau", "1/2"]) == 0
    assert capsys.readouterr().out == decimal
    cfg = tmp_path / "r.cfg"
    cfg.write_text("k = 1/2\nkappa = 8/3\ntau = 1/2\n")
    assert cli.main(["--config", str(cfg), "simulate", *args]) == 0
    assert capsys.readouterr().out == decimal
    out = tmp_path / "s.csv"
    assert cli.main(["--config", str(cfg), "simulate", *args,
                     "--out", str(out)]) == 0
    assert out.read_text() == decimal
    for flag, text in (("--paths", "1.5"), ("--k", "1/0"), ("--t-max", "x")):
        assert cli.main(["simulate", flag, text]) == 2
        err = capsys.readouterr().err
        assert f"config error: bad value for {flag}: {text!r}" in err


def test_null_scan_honours_seed_zero(capsys):
    outs = []
    for seed in ("0", "7"):
        assert cli.main(["null-scan", "--samples", "2", "--seed", seed]) == 0
        outs.append(json.loads(capsys.readouterr().out))
    assert outs[0] != outs[1]


def test_cli_simulate_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        r = _run_cli("simulate", "--paths", "40", "--dt", "1e-3",
                     "--t-max", "0.01", "--checkpoints", "0.005,0.01",
                     "--seed", "42", "--out", str(out))
        assert r.returncode == 0, r.stderr
    assert out1.read_bytes() == out2.read_bytes()


def test_format_applies_on_stdout(tmp_path, capsys):
    sim = ["simulate", "--paths", "5", "--t-max", "0.002", "--seed", "3"]
    assert cli.main(sim) == 0
    csv_out = capsys.readouterr().out
    assert cli.main([*sim, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert csv_out.splitlines()[0] == ",".join(payload["columns"])
    assert len(payload["rows"]) == len(csv_out.splitlines()) - 1
    # the same JSON goes to a file, and stdout only names it
    out = tmp_path / "s.json"
    assert cli.main([*sim, "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == payload
    assert capsys.readouterr().out == f"wrote 1 checkpoint rows to {out}\n"


# the run commands whose output echoes their config
@pytest.mark.parametrize("command", ["martingale-test"])
def test_json_echoes_only_the_keys_the_command_reads(command, tmp_path,
                                                     capsys):
    out = tmp_path / "r.json"

    def run(*argv):
        # the martingale gate may fail at 200 paths
        assert cli.main([*argv, command, "--paths", "200", "--t-max",
                         "0.002", "--out", str(out)]) in (0, 1)
        capsys.readouterr()
        return json.loads(out.read_text())

    payload = run()
    config = payload["config"]
    assert set(config) == set(harness.READS[command]) == {
        "k", "kappa", "tau", "order", "depth", "dt", "t_max", "paths",
        "seed", "out", "checkpoints", "variant", "word_depth"}
    assert config["t_max"] == 0.002
    # the echo read back as a config file gives the same run
    cfg = tmp_path / "echo.cfg"
    cfg.write_text("".join(
        f"{k} = {','.join(map(str, v)) if isinstance(v, list) else v}\n"
        for k, v in config.items() if v is not None))
    echoed = run("--config", str(cfg))
    assert echoed["config"] == config
    assert echoed["cells"] == payload["cells"]


def test_config_keys_the_command_does_not_read_are_refused(tmp_path, capsys):
    cfg = tmp_path / "r.cfg"
    # a value the command's check would refuse still fails as unread
    for command, text, keys in (("martingale-test", "format = json\n",
                                 "['format']"),
                                ("martingale-test", "format = yaml\n",
                                 "['format']"),
                                ("simulate", "word_depth = 1\ndepth = 3\n",
                                 "['depth', 'word_depth']"),
                                ("simulate", "word_depth = 5\n",
                                 "['word_depth']")):
        cfg.write_text(text)
        assert cli.main(["--config", str(cfg), command]) == 2, command
        err = capsys.readouterr().err
        assert f"config error: config keys {keys} are not read by " \
               f"{command}" in err
    # a key that is no RunConfig field is unknown to every command
    cfg.write_text("trace_nx = 5\n")
    assert cli.main(["--config", str(cfg), "simulate"]) == 2
    assert "config error: unknown config keys: ['trace_nx']" \
        in capsys.readouterr().err
    # martingale-test reads its config-only keys
    cfg.write_text("depth = 3\nword_depth = 1\npaths = 100\n"
                   "t_max = 0.002\n")
    assert cli.main(["--config", str(cfg), "martingale-test"]) in (0, 1)
    assert "dropped paths" in capsys.readouterr().out
