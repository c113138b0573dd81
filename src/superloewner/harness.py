"""Run configuration, simulation drivers, and statistical harness.

The Monte Carlo engine evolves all paths at once: every series
coefficient is a complex numpy array over paths and the generic series
code broadcasts through it, so the same `sde_terms`/`flow_step`
formulas serve the exact tests and the batch simulation.  Gaussian
increments come from one seeded PCG64 stream per run, drawn step by
step in a fixed order, which makes every subcommand a pure function of
(config, seed): reruns are byte-identical.

The martingale test tracks two observable families per checkpoint:

* (a) the coefficients of z^{-n-1}, n = 1..N-1, of the Berezin-projected
  E-current matrix element (series route, order-exact window only);
* (b) <0| w  G_t |0>-type pairings for the default dual-word family
  (empty word plus all single modes X(1), X(2)).

Each complex observable contributes two real cells (re, im); a cell
passes when |mean(t) - value(0)| <= 3 SE.  The acceptance gate is the
five-seed cell pass rate.
"""

from __future__ import annotations

import dataclasses
import json
import math
import platform
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .evolution import FlowState, PROCESS_NAMES, flow_step
from .matrixrep import BatchAssembler, MatrixModule
from .observables import dual_words, observable_current
from .scalars import COMPLEX
from .series import AutSeries, TailSeries


class ConfigError(ValueError):
    pass


def check_level(k) -> None:
    """Refuse the critical level k = -3/2, where Sugawara is undefined."""
    if k == Fraction(-3, 2):
        raise ConfigError("k = -3/2 is the critical level, where the "
                          "Sugawara construction is undefined")


@dataclass
class RunConfig:
    k: float = 1.0
    kappa: float = 2.0
    tau: float | None = None      # default 2/(k + 3/2)
    order: int = 4                # series truncation N
    # module depth N_rep; it only bounds word_depth: martingale-test
    # assembles at word_depth, with the same cells as any deeper module
    depth: int = 4
    dt: float = 1e-3
    t_max: float = 0.25
    paths: int = 10000
    seed: int = 1
    out: str | None = None
    format: str = "csv"
    checkpoints: tuple = ()
    variant: str = "derived"
    word_depth: int = 2
    # trace-specific grid
    trace_xmax: float = 1.5
    trace_ymax: float = 1.5
    trace_nx: int = 61
    trace_ny: int = 40
    trace_eps: float = 1e-3

    def resolved_tau(self) -> float:
        if self.tau is None:
            return 2.0 / (self.k + 1.5)
        return self.tau

    def validate(self) -> "RunConfig":
        for name in ("k", "kappa", "tau", "dt", "t_max"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v}")
        if not all(map(math.isfinite, self.checkpoints)):
            raise ConfigError(f"checkpoints must be finite, got "
                              f"{self.checkpoints}")
        check_level(self.k)
        if self.kappa < 0:
            raise ConfigError("kappa must be nonnegative")
        if self.tau is not None and self.tau < 0:
            raise ConfigError("tau must be nonnegative")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.order < 2:
            raise ConfigError("series order must be at least 2")
        if self.depth < 2:
            raise ConfigError("module depth must be at least 2")
        if self.paths < 1:
            raise ConfigError("need at least one path")
        if self.t_max < 0:
            raise ConfigError("t_max must be nonnegative")
        if not 1 <= self.word_depth <= self.depth:
            raise ConfigError(f"word_depth must lie in [1, depth = "
                              f"{self.depth}], got {self.word_depth}")
        times = [("t_max", self.t_max)]
        times += [("checkpoint", t) for t in self.checkpoints]
        for name, t in times:
            steps = t / self.dt
            if not math.isclose(steps, round(steps), rel_tol=1e-9):
                raise ConfigError(f"{name} {t} is not a whole number of "
                                  f"steps of dt = {self.dt}")
            if not 0 <= t <= self.t_max:
                raise ConfigError(f"{name} {t} lies outside [0, t_max = "
                                  f"{self.t_max}]")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")
        if self.variant not in ("derived", "displayed"):
            raise ConfigError(f"unknown SDE variant {self.variant!r}")
        return self

    def resolved_checkpoints(self) -> list:
        if self.checkpoints:
            return sorted(set(float(t) for t in self.checkpoints))
        return [self.t_max]


_INT_KEYS = {"order", "depth", "paths", "seed", "trace_nx", "trace_ny",
             "word_depth"}
_STR_KEYS = {"out", "format", "variant"}


def parse_value(key: str, text: str, convert):
    """convert(text), or a ConfigError naming the key and the value."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad value for {key}: {text!r}") from None


def parse_config_file(path: str) -> dict:
    """Plain key=value file; '#' starts a comment; keys match RunConfig."""
    known = {f.name for f in dataclasses.fields(RunConfig)}
    values: dict = {}
    bad = set()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in known:
                bad.add(key)
            elif key == "checkpoints":
                values[key] = tuple(parse_value(key, v, float)
                                    for v in val.split(",") if v)
            elif key in _INT_KEYS:
                values[key] = parse_value(key, val, int)
            elif key in _STR_KEYS:
                values[key] = val
            else:
                real = (lambda t: float(Fraction(t))) if "/" in val else float
                values[key] = parse_value(key, val, real)
    if bad:
        raise ConfigError(f"unknown config keys: {sorted(bad)}")
    return values


class BlockDrivers:
    """One-stream batch variant: per step, a (5, paths) increment block."""

    def __init__(self, master_seed: int, paths: int, dt: float,
                 kappa: float, tau: float):
        self.paths = paths
        self.dt = dt
        self.scales = np.sqrt(np.array([kappa, tau, tau, tau, tau]) * dt)
        self._rng = np.random.default_rng(np.random.SeedSequence(master_seed))

    def step(self) -> dict:
        raw = self._rng.standard_normal((5, self.paths))
        return {name: raw[d] * self.scales[d]
                for d, name in enumerate(("B0", "B1", "B2", "B3", "Ba"))}


def _batch_initial_state(order: int, paths: int) -> FlowState:
    def tail():
        return TailSeries([np.zeros(paths, dtype=complex)
                           for _ in range(order)], COMPLEX)
    rho = AutSeries([np.zeros(paths, dtype=complex)
                     for _ in range(order + 1)], COMPLEX)
    return FlowState(rho=rho, **{n: tail() for n in PROCESS_NAMES}, t=0.0)


@dataclass
class Checkpoint:
    t: float
    state: FlowState
    finite: np.ndarray  # per-path NaN-guard mask


@dataclass
class SimResult:
    config: RunConfig
    checkpoints: list = field(default_factory=list)


def _finite_mask(state: FlowState) -> np.ndarray:
    ok = np.isfinite(state.rho.coeffs[0])
    for name in PROCESS_NAMES:
        for c in getattr(state, name).coeffs:
            ok &= np.isfinite(c.real) & np.isfinite(c.imag)
    return ok


def simulate(cfg: RunConfig, increments=None) -> SimResult:
    """Evolve cfg.paths coupled processes; record the checkpoint states.

    `increments` optionally supplies a precomputed iterable of per-step
    driver dicts (used by the dt-halving coupling check); by default a
    seeded BlockDrivers stream is used.
    """
    cfg.validate()
    tau = cfg.resolved_tau()
    nsteps = int(round(cfg.t_max / cfg.dt))
    checkpoints = cfg.resolved_checkpoints()
    cp_steps = {int(round(t / cfg.dt)) for t in checkpoints if t > 0}
    state = _batch_initial_state(cfg.order, cfg.paths)
    result = SimResult(config=cfg)
    if 0.0 in checkpoints or cfg.t_max == 0:
        result.checkpoints.append(
            Checkpoint(0.0, state, np.ones(cfg.paths, dtype=bool)))
    drivers = BlockDrivers(cfg.seed, cfg.paths, cfg.dt, cfg.kappa, tau)
    inc_iter = iter(increments) if increments is not None else None
    for step in range(1, nsteps + 1):
        incs = next(inc_iter) if inc_iter is not None else drivers.step()
        state = flow_step(state, cfg.dt, incs, tau, ring=COMPLEX,
                          variant=cfg.variant)
        if step in cp_steps:
            result.checkpoints.append(
                Checkpoint(step * cfg.dt, state, _finite_mask(state)))
    return result


# -- observable evaluation over a batch state ------------------------------

def batch_observables(state: FlowState, cfg: RunConfig,
                      assembler: BatchAssembler) -> dict:
    """{observable name: complex array over paths} at one checkpoint."""
    out = {}
    o = observable_current(state, complex(cfg.k), COMPLEX)
    for n in range(1, cfg.order):
        out[f"current[E,n={n}]"] = np.asarray(o.coeff(-n - 1)) \
            + np.zeros(cfg.paths, dtype=complex)
    block = assembler.assemble(state, cfg.paths)
    for name, w in dual_words(cfg.word_depth):
        row = assembler.mm.word_row(w)
        out[f"word[{name}]"] = row @ block
    return out


def t0_observable_values(cfg: RunConfig) -> dict:
    vals = {f"current[E,n={n}]": 0j for n in range(1, cfg.order)}
    for name, w in dual_words(cfg.word_depth):
        vals[f"word[{name}]"] = 1 + 0j if name == "1" else 0j
    return vals


@dataclass
class MartingaleCell:
    observable: str
    component: str
    t: float
    mean: float
    se: float
    reference: float
    z: float
    passed: bool

    def to_json(self) -> dict:
        return dataclasses.asdict(self) | {"pass": self.passed}


@dataclass
class MartingaleReport:
    config: RunConfig
    cells: list = field(default_factory=list)
    # distinct paths non-finite at any checkpoint, and the non-finite
    # count at each checkpoint in config order
    dropped_paths: int = 0
    dropped_by_checkpoint: list = field(default_factory=list)
    # wall seconds per stage: simulate_s, operators_s, and observables_s
    # as a list with one entry per checkpoint in config order
    timings: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def all_pass(self) -> bool:
        # a dropped path leaves a mean over the survivors only, which is
        # biased toward them, so no drop is allowed
        return (bool(self.cells) and self.dropped_paths == 0
                and all(c.passed for c in self.cells))

    def pass_rate(self) -> float:
        if not self.cells:
            return 0.0
        return sum(c.passed for c in self.cells) / len(self.cells)

    def to_json(self) -> dict:
        return {
            "config": _config_json(self.config),
            "dropped_paths": self.dropped_paths,
            "dropped_by_checkpoint": self.dropped_by_checkpoint,
            "cells": [c.to_json() for c in self.cells],
            "summary": {"cells": len(self.cells),
                        "passed": sum(c.passed for c in self.cells),
                        "pass_rate": self.pass_rate()},
            "timings": self.timings,
            "provenance": self.provenance,
        }

    def text(self) -> str:
        lines = [f"{'observable':<22}{'comp':<5}{'t':>6}{'mean':>14}"
                 f"{'se':>12}{'z':>8}  result"]
        for c in self.cells:
            lines.append(f"{c.observable:<22}{c.component:<5}{c.t:>6.3f}"
                         f"{c.mean:>14.6e}{c.se:>12.3e}{c.z:>8.2f}"
                         f"  {'pass' if c.passed else 'FAIL'}")
        lines.append(f"pass rate: {self.pass_rate():.4f} "
                     f"({sum(c.passed for c in self.cells)}"
                     f"/{len(self.cells)} cells)")
        lines.append(f"dropped paths: {self.dropped_paths}")
        worst = sorted(self.cells, key=lambda c: c.z, reverse=True)[:3]
        if worst:
            lines.append("worst cells: " + ", ".join(
                f"{c.observable} {c.component} t={c.t:.3f} z={c.z:.2f}"
                for c in worst))
        return "\n".join(lines)


def _config_json(cfg: RunConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["checkpoints"] = list(cfg.resolved_checkpoints())
    d["tau"] = cfg.resolved_tau()
    return d


def _provenance(seed: int) -> dict:
    import scipy

    from . import __version__
    return {"superloewner": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "seed": seed}


_WARN_PATHS = 100


def martingale_test(cfg: RunConfig) -> MartingaleReport:
    """Estimate E[observable] at each checkpoint and gate at 3 SE."""
    cfg.validate()
    if cfg.paths < _WARN_PATHS:
        import warnings
        warnings.warn("path count below %d: standard errors are unreliable"
                      % _WARN_PATHS, stacklevel=2)
    if not cfg.checkpoints:
        cfg = dataclasses.replace(cfg, checkpoints=(cfg.t_max,))
    if min(cfg.checkpoints) <= 0:
        raise ConfigError("martingale checkpoints must lie in (0, t_max]")
    clock = time.perf_counter
    report = MartingaleReport(config=cfg, provenance=_provenance(cfg.seed))
    started = clock()
    sim = simulate(cfg)
    report.timings["simulate_s"] = clock() - started
    # Assembling at word_depth instead of depth is exact.  Every assembly
    # factor (L_{-j}, X(-j), and each normal-ordered Sugawara term) is a
    # creation operator or acts with its annihilator first, so it never
    # lowers depth; the components of depth <= word_depth therefore do not
    # depend on where the module is truncated, and a word X(n) with
    # n <= word_depth reads only those components.
    started = clock()
    mm = MatrixModule(cfg.k, cfg.word_depth)
    assembler = BatchAssembler(mm, cfg.order)
    report.timings["operators_s"] = clock() - started
    report.timings["observables_s"] = []
    refs = t0_observable_values(cfg)
    dropped = np.zeros(cfg.paths, dtype=bool)
    for cp in sim.checkpoints:
        if cp.t == 0.0:
            continue
        mask = cp.finite
        dropped |= ~mask
        report.dropped_by_checkpoint.append(int((~mask).sum()))
        started = clock()
        obs = batch_observables(cp.state, cfg, assembler)
        report.timings["observables_s"].append(clock() - started)
        for name, values in obs.items():
            vals = values[mask]
            npaths = len(vals)
            for comp, arr in (("re", vals.real), ("im", vals.imag)):
                ref = refs[name].real if comp == "re" else refs[name].imag
                mean = float(arr.mean())
                se = float(arr.std(ddof=1) / np.sqrt(npaths)) \
                    if npaths > 1 else 0.0
                dev = abs(mean - ref)
                if se == 0.0:
                    passed = dev <= 1e-12
                    z = 0.0 if passed else float("inf")
                else:
                    z = dev / se
                    passed = dev <= 3.0 * se
                report.cells.append(MartingaleCell(
                    observable=name, component=comp, t=cp.t, mean=mean,
                    se=se, reference=ref, z=z, passed=passed))
    report.dropped_paths = int(dropped.sum())
    return report


def martingale_seed_suite(cfg: RunConfig, seeds) -> dict:
    """Pass-rate aggregation across independent master seeds."""
    total = 0
    passed = 0
    per_seed = []
    for seed in seeds:
        rep = martingale_test(dataclasses.replace(cfg, seed=seed))
        total += len(rep.cells)
        passed += sum(c.passed for c in rep.cells)
        per_seed.append({"seed": seed, "pass_rate": rep.pass_rate(),
                         "all_pass": rep.all_pass()})
    return {"seeds": per_seed, "cells": total, "passed": passed,
            "pass_rate": passed / total if total else 0.0}


# -- pointwise trace -------------------------------------------------------

@dataclass
class TraceResult:
    config: RunConfig
    times: list
    tips: list          # complex tip estimate per recorded time
    swallowed: list     # count of swallowed grid points per recorded time

    def to_json(self) -> dict:
        return {"config": _config_json(self.config),
                "times": self.times,
                "tips": [[z.real, z.imag] for z in self.tips],
                "swallowed": self.swallowed}


def trace(cfg: RunConfig, record_every: int = 25) -> TraceResult:
    """Evolve rho_t pointwise on a UHP grid and track the tip preimage.

    The tip gamma(t) ~ g_t^{-1}(B0_t) is the active grid point where
    |rho_t(z)| is smallest (g_t = rho_t + B0_t); points with
    |rho_t| < eps are frozen and flagged swallowed, and any point that
    stops being finite is flagged by the divergence guard.
    """
    cfg.validate()
    xs = np.linspace(-cfg.trace_xmax, cfg.trace_xmax, cfg.trace_nx)
    ys = np.linspace(cfg.trace_ymax / cfg.trace_ny, cfg.trace_ymax,
                     cfg.trace_ny)
    grid = (xs[None, :] + 1j * ys[:, None]).ravel()
    rho = grid.copy()
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    nsteps = int(round(cfg.t_max / cfg.dt))
    swallowed = np.zeros(rho.shape, dtype=bool)
    times, tips, counts = [0.0], [0j], [0]
    for step in range(1, nsteps + 1):
        dB0 = rng.standard_normal() * np.sqrt(cfg.kappa * cfg.dt)
        active = ~swallowed
        rho[active] = rho[active] + (2.0 / rho[active]) * cfg.dt - dB0
        # a point is gone once |rho| dips below eps or it leaves the upper
        # half plane (Euler can step across the singularity in one move)
        bad = (~np.isfinite(rho) | (np.abs(rho) < cfg.trace_eps)
               | (rho.imag <= 0))
        swallowed |= bad
        if step % record_every == 0 or step == nsteps:
            active = ~swallowed
            if active.any():
                idx = np.argmin(np.abs(rho) + np.where(active, 0.0, np.inf))
                tip = grid[idx]
            else:
                tip = grid[np.argmin(np.abs(grid))]
            times.append(step * cfg.dt)
            tips.append(complex(tip))
            counts.append(int(swallowed.sum()))
    return TraceResult(config=cfg, times=times, tips=tips, swallowed=counts)


# -- file output ------------------------------------------------------------

def trajectory_columns(order: int) -> list:
    cols = ["t"]
    for j in range(order + 1):
        slot = f"am{j}" if j else "a0"
        cols += [f"rho.{slot}.re", f"rho.{slot}.im"]
    for name in PROCESS_NAMES:
        for j in range(1, order + 1):
            cols += [f"{name}.m{j}.re", f"{name}.m{j}.im"]
    return cols


def trajectory_rows(result: SimResult, path: int = 0) -> list:
    rows = []
    for cp in result.checkpoints:
        row = [cp.t]
        for c in cp.state.rho.coeffs:
            z = complex(np.asarray(c).ravel()[path]) \
                if np.ndim(c) else complex(c)
            row += [z.real, z.imag]
        for name in PROCESS_NAMES:
            for c in getattr(cp.state, name).coeffs:
                z = complex(np.asarray(c).ravel()[path]) \
                    if np.ndim(c) else complex(c)
                row += [z.real, z.imag]
        rows.append(row)
    return rows


def write_csv(path: str, columns: list, rows: list) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    return "%.17g" % v


def write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
