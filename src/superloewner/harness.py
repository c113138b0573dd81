"""Run configuration, simulation drivers, and statistical harness.

The Monte Carlo engine evolves all paths at once from the vacuum
`evolution.initial_state(order, COMPLEX)`: a series coefficient is a
complex numpy array over paths once the flow sets it, and stays the
`ring.zero` placeholder, which no kernel touches, where it never does
(the structural zeros).  The generic series code broadcasts through
both, so the same `flow_step` formulas serve the exact tests and the
batch simulation.  Gaussian increments come from
one seeded PCG64 stream per run, drawn step by step in a fixed order,
which makes every subcommand a pure function of (config, seed): reruns
are byte-identical.

The martingale test tracks two observable families per checkpoint:

* (a) the coefficients of z^{-n-1}, n = 1..N-1, of the Berezin-projected
  E-current matrix element (series route, order-exact window only);
* (b) <0| w  G_t |0>-type pairings for the default dual-word family
  (empty word plus all single modes X(1), X(2)).

Each complex observable contributes two real cells (re, im); a cell
passes when |mean(t) - value(0)| <= 3 SE.  The acceptance gate is the
five-seed cell pass rate.  The test evolves each process only to the
zeta-degree some cell reads (`_flow_orders`) and pads each checkpoint
back to order N with zeros; the cells equal those of a full-order flow,
and the non-finite guard sees the evolved coefficients only.
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

from .evolution import FlowState, PROCESS_NAMES, flow_step, initial_state
from .matrixrep import BatchAssembler, MatrixModule
from .observables import dual_words, observable_current
from .scalars import COMPLEX
from .series import AutSeries, TailSeries
from .superalgebra import H_VEE


class ConfigError(ValueError):
    pass


def check_level(k) -> None:
    """Refuse the critical level k = -h_vee, where Sugawara is undefined."""
    if k == -H_VEE:
        raise ConfigError(f"k = {-H_VEE} is the critical level, where the "
                          f"Sugawara construction is undefined")


@dataclass
class RunConfig:
    k: float = 1.0
    kappa: float = 2.0
    tau: float | None = None      # default 2/(k + h_vee)
    # series truncation N; martingale-test evolves each process at the
    # order its cells read (`_flow_orders`) and reads the cells at N
    order: int = 4
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

    def resolved_tau(self) -> float:
        if self.tau is None:
            return 2.0 / (self.k + float(H_VEE))
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
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
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


# the RunConfig fields each run command takes as flags (out and format
# where it writes them), and those it reads from a config file only;
# READS is both: the martingale report echoes it, and the CLI refuses
# any other key
_SIMULATE_FLAGS = ("k", "kappa", "tau", "order", "dt", "t_max", "paths",
                   "seed", "out", "format", "checkpoints", "variant")
FLAGS = {
    "simulate": _SIMULATE_FLAGS,
    "martingale-test": tuple(f for f in _SIMULATE_FLAGS if f != "format"),
}
_CONFIG_ONLY = {
    "simulate": (),
    "martingale-test": ("depth", "word_depth"),
}
READS = {command: flags + _CONFIG_ONLY[command]
         for command, flags in FLAGS.items()}


def parse_value(key: str, text: str, convert):
    """convert(text), or a ConfigError naming the key and the value."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad value for {key}: {text!r}") from None


def _real(text: str) -> float:
    # float, not Fraction, reads nan and inf, which validate then names
    return float(Fraction(text)) if "/" in text else float(text)


# RunConfig field annotations are strings; the first type names the parser
_CONVERTERS = {"int": int, "str": str, "float": _real,
               "tuple": lambda t: tuple(_real(x) for x in t.split(",") if x)}
_FIELDS = {f.name: _CONVERTERS[f.type.split("|")[0].strip()]
           for f in dataclasses.fields(RunConfig)}


def convert_field(name: str, text: str, key: str | None = None):
    """Text for RunConfig field `name` as its type; errors name `key`."""
    return parse_value(key or name, text, _FIELDS[name])


def parse_config_file(path: str) -> dict:
    """Plain key=value file; '#' starts a comment; keys match RunConfig."""
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
            if key in _FIELDS:
                values[key] = convert_field(key, val.strip())
            else:
                bad.add(key)
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
        raw *= self.scales[:, None]
        return dict(zip(("B0", "B1", "B2", "B3", "Ba"), raw))


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


def simulate(cfg: RunConfig, start=None) -> SimResult:
    """Evolve cfg.paths coupled processes; record the checkpoint states.

    The increments are a seeded BlockDrivers stream.  `start` is the
    batch state at t = 0, by default the vacuum `initial_state` with
    every series at cfg.order.
    """
    cfg.validate()
    tau = cfg.resolved_tau()
    nsteps = int(round(cfg.t_max / cfg.dt))
    checkpoints = cfg.resolved_checkpoints()
    cp_steps = {int(round(t / cfg.dt)) for t in checkpoints if t > 0}
    state = start if start is not None else initial_state(cfg.order,
                                                          COMPLEX)
    result = SimResult(config=cfg)
    if 0.0 in checkpoints or cfg.t_max == 0:
        result.checkpoints.append(
            Checkpoint(0.0, state, np.ones(cfg.paths, dtype=bool)))
    drivers = BlockDrivers(cfg.seed, cfg.paths, cfg.dt, cfg.kappa, tau)
    for step in range(1, nsteps + 1):
        state = flow_step(state, cfg.dt, drivers.step(), tau,
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
    # count at each resolved checkpoint (sorted, duplicates merged)
    dropped_paths: int = 0
    dropped_by_checkpoint: list = field(default_factory=list)
    # wall seconds per stage: simulate_s, operators_s, and observables_s
    # as a list with one entry per resolved checkpoint
    timings: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    # the series order each process ("rho" too) was evolved at
    flow_orders: dict = field(default_factory=dict)

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
            "flow_orders": self.flow_orders,
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
    d = {f: getattr(cfg, f) for f in READS["martingale-test"]}
    d["checkpoints"] = list(cfg.resolved_checkpoints())
    d["tau"] = cfg.resolved_tau()
    return d


def _provenance(seed: int) -> dict:
    """Versions behind a run; scipy is optional and reported when present."""
    try:
        import scipy
    except ImportError:
        scipy = None

    from . import __version__
    return {"superloewner": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__ if scipy else None,
            "seed": seed}


_WARN_PATHS = 100


def _padded(state: FlowState, order: int) -> FlowState:
    """state with ring.zero placeholders appended up to series order."""
    ring = state.rho.ring
    zeros = [ring.zero] * order     # each series is padded on its own
    return dataclasses.replace(
        state, rho=AutSeries((state.rho.coeffs + zeros)[:order + 1], ring),
        **{n: TailSeries((getattr(state, n).coeffs + zeros)[:order], ring)
           for n in PROCESS_NAMES})


def _flow_orders(cfg: RunConfig) -> dict:
    """The least series order of each process that keeps every cell exact.

    The flow is triangular in zeta-degree: products, series_exp and the
    Euler update never lower it, and the zeta^{-j} coefficient of 1/rho
    reads a_0 .. a_{2-j} only, so a process run at order n has its first
    n coefficients exactly; padding with ring.zero, which the series
    kernels skip, gives the cells of a full-order flow.  Assembly reads
    j <= m = min(N, word_depth), and aut_to_virasoro matches a_{-j} for
    j < m.  The zeta^{-N} coefficient of observable_current
    (current[E,n=N-1]) reads x^F and x^{12,F} to degree N-1, through a
    derivative, and every other process to degree N-2.  Evolving x^F and
    x^{12,F} to degree N-1 takes 1/rho and x^{2,f} there too: the bases
    x^F u and 1/rho x^{2,f} stop at their shorter factor (the
    common-prefix rule of `series`).  Order 2 is the least simulate
    accepts.
    """
    n, m = cfg.order, min(cfg.order, cfg.word_depth)
    top = ("rho", "xF", "x2f", "x12F")
    return {p: max(m, n - 1 if p in top else n - 2, 2)
            for p in ("rho",) + PROCESS_NAMES}


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
    report.flow_orders = _flow_orders(cfg)
    # Assembling at word_depth instead of depth is exact.  Every assembly
    # factor (L_{-j}, X(-j), and each normal-ordered Sugawara term) is a
    # creation operator or acts with its annihilator first, so it never
    # lowers depth; the components of depth <= word_depth therefore do not
    # depend on where the module is truncated, and a word X(n) with
    # n <= word_depth reads only those components.  The operators and the
    # word rows are cast to floats before the flow runs, so a level whose
    # exact values overflow a float fails at once.
    started = clock()
    mm = MatrixModule(cfg.k, cfg.word_depth)
    try:
        assembler = BatchAssembler(mm, cfg.order)
        for _, w in dual_words(cfg.word_depth):
            mm.word_row(w)
    except OverflowError:
        raise ConfigError(f"k = {cfg.k} is too large: the module's exact "
                          f"values at this level overflow a float") from None
    operators_s = clock() - started
    started = clock()
    sim = simulate(cfg, start=initial_state(report.flow_orders, COMPLEX))
    report.timings["simulate_s"] = clock() - started
    report.timings["operators_s"] = operators_s
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
        obs = batch_observables(_padded(cp.state, cfg.order), cfg,
                                assembler)
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


def trajectory_rows(result: SimResult) -> list:
    """One row per checkpoint: t, then the coefficients of path 0."""
    rows = []
    for cp in result.checkpoints:
        row = [cp.t]
        for name in ("rho",) + PROCESS_NAMES:
            for c in getattr(cp.state, name).coeffs:
                z = complex(np.asarray(c).ravel()[0]) \
                    if np.ndim(c) else complex(c)
                row += [z.real, z.imag]
        rows.append(row)
    return rows


def csv_text(columns: list, rows: list) -> str:
    lines = [",".join(columns)]
    lines += [",".join("%.17g" % v for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_csv(path: str, columns: list, rows: list) -> None:
    with open(path, "w") as fh:
        fh.write(csv_text(columns, rows))


def json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(payload))
