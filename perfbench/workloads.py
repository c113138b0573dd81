"""Benchmark workloads: seeded inputs, one timed operation, output checks.

Each workload object is built from the benchmark seed alone (that is the
set-up the benchmark times), hands out the input of operation i, runs
one operation on it and checks the output.  The package only ever sees
generated inputs and seeds.  Package functions are reached through
their modules (``harness.simulate``, not a bare ``simulate``) so that the
tracer's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from fractions import Fraction

import numpy as np

from superloewner import affine, evolution, generator, harness, observables
from superloewner.scalars import EXACT, rational
from superloewner.series import AutSeries, TailSeries

# Acceptance criterion 5: the run the paper's martingale claim rests on.
MC_GATE = dict(k=1.0, kappa=2.0, tau=0.8, order=4, depth=4, dt=1e-3,
               t_max=0.25, paths=10_000, checkpoints=(0.1, 0.25))
# 500 Euler steps at 10^3 paths: per-call Python overhead of flow_step.
SMALL_BATCH = dict(k=1.0, kappa=2.0, tau=0.8, order=4, depth=4, dt=1e-4,
                   t_max=0.05, paths=1_000)
# Negative control: the "displayed" odd-sector variant breaks the Ito
# balance, and word[H(2)] re misses by about 26 standard errors.  Its pass
# rate (about 0.96) clears the 95% gate, so the check names the cell.
CONTROL = dict(k=1.0, kappa=2.0, tau=0.8, order=4, depth=4, dt=1e-3,
               t_max=0.1, paths=2_000, checkpoints=(0.1,),
               variant="displayed")
CONTROL_CELL = ("word[H(2)]", "re")
# An operation fails if any cell misses by more than MAX_Z standard errors.
# On a true martingale that happens with probability below 56 * 2e-9 (a
# union bound over the cells).  The 95% pass-rate gate is no per-operation
# check: current[E,n=1], word[E(1)] and word[F(1)] share one z, so one
# 3.3-SE excursion fails three of 56 cells (seed 1030001: rate 0.946).
MAX_Z = 6.0

# Acceptance criterion 6 (order 4, k = 3/2) plus the exact Ito-jet drift
# at depth 3; tau(2k + 3) = 4 is the martingale condition.
ORACLE_STATES = 1
DRIFT_STATES = 1
ORACLE_ORDER = 4
ORACLE_K = "3/2"
DRIFT_ORDER = 3
DRIFT_KAPPA = "2"
STATE_POOL = 32


class McGate:
    """One seed of the criterion-5 martingale gate per operation."""

    name = "mc_gate"
    work_unit = "path_steps"
    # One operation takes about 15 s, so the whole window is one
    # measuring process: one cold and one or two warm operations.
    sessions = 1

    def __init__(self, seed: int, config: dict = MC_GATE):
        self.base = harness.RunConfig(seed=seed, **config).validate()
        self.work = self.base.paths * round(self.base.t_max / self.base.dt)

    def configs(self) -> dict:
        return {"op": dataclasses.asdict(self.base)}

    def input(self, i: int):
        return dataclasses.replace(self.base, seed=self.base.seed * 10_000 + i)

    def run(self, cfg):
        return harness.martingale_test(cfg)

    def check(self, cfg, report) -> list:
        problems = []
        if not report.cells:
            problems.append("no cells")
        times = {c.t for c in report.cells}
        if times != set(cfg.checkpoints):
            problems.append(f"cell times {sorted(times)} differ from the "
                            f"requested checkpoints {list(cfg.checkpoints)}")
        if report.dropped_paths:
            problems.append(f"{report.dropped_paths} paths dropped")
        worst = max((c.z for c in report.cells), default=0.0)
        if worst > MAX_Z:
            problems.append(f"a cell misses by {worst:.1f} SE > {MAX_Z}")
        return problems

    def tally(self, report) -> dict:
        return {"cells": len(report.cells),
                "cells_passed": sum(c.passed for c in report.cells)}

    def summary(self, totals) -> dict:
        return {"cell_pass_rate": totals["cells_passed"] / totals["cells"]
                if totals["cells"] else 0.0}

    def fingerprint(self, report):
        return None  # every operation has its own seed


def state_digest(state) -> str:
    h = hashlib.sha256()
    for c in [state.rho.coeffs] + [getattr(state, n).coeffs
                                   for n in evolution.PROCESS_NAMES]:
        for arr in c:
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class SmallBatch:
    """harness.simulate alone at 10^3 paths; every repeat, in any of the
    run's processes, uses one seed and must give one final state (its
    fingerprint)."""

    name = "sim_small_batch"
    work_unit = "path_steps"
    sessions = 5

    def __init__(self, seed: int, config: dict = SMALL_BATCH):
        self.cfg = harness.RunConfig(seed=seed, **config).validate()
        self.work = self.cfg.paths * round(self.cfg.t_max / self.cfg.dt)

    def configs(self) -> dict:
        return {"op": dataclasses.asdict(self.cfg)}

    def input(self, i: int):
        return self.cfg

    def run(self, cfg):
        return harness.simulate(cfg)

    def check(self, cfg, result) -> list:
        problems = []
        if len(result.checkpoints) != 1:
            return [f"{len(result.checkpoints)} checkpoints, expected 1"]
        cp = result.checkpoints[0]
        if cp.t != cfg.t_max:
            problems.append(f"final checkpoint at t={cp.t!r}, "
                            f"expected {cfg.t_max!r}")
        # FlowState.t is a running float sum (0.2499999999999888 after
        # 2 500 steps of 1e-4), so it is held to t_max only up to rounding.
        if abs(cp.state.t - cfg.t_max) > 1e-9:
            problems.append(f"state clock {cp.state.t!r} off t_max")
        if not cp.finite.all():
            problems.append(f"{int((~cp.finite).sum())} non-finite paths")
        return problems

    def fingerprint(self, result):
        return state_digest(result.checkpoints[-1].state)

    def tally(self, result) -> dict:
        return {}

    def summary(self, totals) -> dict:
        return {}


def _nonzero_rational(rng: random.Random):
    return rational(Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3)))


def random_state(rng: random.Random, order: int):
    """Exact flow state whose every series coefficient is a nonzero small
    rational.  Criterion 6 sets only two coefficients per tail; with that
    shape one state's cost varies by 13-17% with which coefficients are
    set, while dense states cost the same to within a few percent."""

    def coeffs(n):
        return [_nonzero_rational(rng) for _ in range(n)]

    return evolution.FlowState(
        rho=AutSeries(coeffs(order + 1), EXACT),
        **{n: TailSeries(coeffs(order), EXACT)
           for n in evolution.PROCESS_NAMES}, t=0.0)


def _depth(mono) -> int:
    return sum(-n for _, n in mono if n < 0)


class ExactOracle:
    """Exact layer only: per operation, oracle_states criterion-6 oracle
    states and drift_states Ito-jet drift states."""

    name = "exact_oracle"
    work_unit = "exact_states"
    sessions = 5

    def __init__(self, seed: int, pool: int = STATE_POOL,
                 oracle_states: int = ORACLE_STATES,
                 drift_states: int = DRIFT_STATES):
        rng = random.Random(seed)
        self.k = rational(ORACLE_K)
        self.kappa = rational(DRIFT_KAPPA)
        self.tau = rational(2) / (self.k + rational("3/2"))
        self.work = oracle_states + drift_states
        self.ops = [([random_state(rng, ORACLE_ORDER)
                      for _ in range(oracle_states)],
                     [random_state(rng, DRIFT_ORDER)
                      for _ in range(drift_states)])
                    for _ in range(pool)]

    def configs(self) -> dict:
        return {"op": {"oracle_order": ORACLE_ORDER, "k": ORACLE_K,
                       "oracle_n": list(range(1, ORACLE_ORDER)),
                       "drift_order": DRIFT_ORDER, "drift_depth": DRIFT_ORDER,
                       "kappa": DRIFT_KAPPA, "tau": str(self.tau),
                       "oracle_states_per_op": len(self.ops[0][0]),
                       "drift_states_per_op": len(self.ops[0][1]),
                       "op_pool": len(self.ops)}}

    def input(self, i: int):
        return self.ops[i % len(self.ops)]

    def run(self, states):
        oracle_states, drift_states = states
        pairs = []
        for st in oracle_states:
            o = observables.observable_current(st, self.k, EXACT)
            for n in range(1, ORACLE_ORDER):
                pairs.append((o.coeff(-n - 1), observables.current_via_module(
                    st, affine.Module(EXACT, self.k, ORACLE_ORDER), n)))
        drifts = [generator.state_drift(st, self.k, self.kappa, self.tau,
                                        EXACT, DRIFT_ORDER)
                  for st in drift_states]
        return pairs, drifts

    def check(self, states, out) -> list:
        pairs, drifts = out
        problems = [f"observable_current != current_via_module "
                    f"(check {j})" for j, (a, b) in enumerate(pairs)
                    if a != b]
        for drift in drifts:
            low = [m for m in drift.terms if _depth(m) < DRIFT_ORDER]
            if low:
                problems.append(f"{len(low)} nonzero drift components of "
                                f"depth < {DRIFT_ORDER}")
            for n in range(1, DRIFT_ORDER):
                if not affine.expectation([affine.mode("E", n)],
                                          drift).is_zero():
                    problems.append(f"<0|E({n})> drift is not zero")
        return problems

    def fingerprint(self, out):
        return None  # operations cycle through a pool of distinct states

    def tally(self, out) -> dict:
        return {}

    def summary(self, totals) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (McGate, SmallBatch, ExactOracle)}


def negative_control(seed: int, config: dict = CONTROL) -> tuple:
    """Run the displayed variant; return (cell failed as required, note)."""
    cfg = harness.RunConfig(seed=seed, **config)
    report = harness.martingale_test(cfg)
    name, comp = CONTROL_CELL
    cells = [c for c in report.cells
             if c.observable == name and c.component == comp]
    if not cells:
        return False, f"control produced no {name} {comp} cell"
    failed = [c for c in cells if not c.passed]
    note = (f"{name} {comp}: z = {max(c.z for c in cells):.1f} over "
            f"{len(cells)} cell(s); pass rate {report.pass_rate():.4f}")
    return len(failed) == len(cells), note
