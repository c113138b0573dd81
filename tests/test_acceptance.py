"""Acceptance criteria, one test (or split sub-tests) per criterion.

Every tolerance is pinned here; run with `pytest tests/test_acceptance.py -v -s`
to see one pass/fail line per criterion with its measured runtime.

Criterion 3a freezes an alternative closed form of the X=E null-vector
residual that is weight-inhomogeneous (it mixes H(0)-weights lambda+2
and lambda) and provably cannot arise from the stated condition; it is
kept as a strict xfail so the discrepancy stays documented and visible
(see the deviations section of the README).  The derived closed form
and the no-go statement are the green criteria 3b and 3c.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from superloewner.affine import (Module, Vector, act_mode, act_word,
                                 annihilator_apply, expectation, mode,
                                 sugawara)
from superloewner.evolution import initial_state, loewner_step
from superloewner.grassmann import GrassRing, berezin
from superloewner.harness import RunConfig, martingale_seed_suite
from superloewner.nullscan import condition_one, null_conditions
from superloewner.observables import current_via_module, observable_current
from superloewner.scalars import EXACT, rational
from superloewner.series import (AutSeries, TailSeries, aut_compose,
                                 series_equal, series_exp, series_inv_aut,
                                 substitute)
from superloewner.superalgebra import (PARITY, SYMBOLS, bracket, form,
                                       standard_basis)

R = EXACT


def _report(tag, ok, started, budget):
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} "
          f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok
    assert elapsed < budget, f"{tag} exceeded its runtime budget"


def test_criterion_1_annihilator_identity():
    started = time.perf_counter()
    G = GrassRing(EXACT)
    ok = True
    for kq in ("1/2", "1", "3", "10"):
        for kapq in ("2", "8/3", "4"):
            k = rational(kq)
            tau = G.lift(
                rational(2) * (k + rational("3/2")).inverse())
            kappa = G.from_rational(kapq)
            module = Module(G, k, 4)
            v0 = Vector.floor_vector(module)
            v = v0 + v0.scale(G.eta12)
            out = annihilator_apply(kappa, tau, v)
            ok &= all(berezin(c).is_zero() for c in out.terms.values())
    _report("criterion 1 (annihilator identity, exact)", ok, started, 5)


def test_criterion_2_central_charge_and_virasoro():
    started = time.perf_counter()
    ok = True
    for kq in ("1/2", "1", "3"):
        k = rational(kq)
        module = Module(R, k, 4)
        vac = Vector.floor_vector(module)
        got = sugawara(2, sugawara(-2, vac)).floor_coeff()
        ok &= got == k * (rational(2) * k + rational(3)).inverse()
        ck = k * (k + rational("3/2")).inverse()
        probes = [vac, act_mode(mode("H", -1), vac),
                  act_mode(mode("e", -1), vac),
                  act_word((mode("E", -1), mode("F", -1)), vac)]
        for m, n in ((1, -1), (2, -2), (1, -2), (2, -1),
                     (0, 1), (0, -1), (0, 2), (0, -2)):
            for v in probes:
                lhs = (sugawara(m, sugawara(n, v, project=True), project=True)
                       - sugawara(n, sugawara(m, v, project=True),
                                  project=True))
                rhs = sugawara(m + n, v, project=True).scale(R.from_int(m - n))
                if m + n == 0:
                    rhs = rhs + v.scale(ck * R.from_int(m ** 3 - m) / 12)
                ok &= lhs == rhs
    _report("criterion 2 (central charge + Virasoro suite, exact)",
            ok, started, 30)


def _null_samples(count=10, seed=2024):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = Fraction(rng.randint(-6, 9), rng.randint(1, 5))
        if k == Fraction(-3, 2):
            continue
        lam = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        tau = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        kappa = Fraction(4) - Fraction(3, 2) * tau
        out.append((k, lam, kappa, tau))
    return out


@pytest.mark.xfail(
    strict=True,
    reason="this alternative X=E residual form mixes H(0)-weights "
           "lambda+2 and lambda and cannot arise from the stated "
           "condition; the derived closed form is criterion 3b")
def test_criterion_3a_e_residual_alternative_form():
    k, lam, kappa, tau = _null_samples(1)[0]
    res = condition_one("E", k, lam, kappa, tau)
    kR, lamR, tauR = rational(k), rational(lam), rational(tau)
    coeff_e = tauR * kR - tauR * rational("3/2") - rational(2) \
        + tauR * (rational(4) + lamR)
    module = Module(R, kR, 3, floor="verma", weight=lamR)
    v = Vector.floor_vector(module)
    displayed = act_mode(mode("E", -1), v).scale(coeff_e) \
        + act_mode(mode("H", -1), v).scale(tauR / 2)
    assert res == displayed


def test_criterion_3b_e_residual_derived_identity():
    started = time.perf_counter()
    ok = True
    for k, lam, kappa, tau in _null_samples(10):
        res = condition_one("E", k, lam, kappa, tau)
        coeff = rational(tau) * (rational(k) + rational(lam)
                                 + rational("3/2")) - rational(2)
        module = Module(R, rational(k), 3, floor="verma",
                        weight=rational(lam))
        want = act_mode(mode("E", -1),
                        Vector.floor_vector(module)).scale(coeff)
        ok &= res == want
    _report("criterion 3b (X=E residual, derived closed form, "
            "10 rational points)", ok, started, 5)


def test_criterion_3c_no_go_for_positive_tau():
    started = time.perf_counter()
    ok = True
    for k, lam, kappa, tau in _null_samples(10, seed=555):
        rep = null_conditions(k, lam, kappa, tau)
        ok &= not rep.all_residuals_zero()
    _report("criterion 3c (null-vector no-go at tau > 0)", ok, started, 5)


def test_criterion_4_deterministic_loewner():
    started = time.perf_counter()
    from superloewner.scalars import COMPLEX
    rho = AutSeries.identity(4, COMPLEX)
    dt, nsteps = 1e-5, 10000
    for _ in range(nsteps):
        rho = loewner_step(rho, dt, 0.0)
    t = nsteps * dt
    got = np.array([complex(c) for c in rho.coeffs])
    want = np.array([0.0, 2 * t, 0.0, -2 * t * t, 0.0])
    npt.assert_allclose(got, want, rtol=1e-4, atol=1e-8)
    _report("criterion 4 (zero-noise Loewner benchmark sqrt(z^2+4t))",
            True, started, 10)


def test_criterion_5_martingale_monte_carlo():
    started = time.perf_counter()
    cfg = RunConfig(k=1.0, kappa=2.0, tau=0.8, order=4, depth=4, dt=1e-3,
                    t_max=0.25, paths=10000, checkpoints=(0.1, 0.25))
    suite = martingale_seed_suite(cfg, seeds=(101, 202, 303, 404, 505))
    rate = suite["pass_rate"]
    print(f"\n  per-seed: {[(s['seed'], round(s['pass_rate'], 4)) for s in suite['seeds']]}")
    _report(f"criterion 5 (martingale MC, 5 seeds, cell rate {rate:.4f} "
            ">= 0.95)", rate >= 0.95, started, 600)


def test_criterion_6_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(606)
    N = 4
    k = rational("3/2")
    names = ("xE", "xH", "xF", "x1e", "x1f", "x2e", "x2f",
             "x12E", "x12H", "x12F")

    def tail():
        cs = [R.zero] * N
        for idx in rng.sample(range(N), 2):
            cs[idx] = rational(Fraction(rng.randint(-2, 2),
                                        rng.randint(1, 3)))
        return TailSeries(cs, R)

    from dataclasses import replace
    ok = True
    for _ in range(20):
        rho = AutSeries([rational(Fraction(rng.randint(-2, 2),
                                           rng.randint(1, 3)))
                         for _ in range(N + 1)], R)
        st = replace(initial_state(N, R), rho=rho,
                     **{n: tail() for n in names})
        o = observable_current(st, k, R)
        for n in range(1, N):
            ok &= o.coeff(-n - 1) == current_via_module(
                st, Module(R, k, N), n)
    _report("criterion 6 (observable_current == expectation route, "
            "20 exact states)", ok, started, 30)


def test_criterion_7_algebraic_foundations():
    started = time.perf_counter()
    ok = True
    # super-Jacobi, all 35 unordered triples
    for xi, yi, zi in itertools.combinations_with_replacement(SYMBOLS, 3):
        from superloewner.superalgebra import AlgebraElement
        x, y, z = (AlgebraElement.basis(s) for s in (xi, yi, zi))
        px, py, pz = PARITY[xi], PARITY[yi], PARITY[zi]
        total = (bracket(x, bracket(y, z)).scale(
            R.from_int(-1 if px * pz else 1))
            + bracket(y, bracket(z, x)).scale(
            R.from_int(-1 if py * px else 1))
            + bracket(z, bracket(x, y)).scale(
            R.from_int(-1 if pz * py else 1)))
        ok &= total.is_zero()
    # invariance for all ordered triples
    basis = standard_basis()
    for x in basis:
        for y in basis:
            for z in basis:
                ok &= form(bracket(x, y), z) == form(x, bracket(y, z))
    # Grassmann associativity on all 64 basis triples
    G = GrassRing(EXACT)
    gb = [G.one, G.eta1, G.eta2, G.eta12]
    for a, b, c in itertools.product(gb, repeat=3):
        ok &= (a * b) * c == a * (b * c)
    # series oracles: inverse, compose, exp
    rng = random.Random(707)

    def rand_aut(order):
        return AutSeries([rational(Fraction(rng.randint(-3, 3),
                                            rng.randint(1, 4)))
                          for _ in range(order + 1)], R)

    for order in (2, 4):
        for _ in range(30):
            rho = rand_aut(order)
            u = series_inv_aut(rho)
            prod = {}
            terms = [(1, R.one)] + [(-j, rho.coeffs[j])
                                    for j in range(order + 1)]
            for p1, c1 in terms:
                for j in range(1, order + 1):
                    prod[p1 - j] = prod.get(p1 - j, R.zero) \
                        + c1 * u.coeffs[j - 1]
            ok &= prod.get(0, R.zero) == R.one
            for p in range(-1, -order, -1):
                ok &= prod.get(p, R.zero) == R.zero
            mu = rand_aut(order)
            zinv = TailSeries.monomial(-1, R.one, order, R)
            ok &= series_equal(substitute(zinv, aut_compose(rho, mu)),
                               substitute(substitute(zinv, mu), rho))

    def rand_tail(order):
        return TailSeries([rational(Fraction(rng.randint(-3, 3),
                                             rng.randint(1, 4)))
                           for _ in range(order)], R)

    for _ in range(30):
        a, b = rand_tail(4), rand_tail(4)
        ok &= series_equal(series_exp(a + b).tail,
                           (series_exp(a) * series_exp(b)).tail)
        ok &= (series_exp(a) * series_exp(-a)).tail.is_zero()
    _report("criterion 7 (algebraic foundations, exact)", ok, started, 10)
