import random
from fractions import Fraction

from superloewner.affine import Module, Vector, act_mode, mode
from superloewner.nullscan import (condition_one, condition_two,
                                   direct_residuals, null_conditions)
from superloewner.scalars import EXACT, rational
from superloewner.superalgebra import SYMBOLS

R = EXACT


def _rand_params(rng, tau_positive=True):
    k = Fraction(rng.randint(-6, 9), rng.randint(1, 5))
    if k == Fraction(-3, 2):
        k += 1
    lam = Fraction(rng.randint(1, 7), rng.randint(1, 4))
    kappa = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    tau = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return k, lam, kappa, tau


def test_e_residual_derived_closed_form():
    # condition (34) at X=E evaluates to (tau(k + lambda + 3/2) - 2) E(-1)|v>
    rng = random.Random(71)
    for _ in range(10):
        k, lam, kappa, tau = _rand_params(rng)
        res = condition_one("E", k, lam, kappa, tau)
        coeff = rational(tau) * (rational(k) + rational(lam)
                                 + rational("3/2")) - rational(2)
        mod = Module(R, rational(k), 3, floor="verma", weight=rational(lam))
        expected = act_mode(mode("E", -1),
                            Vector.floor_vector(mod)).scale(coeff)
        assert res == expected, (k, lam, kappa, tau)


def test_h_residual_frozen_components():
    k, lam, kappa, tau = Fraction(2), Fraction(3, 2), Fraction(5, 3), \
        Fraction(1, 2)
    res = condition_one("H", k, lam, kappa, tau)
    kR, lamR, kapR, tauR = map(rational, (k, lam, kappa, tau))
    c0 = (rational(2) * kR + rational(3)).inverse()
    assert res.terms[(mode("H", -1),)] \
        == tauR * kR + rational("3/2") * tauR - rational(2) \
        + kapR * lamR * lamR * c0
    assert res.terms[(mode("E", -1), mode("F", 0))] \
        == rational(2) * kapR * lamR * c0 - rational(2) * tauR
    assert res.terms[(mode("e", -1), mode("f", 0))] \
        == -kapR * lamR * c0 + tauR / 2


def test_direct_reduction_matches_condition_formulas():
    rng = random.Random(13)
    for _ in range(5):
        k, lam, kappa, tau = _rand_params(rng)
        for x in SYMBOLS:
            d1, d2 = direct_residuals(x, k, lam, kappa, tau)
            assert d1 == condition_one(x, k, lam, kappa, tau), (x, k, lam)
            assert d2 == condition_two(x, k, lam, kappa, tau), (x, k, lam)


def test_condition_two_coefficient():
    # residual coefficient kappa + (3/2) tau - 4 on the lowering modes
    tau = Fraction(1, 2)
    tuned = Fraction(4) - Fraction(3, 2) * tau
    rep = null_conditions(Fraction(1), Fraction(2), tuned, tau)
    for rec in rep.records:
        if rec.check.startswith("condition-2"):
            assert rec.passed, rec.check
    rep2 = null_conditions(Fraction(1), Fraction(2), tuned + 1, tau)
    fails = [r for r in rep2.records
             if r.check in ("condition-2[X=F]", "condition-2[X=f]",
                            "condition-2[X=H]")]
    assert fails and all(not r.passed for r in fails)


def test_vacuum_relations_annihilate_condition_one():
    # lambda = 0 with vacuum relations: condition (34) residuals all vanish
    # at tau = 2/(k + 3/2) for any kappa; realized by checking that the
    # verma-floor residual is supported entirely on lowering-mode terms
    for kq in ("1/2", "1", "3"):
        k = Fraction(kq)
        tau = Fraction(2) / (k + Fraction(3, 2))
        rep = null_conditions(k, 0, Fraction(17, 5), tau)
        for rec in rep.records:
            if not rec.check.startswith("condition-1"):
                continue
            for name in rec.residual_terms:
                assert "(0)" in name, (kq, rec.check, name)


def test_no_go_for_positive_tau():
    rng = random.Random(5)
    for _ in range(10):
        k, lam, _, tau = _rand_params(rng)
        kappa = Fraction(4) - Fraction(3, 2) * tau  # impose condition (35)
        rep = null_conditions(k, lam, kappa, tau)
        assert not rep.all_residuals_zero(), (k, lam, tau)


def test_report_json_shape():
    rep = null_conditions(Fraction(1), Fraction(1), Fraction(2),
                          Fraction(1, 2))
    payload = rep.to_json()
    assert len(payload) == 10
    for rec in payload:
        assert set(rec) == {"check", "parameters", "residual_terms", "pass"}
