import random
from fractions import Fraction

import pytest

from superloewner.scalars import EXACT, Cyclo8, rational
from superloewner.series import (AutSeries, SeriesOrderError, TailSeries,
                                 aut_compose, series_derive, series_equal,
                                 series_exp, series_inv_aut, series_mul,
                                 substitute)

R = EXACT
ONE = R.one


def tail(coeffs, order=None):
    order = order or len(coeffs)
    cs = [rational(c) if not hasattr(c, "is_zero") else c for c in coeffs]
    cs += [R.zero] * (order - len(cs))
    return TailSeries(cs, R)


def aut(coeffs, order=None):
    order = (order or len(coeffs) - 1)
    cs = [rational(c) if not hasattr(c, "is_zero") else c for c in coeffs]
    cs += [R.zero] * (order + 1 - len(cs))
    return AutSeries(cs, R)


def rand_tail(order, rng, nonzero=2):
    cs = [R.zero] * order
    for idx in rng.sample(range(order), min(nonzero, order)):
        cs[idx] = rational(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
    return TailSeries(cs, R)


def rand_aut(order, rng):
    return AutSeries([rational(Fraction(rng.randint(-3, 3),
                                        rng.randint(1, 4)))
                      for _ in range(order + 1)], R)


def test_mul_examples():
    a = tail([1, 1, 0, 0])           # z^-1 + z^-2
    p = series_mul(a, a)
    assert p.coeff(-2) == ONE
    assert p.coeff(-3) == rational(2)
    assert p.coeff(-4) == ONE
    assert p.coeff(-1) == R.zero
    b = tail([1])                     # z^-1 at order 1
    assert series_mul(b, b).is_zero()  # z^-2 beyond order


def test_order_mismatch_raises():
    with pytest.raises(SeriesOrderError):
        series_mul(tail([1, 0]), tail([1, 0, 0]))
    with pytest.raises(SeriesOrderError):
        aut_compose(aut([0, 1]), aut([0, 1, 0]))


def test_monomial_range():
    with pytest.raises(SeriesOrderError):
        TailSeries.monomial(0, ONE, 4, R)
    with pytest.raises(SeriesOrderError):
        TailSeries.monomial(-5, ONE, 4, R)


def test_inv_aut_examples():
    # identity flow
    u = series_inv_aut(AutSeries.identity(4, R))
    assert u.coeff(-1) == ONE and u.coeff(-2) == R.zero
    # z + a0: geometric series
    a0 = rational(3)
    u = series_inv_aut(aut([3, 0, 0, 0, 0]))
    assert u.coeff(-1) == ONE
    assert u.coeff(-2) == -a0
    assert u.coeff(-3) == a0 * a0
    assert u.coeff(-4) == -(a0 ** 3)
    # z + z^-1 at order 4
    u = series_inv_aut(aut([0, 1, 0, 0, 0]))
    assert u.coeff(-1) == ONE and u.coeff(-3) == -ONE
    assert u.coeff(-2) == R.zero and u.coeff(-4) == R.zero


def test_inv_aut_is_right_inverse():
    # rho * (1/rho) = 1 checked through substitution coherence on
    # 200 random exact rationals at several orders
    rng = random.Random(20240)
    for order in (2, 4, 8):
        for _ in range(67):
            rho = rand_aut(order, rng)
            u = series_inv_aut(rho)
            # brute Laurent product of rho(z) and u(z), windowed
            prod = {}
            rho_terms = [(1, ONE)] + [(-j, rho.coeffs[j])
                                      for j in range(order + 1)]
            for p1, c1 in rho_terms:
                for j in range(1, order + 1):
                    prod[p1 - j] = prod.get(p1 - j, R.zero) \
                        + c1 * u.coeffs[j - 1]
            assert prod.get(0, R.zero) == ONE
            # all computable window coefficients below z^0 must cancel;
            # powers <= -order carry dropped-order contamination
            for p in range(-1, -order, -1):
                assert prod.get(p, R.zero) == R.zero, (order, p)


def test_exp_examples():
    e = series_exp(tail([1, 0, 0]))
    assert e.coeff(0) == ONE
    assert e.coeff(-1) == ONE
    assert e.coeff(-2) == rational("1/2")
    assert e.coeff(-3) == rational("1/6")
    assert series_exp(TailSeries.zero(3, R)).tail.is_zero()


def test_exp_inverse_pair_and_homomorphism():
    rng = random.Random(7)
    for _ in range(25):
        a = rand_tail(4, rng, nonzero=3)
        b = rand_tail(4, rng, nonzero=3)
        prod = series_exp(a) * series_exp(-a)
        assert prod.tail.is_zero()
        lhs = series_exp(a + b)
        rhs = series_exp(a) * series_exp(b)
        assert series_equal(lhs.tail, rhs.tail)


def test_derive_examples():
    d = series_derive(tail([1, 0, 0, 0]))
    assert d.coeff(-2) == rational(-2) * rational("1/2")  # -1 * z^-2
    d = series_derive(tail([0, 3, 1, 0]))
    assert d.coeff(-3) == rational(-6)
    assert d.coeff(-4) == rational(-3)
    assert d.coeff(-2) == R.zero
    assert series_derive(TailSeries.zero(3, R)).is_zero()


def test_leibniz_up_to_dropped_order():
    rng = random.Random(99)
    for _ in range(20):
        a = rand_tail(5, rng)
        b = rand_tail(5, rng)
        lhs = series_derive(series_mul(a, b))
        rhs = series_mul(series_derive(a), b) \
            + series_mul(a, series_derive(b))
        # the top stored coefficient of the rhs pulls in c_{-N} factors
        # that lhs lost to truncation, so compare below it
        for p in range(-1, -5, -1):
            assert lhs.coeff(p) == rhs.coeff(p), p


def test_substitute_examples():
    ident = AutSeries.identity(4, R)
    zinv = TailSeries.monomial(-1, ONE, 4, R)
    assert series_equal(substitute(zinv, ident), zinv)
    rho = aut([3, 0, 0, 0, 0])
    assert series_equal(substitute(zinv, rho), series_inv_aut(rho))
    s = substitute(TailSeries.monomial(-2, ONE, 4, R), rho)
    assert s.coeff(-2) == ONE
    assert s.coeff(-3) == rational(-6)
    assert s.coeff(-4) == rational(27)


def test_compose_examples():
    ident = AutSeries.identity(3, R)
    r = aut([0, 1, 0, 0])  # z + z^-1
    assert series_equal(aut_compose(r, ident), r)
    assert series_equal(aut_compose(ident, r), r)
    c = aut_compose(r, r)
    assert c.coeff(0) == R.zero
    assert c.coeff(-1) == rational(2)
    assert c.coeff(-2) == R.zero
    assert c.coeff(-3) == -ONE
    t = aut_compose(aut([2, 0, 0, 0]), aut([5, 0, 0, 0]))
    assert t.coeff(0) == rational(7)


def test_substitute_compose_coherence():
    rng = random.Random(4)
    for _ in range(15):
        a = rand_tail(4, rng)
        rho = rand_aut(4, rng)
        mu = rand_aut(4, rng)
        lhs = substitute(a, aut_compose(rho, mu))
        rhs = substitute(substitute(a, mu), rho)
        assert series_equal(lhs, rhs)


def test_aut_absorbs_tail_only():
    rho = aut([1, 0, 0, 0])
    bumped = rho + tail([2, 0, 0], order=3)
    assert bumped.coeff(-1) == rational(2)
    with pytest.raises(TypeError):
        rho + rho


def test_exact_rings_keep_their_zero_skips(monkeypatch):
    calls = []
    mul = Cyclo8.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Cyclo8, "__mul__", counted)
    a = TailSeries.monomial(-1, rational(2), 4, R)
    b = TailSeries.monomial(-2, rational(3), 4, R)
    p = series_mul(a, b)
    assert len(calls) == 1
    assert p.coeff(-3) == rational(6) and p.coeff(-4) == R.zero
    calls.clear()
    e = series_exp(TailSeries.monomial(-3, rational(5), 4, R))
    assert not calls
    assert e.coeff(-3) == rational(5) and e.tail.coeff(-4) == R.zero
