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
    cs = [c if isinstance(c, Cyclo8) else rational(c) for c in coeffs]
    cs += [R.zero] * (order - len(cs))
    return TailSeries(cs, R)


def aut(coeffs, order=None):
    order = (order or len(coeffs) - 1)
    cs = [c if isinstance(c, Cyclo8) else rational(c) for c in coeffs]
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
    # tail products keep the common exact prefix; composition refuses
    assert series_equal(series_mul(tail([1, 0]), tail([1, 0, 0])),
                        tail([0, 1]))
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


def _rand_cyclo(rng):
    return Cyclo8(*(Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                    for _ in range(4)))


def _rand_coeffs(n, rng, dense):
    cs = [R.zero] * n
    for idx in (range(n) if dense else rng.sample(range(n), rng.randint(1, 2))):
        cs[idx] = _rand_cyclo(rng)
    return cs


def _exp_power_sum(a):
    """1 + sum_{m=1..N} a^m / m!, the defining series."""
    acc = term = a
    fact = 1
    for m in range(2, a.order + 1):
        term = series_mul(term, a)
        fact *= m
        acc = acc + term.scale(ONE / fact)
    return acc


def _inv_power_sum(rho):
    """zeta^{-1} sum_{m=0..N-1} (-t)^m with t = (rho - z) / z."""
    neg_t = TailSeries([-c for c in rho.coeffs[:-1]], R)
    acc = power = neg_t
    for _ in range(rho.order - 2):
        power = series_mul(power, neg_t)
        acc = acc + power
    return [ONE] + acc.coeffs[:-1]


@pytest.mark.parametrize("dense", [True, False])
@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_recurrences_equal_their_power_sums(order, dense):
    rng = random.Random(1000 * order + dense)
    for _ in range(4):
        a = TailSeries(_rand_coeffs(order, rng, dense), R)
        assert series_exp(a).tail.coeffs == _exp_power_sum(a).coeffs
        rho = AutSeries(_rand_coeffs(order + 1, rng, dense), R)
        assert series_inv_aut(rho).coeffs == _inv_power_sum(rho)


def _prefix(a, n):
    return TailSeries(a.coeffs[:n], R)


@pytest.mark.parametrize("dense", [True, False])
def test_mixed_orders_give_the_common_exact_prefix(dense):
    """Each tail operation on operands cut to orders na and nb equals the
    operation at order 6 cut to min(na, nb)."""
    rng = random.Random(60 + dense)
    for na in range(2, 7):
        for nb in range(2, 7):
            a, b = (TailSeries(_rand_coeffs(6, rng, dense), R)
                    for _ in range(2))
            s = _rand_cyclo(rng)
            ta, tb = _prefix(a, na), _prefix(b, nb)
            for got, full in ((ta + tb, a + b), (ta - tb, a - b),
                              (ta.add_scaled(tb, s), a.add_scaled(b, s)),
                              (series_mul(ta, tb), series_mul(a, b))):
                assert got.coeffs == full.coeffs[:min(na, nb)]


@pytest.mark.parametrize("dense", [True, False])
def test_exp_times_tail_is_exact_one_order_past_the_exp(dense):
    """exp(a) at order ne times a tail at order nt is exact to
    min(ne + 1, nt): E_ne + 1 is never read."""
    rng = random.Random(70 + dense)
    for ne in range(2, 7):
        for nt in range(2, 7):
            a, t = (TailSeries(_rand_coeffs(6, rng, dense), R)
                    for _ in range(2))
            full = (series_exp(a) * t).coeffs
            e, tt = series_exp(_prefix(a, ne)), _prefix(t, nt)
            for got in (e * tt, tt * e):
                assert got.coeffs == full[:min(ne + 1, nt)]
