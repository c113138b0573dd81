import cmath
import math
import random
from fractions import Fraction

import pytest

from superloewner.scalars import COMPLEX, Cyclo8, EXACT, rational, to_complex


def test_sqrt2_and_i():
    assert Cyclo8.sqrt2() * Cyclo8.sqrt2() == Cyclo8(2)
    assert Cyclo8.i() * Cyclo8.i() == Cyclo8(-1)
    assert (Cyclo8.i() * Cyclo8.sqrt2()) ** 2 == Cyclo8(-2)


def test_field_operations():
    a = rational("3/7") + Cyclo8.i() * rational("2/5") + Cyclo8.sqrt2()
    b = rational("-1/3") + Cyclo8.sqrt2() * Cyclo8.i()
    assert (a * b) / b == a
    assert a * a.inverse() == Cyclo8(1)
    assert a - a == Cyclo8(0)
    assert (a / 2) * 2 == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Cyclo8(0).inverse()


def test_as_i_sqrt2_roundtrip():
    a = rational("1/2") + rational(3) * Cyclo8.sqrt2() \
        + Cyclo8.i() * (rational(2) + rational("1/5") * Cyclo8.sqrt2())
    r, s2, im, ims2 = a.as_i_sqrt2()
    assert (r, s2, im, ims2) == (Fraction(1, 2), Fraction(3), Fraction(2),
                                 Fraction(1, 5))


def test_to_complex():
    z = to_complex(Cyclo8.sqrt2() + Cyclo8.i())
    assert abs(z - (2 ** 0.5 + 1j)) < 1e-14
    assert to_complex(0.5 + 0.25j) == 0.5 + 0.25j


def test_ring_handles():
    assert EXACT.from_rational("4/5") == rational("4/5")
    assert COMPLEX.from_rational("1/4") == 0.25
    assert EXACT.from_int(-3) == Cyclo8(-3)


def test_hash_agrees_with_equality():
    assert Cyclo8(2) == 2 and hash(Cyclo8(2)) == hash(2)
    assert len({Cyclo8(2), 2}) == 1
    assert hash(rational("3/4")) == hash(Fraction(3, 4))
    a = rational("3/7") + Cyclo8.i() * rational("2/5") + Cyclo8.sqrt2()
    b = rational("-1/3") + Cyclo8.sqrt2() * Cyclo8.i()
    assert (a * b) / b == a and hash((a * b) / b) == hash(a)


# Reference arithmetic on four Fraction coordinates c0 + c1 x + c2 x^2 + c3 x^3

def _ref_mul(a, b):
    out = [Fraction(0)] * 4
    for i in range(4):
        for j in range(4):
            if i + j < 4:
                out[i + j] += a[i] * b[j]
            else:
                out[i + j - 4] -= a[i] * b[j]
    return tuple(out)


def _ref_galois(a, m):
    out = [Fraction(0)] * 4
    for j, c in enumerate(a):
        e = (j * m) % 8
        if e < 4:
            out[e] += c
        else:
            out[e - 4] -= c
    return tuple(out)


def _ref_inverse(a):
    p = _ref_mul(_ref_mul(_ref_galois(a, 3), _ref_galois(a, 5)),
                 _ref_galois(a, 7))
    norm = _ref_mul(a, p)
    assert norm[1:] == (0, 0, 0)
    return tuple(c / norm[0] for c in p)


def _ref_complex(a):
    x = cmath.exp(1j * cmath.pi / 4)
    return (float(a[0]) + float(a[1]) * x + float(a[2]) * x ** 2
            + float(a[3]) * x ** 3)


def _ref_i_sqrt2(a):
    return (a[0], Fraction(a[1] - a[3], 2), a[2], Fraction(a[1] + a[3], 2))


def _coords(z):
    return tuple(Fraction(n, z.d) for n in z.n)


def test_arithmetic_matches_fraction_reference():
    rng = random.Random(808)

    def draw():
        return tuple(Fraction(0) if rng.random() < 0.3 else
                     Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                     for _ in range(4))

    for _ in range(500):
        ra, rb = draw(), draw()
        a, b = Cyclo8(*ra), Cyclo8(*rb)
        m = rng.choice((-5, -2, 3, 4))
        cases = [(a + b, tuple(x + y for x, y in zip(ra, rb))),
                 (a - b, tuple(x - y for x, y in zip(ra, rb))),
                 (a * b, _ref_mul(ra, rb)),
                 (a / m, tuple(x / m for x in ra)),
                 (a ** 3, _ref_mul(_ref_mul(ra, ra), ra))]
        if any(rb):
            inv = _ref_inverse(rb)
            cases += [(b.inverse(), inv), (a / b, _ref_mul(ra, inv)),
                      (b ** -2, _ref_mul(inv, inv))]
        for got, want in cases:
            assert _coords(got) == want
            assert got.d > 0 and math.gcd(got.d, *got.n) == 1
            assert got.to_complex() == _ref_complex(want)
            assert got.as_i_sqrt2() == _ref_i_sqrt2(want)
            assert got == Cyclo8(*want)
            if not any(want[1:]):
                assert hash(got) == hash(want[0])
