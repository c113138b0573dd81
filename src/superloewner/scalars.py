"""Exact scalar arithmetic for the verification backend.

Every exact identity in this package (annihilator, Virasoro brackets,
null-vector residuals, oracle equivalences) is stated over the field
Q(i, sqrt2).  We realize it as the 8th cyclotomic field Q(x)/(x^4 + 1),
where x = exp(i pi/4), so i = x^2 and sqrt2 = x - x^3.  An element is
four integer numerators over one shared positive denominator, kept in
lowest terms; products reduce modulo x^4 = -1 on the integers and
inverses go through the Galois conjugates x -> x^m, m in {3, 5, 7}.

Simulation code uses plain Python/numpy complex instead; the series and
module engines are generic over either backend (they only need ring
operations), so a `Ring` handle carries the few constants they ask for.
The Grassmann and Ito-jet rings are `Ring.over` a base ring: their
constants are the lifts of the base's.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm
from typing import Union

RationalLike = Union[int, Fraction, str]


def _as_fraction(v: RationalLike) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, str)):
        return Fraction(v)
    raise TypeError(f"not an exact rational: {v!r}")


def _raw(n: tuple, d: int) -> "Cyclo8":
    """Element n / d, with (n, d) already canonical."""
    out = object.__new__(Cyclo8)
    out.n = n
    out.d = d
    return out


def _reduced(n0: int, n1: int, n2: int, n3: int, d: int) -> "Cyclo8":
    """Canonical element (n0 + n1 x + n2 x^2 + n3 x^3) / d for d > 0."""
    g = gcd(d, n0, n1, n2, n3)
    if g == 1:
        return _raw((n0, n1, n2, n3), d)
    return _raw((n0 // g, n1 // g, n2 // g, n3 // g), d // g)


class Cyclo8:
    """Element (n0 + n1 x + n2 x^2 + n3 x^3) / d of Q[x]/(x^4+1).

    x = exp(i pi/4).  The form is canonical: d > 0 and
    gcd(n0, n1, n2, n3, d) == 1, so equality is a tuple compare.
    """

    __slots__ = ("n", "d")

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        fs = [_as_fraction(c) for c in (c0, c1, c2, c3)]
        self.d = lcm(*(f.denominator for f in fs))
        self.n = tuple(f.numerator * (self.d // f.denominator) for f in fs)

    # -- constructors -------------------------------------------------
    @staticmethod
    def i() -> "Cyclo8":
        return Cyclo8(0, 0, 1, 0)

    @staticmethod
    def sqrt2() -> "Cyclo8":
        return Cyclo8(0, 1, 0, -1)

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        da, db = self.d, other.d
        if da == db:
            return _reduced(a0 + b0, a1 + b1, a2 + b2, a3 + b3, da)
        return _reduced(a0 * db + b0 * da, a1 * db + b1 * da,
                        a2 * db + b2 * da, a3 * db + b3 * da, da * db)

    __radd__ = __add__

    def __neg__(self):
        a0, a1, a2, a3 = self.n
        return _raw((-a0, -a1, -a2, -a3), self.d)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        # 16 products, reduced by x^4 = -1
        return _reduced(a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
                        a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
                        a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
                        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
                        self.d * other.d)

    __rmul__ = __mul__

    def _galois(self, m: int) -> "Cyclo8":
        # x^j -> x^(j*m) reduced by x^4 = -1: a signed permutation of n
        out = [0] * 4
        for j, nj in enumerate(self.n):
            e = (j * m) % 8
            out[e % 4] = nj if e < 4 else -nj
        return _raw(tuple(out), self.d)

    def inverse(self) -> "Cyclo8":
        if self.is_zero():
            raise ZeroDivisionError("Cyclo8 division by zero")
        p = self._galois(3) * self._galois(5) * self._galois(7)
        norm = self * p
        # the field norm is rational
        assert norm.n[1] == norm.n[2] == norm.n[3] == 0
        return p * norm.d / norm.n[0]

    def __truediv__(self, other):
        if isinstance(other, int) and other:
            return _reduced(*(self.n if other > 0 else (-self).n),
                            self.d * abs(other))
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = Cyclo8(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.n)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.n == other.n and self.d == other.d

    def __hash__(self):
        if any(self.n[1:]):
            return hash((self.n, self.d))
        return hash(Fraction(self.n[0], self.d))  # as the rational it equals

    def __bool__(self):
        return not self.is_zero()

    # -- conversions ----------------------------------------------------
    def as_i_sqrt2(self):
        """Return (a, b, c, d) with value = a + b*sqrt2 + i*(c + d*sqrt2)."""
        (n0, n1, n2, n3), d = self.n, self.d
        # x = (sqrt2 + i sqrt2)/2, x^3 = (-sqrt2 + i sqrt2)/2
        return (Fraction(n0, d), Fraction(n1 - n3, 2 * d),
                Fraction(n2, d), Fraction(n1 + n3, 2 * d))

    def to_complex(self) -> complex:
        x = cmath.exp(1j * cmath.pi / 4)
        (n0, n1, n2, n3), d = self.n, self.d
        # int true division is correctly rounded, as float(Fraction) is
        return n0 / d + n1 / d * x + n2 / d * x ** 2 + n3 / d * x ** 3

    def __repr__(self):
        a, b, c, d = self.as_i_sqrt2()
        parts = []
        if a:
            parts.append(str(a))
        if b:
            parts.append(f"{b}*sqrt2")
        if c:
            parts.append(f"{c}*i")
        if d:
            parts.append(f"{d}*i*sqrt2")
        return " + ".join(parts) if parts else "0"


def _coerce(v):
    if isinstance(v, Cyclo8):
        return v
    if isinstance(v, (int, Fraction)):
        return _raw((v.numerator, 0, 0, 0), v.denominator)
    return NotImplemented


def rational(v: RationalLike) -> Cyclo8:
    return Cyclo8(v)


def to_complex(v) -> complex:
    return v.to_complex() if isinstance(v, Cyclo8) else complex(v)


class Ring:
    """Constants a generic-series/module computation needs from its scalars,
    and `lift`, which maps an exact value (a `base` element, for a ring
    built by `Ring.over`) into the ring."""

    def __init__(self, zero, one, i, sqrt2, from_int, name, lift, base=None):
        self.zero = zero
        self.one = one
        self.i = i
        self.sqrt2 = sqrt2
        self.from_int = from_int
        self.name = name
        self.lift = lift
        self.base = base

    @classmethod
    def over(cls, base: "Ring", lift, name: str) -> "Ring":
        """The ring whose constants are the lifts of `base`'s."""
        return cls(zero=lift(base.zero), one=lift(base.one), i=lift(base.i),
                   sqrt2=lift(base.sqrt2),
                   from_int=lambda n: lift(base.from_int(n)),
                   name=f"{name}:{base.name}", lift=lift, base=base)

    @property
    def root(self) -> "Ring":
        """The ring at the bottom of the chain of `Ring.over` bases."""
        return self if self.base is None else self.base.root

    def from_rational(self, v: RationalLike):
        if self.base is not None:
            return self.lift(self.base.from_rational(v))
        f = _as_fraction(v)
        return (self.from_int(f.numerator) * self.one) / f.denominator

    def coerce(self, v):
        """An int, str or Fraction read as an exact rational; else v."""
        if isinstance(v, (int, str, Fraction)):
            return self.from_rational(v)
        return v

    def __repr__(self):
        return f"Ring({self.name})"


EXACT = Ring(
    zero=Cyclo8(0), one=Cyclo8(1), i=Cyclo8.i(), sqrt2=Cyclo8.sqrt2(),
    from_int=lambda n: Cyclo8(n), name="exact", lift=lambda v: v,
)

COMPLEX = Ring(
    zero=0j, one=1 + 0j, i=1j, sqrt2=2 ** 0.5 + 0j,
    from_int=lambda n: complex(n), name="complex",
    lift=to_complex,
)


def is_zero(c) -> bool:
    """Zero test for any coefficient the generic engines carry."""
    if hasattr(c, "is_zero"):
        return c.is_zero()
    if hasattr(c, "any"):  # numpy array coefficients
        return not c.any()
    return c == 0
