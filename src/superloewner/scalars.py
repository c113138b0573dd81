"""Exact scalar arithmetic for the verification backend.

Every exact identity in this package (annihilator, Virasoro brackets,
null-vector residuals, oracle equivalences) is stated over the field
Q(i, sqrt2).  We realize it as the 8th cyclotomic field Q(x)/(x^4 + 1),
where x = exp(i pi/4), so i = x^2 and sqrt2 = x - x^3.  Elements are
four `fractions.Fraction` coordinates; products reduce modulo x^4 = -1
and inverses go through the Galois conjugates x -> x^m, m in {3, 5, 7}.

Simulation code uses plain Python/numpy complex instead; the series and
module engines are generic over either backend (they only need ring
operations), so a `Ring` handle carries the few constants they ask for.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Union

_ZERO4 = (Fraction(0), Fraction(0), Fraction(0), Fraction(0))

RationalLike = Union[int, Fraction, str]


def _as_fraction(v: RationalLike) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"not an exact rational: {v!r}")


class Cyclo8:
    """Element of Q[x]/(x^4+1) with x = exp(i pi/4)."""

    __slots__ = ("c",)

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        self.c = (_as_fraction(c0), _as_fraction(c1),
                  _as_fraction(c2), _as_fraction(c3))

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rational(v: RationalLike) -> "Cyclo8":
        return Cyclo8(_as_fraction(v))

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
        a, b = self.c, other.c
        return Cyclo8(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    __radd__ = __add__

    def __neg__(self):
        a = self.c
        return Cyclo8(-a[0], -a[1], -a[2], -a[3])

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        out = [Fraction(0)] * 4
        for ia in range(4):
            if not a[ia]:
                continue
            for ib in range(4):
                if not b[ib]:
                    continue
                k = ia + ib
                if k < 4:
                    out[k] += a[ia] * b[ib]
                else:
                    out[k - 4] -= a[ia] * b[ib]
        return Cyclo8(*out)

    __rmul__ = __mul__

    def _galois(self, m: int) -> "Cyclo8":
        # x^j -> x^(j*m) reduced by x^4 = -1
        out = [Fraction(0)] * 4
        for j, cj in enumerate(self.c):
            if not cj:
                continue
            e = (j * m) % 8
            if e < 4:
                out[e] += cj
            else:
                out[e - 4] -= cj
        return Cyclo8(*out)

    def inverse(self) -> "Cyclo8":
        if self.is_zero():
            raise ZeroDivisionError("Cyclo8 division by zero")
        p = self._galois(3) * self._galois(5) * self._galois(7)
        n = self * p
        # the field norm is rational
        assert n.c[1] == 0 and n.c[2] == 0 and n.c[3] == 0
        return p * Cyclo8(Fraction(1, 1) / n.c[0])

    def __truediv__(self, other):
        if isinstance(other, int):
            inv = Fraction(1, other)
            return self * Cyclo8(inv)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

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
        return self.c == _ZERO4

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __bool__(self):
        return not self.is_zero()

    # -- conversions ----------------------------------------------------
    def as_i_sqrt2(self):
        """Return (a, b, c, d) with value = a + b*sqrt2 + i*(c + d*sqrt2)."""
        c0, c1, c2, c3 = self.c
        # x = (sqrt2 + i sqrt2)/2, x^3 = (-sqrt2 + i sqrt2)/2
        return (c0, Fraction(c1 - c3, 2), c2, Fraction(c1 + c3, 2))

    def to_complex(self) -> complex:
        x = cmath.exp(1j * cmath.pi / 4)
        return (float(self.c[0]) + float(self.c[1]) * x
                + float(self.c[2]) * x ** 2 + float(self.c[3]) * x ** 3)

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
        return Cyclo8(v)
    return NotImplemented


def rational(v: RationalLike) -> Cyclo8:
    return Cyclo8.from_rational(v)


class Ring:
    """Constants a generic-series/module computation needs from its scalars."""

    def __init__(self, zero, one, i, sqrt2, from_int, name):
        self.zero = zero
        self.one = one
        self.i = i
        self.sqrt2 = sqrt2
        self.from_int = from_int
        self.name = name

    def from_rational(self, v: RationalLike):
        f = _as_fraction(v)
        return (self.from_int(f.numerator) * self.one) / f.denominator

    def __repr__(self):
        return f"Ring({self.name})"


EXACT = Ring(
    zero=Cyclo8(0), one=Cyclo8(1), i=Cyclo8.i(), sqrt2=Cyclo8.sqrt2(),
    from_int=lambda n: Cyclo8(n), name="exact",
)

COMPLEX = Ring(
    zero=0j, one=1 + 0j, i=1j, sqrt2=2 ** 0.5 + 0j,
    from_int=lambda n: complex(n), name="complex",
)


def to_complex(v) -> complex:
    return v.to_complex() if isinstance(v, Cyclo8) else complex(v)


def is_zero(c) -> bool:
    """Zero test for any coefficient the generic engines carry."""
    if hasattr(c, "is_zero"):
        return c.is_zero()
    if hasattr(c, "any"):  # numpy array coefficients
        return not c.any()
    return c == 0
