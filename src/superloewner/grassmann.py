"""The Grassmann algebra on two generators and the Berezin integral.

Elements live on the basis (1, eta1, eta2, eta1*eta2).  The generators
anticommute among themselves and square to zero; they commute with all
module operators (the convention pinned by the standard-form identity
(eta1 A + eta2 B)^2 = eta1 eta2 (AB - BA) for odd operators A, B).

Berezin integration is the double integral with d(eta1) innermost, so
int deta2 deta1 (eta1 eta2) = 1: it reads off the top component.
"""

from __future__ import annotations

from .scalars import Ring, is_zero

# basis index is a bitmask: bit0 = eta1 present, bit1 = eta2 present
_BASIS_NAMES = ("1", "eta1", "eta2", "eta1*eta2")

# (sign, index) table for basis products; None marks a vanishing product
_MUL = [[None] * 4 for _ in range(4)]
for _a in range(4):
    for _b in range(4):
        if _a & _b:
            continue  # repeated generator
        # count transpositions moving b's eta1 past a's eta2
        sign = -1 if (_b & 1) and (_a & 2) else 1
        _MUL[_a][_b] = (sign, _a | _b)


class GrassmannScalar:
    """a + b*eta1 + c*eta2 + d*eta1*eta2 over an arbitrary scalar ring."""

    __slots__ = ("comp",)

    def __init__(self, c1, ce1, ce2, ce12):
        self.comp = (c1, ce1, ce2, ce12)

    @staticmethod
    def body(value) -> "GrassmannScalar":
        z = value * 0
        return GrassmannScalar(value, z, z, z)

    def __add__(self, other):
        a, b = self.comp, other.comp
        return GrassmannScalar(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    def __sub__(self, other):
        a, b = self.comp, other.comp
        return GrassmannScalar(a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])

    def __neg__(self):
        a = self.comp
        return GrassmannScalar(-a[0], -a[1], -a[2], -a[3])

    def __mul__(self, other):
        if not isinstance(other, GrassmannScalar):
            a = self.comp
            return GrassmannScalar(a[0] * other, a[1] * other,
                                   a[2] * other, a[3] * other)
        a, b = self.comp, other.comp
        out = [a[0] * 0] * 4
        for ia in range(4):
            for ib in range(4):
                cell = _MUL[ia][ib]
                if cell is None:
                    continue
                sign, idx = cell
                term = a[ia] * b[ib]
                out[idx] = out[idx] + (term if sign > 0 else -term)
        return GrassmannScalar(*out)

    def __rmul__(self, other):
        # scalars commute with everything here
        a = self.comp
        return GrassmannScalar(other * a[0], other * a[1],
                               other * a[2], other * a[3])

    def __truediv__(self, other):
        if isinstance(other, GrassmannScalar):
            if not all(is_zero(c) for c in other.comp[1:]):
                raise TypeError("only a pure-body divisor is supported")
            other = other.comp[0]
        a = self.comp
        return GrassmannScalar(a[0] / other, a[1] / other,
                               a[2] / other, a[3] / other)

    def __eq__(self, other):
        if not isinstance(other, GrassmannScalar):
            return NotImplemented
        return all(_eq(x, y) for x, y in zip(self.comp, other.comp))

    def __hash__(self):
        return hash(self.comp)

    def is_zero(self) -> bool:
        return all(is_zero(c) for c in self.comp)

    def parity(self) -> int:
        """0 or 1 for homogeneous elements; raises otherwise."""
        even = not (is_zero(self.comp[0]) and is_zero(self.comp[3]))
        odd = not (is_zero(self.comp[1]) and is_zero(self.comp[2]))
        if even and odd:
            raise ValueError("inhomogeneous Grassmann element has no parity")
        return 1 if odd else 0

    def __repr__(self):
        parts = [f"({c})*{n}" for c, n in zip(self.comp, _BASIS_NAMES)
                 if not is_zero(c)]
        return " + ".join(parts) if parts else "0"


def _eq(x, y) -> bool:
    return is_zero(x - y)


def berezin(a: GrassmannScalar):
    """int deta2 deta1 a: the eta1*eta2 component."""
    return a.comp[3]


def GrassRing(base: Ring) -> Ring:
    """The ring of Grassmann coefficients over `base`: its lift is the
    body, and it carries the generators eta1, eta2 and eta1*eta2."""
    ring = Ring.over(base, GrassmannScalar.body, "grassmann")
    z, one = base.zero, base.one
    ring.eta1 = GrassmannScalar(z, one, z, z)
    ring.eta2 = GrassmannScalar(z, z, one, z)
    ring.eta12 = GrassmannScalar(z, z, z, one)
    return ring
