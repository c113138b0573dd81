"""Exact structure data of the Lie superalgebra osp(1|2).

Basis symbols E, H, F span the even part (standard sl2), e, f the odd
part.  The super bracket is fixed by

    [H,E] = 2E   [H,F] = -2F   [E,F] = H
    [H,e] = e    [H,f] = -f    [E,f] = -e    [F,e] = -f
    [e,e] = 2E   [f,f] = -2F   [e,f] = H     [E,e] = [F,f] = 0

(odd-odd brackets are the anticommutator, so [e,e] = 2 e^2 = 2E), and
the invariant even supersymmetric form by (E|F) = 1, (H|H) = 2,
(e|f) = 2, which makes the even restriction the sl2 form with the root
norm (alpha|alpha) = 2 normalization.  These two tables pass all 35
super-Jacobi triples and all invariance identities exactly; the test
suite checks every one.

Two further facts are stated here once, and every other module reads
them: the dual Coxeter number `H_VEE` = 3/2, and the quadratic Casimir
sum_a (-1)^{p_a} X_a X^a as the table `CASIMIR`.  The Sugawara modes,
the annihilating operator Xi, the null-vector conditions and
`standard_dual_basis` all sum over that table; the test suite pins it
against the dual basis the form gives and pins H_VEE through the
adjoint Casimir eigenvalue 2 h_vee.  Derived at level k: Sugawara
central charge c_k = k/(k + h_vee), default internal variance
tau = 2/(k + h_vee).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .scalars import EXACT, is_zero

SYMBOLS = ("E", "H", "F", "e", "f")
PARITY = {"E": 0, "H": 0, "F": 0, "e": 1, "f": 1}
_IDX = {s: i for i, s in enumerate(SYMBOLS)}

# unordered bracket table, keys with index(x) <= index(y);
# values are integer combinations {symbol: coeff}
_BRACKET = {
    ("E", "E"): {}, ("E", "H"): {"E": -2}, ("E", "F"): {"H": 1},
    ("E", "e"): {}, ("E", "f"): {"e": -1},
    ("H", "H"): {}, ("H", "F"): {"F": -2}, ("H", "e"): {"e": 1},
    ("H", "f"): {"f": -1},
    ("F", "F"): {}, ("F", "e"): {"f": -1}, ("F", "f"): {},
    ("e", "e"): {"E": 2}, ("e", "f"): {"H": 1},
    ("f", "f"): {"F": -2},
}

# nonzero pairings (x|y) for index(x) <= index(y), integer valued
_FORM = {("E", "F"): 1, ("H", "H"): 2, ("e", "f"): 2}

# dual Coxeter number in the (alpha|alpha) = 2 normalization of _FORM
H_VEE = Fraction(3, 2)

# the Casimir sum_a (-1)^{p_a} X_a X^a with X^a dual to X_a under the
# form, as (numerator, denominator, X_a, symbol of X^a): the sign and
# the scale of X^a sit in numerator / denominator.  The order is the
# Sugawara summation order.
CASIMIR = ((1, 2, "H", "H"), (1, 1, "E", "F"), (1, 1, "F", "E"),
           (1, 2, "f", "e"), (-1, 2, "e", "f"))


def bracket_symbols(x: str, y: str) -> dict:
    """Integer coefficients of [x, y] for basis symbols x, y."""
    if _IDX[x] <= _IDX[y]:
        return _BRACKET[(x, y)]
    base = _BRACKET[(y, x)]
    sign = -1 if PARITY[x] * PARITY[y] == 0 else 1  # -(-1)^{p(x)p(y)}
    # odd-odd brackets are symmetric, all others antisymmetric
    if PARITY[x] and PARITY[y]:
        return base
    return {s: -c for s, c in base.items()}


def form_symbols(x: str, y: str) -> int:
    """Integer value of (x|y) for basis symbols."""
    if _IDX[x] <= _IDX[y]:
        return _FORM.get((x, y), 0)
    v = _FORM.get((y, x), 0)
    if PARITY[x] and PARITY[y]:
        return -v
    return v


class DegeneratePairingError(ValueError):
    pass


class CriticalLevelError(ValueError):
    pass


class AlgebraElement:
    """Linear combination of the five basis symbols over the exact ring."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        self.coeffs = {s: c for s, c in coeffs.items() if not is_zero(c)}

    @staticmethod
    def basis(symbol: str) -> "AlgebraElement":
        return AlgebraElement({symbol: EXACT.one})

    @staticmethod
    def zero() -> "AlgebraElement":
        return AlgebraElement({})

    def __add__(self, other):
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, EXACT.zero) + c
        return AlgebraElement(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgebraElement({s: -c for s, c in self.coeffs.items()})

    def scale(self, scalar) -> "AlgebraElement":
        return AlgebraElement({s: c * scalar for s, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash(frozenset(self.coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def parity(self) -> int:
        ps = {PARITY[s] for s in self.coeffs}
        if len(ps) > 1:
            raise ValueError("inhomogeneous element has no parity")
        return ps.pop() if ps else 0

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})*{s}" for s, c in
                          sorted(self.coeffs.items(), key=lambda t: _IDX[t[0]]))


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Super bracket, extended bilinearly from the table."""
    out: dict = {}
    for sx, cx in x.coeffs.items():
        for sy, cy in y.coeffs.items():
            for s, n in bracket_symbols(sx, sy).items():
                out[s] = out.get(s, EXACT.zero) + cx * cy * EXACT.from_int(n)
    return AlgebraElement(out)


def form(x: AlgebraElement, y: AlgebraElement):
    """Invariant even supersymmetric bilinear form."""
    acc = EXACT.zero
    for sx, cx in x.coeffs.items():
        for sy, cy in y.coeffs.items():
            n = form_symbols(sx, sy)
            if n:
                acc = acc + cx * cy * EXACT.from_int(n)
    return acc


def dual_basis(basis: Sequence[AlgebraElement]) -> list:
    """Elements {X^a} of span(basis) with form(X_a, X^b) = delta_ab."""
    one, zero = EXACT.one, EXACT.zero
    n = len(basis)
    gram = [[form(basis[a], basis[b]) for b in range(n)] for a in range(n)]
    # solve gram @ M^T = I by Gaussian elimination over the scalar field
    aug = [row[:] + [one if j == i else zero for j in range(n)]
           for i, row in enumerate(gram)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not is_zero(aug[r][col])),
                   None)
        if piv is None:
            raise DegeneratePairingError("form is degenerate on the span")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = one / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and not is_zero(aug[r][col]):
                fac = aug[r][col]
                aug[r] = [vr - fac * vc for vr, vc in zip(aug[r], aug[col])]
    # X^b = sum_a (G^{-1})_{ab} X_a solves form(X_a, X^b) = delta_ab;
    # the transpose matters on the antisymmetric odd block
    duals = []
    for b in range(n):
        acc = AlgebraElement.zero()
        for a in range(n):
            acc = acc + basis[a].scale(aug[a][n + b])
        duals.append(acc)
    return duals


def standard_basis() -> list:
    return [AlgebraElement.basis(s) for s in SYMBOLS]


def standard_dual_basis() -> list:
    """Duals of (E, H, F, e, f) read off CASIMIR: (F, H/2, E, f/2, -e/2)."""
    dual = {xa: AlgebraElement.basis(xd).scale(EXACT.from_rational(
                Fraction((-1) ** PARITY[xa] * num, den)))
            for num, den, xa, xd in CASIMIR}
    return [dual[s] for s in SYMBOLS]


def orthonormal_even_basis() -> list:
    """J1 = H/sqrt2, J2 = (E+F)/sqrt2, J3 = i(E-F)/sqrt2."""
    E, H, F, _, _ = standard_basis()
    inv_sqrt2 = EXACT.one / EXACT.sqrt2
    return [H.scale(inv_sqrt2), (E + F).scale(inv_sqrt2),
            (E - F).scale(EXACT.i * inv_sqrt2)]


def casimir_adjoint_eigenvalue(symbol: str):
    """Eigenvalue of the CASIMIR table in the adjoint action on a symbol.

    Equals 2 h_vee = 3 on every symbol; used as the oracle pinning the
    dual Coxeter number from the tables alone.
    """
    v = AlgebraElement.basis(symbol)
    acc = AlgebraElement.zero()
    for num, den, xa, xd in CASIMIR:
        acc = acc + bracket(AlgebraElement.basis(xa), bracket(
            AlgebraElement.basis(xd), v)).scale(
                EXACT.from_rational(Fraction(num, den)))
    coeff = acc.coeffs.get(symbol, EXACT.zero)
    rest = acc - v.scale(coeff)
    if not rest.is_zero():
        raise ValueError("adjoint Casimir is not diagonal on this symbol")
    return coeff


@dataclass(frozen=True)
class StructureData:
    """The level-dependent derived constants."""

    central_charge: object
    tau_default: object


def structure_constants(k) -> StructureData:
    """Derived constants at an exact level k (a rational or a Cyclo8)."""
    k = EXACT.coerce(k)
    denom = k + EXACT.from_rational(H_VEE)
    if is_zero(denom):
        raise CriticalLevelError(f"critical level k = {-H_VEE}")
    return StructureData(central_charge=k / denom,
                         tau_default=EXACT.from_int(2) / denom)
