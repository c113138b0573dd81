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

Derived constants: dual Coxeter number 3/2, superdimension 1, Sugawara
central charge c_k = k/(k + 3/2), default internal variance
tau = 2/(k + 3/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .scalars import EXACT, Ring, is_zero

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
    """Linear combination of the five basis symbols over a scalar ring."""

    __slots__ = ("coeffs", "ring")

    def __init__(self, coeffs: dict, ring: Ring = EXACT):
        self.ring = ring
        self.coeffs = {s: c for s, c in coeffs.items() if not is_zero(c)}

    @staticmethod
    def basis(symbol: str, ring: Ring = EXACT) -> "AlgebraElement":
        return AlgebraElement({symbol: ring.one}, ring)

    @staticmethod
    def zero(ring: Ring = EXACT) -> "AlgebraElement":
        return AlgebraElement({}, ring)

    def __add__(self, other):
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, self.ring.zero) + c
        return AlgebraElement(out, self.ring)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, self.ring.zero) - c
        return AlgebraElement(out, self.ring)

    def __neg__(self):
        return AlgebraElement({s: -c for s, c in self.coeffs.items()}, self.ring)

    def scale(self, scalar) -> "AlgebraElement":
        return AlgebraElement({s: c * scalar for s, c in self.coeffs.items()},
                              self.ring)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        z = self.ring.zero
        return all(is_zero(self.coeffs.get(k, z) - other.coeffs.get(k, z))
                   for k in keys)

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
    ring = x.ring
    out: dict = {}
    for sx, cx in x.coeffs.items():
        for sy, cy in y.coeffs.items():
            for s, n in bracket_symbols(sx, sy).items():
                out[s] = out.get(s, ring.zero) + cx * cy * ring.from_int(n)
    return AlgebraElement(out, ring)


def form(x: AlgebraElement, y: AlgebraElement):
    """Invariant even supersymmetric bilinear form."""
    ring = x.ring
    acc = ring.zero
    for sx, cx in x.coeffs.items():
        for sy, cy in y.coeffs.items():
            n = form_symbols(sx, sy)
            if n:
                acc = acc + cx * cy * ring.from_int(n)
    return acc


def dual_basis(basis: Sequence[AlgebraElement]) -> list:
    """Elements {X^a} of span(basis) with form(X_a, X^b) = delta_ab."""
    ring = basis[0].ring
    n = len(basis)
    gram = [[form(basis[a], basis[b]) for b in range(n)] for a in range(n)]
    # solve gram @ M^T = I by Gaussian elimination over the scalar field
    aug = [row[:] + [ring.one if j == i else ring.zero for j in range(n)]
           for i, row in enumerate(gram)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not is_zero(aug[r][col])),
                   None)
        if piv is None:
            raise DegeneratePairingError("form is degenerate on the span")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = ring.one / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and not is_zero(aug[r][col]):
                fac = aug[r][col]
                aug[r] = [vr - fac * vc for vr, vc in zip(aug[r], aug[col])]
    # X^b = sum_a (G^{-1})_{ab} X_a solves form(X_a, X^b) = delta_ab;
    # the transpose matters on the antisymmetric odd block
    duals = []
    for b in range(n):
        acc = AlgebraElement.zero(ring)
        for a in range(n):
            acc = acc + basis[a].scale(aug[a][n + b])
        duals.append(acc)
    return duals


def standard_basis(ring: Ring = EXACT) -> list:
    return [AlgebraElement.basis(s, ring) for s in SYMBOLS]


def standard_dual_basis(ring: Ring = EXACT) -> list:
    """Duals of (E, H, F, e, f): (F, H/2, E, f/2, -e/2)."""
    E, H, F, e, f = standard_basis(ring)
    half = ring.one / ring.from_int(2)
    return [F, H.scale(half), E, f.scale(half), e.scale(-half)]


def orthonormal_even_basis(ring: Ring = EXACT) -> list:
    """J1 = H/sqrt2, J2 = (E+F)/sqrt2, J3 = i(E-F)/sqrt2."""
    E, H, F, _, _ = standard_basis(ring)
    inv_sqrt2 = ring.one / ring.sqrt2
    return [H.scale(inv_sqrt2), (E + F).scale(inv_sqrt2),
            (E - F).scale(ring.i * inv_sqrt2)]


def casimir_adjoint_eigenvalue(symbol: str, ring: Ring = EXACT):
    """Eigenvalue of sum_a (-1)^{p_a} ad(X_a) ad(X^a) on a basis symbol.

    Equals 2 h_vee = 3 on every symbol; used as the oracle pinning the
    dual Coxeter number from the tables alone.
    """
    basis = standard_basis(ring)
    duals = standard_dual_basis(ring)
    v = AlgebraElement.basis(symbol, ring)
    acc = AlgebraElement.zero(ring)
    for Xa, Xd in zip(basis, duals):
        term = bracket(Xa, bracket(Xd, v))
        if PARITY[next(iter(Xa.coeffs))]:
            term = -term
        acc = acc + term
    coeff = acc.coeffs.get(symbol, ring.zero)
    rest = acc - v.scale(coeff)
    if not rest.is_zero():
        raise ValueError("adjoint Casimir is not diagonal on this symbol")
    return coeff


@dataclass(frozen=True)
class StructureData:
    """Table bundle plus the level-dependent derived constants."""

    dual_coxeter: object
    superdim: int
    level: object
    central_charge: object
    tau_default: object
    brackets: dict
    form_table: dict


def structure_constants(k, ring: Ring = EXACT) -> StructureData:
    """Derived constants at level k; k may be exact or float-backed."""
    if not hasattr(k, "is_zero") and ring is EXACT:
        k = ring.from_rational(k)
    h_vee = ring.from_rational("3/2")
    denom = k + h_vee
    if is_zero(denom):
        raise CriticalLevelError("critical level k = -3/2")
    c_k = k / denom
    tau = ring.from_int(2) / denom
    return StructureData(
        dual_coxeter=h_vee, superdim=1, level=k,
        central_charge=c_k, tau_default=tau,
        brackets=dict(_BRACKET), form_table=dict(_FORM),
    )
