"""Truncated highest-weight modules of affine osp(1|2) at level k.

Vectors are linear combinations of canonical PBW monomials

    X_{a_1}(n_1) X_{a_2}(n_2) ... |floor>,   n_1 <= n_2 <= ... ,

stored as tuples of (symbol index, mode index) sorted by (n, symbol),
i.e. deepest creation modes leftmost, with an odd symbol appearing at
most once per (symbol, n) slot (equal odd modes reduce through the
anticommutator, e.g. e(-n)e(-n) = E(-2n)).  Two floors are supported:

* vacuum: every mode with n >= 0 annihilates |0>;
* verma(lambda): a Verma-level layer over a highest weight vector with
  H(0) eigenvalue lambda, where E(0), e(0) annihilate and the lowering
  zero modes F(0), f(0) accumulate as free symbols (with f(0)^2 = -F(0)).

Mode reordering uses the affine super bracket

    [X(m), Y(n)] = [X,Y](m+n) + m (X|Y) delta_{m+n,0} K,    K = k,

with the anticommutator convention on odd pairs.  The Sugawara image
of a monomial and the annihilating operator Xi both sum the Casimir
table `superalgebra.CASIMIR`.  Everything is generic over the
coefficient ring (exact, complex, Grassmann-valued, Ito jets).
"""

from __future__ import annotations

from .scalars import is_zero
from .superalgebra import (CASIMIR, CriticalLevelError, H_VEE, PARITY,
                           SYMBOLS, bracket_symbols, form_symbols)

_PAR = tuple(PARITY[s] for s in SYMBOLS)
_SYM = {s: i for i, s in enumerate(SYMBOLS)}
VIRASORO = "L"  # the operator (VIRASORO, n) is L_n


class DepthOverflowError(ValueError):
    pass


def mode(symbol: str, n: int) -> tuple:
    return (_SYM[symbol], n)


def mode_name(m: tuple) -> str:
    return f"{SYMBOLS[m[0]]}({m[1]})"


def monomial_name(mono: tuple) -> str:
    return "*".join(mode_name(m) for m in mono) if mono else "|floor>"


def _depth(mono: tuple) -> int:
    return sum(-n for _, n in mono if n < 0)


class Module:
    """Level-k module over a coefficient ring with a chosen floor.

    The images of a monomial under `_act` and `_sugawara` read only
    (k, floor, weight), not `nrep` or the ring, so their one table lives
    on `ring.root`, keyed by those, in root scalars: k and the weight are
    root scalars too, and ring coefficients multiply the table's.
    """

    def __init__(self, ring, k, nrep: int, floor="vacuum", weight=None):
        self.ring = ring
        self.k = k
        self.nrep = nrep
        self.floor = floor
        self.weight = weight  # H(0) eigenvalue for the verma floor
        if floor == "verma" and weight is None:
            raise ValueError("verma floor needs a weight")
        self._root = ring.root
        caches = vars(self._root).setdefault("_module_tables", {})
        self._cache: dict = caches.setdefault((k, floor, weight), {})

    # -- raw mode action on a single canonical monomial -----------------
    def _floor(self, sym: int, n: int) -> dict:
        one = self._root.one
        if n > 0:
            return {}
        if n < 0:
            return {((sym, n),): one}
        # zero modes on the floor
        if self.floor == "vacuum":
            return {}
        if sym in (0, 3):          # E(0), e(0) raise: annihilate
            return {}
        if sym == 1:               # H(0): eigenvalue
            return {(): self.weight}
        return {((sym, 0),): one}  # F(0), f(0) accumulate

    def _act(self, sym: int, n: int, mono: tuple) -> dict:
        key = (sym, n, mono)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        ring = self._root
        if not mono:
            res = self._floor(sym, n)
            self._cache[key] = res
            return res
        h = mono[0]
        rest = mono[1:]
        hs, hn = h
        res: dict = {}
        # only creation modes and (on the verma floor) the lowering zero
        # modes F(0), f(0) may sit inside a canonical monomial
        placeable = n < 0 or (n == 0 and self.floor == "verma"
                              and sym in (2, 4))
        if placeable and ((n, sym) < (hn, hs)
                          or ((sym, n) == h and _PAR[sym] == 0)):
            res = {((sym, n),) + mono: ring.one}
        elif (sym, n) == h and _PAR[sym] == 1:
            # X(n)X(n) = (1/2)[X,X](2n) for odd X ((X|X) = 0)
            for s2, c in bracket_symbols(SYMBOLS[sym], SYMBOLS[sym]).items():
                half = ring.from_int(c) / 2
                for m2, c2 in self._act(_SYM[s2], 2 * n, rest).items():
                    _acc(res, m2, half * c2)
        else:
            # X(n) h = (-1)^{p p'} h X(n) + [X, h](n + hn) + central
            sign = -1 if _PAR[sym] and _PAR[hs] else 1
            sub = self._act(sym, n, rest)
            for m1, c1 in sub.items():
                for m2, c2 in self._act(hs, hn, m1).items():
                    v = c1 * c2
                    _acc(res, m2, v if sign > 0 else -v)
            for s2, c in bracket_symbols(SYMBOLS[sym], SYMBOLS[hs]).items():
                cc = ring.from_int(c)
                for m2, c2 in self._act(_SYM[s2], n + hn, rest).items():
                    _acc(res, m2, cc * c2)
            if n + hn == 0:
                pair = form_symbols(SYMBOLS[sym], SYMBOLS[hs])
                if pair:
                    central = ring.from_int(n * pair) * self.k
                    _acc(res, rest, central)
        res = {m: c for m, c in res.items() if not is_zero(c)}
        self._cache[key] = res
        return res

    # -- derived constants ----------------------------------------------
    def sugawara_prefactor(self):
        """1/(2(k + h_vee)); the critical level k = -h_vee raises."""
        ring = self._root
        denom = self.k * ring.from_int(2) + ring.from_rational(2 * H_VEE)
        if is_zero(denom):
            raise CriticalLevelError(f"Sugawara undefined at k = {-H_VEE}")
        return ring.one / denom

    def _sugawara(self, n: int, mono: tuple) -> dict:
        """L_n on one monomial, summed once from the normal-ordered
        CASIMIR table; every term has depth _depth(mono) - n."""
        key = (VIRASORO, n, mono)
        if key not in self._cache:
            root, d = self._root, _depth(mono)
            # :X(n-j) Y(j): acts with its higher mode first, which kills
            # unless it is at most d; no intermediate is deeper than `deep`
            deep = Module(root, self.k, d - min(n, 0), self.floor, self.weight)
            v = Vector(deep, {mono: root.one})
            weights = [root.from_int(num) / den for num, den, _, _ in CASIMIR]
            acc: dict = {}
            for j in range(n - d, d + 1):
                for w, (_, _, sa, sb) in zip(weights, CASIMIR):
                    term = _normal_order_product(mode(sa, n - j),
                                                 mode(sb, j), v)
                    for m2, c in term.terms.items():
                        _acc(acc, m2, c * w)
            p = self.sugawara_prefactor()
            self._cache[key] = {m: c * p for m, c in acc.items()
                                if not is_zero(c)}
        return self._cache[key]


def _acc(d: dict, key, val):
    cur = d.get(key)
    d[key] = val if cur is None else cur + val


class Vector:
    """Sparse vector in a Module: dict from canonical monomial to coeff."""

    __slots__ = ("module", "terms")

    def __init__(self, module: Module, terms: dict):
        self.module = module
        self.terms = {m: c for m, c in terms.items() if not is_zero(c)}

    @staticmethod
    def floor_vector(module: Module) -> "Vector":
        return Vector(module, {(): module.ring.one})

    def __add__(self, other: "Vector") -> "Vector":
        out = dict(self.terms)
        for m, c in other.terms.items():
            _acc(out, m, c)
        return Vector(self.module, out)

    def __sub__(self, other: "Vector") -> "Vector":
        out = dict(self.terms)
        for m, c in other.terms.items():
            _acc(out, m, -c)
        return Vector(self.module, out)

    def __neg__(self) -> "Vector":
        return Vector(self.module, {m: -c for m, c in self.terms.items()})

    def scale(self, s) -> "Vector":
        return Vector(self.module, {m: c * s for m, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mono: tuple):
        return self.terms.get(mono, self.module.ring.zero)

    def floor_coeff(self):
        return self.terms.get((), self.module.ring.zero)

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{monomial_name(m)}"
                          for m, c in sorted(self.terms.items()))


def act_sum(v: Vector, pieces, project: bool = False) -> Vector:
    """Sum of c * op(v) over the pieces (op, c), in one accumulator.

    op is a mode (symbol index, n) or (VIRASORO, n) for L_n, read per
    monomial from the module's table; c is a ring coefficient, or None
    for 1, and a zero c is skipped.  An image of a depth-d monomial has
    depth d - n: past the module bound a nonzero one raises
    DepthOverflowError, or is dropped when project=True (the truncation
    of the state-assembly exponentials).
    """
    module = v.module
    live = [(op, c) for op, c in pieces if c is None or not is_zero(c)]
    out: dict = {}
    for mono, c in v.terms.items():
        d = _depth(mono)
        for (sym, n), s in live:
            deep = d - n > module.nrep
            if deep and project:
                continue
            image = (module._sugawara(n, mono) if sym == VIRASORO
                     else module._act(sym, n, mono))
            if deep and image:
                name = f"L_{n}" if sym == VIRASORO else mode_name((sym, n))
                raise DepthOverflowError(f"{name} on depth-{d} monomial "
                                         f"exceeds N_rep={module.nrep}")
            cs = c if s is None else c * s
            for m2, c2 in image.items():
                _acc(out, m2, cs * c2)
    return Vector(module, out)


def act_mode(m: tuple, v: Vector, project: bool = False) -> Vector:
    """Apply the mode X(n) to v, canonicalizing the result: `act_sum`
    with the one piece (m, 1), the engine that applies all of an
    assembly step's pieces in one accumulator."""
    return act_sum(v, [(m, None)], project)


def act_word(word, v: Vector, project: bool = False) -> Vector:
    """Apply a product of modes, rightmost factor first."""
    for m in reversed(list(word)):
        v = act_mode(m, v, project=project)
        if v.is_zero():
            break
    return v


def _normal_order_product(m1: tuple, m2: tuple, v: Vector,
                          project: bool = False) -> Vector:
    """Apply :X(p)Y(q): to v (reorder per the p <= q rule, then act)."""
    (s1, p), (s2, q) = m1, m2
    if p <= q:
        return act_word((m1, m2), v, project=project)
    w = act_word((m2, m1), v, project=project)
    if _PAR[s1] and _PAR[s2]:
        return -w
    return w


def sugawara(n: int, v: Vector, project: bool = False) -> Vector:
    """Virasoro mode L_n from the osp(1|2) Sugawara construction:
    `act_sum`, which applies all of an assembly step's pieces in one
    accumulator, with the one piece ((VIRASORO, n), 1); a zero image
    past the depth bound (L_{-1}|0>) raises nothing."""
    return act_sum(v, [((VIRASORO, n), None)], project)


def annihilator_apply(kappa, tau, v: Vector, odd=None) -> Vector:
    """Apply the annihilating operator Xi(kappa, tau) to v.

    Xi = -2 L_{-2} + (kappa/2) L_{-1}^2
         + (tau/2) sum_a (-1)^{p_a} X_a(-1) X^a(-1),

    the sum read off CASIMIR, with its odd terms multiplied by `odd`.
    The default odd = eta1 eta2 is the Grassmann-valued operator whose
    Berezin projection kills (1 + eta1 eta2)|0> at tau = 2/(k + h_vee);
    the null-vector candidate of `nullscan` is Xi at odd = 1 on a
    Verma floor.  kappa, tau and odd are coefficients in the module's
    ring.
    """
    module = v.module
    ring = module.ring
    if odd is None:
        odd = getattr(ring, "eta12", None)
        if odd is None:
            raise TypeError(
                "annihilator_apply needs a Grassmann coefficient ring")
    out = sugawara(-2, v).scale(-ring.from_int(2))
    out = out + sugawara(-1, sugawara(-1, v)).scale(kappa / 2)
    casimir = Vector(module, {})
    for num, den, xa, xd in CASIMIR:
        term = act_word((mode(xa, -1), mode(xd, -1)), v).scale(
            ring.from_int(num) / den)
        casimir = casimir + (term.scale(odd) if PARITY[xa] else term)
    return out + casimir.scale(tau / 2)


def expectation(word, v: Vector):
    """<0| m_1 ... m_r |v>: act the word (rightmost first), read the floor."""
    return act_word(word, v).floor_coeff()
