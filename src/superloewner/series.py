"""Truncated formal series in the loop variable.

Two coefficient spaces appear throughout:

* `TailSeries`: sum_{j=1..N} c_{-j} zeta^{-j}, the value space of the
  internal processes.  No zeta^0 or positive powers, ever.
* `AutSeries`: z + a_0 + a_{-1} z^{-1} + ... + a_{-N} z^{-N}, coordinate
  changes at infinity with unit leading coefficient.

All arithmetic is mod zeta^{-N-1} at a fixed shared truncation order N;
binary operations refuse mismatched orders rather than retruncate.
Coefficients only need ring operations (+, -, *, / by int), so the same
code runs over exact scalars, complex floats, numpy arrays (one series
per Monte Carlo path), Grassmann coefficients, and Ito jets.

The formal derivative of a tail series pushes c_{-N} to the dropped
order zeta^{-N-1}; `series_derive` truncates it, so only the
coefficients of zeta^{-n-1} with n <= N-1 of a derived series are
order-exact.

Skip rule: the kernels (`series_mul`, `series_exp`, `+`, `-`, `scale`)
leave out a coefficient only when it is zero without a pass over paths
(`_absent`).  A scalar -- every exact, Grassmann or jet element, and the
`ring.zero` placeholders that truncation and `tail_shift_down` leave in
a batch series -- is tested with `scalars.is_zero`; a numpy path batch
is never reduced and always counts as present.  Adding an absent
coefficient returns the other operand itself, not a copy, and
accumulators start from their first term, not from `ring.zero`.
"""

from __future__ import annotations

from numpy import ndarray

from .scalars import is_zero


class SeriesOrderError(ValueError):
    pass


def _check(a, b):
    if a.order != b.order:
        raise SeriesOrderError(f"order mismatch: {a.order} vs {b.order}")


def _absent(c) -> bool:
    """The skip rule: c is a zero found without a pass over paths."""
    return type(c) is not ndarray and is_zero(c)


def _add(x, y):
    if _absent(y):
        return x
    return y if _absent(x) else x + y


class TailSeries:
    """coeffs[j-1] is the zeta^{-j} coefficient, j = 1..N."""

    __slots__ = ("coeffs", "order", "ring")

    def __init__(self, coeffs, ring):
        self.coeffs = list(coeffs)
        self.order = len(self.coeffs)
        self.ring = ring

    @staticmethod
    def zero(order, ring):
        return TailSeries([ring.zero] * order, ring)

    @staticmethod
    def monomial(power, value, order, ring):
        """value * zeta^{power} with power in [-order, -1]."""
        if not (-order <= power <= -1):
            raise SeriesOrderError(f"power {power} outside tail range")
        c = [ring.zero] * order
        c[-power - 1] = value
        return TailSeries(c, ring)

    def __add__(self, other):
        _check(self, other)
        return TailSeries(map(_add, self.coeffs, other.coeffs), self.ring)

    def __sub__(self, other):
        _check(self, other)
        return TailSeries([x if _absent(y) else -y if _absent(x) else x - y
                           for x, y in zip(self.coeffs, other.coeffs)],
                          self.ring)

    def __neg__(self):
        return TailSeries([-x for x in self.coeffs], self.ring)

    def scale(self, s):
        return TailSeries([c if _absent(c) else c * s for c in self.coeffs],
                          self.ring)

    def add_scaled(self, other, s):
        """self + other * s in one pass over the coefficients."""
        _check(self, other)
        return TailSeries([x if _absent(y) else y * s if _absent(x)
                           else x + y * s
                           for x, y in zip(self.coeffs, other.coeffs)],
                          self.ring)

    def __mul__(self, other):
        if isinstance(other, TailSeries):
            return series_mul(self, other)
        if isinstance(other, ExpSeries):
            return other * self
        return self.scale(other)

    def is_zero(self):
        return all(is_zero(c) for c in self.coeffs)

    def coeff(self, power):
        """Coefficient of zeta^{power}; zero outside the stored window."""
        j = -power
        if 1 <= j <= self.order:
            return self.coeffs[j - 1]
        return self.ring.zero

    def __repr__(self):
        terms = [f"({c})*z^{-(j + 1)}" for j, c in enumerate(self.coeffs)
                 if not is_zero(c)]
        return " + ".join(terms) if terms else "0"


class ExpSeries:
    """1 + tail: the shape of exp(TailSeries).  Multiplicative group."""

    __slots__ = ("tail",)

    def __init__(self, tail: TailSeries):
        self.tail = tail

    @property
    def order(self):
        return self.tail.order

    @property
    def ring(self):
        return self.tail.ring

    def __mul__(self, other):
        if isinstance(other, ExpSeries):
            return ExpSeries(self.tail + other.tail
                             + series_mul(self.tail, other.tail))
        if isinstance(other, TailSeries):
            return other + series_mul(self.tail, other)
        raise TypeError(f"cannot multiply ExpSeries by {type(other)}")

    def coeff(self, power):
        if power == 0:
            return self.ring.one
        return self.tail.coeff(power)

    def __repr__(self):
        return f"1 + {self.tail!r}"


class AutSeries:
    """z + a0 + a_{-1} z^{-1} + ...; coeffs = [a0, a_{-1}, ..., a_{-N}]."""

    __slots__ = ("coeffs", "order", "ring")

    def __init__(self, coeffs, ring):
        self.coeffs = list(coeffs)
        self.order = len(self.coeffs) - 1
        self.ring = ring

    @staticmethod
    def identity(order, ring):
        return AutSeries([ring.zero] * (order + 1), ring)

    def coeff(self, power):
        """Coefficient of z^{power} for power in [-N, 0] (leading z is 1)."""
        if power == 1:
            return self.ring.one
        return self.coeffs[-power]

    def __add__(self, other):
        if isinstance(other, TailSeries):
            _check(self, other)
            return AutSeries([self.coeffs[0],
                              *map(_add, self.coeffs[1:], other.coeffs)],
                             self.ring)
        raise TypeError("AutSeries absorbs tail perturbations only")

    def shift(self, s):
        """rho + s: shift the constant term (Loewner driving increments)."""
        out = list(self.coeffs)
        out[0] = out[0] + s
        return AutSeries(out, self.ring)

    def below_leading(self) -> TailSeries:
        """(rho(z) - z) * z^{-1} as a tail series: a0 z^-1 + a_{-1} z^-2 + ...

        The a_{-N} coefficient would sit at z^{-N-1} and is dropped; this
        is the standard geometric-series gateway for 1/rho.
        """
        return TailSeries(self.coeffs[:-1], self.ring)

    def __repr__(self):
        terms = ["z"]
        for j, c in enumerate(self.coeffs):
            if not is_zero(c):
                terms.append(f"({c})*z^{-j}" if j else f"({c})")
        return " + ".join(terms)


def series_mul(a: TailSeries, b: TailSeries) -> TailSeries:
    """Cauchy product, powers below zeta^{-N} discarded."""
    _check(a, b)
    n = a.order
    out = [None] * n
    bs = [None if _absent(cb) else cb for cb in b.coeffs]
    for i, ca in enumerate(a.coeffs[:-1]):
        if _absent(ca):
            continue
        # zeta^{-(i+1)} * zeta^{-(j+1)} = zeta^{-(i+j+2)}
        for j, cb in enumerate(bs[:n - i - 1]):
            if cb is not None:
                acc = out[i + j + 1]
                out[i + j + 1] = ca * cb if acc is None else acc + ca * cb
    zero = a.ring.zero
    return TailSeries([zero if c is None else c for c in out], a.ring)


def tail_shift_down(a: TailSeries) -> TailSeries:
    """Multiply by zeta^{-1}, dropping the coefficient pushed past -N."""
    return TailSeries([a.ring.zero] + a.coeffs[:-1], a.ring)


def series_inv_aut(rho: AutSeries) -> TailSeries:
    """1/rho(zeta) = zeta^{-1} sum_m (-(rho - z) z^{-1})^m, truncated."""
    ring = rho.ring
    neg_t = -rho.below_leading()
    acc = power = neg_t              # sum_{m>=1} (-t)^m
    for _ in range(rho.order - 1):
        power = series_mul(power, neg_t)
        acc = acc + power
    shifted = tail_shift_down(acc)   # zeta^{-1} * (1 + acc)
    coeffs = list(shifted.coeffs)
    coeffs[0] = coeffs[0] + ring.one
    return TailSeries(coeffs, ring)


def series_exp(a: TailSeries) -> ExpSeries:
    """exp(a) = 1 + sum_{m=1..N} a^m / m!, exact at the truncation order."""
    acc = term = a
    for m in range(2, a.order + 1):
        term = series_mul(term, a)
        if all(map(_absent, term.coeffs)):
            break
        term = term.scale(a.ring.one / m)    # a^m / m!
        acc = acc + term
    return ExpSeries(acc)


def series_derive(a: TailSeries) -> TailSeries:
    """Term-wise d/dz: zeta^{-j} -> -j zeta^{-j-1}; top term dropped."""
    ring = a.ring
    out = [ring.zero] * a.order
    for j in range(1, a.order):  # source power -j lands at -(j+1)
        out[j] = a.coeffs[j - 1] * ring.from_int(-j)
    return TailSeries(out, ring)


def substitute(a: TailSeries, rho: AutSeries) -> TailSeries:
    """a(rho(zeta)): replace zeta^{-j} by (1/rho)^j, truncated."""
    _check(a, rho)
    u = series_inv_aut(rho)
    out = TailSeries.zero(a.order, a.ring)
    upow = None
    for j in range(1, a.order + 1):
        upow = u if upow is None else series_mul(upow, u)
        c = a.coeffs[j - 1]
        if not _absent(c):
            out = out + upow.scale(c)
    return out


def aut_compose(rho: AutSeries, mu: AutSeries) -> AutSeries:
    """Group law of Aut_+O: (rho * mu)(z) = mu(rho(z))."""
    _check(rho, mu)
    ring = rho.ring
    out = list(rho.coeffs)
    out[0] = out[0] + mu.coeffs[0]
    return AutSeries(out, ring) + substitute(TailSeries(mu.coeffs[1:], ring),
                                             rho)


def series_equal(a, b) -> bool:
    if type(a) is not type(b) or a.order != b.order:
        return False
    ca = a.coeffs if not isinstance(a, ExpSeries) else a.tail.coeffs
    cb = b.coeffs if not isinstance(b, ExpSeries) else b.tail.coeffs
    return all(is_zero(x - y) for x, y in zip(ca, cb))
