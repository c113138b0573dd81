"""Truncated formal series in the loop variable.

Two coefficient spaces appear throughout:

* `TailSeries`: sum_{j=1..N} c_{-j} zeta^{-j}, the value space of the
  internal processes.  No zeta^0 or positive powers, ever.
* `AutSeries`: z + a_0 + a_{-1} z^{-1} + ... + a_{-N} z^{-N}, coordinate
  changes at infinity with unit leading coefficient.

Truncation orders may differ between operands, under two exact rules:

* `+`, `-`, `add_scaled` and `series_mul` of tails of orders na and nb
  return the common exact prefix, of order min(na, nb);
* `ExpSeries * TailSeries` is exact to order min(n_E + 1, n_T): the
  leading 1 of the exponential carries each tail coefficient, and the
  zeta^{-k} coefficient of the product reads E_1 .. E_{k-1} only.

Composition (`aut_compose`, `substitute`) and `AutSeries + TailSeries`
still refuse mismatched orders.

Coefficients only need ring operations (+, -, *, / by int), so the same
code runs over exact scalars, complex floats, numpy arrays (one series
per Monte Carlo path), Grassmann coefficients, and Ito jets.

The formal derivative of a tail series pushes c_{-N} to the dropped
order zeta^{-N-1}; `series_derive` truncates it, so only the
coefficients of zeta^{-n-1} with n <= N-1 of a derived series are
order-exact.

Skip rule: the kernels (`series_mul`, `series_exp`, `series_inv_aut`,
`+`, `-`, `scale`, `add_scaled`) leave out a coefficient only when it is
zero without a pass over paths (`_absent`).  A scalar -- every exact,
Grassmann or jet element, and the `ring.zero` placeholders that
truncation and empty product slots leave in a batch series -- is tested
with `scalars.is_zero`; a numpy path batch is never reduced and always
counts as present.  Adding an absent coefficient returns the other
operand itself, not a copy, and accumulators start from their first
term, not from `ring.zero`.  Likewise `series_mul` does not multiply by
a factor that is the ring's own `one` object.

Ownership rule: a kernel adds or scales in place (`+=`, `*=`) only into
a value it made itself in the same call -- a product or a scaled copy --
never into an input coefficient, a coefficient it returned earlier, or a
ring constant.  On a numpy path batch that saves the temporary of
`acc + x`; `Cyclo8`, Grassmann and jet scalars have no in-place
operators, so `+=` rebinds them and they stay immutable.  A returned
series may share coefficient objects with its inputs, so nothing may
write into a coefficient it did not make.  Path batches are complex
arrays, so an in-place sum never has to widen a real array.

Recurrences: exp(a) and 1/rho are built coefficient by coefficient
(Brent & Kung, JACM 1978) instead of as power sums:

    n E_n = sum_{k=1..n} k a_k E_{n-k},  E_0 = 1         (E = exp(a))
    w_n = -sum_{k=1..n} t_k w_{n-k},     w_0 = 1         (w = 1/(1 + t))

The exp recurrence is E' = a'E coefficientwise, which needs the
coefficients of a to commute with each other.  The exact, complex, path
batch and jet rings are commutative; Grassmann coefficients commute when
they are even.  Signs are folded into scalar multipliers, because numpy
complex negation costs several multiplies.
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


def _add_into(acc, x):
    """acc + x, written into acc: the caller made acc in this call."""
    if _absent(x):
        return acc
    if _absent(acc):
        return x
    acc += x
    return acc


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
        return TailSeries(map(_add, self.coeffs, other.coeffs), self.ring)

    def __sub__(self, other):
        return TailSeries([x if _absent(y) else -y if _absent(x) else x - y
                           for x, y in zip(self.coeffs, other.coeffs)],
                          self.ring)

    def __neg__(self):
        return TailSeries([-x for x in self.coeffs], self.ring)

    def scale(self, s):
        return TailSeries([c if _absent(c) else c * s for c in self.coeffs],
                          self.ring)

    def add_scaled(self, other, s):
        """self + other * s, adding self into the fresh products."""
        return TailSeries([x if _absent(y) else _add_into(y * s, x)
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
            return ExpSeries(self * other.tail + self.tail)
        if isinstance(other, TailSeries):
            # zeta^{-k} of the product reads E_1 .. E_{k-1}, so a zero
            # E_{n_E + 1} slot makes it exact to order n_E + 1
            pad = TailSeries(self.tail.coeffs + [self.ring.zero], self.ring)
            return series_mul(pad, other, plus=other)
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

    def __repr__(self):
        terms = ["z"]
        for j, c in enumerate(self.coeffs):
            if not is_zero(c):
                terms.append(f"({c})*z^{-j}" if j else f"({c})")
        return " + ".join(terms)


def series_mul(a: TailSeries, b: TailSeries, plus=None) -> TailSeries:
    """Cauchy product a * b (+ plus), powers below zeta^{-n} discarded.

    n is the common order min(a.order, b.order), or plus.order if lower.

    A factor that is the ring's own `one` object, as the leading
    coefficients of 1/rho and of e^a u are, is not multiplied out: the
    slot takes the other factor itself and is added into only after a
    sum has been made there.
    """
    n = min(a.order, b.order)
    one = a.ring.one
    out = [None] * n
    made = [False] * n      # out[k] was made in this call
    bs = [None if _absent(cb) else cb for cb in b.coeffs[:n - 1]]
    for i, ca in enumerate(a.coeffs[:n - 1]):
        if _absent(ca):
            continue
        # zeta^{-(i+1)} * zeta^{-(j+1)} = zeta^{-(i+j+2)}
        for j, cb in enumerate(bs[:n - i - 1]):
            if cb is None:
                continue
            k = i + j + 1
            p = cb if ca is one else ca if cb is one else ca * cb
            if out[k] is None:
                out[k], made[k] = p, ca is not one and cb is not one
            elif made[k]:
                out[k] += p
            else:
                out[k], made[k] = out[k] + p, True
    if plus is not None:
        out = [x if c is None else _add_into(c, x) if m else _add(c, x)
               for c, m, x in zip(out, made, plus.coeffs)]
    zero = a.ring.zero
    return TailSeries([zero if c is None else c for c in out], a.ring)


def series_inv_aut(rho: AutSeries) -> TailSeries:
    """1/rho(zeta) = zeta^{-1} w with w = 1/(1 + t), truncated.

    t = (rho - z) z^{-1} has t_k = rho.coeffs[k-1]; w_0 = 1 and
    w_n = -sum_{k=1..n} t_k w_{n-k}, so w_n needs t_1 .. t_n only and
    the zeta^{-N} coefficient w_{N-1} never reads a_{-N}.
    """
    ring = rho.ring
    minus = ring.from_int(-1)
    nt = [c if _absent(c) else c * minus       # -t_k
          for c in rho.coeffs[:rho.order - 1]]
    w = [ring.one]
    for n in range(1, rho.order):
        acc = ring.zero
        for k in range(1, n):
            if not (_absent(nt[k - 1]) or _absent(w[n - k])):
                acc = _add_into(acc, nt[k - 1] * w[n - k])
        w.append(_add_into(acc, nt[n - 1]))    # the k = n term, w_0 = 1
    return TailSeries(w, ring)


def series_exp(a: TailSeries) -> ExpSeries:
    """exp(a) = 1 + sum_n E_n zeta^{-n}, exact at the truncation order.

    E_n = a_n + (1/n) sum_{k<n} k a_k E_{n-k}; k a_k is formed only when
    a product needs it, so a lone term a_j zeta^{-j} with 2j > N costs no
    product at all.  The coefficients of a must commute (module doc).
    """
    ring = a.ring
    e = []                          # e[m-1] = E_m
    ka = {}                         # k a_k, formed on first use
    for n, an in enumerate(a.coeffs, start=1):
        acc = ring.zero
        for k in range(1, n):
            ak, em = a.coeffs[k - 1], e[n - k - 1]
            if _absent(ak) or _absent(em):
                continue
            if k not in ka:
                ka[k] = ak if k == 1 else ak * ring.from_int(k)
            acc = _add_into(acc, ka[k] * em)
        if not _absent(acc):
            acc *= ring.one / n     # acc is a sum of products made here
        e.append(_add_into(acc, an))
    return ExpSeries(TailSeries(e, ring))


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
            out = out.add_scaled(upow, c)
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
