"""Exact Ito generator applied to polynomial functionals of the flow.

The local-martingale claims are statements about the instantaneous
drift of functionals V(s) of the flow state s (assembled module vectors
or current-observable coefficients).  Every such V is polynomial in the
finitely many truncated-series coordinates, so the drift

    (d/dt) E[V]  =  sum_i dV/ds_i mu_i
                    + (1/2) sum_d var_d sum_{ij} sigma_i^d sigma_j^d
                      d^2 V / ds_i ds_j

is computed *exactly* by evaluating V over the commutative jet ring

    R[delta, beta_0..beta_4] / (delta^2 = delta beta = beta^3 = 0,
                                beta_d beta_d' = delta_{dd'} var_d delta)

at the point s_i + mu_i delta + sum_d sigma_i^d beta_d: for polynomial
V the Taylor/Ito bookkeeping happens inside the multiplication, and the
delta component of the result is the drift.  Coordinates and variances
stay in the exact scalar field, so a zero drift is an algebraic
identity, not a small number.
"""

from __future__ import annotations

from .affine import Module, Vector
from .evolution import (DRIVERS, FlowState, assemble_state_vector, sde_terms,
                        PROCESS_NAMES)
from .scalars import is_zero
from .series import AutSeries, TailSeries, series_inv_aut


class ItoJet:
    """val + dt*delta + sum_d b[d]*beta_d over an exact base scalar."""

    __slots__ = ("val", "dt", "b", "spec")

    def __init__(self, val, dt, b, spec):
        self.val = val
        self.dt = dt
        self.b = tuple(b)
        self.spec = spec  # JetRing carrying the driver variances

    def _lift(self, other):
        if isinstance(other, ItoJet):
            return other
        if isinstance(other, int):
            return self.spec.from_int(other)
        return ItoJet(other, self.spec.base.zero,
                      (self.spec.base.zero,) * 5, self.spec)

    def __add__(self, other):
        o = self._lift(other)
        return ItoJet(self.val + o.val, self.dt + o.dt,
                      tuple(x + y for x, y in zip(self.b, o.b)), self.spec)

    __radd__ = __add__

    def __neg__(self):
        return ItoJet(-self.val, -self.dt, tuple(-x for x in self.b),
                      self.spec)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        ito = self.spec.base.zero
        for var, xb, yb in zip(self.spec.variances, self.b, o.b):
            ito = ito + var * xb * yb
        return ItoJet(
            self.val * o.val,
            self.val * o.dt + self.dt * o.val + ito,
            tuple(self.val * yb + xb * o.val for xb, yb in zip(self.b, o.b)),
            self.spec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            return ItoJet(self.val / other, self.dt / other,
                          tuple(x / other for x in self.b), self.spec)
        return self * self._lift(other).inverse()

    def inverse(self):
        base = self.spec.base
        inv_v = base.one / self.val
        # (v + n)^{-1} = v^{-1} - v^{-2} n + v^{-3} n^2 with n nilpotent
        n_dt, n_b = self.dt, self.b
        n2_dt = base.zero
        for var, xb in zip(self.spec.variances, n_b):
            n2_dt = n2_dt + var * xb * xb
        iv2 = inv_v * inv_v
        iv3 = iv2 * inv_v
        return ItoJet(inv_v,
                      -iv2 * n_dt + iv3 * n2_dt,
                      tuple(-iv2 * xb for xb in n_b),
                      self.spec)

    def is_zero(self) -> bool:
        return (is_zero(self.val) and is_zero(self.dt)
                and all(is_zero(x) for x in self.b))

    def __eq__(self, other):
        o = self._lift(other)
        return (self - o).is_zero()

    def __hash__(self):
        return hash((self.val, self.dt, self.b))

    def __repr__(self):
        return f"Jet(val={self.val}, dt={self.dt}, b={self.b})"


class JetRing:
    """Ring handle for ItoJet coefficients over an exact base ring."""

    def __init__(self, base, variances):
        self.base = base
        self.variances = tuple(variances)  # (kappa, tau, tau, tau, tau)
        zb = base.zero
        self.zero = ItoJet(zb, zb, (zb,) * 5, self)
        self.one = ItoJet(base.one, zb, (zb,) * 5, self)
        self.i = ItoJet(base.i, zb, (zb,) * 5, self)
        self.sqrt2 = ItoJet(base.sqrt2, zb, (zb,) * 5, self)
        self.name = "jet:" + base.name

    def from_int(self, n):
        zb = self.base.zero
        return ItoJet(self.base.from_int(n), zb, (zb,) * 5, self)

    def from_rational(self, v):
        zb = self.base.zero
        return ItoJet(self.base.from_rational(v), zb, (zb,) * 5, self)

    def constant(self, value):
        zb = self.base.zero
        return ItoJet(value, zb, (zb,) * 5, self)

    def coordinate(self, value, drift, diffusions):
        return ItoJet(value, drift, tuple(diffusions), self)


def jet_state(state: FlowState, kappa, tau, ring, variant: str = "derived"):
    """Lift an exact FlowState to jet coordinates carrying its own SDE.

    Each series coefficient becomes val + mu*delta + sum sigma_d beta_d
    with mu, sigma read off `sde_terms` (internal processes) and the
    Loewner equation (rho).  Returns (jet_ring, FlowState over jets).
    """
    spec = JetRing(ring, (kappa, tau, tau, tau, tau))
    terms = sde_terms(state, tau, ring, variant=variant)
    n = state.order
    zb = ring.zero

    def lift_tail(name: str) -> TailSeries:
        series = getattr(state, name)
        spec_terms = terms[name]

        def coeff(key, j):
            if key not in spec_terms:
                return zb
            base, s = spec_terms[key]
            return base.coeffs[j] * s

        return TailSeries([spec.coordinate(series.coeffs[j], coeff("dt", j),
                                           [coeff(d, j) for d in DRIVERS])
                           for j in range(n)], spec)

    u = series_inv_aut(state.rho)
    rho_coeffs = []
    for j in range(n + 1):
        val = state.rho.coeffs[j]
        # d a_0 = -dB0; d a_{-j} = 2 u_{-j} dt
        if j == 0:
            rho_coeffs.append(spec.coordinate(
                val, zb, (-ring.one, zb, zb, zb, zb)))
        else:
            rho_coeffs.append(spec.coordinate(
                val, ring.from_int(2) * u.coeffs[j - 1], (zb,) * 5))
    jrho = AutSeries(rho_coeffs, spec)
    jstate = FlowState(rho=jrho,
                       **{nm: lift_tail(nm) for nm in PROCESS_NAMES},
                       t=state.t)
    return spec, jstate


def state_drift(state: FlowState, k, kappa, tau, ring, nrep: int,
                variant: str = "derived") -> Vector:
    """Exact drift vector (d/dt)E[assembled state] at the given state.

    The returned Vector lives in a module over the base ring; each
    component is the delta part of the jet-assembled state.
    """
    spec, jstate = jet_state(state, kappa, tau, ring, variant=variant)
    jmod = Module(spec, spec.constant(k), nrep)
    jvec = assemble_state_vector(jstate, jmod)
    base_mod = Module(ring, k, nrep)
    return Vector(base_mod, {m: c.dt for m, c in jvec.terms.items()})
