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
delta component of the result is the drift.  The point is one
`evolution.flow_step` over the jet ring (dt -> delta, dB_d -> beta_d),
and the Ito rule is stated once, in `ItoJet.__mul__`.  The jet module
reads the mode and Sugawara tables of the base ring, built once per
level, and a jet times one of their scalars scales each slot.
Coordinates and variances stay in the exact scalar field, so a zero
drift is an algebraic identity, not a small number.
"""

from __future__ import annotations

from dataclasses import replace

from .affine import Module, Vector
from .evolution import (DRIVERS, PROCESS_NAMES, FlowState,
                        assemble_state_vector, flow_step)
from .scalars import Ring, is_zero, to_complex


class ItoJet:
    """val + dt*delta + sum_d b[d]*beta_d over an exact base ring."""

    __slots__ = ("val", "dt", "b", "base", "variances")

    def __init__(self, val, dt, b, base, variances):
        self.val = val
        self.dt = dt
        self.b = tuple(b)
        self.base = base
        self.variances = variances  # (kappa, tau, tau, tau, tau)

    def _lift(self, other):
        if isinstance(other, ItoJet):
            return other
        zb = self.base.zero
        return ItoJet(self.base.coerce(other), zb, (zb,) * 5, self.base,
                      self.variances)

    def __add__(self, other):
        o = self._lift(other)
        return ItoJet(self.val + o.val, self.dt + o.dt,
                      tuple(x + y for x, y in zip(self.b, o.b)), self.base,
                      self.variances)

    __radd__ = __add__

    def __neg__(self):
        return ItoJet(-self.val, -self.dt, tuple(-x for x in self.b),
                      self.base, self.variances)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, o):
        if not (isinstance(o, ItoJet) and o.base is self.base):
            o = self.base.coerce(o)  # a base scalar: scale each slot
            return ItoJet(self.val * o, self.dt * o,
                          tuple(x * o for x in self.b), self.base,
                          self.variances)
        # most slots are zero: skip every product with a zero factor
        zero = self.base.zero
        dt, b = zero, []
        for x, y in ((self.val, o.dt), (self.dt, o.val)):
            if not (is_zero(x) or is_zero(y)):
                dt = dt + x * y
        for var, xb, yb in zip(self.variances, self.b, o.b):
            if is_zero(xb):
                b.append(zero if is_zero(yb) else self.val * yb)
            elif is_zero(yb):
                b.append(xb * o.val)
            else:  # the Ito term var_d b_d b'_d
                dt = dt + var * xb * yb
                b.append(self.val * yb + xb * o.val)
        return ItoJet(self.val * o.val, dt, b, self.base, self.variances)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            return ItoJet(self.val / other, self.dt / other,
                          tuple(x / other for x in self.b), self.base,
                          self.variances)
        return self * self._lift(other).inverse()

    def inverse(self):
        # self = v (1 + m) with m = (self - v)/v nilpotent, m^3 = 0
        inv_v = self.base.one / self.val
        m = (self - self.val) * inv_v
        return (1 - m + m * m) * inv_v

    def __complex__(self):
        """The standard part, as `flow_step`'s clock reads it."""
        return to_complex(self.val)

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


def JetRing(base: Ring, variances) -> Ring:
    """The ring of ItoJet coefficients over `base` with the driver
    variances (kappa, tau, tau, tau, tau); its lift is the constant jet."""
    variances = tuple(variances)
    zeros = (base.zero,) * 5
    ring = Ring.over(base, lambda v: ItoJet(v, base.zero, zeros, base,
                                            variances), "jet")
    ring.variances = variances
    return ring


def jet_state(state: FlowState, kappa, tau, variant: str = "derived"):
    """Lift an exact FlowState to jet coordinates carrying its own SDE:
    one `flow_step` with dt -> delta and dB_d -> beta_d makes each
    coefficient val + mu*delta + sum sigma_d beta_d.  Returns
    (jet_ring, FlowState over jets)."""
    ring = state.rho.ring
    variances = (kappa, tau, tau, tau, tau)
    spec = JetRing(ring, variances)

    def lift(series):
        return type(series)(map(spec.lift, series.coeffs), spec)

    def unit(slot):     # the jet with one unit slot: 0 is delta, d+1 beta_d
        e = [ring.one if i == slot else ring.zero for i in range(6)]
        return ItoJet(ring.zero, e[0], e[1:], ring, variances)

    lifted = replace(state, rho=lift(state.rho),
                     **{nm: lift(getattr(state, nm)) for nm in PROCESS_NAMES})
    incs = {d: unit(i) for i, d in enumerate(DRIVERS, start=1)}
    return spec, flow_step(lifted, unit(0), incs, spec.lift(tau),
                           variant=variant)


def state_drift(state: FlowState, k, kappa, tau, ring, nrep: int,
                variant: str = "derived") -> Vector:
    """Exact drift vector (d/dt)E[assembled state] at the given state.

    The returned Vector lives in a module over `ring`, with k in its root;
    each component is the delta part of the jet-assembled state.
    """
    spec, jstate = jet_state(state, kappa, tau, variant=variant)
    jmod = Module(spec, k, nrep)
    jvec = assemble_state_vector(jstate, jmod)
    base_mod = Module(ring, k, nrep)
    return Vector(base_mod, {m: c.dt for m, c in jvec.terms.items()})
