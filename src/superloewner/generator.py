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
`evolution.flow_step` over the jet ring (dt -> delta, dB_d -> beta_d).
The jet ring is a `scalars.Ring.extend` of the base ring, and the Ito
rule is its product table, beta_d beta_d = var_d delta.  The jet module
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
from .scalars import Ring

DELTA = 1  # slot of delta on the jet basis (1, delta, beta_0..beta_4)


def JetRing(base: Ring, variances) -> Ring:
    """The ring of Ito jets over `base` with the driver variances
    (kappa, tau, tau, tau, tau): generators delta, beta_0..beta_4 with
    beta_d beta_d = var_d delta; its lift is the constant jet."""
    variances = tuple(variances)
    betas = tuple(f"beta{d}" for d in range(len(variances)))
    ring = Ring.extend(base, ("delta",) + betas,
                       {(b, b): (var, "delta")
                        for b, var in zip(betas, variances)}, "jet")
    ring.variances = variances
    return ring


def jet_state(state: FlowState, kappa, tau, variant: str = "derived"):
    """Lift an exact FlowState to jet coordinates carrying its own SDE:
    one `flow_step` with dt -> delta and dB_d -> beta_d makes each
    coefficient val + mu*delta + sum sigma_d beta_d.  Returns
    (jet_ring, FlowState over jets)."""
    spec = JetRing(state.rho.ring, (kappa, tau, tau, tau, tau))

    def lift(series):
        return type(series)(map(spec.lift, series.coeffs), spec)

    lifted = replace(state, rho=lift(state.rho),
                     **{nm: lift(getattr(state, nm)) for nm in PROCESS_NAMES})
    delta, *betas = spec.gens
    return spec, flow_step(lifted, delta, dict(zip(DRIVERS, betas)),
                           spec.lift(tau), variant=variant)


def state_drift(state: FlowState, k, kappa, tau, ring, nrep: int,
                variant: str = "derived") -> Vector:
    """Exact drift vector (d/dt)E[assembled state] at the given state.

    The returned Vector lives in a module over `ring`, with k in its root;
    each component is the delta part of the jet-assembled state.
    """
    spec, jstate = jet_state(state, kappa, tau, variant=variant)
    jvec = assemble_state_vector(jstate, Module(spec, k, nrep))
    return Vector(Module(ring, k, nrep),
                  {m: c.coeffs[DELTA] for m, c in jvec.terms.items()})
