"""Stochastic dynamics of the flow and assembly of the represented state.

The eleven unknowns are the Loewner coordinate change rho_t (an
AutSeries) and ten tail series: the even internal coordinates
x^E, x^H, x^F, the odd-sector pairs x^{1,e}, x^{1,f}, x^{2,e}, x^{2,f}
and the quadratic-sector x^{12,E}, x^{12,H}, x^{12,F}.  Steps are plain
Euler-Maruyama with all right-hand sides evaluated at the pre-step
state.

Two odd-sector variants ship:

* "derived" (default): the system obtained by exact Campbell-Hausdorff /
  Ito matching of the factorized flow against the group SDE.  With
  u = 1/rho_t and P = Ad(Theta0)(E_{-a/2} u), Q = Ad(Theta0)(E_{a/2} u),

      dL1 = P dB,  dL2 = Q dB,
      dL12 = -(tau/2){P,Q} dt - {P,L2} dB.

  This is the system under which the Berezin-projected state is a local
  martingale.  The exact Ito-jet generator proves the zero drift:
  tests/test_generator.py checks it on the assembled state
  (`test_derived_variant_is_local_martingale_on_low_depth`) and on the
  current observable (`test_current_observable_coefficients_have_zero_drift`).
* "displayed": an alternative normalization in which every odd-sector
  diffusion is twice the conjugated root generator and the roles of the
  two odd sectors are swapped, while the drifts are scaled by two only;
  drift then differs from (1/2)(diffusion)^2, the Ito balance fails,
  and the generator test exhibits the nonzero drift.  Kept for
  sensitivity and demonstration runs.

The even sector is common to both variants (signs as displayed; a
global per-driver Brownian sign flip is law-preserving).

The represented state [1 + L12 + L1 L2] e^{E x^E} e^{H x^H} e^{F x^F}
Q(rho)|0> is written once, in `assemble`, over a back end that only
applies weighted sums of modes: `assemble_state_vector` runs it on the
exact dict engine of `affine`, and `matrixrep.BatchAssembler` on sparse
matrices over a whole path batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .affine import Module, Vector, act_mode, mode, sugawara
from .scalars import is_zero, to_complex
from .series import (AutSeries, TailSeries, series_exp, series_inv_aut,
                     series_mul)

PROCESS_NAMES = ("xE", "xH", "xF", "x1e", "x1f", "x2e", "x2f",
                 "x12E", "x12H", "x12F")
DRIVERS = ("B0", "B1", "B2", "B3", "Ba")


@dataclass(frozen=True)
class FlowState:
    rho: AutSeries
    xE: TailSeries
    xH: TailSeries
    xF: TailSeries
    x1e: TailSeries
    x1f: TailSeries
    x2e: TailSeries
    x2f: TailSeries
    x12E: TailSeries
    x12H: TailSeries
    x12F: TailSeries
    t: object = 0.0

    @property
    def order(self):
        return self.rho.order


def initial_state(order: int, ring) -> FlowState:
    z = TailSeries.zero(order, ring)
    return FlowState(rho=AutSeries.identity(order, ring),
                     xE=z, xH=z, xF=z, x1e=z, x1f=z, x2e=z, x2f=z,
                     x12E=z, x12H=z, x12F=z, t=0.0)


def sde_terms(state: FlowState, tau, ring, variant: str = "derived") -> dict:
    """Drift and per-driver diffusion series of every internal process.

    Returns {name: {"dt": TailSeries, "B1": ..., "B2": ..., "B3": ...,
    "Ba": ...}} with absent drivers omitted.  tau is a ring scalar.
    """
    a, b, c = state.xE, state.xH, state.xF
    u = series_inv_aut(state.rho)
    u2 = series_mul(u, u)
    ep = series_exp(b)
    em = series_exp(-b)
    e2p = series_exp(b + b)
    e2m = series_exp(-b - b)
    isq = ring.one / ring.sqrt2
    i_ = ring.i
    cc = series_mul(c, c)
    ac = series_mul(a, c)

    terms: dict = {}
    # even sector (as displayed)
    e2pu = e2p * u
    terms["xE"] = {"B2": e2pu.scale(-isq), "B3": e2pu.scale(-i_ * isq)}
    cu = series_mul(c, u)
    terms["xH"] = {"dt": u2.scale(-tau / 2), "B1": u.scale(-isq),
                   "B2": cu.scale(isq), "B3": cu.scale(i_ * isq)}
    terms["xF"] = {
        "B1": cu.scale(-ring.sqrt2),
        "B2": (u + series_mul(-cc, u)).scale(-isq),
        "B3": (u + series_mul(cc, u)).scale(i_ * isq),
    }

    emu = em * u
    if variant == "derived":
        pe = series_mul(a, emu).scale(-isq)
        pf = emu.scale(isq)
        qe = (ep * u + series_mul(ac, emu)).scale(isq)
        qf = series_mul(c, emu).scale(-isq)
        terms["x1e"] = {"Ba": pe}
        terms["x1f"] = {"Ba": pf}
        terms["x2e"] = {"Ba": qe}
        terms["x2f"] = {"Ba": qf}
        terms["x12E"] = {"dt": series_mul(pe, qe).scale(-tau),
                         "Ba": series_mul(pe, state.x2e).scale(
                             ring.from_int(-2))}
        terms["x12H"] = {
            "dt": (series_mul(pe, qf) + series_mul(pf, qe)).scale(-tau / 2),
            "Ba": -(series_mul(pe, state.x2f) + series_mul(pf, state.x2e)),
        }
        terms["x12F"] = {"dt": series_mul(pf, qf).scale(tau),
                         "Ba": series_mul(pf, state.x2f).scale(
                             ring.from_int(2))}
    elif variant == "displayed":
        sq2 = ring.sqrt2
        g1 = ep * u + series_mul(ac, emu)          # (e^b + e^{-b} a c) u
        terms["x1e"] = {"Ba": g1.scale(sq2)}
        terms["x1f"] = {"Ba": series_mul(c, emu).scale(-sq2)}
        terms["x2e"] = {"Ba": series_mul(a, emu).scale(-sq2)}
        terms["x2f"] = {"Ba": emu.scale(sq2)}
        ace2m = series_mul(ac, e2m * u2)           # e^{-2b} a c u^2
        terms["x12E"] = {
            "dt": (series_mul(a, u2) + series_mul(a, ace2m)).scale(tau),
            "Ba": series_mul(state.x2e, g1).scale(-sq2),
        }
        terms["x12H"] = {
            "dt": (u2 + ace2m.scale(ring.from_int(2))).scale(-tau / 2),
            "Ba": (series_mul(state.x2e, series_mul(c, emu))
                   - series_mul(state.x2f, g1)).scale(sq2),
        }
        terms["x12F"] = {
            "dt": series_mul(c, e2m * u2).scale(-tau),
            "Ba": series_mul(state.x2f, series_mul(c, emu)).scale(-sq2),
        }
    else:
        raise ValueError(f"unknown odd-SDE variant {variant!r}")
    return terms


def loewner_step(rho: AutSeries, dt, dB0) -> AutSeries:
    """Euler step of d rho(z) = (2/rho(z)) dt - dB0."""
    u = series_inv_aut(rho)
    out = rho + u.scale(rho.ring.from_int(2) * dt)
    return out.shift(-dB0)


def _stepped(series: TailSeries, term: dict, dt, incs: dict) -> TailSeries:
    out = series
    drift = term.get("dt")
    if drift is not None:
        out = out + drift.scale(dt)
    for drv, diff in term.items():
        if drv == "dt":
            continue
        out = out + diff.scale(incs[drv])
    return out


def flow_step(state: FlowState, dt, incs: dict, tau, ring=None,
              variant: str = "derived") -> FlowState:
    """Full simultaneous Euler step; incs maps driver name to increment."""
    ring = ring or state.rho.ring
    terms = sde_terms(state, tau, ring, variant=variant)
    new = {n: _stepped(getattr(state, n), terms[n], dt, incs)
           for n in PROCESS_NAMES}
    rho = loewner_step(state.rho, dt, incs["B0"])
    t_inc = dt if isinstance(dt, float) else to_complex(dt).real
    return replace(state, rho=rho, t=state.t + t_inc, **new)


# -- Aut_+O in exponential Virasoro coordinates ---------------------------

def _exp_vector_field_on_z(v: list, order: int, ring) -> AutSeries:
    """exp(sum_j v[j-1] l_{-j}) z with l_{-j} = -z^{-j+1} d/dz, truncated."""
    cur = {1: ring.one}
    total = {1: ring.one}
    for m in range(1, order + 2):
        nxt: dict = {}
        for p, cf in cur.items():
            if p == 0:
                continue
            for j, vj in enumerate(v, start=1):
                q = p - j
                if q < -order:
                    continue
                add = vj * cf * ring.from_int(-p)
                cur_q = nxt.get(q)
                nxt[q] = add if cur_q is None else cur_q + add
        if not nxt:
            break
        cur = {p: cf * _inv_int(m, ring) for p, cf in nxt.items()}
        for p, cf in cur.items():
            tp = total.get(p)
            total[p] = cf if tp is None else tp + cf
    coeffs = [total.get(-j, ring.zero) for j in range(0, order + 1)]
    return AutSeries(coeffs, ring)


def _inv_int(m: int, ring):
    return ring.one / ring.from_int(m)


def aut_to_virasoro(rho: AutSeries) -> list:
    """Solve exp(sum_{j=1..N} v_{-j} l_{-j}) z = rho(z) order by order.

    Returns [v_{-1}, ..., v_{-N}]; the system is unitriangular because
    v_{-j} first enters at the z^{1-j} coefficient with slope -1.  The
    z^{-N} coefficient of rho corresponds to v_{-(N+1)} and only affects
    module depth N+1, so it is not matched.
    """
    n = rho.order
    ring = rho.ring
    v = [ring.zero] * n
    for j in range(1, n + 1):
        phi = _exp_vector_field_on_z(v, n, ring)
        resid = phi.coeff(1 - j) - rho.coeff(1 - j)
        v[j - 1] = v[j - 1] + resid
    return v


# -- represented state -----------------------------------------------------

VIRASORO = "L"  # operator key (VIRASORO, j) stands for L_{-j}


def _exp_apply(apply, pieces, v, max_terms: int):
    """exp(sum c X) v as its nilpotent series, at most max_terms terms."""
    acc = term = v
    for m in range(1, max_terms + 1):
        term = apply([(op, c / m) for op, c in pieces], term)
        if is_zero(term):
            break
        acc = acc + term
    return acc


def assemble(state: FlowState, apply, floor, nrep: int):
    """[1 + L12 + L1 L2] e^{E x^E} e^{H x^H} e^{F x^F} Q(rho) floor.

    The one copy of the assembly formula.  A back end supplies the
    floor vector and apply(pieces, w) = sum over ((symbol, j), c) of
    c X(-j) w, with symbol VIRASORO meaning L_{-j}; operators reaching
    past depth nrep are truncated, and only j <= min(order, nrep)
    enters.
    """
    n = min(state.order, nrep)

    def pieces(*spec):
        return [((sym, j), coeffs[j - 1])
                for sym, coeffs in spec for j in range(1, n + 1)]

    def coeffs(name):
        return getattr(state, name).coeffs

    v = _exp_apply(apply, pieces((VIRASORO, aut_to_virasoro(state.rho))),
                   floor, nrep)
    for sym in ("F", "H", "E"):
        v = _exp_apply(apply, pieces((sym, coeffs("x" + sym))), v, nrep)
    l2 = apply(pieces(("e", coeffs("x2e")), ("f", coeffs("x2f"))), v)
    l1l2 = apply(pieces(("e", coeffs("x1e")), ("f", coeffs("x1f"))), l2)
    l12 = apply(pieces(("E", coeffs("x12E")), ("H", coeffs("x12H")),
                       ("F", coeffs("x12F"))), v)
    return v + l12 + l1l2


def assemble_state_vector(state: FlowState, module: Module) -> Vector:
    """Berezin projection of Theta1 Theta0 Q(rho)|0> against 1 + eta1 eta2.

    `assemble` on the exact dict engine: the depth-truncated vacuum
    module over module.ring (no Grassmann ring is needed after the
    projection).
    """

    def apply(pieces, w: Vector) -> Vector:
        acc = Vector(module, {})
        for (sym, j), c in pieces:
            if is_zero(c):
                continue
            image = (sugawara(-j, w, project=True) if sym == VIRASORO
                     else act_mode(mode(sym, -j), w, project=True))
            acc = acc + image.scale(c)
        return acc

    return assemble(state, apply, Vector.floor_vector(module), module.nrep)
