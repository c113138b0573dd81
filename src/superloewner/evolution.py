"""Stochastic dynamics of the flow and assembly of the represented state.

The eleven unknowns are the Loewner coordinate change rho_t (an
AutSeries) and ten tail series: the even internal coordinates
x^E, x^H, x^F, the odd-sector pairs x^{1,e}, x^{1,f}, x^{2,e}, x^{2,f}
and the quadratic-sector x^{12,E}, x^{12,H}, x^{12,F}.  Steps are plain
Euler-Maruyama with all right-hand sides evaluated at the pre-step
state.

`sde_terms` gives each drift and diffusion as a pair (base series, ring
scalar), and terms of one process that differ only by their scalar
share the base object.  `flow_step` sums scalar * increment per
distinct base (one scalar per path) and adds the base times that sum
in one pass over its coefficients; `generator.jet_state` multiplies the
scalar into each coefficient exactly.

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
    """Drift and per-driver diffusion of every internal process.

    Returns {name: {"dt": (base, s), "B1": (base, s), ..., "Ba": ...}}
    with absent drivers omitted: each term is the TailSeries base times
    the ring scalar s.  Terms of one process that share a base share the
    object, so a step forms one scalar per distinct base and makes one
    pass over its coefficients.  tau is a ring scalar.
    """
    a, b, c = state.xE, state.xH, state.xF
    u = series_inv_aut(state.rho)
    u2 = series_mul(u, u)
    nb = -b
    ep = series_exp(b)
    em = series_exp(nb)
    e2p = series_exp(b + b)
    # only the displayed variant reads e^{-2b}; both build it, which keeps
    # series_exp at the four calls per step the perfbench self-test pins
    e2m = series_exp(nb + nb)
    isq = ring.one / ring.sqrt2
    sq2 = ring.sqrt2
    i_ = ring.i
    ac = series_mul(a, c)
    cu = series_mul(c, u)
    ccu = series_mul(c, cu)
    emu = em * u
    # the odd-sector diffusions, up to constants: A = a e^{-b} u,
    # C = c e^{-b} u and G = (e^b + e^{-b} a c) u
    big_a = series_mul(a, emu)
    big_c = series_mul(c, emu)
    big_g = ep * u + series_mul(ac, emu)

    # even sector (as displayed)
    e2pu = e2p * u
    terms = {
        "xE": {"B2": (e2pu, -isq), "B3": (e2pu, -i_ * isq)},
        "xH": {"dt": (u2, -tau / 2), "B1": (u, -isq), "B2": (cu, isq),
               "B3": (cu, i_ * isq)},
        "xF": {"B1": (cu, -sq2), "B2": (u - ccu, -isq),
               "B3": (u + ccu, i_ * isq)},
    }
    if variant == "derived":
        # P = -isq A e + isq e^{-b}u f, Q = isq G e - isq C f
        terms |= {
            "x1e": {"Ba": (big_a, -isq)},
            "x1f": {"Ba": (emu, isq)},
            "x2e": {"Ba": (big_g, isq)},
            "x2f": {"Ba": (big_c, -isq)},
            "x12E": {"dt": (series_mul(big_a, big_g), tau / 2),
                     "Ba": (series_mul(big_a, state.x2e), sq2)},
            "x12H": {"dt": (series_mul(big_a, big_c)
                            + series_mul(emu, big_g), -tau / 4),
                     "Ba": (series_mul(big_a, state.x2f)
                            - series_mul(emu, state.x2e), isq)},
            "x12F": {"dt": (series_mul(emu, big_c), -tau / 2),
                     "Ba": (series_mul(emu, state.x2f), sq2)},
        }
    elif variant == "displayed":
        e2mu2 = e2m * u2
        ace2m = series_mul(ac, e2mu2)              # e^{-2b} a c u^2
        terms |= {
            "x1e": {"Ba": (big_g, sq2)},
            "x1f": {"Ba": (big_c, -sq2)},
            "x2e": {"Ba": (big_a, -sq2)},
            "x2f": {"Ba": (emu, sq2)},
            "x12E": {"dt": (series_mul(a, u2 + ace2m), tau),
                     "Ba": (series_mul(state.x2e, big_g), -sq2)},
            "x12H": {"dt": (u2 + ace2m + ace2m, -tau / 2),
                     "Ba": (series_mul(state.x2e, big_c)
                            - series_mul(state.x2f, big_g), sq2)},
            "x12F": {"dt": (series_mul(c, e2mu2), -tau),
                     "Ba": (series_mul(state.x2f, big_c), -sq2)},
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
    """series + sum of base * s * increment, one pass per distinct base."""
    weights = {}   # id(base) -> (base, summed scalar)
    for drv, (base, s) in term.items():
        w = s * (dt if drv == "dt" else incs[drv])
        if id(base) in weights:
            w = weights[id(base)][1] + w
        weights[id(base)] = (base, w)
    out = series
    for base, w in weights.values():
        out = out.add_scaled(base, w)
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
