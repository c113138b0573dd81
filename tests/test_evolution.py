import random
from fractions import Fraction

import numpy as np
import pytest

from superloewner.affine import (Module, Vector, act_mode, act_word, mode,
                                 sugawara)
from superloewner.evolution import (DRIVERS, PROCESS_NAMES, FlowState,
                                    assemble_state_vector, aut_to_virasoro,
                                    flow_step, initial_state, loewner_step)
from superloewner.scalars import COMPLEX, EXACT, rational, to_complex
from superloewner.series import (AutSeries, TailSeries, series_equal,
                                 series_exp, series_inv_aut, substitute)

R = EXACT
N = 4


def tail(coeffs, order=N):
    cs = [rational(c) for c in coeffs] + [R.zero] * (order - len(coeffs))
    return TailSeries(cs, R)


def state(**kw):
    base = initial_state(N, R)
    if not kw:
        return base
    from dataclasses import replace
    return replace(base, **kw)


def test_loewner_step_from_identity():
    dt, dB0 = rational("1/100"), rational("1/7")
    rho = loewner_step(AutSeries.identity(N, R), dt, dB0)
    assert rho.coeff(0) == -dB0
    assert rho.coeff(-1) == rational(2) * dt
    assert rho.coeff(-2) == R.zero and rho.coeff(-3) == R.zero


def test_loewner_step_no_increment_is_identity_map():
    rho = AutSeries([rational("1/3"), rational(1), R.zero, rational(2),
                     R.zero], R)
    out = loewner_step(rho, R.zero, R.zero)
    assert series_equal(out, rho)


def test_loewner_two_steps_zero_noise():
    dt = rational("1/50")
    rho = loewner_step(AutSeries.identity(N, R), dt, R.zero)
    rho = loewner_step(rho, dt, R.zero)
    assert rho.coeff(-1) == rational(4) * dt
    assert rho.coeff(-3) == rational(-4) * dt * dt
    assert rho.coeff(0) == R.zero and rho.coeff(-2) == R.zero


def step(s, dt, tau, variant="derived", **incs):
    """flow_step with every driver increment not given set to zero."""
    zero = {d: R.zero for d in ("B0", "B1", "B2", "B3", "Ba")}
    return flow_step(s, dt, zero | incs, tau, variant=variant)


def test_even_step_at_time_zero():
    s = state()
    tau = rational("4/5")
    dt, dB1, dB2, dB3 = (rational("1/10"), rational("1/2"),
                         rational("1/3"), rational("1/7"))
    out = step(s, dt, tau, B1=dB1, B2=dB2, B3=dB3)
    xE, xH, xF = out.xE, out.xH, out.xF
    isq = R.one / R.sqrt2
    # dx^H = -(tau/2) z^-2 dt - (1/sqrt2) z^-1 dB1
    assert xH.coeff(-1) == -isq * dB1
    assert xH.coeff(-2) == -(tau / 2) * dt
    # dx^E = -(1/sqrt2) z^-1 (dB2 + i dB3)
    assert xE.coeff(-1) == -isq * (dB2 + R.i * dB3)
    assert xE.coeff(-2) == R.zero
    # dx^F = -(1/sqrt2) z^-1 dB2 + (i/sqrt2) z^-1 dB3
    assert xF.coeff(-1) == -isq * dB2 + R.i * isq * dB3


def test_odd_step_at_time_zero_displayed_variant():
    s = state()
    tau = rational("4/5")
    dt, dBa = rational("1/10"), rational("1/3")
    out = step(s, dt, tau, variant="displayed", Ba=dBa)
    x1e, x1f, x2e, x2f = out.x1e, out.x1f, out.x2e, out.x2f
    x12E, x12H, x12F = out.x12E, out.x12H, out.x12F
    sq2 = R.sqrt2
    assert x1e.coeff(-1) == sq2 * dBa
    assert x2f.coeff(-1) == sq2 * dBa
    assert x1f.is_zero() and x2e.is_zero()
    assert x12H.coeff(-2) == -(tau / 2) * dt
    assert x12E.is_zero() and x12F.is_zero()


def test_odd_step_at_time_zero_derived_variant():
    s = state()
    tau = rational("4/5")
    dt, dBa = rational("1/10"), rational("1/3")
    out = step(s, dt, tau, Ba=dBa)
    x1e, x1f, x2e, x2f = out.x1e, out.x1f, out.x2e, out.x2f
    x12E, x12H, x12F = out.x12E, out.x12H, out.x12F
    isq = R.one / R.sqrt2
    assert x1f.coeff(-1) == isq * dBa
    assert x2e.coeff(-1) == isq * dBa
    assert x1e.is_zero() and x2f.is_zero()
    assert x12H.coeff(-2) == -(tau / 4) * dt
    assert x12E.is_zero() and x12F.is_zero()


def test_no_increment_no_change():
    s = state(xF=tail(["1/3"]), x2f=tail(["1/9", "2/7"]))
    out = step(s, R.zero, rational("4/5"))
    for name in ("x1e", "x1f", "x2e", "x2f", "x12E", "x12H", "x12F"):
        assert series_equal(getattr(out, name), getattr(s, name)), name


# -- exponential Virasoro coordinates --------------------------------------

def test_aut_to_virasoro_translation():
    a0 = rational("2/3")
    rho = AutSeries([a0, R.zero, R.zero, R.zero, R.zero], R)
    v = aut_to_virasoro(rho)
    assert v[0] == -a0
    assert all(c.is_zero() for c in v[1:])


def test_aut_to_virasoro_identity():
    v = aut_to_virasoro(AutSeries.identity(N, R))
    assert all(c.is_zero() for c in v)


def test_aut_to_virasoro_single_inverse_power():
    am1 = rational("3/5")
    rho = AutSeries([R.zero, am1, R.zero, R.zero, R.zero], R)
    v = aut_to_virasoro(rho)
    assert v[0].is_zero()
    assert v[1] == -am1
    assert v[2].is_zero()
    assert v[3] == -(am1 * am1) / 2


def test_aut_to_virasoro_roundtrip():
    from superloewner.evolution import _exp_vector_field_on_z
    rng = random.Random(8)
    for _ in range(8):
        rho = AutSeries([rational(Fraction(rng.randint(-3, 3),
                                           rng.randint(1, 4)))
                         for _ in range(N + 1)], R)
        v = aut_to_virasoro(rho)
        phi = _exp_vector_field_on_z(v, N, R)
        # matched through z^{1-N}; the z^-N slot belongs to v_{-(N+1)}
        for p in range(0, -(N - 1) - 1, -1):
            assert phi.coeff(p) == rho.coeff(p), p


# -- represented state ------------------------------------------------------

def test_assemble_identity_state():
    mod = Module(R, rational(1), N)
    v = assemble_state_vector(state(), mod)
    assert v == Vector.floor_vector(mod)


def test_assemble_translation_state_is_vacuum():
    mod = Module(R, rational(1), N)
    rho = AutSeries([rational(5), R.zero, R.zero, R.zero, R.zero], R)
    v = assemble_state_vector(state(rho=rho), mod)
    assert v == Vector.floor_vector(mod)


def test_assemble_xh_exponential():
    c = rational("1/3")
    mod = Module(R, rational(1), N)
    v = assemble_state_vector(state(xH=tail(["1/3"])), mod)
    v0 = Vector.floor_vector(mod)
    h1 = act_mode(mode("H", -1), v0)
    expected = v0 + h1.scale(c) \
        + act_mode(mode("H", -1), h1).scale(c * c / 2) \
        + act_word((mode("H", -1),) * 3, v0).scale(c ** 3 / 6) \
        + act_word((mode("H", -1),) * 4, v0).scale(c ** 4 / 24)
    assert v == expected


def test_assemble_lone_odd_factor_dies_under_berezin():
    mod = Module(R, rational(1), N)
    v = assemble_state_vector(state(x1e=tail(["1/2"])), mod)
    assert v == Vector.floor_vector(mod)


def test_assemble_l1_l2_product_term():
    mod = Module(R, rational(1), N)
    c1, c2 = rational("1/2"), rational("1/3")
    v = assemble_state_vector(state(x1f=tail(["1/2"]), x2e=tail(["1/3"])),
                              mod)
    v0 = Vector.floor_vector(mod)
    expected = v0 + act_word((mode("f", -1), mode("e", -1)), v0).scale(c1 * c2)
    assert v == expected


def test_represented_coordinate_change_conjugates_currents():
    # Q(rho) X(g) Q(rho)^{-1} = X(g o rho) on the truncated module, with
    # Q in exponential Virasoro coordinates (Grassmann weights ride along
    # unchanged, so the statement is tested on the plain module)
    mod = Module(R, rational("1/2"), N)
    v0 = Vector.floor_vector(mod)
    probes = [v0, act_mode(mode("F", -1), v0)]
    cases = [AutSeries([rational("1/4"), R.zero, R.zero, R.zero, R.zero], R),
             AutSeries([R.zero, rational("1/3"), R.zero, R.zero, R.zero], R),
             AutSeries([R.zero, R.zero, rational("-2/5"), R.zero, R.zero], R)]
    for rho in cases:
        vs = aut_to_virasoro(rho)

        def q_op(w, sign=1):
            acc = Vector(mod, {})
            for j, vj in enumerate(vs, start=1):
                if vj.is_zero():
                    continue
                acc = acc + sugawara(-j, w, project=True).scale(
                    vj * R.from_int(sign))
            return acc

        def exp_op(w, sign=1):
            acc, term = w, w
            for m in range(1, mod.nrep + 1):
                term = q_op(term, sign).scale(R.one / R.from_int(m))
                if term.is_zero():
                    break
                acc = acc + term
            return acc

        for sym in ("E", "e", "H"):
            for j in (1, 2):
                g = TailSeries.monomial(-j, R.one, N, R)
                gr = substitute(g, rho)
                for w in probes:
                    lhs = exp_op(w, sign=-1)
                    lhs = _mode_sum(mod, sym, g, lhs)
                    lhs = exp_op(lhs)
                    rhs = _mode_sum(mod, sym, gr, w)
                    assert lhs == rhs, (sym, j)


def _mode_sum(mod, sym, g, w):
    acc = Vector(mod, {})
    for j in range(1, g.order + 1):
        c = g.coeffs[j - 1]
        if c.is_zero():
            continue
        acc = acc + act_mode(mode(sym, -j), w, project=True).scale(c)
    return acc


def test_zero_noise_xh_drift_matches_closed_form():
    # with all increments zero, x^H integrates -(tau/2)/rho_t(z)^2 along
    # rho_t = sqrt(z^2+4t):  x^H_t = -(tau/8) log(1 + 4t/z^2), i.e.
    # coefficients -tau t/2 at z^-2 and tau t^2 at z^-4.  Richardson
    # extrapolation of two Euler runs is the fine-step reference.
    from superloewner.scalars import COMPLEX

    tau, t_final = 0.8, 0.01

    def run(dt):
        nsteps = int(round(t_final / dt))
        s = initial_state(4, COMPLEX)
        zero = {"B0": 0.0, "B1": 0.0, "B2": 0.0, "B3": 0.0, "Ba": 0.0}
        for _ in range(nsteps):
            s = flow_step(s, dt, zero, tau)
        return s

    coarse = run(4e-6)
    fine = run(2e-6)
    richardson = [2 * complex(f) - complex(c)
                  for f, c in zip(fine.xH.coeffs, coarse.xH.coeffs)]
    closed = [0.0, -tau * t_final / 2, 0.0, tau * t_final ** 2]
    for got, want in zip(richardson, closed):
        if want == 0.0:
            assert abs(got) < 1e-12
        else:
            assert abs(got - want) / abs(want) < 1e-6
    for name in ("xE", "xF", "x1e", "x1f", "x2e", "x2f", "x12E", "x12F"):
        assert all(abs(complex(c)) < 1e-15
                   for c in getattr(fine, name).coeffs), name


def test_flow_step_updates_everything():
    s = state()
    tau = rational("4/5")
    incs = {"B0": rational("1/9"), "B1": rational("1/8"),
            "B2": rational("-1/7"), "B3": rational("1/6"),
            "Ba": rational("1/5")}
    out = flow_step(s, rational("1/100"), incs, tau)
    assert out.rho.coeff(0) == -incs["B0"]
    assert not out.xH.is_zero()
    assert not out.x1f.is_zero()
    assert out.t == pytest.approx(0.01)


@pytest.mark.parametrize("variant", ["derived", "displayed"])
def test_batch_step_matches_exact_step(variant):
    # a 3-path COMPLEX batch, the third path all zero, each path with its
    # own increments, against the exact step of each path cast to complex
    from dataclasses import replace
    rng = random.Random(4242)

    def q():
        return rational(Fraction(rng.randint(-3, 3), rng.randint(2, 6)))

    states = [replace(initial_state(N, R),
                      rho=AutSeries([q() for _ in range(N + 1)], R),
                      **{n: TailSeries([q() for _ in range(N)], R)
                         for n in PROCESS_NAMES})
              for _ in range(2)] + [initial_state(N, R)]
    incs = [[{d: rational(Fraction(rng.randint(-9, 9), rng.randint(20, 60)))
              for d in DRIVERS} for _ in states] for _ in range(2)]
    dt, tau = rational("1/100"), rational("4/5")

    def batch(series, cls):
        return cls([np.array([to_complex(c) for c in cs])
                    for cs in zip(*(x.coeffs for x in series))], COMPLEX)

    def names():
        return ("rho",) + PROCESS_NAMES

    b = FlowState(**{n: batch([getattr(s, n) for s in states],
                              AutSeries if n == "rho" else TailSeries)
                     for n in names()}, t=0.0)
    for step in incs:
        states = [flow_step(s, dt, inc, tau, variant=variant)
                  for s, inc in zip(states, step)]
        b = flow_step(b, to_complex(dt).real,
                      {d: np.array([to_complex(inc[d]).real for inc in step])
                       for d in DRIVERS},
                      to_complex(tau).real, variant=variant)
    for name in names():
        got = getattr(b, name).coeffs
        for path, s in enumerate(states):
            want = [to_complex(c) for c in getattr(s, name).coeffs]
            for j, (g, w) in enumerate(zip(got, want)):
                g = complex(np.broadcast_to(g, (len(states),))[path])
                assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), \
                    (name, j, path, g, w)


def test_batch_kernels_leave_their_inputs_untouched():
    # the kernels add in place only into arrays they made, so no input
    # coefficient or increment of a batch step may change by a bit
    rng = np.random.default_rng(31)

    def arr():
        return rng.standard_normal(3) + 1j * rng.standard_normal(3)

    s = FlowState(rho=AutSeries([arr() for _ in range(N + 1)], COMPLEX),
                  **{n: TailSeries([arr() for _ in range(N)], COMPLEX)
                     for n in PROCESS_NAMES}, t=0.0)
    incs = {d: rng.standard_normal(3) * 0.03 for d in DRIVERS}
    inputs = [c for n in ("rho",) + PROCESS_NAMES
              for c in getattr(s, n).coeffs] + list(incs.values())
    before = [c.tobytes() for c in inputs]
    for variant in ("derived", "displayed"):
        flow_step(s, 1e-3, incs, 0.8, variant=variant)
    series_inv_aut(s.rho)
    e = series_exp(s.xH)
    e * s.xF
    e * series_exp(s.xF)
    assert [c.tobytes() for c in inputs] == before
