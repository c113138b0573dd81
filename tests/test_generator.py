import dataclasses
import random
from fractions import Fraction

import pytest

from superloewner.affine import (Module, Vector, act_mode, act_word,
                                 expectation, mode, sugawara)
from superloewner.evolution import (DRIVERS, PROCESS_NAMES, VIRASORO,
                                    FlowState, assemble, assemble_state_vector,
                                    dict_apply, flow_step, initial_state)
from superloewner.generator import ItoJet, JetRing, jet_state, state_drift
from superloewner.observables import observable_current
from superloewner.scalars import EXACT, is_zero, rational
from superloewner.series import AutSeries, TailSeries
from superloewner.superalgebra import SYMBOLS

R = EXACT


def _spec():
    return JetRing(R, (rational(2), rational("4/5"), rational("4/5"),
                       rational("4/5"), rational("4/5")))


def _jet(spec, val, dt, b):
    return ItoJet(val, dt, b, spec.base, spec.variances)


def test_jet_ring_ito_rule():
    spec = _spec()
    zb = R.zero
    # x = s + beta_0: E[x^2] picks up the variance kappa
    x = _jet(spec, rational(3), zb, (R.one, zb, zb, zb, zb))
    sq = x * x
    assert sq.val == rational(9)
    assert sq.dt == rational(2)  # kappa = 2
    assert sq.b[0] == rational(6)
    # independent drivers have zero cross variation
    y = _jet(spec, rational(1), zb, (zb, R.one, zb, zb, zb))
    xy = x * y
    assert xy.dt == R.zero
    # drift adds linearly
    z = _jet(spec, rational(1), rational(5), (zb,) * 5)
    assert (x * z).dt == rational(15)


def test_jet_inverse():
    spec = _spec()
    zb = R.zero
    x = _jet(spec, rational(2), rational("1/3"),
             (rational(1), zb, rational("1/2"), zb, zb))
    assert (x * x.inverse() - spec.one).is_zero()
    assert (x.inverse() * x - spec.one).is_zero()


def test_jet_times_a_base_scalar_scales_each_slot():
    spec = _spec()
    x = _jet(spec, rational(2), rational("1/3"),
             (rational(1), R.zero, rational("-1/2"), R.i, R.zero))
    c = rational("3/7") + R.sqrt2
    for got in (x * c, c * x):
        assert got == x * spec.lift(c)
        assert (got.val, got.dt, got.b) == (x.val * c, x.dt * c,
                                            tuple(b * c for b in x.b))


def test_jet_division_by_int():
    spec = _spec()
    x = _jet(spec, rational(3), rational(6), (R.one,) * 5)
    h = x / 3
    assert h.val == rational(1) and h.dt == rational(2)


def _dense_product(x, y):
    """The Ito product written out, every slot multiplied, zero or not."""
    ito = x.base.zero
    for var, xb, yb in zip(x.variances, x.b, y.b):
        ito = ito + var * xb * yb
    return ItoJet(x.val * y.val, x.val * y.dt + x.dt * y.val + ito,
                  [x.val * yb + xb * y.val for xb, yb in zip(x.b, y.b)],
                  x.base, x.variances)


def _sparse_jet(spec, rng, draw):
    """A jet over spec whose val, dt and beta slots are each zero with
    probability 1/2 and draw() otherwise."""
    val, dt, *b = [draw() if rng.random() < 0.5 else spec.base.zero
                   for _ in range(7)]
    return ItoJet(val, dt, b, spec.base, spec.variances)


def test_jet_product_equals_the_dense_ito_product():
    rng = random.Random(5)
    spec = _spec()
    jets = [_sparse_jet(spec, rng, lambda: rational(
        Fraction(rng.randint(-3, 3), rng.randint(1, 4)))) for _ in range(12)]
    # nested: a jet over the jet ring, whose slots are jets themselves
    outer = JetRing(spec, [spec.lift(v) for v in spec.variances])
    nested = [_sparse_jet(outer, rng, lambda: rng.choice(jets))
              for _ in range(8)]
    assert any(is_zero(b) for x in jets + nested for b in x.b)
    for family in (jets, nested):
        for x in family:
            for y in family:
                got, want = x * y, _dense_product(x, y)
                assert (got.val, got.dt, got.b) == (want.val, want.dt,
                                                    want.b)


def _rand_state(order, rng):
    def tail():
        cs = [R.zero] * order
        for idx in rng.sample(range(order), 2):
            cs[idx] = rational(Fraction(rng.randint(-2, 2),
                                        rng.randint(1, 3)))
        return TailSeries(cs, R)
    rho = AutSeries([rational(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
                     for _ in range(order + 1)], R)
    names = ("xE", "xH", "xF", "x1e", "x1f", "x2e", "x2f",
             "x12E", "x12H", "x12F")
    return FlowState(rho=rho, **{n: tail() for n in names}, t=0.0)


def _dense_state(order, rng):
    """Every coefficient a nonzero small rational."""
    def coeffs(n):
        return [rational(Fraction(rng.choice((-2, -1, 1, 2)),
                                  rng.randint(1, 3))) for _ in range(n)]
    return FlowState(rho=AutSeries(coeffs(order + 1), R),
                     **{n: TailSeries(coeffs(order), R)
                        for n in PROCESS_NAMES}, t=0.0)


def _depth(mono):
    return sum(-n for _, n in mono if n < 0)


def test_initial_state_drift_is_exactly_zero():
    k, kap = rational(1), rational(2)
    tau = rational(2) / (k + rational("3/2"))
    d = state_drift(initial_state(3, R), k, kap, tau, R, 3)
    assert d.is_zero()


def test_displayed_variant_drifts_at_time_zero():
    k, kap = rational(1), rational(2)
    tau = rational(2) / (k + rational("3/2"))
    d = state_drift(initial_state(3, R), k, kap, tau, R, 3,
                    variant="displayed")
    assert not d.is_zero()
    assert any(_depth(m) <= 2 for m in d.terms)


def test_derived_variant_is_local_martingale_on_low_depth():
    # drift of the assembled state vanishes identically on every
    # depth <= 2 component and every <0|E(n) functional, at random
    # rational states and two (k, kappa) pairs
    rng = random.Random(123)
    for kq, kapq in (("1", "2"), ("1/2", "8/3")):
        k, kap = rational(kq), rational(kapq)
        tau = rational(2) / (k + rational("3/2"))
        for _ in range(2):
            s = _rand_state(3, rng)
            d = state_drift(s, k, kap, tau, R, 3)
            assert not any(_depth(m) <= 2 for m in d.terms), (kq, kapq)
            for n in (1, 2):
                assert expectation([mode("E", n)], d).is_zero(), (kq, n)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the derived drift is not zero at depth 3: with only the "
           "zeta^-1 coefficient c = 1 of x12H set, it has H(-2)H(-1) = -1/5 "
           "and H(-1)e(-1)f(-1) = 2/5, that is c H(-1) tau (-1/4 H(-2) "
           "+ 1/2 e(-1)f(-1))|0>; it does not depend on kappa")
def test_derived_drift_vanishes_at_depth_3():
    k, kap, tau = rational(1), rational(2), rational("4/5")
    s = dataclasses.replace(initial_state(3, R),
                            x12H=TailSeries.monomial(-1, R.one, 3, R))
    d = state_drift(s, k, kap, tau, R, 3)
    assert not [m for m in d.terms if _depth(m) == 3]


def _reached(variant, tau, seed):
    """The state after 3 exact Euler steps from the order-4 vacuum."""
    rng = random.Random(seed)
    s = initial_state(4, R)
    for _ in range(3):
        incs = {d: rational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                for d in DRIVERS}
        s = flow_step(s, rational("1/10"), incs, tau, variant=variant)
    return s


# the zeta^{-j} coefficients, j listed, that the flow from the vacuum never
# sets: every base of these processes starts one or two degrees lower
_STRUCTURAL_ZEROS = {
    "derived": {"x1e": [1], "x2f": [1], "x12E": [1, 2], "x12H": [1],
                "x12F": [1, 2]},
    "displayed": {"x1f": [1], "x2e": [1], "x12E": [1, 2], "x12H": [1],
                  "x12F": [1, 2]},
}


@pytest.mark.parametrize("variant", ["derived", "displayed"])
def test_structural_zeros_on_reachable_states(variant):
    for seed in range(3):
        s = _reached(variant, rational("4/5"), seed)
        for name, js in _STRUCTURAL_ZEROS[variant].items():
            coeffs = getattr(s, name).coeffs
            assert all(coeffs[j - 1] == R.zero for j in js), (seed, name)
            # the next coefficient does move
            assert coeffs[js[-1]] != R.zero, (seed, name)


@pytest.mark.parametrize("kq,kapq", [("1", "2"), ("1/2", "8/3")])
def test_derived_drift_vanishes_at_depth_3_on_reachable_states(kq, kapq):
    # the xfail above sets x12H's zeta^{-1} coefficient, which the flow
    # never does; on the states it reaches the depth-3 drift is zero, and
    # the displayed variant, the control, drifts there
    k, kap = rational(kq), rational(kapq)
    tau = rational(2) / (k + rational("3/2"))
    for variant in ("derived", "displayed"):
        d = state_drift(_reached(variant, tau, 0), k, kap, tau, R, 3,
                        variant=variant)
        assert d.is_zero() == (variant == "derived"), variant


def _body_drift_on_vacuum(k, kap, tau):
    """D|0>: the dt part of the jet-assembled vacuum with the seven odd and
    top processes set to zero, so that only the body moves."""
    spec, js = jet_state(initial_state(4, R), kap, tau)
    zero = TailSeries.zero(4, spec)
    js = dataclasses.replace(js, **{n: zero for n in (
        "x1e", "x1f", "x2e", "x2f", "x12E", "x12H", "x12F")})
    jvec = assemble_state_vector(js, Module(spec, k, 4))
    return Vector(Module(R, k, 4), {m: c.dt for m, c in jvec.terms.items()})


# <0|e(1)f(3)| on (H(-2) D|0>, f(-1)e(-1) D|0>), frozen from the jet
# computation
_E1F3 = {"1": (rational("-14/5"), rational("-28/5")),
         "1/2": (rational("-5/4"), rational("-5/2"))}


@pytest.mark.parametrize("kq,kapq", [("1", "2"), ("1/2", "8/3")])
def test_derived_drift_at_depth_4_on_reachable_states(kq, kapq):
    # on a reached state the drift first appears at depth 4, as
    # (x12H_2 H(-2) + x1f_1 x2e_1 f(-1)e(-1)) D|0>, and no single-mode
    # word to depth 4 sees either direction
    k, kap = rational(kq), rational(kapq)
    tau = rational(2) / (k + rational("3/2"))
    dvac = _body_drift_on_vacuum(k, kap, tau)
    vac = Vector.floor_vector(dvac.module)
    assert dvac == (act_word([mode("H", -2)], vac).scale(-tau / 4)
                    + act_word([mode("e", -1), mode("f", -1)],
                               vac).scale(tau / 2))
    s = _reached("derived", tau, 0)
    d = state_drift(s, k, kap, tau, R, 4)
    assert not d.is_zero()
    assert not any(_depth(m) <= 3 for m in d.terms)
    h2 = act_word([mode("H", -2)], dvac)
    fe = act_word([mode("f", -1), mode("e", -1)], dvac)
    assert d == (h2.scale(s.x12H.coeffs[1])
                 + fe.scale(s.x1f.coeffs[0] * s.x2e.coeffs[0]))
    for v, e1f3 in zip((h2, fe), _E1F3[kq]):
        for x in SYMBOLS:
            for n in range(1, 5):
                assert expectation([mode(x, n)], v).is_zero(), (x, n)
        # a two-mode word does see it
        assert expectation([mode("e", 1), mode("f", 3)], v) == e1f3


def test_nested_jets_give_the_second_generator_at_the_vacuum():
    # jet_state over a jet ring: the outer jets carry the state's own SDE,
    # so state_drift returns Lf as outer jets whose dt part is L(Lf)
    k, kap, tau = rational(1), rational(2), rational("4/5")
    outer, js = jet_state(initial_state(4, R), kap, tau)
    d = state_drift(js, k, outer.lift(kap), outer.lift(tau), outer, 4)
    assert all(c.val.is_zero() for c in d.terms.values())
    l2 = Vector(Module(R, k, 4), {m: c.dt for m, c in d.terms.items()})
    vac = Vector.floor_vector(l2.module)

    def word(*modes):
        return act_word([mode(x, n) for x, n in modes], vac)
    assert l2 == (word(("E", -2), ("F", -2)).scale(rational("-4/25"))
                  + word(("H", -4)).scale(rational("2/25"))
                  - word(("H", -2), ("H", -2)).scale(rational("1/25"))
                  + word(("e", -3), ("f", -1)).scale(rational("2/25"))
                  - word(("f", -3), ("e", -1)).scale(rational("2/25")))

    def d_op(v):
        return (act_word([mode("H", -2)], v).scale(rational("-1/4"))
                + act_word([mode("e", -1), mode("f", -1)], v).scale(
                    rational("1/2")))
    assert l2 == d_op(d_op(vac)).scale(-tau * tau)


def test_wrong_tau_breaks_the_balance():
    k, kap = rational(1), rational(2)
    d = state_drift(initial_state(3, R), k, kap, rational("1/3"), R, 3)
    assert not d.is_zero()


def test_displayed_variant_drift_structure_at_time_zero():
    # the imbalance is confined to the odd-pair/H(-2) sector; values
    # frozen from the jet computation at k=1, kappa=2, tau=4/5
    k, kap = rational(1), rational(2)
    tau = rational(2) / (k + rational("3/2"))
    d = state_drift(initial_state(3, R), k, kap, tau, R, 3,
                    variant="displayed")
    from superloewner.affine import mode
    want = {
        (mode("e", -1), mode("f", -1)): rational(2),
        (mode("H", -2),): rational("-3/5"),
    }
    assert d.terms == want


def test_current_observable_coefficients_have_zero_drift():
    # push jets through the closed-form observable as well
    rng = random.Random(9)
    k = rational(1)
    kap = rational("8/3")
    tau = rational(2) / (k + rational("3/2"))
    s = _rand_state(4, rng)
    spec, js = jet_state(s, kap, tau)
    o = observable_current(js, spec.lift(k), spec)
    for n in range(1, 4):
        jet = o.coeff(-n - 1)
        assert jet.dt.is_zero(), n


# the seven odd and top processes: zero them and only the body
# B = e^{E x^E} e^{H x^H} e^{F x^F} Q(rho) is left
_ODD_AND_TOP = ("x1e", "x1f", "x2e", "x2f", "x12E", "x12H", "x12F")


def _dict_apply(module):
    """Per-piece reference for `dict_apply`: one act_mode or sugawara
    call per nonzero piece, each image scaled and added on its own."""
    def apply(pieces, w):
        acc = Vector(module, {})
        for (sym, j), c in pieces:
            if is_zero(c):
                continue
            image = (sugawara(-j, w, project=True) if sym == VIRASORO
                     else act_mode(mode(sym, -j), w, project=True))
            acc = acc + image.scale(c)
        return acc
    return apply


@pytest.mark.parametrize("nrep", [3, 4])
def test_one_pass_assembly_equals_the_per_piece_sum(nrep):
    rng = random.Random(nrep)
    k = rational("2/3")
    for s in [_dense_state(nrep, rng) for _ in range(2)]:
        mod = Module(R, k, nrep)
        want = assemble(s, _dict_apply(mod), Vector.floor_vector(mod), nrep)
        assert assemble_state_vector(s, mod).terms == want.terms
    # over Ito jets: the state's own SDE rides along in every coefficient
    spec, js = jet_state(_dense_state(3, rng), rational(2), rational("4/5"))
    jmod = Module(spec, k, 3)
    want = assemble(js, _dict_apply(jmod), Vector.floor_vector(jmod), 3)
    assert assemble_state_vector(js, jmod).terms == want.terms


def test_one_pass_apply_drops_past_the_bound_and_skips_zero_pieces():
    k, nrep = rational("2/3"), 3
    mod = Module(R, k, nrep)
    v0 = Vector.floor_vector(mod)
    w = (act_word((mode("H", -1), mode("e", -1)), v0)
         + act_mode(mode("F", -1), v0).scale(rational(3)) + v0)
    keep = [(("E", 1), rational("1/2")), ((VIRASORO, 2), rational(-2)),
            (("f", 1), R.sqrt2)]
    # H(-2) and L_{-2} carry the depth-2 term of w past depth 3
    past = [(("H", 2), rational(5)), ((VIRASORO, 2), rational("1/7"))]
    zero = [(("e", 1), R.zero), ((VIRASORO, 1), R.zero)]
    for pieces in (keep, past, zero, keep + past + zero, zero + keep):
        assert dict_apply(pieces, w) == _dict_apply(mod)(pieces, w), pieces
    assert dict_apply(zero, w).is_zero()
    assert dict_apply(keep + zero, w) == dict_apply(keep, w)
    # projection drops exactly the images deeper than the bound
    deep = Module(R, k, 5)
    full = _dict_apply(deep)(past, Vector(deep, w.terms)).terms
    kept = {m: c for m, c in full.items()
            if sum(-n for _, n in m) <= nrep}
    assert kept != full and dict_apply(past, w).terms == kept


def test_drift_is_the_odd_sector_on_the_body_drift_at_any_state():
    # state_drift(s) = [L12 + L1 L2] B D|0> at depth 3, with
    # D|0> = tau (-1/4 H(-2) + 1/2 e(-1)f(-1))|0>: assemble from the floor
    # D|0> and subtract the body alone
    rng = random.Random(31)
    cases = [(kq, kapq, _rand_state(3, rng))
             for kq, kapq in (("1", "2"), ("1/2", "8/3")) for _ in range(3)]
    cases += [("1", "2", _dense_state(3, rng)) for _ in range(3)]
    for kq, kapq, s in cases:
        k, kap = rational(kq), rational(kapq)
        tau = rational(2) / (k + rational("3/2"))
        module = Module(R, k, 3)
        vac = Vector.floor_vector(module)
        d0 = (act_word([mode("H", -2)], vac).scale(-tau / 4)
              + act_word([mode("e", -1), mode("f", -1)], vac).scale(tau / 2))
        zero = TailSeries.zero(3, R)
        body = dataclasses.replace(s, **dict.fromkeys(_ODD_AND_TOP, zero))
        want = (assemble(s, dict_apply, d0, 3)
                - assemble(body, dict_apply, d0, 3))
        assert state_drift(s, k, kap, tau, R, 3) == want, (kq, kapq)


def _series(s):
    return [s.rho] + [getattr(s, n) for n in PROCESS_NAMES]


def _weight_scaled(s, lam):
    """Coefficient i of every series times lam^(i+1): a tail's
    zeta^{-j} coefficient has weight j, rho's a_{-j} weight j + 1."""
    def scaled(series):
        return type(series)([c * lam ** w for w, c in
                             enumerate(series.coeffs, start=1)], R)
    return dataclasses.replace(s, rho=scaled(s.rho), **{
        n: scaled(getattr(s, n)) for n in PROCESS_NAMES})


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("variant", ["derived", "displayed"])
def test_weight_grading_of_the_flow(variant, order):
    # with dB of weight 1 and dt of weight 2, a coefficient of weight w
    # has a drift of weight w - 2 and diffusions of weight w - 1
    lam = rational(3)
    kap, tau = rational(2), rational("4/5")
    rng = random.Random(order)
    for s in (_rand_state(order, rng), _dense_state(order, rng)):
        _, js = jet_state(s, kap, tau, variant=variant)
        _, jl = jet_state(_weight_scaled(s, lam), kap, tau, variant=variant)
        for sa, sb in zip(_series(js), _series(jl)):
            for w, (a, b) in enumerate(zip(sa.coeffs, sb.coeffs), start=1):
                assert b.val == a.val * lam ** w, w
                assert b.dt == a.dt * lam ** (w - 2), w
                assert all(y == x * lam ** (w - 1)
                           for x, y in zip(a.b, b.b)), w
