import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest

from superloewner.affine import (DepthOverflowError, Module, Vector,
                                 _normal_order_product, act_mode, act_word,
                                 annihilator_apply, expectation, mode,
                                 sugawara)
from superloewner.evolution import PROCESS_NAMES, FlowState
from superloewner.generator import JetRing, state_drift
from superloewner.grassmann import GrassRing, berezin
from superloewner.matrixrep import _basis_monomials
from superloewner.scalars import EXACT, rational
from superloewner.series import AutSeries, TailSeries
from superloewner.superalgebra import (CASIMIR, H_VEE, CriticalLevelError,
                                       PARITY, SYMBOLS, bracket_symbols,
                                       form_symbols)

R = EXACT


def module(k="1", nrep=4, **kw):
    return Module(R, rational(k), nrep, **kw)


def vac(mod):
    return Vector.floor_vector(mod)


def test_act_mode_examples():
    mod = module()
    k = mod.k
    v0 = vac(mod)
    assert act_mode(mode("E", 1), act_mode(mode("F", -1), v0)) == v0.scale(k)
    assert act_mode(mode("e", 1), act_mode(mode("e", -1), v0)).is_zero()
    assert act_mode(mode("f", 1), act_mode(mode("e", -1), v0)) \
        == v0.scale(rational(-2) * k)


def test_repeated_odd_mode_reduces():
    mod = module()
    v0 = vac(mod)
    ee = act_word((mode("e", -1), mode("e", -1)), v0)
    assert ee == act_mode(mode("E", -2), v0)
    ff = act_word((mode("f", -1), mode("f", -1)), v0)
    assert ff == -act_mode(mode("F", -2), v0)


def test_affine_bracket_compatibility():
    # act(X(m), act(Y(n), v)) -+ act(Y(n), act(X(m), v))
    #   = act([X,Y](m+n), v) + m (X|Y) delta_{m+n,0} k v
    mod = Module(R, rational("2/3"), 8)
    v0 = vac(mod)
    probes = [v0, act_mode(mode("H", -1), v0),
              act_word((mode("e", -1), mode("f", -1)), v0)]
    for sx, sy in itertools.product(SYMBOLS, repeat=2):
        for m, n in ((1, -1), (2, -2), (-1, -1), (0, -2), (1, 0), (-2, 1)):
            for v in probes:
                a = act_mode(mode(sx, m), act_mode(mode(sy, n), v))
                sign = -1 if PARITY[sx] and PARITY[sy] else 1
                b = act_mode(mode(sy, n), act_mode(mode(sx, m), v))
                lhs = a - b.scale(R.from_int(sign))
                rhs = Vector(mod, {})
                for s2, c in bracket_symbols(sx, sy).items():
                    rhs = rhs + act_mode(mode(s2, m + n), v).scale(
                        R.from_int(c))
                if m + n == 0:
                    rhs = rhs + v.scale(
                        R.from_int(m * form_symbols(sx, sy)) * mod.k)
                assert lhs == rhs, (sx, sy, m, n)


def test_depth_overflow():
    mod = module(nrep=2)
    v = act_word((mode("H", -1), mode("H", -1)), vac(mod))
    with pytest.raises(DepthOverflowError):
        act_mode(mode("E", -1), v)
    assert act_mode(mode("E", -1), v, project=True).is_zero()


def test_normal_order_examples():
    mod = module()
    v0 = vac(mod)
    assert _normal_order_product(mode("E", 1), mode("F", -1), v0).is_zero()
    ordered = _normal_order_product(mode("e", -1), mode("f", -1), v0)
    assert ordered == act_word((mode("e", -1), mode("f", -1)), v0)
    assert _normal_order_product(mode("f", 1), mode("e", -1), v0).is_zero()
    # the odd-odd reordering carries the minus sign
    w = act_mode(mode("f", -2), v0)
    lhs = _normal_order_product(mode("f", 1), mode("e", -1), w)
    rhs = -act_word((mode("e", -1), mode("f", 1)), w)
    assert lhs == rhs


def test_vacuum_sugawara_values():
    mod = module(k="1")
    v0 = vac(mod)
    assert sugawara(0, v0).is_zero()
    assert sugawara(-1, v0).is_zero()
    assert sugawara(1, sugawara(-1, v0)).is_zero()
    pref = (rational(2) + rational(3)).inverse()  # 1/(2k+3) at k=1
    l2 = sugawara(-2, v0)
    expected = {
        (mode("E", -1), mode("F", -1)): rational(2) * pref,
        (mode("H", -2),): rational("-1/2") * pref,
        (mode("H", -1), mode("H", -1)): rational("1/2") * pref,
        (mode("e", -1), mode("f", -1)): -pref,
    }
    assert l2.terms == expected
    l3 = sugawara(-3, v0)
    expected3 = {
        (mode("H", -2), mode("H", -1)): pref,
        (mode("E", -2), mode("F", -1)): rational(2) * pref,
        (mode("F", -2), mode("E", -1)): rational(2) * pref,
        (mode("f", -2), mode("e", -1)): pref,
        (mode("e", -2), mode("f", -1)): -pref,
    }
    assert l3.terms == expected3


def test_central_charge_coefficient():
    for kq in ("1/2", "1", "3"):
        mod = module(kq)
        k = mod.k
        got = sugawara(2, sugawara(-2, vac(mod))).floor_coeff()
        assert got == k * (rational(2) * k + rational(3)).inverse()


def _virasoro_pairs():
    return ((1, -1), (2, -2), (1, -2), (2, -1),
            (0, 1), (0, -1), (0, 2), (0, -2))


def test_virasoro_brackets_exact():
    for kq in ("1/2", "1", "3"):
        mod = module(kq)
        k = mod.k
        ck = k * (k + rational("3/2")).inverse()
        v0 = vac(mod)
        probes = [v0, act_mode(mode("H", -1), v0),
                  act_mode(mode("e", -1), v0),
                  act_word((mode("E", -1), mode("F", -1)), v0)]
        for m, n in _virasoro_pairs():
            for v in probes:
                lhs = (sugawara(m, sugawara(n, v, project=True), project=True)
                       - sugawara(n, sugawara(m, v, project=True),
                                  project=True))
                rhs = sugawara(m + n, v, project=True).scale(R.from_int(m - n))
                if m + n == 0:
                    rhs = rhs + v.scale(ck * R.from_int(m ** 3 - m) / 12)
                assert lhs == rhs, (kq, m, n)


def test_current_primary_at_weight_one():
    mod = module("1")
    v0 = vac(mod)
    probes = [v0, act_mode(mode("H", -1), v0), act_mode(mode("e", -1), v0)]
    for s in SYMBOLS:
        for m, n in ((1, -1), (2, -2), (1, -2), (0, 1), (-1, -1)):
            for v in probes:
                lhs = (sugawara(m, act_mode(mode(s, n), v, project=True),
                                project=True)
                       - act_mode(mode(s, n), sugawara(m, v, project=True),
                                  project=True))
                rhs = act_mode(mode(s, m + n), v, project=True).scale(
                    R.from_int(-n))
                assert lhs == rhs, (s, m, n)


def test_sugawara_critical_level():
    mod = module("-3/2")
    with pytest.raises(CriticalLevelError):
        sugawara(-1, vac(mod))


# slots of a Grassmann coefficient on the basis (1, eta1, eta2, eta12)
_BODY, _ETA1, _ETA2 = 0, 1, 2


def _grass_module(kq, nrep=4):
    G = GrassRing(EXACT)
    return Module(G, rational(kq), nrep), G


def test_annihilator_exact_zero_at_default_tau():
    rng = random.Random(314)
    samples = [("1/2", "2"), ("1", "8/3"), ("3", "4")]
    samples += [(str(Fraction(rng.randint(1, 12), rng.randint(1, 4))),
                 str(Fraction(rng.randint(1, 12), rng.randint(1, 4))))
                for _ in range(20)]
    for kq, kapq in samples:
        mod, G = _grass_module(kq)
        tau = G.lift(
            rational(2) * (rational(kq) + rational("3/2")).inverse())
        kap = G.from_rational(kapq)
        v0 = vac(mod)
        v = v0 + v0.scale(G.eta12)
        out = annihilator_apply(kap, tau, v)
        assert all(berezin(c).is_zero() for c in out.terms.values()), \
            (kq, kapq)


def test_annihilator_tau_zero_is_minus_2_l2():
    mod, G = _grass_module("1")
    v0 = vac(mod)
    out = annihilator_apply(G.zero, G.zero, v0)
    plain = module("1")
    want = sugawara(-2, vac(plain)).scale(rational(-2))
    got = Vector(plain, {m: c.coeffs[_BODY] for m, c in out.terms.items()})
    assert got == want
    assert not got.is_zero()


def test_annihilator_grassmann_sector():
    mod, G = _grass_module("1")
    out = annihilator_apply(G.one, G.one, vac(mod))
    for c in out.terms.values():
        assert c.coeffs[_ETA1].is_zero() and c.coeffs[_ETA2].is_zero()


@pytest.mark.parametrize("kq", ["1/2", "1", "3", "-5/3"])
@pytest.mark.parametrize("kapq", ["2", "8/3"])
def test_annihilator_and_null_candidate_are_one_operator(kq, kapq):
    # the Berezin projection of Xi (1 + eta1 eta2)|0> is Xi|0> with the
    # odd Casimir terms at weight 1, the operator nullscan.candidate_psi
    # applies: zero at tau = 2/(k + h_vee), four equal terms at tau = 1/3
    k, kap = rational(kq), rational(kapq)
    mod, G = _grass_module(kq)
    plain = module(kq)
    v0 = vac(mod)
    for tau, nterms in ((rational(2) / (k + rational("3/2")), 0),
                        (rational("1/3"), 4)):
        out = annihilator_apply(G.lift(kap), G.lift(tau),
                                v0 + v0.scale(G.eta12))
        projected = Vector(plain, {m: berezin(c)
                                   for m, c in out.terms.items()})
        direct = annihilator_apply(kap, tau, vac(plain), odd=R.one)
        assert projected == direct
        assert len(direct.terms) == nterms


def test_annihilator_needs_grassmann_ring_without_odd():
    with pytest.raises(TypeError, match="Grassmann"):
        annihilator_apply(R.one, R.one, vac(module("1")))


def test_odd_driver_square_identity():
    # (eta1 A + eta2 B)^2 = eta1 eta2 (AB - BA) for odd operators A, B;
    # the eta of the outer factor multiplies from the left
    mod, G = _grass_module("1")
    v0 = vac(mod)
    probes = [v0, act_mode(mode("H", -1), v0)]
    fa, eb = mode("f", -1), mode("e", -1)

    def lscale(w, s):
        return Vector(w.module, {m: s * c for m, c in w.terms.items()})

    for v in probes:
        def op(w):
            return (lscale(act_mode(fa, w, project=True), G.eta1)
                    + lscale(act_mode(eb, w, project=True), G.eta2))
        lhs = op(op(v))
        rhs = (act_word((fa, eb), v, project=True)
               - act_word((eb, fa), v, project=True)).scale(G.eta12)
        assert lhs == rhs


def test_expectation_examples():
    mod = module("1")
    v0 = vac(mod)
    assert expectation([], v0) == R.one
    assert expectation([mode("E", 1)], act_mode(mode("F", -1), v0)) == mod.k
    assert expectation([mode("H", 2)], act_mode(mode("H", -2), v0)) \
        == rational(4) * mod.k
    assert expectation([mode("H", 2)],
                       act_word((mode("e", -1), mode("f", -1)), v0)) \
        == rational(2) * mod.k


def conformal_weight(lam, k):
    """L_0 eigenvalue lambda(lambda+1)/(4(k + h_vee)) of the weight-lambda
    vector, at exact lambda and k."""
    lam, k = R.coerce(lam), R.coerce(k)
    denom = (k + R.from_rational(H_VEE)) * R.from_int(4)
    if denom.is_zero():
        raise CriticalLevelError(f"critical level k = {-H_VEE}")
    return lam * (lam + R.one) / denom


def test_conformal_weight():
    assert conformal_weight(0, 1) == R.zero
    assert conformal_weight(1, "1/2") == rational("1/4")
    assert conformal_weight(2, "3/2") == rational("1/2")
    with pytest.raises(CriticalLevelError):
        conformal_weight(1, "-3/2")


def test_conformal_weight_matches_l0_on_verma_floor():
    rng = random.Random(2)
    for _ in range(6):
        k = Fraction(rng.randint(-4, 8), rng.randint(1, 3))
        if k == Fraction(-3, 2):
            k += 1
        lam = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        mod = Module(R, rational(k), 3, floor="verma", weight=rational(lam))
        v = Vector.floor_vector(mod)
        l0 = sugawara(0, v)
        assert l0 == v.scale(conformal_weight(lam, k)), (k, lam)


def test_verma_floor_rules():
    mod = Module(R, rational(1), 3, floor="verma", weight=rational(5))
    v = Vector.floor_vector(mod)
    assert act_mode(mode("E", 0), v).is_zero()
    assert act_mode(mode("e", 0), v).is_zero()
    assert act_mode(mode("H", 0), v) == v.scale(rational(5))
    assert not act_mode(mode("F", 0), v).is_zero()
    # f(0)^2 = -F(0)
    ff = act_word((mode("f", 0), mode("f", 0)), v)
    assert ff == -act_mode(mode("F", 0), v)
    assert act_mode(mode("E", 2), v).is_zero()


def test_act_cache_is_shared_by_level_floor_and_weight_only():
    k = rational("3/4")
    shallow, deep = Module(R, k, 2), Module(R, k, 4)
    assert shallow._cache is deep._cache
    others = [Module(R, rational(2), 2),
              Module(R, k, 2, floor="verma", weight=rational(1)),
              Module(R, k, 2, floor="verma", weight=rational(2))]
    caches = [shallow._cache] + [m._cache for m in others]
    assert len({id(c) for c in caches}) == len(caches)
    # the depth bound is checked per module even on a shared cache
    v = act_word([mode("E", -1)] * 2, vac(deep))
    assert not act_mode(mode("E", -1), v).is_zero()
    with pytest.raises(DepthOverflowError):
        act_mode(mode("E", -1), Vector(shallow, v.terms))


def _drift_state(order):
    rng = random.Random(21)

    def coeffs(n):
        return [rational(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
                for _ in range(n)]
    return FlowState(rho=AutSeries(coeffs(order + 1), R),
                     **{n: TailSeries(coeffs(order), R)
                        for n in PROCESS_NAMES}, t=0.0)


def test_rings_over_one_root_share_its_table():
    k, state = rational(1), _drift_state(3)
    params = [(rational(2), rational("4/5")), (rational(3), rational("1/2"))]
    first = [state_drift(state, k, kap, tau, R, 3) for kap, tau in params]
    assert first[0] != first[1]
    again = [state_drift(state, k, kap, tau, R, 3) for kap, tau in params[::-1]]
    assert again[::-1] == first
    # modules over jet, Grassmann and nested jet rings of one root and one
    # k read one table, which holds root scalars
    a, b = (JetRing(R, (kap, tau, tau, tau, tau)) for kap, tau in params)
    nested = JetRing(a, tuple(map(a.lift, a.variances)))
    k = rational("4/13")
    rings = (R, a, b, GrassRing(R), nested)
    mods = [Module(ring, k, 3) for ring in rings]
    assert len({id(m._cache) for m in mods}) == 1
    want = sugawara(-2, act_mode(mode("e", -1), vac(mods[0])))
    for ring, mod in zip(rings, mods):
        got = sugawara(-2, act_mode(mode("e", -1), vac(mod)))
        lift = ring.lift if ring.base is not nested.base else \
            (lambda c: nested.lift(a.lift(c)))
        assert got.terms == {m: lift(c) for m, c in want.terms.items()}
    table = mods[0]._cache
    assert ("L", -2, (mode("e", -1),)) in table
    assert all(type(c) is type(R.one)
               for image in table.values() for c in image.values())


def test_dropped_jet_ring_is_collected():
    ring = JetRing(R, (rational(2),) * 5)
    mod = Module(ring, rational("7/9"), 3)
    act_word([mode("F", 1), mode("E", -1)], Vector.floor_vector(mod))
    assert mod._cache is Module(R, rational("7/9"), 3)._cache
    ref = weakref.ref(ring)
    del ring, mod
    gc.collect()
    assert ref() is None


def _casimir_sum(n, v, project=False):
    """L_n on v as the normal-ordered CASIMIR sum over the whole vector,
    prefactor 1/(2(k + 3/2))."""
    module = v.module
    span = module.nrep + abs(n) + 2
    acc = Vector(module, {})
    for j in range(-span, span + 1):
        for num, den, sa, sb in CASIMIR:
            term = _normal_order_product(mode(sa, n - j), mode(sb, j), v,
                                         project=project)
            acc = acc + term.scale(R.from_int(num) / den)
    return acc.scale((module.k * 2 + R.from_int(3)).inverse())


def test_sugawara_image_does_not_depend_on_fill_order():
    # one table serves every depth bound: fill it through one module, read
    # it through another; fresh levels, so no other test filled them
    for kq, (fill, read) in (("5/7", (2, 4)), ("6/11", (4, 2))):
        filler, reader = module(kq, fill), module(kq, read)
        assert filler._cache is reader._cache
        monos = _basis_monomials(2)
        for n in range(-2, 3):
            for mono in monos:
                filler._sugawara(n, mono)
        for n in range(-2, 3):
            for mono in monos:
                v = Vector(reader, {mono: R.one})
                assert ("L", n, mono) in reader._cache
                assert sugawara(n, v, project=True) == \
                    _casimir_sum(n, v, project=True), (kq, n, mono)


def _outcome(route, n, v):
    try:
        return route(n, v)
    except DepthOverflowError:
        return "raises"


def test_sugawara_raises_where_the_casimir_sum_does():
    k = "3/5"
    for nrep in (0, 1, 2):
        vectors = [Vector(module(k, nrep), {mono: R.one})
                   for mono in _basis_monomials(nrep)]
        verma = Vector.floor_vector(module(k, nrep, floor="verma",
                                           weight=rational(2)))
        vectors += [verma, act_mode(mode("f", 0), verma)]
        for v in vectors:
            for n in range(-3, 3):
                want = _outcome(_casimir_sum, n, v)
                assert _outcome(sugawara, n, v) == want, (nrep, v, n)
    # a zero image raises nothing, even past the bound
    assert sugawara(-1, vac(module(k, 0))).is_zero()


def _act_in_a_deeper_module(m, v):
    """X(n) v computed where nothing overflows; "raises" when the image
    reaches past v's own depth bound."""
    mod = v.module
    deep = Module(R, mod.k, mod.nrep + 4, mod.floor, mod.weight)
    image = act_mode(m, Vector(deep, v.terms))
    if any(sum(-n for _, n in m2) > mod.nrep for m2 in image.terms):
        return "raises"
    return image


def test_act_mode_raises_where_the_image_overflows():
    k = "3/5"
    for nrep in (0, 1, 2):
        vectors = [Vector(module(k, nrep), {mono: R.one})
                   for mono in _basis_monomials(nrep)]
        verma = Vector.floor_vector(module(k, nrep, floor="verma",
                                           weight=rational(2)))
        vectors += [verma, act_mode(mode("f", 0), verma)]
        for v in vectors:
            for m in (mode(x, n) for x in SYMBOLS for n in range(-3, 3)):
                assert _outcome(act_mode, m, v) == \
                    _act_in_a_deeper_module(m, v), (nrep, v, m)
