import random
from dataclasses import replace
from fractions import Fraction

from superloewner.affine import Module, expectation
from superloewner.evolution import assemble_state_vector, initial_state
from superloewner.observables import (current_via_module, dual_words,
                                      observable_current)
from superloewner.scalars import EXACT, rational
from superloewner.series import AutSeries, TailSeries

R = EXACT
N = 4


def tail(coeffs):
    cs = [rational(c) for c in coeffs] + [R.zero] * (N - len(coeffs))
    return TailSeries(cs, R)


def _state(**kw):
    return replace(initial_state(N, R), **kw)


def test_identity_state_gives_zero():
    assert observable_current(initial_state(N, R), rational(1), R).is_zero()


def test_x12f_single_term():
    c = rational("2/7")
    k = rational("3/2")
    s = _state(x12F=tail(["2/7"]))
    o = observable_current(s, k, R)
    assert o.coeff(-2) == k * c
    assert o.coeff(-3) == R.zero
    mod = Module(R, k, N)
    assert current_via_module(s, mod, 1) == k * c


def test_xf_single_term():
    gamma = rational("1/3")
    k = rational(2)
    s = _state(xF=tail(["1/3"]))
    o = observable_current(s, k, R)
    assert o.coeff(-2) == k * gamma
    assert current_via_module(s, Module(R, k, N), 1) == k * gamma


def _rand_state(rng):
    def t():
        cs = [R.zero] * N
        for idx in rng.sample(range(N), 2):
            cs[idx] = rational(Fraction(rng.randint(-2, 2),
                                        rng.randint(1, 3)))
        return TailSeries(cs, R)
    rho = AutSeries([rational(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
                     for _ in range(N + 1)], R)
    names = ("xE", "xH", "xF", "x1e", "x1f", "x2e", "x2f",
             "x12E", "x12H", "x12F")
    return _state(rho=rho, **{n: t() for n in names})


def test_oracle_equivalence_sample():
    # the full 20-state run lives in the acceptance suite; keep a smoke
    # version here
    rng = random.Random(77)
    k = rational("3/2")
    for _ in range(4):
        s = _rand_state(rng)
        o = observable_current(s, k, R)
        for n in range(1, N):
            assert o.coeff(-n - 1) == current_via_module(s, Module(R, k, N),
                                                         n), n


def test_dual_word_family():
    words = dual_words()
    assert len(words) == 11
    assert words[0][0] == "1" and words[0][1] == ()
    names = [w[0] for w in words]
    assert "H(2)" in names and "f(1)" in names


def test_dual_word_values_identity_state():
    mod = Module(R, rational(1), N)
    v = assemble_state_vector(initial_state(N, R), mod)
    for name, w in dual_words():
        want = R.one if name == "1" else R.zero
        assert expectation(w, v) == want, name
