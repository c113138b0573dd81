import itertools
import random
from fractions import Fraction

import pytest

from superloewner.grassmann import GrassRing, berezin
from superloewner.scalars import EXACT, rational

G = GrassRing(EXACT)


def _brute(a_word, b_word):
    """Sign-counting oracle: concatenate generator words, bubble sort."""
    word = list(a_word) + list(b_word)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == word[i + 1]:
                return 0, ()
            if word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                sign = -sign
                changed = True
    return sign, tuple(word)


_WORDS = {0: (), 1: (1,), 2: (2,), 3: (1, 2)}
_BASIS = [G.one, G.eta1, G.eta2, G.eta12]
_INDEX = {word: i for i, word in _WORDS.items()}


def _parity(a):
    """0 or 1 for a homogeneous element; raises otherwise."""
    c1, ce1, ce2, ce12 = a.coeffs
    even = not (c1.is_zero() and ce12.is_zero())
    odd = not (ce1.is_zero() and ce2.is_zero())
    if even and odd:
        raise ValueError("inhomogeneous Grassmann element has no parity")
    return 1 if odd else 0


def test_multiplication_matches_sign_counting_oracle():
    for ia in range(4):
        for ib in range(4):
            got = _BASIS[ia] * _BASIS[ib]
            sign, word = _brute(_WORDS[ia], _WORDS[ib])
            if sign == 0:
                assert got.is_zero()
            else:
                want = _BASIS[_INDEX[word]]
                assert got == (want if sign > 0 else -want), (ia, ib)


def _sparse(rng):
    """A random element whose components are each zero with probability
    1/2 and a small rational otherwise."""
    return sum((b * rational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                for b in _BASIS if rng.random() < 0.5), G.zero)


def test_product_of_random_elements_matches_the_oracle():
    rng = random.Random(28)
    for _ in range(40):
        a, b = _sparse(rng), _sparse(rng)
        want = G.zero
        for (ia, x), (ib, y) in itertools.product(enumerate(a.coeffs),
                                                  enumerate(b.coeffs)):
            sign, word = _brute(_WORDS[ia], _WORDS[ib])
            if sign:
                want = want + _BASIS[_INDEX[word]] * (x * y * sign)
        assert a * b == want, (a, b)


def test_nilpotency_and_anticommutation():
    assert (G.eta1 * G.eta1).is_zero()
    assert (G.eta2 * G.eta2).is_zero()
    assert G.eta2 * G.eta1 == -G.eta12


def test_product_expansion():
    out = (G.one + G.eta1) * (G.one + G.eta2)
    assert out == G.one + G.eta1 + G.eta2 + G.eta12


def test_associativity_all_64_triples():
    for a, b, c in itertools.product(_BASIS, repeat=3):
        assert (a * b) * c == a * (b * c)


def test_unital():
    for a in _BASIS:
        assert G.one * a == a and a * G.one == a


def test_parity_additivity():
    for a, b in itertools.product(_BASIS, repeat=2):
        prod = a * b
        if prod.is_zero():
            continue
        assert _parity(prod) == (_parity(a) + _parity(b)) % 2


def test_berezin():
    assert berezin(G.one + G.eta12) == EXACT.one
    assert berezin(G.one) == EXACT.zero
    assert berezin(G.eta1.__mul__(rational(5)) + G.eta2 * rational(3)) \
        == EXACT.zero
    assert berezin(G.eta12 * rational("7/3")) == rational("7/3")


def test_scalar_division_and_errors():
    half = G.eta12 / 2
    assert half + half == G.eta12
    # a pure-body divisor divides every component by the body
    assert (G.eta1 + G.one) / G.from_int(2) == G.eta1 / 2 + G.one / 2
    # an element with an invertible body is a unit
    x = G.one + G.eta1
    assert x * (G.one / x) == G.one
    assert G.one / x == G.one - G.eta1
    # a nilpotent element is not
    with pytest.raises(ZeroDivisionError):
        G.one / G.eta12


def test_parity_error_on_mixed():
    with pytest.raises(ValueError):
        _parity(G.one + G.eta1)

