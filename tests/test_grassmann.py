import itertools

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


def test_multiplication_matches_sign_counting_oracle():
    for ia in range(4):
        for ib in range(4):
            got = _BASIS[ia] * _BASIS[ib]
            sign, word = _brute(_WORDS[ia], _WORDS[ib])
            if sign == 0:
                assert got.is_zero()
            else:
                idx = {(): 0, (1,): 1, (2,): 2, (1, 2): 3}[word]
                want = _BASIS[idx] if sign > 0 else -_BASIS[idx]
                assert got == want, (ia, ib)


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
        assert prod.parity() == (a.parity() + b.parity()) % 2


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
    with pytest.raises(TypeError):
        G.one / G.eta12
    with pytest.raises(TypeError):
        G.one / (G.one + G.eta1)


def test_parity_error_on_mixed():
    with pytest.raises(ValueError):
        (G.one + G.eta1).parity()

