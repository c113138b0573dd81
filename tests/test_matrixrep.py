import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from superloewner.affine import Module, expectation
from superloewner.evolution import assemble_state_vector, initial_state
from superloewner.matrixrep import (BatchAssembler, MatrixModule,
                                    _basis_monomials)
from superloewner.observables import dual_words
from superloewner.scalars import COMPLEX, EXACT, rational, to_complex
from superloewner.series import AutSeries, TailSeries

R = EXACT


def test_basis_dimensions():
    # depth-layer counts 1, 5, 13, 30, 94 accumulate to these totals
    assert [len(_basis_monomials(n)) for n in range(5)] \
        == [1, 6, 24, 79, 228]


@pytest.fixture(scope="module")
def mm():
    return MatrixModule(1, 4)


NAMES = ("xE", "xH", "xF", "x1e", "x1f", "x2e", "x2f",
         "x12E", "x12H", "x12F")


def _random_state(rng, N):
    """An exact order-N FlowState with small random rational entries."""
    def tail():
        cs = [R.zero] * N
        for idx in rng.sample(range(N), 2):
            cs[idx] = rational(Fraction(rng.randint(-2, 2),
                                        rng.randint(1, 3)))
        return TailSeries(cs, R)

    rho = AutSeries([rational(Fraction(rng.randint(-2, 2),
                                       rng.randint(1, 3)))
                     for _ in range(N + 1)], R)
    return replace(initial_state(N, R), rho=rho,
                   **{n: tail() for n in NAMES})


def _one_path_batch(st):
    """The same state as a one-path batch: coefficients are arrays."""
    return replace(st, rho=AutSeries(
        [np.array([to_complex(c)]) for c in st.rho.coeffs], COMPLEX),
        **{n: TailSeries([np.array([to_complex(c)])
                          for c in getattr(st, n).coeffs], COMPLEX)
           for n in NAMES})


def test_matrix_route_matches_dict_route(mm):
    rng = random.Random(31)
    N = 4
    for _ in range(3):
        st = _random_state(rng, N)
        v_exact = assemble_state_vector(st, Module(R, rational(1), N))
        ba = BatchAssembler(mm, N)
        block = ba.assemble(_one_path_batch(st), 1)
        for i, mono in enumerate(mm.basis):
            assert abs(block[i, 0] - to_complex(v_exact.coeff(mono))) < 1e-12

        for name, w in dual_words():
            row = mm.word_row(w)
            assert abs(row @ block[:, 0]
                       - to_complex(expectation(w, v_exact))) < 1e-12, name


@pytest.mark.parametrize("k", ["1", "3/2"])
def test_word_values_do_not_depend_on_truncation_depth(k):
    # no assembly factor lowers depth, so the depth <= 2 components that
    # the words X(n), n <= 2, read are the same in a depth-2 module
    rng = random.Random(47)
    for _ in range(3):
        st = _random_state(rng, 4)
        shallow = assemble_state_vector(st, Module(R, rational(k), 2))
        deep = assemble_state_vector(st, Module(R, rational(k), 4))
        for name, w in dual_words(2):
            assert expectation(w, shallow) == expectation(w, deep), name


def test_float_word_values_do_not_depend_on_truncation_depth(mm):
    rng = random.Random(53)
    shallow = MatrixModule(1, 2)
    for _ in range(3):
        batch = _one_path_batch(_random_state(rng, 4))
        block2 = BatchAssembler(shallow, 4).assemble(batch, 1)
        block4 = BatchAssembler(mm, 4).assemble(batch, 1)
        for name, w in dual_words(2):
            assert abs(shallow.word_row(w) @ block2[:, 0]
                       - mm.word_row(w) @ block4[:, 0]) < 1e-12, name


def test_mode_matrix_nilpotency(mm):
    m = mm.mode_matrix("E", -1)
    power = m.copy()
    for _ in range(4):
        power = power @ m
    assert abs(power).sum() == 0.0


def test_float_level_module():
    k = 0.5 ** 0.5  # no small-denominator rational: built in floats
    mmf = MatrixModule(k, 2)
    assert mmf._module.ring is COMPLEX
    assert mmf.dim == 24
    row = mmf.word_row(((0, 1),))  # <0|E(1)
    f_col = mmf.mode_matrix("F", -1)
    vec = f_col @ mmf.floor_block(1)
    # <0|E(1)F(-1)|0> = k
    assert abs(row @ vec[:, 0] - k) < 1e-12


def test_rational_level_module_is_exact():
    assert MatrixModule(0.737, 2)._module.ring is EXACT
    assert MatrixModule(1, 2)._module.k == rational(1)
