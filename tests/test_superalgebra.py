import itertools
from fractions import Fraction

import pytest

from superloewner.scalars import Cyclo8, EXACT, rational
from superloewner.superalgebra import (CASIMIR, H_VEE, AlgebraElement,
                                       CriticalLevelError,
                                       DegeneratePairingError, PARITY,
                                       SYMBOLS, bracket,
                                       casimir_adjoint_eigenvalue, dual_basis,
                                       form, form_symbols,
                                       orthonormal_even_basis, standard_basis,
                                       standard_dual_basis,
                                       structure_constants)


def basis(s):
    return AlgebraElement.basis(s)


def test_bracket_table_spot_values():
    E, H, F, e, f = standard_basis()
    assert bracket(e, f) == H
    assert bracket(H, H).is_zero()
    assert bracket(H, E) == E.scale(rational(2))
    assert bracket(H, F) == F.scale(rational(-2))
    assert bracket(E, F) == H
    assert bracket(H, e) == e
    assert bracket(H, f) == -f
    assert bracket(E, f) == -e
    assert bracket(F, e) == -f
    assert bracket(E, e).is_zero() and bracket(F, f).is_zero()
    # anticommutator convention on the odd part, Jacobi-consistent scale
    assert bracket(e, e) == E.scale(rational(2))
    assert bracket(f, f) == F.scale(rational(-2))


def test_super_jacobi_all_35_triples():
    for xi, yi, zi in itertools.combinations_with_replacement(SYMBOLS, 3):
        x, y, z = basis(xi), basis(yi), basis(zi)
        px, py, pz = PARITY[xi], PARITY[yi], PARITY[zi]
        total = (bracket(x, bracket(y, z)).scale(
                    EXACT.from_int(-1 if px * pz else 1))
                 + bracket(y, bracket(z, x)).scale(
                    EXACT.from_int(-1 if py * px else 1))
                 + bracket(z, bracket(x, y)).scale(
                    EXACT.from_int(-1 if pz * py else 1)))
        assert total.is_zero(), (xi, yi, zi)


def test_bracket_super_antisymmetry():
    for x in SYMBOLS:
        for y in SYMBOLS:
            lhs = bracket(basis(x), basis(y))
            rhs = bracket(basis(y), basis(x)).scale(
                EXACT.from_int(-1 if PARITY[x] * PARITY[y] == 0 else 1))
            assert lhs == rhs, (x, y)


def test_form_values_and_supersymmetry():
    E, H, F, e, f = standard_basis()
    assert form(e, f) == rational(2)
    assert form(f, e) == rational(-2)
    assert form(e, e).is_zero()
    assert form(E, F) == rational(1)
    assert form(H, H) == rational(2)
    assert form(E, e).is_zero() and form(H, f).is_zero()
    for x in SYMBOLS:
        for y in SYMBOLS:
            sign = -1 if PARITY[x] and PARITY[y] else 1
            assert form_symbols(x, y) == sign * form_symbols(y, x)


def test_form_invariance_all_triples():
    for a in SYMBOLS:
        for b in SYMBOLS:
            for c in SYMBOLS:
                x, y, z = basis(a), basis(b), basis(c)
                assert form(bracket(x, y), z) == form(x, bracket(y, z))


def test_dual_basis_constructions():
    bas = standard_basis()
    duals = dual_basis(bas)
    for i in range(5):
        for j in range(5):
            expect = EXACT.one if i == j else EXACT.zero
            assert form(bas[i], duals[j]) == expect
    # frozen closed forms (F, H/2, E, f/2, -e/2)
    E, H, F, e, f = bas
    frozen = standard_dual_basis()
    assert frozen[0] == F and frozen[2] == E
    assert frozen[1] == H.scale(rational("1/2"))
    assert frozen[3] == f.scale(rational("1/2"))
    assert frozen[4] == e.scale(rational("-1/2"))
    for got, want in zip(duals, frozen):
        assert got == want


def test_dual_basis_odd_span():
    E, H, F, e, f = standard_basis()
    duals = dual_basis([e, f])
    assert duals[0] == f.scale(rational("1/2"))
    assert duals[1] == e.scale(rational("-1/2"))


def test_dual_of_dual_up_to_supersymmetry_sign():
    bas = standard_basis()
    double = dual_basis(dual_basis(bas))
    for s, x, xdd in zip(SYMBOLS, bas, double):
        if PARITY[s]:
            assert xdd == -x, s
        else:
            assert xdd == x, s


def test_dual_basis_degenerate():
    E, H, F, e, f = standard_basis()
    with pytest.raises(DegeneratePairingError):
        dual_basis([E, H])  # E pairs with neither E nor H


def test_orthonormal_even_basis():
    Js = orthonormal_even_basis()
    for i in range(3):
        for j in range(3):
            expect = EXACT.one if i == j else EXACT.zero
            assert form(Js[i], Js[j]) == expect
    assert dual_basis(Js) == Js  # orthonormal: self-dual
    E, H, F, e, f = standard_basis()
    assert bracket(Js[0], Js[1]) == E - F
    assert bracket(Js[0], Js[1]) == Js[2].scale(
        -(Cyclo8.i() * Cyclo8.sqrt2()))


def test_casimir_pins_dual_coxeter():
    for s in SYMBOLS:
        assert casimir_adjoint_eigenvalue(s) == Cyclo8(3)


def test_casimir_table_is_the_form_dual_basis():
    # every consumer of the Casimir (Sugawara, Xi, condition one and
    # standard_dual_basis) reads CASIMIR, so it is pinned against the
    # dual basis the form gives: (-1)^{p_a} (num/den) X^b is the dual of
    # X_a, once per basis symbol
    duals = dict(zip(SYMBOLS, dual_basis(standard_basis())))
    assert sorted(xa for _, _, xa, _ in CASIMIR) == sorted(SYMBOLS)
    for num, den, xa, xb in CASIMIR:
        coeff = rational(Fraction((-1) ** PARITY[xa] * num, den))
        assert basis(xb).scale(coeff) == duals[xa], xa
    for s in SYMBOLS:
        assert casimir_adjoint_eigenvalue(s) == rational(2 * H_VEE), s


def test_structure_constants():
    sc = structure_constants(1)
    assert sc.central_charge == rational("2/5")
    assert sc.tau_default == rational("4/5")
    assert structure_constants(0).central_charge == EXACT.zero
    assert structure_constants("1/2").tau_default == Cyclo8(1)
    with pytest.raises(CriticalLevelError):
        structure_constants("-3/2")


def test_parity_queries():
    E, H, F, e, f = standard_basis()
    assert (E + F).parity() == 0
    assert (e + f).parity() == 1
    with pytest.raises(ValueError):
        (E + e).parity()
    assert AlgebraElement.zero().parity() == 0
