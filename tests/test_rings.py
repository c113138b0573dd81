"""The ring-handle protocol every coefficient ring keeps, the product-table
laws of the nilpotent extensions, and the generic engines' independence of
the coefficient types."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import superloewner
from superloewner.affine import Module, Vector
from superloewner.generator import JetRing
from superloewner.grassmann import GrassRing
from superloewner.scalars import (COMPLEX, EXACT, Cyclo8, Ring, is_zero,
                                  rational)

JETS = JetRing(EXACT, (rational(2),) + (rational("4/5"),) * 4)
NESTED = JetRing(JETS, tuple(map(JETS.lift, JETS.variances)))
EXTENSIONS = (GrassRing(EXACT), JETS, NESTED)
RINGS = (EXACT, COMPLEX) + EXTENSIONS


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_ring_protocol(ring):
    assert ring.from_rational("3/4") * ring.from_int(4) == ring.from_int(3)
    for v in (ring.zero, ring.one, ring.i, ring.sqrt2):
        assert ring.coerce(v) is v
    assert ring.coerce("3/4") == ring.from_rational("3/4")
    assert ring.coerce(3) == ring.from_int(3)
    assert ring.lift(EXACT.one) == ring.one
    for kq in ("1", "1/2"):
        k = EXACT.from_rational(kq)
        want = Module(EXACT, k, 2).sugawara_prefactor()
        got = Module(ring, ring.root.lift(k), 2).sugawara_prefactor()
        assert got == ring.root.lift(want), kq


def _draw(ring, rng):
    """A random element of ring (EXACT or an extension of it) whose slots
    are each zero with probability 1/2 and a small rational otherwise."""
    if ring is EXACT:
        return rational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    x = ring.zero
    for g in (ring.one,) + ring.gens:
        if rng.random() < 0.5:
            x = x + g * _draw(ring.base, rng)
    return x


@pytest.mark.parametrize("ring", EXTENSIONS, ids=lambda r: r.name)
def test_extension_table_laws(ring):
    rng = random.Random(28)
    xs = [_draw(ring, rng) for _ in range(6)]
    commutative = ring.name.startswith("jet")
    for x in xs:
        assert ring.one * x == x and x * ring.one == x
        c = _draw(ring.base, rng)
        assert x * c == x * ring.lift(c)
        # a base element on the left defers to the ring built over it
        assert c * x == ring.lift(c) * x
        assert c + x == ring.lift(c) + x
        assert c - x == ring.lift(c) - x
        assert type(c * x) is type(c + x) is type(c - x) is type(x)
        unit = x + ring.from_int(5)  # its standard part is not zero
        assert unit * unit.inverse() == ring.one
        assert unit.inverse() * unit == ring.one
        for y in xs:
            assert (x * y == y * x) or not commutative
            for z in xs:
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
                assert (x + y) * z == x * z + y * z


def test_nested_lift_and_root_scaling():
    # a root value reaches the nested ring through the jet ring
    one = NESTED.lift(EXACT.one)
    assert all(type(c) is type(JETS.zero) for c in one.coeffs)
    assert one == NESTED.one
    # a root scalar scales each slot, on either side
    x = _draw(NESTED, random.Random(44)) + NESTED.gens[0]
    r = rational("-3/7")
    for got in (x * r, r * x):
        assert type(got) is type(x)
        assert got.coeffs == tuple(c * r for c in x.coeffs)


@pytest.mark.parametrize("zero", [0, 0j, Fraction(0), Cyclo8(0)]
                         + [ring.zero for ring in EXTENSIONS]
                         + [Vector(Module(EXACT, rational(1), 2), {})],
                         ids=lambda v: type(v).__name__)
def test_is_zero_is_exact_for_every_scalar(zero):
    assert is_zero(zero)


@pytest.mark.parametrize("value", [np.zeros(3), 1, 1j, Fraction(1, 3),
                                   rational("1/3"), JETS.gens[0],
                                   NESTED.lift(JETS.gens[1])],
                         ids=lambda v: type(v).__name__)
def test_is_zero_is_false_for_a_path_batch_and_a_nonzero(value):
    # a numpy path batch is never reduced, even when it is all zeros
    assert not is_zero(value)


def test_extension_refuses_a_product_that_is_also_a_factor():
    # then a product of three generators need not vanish
    with pytest.raises(ValueError, match="b is both"):
        Ring.extend(EXACT, ("a", "b"), {("a", "a"): (1, "b"),
                                        ("b", "a"): (1, "a")}, "bad")


# the engines that run over every ring
_GENERIC = ("series", "affine", "evolution")
_COEFFICIENT_MODULES = {"grassmann", "generator"}
_COEFFICIENT_TYPES = {"Cyclo8", "Extension"}


def _names(path):
    """(line, modules, names) of every import, definition, name and
    attribute."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, set(), {node.name}
        elif isinstance(node, ast.Import):
            yield node.lineno, {a.name.rsplit(".", 1)[-1]
                                for a in node.names}, set()
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, {(node.module or "").rsplit(".", 1)[-1]}, \
                {a.name for a in node.names}
        elif isinstance(node, ast.Name):
            yield node.lineno, set(), {node.id}
        elif isinstance(node, ast.Attribute):
            yield node.lineno, set(), {node.attr}


@pytest.mark.parametrize("name", _GENERIC)
def test_generic_engines_know_no_coefficient_type(name):
    path = Path(superloewner.__file__).with_name(f"{name}.py")
    for line, modules, names in _names(path):
        assert not (modules | names) & _COEFFICIENT_MODULES, (name, line)
        assert not names & _COEFFICIENT_TYPES, (name, line)


@pytest.mark.parametrize("name", sorted(_COEFFICIENT_MODULES))
def test_coefficient_rings_are_product_tables(name):
    # a coefficient ring is a table over `scalars.Extension`, not a class
    path = Path(superloewner.__file__).with_name(f"{name}.py")
    tree = ast.parse(path.read_text())
    assert not [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]


# the SDE and its Euler step, which every other module reaches through
# `flow_step` (the exact generator runs it over the jet ring)
_FLOW_INTERNALS = {"sde_terms", "_stepped", "_loewner_euler"}


def test_only_evolution_states_the_sde():
    package = Path(superloewner.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.stem == "evolution":
            continue
        for line, _, names in _names(path):
            assert not names & _FLOW_INTERNALS, (path.stem, line)


# scalars.is_zero is the one zero test and so the one skip rule
_RETIRED_ZERO_TESTS = {"_absent"}


def test_one_zero_test():
    # nothing defines or imports `_absent`, or probes for an is_zero method
    package = Path(superloewner.__file__).parent
    for path in sorted(package.glob("*.py")) + sorted(
            Path(__file__).parent.glob("*.py")):
        for line, _, names in _names(path):
            assert not names & _RETIRED_ZERO_TESTS, (path.name, line)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) == "hasattr":
                assert "is_zero" not in [getattr(a, "value", None)
                                         for a in node.args], \
                    (path.name, node.lineno)
