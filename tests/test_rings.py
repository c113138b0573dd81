"""The ring-handle protocol every coefficient ring keeps, and the generic
engines' independence of the coefficient types."""

import ast
from pathlib import Path

import pytest

import superloewner
from superloewner.affine import Module
from superloewner.generator import JetRing
from superloewner.grassmann import GrassRing
from superloewner.scalars import COMPLEX, EXACT, rational

RINGS = (EXACT, COMPLEX, GrassRing(EXACT),
         JetRing(EXACT, (rational(2),) + (rational("4/5"),) * 4))


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


# the engines that run over every ring
_GENERIC = ("series", "affine", "evolution")
_COEFFICIENT_MODULES = {"grassmann", "generator"}
_COEFFICIENT_TYPES = {"Cyclo8", "GrassmannScalar", "ItoJet"}


def _names(path):
    """(line, modules, names) of every import, name and attribute."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
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
