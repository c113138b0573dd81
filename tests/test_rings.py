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
        got = Module(ring, ring.lift(k), 2).sugawara_prefactor()
        assert got == ring.lift(want), kq


# the engines that run over every ring
_GENERIC = ("series", "affine", "evolution")
_COEFFICIENT_MODULES = {"grassmann", "generator"}
_COEFFICIENT_TYPES = {"Cyclo8", "GrassmannScalar", "ItoJet"}


@pytest.mark.parametrize("name", _GENERIC)
def test_generic_engines_know_no_coefficient_type(name):
    path = Path(superloewner.__file__).with_name(f"{name}.py")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = {a.name.rsplit(".", 1)[-1] for a in node.names}
            names = set()
        elif isinstance(node, ast.ImportFrom):
            modules = {(node.module or "").rsplit(".", 1)[-1]}
            names = {a.name for a in node.names}
        elif isinstance(node, ast.Name):
            modules, names = set(), {node.id}
        elif isinstance(node, ast.Attribute):
            modules, names = set(), {node.attr}
        else:
            continue
        assert not (modules | names) & _COEFFICIENT_MODULES, \
            (name, node.lineno)
        assert not names & _COEFFICIENT_TYPES, (name, node.lineno)
