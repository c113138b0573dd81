"""Every name a demo imports from the package must exist.

The demos take seconds each to run, so this reads their imports with
`ast` instead of running them.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _package_imports(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "superloewner":
            for alias in node.names:
                yield node.lineno, node.module, alias.name


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    imports = list(_package_imports(demo))
    assert imports
    missing = [f"line {lineno}: {module}.{name}"
               for lineno, module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, missing
