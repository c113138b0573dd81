"""The demos run, and every name a demo imports from the package exists.

The import check reads the demos with `ast`, so a missing name is named
even where a demo cannot start; the run check starts all six at once as
subprocesses, which takes about as long as the slowest demo.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import superloewner

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


def test_demos_run_cleanly():
    # the children import the package these tests import, installed or not
    src = str(Path(superloewner.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    procs = [(demo.name, subprocess.Popen(
                [sys.executable, str(demo)], stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, env=env))
             for demo in DEMOS]
    failed = []
    try:
        for name, proc in procs:
            _, err = proc.communicate(timeout=120)
            if proc.returncode != 0 or err:
                failed.append((name, proc.returncode, err))
    finally:
        for _, proc in procs:
            proc.kill()
            proc.wait()
    assert not failed, failed
