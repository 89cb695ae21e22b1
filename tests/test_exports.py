"""Every name a ``gdarb`` module lists in ``__all__`` exists, so that
``from gdarb.<module> import *`` works for each module, no module imports a
name it never uses, and no module loads scipy."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import gdarb

MODULES = sorted(info.name for info in pkgutil.iter_modules(gdarb.__path__, "gdarb."))


def test_modules_are_found():
    assert {"gdarb.backtest", "gdarb.chain", "gdarb.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    # a top-level import must be referenced in the module or listed in its
    # __all__ (a re-export); ``import a.b`` binds ``a``
    module = importlib.import_module(name)
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    bound = {
        (alias.asname or alias.name).partition(".")[0]: node.lineno
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {n: line for n, line in bound.items() if n not in used and n not in module.__all__}
    assert unused == {}


def test_no_module_loads_scipy():
    # scipy is a dependency of the tests and the benchmark only; a fresh
    # interpreter imports every module and lists the scipy modules loaded
    script = (
        "import importlib, sys\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(gdarb.__file__))}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"
