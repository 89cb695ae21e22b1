"""Every name a ``gdarb`` module lists in ``__all__`` exists, so that
``from gdarb.<module> import *`` works for each module."""

import importlib
import pkgutil

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
