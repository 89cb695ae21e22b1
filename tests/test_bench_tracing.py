"""The benchmark's traced mode reads the sets of every ``build_nu`` bundle.

``perfbench/tracing.py`` is loaded from its file, read-only, and its
``carrier_intervals`` counts the intervals and points of ``n_plus``,
``n_minus`` and ``qprime_zero`` on each catalog market; it also reads a
set's ``svc`` attribute, which must stay None.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from gdarb import catalog as cat
from gdarb.arbitrage import build_nu

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("entry", cat.catalog(), ids=lambda e: e.name)
def test_carrier_intervals_reads_every_bundle(tracing, entry):
    bundle = build_nu(entry.build(**entry.defaults))
    for s in (bundle.n_plus, bundle.n_minus, bundle.qprime_zero):
        assert s.svc is None
        assert tracing.carrier_intervals(s) == len(s.intervals) + len(s.points)
