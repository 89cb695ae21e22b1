"""Test-suite settings.

The default hypothesis profile draws its examples from a fixed seed and keeps
no example database, so property tests repeat exactly from run to run.
Hypothesis also caches the constants it collects from the code under test;
that cache goes to the system temporary directory, so a test run leaves no
``.hypothesis/`` directory in the working tree.

This checkout's ``src/`` goes at the end of ``sys.path``: a bare
``python -m pytest`` tests this checkout, and a ``PYTHONPATH`` that names
another checkout's ``src/`` tests that one.

Hypothesis also draws from a pool of the constants in the non-test modules
loaded when a test draws, and which modules are loaded depends on which
tests run: one test alone once saw a pool about a third the size of the whole
suite's, so a derandomized example could differ between the two runs.  So
every ``gdarb`` module and every test module here (by its basename, the
name pytest gives it) is imported before any test runs, and one test, one
file and the whole suite draw from the same pool.  A test module that
fails to import is left to pytest's collection to report.
"""

import contextlib
import importlib
import pkgutil
import sys
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "gdarb-hypothesis")
settings.register_profile("gdarb", derandomize=True, database=None, deadline=None)
settings.load_profile("gdarb")

import gdarb  # noqa: E402

for info in pkgutil.iter_modules(gdarb.__path__, "gdarb."):
    importlib.import_module(info.name)
for path in sorted(Path(__file__).parent.glob("*.py")):
    if path.stem != "conftest":
        with contextlib.suppress(Exception):
            importlib.import_module(path.stem)
