"""Test-suite settings.

The default hypothesis profile draws its examples from a fixed seed and keeps
no example database, so property tests repeat exactly from run to run.
Hypothesis also caches the constants it collects from the code under test;
that cache goes to the system temporary directory, so a test run leaves no
``.hypothesis/`` directory in the working tree.

This checkout's ``src/`` goes at the end of ``sys.path``: a bare
``python -m pytest`` tests this checkout, and a ``PYTHONPATH`` that names
another checkout's ``src/`` tests that one.
"""

import sys
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "gdarb-hypothesis")
settings.register_profile("gdarb", derandomize=True, database=None, deadline=None)
settings.load_profile("gdarb")
