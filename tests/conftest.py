"""Test-suite settings.

The default hypothesis profile draws its examples from a fixed seed and keeps
no example database, so property tests repeat exactly from run to run.
Hypothesis also caches the constants it collects from the code under test;
that cache goes to the system temporary directory, so a test run leaves no
``.hypothesis/`` directory in the working tree.
"""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "gdarb-hypothesis")
settings.register_profile("gdarb", derandomize=True, database=None, deadline=None)
settings.load_profile("gdarb")
