"""Hermetic hypothesis for the whole suite: no example database, and its home
directory (where it also caches source constants) is a temporary directory
removed at exit, so a test run writes nothing into the checkout."""

from __future__ import annotations

import atexit
import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_home = tempfile.mkdtemp(prefix="fghodge-hypothesis-")
atexit.register(shutil.rmtree, _home, ignore_errors=True)
set_hypothesis_home_dir(_home)
settings.register_profile("hermetic", database=None)
settings.load_profile("hermetic")
