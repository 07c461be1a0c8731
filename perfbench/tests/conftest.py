"""Make ``benchlib`` and the program under test importable."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from benchlib import core  # noqa: E402

core.use_source_tree()
