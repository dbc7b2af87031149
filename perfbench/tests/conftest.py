"""Puts the repo root and ``src/`` on the path: these tests are run with
``python -m pytest perfbench/tests`` and are not part of tier-1."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)
