"""Set-up probe: a fresh interpreter imports the program and builds its native core.

Run as ``python perfbench/setup_probe.py`` with ``PYTHONPATH`` naming the
program's sources and ``REPRO_NATIVE_CACHE`` an empty directory; the parent
times it from spawn to exit.  Exits 3 if the native core is unavailable.
"""

import sys

import repro  # noqa: F401  (the import is part of what is timed)
from repro.sim import native

if native.load_library() is None:
    print("native core unavailable", file=sys.stderr)
    sys.exit(3)
