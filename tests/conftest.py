"""Make `src` importable for the `python -m regver` subprocesses that the
tests start; `pythonpath` in pyproject.toml covers the test process itself,
so a bare `python -m pytest` from the root runs the whole suite."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
_paths = os.environ.get("PYTHONPATH", "")
if SRC not in _paths.split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, _paths) if p)
