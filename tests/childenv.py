"""Environment for the ``python -m kleinlab.cli`` children the tests start.

Tests that run a child in a temporary directory cannot rely on a relative
``PYTHONPATH=src``: it resolves against the child's working directory, not
the repository. ``child_env`` puts this checkout's absolute ``src`` first
on ``PYTHONPATH`` and keeps the entries already there, so a child imports
the same ``kleinlab`` as the test process, from any working directory and
whether or not an installed copy exists.  It also sets
``PYTHONWARNINGS=error``, so that a warning in a child fails its test as
one in the test process does under pytest's ``filterwarnings = error``.
"""

import os
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict[str, str]:
    inherited = os.environ.get("PYTHONPATH", "")
    parts = [str(SRC), *(p for p in inherited.split(os.pathsep) if p)]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(parts), "PYTHONWARNINGS": "error"}
