"""Locations the benchmark reads and writes, all inside one checkout.

The benchmark builds nothing: it imports the package from ``src/`` and the
independent references from ``tests/helpers.py`` of the same checkout.  It
refuses to run when either is missing, so a copy holding only the
benchmark's own files exits with an error instead of measuring something
else that happens to be importable.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = ROOT / ".bench_out"

EXIT_NO_PROGRAM = 3


class MissingProgram(RuntimeError):
    pass


def use_checkout() -> None:
    """Put this checkout's package and references first on ``sys.path``.

    Also pins numeric libraries to one thread: every workload is one
    single-threaded process with one closed-loop client.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # A byte budget from the environment would silently shrink the
    # verification jobs, so the benchmark never inherits one.
    os.environ.pop("EXTRACTORFORGE_MAX_MEM", None)
    package = SRC / "extractorforge" / "__init__.py"
    helpers = TESTS / "helpers.py"
    for needed in (package, helpers):
        if not needed.is_file():
            raise MissingProgram(f"{needed.relative_to(ROOT)} not found in {ROOT}")
    for path in (str(TESTS), str(SRC)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)


def check_imported(module) -> None:
    """Fail if ``module`` was imported from anywhere but this checkout."""
    origin = Path(module.__file__).resolve()
    if SRC not in origin.parents:
        raise MissingProgram(f"{module.__name__} imported from {origin}, not {SRC}")
