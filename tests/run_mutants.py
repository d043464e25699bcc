"""Run the mutation catalogue of ``tests/mutants.py``.

For each entry, in a fresh temporary directory:

1. copy ``src/``, ``tests/`` and ``pyproject.toml`` there.  The copy needs
   ``pyproject.toml``: its ``pythonpath = ["src", "tests"]`` puts the ``src``
   beside it first on pytest's path, so a mutant copied anywhere else would
   never be the code the tests import;
2. check that the entry's old text occurs exactly once in its file;
3. run the entry's tests on the unmutated copy: they must pass;
4. replace the old text by the new one and run the tests again with ``-x``:
   they must fail.

Exits 0 only if every entry is found and every mutant is killed.  Usage::

    python3 tests/run_mutants.py [NAME ...]

Names select entries by substring; with none given, every entry runs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402

# pytest's exit code when tests ran and some failed
_TESTS_FAILED = 1


def _pytest(root: Path, tests: list[str], *options: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *options, *tests]
    return subprocess.run(command, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def check(entry: dict) -> str | None:
    """None if the entry's mutant is killed, else what went wrong."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, root / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", root)
        path = root / entry["file"]
        text = path.read_text()
        found = text.count(entry["old"])
        if found != 1:
            return f"old text occurs {found} times in {entry['file']}, not once"
        rc = _pytest(root, entry["tests"])
        if rc != 0:
            return f"its tests do not pass unmutated (pytest exit {rc})"
        path.write_text(text.replace(entry["old"], entry["new"]))
        rc = _pytest(root, entry["tests"], "-x")
        if rc == 0:
            return "survived: its tests pass on the mutant"
        if rc != _TESTS_FAILED:
            return f"pytest exit {rc} on the mutant, not a test failure"
    return None


def main(names: list[str]) -> int:
    entries = [e for e in MUTANTS if not names or any(n in e["name"] for n in names)]
    if not entries:
        print(f"no catalogue entry matches {names}", file=sys.stderr)
        return 2
    problems = 0
    for entry in entries:
        start = time.perf_counter()
        problem = check(entry)
        elapsed = time.perf_counter() - start
        status = "killed" if problem is None else f"FAILED: {problem}"
        print(f"{entry['name']}: {status} ({elapsed:.1f} s)", flush=True)
        problems += problem is not None
    print(f"{len(entries) - problems} of {len(entries)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
