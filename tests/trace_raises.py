"""List the ``raise`` statements in ``src/`` that no tier-1 test reaches.

Runs the tier-1 suite in this process under a ``sys.settrace`` tracer that
records the lines executed in frames of files under ``src/``, then parses
each of those files for its ``raise`` statements.  A statement is reached
when any of its lines ran.  Prints every unreached one, and exits 1 if the
suite fails or if an unreached statement is not in ``ALLOWED``.  Usage::

    python3 tests/trace_raises.py [PYTEST OPTION ...]

The tracer sees only this process: a statement that a test reaches only in
a subprocess it starts counts as unreached.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# (file, enclosing function, exception) of the raises no valid input reaches:
# searches that always find what they look for
ALLOWED = {
    ("src/extractorforge/gf2.py", "field_modulus", "AssertionError"),
    ("src/extractorforge/poly.py", "find_irreducible", "AssertionError"),
    ("src/extractorforge/designs.py", "build_greedy_weak_design", "AssertionError"),
}


@cache
def _source_file(filename: str) -> str | None:
    """The path of a code object's file relative to the checkout, if it lies
    under ``src/``; else None."""
    path = Path(filename).resolve()
    return path.relative_to(ROOT).as_posix() if path.is_relative_to(SRC) else None


def _raises(path: Path):
    """(first line, last line, enclosing function, exception) of each
    ``raise`` statement in the file, the function dotted with its classes."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = "re-raise" if exc is None else ast.unparse(exc)
                found.append((child.lineno, child.end_lineno, scope or "<module>", name))
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), "")
    return found


def main(options: list[str]) -> int:
    executed = defaultdict(set)  # checkout-relative path -> lines run

    def local(frame, event, arg):
        if event == "line":
            executed[_source_file(frame.f_code.co_filename)].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if _source_file(frame.f_code.co_filename) else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        rc = pytest.main(["-q", "-p", "no:cacheprovider", *options, str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unexpected = 0
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        lines = executed.get(rel, set())
        for first, last, function, name in _raises(path):
            if lines.isdisjoint(range(first, last + 1)):
                allowed = (rel, function, name) in ALLOWED
                unexpected += not allowed
                note = "allowed" if allowed else "NOT ALLOWED"
                print(f"{rel}:{first}: unreached raise {name} in {function} ({note})")
    print(f"{unexpected} unreached raise statements outside the allowlist; pytest exit {rc}")
    return 1 if rc != 0 or unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
