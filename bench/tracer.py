"""In-memory spans and counts around the package's public functions.

The tracer wraps functions from the outside: ``enable`` replaces each named
function or method wherever the package refers to it (the defining module,
every module that imported it by name, or the class), and ``disable`` puts
the originals back.  Nothing inside ``src/`` is edited.

Each span records (id, parent id, request, name, start, end); spans of one
benchmark operation share the request number, set-up uses request -1.  Self
time is a span's duration minus the time its traced children cover.
Statistics are kept per phase ("setup" and "loop"), so a per-layer figure
can be reported as one set-up plus one average operation.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Spans beyond this many are folded into the statistics but not stored, so
# a long traced run keeps a bounded amount of memory.
MAX_STORED_SPANS = 100_000


class _Frame:
    __slots__ = ("span_id", "child")

    def __init__(self, span_id: int):
        self.span_id = span_id
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.request = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int, float, float]] = []
        self.dropped = 0
        self._next_id = 0
        self._stack: list[_Frame] = []
        # phase -> name -> [calls, inclusive seconds, child seconds]
        self.stats: dict[str, dict[str, list]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0, 0.0])
        )
        # phase -> counter name -> value
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        # (owner, attribute, original, wrapped) for every patched reference
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, counter: str, amount: int) -> None:
        self.counts[self.phase][counter] += amount

    def _begin(self, name: str):
        stack = self._stack
        parent = stack[-1].span_id if stack else -1
        frame = _Frame(self._next_id)
        self._next_id += 1
        stack.append(frame)
        return frame, parent, self._name_id(name), perf_counter()

    def _end(self, name: str, frame: _Frame, parent: int, name_id: int, start: float):
        end = perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - start
        entry = self.stats[self.phase][name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += frame.child
        if stack:
            stack[-1].child += duration
        if len(self.spans) < MAX_STORED_SPANS:
            self.spans.append((frame.span_id, parent, self.request, name_id, start, end))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        begun = self._begin(name)
        try:
            yield
        finally:
            self._end(name, *begun)

    def _timed(self, name: str, fn, counter=None, first_call_only=False):
        begin, end = self._begin, self._end
        seen = set()

        def wrapper(*args, **kwargs):
            if counter is not None:
                counter(self, args, kwargs)
            if first_call_only:
                if args in seen:
                    self.stats[self.phase][name][0] += 1
                    return fn(*args, **kwargs)
                seen.add(args)
            begun = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(name, *begun)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            self.counts[self.phase][key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --------------------------------------------------------

    def wrap_function(
        self, module, attr: str, name: str, counter=None, first_call_only=False
    ) -> None:
        """Trace ``module.attr`` everywhere the package refers to it.

        With ``first_call_only`` only the first call per argument tuple gets
        a span (the cold path of a cached function); later calls are counted.
        """
        original = getattr(module, attr)
        wrapped = self._timed(name, original, counter, first_call_only)
        for mod in _package_modules(module):
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original, wrapped))

    def wrap_method(self, cls, attr: str, name: str, counter=None, count_only=False):
        original = cls.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        wrapped = self._counted(name, fn) if count_only else self._timed(name, fn, counter)
        self._patches.append(
            (cls, attr, original, classmethod(wrapped) if is_classmethod else wrapped)
        )

    def enable(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def disable(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def per_operation(self, ops: int) -> tuple[dict, dict]:
        """(name -> (calls, self seconds), counter -> value), each as one
        set-up plus the loop total divided by ``ops``."""
        ops = max(ops, 1)
        spans: dict[str, tuple[float, float]] = {}
        for name in set(self.stats["setup"]) | set(self.stats["loop"]):
            s = self.stats["setup"].get(name, [0, 0.0, 0.0])
            lp = self.stats["loop"].get(name, [0, 0.0, 0.0])
            spans[name] = (
                s[0] + lp[0] / ops,
                (s[1] - s[2]) + (lp[1] - lp[2]) / ops,
            )
        counts = {}
        for key in set(self.counts["setup"]) | set(self.counts["loop"]):
            counts[key] = self.counts["setup"].get(key, 0) + self.counts["loop"].get(key, 0) / ops
        return spans, counts

    def inclusive(self, phase: str, name: str) -> float:
        return self.stats[phase].get(name, [0, 0.0, 0.0])[1]

    def write(self, path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {
            "names": self.names,
            "spanFields": ["id", "parent", "request", "name", "start", "end"],
            "spans": self.spans,
            "droppedSpans": self.dropped,
            "stats": {
                phase: {n: {"calls": v[0], "inclusive_s": v[1], "self_s": v[1] - v[2]}
                        for n, v in names.items()}
                for phase, names in self.stats.items()
            },
            "counts": {phase: dict(c) for phase, c in self.counts.items()},
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


def _package_modules(module):
    package = module.__name__.split(".")[0]
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == package or key.startswith(package + "."))
    ]
