"""The names the benchmark's traced run wraps must exist in the package.

``bench/tracer.py`` looks methods up with ``cls.__dict__[attr]`` and
functions with ``getattr(module, attr)``; a renamed or deleted name would
otherwise surface only when ``bench/run.py --trace 1`` runs.
"""

import importlib.util
from pathlib import Path

import pytest

_LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for _, owner, attr, _ in layers.SPANS]
    + [(module, attr) for _, module, attr in layers.FIRST_CALL_SPANS]
    + [(cls, attr) for _, cls, attr in layers.COUNTED],
    ids=lambda v: v if isinstance(v, str) else getattr(v, "__name__", None),
)
def test_traced_name_resolves(owner, attr):
    if isinstance(owner, type):
        target = owner.__dict__[attr]
        assert callable(getattr(target, "__func__", target))
    else:
        assert callable(getattr(owner, attr))
