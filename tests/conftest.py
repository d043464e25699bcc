import pytest

from extractorforge import oracle


@pytest.fixture
def spectral_always(monkeypatch):
    """``extractor_distance`` takes the spectral path wherever it may, at
    any estimated cost: its other limits (the int64 bound, the transform
    entries and linear_rows declining) still apply."""
    monkeypatch.setattr(oracle, "_SPECTRAL_CALL_NS", 0)
    monkeypatch.setattr(oracle, "_PAIR_NS", 1 << 40)
