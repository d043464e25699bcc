"""The benchmark's first operations reproduce its recorded outputs.

``bench/golden.json`` holds the outputs of every workload at the calibrated
seed.  Replaying the first few operations of each through
``workloads.check_outputs`` catches a drifted distance, digest or verdict
here, not only in a benchmark run; ``bench/selftest.py`` checks more
operations, at more cost.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parent.parent / "bench"
# operations replayed per workload
_REPLAYED = 3


@pytest.fixture(scope="module")
def workloads():
    # workloads and its output checks import their sibling modules
    sys.path.insert(0, str(_BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", _BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(_BENCH))


@pytest.mark.parametrize("name", ["extract_stream", "verify_flat", "verify_side"])
def test_first_operations_match_the_golden_outputs(workloads, name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "OUT", tmp_path)  # verify_flat writes its spec files there
    workload = workloads.WORKLOADS[name]()
    workload.setup()
    seed = workloads.CALIBRATED_SEED
    inputs = workload.inputs(seed)
    records = []
    for _ in range(_REPLAYED):
        args = next(inputs)
        records.append((args, workload.run(args)))
    failed, notes = workloads.check_outputs(workload, seed, records)
    assert failed == set()
    assert notes["goldenCompared"] == _REPLAYED
