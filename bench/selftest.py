"""Self-test of the benchmark: every workload at tiny scale, and proof that
corrupted outputs are counted as failures.

    python3 bench/selftest.py

Runs one or two operations per workload at the calibrated seed and at an
uncalibrated one, checks that they pass, then corrupts recorded outputs
(and makes one operation raise) and checks that each corruption is caught,
and checks the speed scaling on made-up kernel samples.
Finishes with two short runs of ``run.py`` to check the result line.  Exits
0 when every case behaves as expected, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from fractions import Fraction

import paths
import speed

OTHER_SEED = 7


def _records(workload, seed: int, count: int) -> list:
    inputs = workload.inputs(seed)
    records = []
    for _ in range(count):
        args = next(inputs)
        records.append((args, workload.run(args)))
    return records


def _failed(workloads, workload, seed: int, records: list) -> set:
    return workloads.check_outputs(workload, seed, records)[0]


def _copy(records: list) -> list:
    """Copies of the outputs; inputs are shared and never corrupted."""
    return [(args, copy.deepcopy(result)) for args, result in records]


def _flip_extraction(records):
    (args, out), *rest = records
    return [(args, out ^ 1), *rest]


def _condenser_worst(records):
    records = _copy(records)
    detail = records[0][1][0][1]["checks"][0]["detail"]
    detail["worst"] = str(Fraction(detail["worst"]) - Fraction(1, 1 << 20))
    return records


def _toeplitz_worst_below_reference(records):
    records = _copy(records)
    records[0][1][2][1]["checks"][0]["detail"]["worstDistance"] = "0"
    return records


def _inconclusive(records):
    records = _copy(records)
    records[0][1][1] = (4, None)
    return records


def _side_distance(position: int):
    def corrupt(records):
        records = _copy(records)
        records[0][1][position] += Fraction(1, 1 << 30)
        return records

    return corrupt


def main() -> int:
    paths.use_checkout()
    import workloads
    from run import measure

    calibrated = workloads.CALIBRATED_SEED
    both = (calibrated, OTHER_SEED)
    # (label, corruption, seeds at which the checks must catch it).  Away
    # from the calibrated seed only the reference cross-check and the
    # verdicts apply, and they do not see the condenser's figures.
    corruptions = {
        "extract_stream": [("flipped output bit", _flip_extraction, both)],
        "verify_flat": [
            ("condenser worst fraction", _condenser_worst, (calibrated,)),
            ("toeplitz worst below the reference", _toeplitz_worst_below_reference, both),
            ("inconclusive exit code", _inconclusive, both),
        ],
        "verify_side": [
            ("toeplitz side distance", _side_distance(1), both),
            ("trevisan side distance", _side_distance(2), both),
        ],
    }
    problems = []

    def expect(label: str, got: set, want: set) -> None:
        status = "ok" if got == want else "FAILED"
        print(f"{status:6s} {label}: failed operations {sorted(got)}, expected {sorted(want)}")
        if got != want:
            problems.append(label)

    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        workload.setup()
        count = 2 if name == "extract_stream" else 1
        for seed in both:
            records = _records(workload, seed, count)
            expect(f"{name} seed {seed} clean", _failed(workloads, workload, seed, records), set())
            for label, corrupt, seeds in corruptions[name]:
                if seed in seeds:
                    got = _failed(workloads, workload, seed, corrupt(records))
                    expect(f"{name} seed {seed} {label}", got, {0})

    class Raising:
        calls = 0

        def run(self, args):
            self.calls += 1
            if self.calls == 1:
                raise RuntimeError("injected failure")
            return args

    records, _, failed = measure(Raising(), iter(range(10**9)), 0.05)
    expect("exception inside an operation", failed, {0})
    if len(records) < 2:
        problems.append("loop stopped after the failing operation")

    # Kernel at twice its reference time: an operation from 0.04 s to
    # 0.12 s with two samples inside takes 0.08 s less the two samples, at
    # half the reference speed.
    sampler = speed.Sampler()
    sampler.starts = [0.0, 0.05, 0.10, 0.15]
    sampler.times = [2 * speed.REFERENCE_KERNEL_S] * 4
    want = (0.08 - 4 * speed.REFERENCE_KERNEL_S) / 2
    got = sampler.scaled(0.04, 0.12)
    status = "ok" if abs(got - want) < 1e-12 else "FAILED"
    print(f"{status:6s} speed scaling: {got:.6f} s, expected {want:.6f} s")
    if status != "ok":
        problems.append("speed scaling")

    for trace in (0, 1):
        proc = subprocess.run(
            [sys.executable, str(paths.ROOT / "bench" / "run.py"), "--workload",
             "extract_stream", "--seed", str(OTHER_SEED), "--seconds", "0.5",
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, cwd=paths.ROOT,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
        ok = (
            set(result) == {"correct", "attempted", "failed", "metrics"}
            and result["correct"] is True
            and result["attempted"] >= 1
            and all(set(m) == {"value", "unit"} for m in result["metrics"].values())
        )
        print(f"{'ok' if ok else 'FAILED':6s} run.py --trace {trace} result line")
        if not ok:
            problems.append(f"run.py --trace {trace}")
            print(proc.stderr, file=sys.stderr)

    if problems:
        print(f"{len(problems)} self-test case(s) failed: {problems}")
        return 1
    print("all self-test cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
