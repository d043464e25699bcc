"""Record the calibrated seed's outputs in golden.json.

    python3 bench/calibrate.py

Runs a fixed number of operations of every workload at the calibrated seed
and writes their outputs: the first extraction outputs of
``extract_stream`` and the report summaries of the first verification jobs.
Every output is checked against the references before it is recorded.  The
recorded values define correct output for the benchmark, so re-record only
in a change that means to alter the program's outputs, and say so.
"""

from __future__ import annotations

import json
import sys

import paths

EXTRACT_OUTPUTS = 64
FLAT_JOBS = 16
SIDE_JOBS = 8


def main() -> int:
    paths.use_checkout()
    import workloads

    seed = workloads.CALIBRATED_SEED
    golden = {"seed": seed}
    for cls, count in (
        (workloads.ExtractStream, EXTRACT_OUTPUTS),
        (workloads.VerifyFlat, FLAT_JOBS),
        (workloads.VerifySide, SIDE_JOBS),
    ):
        workload = cls()
        workload.setup()
        inputs = workload.inputs(seed)
        records = []
        for _ in range(count):
            args = next(inputs)
            records.append((args, workload.run(args)))
        failed, notes = workload.check(seed, records)
        if failed:
            raise SystemExit(f"{cls.name}: operations {sorted(failed)} fail their checks")
        golden[cls.name] = {"outputs": [workload.summary(out) for _, out in records]}
        print(cls.name, "digests", json.dumps(workload.digests), notes, file=sys.stderr)
    workloads.GOLDEN_PATH.write_text(_dump(golden))
    return 0


def _dump(golden: dict) -> str:
    """JSON with one recorded output per line."""
    parts = []
    for name, value in golden.items():
        if isinstance(value, dict):
            items = ",\n    ".join(json.dumps(out) for out in value["outputs"])
            value = f'{{"outputs": [\n    {items}\n  ]}}'
        else:
            value = json.dumps(value)
        parts.append(f"  {json.dumps(name)}: {value}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
