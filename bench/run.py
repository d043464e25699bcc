"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  One single-threaded process drives a closed loop with
one client: the next operation starts when the previous one has returned.

With ``--trace 0`` the end-to-end metrics are measured: set-up time (median
of several fresh processes), median operation latency and peak RSS.  Times
are scaled to the reference host's speed by a kernel timed alongside (see
``speed.py``); the run record adds the wall-clock throughput, p50 and p99
latency.  With ``--trace 1`` the package's public functions are wrapped (see
``layers.py``) for the set-up and every other operation, and the per-layer
metrics plus the tracing overhead (traced minus untraced operation time) are
reported; spans go to ``.bench_out/``.

Outputs are checked after timing.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the instance parameters, sample counts and checks.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import paths
from speed import Sampler

BENCH = Path(__file__).resolve().parent

# Fresh processes timed for setup_s, after one untimed warm-up that also
# compiles the package's bytecode.
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 120


def setup_seconds(workload: str) -> list[dict]:
    """Set-up times of fresh processes, scaled and wall-clock."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            cwd=paths.ROOT,
            check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times[1:]


def measure(workload, inputs, seconds: float, tracer=None):
    """Closed loop for ``seconds``: (records, spans, failed).

    ``records`` holds (input, output) per operation; an operation that
    raises is recorded with output None and counted as failed; ``spans``
    holds its (start, end) times.  With a
    tracer, even-numbered operations run traced and odd ones untraced, so
    both halves see the same inputs and the same warm caches; at least one
    of each runs.
    """
    min_ops = 1 if tracer is None else 2
    records, spans, failed = [], [], set()
    deadline = perf_counter() + seconds
    index = 0
    while index < min_ops or perf_counter() < deadline:
        args = next(inputs)
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.phase, tracer.request = "loop", index
            tracer.enable()
        t0 = perf_counter()
        try:
            if traced:
                with tracer.span("op"):
                    result = workload.run(args)
            else:
                result = workload.run(args)
        except Exception:
            if not failed:
                traceback.print_exc(file=sys.stderr)
            result = None
            failed.add(index)
        finally:
            spans.append((t0, perf_counter()))
            if traced:
                tracer.disable()
        records.append((args, result))
        index += 1
    return records, spans, failed


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def loop_metrics(spans: list[tuple[float, float]], sampler: Sampler) -> tuple[dict, dict]:
    """(metrics, record) for the timed loop: the median scaled latency, and
    wall-clock figures for the record."""
    scaled = [sampler.scaled(start, end) for start, end in spans]
    wall = [end - start for start, end in spans]
    metrics = {"scaled_p50_ms": {"value": statistics.median(scaled) * 1e3, "unit": "ms"}}
    record = {
        "operations": len(spans),
        "scaledP99Ms": percentile(scaled, 99) * 1e3,
        "opsPerS": len(spans) / (spans[-1][1] - spans[0][0]),
        "p50Ms": statistics.median(wall) * 1e3,
        "p99Ms": percentile(wall, 99) * 1e3,
        "kernelSamples": len(sampler.times),
        "kernelMedianMs": statistics.median(sampler.times) * 1e3,
    }
    return metrics, record


def run_plain(cls, seed: int, seconds: float):
    setups = setup_seconds(cls.name)
    workload = cls()
    workload.setup()
    with Sampler() as sampler:
        records, spans, failed = measure(workload, workload.inputs(seed), seconds)
    # Read before the output checks, which build their own references.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop, samples = loop_metrics(spans, sampler)
    metrics = {
        "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
        **loop,
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    samples["setupRuns"] = setups
    return workload, records, failed, metrics, samples


def run_traced(cls, seed: int, seconds: float):
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    workload = cls()
    tracer.enable()
    try:
        with tracer.span("setup"):
            workload.setup()
    finally:
        tracer.disable()
    records, spans, failed = measure(workload, workload.inputs(seed), seconds, tracer)
    latencies = [end - start for start, end in spans]
    traced, plain = latencies[0::2], latencies[1::2]
    traced_mean = statistics.fmean(traced)
    plain_mean = statistics.fmean(plain)
    metrics = layers.metrics(tracer, len(traced), traced_mean, plain_mean)
    out = paths.OUT / f"trace-{cls.name}-seed{seed}.json"
    tracer.write(out, {"workload": cls.name, "seed": seed, "tracedOperations": len(traced)})
    samples = {
        "tracedOperations": len(traced),
        "untracedOperations": len(plain),
        "tracedMeanMs": traced_mean * 1e3,
        "untracedMeanMs": plain_mean * 1e3,
        "spansFile": str(out.relative_to(paths.ROOT)),
    }
    return workload, records, failed, metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        paths.use_checkout()
        import workloads
    except (paths.MissingProgram, ImportError) as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return paths.EXIT_NO_PROGRAM
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    runner = run_traced if args.trace else run_plain
    workload, records, failed, metrics, samples = runner(cls, args.seed, args.seconds)
    check_failed, notes = workloads.check_outputs(workload, args.seed, records)
    failed |= check_failed

    import numpy

    record = {
        "workload": cls.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instance": workload.instance(),
        "samples": samples,
        "checks": {**notes, "failedOperations": sorted(failed)[:20]},
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
