"""Time one workload's set-up in this fresh process.

    python3 bench/setup_probe.py WORKLOAD

Prints {"setup_s": seconds, "wallS": seconds}: the time from the first
import of the package to every pinned spec resolved, its digest checked and
its evaluator built, with cold field tables and caches; ``setup_s`` is
scaled to the reference host's speed (see ``speed.py``), ``wallS`` is not.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import paths
from speed import Sampler


def main() -> int:
    paths.use_checkout()
    with Sampler() as sampler:
        start = perf_counter()
        import workloads

        workloads.WORKLOADS[sys.argv[1]]().setup()
        end = perf_counter()
    print(json.dumps({"setup_s": sampler.scaled(start, end), "wallS": end - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
