#!/usr/bin/env python3
"""Benchmark of the maxplus CSR pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, runs the measured rounds for
about S seconds in one process and one thread, checks the outputs, and
prints every metric by name with its unit.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1`` (whose spans also go to
``perfbench/out/trace-<workload>-<seed>.json``).  ``--toy`` shrinks every
instance for the benchmark's own tests.

The library is imported from ``src/`` next to this directory; without it
the run fails with exit code 2.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--toy", action="store_true", help="tiny instances, for tests")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "maxplus" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"perfbench: no maxplus source tree (src/maxplus, fixtures/) under {ROOT}", file=sys.stderr)
        return 2
    # Single-threaded closed loop: pin the numeric thread pools before numpy
    # loads, and keep the CLI's verify fan-out switch out of the environment.
    for var in THREAD_POOLS:
        os.environ[var] = "1"
    os.environ.pop("THREADS", None)
    sys.path.insert(0, str(src))
    import bench

    trace_out = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), args.toy, trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
