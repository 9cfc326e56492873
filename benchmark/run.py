#!/usr/bin/env python3
"""Run one benchmark workload of cornergraph and print its result.

    python3 benchmark/run.py --workload {train,score} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ``src/`` in the
same process, single-threaded, with numpy's BLAS pinned to one thread.  Set-up
writes the inputs, made from ``--seed``, under ``.bench_out/``; rounds of the
workload then repeat for about ``--seconds`` seconds, and the outputs of the
last round are checked.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
"""

import os
import sys

# must precede the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("train", "score")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import cornergraph.cli
    except ImportError as exc:
        print(f"cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(cornergraph.cli.__file__).startswith(src + os.sep):
        print(f"cornergraph comes from {cornergraph.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import run_workload

    out_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
