#!/usr/bin/env python3
"""Benchmark of msjoint on the paper's three-state study.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Runs one workload (study-fit, study-analysis or cohort-sim; see README.md)
on inputs made from the seed, checks its outputs against independent
references, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The program is imported from ``src/`` of the checkout this file sits in.
"""

import os

# one BLAS thread: the engine is single-threaded numpy, and one thread keeps
# the figures steady on a shared machine
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["study-fit", "study-analysis", "cohort-sim"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    sys.path.insert(0, str(SRC))
    try:
        import msjoint
    except ImportError as exc:
        print(f"cannot import msjoint from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(msjoint.__file__).resolve().parent.parent != SRC:
        print(f"msjoint was imported from {msjoint.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    run = workloads.Run(seed=args.seed, seconds=args.seconds, traced=bool(args.trace), out_dir=OUT)
    if args.trace:
        with tracing.instrumented(run.tracer):
            workloads.WORKLOADS[args.workload](run)
        # the traced run's own end-to-end figures, to compare with untraced runs
        print("traced end-to-end: " + ", ".join(f"{k}={v:.4g} {u}" for k, (v, u) in run.metrics.items()))
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.npz"
        run.tracer.write(trace_file)
        print(f"spans written to {trace_file}")
        metrics = tracing.layer_metrics(run.tracer, len(run.setup_times))
    else:
        workloads.WORKLOADS[args.workload](run)
        metrics = run.metrics
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
