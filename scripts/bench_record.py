#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics of a change, optionally paired
with its parent, as ``BENCH_<pr>.json``.

    python scripts/bench_record.py --pr 7 --workloads cohort-sim study-fit \\
        --seeds 101 102 103 --seconds 30 [--parent DIR] [--out FILE]

Each (workload, seed) runs ``bench/run.py`` once in this checkout and, with
``--parent``, once in the parent checkout DIR, the side that goes first
alternating from seed to seed. The file holds the machine (cores, Python and
numpy versions), every run's result line, per workload and side the median
and quartiles of each end-to-end metric named in ``BENCHMARK.json``, and per
metric the pairs the change wins, loses and ties by that metric's direction,
and per workload and side one traced run (``--trace 1``) at the first seed,
with its per-layer metrics.

Workload names are checked against ``BENCHMARK.json`` before anything runs.
A run that reports ``correct: false`` or failed operations is kept in the
file, but the script then lists every such run and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_bench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``bench/run.py`` process in ``tree``; returns its result line."""
    cmd = [
        sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    return result


def summary(runs: list[dict], names: list[str]) -> dict:
    """Median and quartiles (``statistics.quantiles``, n=4) of each metric."""
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "unit": runs[0]["metrics"][name]["unit"],
        }
    return out


def pair_wins(change: list[dict], parent: list[dict], better: dict[str, str]) -> dict:
    """Per metric, how many seed pairs the change wins, loses and ties."""
    out = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        diffs = [
            sign * (p["metrics"][name]["value"] - c["metrics"][name]["value"])
            for c, p in zip(change, parent)
        ]
        out[name] = {
            "change": sum(d > 0 for d in diffs),
            "parent": sum(d < 0 for d in diffs),
            "ties": sum(d == 0 for d in diffs),
        }
    return out


def faulty_runs(record: dict) -> list[str]:
    """One line per run of the record that is not correct or has failed
    operations, timed and traced runs alike."""
    out = []
    for workload, entry in record["workloads"].items():
        runs = [(side, "", run) for side in ("change", "parent") if side in entry for run in entry[side]["runs"]]
        runs += [(side, " traced", run) for side, run in entry["traced"].items()]
        for side, kind, run in runs:
            if not run["correct"] or run["failed"]:
                out.append(
                    f"{workload} {side}{kind} seed {run['seed']}: correct={run['correct']}, "
                    f"failed {run['failed']} of {run['attempted']}"
                )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--pr", required=True, help="label of the change; names the output BENCH_<pr>.json")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit to pair each run with")
    parser.add_argument("--out", type=Path, help="output file (default: BENCH_<pr>.json at the repo root)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    unknown = [w for w in args.workloads if w not in known]
    if unknown:
        parser.error(f"unknown workloads {unknown}; BENCHMARK.json declares {known}")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"change": ROOT}
    if args.parent is not None:
        sides["parent"] = args.parent.resolve()

    record = {
        "pr": args.pr,
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "settings": {"seconds": args.seconds, "seeds": args.seeds, "paired": "parent" in sides},
        "workloads": {},
    }
    for workload in args.workloads:
        runs = {side: [] for side in sides}
        for i, seed in enumerate(args.seeds):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                result = run_bench(sides[side], workload, seed, args.seconds, trace=0)
                runs[side].append(result)
                print(f"{workload} seed {seed} {side}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                ), flush=True)
        entry = {
            side: {"runs": side_runs, "summary": summary(side_runs, list(better))}
            for side, side_runs in runs.items()
        }
        if "parent" in runs:
            entry["pair_wins"] = pair_wins(runs["change"], runs["parent"], better)
        entry["traced"] = {
            side: run_bench(tree, workload, args.seeds[0], args.seconds, trace=1) for side, tree in sides.items()
        }
        record["workloads"][workload] = entry

    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    faulty = faulty_runs(record)
    for line in faulty:
        print(f"FAULTY RUN: {line}", file=sys.stderr)
    return 1 if faulty else 0


if __name__ == "__main__":
    sys.exit(main())
