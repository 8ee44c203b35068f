#!/usr/bin/env python3
"""Time the package's kernels in this checkout against another one, in
alternation.

    python scripts/kernel_ab.py --parent DIR [--rounds 15] [--out FILE]

One long-lived worker process per tree (``PYTHONPATH=<tree>/src``,
``OMP_NUM_THREADS=1``) builds the same inputs: the seed-42 n=1000 study
cohort at the study truth, with random effects near the simulated ones at 5
and 15 chains, and one record in state 1 truncated at t = 4. Kernel after
kernel, each round times the kernel once on each side, the side that goes
first alternating from round to round; a timing is the mean over a batch of
calls, sized by one call of each side before the rounds so that the slower
side's batch takes about 30 ms. Per kernel
and side the report holds the median and quartiles of the per-call time
over the rounds, in microseconds, the median minor page faults per call
(``ru_minflt`` of the worker over the batch), and the rounds the change
wins.

The faults a kernel takes depend on what the process freed before it: once
a process has freed large arrays (the CSV kernels do), the C allocator
raises its threshold for fresh mappings and keeps freed pages in its heap, so
later kernels fault far less on either side. The fit kernel therefore runs
first, in the state of a process that has only built its inputs, as a fit in
a fresh process does. Kernels, in order:

- ten iterations of the study fit on the n=1000 cohort from the study's
  zero/identity start, with the study-fit benchmark's settings
  (``FitConfig(learning_rate=0.5, n_draws=15)``, 5 chains, warmup 150) and
  the engine built once;
- ``bind`` at n=1000 and n=1, and ``bind`` followed by one
  ``posterior_logdensity`` at n=1000, C=5 (the pattern of a fit iteration,
  which pays for everything a bound value forms on first use);
- ``posterior_logdensity`` on a bound value at n=1, C=5 and n=1000, C=5 and
  C=15;
- ``grad_theta`` at C=15 over the cohort and over 100 of its individuals,
  and ``individual_scores`` at C=5, n=1000;
- Q's ``log_det_precision``;
- one ``predict_state_grid`` request for the truncated record (200 draws,
  5 chains, warmup 150, thin 5), its conditioning alone
  (``posterior_condition`` with the same settings), and its continuation
  alone: the same request with 200 posterior draws of the record's random
  effects drawn once before the rounds and passed as ``b_draws``;
- ``condition_cohort`` of the seed-1042 n=200 study cohort truncated at
  t = 2 (200 draws, 5 chains, warmup 400, thin 5: the benchmark's cohort
  sweep);
- ``generate_cohort``, ``write_cohort`` and ``read_cohort`` of the n=1000
  cohort.

The report is printed, and written as JSON with the machine (cores, Python
and numpy versions) to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BATCH_SECONDS = 0.03


def build_kernels(work: Path) -> dict:
    """Name -> zero-argument callable, for the ``msjoint`` importable here;
    the cohort files are written and read under ``work``."""
    from msjoint import Cohort, LikelihoodEngine
    from msjoint.inference import FitConfig, fit
    from msjoint.io import read_cohort, write_cohort
    from msjoint.predict import condition_cohort, posterior_condition, predict_state_grid
    from msjoint.sampler import SamplerConfig
    from msjoint.simulate import generate_cohort
    from msjoint.study import study_model

    graph, design, truth, init = study_model()
    cohort, latent = generate_cohort(design, truth, n=1000, m=20, seed=42)
    heldout, _ = generate_cohort(design, truth, n=200, m=20, seed=1042)
    engine = LikelihoodEngine(cohort, design, graph)
    rng = np.random.default_rng(1)
    b5 = latent["b"] + 0.3 * rng.standard_normal((5, 1000, 3))
    b15 = latent["b"] + 0.3 * rng.standard_normal((15, 1000, 3))
    i = next(
        i for i, rec in enumerate(cohort)
        if [s for t, s in rec.trajectory.pairs if t <= 4.0][-1] == 1 and rec.censoring_time > 4.0
    )
    record = cohort[i]
    one = LikelihoodEngine(Cohort((record.truncated(4.0),)), design, graph)
    b1 = latent["b"][i:i + 1] + 0.3 * rng.standard_normal((5, 1, 3))
    bound, bound1 = engine.bind(truth), one.bind(truth)
    engine.posterior_logdensity(bound, b5)  # a bound value's first call forms what it caches
    one.posterior_logdensity(bound1, b1)
    sampler = SamplerConfig(n_chains=5, warmup=150, thin=5)
    sweep_sampler = SamplerConfig(n_chains=5, warmup=400, thin=5)
    b_fixed = posterior_condition(record, 4.0, design, truth, graph, sampler, n_draws=200, seed=0)
    fit_config = FitConfig(max_iterations=10, learning_rate=0.5, n_draws=15)
    fit_sampler = SamplerConfig(n_chains=5, warmup=150)
    subset = np.sort(rng.choice(1000, size=100, replace=False))
    write_cohort(cohort, work)
    return {
        "fit 10 iterations n=1000": lambda: fit(
            cohort, design, graph, init, fit_config, sampler_config=fit_sampler, engine=engine
        ),
        "bind n=1000": lambda: engine.bind(truth),
        "bind n=1": lambda: one.bind(truth),
        "bind + posterior_logdensity n=1000 C=5": lambda: engine.posterior_logdensity(engine.bind(truth), b5),
        "posterior_logdensity n=1 C=5": lambda: one.posterior_logdensity(bound1, b1),
        "posterior_logdensity n=1000 C=5": lambda: engine.posterior_logdensity(bound, b5),
        "posterior_logdensity n=1000 C=15": lambda: engine.posterior_logdensity(bound, b15),
        "grad_theta n=1000 C=15": lambda: engine.grad_theta(bound, b15),
        "grad_theta 100 of n=1000 C=15": lambda: engine.grad_theta(bound, b15, subset=subset),
        "individual_scores n=1000 C=5": lambda: engine.individual_scores(bound, b5),
        "log_det_precision Q": lambda: truth.q_repr.log_det_precision(),
        "predict_state_grid request": lambda: predict_state_grid(
            record, 4.0, [5.0, 8.0, 12.0], design, truth, graph, n_draws=200, rng=0, sampler_config=sampler
        ),
        "posterior_condition request": lambda: posterior_condition(
            record, 4.0, design, truth, graph, sampler, n_draws=200, seed=0
        ),
        "predict_state_grid continuation": lambda: predict_state_grid(
            record, 4.0, [5.0, 8.0, 12.0], design, truth, graph, n_draws=200, rng=0, b_draws=b_fixed
        ),
        "condition_cohort n=200 t=2": lambda: condition_cohort(
            heldout, 2.0, design, truth, graph, sweep_sampler, n_draws=200, seed=0
        ),
        "generate_cohort n=1000": lambda: generate_cohort(design, truth, n=1000, m=20, seed=42),
        "write_cohort n=1000": lambda: write_cohort(cohort, work),
        "read_cohort n=1000": lambda: read_cohort(work),
    }


def serve() -> None:
    """The worker: build the kernels, print their names as one JSON line,
    then answer each request line ``<number> <name>`` with the mean seconds
    and minor page faults per call of ``number`` calls, until stdin closes."""
    with tempfile.TemporaryDirectory() as work:
        kernels = build_kernels(Path(work))
        print(json.dumps(list(kernels)), flush=True)
        for line in sys.stdin:
            number, name = line.rstrip("\n").split(" ", 1)
            fn, number = kernels[name], int(number)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            for _ in range(number):
                fn()
            elapsed = time.perf_counter() - start
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            print(elapsed / number, faults / number, flush=True)


class Worker:
    """:func:`serve` in a subprocess that imports ``msjoint`` from ``tree``."""

    def __init__(self, tree: Path):
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OMP_NUM_THREADS": "1"}
        code = "import sys; sys.path.insert(0, sys.argv[1]); import kernel_ab; kernel_ab.serve()"
        self.tree = tree
        self.proc = subprocess.Popen(
            [sys.executable, "-c", code, str(ROOT / "scripts")],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.names = json.loads(self._line())

    def _line(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"kernel worker for {self.tree} exited {self.proc.wait()}")
        return line

    def measure(self, name: str, number: int) -> tuple[float, float]:
        """(seconds, minor page faults) per call of ``number`` calls."""
        self.proc.stdin.write(f"{number} {name}\n")
        self.proc.stdin.flush()
        seconds, faults = self._line().split()
        return float(seconds), float(faults)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def alternate(measure, names: list[str], rounds: int) -> dict[str, dict[str, list[tuple[float, float]]]]:
    """(seconds, minor page faults) per call of every kernel, per side
    (``parent``, ``change``) and round: ``measure(side, name, number)`` times
    ``number`` calls. Kernels run in the order given, all rounds of one
    before the next; the first side alternates from round to round, and
    ``number`` is sized on one call of each side first, so that a batch of
    the slower side takes about BATCH_SECONDS. Both sides run the same calls,
    as a worker's page faults depend on what it ran before."""
    times = {name: {"parent": [], "change": []} for name in names}
    for name in names:
        single = max(measure(side, name, 1)[0] for side in ("parent", "change"))
        number = max(1, int(BATCH_SECONDS / max(single, 1e-9)))
        for r in range(rounds):
            for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                times[name][side].append(measure(side, name, number))
    return times


def summarize(times: dict[str, dict[str, list[tuple[float, float]]]]) -> dict:
    """Per kernel and side the median and quartiles (``statistics.quantiles``,
    n=4) in microseconds and the median page faults per call, and the rounds
    the change is faster (ties count for neither side)."""
    out = {}
    for name, sides in times.items():
        entry = {}
        for side, values in sides.items():
            us = [1e6 * v for v, _ in values]
            q1, _, q3 = statistics.quantiles(us, n=4) if len(us) > 1 else us * 3
            faults = statistics.median(f for _, f in values)
            entry[side] = {"median_us": statistics.median(us), "q1_us": q1, "q3_us": q3, "faults_per_call": faults}
        pairs = [(p, c) for (p, _), (c, _) in zip(sides["parent"], sides["change"])]
        entry["change_wins"] = sum(c < p for p, c in pairs)
        entry["rounds"] = len(pairs)
        entry["ratio"] = entry["change"]["median_us"] / entry["parent"]["median_us"]
        out[name] = entry
    return out


def machine() -> dict:
    return {"cores": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout to compare this one with")
    parser.add_argument("--rounds", type=int, default=15, help="alternating rounds per kernel (default 15)")
    parser.add_argument("--out", type=Path, help="write the report as JSON here")
    args = parser.parse_args(argv)
    workers = {"change": Worker(ROOT), "parent": Worker(args.parent.resolve())}
    try:
        measure = lambda side, name, number: workers[side].measure(name, number)  # noqa: E731
        times = alternate(measure, workers["change"].names, args.rounds)
    finally:
        for worker in workers.values():
            worker.close()
    report = {"machine": machine(), "rounds": args.rounds, "kernels": summarize(times)}
    for name, entry in report["kernels"].items():
        p, c = entry["parent"], entry["change"]
        print(f"{name:42s} {p['median_us']:10.1f} -> {c['median_us']:10.1f} us "
              f"(x{entry['ratio']:.2f}, change wins {entry['change_wins']}/{entry['rounds']}; "
              f"faults per call {p['faults_per_call']:.0f} -> {c['faults_per_call']:.0f})")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
