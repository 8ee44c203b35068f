#!/usr/bin/env python3
"""Three-state simulation study, end to end.

Simulates a cohort from the known model (piecewise-affine biomarker with a
slope change at tau = 6, value+slope hazard links, exponential clock-reset
baselines), fits it from zero/identity initialization by stochastic gradient
ascent, estimates standard errors from the Fisher information, and runs a
dynamic-prediction accuracy sweep on a held-out test cohort.

Usage:
    python scripts/run_simulation_study.py [--n 1000] [--seed 42] [--out out/study]
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

from msjoint import build_buckets
from msjoint.inference import FitConfig, StopRule, compute_fim, fit, stderr
from msjoint.io import write_cohort, write_params
from msjoint.params import flatten
from msjoint.predict import accuracy, predict_cohort_grid
from msjoint.sampler import SamplerConfig
from msjoint.simulate import generate_cohort
from msjoint.study import study_model


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--m", type=int, default=20)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, default=Path("out/study"))
    parser.add_argument("--max-iterations", type=int, default=500)
    parser.add_argument("--skip-predict", action="store_true")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    graph, design, truth, init = study_model()

    print(f"simulating n={args.n}, m={args.m}, seed={args.seed} ...")
    cohort, latent = generate_cohort(design, truth, args.n, args.m, seed=args.seed)
    counts = build_buckets(graph, cohort.trajectories(), cohort.censoring_times()).counts()
    print("observed transitions:", {f"{a}->{b}": c for (a, b), c in sorted(counts.items())})
    write_cohort(cohort, args.out / "data", latent=latent)

    print("fitting from zero/identity initialization ...")
    t0 = time.time()
    report = fit(
        cohort, design, graph, init,
        FitConfig(learning_rate=0.5, max_iterations=args.max_iterations, n_draws=15),
        StopRule(rtol=0.1),
        SamplerConfig(n_chains=5, warmup=150),
        seed=args.seed,
    )
    elapsed = time.time() - t0
    print(f"fit finished: {report.iterations} iterations ({report.stop_reason}) in {elapsed:.0f}s")
    write_params(report.params, args.out / "params.json")

    print("estimating the Fisher information ...")
    estimate = compute_fim(
        cohort, design, graph, report.params,
        SamplerConfig(n_chains=5, warmup=150), n_samples=2000, seed=args.seed + 1,
    )
    errs = stderr(estimate)

    names = report.params.layout().names()
    est = flatten(report.params)
    true_vec = flatten(truth)
    print(f"\n{'parameter':24s} {'true':>9s} {'estimate':>9s} {'stderr':>8s}")
    for name, tv, ev, se in zip(names, true_vec, est, errs):
        print(f"{name:24s} {tv:9.4f} {ev:9.4f} {se:8.4f}")
    with open(args.out / "estimates.json", "w") as f:
        json.dump(
            {n: {"true": float(t), "estimate": float(e), "stderr": float(s)}
             for n, t, e, s in zip(names, true_vec, est, errs)},
            f, indent=2,
        )
        f.write("\n")

    if args.skip_predict:
        return

    print("\ndynamic prediction on a held-out test cohort (n=200) ...")
    test_cohort, _ = generate_cohort(design, truth, 200, args.m, seed=args.seed + 1000)
    truncations = [2.0, 5.0, 8.0]
    horizons = np.array([2.0, 5.0, 8.0, 11.0, 14.0])
    rng = np.random.default_rng(args.seed + 2000)
    rows = []
    for t in truncations:
        probs, capped = predict_cohort_grid(
            test_cohort, t, horizons, design, report.params, graph,
            SamplerConfig(n_chains=5, warmup=400, thin=5), 200, rng,
        )
        modal = np.argmax(probs, axis=2)
        truth_states = np.array([[rec.trajectory.state_at(u) for u in row] for rec, row in zip(test_cohort, capped)])
        acc = np.array([accuracy(modal[:, ui], truth_states[:, ui]) for ui in range(horizons.size)])
        rows.append(acc)
        print(f"truncation t={t}: accuracy " + " ".join(f"u={u}:{a:.3f}" for u, a in zip(horizons, acc)))
    np.savetxt(
        args.out / "accuracy.csv",
        np.column_stack([np.repeat(truncations, horizons.size),
                         np.tile(horizons, len(truncations)),
                         np.concatenate(rows)]),
        delimiter=",", header="truncation,horizon,accuracy", comments="",
    )
    print(f"\noutputs in {args.out}")


if __name__ == "__main__":
    main()
