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

from msjoint import ModelDesign, ModelParams, build_buckets, build_graph, repr_from_cov
from msjoint.families import GammaPlusB, PiecewiseAffine, ValueSlopeLink
from msjoint.hazards import ExponentialHazard
from msjoint.inference import FitConfig, StopRule, compute_fim, fit, stderr
from msjoint.io import write_cohort, write_params
from msjoint.params import flatten
from msjoint.predict import predict_cohort_grid
from msjoint.sampler import SamplerConfig
from msjoint.simulate import generate_cohort

TRUE_GAMMA = np.array([2.5, -1.3, 0.2])
TRUE_Q = np.diag([0.6, 0.2, 0.3])
TRUE_R = np.array([[1.7]])
TRUE_ALPHA = {(0, 1): [-0.5, -3.0], (0, 2): [-1.0, -5.0], (1, 2): [0.0, -1.2]}
TRUE_BETA = {(0, 1): [-1.3], (0, 2): [-0.9], (1, 2): [-0.7]}
RATES = {(0, 1): 0.1, (0, 2): 0.01, (1, 2): 0.2}


def build_model():
    graph = build_graph(3, sorted(RATES), labels=["healthy", "sick", "terminal"])
    regression = PiecewiseAffine(6.0)
    link = ValueSlopeLink(regression)
    design = ModelDesign(
        GammaPlusB(), regression,
        {edge: (ExponentialHazard(rate), link) for edge, rate in RATES.items()},
    )
    truth = ModelParams(
        gamma=TRUE_GAMMA,
        q_repr=repr_from_cov(TRUE_Q, "diag"),
        r_repr=repr_from_cov(TRUE_R, "ball"),
        alpha=TRUE_ALPHA,
        beta=TRUE_BETA,
    )
    init = ModelParams(
        gamma=np.zeros(3),
        q_repr=repr_from_cov(np.eye(3), "diag"),
        r_repr=repr_from_cov(np.eye(1), "ball"),
        alpha={e: np.zeros(2) for e in RATES},
        beta={e: np.zeros(1) for e in RATES},
    )
    return graph, design, truth, init


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

    graph, design, truth, init = build_model()

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
        truth_states = [[rec.trajectory.state_at(u) for u in row] for rec, row in zip(test_cohort, capped)]
        acc = np.mean(np.argmax(probs, axis=2) == np.array(truth_states), axis=0)
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
