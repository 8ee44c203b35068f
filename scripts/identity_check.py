#!/usr/bin/env python3
"""Check that this checkout computes byte for byte what another one does.

    python scripts/identity_check.py --parent DIR

For DIR and then for this checkout, one subprocess with
``PYTHONPATH=<tree>/src`` and ``OMP_NUM_THREADS=1`` runs the same hashing
pass and reports the SHA-256 of every item. The passes share one directory
of cohorts: the parent's pass writes every cohort it generates there
(``write_cohort``, with the latent b and psi as ``latent.npz``), and both
passes run everything but the simulation on those files. A change to the
simulator then shows only in the ``generate_cohort`` items and in the
``cli simulate`` files, not in every item computed from a cohort.

The items:

- each file written by ``msjoint simulate``, ``fit``, ``fim`` and
  ``predict`` for ``study_config(n=60, m=6)`` of ``tests/test_cli.py``, with
  seeds 11, 5, 6 and 8; ``fit``, ``fim`` and ``predict`` read the shared
  copy of the parent's ``simulate`` output;
- on the seed-42 n=1000 study cohort: the records of ``generate_cohort``;
  on the shared copy of that cohort, the records of ``read_cohort`` after
  ``write_cohort``, ``cumulative_intensity`` of every edge over the second
  half of each follow-up, ``posterior_logdensity`` at C=5, ``grad_theta`` at C=15
  for the whole cohort and for 100 individuals, ``individual_scores`` at
  C=5, the ``theta_history`` and ``loglik_history`` of a 20-iteration Adam
  ``fit``, the ``theta_history`` of a 10-iteration SGD ``fit`` with a power
  schedule on 100-individual minibatches, a 50-draw ``compute_fim`` and
  ``predict_state_grid`` requests for the first ten records still at risk
  at t = 4;
- on n=200, m=6, seed-7 cohorts of the study rebuilt with ``ValueLink`` on
  (0,1) and (0,2) and ``SlopeLink`` on (1,2), of the study rebuilt from
  ``CustomRegression`` and ``CustomLink`` wrapping its families' callbacks,
  of the study with a trainable ``ExponentialHazard`` on every edge at
  ``extra = design.initial_extra()``, and of the study with the effects map
  ``TransformStack(("identity", "exp", "identity"))``, which is not additive
  (so the gradient reduces per chain and the posterior takes three terms),
  at gamma_2 = log 1.3: one item each for the records of
  ``generate_cohort``, and one for ``posterior_logdensity``, ``grad_theta``
  and ``individual_scores`` at C=5 on the shared copy;
- for seeded ``full``, ``diag`` and ``ball`` precision representations at
  q = 1, 2, 3 and the study's Q and R: ``chol_factor``, ``precision``,
  ``covariance`` and ``log_det_precision``, plus ``grad_values`` at seeded
  SPD outer sums and counts for the ``full`` ones.

Every item is listed as equal or different; the script exits 1 on any
difference, and 0 when every item is equal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def shared_cohort(directory: Path, cohort, latent):
    """The cohort and latent (b, psi) as read back from ``directory``, where
    the first pass to ask writes the ``cohort`` and ``latent`` it generated;
    a later pass reads what that one wrote and ignores its own."""
    from msjoint.io import read_cohort, write_cohort

    if not directory.exists():
        write_cohort(cohort, directory)
        np.savez(directory / "latent.npz", b=latent["b"], psi=latent["psi"])
    with np.load(directory / "latent.npz") as saved:
        return read_cohort(directory), {"b": saved["b"], "psi": saved["psi"]}


def hash_items(work: Path, shared: Path) -> dict[str, str]:
    """The hashing pass, run in the tree whose ``msjoint`` is importable;
    outputs are written under ``work``, and the cohorts that the engine, fit,
    FIM and predict items use are shared through ``shared``."""
    from dataclasses import replace

    from msjoint.cli import main
    from msjoint.design import ModelDesign, cumulative_intensity
    from msjoint.families import CustomLink, CustomRegression, SlopeLink, TransformStack, ValueLink
    from msjoint.hazards import ExponentialHazard
    from msjoint.inference import FitConfig, compute_fim, fit
    from msjoint.io import read_cohort, write_cohort
    from msjoint.likelihood import LikelihoodEngine
    from msjoint.params import PrecisionRepr
    from msjoint.predict import predict_state_grid
    from msjoint.sampler import SamplerConfig
    from msjoint.simulate import generate_cohort
    from msjoint.study import study_model

    sys.path.insert(0, str(ROOT / "tests"))
    from test_cli import study_config

    out: dict[str, str] = {}
    config = work / "config.json"
    config.write_text(json.dumps(study_config(n=60, m=6)))
    common = ["--config", str(config), "--threads", "1"]
    data, fitted = ["--data", str(shared / "cli data")], ["--params", str(work / "fit" / "params.json")]
    for command, seed, extra in (
        ("simulate", 11, []), ("fit", 5, data), ("fim", 6, data + fitted), ("predict", 8, data + fitted),
    ):
        out_dir = work / command
        if main([command, *common, *extra, "--out", str(out_dir), "--seed", str(seed)]) != 0:
            raise RuntimeError(f"msjoint {command} failed")
        for path in sorted(out_dir.iterdir()):
            out[f"cli {command}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        if command == "simulate" and not (shared / "cli data").exists():
            shutil.copytree(out_dir, shared / "cli data")

    def records(cohort):
        return (a for rec in cohort for a in (
            rec.covariates, rec.measurement_times, rec.measurements,
            np.array(rec.trajectory.pairs, dtype=float), np.float64(rec.censoring_time),
        ))

    graph, design, truth, init = study_model()
    cohort, latent = generate_cohort(design, truth, n=1000, m=20, seed=42)
    out["generate_cohort"] = _digest(latent["b"], latent["psi"], *records(cohort))
    cohort, latent = shared_cohort(shared / "study", cohort, latent)
    write_cohort(cohort, work / "cohort")
    out["read_cohort after write_cohort"] = _digest(*records(read_cohort(work / "cohort")))
    x, cens = np.array([rec.covariates for rec in cohort]), np.asarray(cohort.censoring_times())
    out["cumulative_intensity"] = _digest(*(
        cumulative_intensity(design, truth, edge, np.zeros(1000), cens, x, latent["psi"], lower=0.5 * cens)
        for edge in design.edges
    ))
    engine = LikelihoodEngine(cohort, design, graph)
    rng = np.random.default_rng(1)
    q = truth.q_repr.dim
    b5 = latent["b"] + 0.3 * rng.standard_normal((5, 1000, q))
    b15 = latent["b"] + 0.3 * rng.standard_normal((15, 1000, q))
    subset = np.sort(rng.choice(1000, size=100, replace=False))
    out["posterior_logdensity C=5"] = _digest(engine.posterior_logdensity(truth, b5))
    out["grad_theta C=15"] = _digest(engine.grad_theta(truth, b15))
    out["grad_theta C=15 subset 100"] = _digest(engine.grad_theta(truth, b15, subset=subset))
    out["individual_scores C=5"] = _digest(engine.individual_scores(truth, b5))
    report = fit(cohort, design, graph, init, FitConfig(max_iterations=20, n_draws=10), seed=3, engine=engine)
    out["fit 20 iterations"] = _digest(report.theta_history, report.loglik_history)
    sgd = FitConfig(optimizer="sgd", learning_rate=1e-5, schedule_decay=0.75, minibatch=100, max_iterations=10, n_draws=10)
    out["fit sgd 10 iterations minibatch 100"] = _digest(fit(cohort, design, graph, init, sgd, seed=5, engine=engine).theta_history)
    fim = compute_fim(cohort, design, graph, truth, n_samples=50, seed=4, engine=engine)
    out["compute_fim 50 draws"] = _digest(fim.matrix)
    # the first ten records still at risk at t = 4: an absorbed record's
    # prediction is a point mass, whatever its posterior draws
    at_risk = [i for i, rec in enumerate(cohort)
               if rec.censoring_time > 4.0 and not graph.is_absorbing(rec.trajectory.state_at(4.0))]
    requests = [
        predict_state_grid(cohort[i], 4.0, [5.0, 8.0, 12.0], design, truth, graph, n_draws=50, rng=i,
                           sampler_config=SamplerConfig(warmup=100))
        for i in at_risk[:10]
    ]
    out["predict_state_grid 10 requests"] = _digest(*(a for probs, modal in requests for a in (probs, modal)))

    reg, link = design.regression, design.link((0, 1))
    value, slope = ValueLink(reg), SlopeLink(reg)
    custom_reg = CustomRegression(reg.value, reg.jac_psi, 1, reg.time_derivative, reg.time_derivative_jac_psi, n_psi=3)
    custom_link = CustomLink(link.value, link.jac_psi, dim=2)

    def rebuilt(regression, links, hazards=None):
        hazards = hazards or {e: design.hazard(e) for e in design.edges}
        return ModelDesign(design.effects, regression, {e: (hazards[e], links[e]) for e in design.edges})

    trainable = rebuilt(reg, dict.fromkeys(design.edges, link),
                        {e: ExponentialHazard(design.hazard(e).rate, trainable=True) for e in design.edges})
    variants = {
        "value and slope links": (rebuilt(reg, {(0, 1): value, (0, 2): value, (1, 2): slope}),
                                  replace(truth, alpha={(0, 1): [-0.5], (0, 2): [-1.0], (1, 2): [-1.2]})),
        "custom regression and link": (rebuilt(custom_reg, dict.fromkeys(design.edges, custom_link)), truth),
        "trainable exponential baselines": (trainable, replace(truth, extra=trainable.initial_extra())),
        "non-additive effects map": (replace(design, effects=TransformStack(("identity", "exp", "identity"))),
                                     replace(truth, gamma=np.array([2.5, np.log(1.3), 0.2]))),
    }
    for name, (variant, params) in variants.items():
        small, small_latent = generate_cohort(variant, params, n=200, m=6, seed=7)
        out[f"{name}: generate_cohort"] = _digest(small_latent["b"], small_latent["psi"], *records(small))
        small, small_latent = shared_cohort(shared / name, small, small_latent)
        small_engine = LikelihoodEngine(small, variant, graph)
        b = small_latent["b"] + 0.3 * np.random.default_rng(2).standard_normal((5, 200, q))
        out[f"{name}: C=5 posterior_logdensity, grad_theta, individual_scores"] = _digest(
            small_engine.posterior_logdensity(params, b), small_engine.grad_theta(params, b),
            small_engine.individual_scores(params, b),
        )

    rng = np.random.default_rng(7)
    n_free = {"full": (1, 3, 6), "diag": (1, 2, 3), "ball": (1, 1, 1)}
    reprs = [truth.q_repr, truth.r_repr] + [
        PrecisionRepr(method, q, rng.normal(scale=0.7, size=n_free[method][q - 1]))
        for method in n_free for q in (1, 2, 3) for _ in range(5)
    ]
    factors = []
    for rep in reprs:
        factors += [rep.chol_factor(), rep.precision(), rep.covariance(), np.float64(rep.log_det_precision())]
        if rep.method == "full":
            a = rng.normal(size=(2, 3, rep.dim, rep.dim + 1))
            factors.append(rep.grad_values(a @ np.swapaxes(a, -1, -2), rng.integers(1, 10, size=(2, 3))))
    out["precision factor"] = _digest(*factors)
    return out


def tree_hashes(tree: Path, shared: Path) -> dict[str, str]:
    """:func:`hash_items` in a subprocess that imports ``msjoint`` from
    ``tree``, sharing cohorts through ``shared``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OMP_NUM_THREADS": "1"}
    code = (
        "import json, sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); import identity_check; "
        "print(json.dumps(identity_check.hash_items(Path(sys.argv[2]), Path(sys.argv[3]))))"
    )
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "scripts"), work, str(shared)],
            env=env, cwd=work, capture_output=True, text=True,
        )
    if proc.returncode != 0:
        raise RuntimeError(f"hashing pass in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(change: dict[str, str], parent: dict[str, str]) -> list[tuple[str, str]]:
    """(item, verdict) for every item of either table, in sorted order: equal,
    different, or missing on the side that lacks it."""
    verdicts = []
    for item in sorted(change.keys() | parent.keys()):
        if item not in parent:
            verdicts.append((item, "missing in parent"))
        elif item not in change:
            verdicts.append((item, "missing in change"))
        else:
            verdicts.append((item, "equal" if change[item] == parent[item] else "different"))
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout to compare this one with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as shared:
        parent = tree_hashes(args.parent.resolve(), Path(shared))  # first: it writes the shared cohorts
        change = tree_hashes(ROOT, Path(shared))
    verdicts = compare(change, parent)
    for item, verdict in verdicts:
        print(f"{verdict:>17}  {item}")
    differ = sum(verdict != "equal" for _, verdict in verdicts)
    print(f"{len(verdicts) - differ} of {len(verdicts)} items equal")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
