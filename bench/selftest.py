#!/usr/bin/env python3
"""Toy-size self-test of the benchmark's checks: each check passes on the
program's output and fails once that output is perturbed.

    python3 bench/selftest.py

Exits 0 when every check behaves, 1 otherwise; takes a few seconds.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from msjoint import Cohort, LikelihoodEngine, Trajectory, build_buckets  # noqa: E402
from msjoint.inference import compute_fim, stderr  # noqa: E402
from msjoint.io import read_cohort, write_cohort  # noqa: E402
from msjoint.predict import condition_cohort, predict_state_grid  # noqa: E402
from msjoint.sampler import SamplerConfig  # noqa: E402
from msjoint.simulate import generate_cohort  # noqa: E402

import oracle  # noqa: E402
import study  # noqa: E402

RESULTS = []


def expect(name, good, bad):
    """``good``: problems found on the program's output (must be none);
    ``bad``: problems found on the perturbed output (must be some)."""
    ok = not good and bool(bad)
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {len(good)} problems on the output, "
          f"{len(bad)} on the perturbed output {(good or bad)[:1]}")


def replace_record(cohort, i, **changes):
    records = list(cohort)
    records[i] = dataclasses.replace(records[i], **changes)
    return Cohort(tuple(records), n_covariates=cohort.n_covariates, n_biomarkers=cohort.n_biomarkers)


def scaled_times(cohort, factor):
    """The cohort with every transition time multiplied by ``factor``."""
    return Cohort(tuple(
        dataclasses.replace(rec, trajectory=Trajectory(tuple((t * factor, s) for t, s in rec.trajectory.pairs)))
        for rec in cohort
    ), n_covariates=cohort.n_covariates, n_biomarkers=cohort.n_biomarkers)


def main() -> int:
    plain = study.Families()
    sm, rm = study.study_model(plain), study.recurrent_model(plain)
    design, truth, graph = sm.design, sm.truth, sm.graph
    rng = np.random.default_rng(0)

    # fit: reference table, ascent
    mean, se = np.array(oracle.TABLE["mean"]), np.array(oracle.TABLE["se"])
    expect("estimates within 4 SE of the table", oracle.check_table(mean + 3.9 * se * rng.choice([-1, 1], 16)),
           oracle.check_table(mean + 4.1 * se * np.eye(16)[7]))
    ll = -30000 + 1000 * np.log1p(np.arange(40))
    expect("log-likelihood ascent", oracle.check_ascent(ll), oracle.check_ascent(ll[::-1]))

    # engine log-density and scores against the reference likelihoods
    toy, _ = generate_cohort(design, truth, n=25, m=6, seed=5)
    engine = LikelihoodEngine(toy, design, graph)
    b = rng.standard_normal((25, 3)) * np.sqrt(study.Q_DIAG)
    idx = [0, 7, 19]
    recs = [toy[i] for i in idx]
    want = [oracle.reference_loglik(r, b[i], truth, design, graph) for r, i in zip(recs, idx)]
    got = engine.posterior_logdensity(truth, b)[idx]
    expect("log-density vs reference", oracle.check_close("ld", got, want, 1e-9),
           oracle.check_close("ld", got + 1e-6 * np.abs(got), want, 1e-9))
    scores = engine.individual_scores(truth, b)[0, idx]
    fd = oracle.fd_scores(recs, b[idx], truth, design, graph)
    bumped = scores.copy()
    bumped[1, 9] *= 1.01
    expect("individual scores vs finite differences", oracle.check_close("s", scores, fd, oracle.FD_TOL),
           oracle.check_close("s", bumped, fd, oracle.FD_TOL))

    # Fisher information
    cohort100, _ = generate_cohort(design, truth, n=100, m=10, seed=6)
    fim = compute_fim(cohort100, design, graph, truth, SamplerConfig(n_chains=5, warmup=30), n_samples=50, seed=1)
    errs = stderr(fim)
    lopsided = fim.matrix.copy()
    lopsided[0, 1] += 1.0
    top = np.linalg.eigvalsh(fim.matrix).max()
    indefinite = fim.matrix - 2 * top * np.outer(np.eye(16)[3], np.eye(16)[3])
    expect("FIM symmetric", oracle.check_fim(fim.matrix, errs), oracle.check_fim(lopsided, errs))
    expect("FIM positive definite", oracle.check_fim(fim.matrix, errs), oracle.check_fim(indefinite, errs))

    # prediction sweep against the illness-death probabilities
    held, _ = generate_cohort(design, truth, n=60, m=20, seed=7)
    t = 2.0
    draws = condition_cohort(held, t, design, truth, graph, SamplerConfig(n_chains=5, warmup=100, thin=2), 200, seed=3)
    agree, shifted, past, past_bad = oracle.SweepAgreement(), oracle.SweepAgreement(), [], []
    for i, rec in enumerate(held):
        horizons = np.minimum(np.array([2.0, 5.0, 8.0, 11.0]), rec.censoring_time)
        probs, _ = predict_state_grid(rec, t, horizons, design, truth, graph, n_draws=200,
                                      rng=np.random.default_rng(i), b_draws=draws[:, i])
        past += oracle.check_past_mass(probs, horizons, t, rec.trajectory)
        moved = probs.copy()
        moved[0] = np.roll(moved[0], 1)
        past_bad += oracle.check_past_mass(moved, horizons, t, rec.trajectory)
        later = horizons > t
        ref = oracle.illness_death_probs(truth.gamma + draws[:200, i], rec.covariates, t,
                                         rec.trajectory.state_at(t), horizons[later])
        for k, ui in enumerate(np.nonzero(later)[0]):
            agree.add(t, ui, probs[ui], ref[:, k])
            healthy = rec.trajectory.state_at(t) == 0 and probs[ui, 0] >= 0.1
            row = probs[ui] + (np.array([-0.1, 0.1, 0.0]) if healthy else 0.0)
            shifted.add(t, ui, row, ref[:, k])
    expect("all mass on the observed state at u <= t", past, past_bad)
    expect("sweep agrees with the illness-death model", agree.problems(), shifted.problems())

    # simulated cohorts: counts, structure, sojourn uniforms, round trip
    big, latent = generate_cohort(design, truth, n=1000, m=20, seed=8)
    counts = build_buckets(graph, big.trajectories(), big.censoring_times()).counts()
    expect("transition counts", oracle.check_counts(counts),
           oracle.check_counts({**counts, (1, 2): counts[(1, 2)] + int(4.1 * np.sqrt(592)) + 30}))
    i = next(j for j, r in enumerate(big) if len(r.trajectory) == 2 and r.trajectory.pairs[1][1] == 1)
    rec = big[i]
    late = replace_record(big, i, censoring_time=rec.trajectory.pairs[1][0] - 1e-3)
    off_graph = replace_record(big, i, trajectory=Trajectory((rec.trajectory.pairs[0], (rec.trajectory.pairs[1][0], 0))))
    y = rec.measurements.copy()
    y[-1] = 1.0
    unmasked = replace_record(big, i, measurements=y, censoring_time=rec.measurement_times[-1] - 1e-3,
                              trajectory=rec.trajectory.truncated(rec.measurement_times[-1] - 1e-3))
    expect("transitions on edges, at or before C", oracle.check_cohort(big, graph),
           oracle.check_cohort(late, graph) + oracle.check_cohort(off_graph, graph))
    expect("rows after C missing", oracle.check_cohort(big, graph), oracle.check_cohort(unmasked, graph))
    for name, model, cohort, lat in (("study", sm, big, latent),
                                     ("recurrent", rm, *generate_cohort(rm.design, rm.truth, n=300, m=5, seed=9))):
        u = oracle.sojourn_uniforms(name, model.graph, cohort, lat["psi"])
        u_bad = oracle.sojourn_uniforms(name, model.graph, scaled_times(cohort, 0.8), lat["psi"])
        expect(f"{name} sojourn uniforms", oracle.check_uniform(name, u), oracle.check_uniform(name, u_bad))

    tmp = Path(tempfile.mkdtemp(dir=Path(__file__).resolve().parent))
    try:
        write_cohort(toy, tmp / "c")
        back = read_cohort(tmp / "c")
    finally:
        shutil.rmtree(tmp)
    y = back[3].measurements.copy()
    y[0, 0] = np.nextafter(y[0, 0], np.inf)
    expect("CSV round trip bit-exact", oracle.check_round_trip(toy, back),
           oracle.check_round_trip(toy, replace_record(back, 3, measurements=y)))

    # the oracle's two integrals agree with each other
    psi = truth.gamma + rng.standard_normal((4, 3)) * np.sqrt(study.Q_DIAG)
    x = np.array([0.4])
    closed = oracle._study_cum((0, 1), psi, x, 2.0, np.array([9.5]))[:, 0]
    gl = oracle.cumulative("study", (0, 1), np.full(4, 2.0), np.full(4, 2.0), np.full(4, 9.5), psi, np.tile(x, (4, 1)))
    expect("closed-form and quadrature Lambda agree", oracle.check_close("L", closed, gl, 1e-10),
           oracle.check_close("L", closed * 1.001, gl, 1e-10))

    print(f"{sum(RESULTS)}/{len(RESULTS)} checks behave")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
