"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line. The heavy fits reuse a module-scoped five-seed study."""

import json
import time

import numpy as np
import pytest
from scipy import stats

from conftest import (
    STUDY_ALPHA,
    STUDY_BETA,
    STUDY_GAMMA,
    STUDY_Q_DIAG,
    STUDY_R,
    STUDY_RATES,
    TABLE_MEAN,
    TABLE_RMSE,
    TABLE_SE,
    TRANSITION_COUNTS,
)
from msjoint import (
    Cohort,
    IndividualRecord,
    LikelihoodEngine,
    ModelDesign,
    ModelParams,
    Trajectory,
    build_buckets,
    build_graph,
    gauss_legendre,
    repr_from_cov,
)
from msjoint.cli import main as cli_main
from msjoint.families import BOnly, Polynomial, ValueLink
from msjoint.hazards import ExponentialHazard
from msjoint.inference import FitConfig, StopRule, compute_fim, fit, stderr, stop_check
from msjoint.params import Sharing, flatten, unflatten
from msjoint.predict import condition_cohort, predict_state_grid
from msjoint.sampler import SamplerConfig, init_chains, run
from msjoint.simulate import conditioned_equals_rejection, generate_cohort, sample_trajectories

KS_CRIT_1PCT = 1.63

STUDY_FIT_CONFIG = FitConfig(optimizer="adam", learning_rate=0.5, max_iterations=500, n_draws=15)
STUDY_STOP = dict(rtol=0.1)
STUDY_SAMPLER = SamplerConfig(n_chains=5, warmup=150)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:>2} [{name}]: {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def study_fits(study_design, study_params, study_init_params, study_graph):
    """Five independent simulate+fit replications of the reference study."""
    results = []
    for seed in range(5):
        cohort, _ = generate_cohort(study_design, study_params, n=1000, m=20, seed=42 + seed)
        t0 = time.time()
        fit_report = fit(
            cohort, study_design, study_graph, study_init_params,
            STUDY_FIT_CONFIG, StopRule(**STUDY_STOP), STUDY_SAMPLER, seed=100 + seed,
        )
        results.append((cohort, fit_report, time.time() - t0))
    return results


def test_criterion_01_parameter_recovery(study_fits, study_params):
    _, first, elapsed = study_fits[0]
    est = flatten(first.params)
    dev = np.abs(est - TABLE_MEAN) / TABLE_SE
    ok_bounds = bool((dev <= 4.0).all())
    ok_iters = first.iterations <= 500
    ok_time = elapsed <= 300.0
    truth = flatten(study_params)
    errs = np.array([flatten(r.params) - truth for _, r, _ in study_fits])
    rmse = np.sqrt((errs**2).mean(axis=0))
    ok_rmse = bool((rmse <= 2.5 * TABLE_RMSE).all())
    report(
        1, "simulation-study replication",
        ok_bounds and ok_iters and ok_time and ok_rmse,
        f"max dev {dev.max():.2f} se (<=4), fit {elapsed:.0f}s (<=300), "
        f"max RMSE ratio {np.max(rmse / TABLE_RMSE):.2f} (<=2.5) over 5 seeds",
    )


def test_criterion_02_transition_counts(study_cohort, study_graph):
    cohort, _ = study_cohort
    counts = build_buckets(study_graph, cohort.trajectories(), cohort.censoring_times()).counts()
    deltas = {e: abs(counts[e] - n) / np.sqrt(n) for e, n in TRANSITION_COUNTS.items()}
    ok = all(d <= 4.0 for d in deltas.values())
    report(2, "transition-count replication", ok, f"counts {counts}, max dev {max(deltas.values()):.2f} sqrt-units")


def test_criterion_03_quadrature_exactness():
    worst = 0.0
    for n in (2, 8, 32):
        nodes, weights = gauss_legendre(n)
        for degree in range(2 * n):
            approx = np.sum(weights * nodes**degree)
            exact = (1 - (-1) ** (degree + 1)) / (degree + 1)
            worst = max(worst, abs(approx - exact) / max(1.0, abs(exact)))
    report(3, "quadrature exactness", worst <= 1e-12, f"worst relative error {worst:.2e}")


def test_criterion_04_log_cholesky_round_trips():
    q = repr_from_cov(np.diag([0.6, 0.2, 0.3]), "diag")
    r = repr_from_cov([[1.7]], "ball")
    got = np.concatenate([q.values, r.values])
    want = np.array([0.2554, 0.8047, 0.6020, -0.2653])
    ok = np.allclose(np.round(got, 4), want, atol=5e-5)
    report(4, "log-Cholesky round trips", ok, f"values {np.round(got, 4)}")


def test_criterion_05_simulator_correctness():
    lam_a, lam_b = 0.3, 0.5
    edges = {(0, 1): lam_a, (0, 2): lam_b}
    g = build_graph(3, sorted(edges))
    reg = Polynomial(0)
    design = ModelDesign(BOnly(), reg, {e: (ExponentialHazard(l), ValueLink(reg)) for e, l in edges.items()})
    params = ModelParams(
        gamma=np.zeros(0),
        q_repr=repr_from_cov(np.eye(1), "diag"),
        r_repr=repr_from_cov(np.eye(1), "ball"),
        alpha={e: np.zeros(1) for e in edges},
        beta={e: np.zeros(1) for e in edges},
    )
    n = 100_000
    trajs = sample_trajectories(
        design, params, np.zeros((n, 1)), np.zeros((n, 1)), (0.0, 0),
        rng=np.random.default_rng(1005), censoring=np.inf,
    )
    times = np.array([tr.pairs[1][0] for tr in trajs])
    states = np.array([tr.pairs[1][1] for tr in trajs])
    d_exit = stats.kstest(times, "expon", args=(0, 1 / (lam_a + lam_b))).statistic
    ok_exit = d_exit * np.sqrt(n) < KS_CRIT_1PCT
    p = lam_a / (lam_a + lam_b)
    dev_state = abs((states == 1).mean() - p) / np.sqrt(p * (1 - p) / n)
    ok_state = dev_state < 3.0
    out = conditioned_equals_rejection(
        design, params, np.zeros(1), np.zeros(1), (0.0, 0), t_surv=1.0,
        n_draws=100_000, seed=1006,
    )
    ks2 = stats.ks_2samp(out["conditioned_times"], out["rejection_times"])
    ok_chasles = ks2.pvalue > 0.01
    fa = (out["conditioned_states"] == 1).mean()
    fb = (out["rejection_states"] == 1).mean()
    se2 = np.sqrt(2 * p * (1 - p) / len(out["conditioned_states"]))
    ok_states2 = abs(fa - fb) < 3 * se2
    report(
        5, "simulator correctness",
        ok_exit and ok_state and ok_chasles and ok_states2,
        f"exit KS {d_exit * np.sqrt(n):.2f} (<1.63), state dev {dev_state:.2f} sigma, "
        f"conditioned-vs-rejection p {ks2.pvalue:.3f} (>0.01)",
    )


def test_criterion_06_gradient_integrity(study_design, study_graph, study_params):
    cohort, _ = generate_cohort(study_design, study_params, n=25, m=6, seed=5)
    engine = LikelihoodEngine(cohort, study_design, study_graph)
    edges = study_graph.sorted_edges()
    shared = ModelParams(
        gamma=STUDY_GAMMA,
        q_repr=repr_from_cov(np.diag(STUDY_Q_DIAG), "diag"),
        r_repr=repr_from_cov(STUDY_R, "ball"),
        alpha={e: np.array([-0.4, -1.5]) for e in edges},
        beta={e: np.array([-0.8]) for e in edges},
        sharing=Sharing(beta=(tuple(edges),)),
    )
    rng = np.random.default_rng(1007)
    worst = 0.0
    cases = [(study_params, 12), (shared, 8)]  # tied-slot accumulation included
    for template, n_points in cases:
        theta0 = flatten(template)
        for _ in range(n_points):
            # moderate perturbations: far larger ones push |loglik| past 1e7,
            # where the finite-difference oracle itself loses digits
            theta = theta0 + rng.normal(scale=0.15, size=theta0.size)
            params = unflatten(theta, template)
            b = rng.normal(scale=0.6, size=(len(cohort), 3))
            ana = engine.grad_theta(params, b)
            fd = np.zeros_like(theta)
            for j in range(theta.size):
                h = 1e-5 * max(1.0, abs(theta[j]))
                vp, vm = theta.copy(), theta.copy()
                vp[j] += h
                vm[j] -= h
                fd[j] = (
                    engine.complete_loglik(unflatten(vp, template), b)
                    - engine.complete_loglik(unflatten(vm, template), b)
                ) / (2 * h)
            err = np.abs(ana - fd) / np.maximum(1.0, np.maximum(np.abs(ana), np.abs(fd)))
            worst = max(worst, float(err.max()))
    report(6, "gradient integrity", worst <= 1e-4, f"worst relative error {worst:.2e} over 20 points")


def test_criterion_07_sampler_calibration():
    # pure-prior acceptance
    rep = repr_from_cov(np.eye(3), "diag")

    def log_density(b):
        return -0.5 * 3 * np.log(2 * np.pi) - 0.5 * np.sum(b**2, axis=-1)

    cfg = SamplerConfig(n_chains=4, warmup=500)
    chains = init_chains(6, 3, log_density, cfg, seed=1008)
    run(chains, log_density, n_steps=10_000 // 4, thin=10)
    realized = chains.realized_acceptance()
    ok_accept = bool(((realized >= 0.15) & (realized <= 0.35)).all())

    # conjugate linear-Gaussian posterior moments at 1e5 draws
    g = build_graph(1, [])
    design = ModelDesign(BOnly(), Polynomial(1), {})
    rng = np.random.default_rng(1009)
    t = np.sort(rng.uniform(0, 10, 8))
    q_cov = np.diag([0.8, 0.3])
    r_var = 0.6
    y = (1.0 + 0.5 * t + rng.normal(scale=np.sqrt(r_var), size=t.size))[:, None]
    rec = IndividualRecord(
        covariates=np.zeros(1), measurement_times=t, measurements=y,
        trajectory=Trajectory(((0.0, 0),)), censoring_time=np.inf,
    )
    params = ModelParams(
        gamma=np.zeros(0), q_repr=repr_from_cov(q_cov, "diag"),
        r_repr=repr_from_cov([[r_var]], "ball"), alpha={}, beta={},
    )
    engine = LikelihoodEngine(Cohort((rec,)), design, g)
    post_density = lambda b: engine.posterior_logdensity(params, b)  # noqa: E731
    a_mat = np.stack([np.ones_like(t), t], axis=1)
    prec = np.linalg.inv(q_cov) + a_mat.T @ a_mat / r_var
    cov_post = np.linalg.inv(prec)
    mean_post = cov_post @ (a_mat.T @ y[:, 0] / r_var)
    chains2 = init_chains(1, 2, post_density, SamplerConfig(n_chains=5, warmup=500), seed=1010)
    snaps = run(chains2, post_density, n_steps=20_000, thin=1)[:, :, 0, :]
    ok_moments = True
    detail_moments = []
    for coord in range(2):
        x = snaps[..., coord]
        means = x.mean(axis=1)
        usable = (means.size // 25) * 25
        se = means[:usable].reshape(25, -1).mean(axis=1).std(ddof=1) / np.sqrt(25)
        dev = abs(x.mean() - mean_post[coord]) / se
        detail_moments.append(f"{dev:.2f}")
        ok_moments &= dev < 3.0
        var_seq = ((x - mean_post[coord]) ** 2).mean(axis=1)
        se_var = var_seq[:usable].reshape(25, -1).mean(axis=1).std(ddof=1) / np.sqrt(25)
        dev_var = abs(x.var() - cov_post[coord, coord]) / se_var
        ok_moments &= dev_var < 3.0
        detail_moments.append(f"var {dev_var:.2f}")
    report(
        7, "sampler calibration", ok_accept and ok_moments,
        f"acceptance {realized.min():.3f}..{realized.max():.3f} in [0.15, 0.35]; "
        f"moment devs {', '.join(detail_moments)} sigma",
    )


def test_criterion_08_stopping_rule():
    rule = StopRule()
    theta = np.array([0.3, -0.7])
    fires_immediately = stop_check(rule, theta, theta, t=1)
    rule2 = StopRule(beta1=0.9, beta2=0.9)
    base = np.zeros(3)
    never = True
    for t in range(1, 300):
        new = base + 1.0
        never &= not stop_check(rule2, base, new, t)
        base = new
    report(8, "stopping rule", fires_immediately and never, "zero-diff fires at t=1, unit-diff never fires")


def test_criterion_09_fim_sanity():
    from test_inference import censored_exponential_model

    g, design, cohort, params, events = censored_exponential_model(rate=0.2, n=400, seed=1011)
    estimate = compute_fim(
        cohort, design, g, params, SamplerConfig(n_chains=4, warmup=10),
        n_samples=10_000, seed=1012,
    )
    rel = abs(estimate.matrix[0, 0] - events) / events
    errs = stderr(np.diag([4.0, 25.0]))
    ok = rel < 0.10 and errs[0] == 0.5 and errs[1] == 0.2
    report(
        9, "FIM sanity", ok,
        f"information {estimate.matrix[0, 0]:.1f} vs {events} events ({rel:.1%}), "
        f"stderr(diag(4,25)) = {tuple(errs)}",
    )


def test_criterion_10_dynamic_prediction(study_fits, study_design, study_params, study_graph):
    fitted = study_fits[0][1].params
    test_cohort, _ = generate_cohort(study_design, study_params, n=200, m=20, seed=777)
    truncations = [2.0, 5.0, 8.0]
    horizons = np.array([2.0, 5.0, 8.0, 11.0])
    n_draws = 200
    master = np.random.default_rng(1013)
    acc = np.zeros((len(truncations), len(horizons)))
    for ti, t in enumerate(truncations):
        draws = condition_cohort(
            test_cohort, t, study_design, fitted, study_graph,
            SamplerConfig(n_chains=5, warmup=400, thin=5), n_draws, seed=int(master.integers(2**63)),
        )
        hits = np.zeros(len(horizons))
        for i, rec in enumerate(test_cohort):
            capped = np.minimum(horizons, rec.censoring_time)
            probs, modal = predict_state_grid(
                rec, t, capped, study_design, fitted, study_graph,
                n_draws=n_draws, rng=master.spawn(1)[0], b_draws=draws[:, i, :],
            )
            for ui in range(len(horizons)):
                truth = rec.trajectory.state_at(capped[ui])
                hits[ui] += modal[ui] == truth
        acc[ti] = hits / len(test_cohort)

    ok_before = True
    for ti, t in enumerate(truncations):
        for ui, u in enumerate(horizons):
            if u <= t:
                ok_before &= acc[ti, ui] == 1.0
    # accuracy at fixed u non-decreasing in truncation time, allowing one
    # inversion within 2 Monte-Carlo standard errors
    inversions = 0
    for ui, u in enumerate(horizons):
        series = [acc[ti, ui] for ti, t in enumerate(truncations) if u > t]
        for a, b in zip(series, series[1:]):
            if b < a:
                se = np.sqrt(max(a * (1 - a), b * (1 - b)) / len(test_cohort)) + 1e-9
                if (a - b) > 2 * se:
                    inversions += 99  # a real violation, not noise
                else:
                    inversions += 1
    ok_mono = inversions <= 1
    report(
        10, "dynamic prediction", ok_before and ok_mono,
        f"accuracy(u<=t)=1: {ok_before}; inversions {inversions} (<=1); table:\n{np.round(acc, 3)}",
    )


def test_criterion_11_determinism(tmp_path):
    q = repr_from_cov(np.diag(STUDY_Q_DIAG), "diag")
    r = repr_from_cov(STUDY_R, "ball")
    config = {
        "seed": 17,
        "graph": {"num_states": 3, "edges": [[0, 1], [0, 2], [1, 2]]},
        "design": {
            "effects": {"family": "gamma_plus_b"},
            "regression": {"family": "piecewise_affine", "breakpoint": 6.0},
            "edges": {
                f"{a}->{b}": {"hazard": {"family": "exponential", "rate": rate}, "link": {"family": "value_slope"}}
                for (a, b), rate in STUDY_RATES.items()
            },
        },
        "params": {
            "gamma": list(STUDY_GAMMA),
            "q": {"method": "diag", "dim": 3, "values": [float(v) for v in q.values]},
            "r": {"method": "ball", "dim": 1, "values": [float(v) for v in r.values]},
            "alpha": {f"{a}->{b}": list(map(float, v)) for (a, b), v in STUDY_ALPHA.items()},
            "beta": {f"{a}->{b}": list(map(float, v)) for (a, b), v in STUDY_BETA.items()},
            "sharing": {"alpha": [], "beta": []},
            "extra": [],
        },
        "simulate": {"n": 50, "m": 8, "horizon": 15.0, "censoring": [10, 15]},
        "fit": {"max_iterations": 3, "n_draws": 4},
        "sampler": {"n_chains": 2, "warmup": 15},
        "predict": {"truncations": [2.0], "horizons": [4.0], "n_draws": 20, "warmup": 30, "thin": 2},
        "fim": {"n_samples": 16},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    files = {
        "simulate": ["covariates.csv", "longitudinal.csv", "trajectories.csv", "censoring.csv", "latent.csv"],
        "fit": ["params.json", "history.csv", "report.json"],
        "fim": ["fim.csv", "stderr.csv"],
        "predict": ["predictions.csv", "accuracy.csv"],
    }
    outputs = {}
    for run_tag in ("r1", "r2"):
        base = tmp_path / run_tag
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(base / "d"), "--seed", "17", "--threads", "1"]) == 0
        assert cli_main(["fit", "--config", str(cfg), "--data", str(base / "d"), "--out", str(base / "f"), "--seed", "17", "--threads", "1"]) == 0
        assert cli_main(["fim", "--config", str(cfg), "--data", str(base / "d"), "--params", str(base / "f" / "params.json"), "--out", str(base / "i"), "--seed", "17", "--threads", "1"]) == 0
        assert cli_main(["predict", "--config", str(cfg), "--data", str(base / "d"), "--params", str(base / "f" / "params.json"), "--out", str(base / "p"), "--seed", "17", "--threads", "1"]) == 0
        blobs = {}
        for sub, names in zip(("d", "f", "i", "p"), files.values()):
            for name in names:
                blobs[f"{sub}/{name}"] = (base / sub / name).read_bytes()
        outputs[run_tag] = blobs
    mismatched = [k for k in outputs["r1"] if outputs["r1"][k] != outputs["r2"][k]]
    report(11, "byte determinism", not mismatched, f"{len(outputs['r1'])} files compared" + (f"; mismatches {mismatched}" if mismatched else ""))
