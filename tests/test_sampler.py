import numpy as np
import pytest
from scipy import stats

from msjoint import Cohort, IndividualRecord, LikelihoodEngine, ModelDesign, ModelParams, Trajectory, build_graph, repr_from_cov
from msjoint.families import BOnly, Polynomial
from msjoint.inference import FitConfig
from msjoint.sampler import (
    SamplerConfig,
    _rate,
    adapt_step,
    init_chains,
    mh_step,
    run,
    sweep,
    warmup,
)
from msjoint.simulate import generate_cohort


def prior_density(q_repr):
    """Pure-prior target: no data, posterior equals the prior."""

    def log_density(b):
        return (
            -0.5 * q_repr.dim * np.log(2 * np.pi)
            + 0.5 * q_repr.log_det_precision()
            - 0.5 * q_repr.quad_form(b)
        )

    return log_density


def batch_means_se(x, n_batches=25):
    """Standard error of the mean of an autocorrelated sequence."""
    usable = (len(x) // n_batches) * n_batches
    means = np.asarray(x[:usable]).reshape(n_batches, -1).mean(axis=1)
    return means.std(ddof=1) / np.sqrt(n_batches)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"init_scale": 0.0}, "init_scale"),
        ({"init_scale": -1.0}, "init_scale"),
        ({"init_scale": np.inf}, "init_scale"),
        ({"target_accept": 0.0}, "target_accept"),
        ({"target_accept": 1.0}, "target_accept"),
        ({"target_accept": 1.5}, "target_accept"),
    ],
)
def test_sampler_config_rejects_settings_that_stall_the_chains(kwargs, message):
    # a zero scale freezes every chain at b = 0; a target outside (0, 1)
    # drives the Robbins-Monro step the wrong way
    with pytest.raises(ValueError, match=message):
        SamplerConfig(**kwargs)


@pytest.mark.parametrize("rm_scale", [-1.0, np.inf, np.nan])
def test_sampler_config_rejects_a_negative_or_infinite_rm_scale(rm_scale):
    # a negative gain drives the Robbins-Monro step away from the target
    with pytest.raises(ValueError, match="rm_scale must be >= 0"):
        SamplerConfig(rm_scale=rm_scale)
    SamplerConfig(rm_scale=0.0)  # valid: adaptation off


def test_counts_take_numpy_integers(study_design, study_params):
    # library callers may size runs with numpy integers, not only with Python ints
    cfg = SamplerConfig(n_chains=np.int64(2), warmup=np.int32(0), thin=np.uint8(3))
    assert (cfg.n_chains, cfg.warmup, cfg.thin) == (2, 0, 3)
    FitConfig(max_iterations=np.int64(0), minibatch=np.int16(5), n_draws=np.int64(1))
    cohort, _ = generate_cohort(study_design, study_params, n=np.int64(3), m=np.int64(2))
    assert len(cohort) == 3


def test_zero_scale_proposals_always_accept():
    rep = repr_from_cov(np.eye(2), "diag")
    cfg = SamplerConfig(n_chains=4, warmup=0, init_scale=1e-12)
    chains = init_chains(8, 2, prior_density(rep), cfg, seed=0)
    rates = [mh_step(chains, prior_density(rep)).mean() for _ in range(50)]
    assert np.mean(rates) > 0.999


def test_pure_prior_target_moments():
    rep = repr_from_cov(np.eye(3), "diag")
    cfg = SamplerConfig(n_chains=5, warmup=300)
    log_density = prior_density(rep)
    chains = init_chains(10, 3, log_density, cfg, seed=1)
    snaps = run(chains, log_density, n_steps=2000, thin=1)  # 1e5 draws
    draws = snaps.reshape(snaps.shape[0], -1, 3)  # (steps, chains*indiv, 3)
    assert draws.shape[0] * draws.shape[1] >= 10**5
    for coord in range(3):
        pooled_mean = draws[..., coord].mean()
        se = batch_means_se(draws[..., coord].mean(axis=1))
        assert abs(pooled_mean) < 3 * se + 1e-12, (coord, pooled_mean, se)
        pooled_var = draws[..., coord].var()
        se_var = batch_means_se((draws[..., coord] ** 2).mean(axis=1))
        assert abs(pooled_var - 1.0) < 3 * se_var, (coord, pooled_var, se_var)


def test_adapt_step_monotone_drift():
    rep = repr_from_cov(np.eye(1), "diag")
    cfg = SamplerConfig(n_chains=2, warmup=100)
    chains = init_chains(3, 1, prior_density(rep), cfg, seed=2)
    scales = [chains.step_scale.copy()]
    for _ in range(20):
        adapt_step(chains, np.ones((2, 3)))  # acceptance permanently 1
        scales.append(chains.step_scale.copy())
    diffs = np.diff(np.array(scales), axis=0)
    assert (diffs > 0).all()
    chains2 = init_chains(3, 1, prior_density(rep), cfg, seed=3)
    scales2 = [chains2.step_scale.copy()]
    for _ in range(20):
        adapt_step(chains2, np.zeros((2, 3)))  # acceptance permanently 0
        scales2.append(chains2.step_scale.copy())
    assert (np.diff(np.array(scales2), axis=0) < 0).all()


def test_rate_is_bitwise_mean_over_chains():
    rng = np.random.default_rng(11)
    for shape in [(1, 1), (5, 1), (2, 3), (5, 200), (15, 1000)]:
        for accepted in (rng.random(shape) < 0.3, rng.random(shape), rng.normal(scale=1e3, size=shape)):
            got, want = _rate(accepted), accepted.mean(axis=0)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_post_warmup_acceptance_near_target():
    rep = repr_from_cov(np.eye(3), "diag")
    cfg = SamplerConfig(n_chains=4, warmup=500)
    log_density = prior_density(rep)
    chains = init_chains(6, 3, log_density, cfg, seed=4)
    run(chains, log_density, n_steps=10_000 // 4, thin=10)
    realized = chains.realized_acceptance()
    assert ((realized >= 0.15) & (realized <= 0.35)).all(), realized


def test_run_thinning_counts():
    rep = repr_from_cov(np.eye(1), "diag")
    cfg = SamplerConfig(n_chains=2, warmup=5)
    log_density = prior_density(rep)
    chains = init_chains(2, 1, log_density, cfg, seed=5)
    snaps = run(chains, log_density, n_steps=10, thin=3)
    assert snaps.shape[0] == 3
    chains2 = init_chains(2, 1, log_density, cfg, seed=5)
    snaps2 = run(chains2, log_density, n_steps=10, thin=1)
    assert snaps2.shape[0] == 10


def test_run_fewer_steps_than_thin_retains_nothing():
    rep = repr_from_cov(np.eye(2), "diag")
    log_density = prior_density(rep)
    chains = init_chains(3, 2, log_density, SamplerConfig(n_chains=4, warmup=5), seed=5)
    assert run(chains, log_density, n_steps=2, thin=3).shape == (0, 4, 3, 2)
    assert chains.sweeps == 5 + 2  # the steps still advance the chains


def test_thinning_reduces_autocorrelation():
    rep = repr_from_cov(np.eye(1), "diag")
    cfg = SamplerConfig(n_chains=1, warmup=300)
    log_density = prior_density(rep)
    chains = init_chains(1, 1, log_density, cfg, seed=6)
    snaps = run(chains, log_density, n_steps=30_000, thin=1)[:, 0, 0, 0]

    def lag1(x):
        x = x - x.mean()
        return float(np.dot(x[:-1], x[1:]) / np.dot(x, x))

    rho_unthinned = lag1(snaps)
    rho_thinned = lag1(snaps[::10])
    assert rho_thinned < rho_unthinned


def test_cached_log_density_matches_recomputation(small_cohort, study_design, study_graph, study_params):
    cohort, _ = small_cohort
    engine = LikelihoodEngine(cohort, study_design, study_graph)
    log_density = lambda b: engine.posterior_logdensity(study_params, b)  # noqa: E731
    cfg = SamplerConfig(n_chains=3, warmup=20)
    chains = init_chains(len(cohort), 3, log_density, cfg, seed=7)
    for _ in range(40):
        sweep(chains, log_density)
    np.testing.assert_allclose(chains.log_post, log_density(chains.b), atol=1e-9)


def test_fixed_seed_reproducibility():
    rep = repr_from_cov(np.eye(2), "diag")
    log_density = prior_density(rep)
    cfg = SamplerConfig(n_chains=3, warmup=50)
    a = init_chains(4, 2, log_density, cfg, seed=9)
    b = init_chains(4, 2, log_density, cfg, seed=9)
    sa = run(a, log_density, 200, thin=2)
    sb = run(b, log_density, 200, thin=2)
    np.testing.assert_array_equal(sa, sb)


def test_distinct_streams_agree_in_law():
    rep = repr_from_cov(np.eye(1), "diag")
    log_density = prior_density(rep)
    cfg = SamplerConfig(n_chains=2, warmup=400)
    chains = init_chains(1, 1, log_density, cfg, seed=10)
    snaps = run(chains, log_density, n_steps=25_000, thin=5)
    chain_a = snaps[:, 0, 0, 0]
    chain_b = snaps[:, 1, 0, 0]
    # two-sample KS on thinned draws from the two independent streams
    result = stats.ks_2samp(chain_a, chain_b)
    assert result.pvalue > 0.01


def test_nonfinite_proposal_densities_are_rejected():
    def fragile(b):
        out = -0.5 * np.sum(b**2, axis=-1)
        out[np.abs(b[..., 0]) > 1.5] = np.nan
        return out

    cfg = SamplerConfig(n_chains=2, warmup=0, init_scale=2.0)
    chains = init_chains(3, 1, fragile, cfg, seed=11)
    for _ in range(200):
        mh_step(chains, fragile)
        assert np.isfinite(chains.log_post).all()
        assert (np.abs(chains.b[..., 0]) <= 1.5).all()


def test_detailed_balance_on_binned_gaussian():
    # empirical flux between coarse bins must be symmetric at stationarity
    rep = repr_from_cov(np.eye(1), "diag")
    log_density = prior_density(rep)
    cfg = SamplerConfig(n_chains=20, warmup=500)
    chains = init_chains(1, 1, log_density, cfg, seed=12)
    snaps = run(chains, log_density, n_steps=6000, thin=1)[:, :, 0, 0]  # (steps, chains)
    edges = np.array([-np.inf, -0.6, 0.0, 0.6, np.inf])
    states = np.digitize(snaps, edges[1:-1])
    flux = np.zeros((4, 4))
    for c in range(states.shape[1]):
        seq = states[:, c]
        for a, b in zip(seq[:-1], seq[1:]):
            flux[a, b] += 1
    total = flux.sum()
    for i in range(4):
        for j in range(i + 1, 4):
            fij, fji = flux[i, j] / total, flux[j, i] / total
            se = np.sqrt((fij + fji) / total)
            assert abs(fij - fji) < 4 * se + 1e-12, (i, j, fij, fji)


def test_conjugate_linear_gaussian_posterior_moments():
    # linear h in b, no survival: the posterior is exactly Gaussian
    g = build_graph(1, [])
    reg = Polynomial(1)
    design = ModelDesign(BOnly(), reg, {})
    rng = np.random.default_rng(13)
    t = np.sort(rng.uniform(0, 10, 8))
    q_cov = np.diag([0.8, 0.3])
    r_var = 0.6
    y = (1.0 + 0.5 * t + rng.normal(scale=np.sqrt(r_var), size=t.size))[:, None]
    rec = IndividualRecord(
        covariates=np.zeros(1),
        measurement_times=t,
        measurements=y,
        trajectory=Trajectory(((0.0, 0),)),
        censoring_time=np.inf,
    )
    params = ModelParams(
        gamma=np.zeros(0),
        q_repr=repr_from_cov(q_cov, "diag"),
        r_repr=repr_from_cov([[r_var]], "ball"),
        alpha={},
        beta={},
    )
    engine = LikelihoodEngine(Cohort((rec,)), design, g)
    log_density = lambda b: engine.posterior_logdensity(params, b)  # noqa: E731

    a_mat = np.stack([np.ones_like(t), t], axis=1)
    prec = np.linalg.inv(q_cov) + a_mat.T @ a_mat / r_var
    cov_post = np.linalg.inv(prec)
    mean_post = cov_post @ (a_mat.T @ y[:, 0] / r_var)

    cfg = SamplerConfig(n_chains=5, warmup=500)
    chains = init_chains(1, 2, log_density, cfg, seed=14)
    snaps = run(chains, log_density, n_steps=20_000, thin=1)[:, :, 0, :]  # (steps, chains, 2)
    assert snaps.shape[0] * snaps.shape[1] >= 10**5
    for coord in range(2):
        x = snaps[..., coord]
        se = batch_means_se(x.mean(axis=1))
        assert abs(x.mean() - mean_post[coord]) < 3 * se, coord
        se_var = batch_means_se((
            (x - mean_post[coord]) ** 2
        ).mean(axis=1))
        assert abs(x.var() - cov_post[coord, coord]) < 3 * se_var, coord
