from dataclasses import replace

import numpy as np
import pytest

from msjoint import (
    Cohort,
    IndividualRecord,
    LikelihoodEngine,
    ModelDesign,
    ModelParams,
    Trajectory,
    build_graph,
    repr_from_cov,
)
from msjoint.families import BOnly, EmptyLink, Polynomial
from msjoint.hazards import ExponentialHazard
from msjoint.inference import (
    FIMEstimate,
    FitConfig,
    StopRule,
    compute_fim,
    fit,
    stderr,
    stop_check,
)
from msjoint.params import PrecisionRepr, Sharing, flatten
from msjoint.sampler import SamplerConfig


# -- stopping rule -----------------------------------------------------------


def test_stop_fires_immediately_on_identical_sequence():
    rule = StopRule()
    theta = np.array([1.0, -2.0, 3.0])
    assert stop_check(rule, theta, theta, t=1)


def test_stop_never_fires_on_constant_difference():
    # delta = 1 per coordinate: bias-corrected m1 = 1, m2 = 1 for every t,
    # and 1 > 1e-6 + 0.1 * 1
    rule = StopRule(beta1=0.9, beta2=0.9)
    theta = np.zeros(4)
    for t in range(1, 200):
        new = theta + 1.0
        fired = stop_check(rule, theta, new, t)
        m1_hat = rule.m1 / (1 - rule.beta1**t)
        m2_hat = rule.m2 / (1 - rule.beta2**t)
        np.testing.assert_allclose(m1_hat, 1.0, rtol=1e-12)
        np.testing.assert_allclose(m2_hat, 1.0, rtol=1e-12)
        assert not fired
        theta = new


def test_stop_alternating_differences_eventually_fires():
    # closed-form EMA recursion: m1 oscillates toward (1-b)/(1+b) = 0.0526
    # while sqrt(m2) -> 1, so the 0.1 relative bound eventually holds
    rule = StopRule(beta1=0.9, beta2=0.9)
    theta = np.zeros(2)
    fired_at = None
    for t in range(1, 500):
        new = theta + (1.0 if t % 2 else -1.0)
        if stop_check(rule, theta, new, t):
            fired_at = t
            break
        theta = new
    assert fired_at is not None
    # verify against the closed-form recursion evaluated numerically
    m1 = m2 = 0.0
    for t in range(1, fired_at + 1):
        d = 1.0 if t % 2 else -1.0
        m1 = 0.9 * m1 + 0.1 * d
        m2 = 0.9 * m2 + 0.1 * d * d
    assert abs(m1 / (1 - 0.9**fired_at)) <= 1e-6 + 0.1 * np.sqrt(m2 / (1 - 0.9**fired_at))


def test_stop_check_requires_positive_t():
    with pytest.raises(ValueError):
        stop_check(StopRule(), np.zeros(1), np.zeros(1), t=0)


# -- configs -----------------------------------------------------------------


def test_fit_config_validates_schedule():
    with pytest.raises(ValueError, match="kappa"):
        FitConfig(optimizer="sgd", schedule_decay=0.4)
    with pytest.raises(ValueError, match="kappa"):
        FitConfig(optimizer="sgd", schedule_decay=1.2)
    FitConfig(optimizer="sgd", schedule_decay=0.75)  # valid
    with pytest.raises(ValueError, match="schedule_decay is the sgd power schedule"):
        FitConfig(optimizer="adam", schedule_decay=0.75)


@pytest.mark.parametrize("key", ["beta1", "beta2"])
@pytest.mark.parametrize("beta", [1.0, 1.5, -0.1, float("nan")])
def test_betas_must_lie_in_the_unit_interval(key, beta):
    with pytest.raises(ValueError, match=f"{key} must lie in \\[0, 1\\)"):
        StopRule(**{key: beta})
    with pytest.raises(ValueError, match=f"adam_{key} must lie in \\[0, 1\\)"):
        FitConfig(**{f"adam_{key}": beta})
    StopRule(**{key: 0.0})  # valid
    FitConfig(**{f"adam_{key}": 0.0})


@pytest.mark.parametrize("key", ["atol", "rtol"])
def test_stop_rule_rejects_negative_tolerances(key):
    with pytest.raises(ValueError, match="atol and rtol must be >= 0"):
        StopRule(**{key: -1e-9})
    StopRule(**{key: 0.0})  # valid


@pytest.mark.parametrize("key", ["learning_rate", "adam_eps"])
@pytest.mark.parametrize("value", [0.0, -0.1, np.inf, np.nan])
def test_fit_config_rejects_a_step_setting_that_is_not_positive_and_finite(key, value):
    # lr <= 0 descends or freezes theta; adam_eps <= 0 can divide by zero
    with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
        FitConfig(**{key: value})


@pytest.mark.parametrize("n_draws", [0, -2, 2.5, True])
def test_fit_config_rejects_fewer_than_one_draw(n_draws):
    with pytest.raises(ValueError, match="n_draws must be an integer >= 1"):
        FitConfig(n_draws=n_draws)


def test_sampler_config_validates_rm_decay():
    with pytest.raises(ValueError, match="Robbins-Monro"):
        SamplerConfig(rm_decay=0.5)


# -- fit ----------------------------------------------------------------------


def small_fit_inputs(small_cohort, study_design, study_graph, study_init_params):
    cohort, _ = small_cohort
    return cohort, study_design, study_graph, study_init_params


def test_fit_is_deterministic(small_cohort, study_design, study_graph, study_init_params):
    cohort, _ = small_cohort
    kwargs = dict(
        fit_config=FitConfig(max_iterations=8),
        stop_rule=StopRule(),
        sampler_config=SamplerConfig(n_chains=3, warmup=20),
        seed=7,
    )
    a = fit(cohort, study_design, study_graph, study_init_params, **kwargs)
    b = fit(cohort, study_design, study_graph, study_init_params, **kwargs)
    np.testing.assert_array_equal(a.theta_history, b.theta_history)
    np.testing.assert_array_equal(a.loglik_history, b.loglik_history)
    assert a.stop_reason == b.stop_reason


def test_fit_history_shape_and_report(small_cohort, study_design, study_graph, study_init_params):
    cohort, _ = small_cohort
    report = fit(
        cohort, study_design, study_graph, study_init_params,
        FitConfig(max_iterations=5),
        StopRule(rtol=0.0, atol=0.0),  # unreachable bound: never fires
        SamplerConfig(n_chains=2, warmup=10),
        seed=1,
    )
    assert report.iterations == 5
    assert report.theta_history.shape == (5, 16)
    assert report.loglik_history.shape == (5,)
    assert report.stop_reason == "max_iterations"
    assert len(report.param_names) == 16


def test_fit_with_minibatch_runs(small_cohort, study_design, study_graph, study_init_params):
    cohort, _ = small_cohort
    report = fit(
        cohort, study_design, study_graph, study_init_params,
        FitConfig(max_iterations=5, minibatch=8),
        StopRule(rtol=0.0, atol=0.0),
        SamplerConfig(n_chains=2, warmup=10),
        seed=2,
    )
    assert report.iterations == 5


def test_pure_prior_fit_stays_near_identity():
    # no data at all: the sampled prior is its own fixed point, so Q-tilde
    # drifts around 0 and the stop rule eventually fires
    n, q = 40, 2
    records = tuple(
        IndividualRecord(
            covariates=np.zeros(0),
            measurement_times=np.zeros(0),
            measurements=np.zeros((0, 0)),
            trajectory=Trajectory(((0.0, 0),)),
            censoring_time=0.0,
        )
        for _ in range(n)
    )
    cohort = Cohort(records)
    g = build_graph(1, [])
    reg = Polynomial(0)
    design = ModelDesign(BOnly(), reg, {})
    init = ModelParams(
        gamma=np.zeros(0),
        q_repr=repr_from_cov(np.eye(q), "diag"),
        r_repr=PrecisionRepr("diag", 0, np.zeros(0)),
        alpha={},
        beta={},
    )
    report = fit(
        cohort, design, g, init,
        FitConfig(max_iterations=400, learning_rate=0.02),
        StopRule(),
        SamplerConfig(n_chains=4, warmup=100),
        seed=3,
    )
    # no data means zero marginal information: theta wanders without drift
    # and the stopping rule detects stationarity
    assert report.stop_reason == "converged"
    assert np.abs(flatten(report.params)).max() < 1.0
    # self-consistency at the stopped point: the sampled prior matches the
    # parameters that generated it, so the expected gradient is ~0
    engine = LikelihoodEngine(cohort, design, g)
    rng = np.random.default_rng(99)
    cov = report.params.q_repr.covariance()
    grads = np.array([
        engine.grad_theta(report.params, rng.multivariate_normal(np.zeros(q), cov, size=n))
        for _ in range(200)
    ])
    se = grads.std(axis=0, ddof=1) / np.sqrt(grads.shape[0])
    assert (np.abs(grads.mean(axis=0)) <= 3 * se).all()


def test_stochastic_gradient_unbiased_on_prior_target():
    # with exact prior samples at the generating parameters the mean
    # stochastic gradient of the Q block is zero
    n, q = 200, 2
    records = tuple(
        IndividualRecord(
            covariates=np.zeros(0),
            measurement_times=np.zeros(0),
            measurements=np.zeros((0, 0)),
            trajectory=Trajectory(((0.0, 0),)),
            censoring_time=0.0,
        )
        for _ in range(n)
    )
    cohort = Cohort(records)
    g = build_graph(1, [])
    design = ModelDesign(BOnly(), Polynomial(0), {})
    params = ModelParams(
        gamma=np.zeros(0),
        q_repr=repr_from_cov(np.eye(q), "diag"),
        r_repr=PrecisionRepr("diag", 0, np.zeros(0)),
        alpha={},
        beta={},
    )
    engine = LikelihoodEngine(cohort, design, g)
    rng = np.random.default_rng(4)
    grads = []
    for _ in range(200):
        b = rng.standard_normal((n, q))  # exact draws from the prior
        grads.append(engine.grad_theta(params, b))
    grads = np.array(grads)
    mean = grads.mean(axis=0)
    se = grads.std(axis=0, ddof=1) / np.sqrt(grads.shape[0])
    assert (np.abs(mean) <= 3 * se).all()


def test_nonfinite_gradient_is_skipped_and_warned(
    small_cohort, study_design, study_graph, study_init_params
):
    cohort, _ = small_cohort
    # a huge learning rate on the alpha block pushes exp(alpha * g) to overflow
    crazy = FitConfig(max_iterations=30, learning_rate=200.0)
    with pytest.warns(UserWarning, match="non-finite gradient"):
        report = fit(
            cohort, study_design, study_graph, study_init_params,
            crazy, StopRule(rtol=0.0, atol=0.0), SamplerConfig(n_chains=2, warmup=5), seed=5,
        )
    assert "aborted" in report.stop_reason or report.iterations == 30


class NanGradEngine(LikelihoodEngine):
    """An engine whose ``grad_theta`` returns NaN at the chosen calls (1-based)
    and keeps every finite gradient it returns, by call number, and the
    flattened theta of every ``bind``."""

    def __init__(self, cohort, design, graph, nan_calls):
        super().__init__(cohort, design, graph)
        self.nan_calls = nan_calls
        self.calls = 0
        self.grads = {}
        self.bound = []

    def bind(self, params):
        self.bound.append(flatten(params))
        return super().bind(params)

    def grad_theta(self, params, b, subset=None):
        self.calls += 1
        grad = super().grad_theta(params, b, subset=subset)
        if self.calls in self.nan_calls:
            return np.full_like(grad, np.nan)
        self.grads[self.calls] = grad
        return grad


def test_fit_history_on_skipped_and_aborted_steps(
    small_cohort, study_design, study_graph, study_init_params
):
    cohort, _ = small_cohort
    lr = 1e-3
    engine = NanGradEngine(cohort, study_design, study_graph, nan_calls={2, 4, 5})
    called = []
    with pytest.warns(UserWarning, match="non-finite gradient"):
        report = fit(
            cohort, study_design, study_graph, study_init_params,
            FitConfig(optimizer="sgd", learning_rate=lr, max_iterations=8),
            StopRule(rtol=0.0, atol=0.0), SamplerConfig(n_chains=2, warmup=5), seed=4,
            engine=engine, callback=lambda t, params, ll: called.append(t),
        )
    assert report.stop_reason == "max_iterations"
    assert report.theta_history.shape == (8, 16)
    assert report.loglik_history.shape == (8,)
    assert called == [1, 3, 6, 7, 8]  # applied steps only
    prev, skipped = flatten(study_init_params), 0
    for t, row in enumerate(report.theta_history, start=1):
        if t in engine.nan_calls:
            np.testing.assert_array_equal(row, prev)  # a skipped row repeats theta
            skipped += 1
            continue
        # after k skips the next applied step is scaled by 2^-k
        np.testing.assert_allclose(row, prev + 0.5**skipped * lr * engine.grads[t], rtol=1e-14, atol=0)
        prev, skipped = row, 0
    np.testing.assert_array_equal(report.theta_history[-1], flatten(report.params))
    # each theta is bound once: theta_0, then each applied step's but the last; skipped steps keep theta
    used = np.vstack([flatten(study_init_params), report.theta_history[:-1]])
    distinct = used[np.r_[True, np.any(used[1:] != used[:-1], axis=1)]]
    assert len(engine.bound) == len(distinct) == 5
    np.testing.assert_array_equal(np.array(engine.bound), distinct)

    engine = NanGradEngine(cohort, study_design, study_graph, nan_calls=set(range(2, 100)))
    with pytest.warns(UserWarning, match="non-finite gradient"):
        report = fit(
            cohort, study_design, study_graph, study_init_params,
            FitConfig(optimizer="sgd", learning_rate=lr, max_iterations=40),
            StopRule(rtol=0.0, atol=0.0), SamplerConfig(n_chains=2, warmup=5), seed=4,
            engine=engine,
        )
    assert report.stop_reason == "aborted: 25 consecutive non-finite gradients"
    assert report.iterations == 26
    assert report.theta_history.shape == (26, 16)  # the abort row is recorded
    assert report.loglik_history.shape == (26,)
    np.testing.assert_array_equal(report.theta_history[1:], np.repeat(report.theta_history[:1], 25, axis=0))


class ConstantGradEngine(LikelihoodEngine):
    """An engine whose ``grad_theta`` is a fixed vector."""

    def __init__(self, cohort, design, graph, grad):
        super().__init__(cohort, design, graph)
        self.grad = grad

    def grad_theta(self, params, b, subset=None):
        return self.grad.copy()


def test_sgd_power_schedule_steps(small_cohort, study_design, study_graph, study_init_params):
    cohort, _ = small_cohort
    lr, kappa = 1e-3, 0.75
    grad = np.linspace(-1.0, 1.0, flatten(study_init_params).size)
    report = fit(
        cohort, study_design, study_graph, study_init_params,
        FitConfig(optimizer="sgd", learning_rate=lr, schedule_decay=kappa, max_iterations=6),
        StopRule(rtol=0.0, atol=0.0), SamplerConfig(n_chains=2, warmup=5), seed=4,
        engine=ConstantGradEngine(cohort, study_design, study_graph, grad),
    )
    steps = np.diff(np.vstack([flatten(study_init_params), report.theta_history]), axis=0)
    for t, step in enumerate(steps):  # t applied steps before this one
        np.testing.assert_allclose(step, lr * grad / (t + 1) ** kappa, rtol=0, atol=1e-14)


def test_zero_step_keeps_params_and_stops(small_cohort, study_design, study_graph, study_init_params):
    # a zero gradient is a zero step for either optimizer, so the stop rule
    # fires at the first iteration with the parameters untouched
    cohort, _ = small_cohort
    zero = np.zeros(flatten(study_init_params).size)
    for optimizer in ("adam", "sgd"):
        report = fit(
            cohort, study_design, study_graph, study_init_params,
            FitConfig(optimizer=optimizer, max_iterations=50),
            StopRule(),
            SamplerConfig(n_chains=2, warmup=10),
            seed=0,
            engine=ConstantGradEngine(cohort, study_design, study_graph, zero),
        )
        np.testing.assert_array_equal(flatten(report.params), flatten(study_init_params))
        assert report.stop_reason == "converged"
        assert report.iterations == 1


# -- Fisher information ---------------------------------------------------------


def censored_exponential_model(rate=0.2, n=400, horizon=4.0, seed=0):
    """Single-edge exponential survival with the log-rate as the only free
    parameter: no covariates, no marker effect, no random effects."""
    g = build_graph(2, [(0, 1)])
    reg = Polynomial(0)
    design = ModelDesign(
        BOnly(), reg, {(0, 1): (ExponentialHazard(rate, trainable=True), EmptyLink())}
    )
    rng = np.random.default_rng(seed)
    records = []
    events = 0
    exposure = 0.0
    for _ in range(n):
        t = rng.exponential(1.0 / rate)
        if t < horizon:
            pairs = ((0.0, 0), (t, 1))
            events += 1
            exposure += t
        else:
            pairs = ((0.0, 0),)
            exposure += horizon
        records.append(
            IndividualRecord(
                covariates=np.zeros(0),
                measurement_times=np.zeros(0),
                measurements=np.zeros((0, 0)),
                trajectory=Trajectory(pairs),
                censoring_time=horizon,
            )
        )
    cohort = Cohort(records)
    mle_rate = events / exposure
    params = ModelParams(
        gamma=np.zeros(0),
        q_repr=PrecisionRepr("diag", 0, np.zeros(0)),
        r_repr=PrecisionRepr("diag", 0, np.zeros(0)),
        alpha={(0, 1): np.zeros(0)},
        beta={(0, 1): np.zeros(0)},
        extra=np.array([np.log(mle_rate)]),
    )
    return g, design, cohort, params, events


def test_fim_matches_censored_exponential_information():
    g, design, cohort, params, events = censored_exponential_model()
    assert flatten(params).shape == (1,)  # a single free parameter
    estimate = compute_fim(
        cohort, design, g, params, SamplerConfig(n_chains=4, warmup=10),
        n_samples=10_000, seed=6,
    )
    # expected information in the log-rate parametrization is the event count
    # (equivalently #events / rate**2 in the rate parametrization)
    assert estimate.n_samples >= 10_000
    assert estimate.matrix.shape == (1, 1)
    assert abs(estimate.matrix[0, 0] - events) / events < 0.10


def test_fim_is_symmetric(small_cohort, study_design, study_graph, study_params):
    cohort, _ = small_cohort
    estimate = compute_fim(
        cohort, study_design, study_graph, study_params,
        SamplerConfig(n_chains=2, warmup=30), n_samples=60, seed=7,
    )
    np.testing.assert_array_equal(estimate.matrix, estimate.matrix.T)


def test_fim_tied_slots_accumulate(small_cohort, study_design, study_graph, study_params):
    cohort, latent = small_cohort
    edges = study_graph.sorted_edges()
    shared = replace(
        study_params,
        alpha={e: np.array([-0.3, -1.0]) for e in edges},
        beta={e: np.array([-0.5]) for e in edges},
        sharing=Sharing(beta=(tuple(edges),)),
    )
    untied = replace(shared, sharing=Sharing())
    engine = LikelihoodEngine(cohort, study_design, study_graph)
    b = latent["b"]
    s_shared = engine.individual_scores(shared, b[None])[0]
    s_untied = engine.individual_scores(untied, b[None])[0]
    tied_col = shared.layout().edge_slice("beta", edges[0]).start
    cols = [untied.layout().edge_slice("beta", e).start for e in edges]
    np.testing.assert_allclose(
        s_shared[:, tied_col], s_untied[:, cols].sum(axis=1), rtol=1e-9, atol=1e-9
    )


def test_stderr_identity_and_diagonal():
    np.testing.assert_allclose(stderr(np.eye(3)), np.ones(3))
    np.testing.assert_allclose(stderr(np.diag([4.0, 25.0])), [0.5, 0.2])


def test_stderr_singular_flags_infinite():
    fim = np.diag([4.0, 0.0])
    with pytest.warns(UserWarning, match="singular"):
        errs = stderr(fim)
    assert errs[0] == pytest.approx(0.5)
    assert np.isinf(errs[1])


def test_stderr_requires_symmetry():
    with pytest.raises(ValueError, match="symmetric"):
        stderr(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_stderr_accepts_estimate_wrapper():
    est = FIMEstimate(matrix=np.diag([16.0, 1.0]), n_samples=10)
    np.testing.assert_allclose(stderr(est), [0.25, 1.0])


def test_stderr_grows_with_fewer_observations():
    # two edges with very different event counts: the rarer transition gets
    # the larger standard error
    g = build_graph(3, [(0, 1), (0, 2)])
    reg = Polynomial(0)
    design = ModelDesign(
        BOnly(), reg,
        {
            (0, 1): (ExponentialHazard(0.5, trainable=True), EmptyLink()),
            (0, 2): (ExponentialHazard(0.02, trainable=True), EmptyLink()),
        },
    )
    rng = np.random.default_rng(8)
    records = []
    for _ in range(500):
        t1 = rng.exponential(2.0)
        t2 = rng.exponential(50.0)
        t = min(t1, t2, 4.0)
        if t == 4.0:
            pairs = ((0.0, 0),)
        else:
            pairs = ((0.0, 0), (t, 1 if t1 < t2 else 2))
        records.append(
            IndividualRecord(
                covariates=np.zeros(0),
                measurement_times=np.zeros(0),
                measurements=np.zeros((0, 0)),
                trajectory=Trajectory(pairs),
                censoring_time=4.0,
            )
        )
    cohort = Cohort(records)
    params = ModelParams(
        gamma=np.zeros(0),
        q_repr=PrecisionRepr("diag", 0, np.zeros(0)),
        r_repr=PrecisionRepr("diag", 0, np.zeros(0)),
        alpha={(0, 1): np.zeros(0), (0, 2): np.zeros(0)},
        beta={(0, 1): np.zeros(0), (0, 2): np.zeros(0)},
        extra=design.initial_extra(),
    )
    estimate = compute_fim(
        cohort, design, g, params, SamplerConfig(n_chains=2, warmup=5), n_samples=2000, seed=9
    )
    errs = stderr(estimate)
    assert errs[1] > errs[0]
