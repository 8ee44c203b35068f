import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

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
from msjoint import predict
from msjoint.families import BOnly, EmptyLink, GammaXPlusB, Polynomial, TransformStack, ValueLink
from msjoint.hazards import ExponentialHazard
from msjoint.inference import FitConfig, StopRule, fit
from msjoint.predict import (
    PredictionResult,
    _continuations,
    accuracy,
    condition_cohort,
    hitting_time,
    posterior_condition,
    predict_cohort_grid,
    predict_functional,
    predict_state_grid,
    state_at_time,
    state_occupied_at,
)
from msjoint.sampler import SamplerConfig
from msjoint.simulate import SimConfig, generate_cohort, sample_trajectories


def four_state_graph():
    return build_graph(4, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 1), (2, 3)])


# -- stopping rules and functionals ------------------------------------------


def test_state_at_time_examples():
    g = build_graph(2, [(0, 1)])
    spec, xi = state_at_time(g, 1.0)
    assert xi(spec, ((0.0, 0), (2.0, 1))) == 0
    spec10, xi10 = state_at_time(g, 10.0)
    assert xi10(spec10, ((0.0, 0), (2.0, 1))) == 1  # state 1 absorbing
    spec_early, xi_early = state_at_time(g, -5.0)
    assert spec_early.tau(((0.0, 0),)) == 0  # first pair already has T >= u
    assert xi_early(spec_early, ((0.0, 0), (2.0, 1))) == 0


def test_state_at_time_stops_at_absorbing():
    g = four_state_graph()
    spec, _ = state_at_time(g, 100.0)
    assert spec.tau(((0.0, 0), (1.0, 3))) == 1


def test_hitting_time_examples():
    g = four_state_graph()
    spec, xi = hitting_time(g, {1})
    # reaching the absorbing state 3 first: kappa fires, outcome +inf
    prefix = ((0.0, 0), (2.0, 3))
    assert spec.kappa(prefix) == 1
    assert xi(spec, prefix) == np.inf
    # initial state already inside the target set
    spec_in, xi_in = hitting_time(g, {0})
    assert xi_in(spec_in, ((0.5, 0), (2.0, 3))) == 0.5
    # target set = all states: the hitting time is T0
    spec_all, xi_all = hitting_time(g, set(range(4)))
    assert xi_all(spec_all, ((0.25, 2), (1.0, 3))) == 0.25


def test_hitting_time_rejects_empty_target():
    g = four_state_graph()
    with pytest.raises(ValueError, match="non-empty"):
        hitting_time(g, set())


def test_prefix_measurability_of_builtins():
    g = four_state_graph()
    rng = np.random.default_rng(0)
    succ = {k: g.successors(k) for k in range(4)}
    rules = [state_at_time(g, 3.0), hitting_time(g, {2}), hitting_time(g, {3})]
    for _ in range(1000):
        # random legal trajectory
        pairs = [(0.0, 0)]
        t, s = 0.0, 0
        while succ[s] and len(pairs) < 8:
            t += rng.exponential(2.0)
            s = int(rng.choice(succ[s]))
            pairs.append((t, s))
            if rng.random() < 0.3:
                break
        full = tuple(pairs)
        for spec, xi in rules:
            tau = spec.tau(full)
            kappa = spec.kappa(full)
            stop = min(x for x in (tau, kappa, len(full) - 1) if x is not None)
            truncated = full[: stop + 1]
            assert xi(spec, full) == xi(spec, truncated)


def test_state_occupied_at():
    prefix = ((0.0, 0), (2.0, 1), (5.0, 2))
    assert state_occupied_at(prefix, -1.0) == 0
    assert state_occupied_at(prefix, 2.0) == 1
    assert state_occupied_at(prefix, 4.999) == 1
    assert state_occupied_at(prefix, 5.0) == 2


# -- posterior conditioning -----------------------------------------------------


def single_edge_model(rate=0.3, q_var=0.5):
    g = build_graph(2, [(0, 1)])
    reg = Polynomial(0)  # h(t, psi) = psi_1
    design = ModelDesign(BOnly(), reg, {(0, 1): (ExponentialHazard(rate), ValueLink(reg))})
    params = ModelParams(
        gamma=np.zeros(0),
        q_repr=repr_from_cov([[q_var]], "diag"),
        r_repr=repr_from_cov([[0.4]], "ball"),
        alpha={(0, 1): np.zeros(1)},
        beta={(0, 1): np.zeros(1)},
    )
    return g, design, params


def test_posterior_condition_before_any_data_matches_prior():
    g, design, params = single_edge_model()
    rec = IndividualRecord(
        covariates=np.zeros(1),
        measurement_times=np.array([2.0, 4.0]),
        measurements=np.array([[1.0], [1.2]]),
        trajectory=Trajectory(((0.0, 0),)),
        censoring_time=10.0,
    )
    # truncating at t=0 keeps no measurements and censors instantly
    draws = posterior_condition(
        rec, 0.0, design, params, g,
        SamplerConfig(n_chains=10, warmup=400, thin=5), n_draws=20_000, seed=0,
    )
    assert draws.shape[0] >= 20_000
    se = draws[:, 0].std() / np.sqrt(draws.shape[0] / 20)  # crude ESS guard
    assert abs(draws[:, 0].mean()) < 3 * se
    assert abs(draws[:, 0].var() - 0.5) < 0.05


def counting_engine(calls):
    """An engine class that records each posterior_logdensity call, as the
    benchmark's traced engine counts them."""

    class CountingEngine(predict.LikelihoodEngine):
        def posterior_logdensity(self, params, b):
            calls.append(np.shape(b))
            return super().posterior_logdensity(params, b)

    return CountingEngine


def test_every_conditioning_sweep_calls_posterior_logdensity(
    monkeypatch, small_cohort, study_design, study_params, study_graph
):
    # a design whose engine does not fold conditions by MH: one call to
    # start the chains, then one per sweep
    calls = []
    monkeypatch.setattr(predict, "LikelihoodEngine", counting_engine(calls))
    cfg = SamplerConfig(n_chains=5, warmup=30, thin=3)
    design = replace(study_design, effects=TransformStack(("identity", "exp", "identity")))
    params = replace(study_params, gamma=np.array([2.5, np.log(1.3), 0.2]))
    draws = posterior_condition(small_cohort[0][4], 5.0, design, params, study_graph, cfg, 23, seed=1)
    assert draws.shape == (25, 3)
    assert len(calls) == 1 + cfg.warmup + math.ceil(23 / cfg.n_chains) * cfg.thin
    assert set(calls) == {(5, 1, 3)}


def test_importance_resampling_calls_posterior_logdensity_once_per_chunk(
    monkeypatch, small_cohort, study_design, study_params, study_graph
):
    # the study folds: each chunk of individuals is weighed by one call at
    # K chains, and only the individuals whose weights degenerate go on to MH
    calls = []
    monkeypatch.setattr(predict, "LikelihoodEngine", counting_engine(calls))
    cohort = small_cohort[0]
    cfg = SamplerConfig(n_chains=5, warmup=30, thin=3)
    n_draws = 500
    k = predict.IS_PROPOSALS_PER_DRAW * n_draws
    size = predict.IS_BUDGET // k
    assert size * k <= predict.IS_BUDGET < (size + 1) * k
    draws = condition_cohort(cohort, 5.0, study_design, study_params, study_graph, cfg, n_draws, seed=1)
    assert draws.shape == (n_draws, len(cohort), 3)
    chunks = [min(size, len(cohort) - start) for start in range(0, len(cohort), size)]
    assert calls[:len(chunks)] == [(k, c, 3) for c in chunks]
    mh = calls[len(chunks):]
    assert len(mh) in (0, 1 + cfg.warmup + math.ceil(n_draws / cfg.n_chains) * cfg.thin)
    assert len({shape[1] for shape in mh}) <= 1 and all(shape[0] == cfg.n_chains for shape in mh)


def test_every_fit_sweep_calls_posterior_logdensity(small_cohort, study_design, study_graph, study_init_params):
    cohort, _ = small_cohort
    calls = []
    engine = counting_engine(calls)(cohort, study_design, study_graph)
    cfg = SamplerConfig(n_chains=5, warmup=20)
    report = fit(
        cohort, study_design, study_graph, study_init_params, FitConfig(max_iterations=4, n_draws=12),
        StopRule(rtol=0.0, atol=0.0), cfg, seed=3, engine=engine,
    )
    draws_per_iter = math.ceil(12 / cfg.n_chains)
    assert report.iterations == 4
    # init_chains evaluates theta_0; each later theta is evaluated once by a refresh
    assert len(calls) == 1 + cfg.warmup + report.iterations * draws_per_iter + (report.iterations - 1)


def test_fit_draws_are_thin_sweeps_apart(small_cohort, study_design, study_graph, study_init_params):
    cohort, _ = small_cohort
    sweeps, history = {}, {}
    for thin in (1, 3):
        calls = []
        engine = counting_engine(calls)(cohort, study_design, study_graph)
        cfg = SamplerConfig(n_chains=2, warmup=5, thin=thin)
        report = fit(
            cohort, study_design, study_graph, study_init_params, FitConfig(max_iterations=4, n_draws=4),
            StopRule(rtol=0.0, atol=0.0), cfg, seed=3, engine=engine,
        )
        assert report.iterations == 4
        # all calls but init_chains', the warmup's and one refresh per later theta are iteration sweeps
        sweeps[thin] = (len(calls) - 1 - cfg.warmup - (report.iterations - 1)) / report.iterations
        history[thin] = report.theta_history
    assert sweeps == {1: 2, 3: 6}
    assert not np.array_equal(history[1], history[3])


def test_posterior_condition_rejects_time_before_initial():
    g, design, params = single_edge_model()
    rec = IndividualRecord(
        covariates=np.zeros(1),
        measurement_times=np.zeros(0),
        measurements=np.zeros((0, 1)),
        trajectory=Trajectory(((1.0, 0),)),
        censoring_time=10.0,
    )
    with pytest.raises(ValueError, match="precedes"):
        posterior_condition(rec, 0.5, design, params, g)


def test_posterior_condition_matches_conjugate_oracle():
    g, design, params = single_edge_model(rate=1e-9, q_var=0.5)  # survival term ~ 0
    rng = np.random.default_rng(1)
    t_obs = np.array([0.5, 1.5, 2.5, 3.5])
    y = (0.8 + rng.normal(scale=np.sqrt(0.4), size=4))[:, None]
    rec = IndividualRecord(
        covariates=np.zeros(1),
        measurement_times=t_obs,
        measurements=y,
        trajectory=Trajectory(((0.0, 0),)),
        censoring_time=10.0,
    )
    draws = posterior_condition(
        rec, 5.0, design, params, g,
        SamplerConfig(n_chains=10, warmup=500, thin=5), n_draws=20_000, seed=2,
    )
    # conjugate posterior for a constant mean with known noise variance
    prec = 1 / 0.5 + 4 / 0.4
    mean = (y.sum() / 0.4) / prec
    x = draws[:, 0]
    se = x.std() / np.sqrt(x.size / 20)
    assert abs(x.mean() - mean) < 3 * se
    assert abs(x.var() - 1 / prec) < 0.02


def test_survival_information_shifts_posterior_down():
    # positive alpha on the marker level: surviving a long event-free sojourn
    # argues for a lower marker, so the posterior mean must drop relative to
    # the longitudinal-only posterior. Oracle: importance reweighting of
    # longitudinal-only draws by the survival likelihood.
    g = build_graph(2, [(0, 1)])
    reg = Polynomial(0)
    design = ModelDesign(BOnly(), reg, {(0, 1): (ExponentialHazard(0.2), ValueLink(reg))})
    alpha = 1.2
    params = ModelParams(
        gamma=np.zeros(0),
        q_repr=repr_from_cov([[0.5]], "diag"),
        r_repr=repr_from_cov([[0.4]], "ball"),
        alpha={(0, 1): np.array([alpha])},
        beta={(0, 1): np.zeros(1)},
    )
    rng = np.random.default_rng(3)
    t_obs = np.array([1.0, 3.0])
    y = np.array([[0.6], [0.7]])
    rec = IndividualRecord(
        covariates=np.zeros(1),
        measurement_times=t_obs,
        measurements=y,
        trajectory=Trajectory(((0.0, 0),)),
        censoring_time=12.0,
    )
    t = 12.0
    draws = posterior_condition(
        rec, t, design, params, g,
        SamplerConfig(n_chains=10, warmup=500, thin=5), n_draws=20_000, seed=4,
    )
    # longitudinal-only conjugate posterior
    prec = 1 / 0.5 + 2 / 0.4
    mean_l = (y.sum() / 0.4) / prec
    sd_l = np.sqrt(1 / prec)
    # importance-sampling oracle: reweight by exp(-Lambda(0, t | b))
    b_prop = rng.normal(mean_l, sd_l, size=200_000)
    log_w = -0.2 * np.exp(alpha * b_prop) * t
    w = np.exp(log_w - log_w.max())
    mean_joint = np.sum(w * b_prop) / np.sum(w)
    assert mean_joint < mean_l  # the sign the model implies
    x = draws[:, 0]
    se = x.std() / np.sqrt(x.size / 20)
    assert x.mean() < mean_l
    assert abs(x.mean() - mean_joint) < 4 * se


# -- conditioning by importance resampling ---------------------------------------


def random_intercept_cohort():
    """Three records of y_ij = b_i + e_ij, b_i ~ N(0, 0.5), e_ij ~ N(0, 0.4),
    with one edge whose EmptyLink hazard does not depend on b: the fold is
    then the exact posterior N(sum_j y_ij / 0.4 / prec_i, 1 / prec_i), prec_i
    = 1 / 0.5 + m_i / 0.4. Returns (graph, design, params, records, mean,
    sd)."""
    g = build_graph(2, [(0, 1)])
    reg = Polynomial(0)
    design = ModelDesign(BOnly(), reg, {(0, 1): (ExponentialHazard(0.3), EmptyLink())})
    params = ModelParams(
        gamma=np.zeros(0),
        q_repr=repr_from_cov([[0.5]], "diag"),
        r_repr=repr_from_cov([[0.4]], "ball"),
        alpha={(0, 1): np.zeros(0)},
        beta={(0, 1): np.zeros(1)},
    )
    rng = np.random.default_rng(21)
    records, means, sds = [], [], []
    for m, pairs in ((4, ((0.0, 0),)), (1, ((0.0, 0), (2.5, 1))), (7, ((0.0, 0),))):
        y = 0.8 + rng.normal(scale=np.sqrt(0.4), size=(m, 1))
        records.append(IndividualRecord(
            covariates=np.zeros(1), measurement_times=np.linspace(0.5, 3.5, m), measurements=y,
            trajectory=Trajectory(pairs), censoring_time=4.0,
        ))
        prec = 1 / 0.5 + m / 0.4
        means.append(y.sum() / 0.4 / prec)
        sds.append(np.sqrt(1 / prec))
    return g, design, params, records, np.array(means), np.array(sds)


@pytest.mark.parametrize("scale", [1.0, predict.IS_SCALE])
def test_importance_resampling_matches_the_exact_posterior(monkeypatch, scale):
    g, design, params, records, mean, sd = random_intercept_cohort()
    monkeypatch.setattr(predict, "IS_SCALE", scale)
    k, n_out = 20_000, 4_000
    draws = np.empty((n_out, len(records), 1))
    engine = LikelihoodEngine(Cohort(tuple(records)), design, g)
    ess = predict._importance_resample(engine, params, k, np.random.default_rng(3), draws)
    if scale == 1.0:
        # the proposal is the posterior: every weight is equal
        np.testing.assert_allclose(ess, k, rtol=1e-9)
    assert (ess > k / 2).all()
    # a resampled mean has variance sd^2 (1 / ESS + 1 / n_out); a resampled
    # variance about sd^4 * 2 (1 / ESS + 1 / n_out) for a Gaussian
    spread = np.sqrt(1 / ess + 1 / n_out)
    x = draws[:, :, 0]
    assert (np.abs(x.mean(axis=0) - mean) < 4 * sd * spread).all()
    assert (np.abs(x.var(axis=0) - sd**2) < 4 * sd**2 * np.sqrt(2) * spread).all()


def test_importance_resampling_matches_a_long_mh_run(study_design, study_params, study_graph):
    # the study's value+slope links make the posterior non-Gaussian; records
    # of the held-out cohort, truncated at 5, against 40 long MH chains
    cohort, _ = generate_cohort(study_design, study_params, n=200, m=20, seed=1042)
    records = [cohort[i].truncated(5.0) for i in (0, 3, 6)]
    engine = LikelihoodEngine(Cohort(tuple(records)), study_design, study_graph)
    k, n_out = 10_000, 2_000
    is_draws = np.empty((n_out, len(records), 3))
    ess = predict._importance_resample(engine, study_params, k, np.random.default_rng(5), is_draws)
    assert (ess >= n_out / 4).all()
    cfg = SamplerConfig(n_chains=40, warmup=500, thin=10)
    keep = 50
    mh = predict._mh_condition(engine, study_params, cfg, keep, seed=6).reshape(keep, cfg.n_chains, len(records), 3)
    # MH's ESS from the spread of its 40 independent chain means
    sd = mh.std(axis=(0, 1))
    var_mean = mh.mean(axis=0).var(axis=0, ddof=1) / cfg.n_chains
    ess_mh = np.minimum(sd**2 / var_mean, keep * cfg.n_chains)
    bound = 4 * sd * np.sqrt(1 / ess[:, None] + 1 / n_out + 1 / ess_mh)
    assert (np.abs(is_draws.mean(axis=0) - mh.mean(axis=(0, 1))) < bound).all()


def test_degenerate_weights_go_to_mh(monkeypatch, study_design, study_params, study_graph):
    # held-out individual 27 is absorbed 0 -> 2 at 0.71: at t = 2 the fold,
    # which lacks the risk rows, proposes far from its posterior
    cohort, _ = generate_cohort(study_design, study_params, n=200, m=20, seed=1042)
    record = cohort[27]
    assert [s for _, s in record.trajectory.pairs] == [0, 2]
    draws = np.empty((200, 1, 3))
    engine = LikelihoodEngine(Cohort((record.truncated(2.0),)), study_design, study_graph)
    ess = predict._importance_resample(engine, study_params, 1000, np.random.default_rng(0), draws)
    assert ess[0] < 200 / 4
    routed = []
    mh = predict._mh_condition

    def counting_mh(engine, *args):
        routed.append(engine.n)
        return mh(engine, *args)

    monkeypatch.setattr(predict, "_mh_condition", counting_mh)
    cfg = SamplerConfig(n_chains=5, warmup=50, thin=2)
    draws = posterior_condition(record, 2.0, study_design, study_params, study_graph, cfg, 200, seed=0)
    assert routed == [1]
    assert draws.shape == (200, 3) and np.isfinite(draws).all()


def test_conditioning_builds_one_engine(monkeypatch, study_design, study_params, study_graph):
    # the IS chunks and the MH route are taken from one engine on the
    # truncated cohort; at t = 2 some individuals go to MH
    builds = []

    class CountingEngine(predict.LikelihoodEngine):
        def __init__(self, *args):
            builds.append(len(args[0]))
            super().__init__(*args)

    monkeypatch.setattr(predict, "LikelihoodEngine", CountingEngine)
    routed = []
    mh = predict._mh_condition

    def counting_mh(engine, *args):
        routed.append(type(engine))
        return mh(engine, *args)

    monkeypatch.setattr(predict, "_mh_condition", counting_mh)
    cohort, _ = generate_cohort(study_design, study_params, n=200, m=20, seed=1042)
    draws = condition_cohort(cohort, 2.0, study_design, study_params, study_graph, seed=3)
    assert draws.shape == (predict.DEFAULT_DRAWS, 200, 3)
    assert builds == [200]
    assert routed == [CountingEngine]


def test_an_empty_cohort_conditions_to_no_draws(study_design, study_params, study_graph):
    design = replace(study_design, effects=GammaXPlusB(3, 1))
    draws = condition_cohort(Cohort((), 1, 1), 2.0, design, study_params, study_graph, n_draws=10)
    assert draws.shape == (10, 0, 3)


@pytest.mark.parametrize("value", [0, -3, 2.5, True])
def test_max_transitions_must_be_a_positive_integer(value, study_design, study_params, study_graph, small_cohort):
    with pytest.raises(ValueError, match="max_transitions"):
        SimConfig(max_transitions=value)
    rec = small_cohort[0][0]
    with pytest.raises(ValueError, match="max_transitions"):
        predict_state_grid(
            rec, 2.0, [4.0], study_design, study_params, study_graph, n_draws=5,
            b_draws=np.zeros((5, 3)), max_transitions=value,
        )


def test_a_fixed_seed_gives_the_same_draws(study_design, study_params, study_graph):
    cohort, _ = generate_cohort(study_design, study_params, n=40, m=20, seed=1042)
    cfg = SamplerConfig(n_chains=5, warmup=50, thin=2)
    args = (cohort, 2.0, study_design, study_params, study_graph, cfg, 200)
    first = condition_cohort(*args, seed=9)
    np.testing.assert_array_equal(condition_cohort(*args, seed=9), first)
    assert not np.array_equal(condition_cohort(*args, seed=10), first)


def test_truncation_past_censoring_equals_truncation_at_censoring(study_design, study_params, study_graph):
    # nothing is observed after the censoring time, so conditioning or
    # predicting at t = 8 for a subject censored at 3 must not assume
    # event-free follow-up up to 8
    cohort, _ = generate_cohort(study_design, study_params, n=50, m=20, seed=3, censoring=3.0)
    rec = cohort[20]
    assert rec.censoring_time == 3.0 and rec.trajectory.pairs[-1][1] == 0
    cfg = SamplerConfig(n_chains=5, warmup=150, thin=5)
    at_c = posterior_condition(rec, 3.0, study_design, study_params, study_graph, cfg, n_draws=200, seed=11)
    past = posterior_condition(rec, 8.0, study_design, study_params, study_graph, cfg, n_draws=200, seed=11)
    np.testing.assert_array_equal(past, at_c)
    grids = [
        predict_state_grid(rec, t, [9.0, 12.0], study_design, study_params, study_graph, b_draws=at_c, rng=5)[0]
        for t in (3.0, 8.0)
    ]
    np.testing.assert_array_equal(grids[1], grids[0])


# -- Monte-Carlo prediction -------------------------------------------------------


def test_predict_point_mass_on_current_state():
    g, design, params = single_edge_model()
    rec = IndividualRecord(
        covariates=np.zeros(1),
        measurement_times=np.zeros(0),
        measurements=np.zeros((0, 1)),
        trajectory=Trajectory(((0.0, 0),)),
        censoring_time=5.0,
    )
    spec, xi = state_at_time(g, 2.0)
    result = predict_functional(
        rec, 2.0, spec, xi, design, params, g, n_draws=50,
        rng=np.random.default_rng(5), b_draws=np.zeros((50, 1)),
    )
    dist = result.distribution()
    assert set(dist) == {0}
    assert dist[0] == pytest.approx(1.0)
    assert result.horizon_censored_fraction == 0.0


def test_predict_absorbing_state_point_mass():
    g, design, params = single_edge_model()
    rec = IndividualRecord(
        covariates=np.zeros(1),
        measurement_times=np.zeros(0),
        measurements=np.zeros((0, 1)),
        trajectory=Trajectory(((0.0, 0), (1.0, 1))),
        censoring_time=2.0,
    )
    spec, xi = state_at_time(g, 9.0)
    result = predict_functional(
        rec, 2.0, spec, xi, design, params, g, n_draws=40,
        rng=np.random.default_rng(6), b_draws=np.zeros((40, 1)),
    )
    dist = result.distribution()
    assert set(dist) == {1}
    assert dist[1] == pytest.approx(1.0)


def test_predict_constant_hazard_transition_probability():
    rate = 0.3
    g, design, params = single_edge_model(rate=rate)
    rec = IndividualRecord(
        covariates=np.zeros(1),
        measurement_times=np.zeros(0),
        measurements=np.zeros((0, 1)),
        trajectory=Trajectory(((0.0, 0),)),
        censoring_time=2.0,
    )
    t, u = 2.0, 5.0
    n_draws = 100_000
    spec, xi = state_at_time(g, u)
    result = predict_functional(
        rec, t, spec, xi, design, params, g, n_draws=n_draws,
        rng=np.random.default_rng(7), b_draws=np.zeros((n_draws, 1)),
    )
    # memoryless continuation from t: P(state 1 at u) = 1 - exp(-rate (u - t))
    p = 1 - np.exp(-rate * (u - t))
    got = result.distribution().get(1, 0.0)
    assert abs(got - p) < 3 * np.sqrt(p * (1 - p) / n_draws)


def test_predict_hitting_time_law():
    rate = 0.4
    g, design, params = single_edge_model(rate=rate)
    rec = IndividualRecord(
        covariates=np.zeros(1),
        measurement_times=np.zeros(0),
        measurements=np.zeros((0, 1)),
        trajectory=Trajectory(((0.0, 0),)),
        censoring_time=1.0,
    )
    spec, xi = hitting_time(g, {1})
    n_draws = 20_000
    result = predict_functional(
        rec, 1.0, spec, xi, design, params, g, n_draws=n_draws,
        rng=np.random.default_rng(8), b_draws=np.zeros((n_draws, 1)),
    )
    times = np.array(result.outcomes)
    assert np.isfinite(times).all()  # the single edge always fires eventually
    d = stats.kstest(times, "expon", args=(1.0, 1 / rate)).statistic
    assert d * np.sqrt(times.size) < 1.63


def test_prediction_weights_sum_to_one_and_censoring_reported():
    # recurrent two-state loop: the state_at rule never fires before the
    # horizon guard on a small guard budget
    g = build_graph(2, [(0, 1), (1, 0)])
    reg = Polynomial(0)
    design = ModelDesign(
        BOnly(), reg,
        {(0, 1): (ExponentialHazard(5.0), ValueLink(reg)),
         (1, 0): (ExponentialHazard(5.0), ValueLink(reg))},
    )
    params = ModelParams(
        gamma=np.zeros(0),
        q_repr=repr_from_cov([[0.5]], "diag"),
        r_repr=repr_from_cov([[0.4]], "ball"),
        alpha={e: np.zeros(1) for e in design.edges},
        beta={e: np.zeros(1) for e in design.edges},
    )
    rec = IndividualRecord(
        covariates=np.zeros(1),
        measurement_times=np.zeros(0),
        measurements=np.zeros((0, 1)),
        trajectory=Trajectory(((0.0, 0),)),
        censoring_time=1.0,
    )
    spec, xi = state_at_time(g, 50.0)
    result = predict_functional(
        rec, 1.0, spec, xi, design, params, g, n_draws=60,
        rng=np.random.default_rng(9), b_draws=np.zeros((60, 1)), max_transitions=20,
    )
    assert result.n_horizon_censored > 0  # guard trips and is reported
    if result.outcomes:
        assert result.weights.sum() == pytest.approx(1.0)
    assert result.n_horizon_censored + len(result.outcomes) == 60


def test_predict_state_grid_matches_functional():
    rate = 0.25
    g, design, params = single_edge_model(rate=rate)
    rec = IndividualRecord(
        covariates=np.zeros(1),
        measurement_times=np.zeros(0),
        measurements=np.zeros((0, 1)),
        trajectory=Trajectory(((0.0, 0),)),
        censoring_time=3.0,
    )
    horizons = [3.0, 6.0, 10.0]
    probs, modal = predict_state_grid(
        rec, 3.0, horizons, design, params, g, n_draws=40_000,
        rng=np.random.default_rng(10), b_draws=np.zeros((40_000, 1)),
    )
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    for ui, u in enumerate(horizons):
        p = 1 - np.exp(-rate * (u - 3.0))
        assert abs(probs[ui, 1] - p) < 3 * np.sqrt(max(p * (1 - p), 1e-9) / 40_000) + 1e-9
    assert probs[0, 0] == 1.0  # u = t: point mass on the current state
    assert modal[0] == 0


def test_state_grid_draws_its_own_posterior_sample(study_cohort, study_design, study_params, study_graph):
    # without b_draws, a request conditions the record on a seed taken from
    # its rng, then continues on the rest of that rng's stream
    cohort, _ = study_cohort
    t, horizons, n_draws = 4.0, [5.0, 8.0], 30
    rec = next(r for r in cohort if r.censoring_time > t and [s for u, s in r.trajectory.pairs if u <= t][-1] == 1)
    cfg = SamplerConfig(n_chains=3, warmup=40)
    r1, r2 = np.random.default_rng(17), np.random.default_rng(17)
    own = predict_state_grid(rec, t, horizons, study_design, study_params, study_graph, n_draws, rng=r1,
                             sampler_config=cfg)
    draws = posterior_condition(rec, t, study_design, study_params, study_graph, cfg, n_draws,
                                seed=int(r2.integers(2**63)))
    given = predict_state_grid(rec, t, horizons, study_design, study_params, study_graph, n_draws, rng=r2,
                               b_draws=draws)
    for a, b in zip(own, given):
        np.testing.assert_array_equal(a, b)


def test_continuation_from_initial_pair_equals_sample_trajectories(study_design, study_params, study_graph):
    # prediction continues a prefix with the simulator's own loop: from a
    # one-pair history, capped at C and conditioned on survival to s, it must
    # reproduce sample_trajectories draw for draw
    C, s, n = 9.0, 2.5, 12
    rec = IndividualRecord(
        covariates=np.array([0.4]),
        measurement_times=np.zeros(0),
        measurements=np.zeros((0, 1)),
        trajectory=Trajectory(((0.0, 0),)),
        censoring_time=C,
    )
    b = np.random.default_rng(1).normal(size=(n, 3))
    paths, n_guard = _continuations(
        rec, s, study_design, study_params, study_graph, n, np.random.default_rng(7), None, b,
        10_000, cap=C,
    )
    x = np.tile(rec.covariates, (n, 1))
    psi = study_design.effects.psi(study_params.gamma, x, b)
    expected = sample_trajectories(
        study_design, study_params, x, psi, (0.0, 0), SimConfig(censoring=C, t_surv=s),
        rng=np.random.default_rng(7),
    )
    assert n_guard == 0
    assert paths == [tr.pairs for tr in expected]
    assert any(len(p) > 1 for p in paths)


def test_predict_cohort_grid_equals_per_record_loop(study_design, study_params, study_graph):
    cohort, _ = generate_cohort(study_design, study_params, n=6, m=5, seed=8, censoring=(6.0, 15.0))
    t, horizons, n_draws = 3.0, [4.0, 12.0], 10
    cfg = SamplerConfig(n_chains=2, warmup=20, thin=2)
    probs, capped = predict_cohort_grid(
        cohort, t, horizons, study_design, study_params, study_graph, cfg, n_draws,
        np.random.default_rng(4),
    )
    rng = np.random.default_rng(4)
    draws = condition_cohort(
        cohort, t, study_design, study_params, study_graph, cfg, n_draws, int(rng.integers(2**63))
    )
    for i, rec in enumerate(cohort):
        rec_capped = np.minimum(horizons, rec.censoring_time)
        rec_probs, _ = predict_state_grid(
            rec, t, rec_capped, study_design, study_params, study_graph, n_draws=n_draws,
            rng=rng.spawn(1)[0], b_draws=draws[:, i, :],
        )
        np.testing.assert_array_equal(capped[i], rec_capped)
        np.testing.assert_array_equal(probs[i], rec_probs)
    assert probs.shape == (6, 2, 3)
    assert (capped[:, 1] < 12.0).any()  # some horizons are capped at C


def test_predict_cohort_grid_of_empty_cohort(study_design, study_params, study_graph):
    cohort, _ = generate_cohort(study_design, study_params, n=0, m=5, seed=8)
    cfg = SamplerConfig(n_chains=2, warmup=5, thin=2)
    probs, capped = predict_cohort_grid(
        cohort, 3.0, [4.0, 12.0], study_design, study_params, study_graph, cfg, 10,
        np.random.default_rng(4),
    )
    assert probs.shape == (0, 2, 3)
    assert capped.shape == (0, 2)


@pytest.mark.parametrize(
    "entry", ["condition_cohort", "predict_functional", "predict_state_grid", "predict_cohort_grid"]
)
def test_prediction_rejects_fewer_than_one_draw(entry, study_design, study_params, study_graph):
    # zero draws used to give all-zero probabilities and modal state 0
    cohort, _ = generate_cohort(study_design, study_params, n=2, m=5, seed=8)
    cfg = SamplerConfig(n_chains=2, warmup=5)
    common = (study_design, study_params, study_graph)
    spec, xi = state_at_time(study_graph, 4.0)
    calls = {
        "condition_cohort": lambda: condition_cohort(cohort, 2.0, *common, cfg, n_draws=0),
        "predict_functional": lambda: predict_functional(
            cohort[0], 2.0, spec, xi, *common, n_draws=0, sampler_config=cfg
        ),
        "predict_state_grid": lambda: predict_state_grid(
            cohort[0], 2.0, [4.0, 6.0], *common, n_draws=0, sampler_config=cfg
        ),
        "predict_cohort_grid": lambda: predict_cohort_grid(
            cohort, 2.0, [4.0, 6.0], *common, cfg, 0, np.random.default_rng(4)
        ),
    }
    with pytest.raises(ValueError, match="n_draws must be an integer >= 1, got 0"):
        calls[entry]()


# -- accuracy metric ------------------------------------------------------------


def test_accuracy_examples():
    assert accuracy([1, 2, 0], [1, 2, 0]) == 1.0
    assert accuracy([1, 0], [1, 2]) == 0.5
    with pytest.raises(ValueError, match="mismatch"):
        accuracy([1, 2], [1])
    with pytest.raises(ValueError, match="at least one"):
        accuracy([], [])


def test_modal_prediction_breaks_ties_toward_lower_state():
    result = PredictionResult(outcomes=[0, 1, 1, 0], n_draws=4, n_horizon_censored=0, truncation_time=0.0)
    assert result.modal() == 0
