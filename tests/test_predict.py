import numpy as np
import pytest
from scipy import stats

from msjoint import (
    IndividualRecord,
    ModelDesign,
    ModelParams,
    Trajectory,
    build_graph,
    repr_from_cov,
)
from msjoint.families import BOnly, Polynomial, ValueLink
from msjoint.hazards import ExponentialHazard
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
