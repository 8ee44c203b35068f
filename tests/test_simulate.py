import numpy as np
import pytest
from scipy import stats

from msjoint import ModelDesign, ModelParams, build_buckets, build_graph, repr_from_cov, validate_cohort
from msjoint.design import transition_state_probs
from msjoint.families import BOnly, Polynomial, ValueLink
from msjoint.hazards import ExponentialHazard, WeibullHazard
from msjoint.simulate import (
    SimConfig,
    TrajectoryLimitError,
    conditioned_equals_rejection,
    generate_cohort,
    invert_cumulative_hazard,
    random_far_apart,
    sample_event_time,
    sample_event_times,
    sample_trajectories,
    sample_trajectory,
)

KS_CRIT_1PCT = 1.63  # Kolmogorov critical value: D * sqrt(n) at alpha = 0.01


def constant_intensity(level):
    return lambda w: np.full(np.shape(w), level)


def two_state_model(rates, link_dim=0):
    """States 0 -> {1, 2} (or a single edge) with constant hazards and no
    covariate or marker effect."""
    edges = sorted(rates)
    num_states = 1 + max(max(e) for e in edges)
    g = build_graph(num_states, edges)
    reg = Polynomial(0)
    design = ModelDesign(
        BOnly(), reg, {e: (ExponentialHazard(r), ValueLink(reg)) for e, r in rates.items()}
    )
    params = ModelParams(
        gamma=np.zeros(0),
        q_repr=repr_from_cov(np.eye(1), "diag"),
        r_repr=repr_from_cov(np.eye(1), "ball"),
        alpha={e: np.zeros(1) for e in edges},
        beta={e: np.zeros(1) for e in edges},
    )
    return g, design, params


# -- event-time inversion -------------------------------------------------------


def test_invert_constant_hazard_exact():
    t = invert_cumulative_hazard(
        lambda w, idx=None: np.full(np.shape(w), 0.5),
        np.array([0.0]), np.array([np.inf]), np.array([1.0]),
    )
    assert t[0] == pytest.approx(2.0, abs=1e-8)


def test_invert_censors_below_threshold():
    t = invert_cumulative_hazard(
        lambda w, idx=None: np.full(np.shape(w), 0.1),
        np.array([0.0]), np.array([4.0]), np.array([1.0]),
    )
    assert np.isinf(t[0])  # Lambda(0, 4) = 0.4 < 1


def test_invert_respects_nonzero_lower():
    t = invert_cumulative_hazard(
        lambda w, idx=None: np.full(np.shape(w), 0.5),
        np.array([3.0]), np.array([np.inf]), np.array([1.0]),
    )
    assert t[0] == pytest.approx(5.0, abs=1e-8)


def test_sample_event_time_scalar_interface():
    rng = np.random.default_rng(0)
    t = sample_event_time(constant_intensity(0.5), 0.0, np.inf, rng)
    assert t is not None and t > 0
    censored = sample_event_time(constant_intensity(1e-9), 0.0, 1.0, rng)
    assert censored is None


def test_negative_intensity_raises():
    with pytest.raises(RuntimeError, match="nonnegative"):
        invert_cumulative_hazard(
            lambda w, idx=None: np.full(np.shape(w), -0.1),
            np.array([0.0]), np.array([10.0]), np.array([1.0]),
        )


def test_event_times_follow_exponential_law():
    rng = np.random.default_rng(1)
    draws = sample_event_times(constant_intensity(0.1), 0.0, np.inf, 100_000, rng)
    assert np.isfinite(draws).all()
    assert abs(draws.mean() - 10.0) < 3 * 10.0 / np.sqrt(draws.size)
    d = stats.kstest(draws, "expon", args=(0, 10.0)).statistic
    assert d * np.sqrt(draws.size) < KS_CRIT_1PCT


def test_event_times_nonconstant_hazard_law():
    # Weibull shape 2 scale 1: Lambda(t) = t^2, inverse sqrt(E)
    rng = np.random.default_rng(2)
    draws = sample_event_times(lambda w: 2.0 * np.asarray(w), 0.0, np.inf, 50_000, rng)
    d = stats.kstest(draws, lambda x: 1 - np.exp(-(x**2))).statistic
    assert d * np.sqrt(draws.size) < KS_CRIT_1PCT


# -- trajectory sampling -----------------------------------------------------------


def test_absorbing_initial_state_yields_single_pair():
    g, design, params = two_state_model({(0, 1): 0.3})
    cfg = SimConfig(censoring=np.inf)
    traj = sample_trajectory(
        design, params, np.zeros(1), np.zeros(1), (0.0, 1), cfg, np.random.default_rng(3)
    )
    assert traj.pairs == ((0.0, 1),)


def test_single_edge_sojourn_is_exponential():
    g, design, params = two_state_model({(0, 1): 0.4})
    n = 100_000
    cfg = SimConfig(censoring=np.inf)
    trajs = sample_trajectories(
        design, params, np.zeros((n, 1)), np.zeros((n, 1)), (0.0, 0), cfg,
        rng=np.random.default_rng(4),
    )
    sojourns = np.array([tr.pairs[1][0] for tr in trajs])
    d = stats.kstest(sojourns, "expon", args=(0, 1 / 0.4)).statistic
    assert d * np.sqrt(n) < KS_CRIT_1PCT


def test_competing_constant_hazards_joint_law():
    lam_a, lam_b = 0.3, 0.5
    g, design, params = two_state_model({(0, 1): lam_a, (0, 2): lam_b})
    n = 100_000
    cfg = SimConfig(censoring=np.inf)
    trajs = sample_trajectories(
        design, params, np.zeros((n, 1)), np.zeros((n, 1)), (0.0, 0), cfg,
        rng=np.random.default_rng(5),
    )
    times = np.array([tr.pairs[1][0] for tr in trajs])
    states = np.array([tr.pairs[1][1] for tr in trajs])
    # exit time ~ Exp(lam_a + lam_b)
    d = stats.kstest(times, "expon", args=(0, 1 / (lam_a + lam_b))).statistic
    assert d * np.sqrt(n) < KS_CRIT_1PCT
    # state frequencies lam_a / (lam_a + lam_b) within 3 sigma
    p = lam_a / (lam_a + lam_b)
    se = np.sqrt(p * (1 - p) / n)
    assert abs((states == 1).mean() - p) < 3 * se
    # per-state exit-time laws (joint density factorization)
    for s in (1, 2):
        sub = times[states == s]
        d = stats.kstest(sub, "expon", args=(0, 1 / (lam_a + lam_b))).statistic
        assert d * np.sqrt(sub.size) < KS_CRIT_1PCT


def test_transition_choice_probabilities_normalize(study_design, study_params, study_graph):
    probs = transition_state_probs(
        study_design, study_params, study_graph, 0, 1.7, 0.0, np.zeros(1), np.ones(3)
    )
    assert sum(probs.values()) == pytest.approx(1.0, abs=0.0)


def test_trajectory_legality(study_design, study_params, study_graph):
    cohort, _ = generate_cohort(study_design, study_params, 200, 5, seed=6)
    assert validate_cohort(cohort, study_graph) == []
    for rec in cohort:
        times = rec.trajectory.times
        assert (np.diff(times) > 0).all()
        assert times[-1] <= rec.censoring_time


def test_max_transitions_guard_fires_on_cycles():
    # 0 <-> 1 forever with no censoring
    g = build_graph(2, [(0, 1), (1, 0)])
    reg = Polynomial(0)
    design = ModelDesign(
        BOnly(), reg,
        {(0, 1): (ExponentialHazard(5.0), ValueLink(reg)), (1, 0): (ExponentialHazard(5.0), ValueLink(reg))},
    )
    params = ModelParams(
        gamma=np.zeros(0),
        q_repr=repr_from_cov(np.eye(1), "diag"),
        r_repr=repr_from_cov(np.eye(1), "ball"),
        alpha={e: np.zeros(1) for e in design.edges},
        beta={e: np.zeros(1) for e in design.edges},
    )
    cfg = SimConfig(censoring=np.inf, max_transitions=50)
    with pytest.raises(TrajectoryLimitError):
        sample_trajectories(
            design, params, np.zeros((3, 1)), np.zeros((3, 1)), (0.0, 0), cfg,
            rng=np.random.default_rng(7),
        )


# -- survival-conditioned simulation ---------------------------------------------


def test_conditioned_matches_rejection_sampling():
    lam_a, lam_b = 0.25, 0.45
    _, design, params = two_state_model({(0, 1): lam_a, (0, 2): lam_b})
    out = conditioned_equals_rejection(
        design, params, np.zeros(1), np.zeros(1), (0.0, 0), t_surv=1.0,
        n_draws=100_000, seed=8,
    )
    d = stats.ks_2samp(out["conditioned_times"], out["rejection_times"]).statistic
    n_eff = len(out["conditioned_times"])
    assert d * np.sqrt(n_eff / 2) < KS_CRIT_1PCT
    # memorylessness: conditioned exit time is 1 + Exp(lam_a + lam_b)
    d = stats.kstest(out["conditioned_times"], "expon", args=(1.0, 1 / (lam_a + lam_b))).statistic
    assert d * np.sqrt(n_eff) < KS_CRIT_1PCT
    # state choice unaffected by conditioning under constant hazards
    p = lam_a / (lam_a + lam_b)
    for states in (out["conditioned_states"], out["rejection_states"]):
        frac = (states == 1).mean()
        assert abs(frac - p) < 3 * np.sqrt(p * (1 - p) / len(states))
    # two-sample state-frequency z test
    fa = (out["conditioned_states"] == 1).mean()
    fb = (out["rejection_states"] == 1).mean()
    se = np.sqrt(2 * p * (1 - p) / n_eff)
    assert abs(fa - fb) < 3 * se


def test_no_condition_reduces_to_plain_sampler():
    _, design, params = two_state_model({(0, 1): 0.3})
    cfg_plain = SimConfig(censoring=np.inf, t_surv=-np.inf, seed=9)
    cfg_cond = SimConfig(censoring=np.inf, t_surv=-np.inf, seed=9)
    a = sample_trajectories(design, params, np.zeros((50, 1)), np.zeros((50, 1)), (0.0, 0), cfg_plain)
    b = sample_trajectories(design, params, np.zeros((50, 1)), np.zeros((50, 1)), (0.0, 0), cfg_cond)
    assert [x.pairs for x in a] == [y.pairs for y in b]


# -- measurement grids -----------------------------------------------------------


def test_random_far_apart_separation():
    rng = np.random.default_rng(10)
    grid = random_far_apart(rng, 200, 20, 0.0, 15.0, 0.525)
    assert grid.shape == (200, 20)
    assert (np.diff(grid, axis=1) >= 0.525 - 1e-12).all()
    assert (grid >= 0).all() and (grid <= 15).all()


def test_random_far_apart_rejection_path():
    # loose separation: rejection alone succeeds
    rng = np.random.default_rng(11)
    grid = random_far_apart(rng, 50, 4, 0.0, 100.0, 1.0)
    assert (np.diff(grid, axis=1) >= 1.0).all()


def test_random_far_apart_needs_only_m_minus_one_gaps():
    # two points 0.75 apart fit in [0, 1]: one gap, not two
    rng = np.random.default_rng(13)
    grid = random_far_apart(rng, 3, 2, 0.0, 1.0, 0.75)
    assert (np.diff(grid, axis=1) >= 0.75).all()
    assert (grid >= 0).all() and (grid <= 1).all()


def test_random_far_apart_infeasible():
    rng = np.random.default_rng(12)
    with pytest.raises(ValueError, match="cannot place"):
        random_far_apart(rng, 1, 20, 0.0, 10.0, 0.6)  # 20 * 0.6 > 10


# -- cohort generation ------------------------------------------------------------


def test_generate_cohort_zero_noise_limit(study_design, study_graph):
    params = ModelParams(
        gamma=np.array([2.5, -1.3, 0.2]),
        q_repr=repr_from_cov(np.diag([0.6, 0.2, 0.3]), "diag"),
        r_repr=repr_from_cov(1e-20 * np.eye(1), "ball"),
        alpha={e: np.array([-0.5, -3.0]) for e in study_graph.sorted_edges()},
        beta={e: np.array([-1.3]) for e in study_graph.sorted_edges()},
    )
    cohort, latent = generate_cohort(study_design, params, 20, 5, seed=13)
    for i, rec in enumerate(cohort):
        obs = rec.observed_rows
        h = study_design.regression.value(rec.measurement_times[obs], latent["psi"][i][None, :])
        np.testing.assert_allclose(rec.measurements[obs], h, atol=1e-8)


def test_generate_cohort_counts_match_reference(study_cohort, study_graph):
    from conftest import TRANSITION_COUNTS

    cohort, _ = study_cohort
    counts = build_buckets(study_graph, cohort.trajectories(), cohort.censoring_times()).counts()
    for edge, target in TRANSITION_COUNTS.items():
        assert abs(counts[edge] - target) <= 4 * np.sqrt(target)


def test_generate_cohort_seed_determinism(study_design, study_params):
    a, la = generate_cohort(study_design, study_params, 30, 6, seed=99)
    b, lb = generate_cohort(study_design, study_params, 30, 6, seed=99)
    np.testing.assert_array_equal(la["b"], lb["b"])
    for ra, rb in zip(a, b):
        assert ra.trajectory.pairs == rb.trajectory.pairs
        np.testing.assert_array_equal(ra.measurement_times, rb.measurement_times)
        np.testing.assert_array_equal(ra.measurements, rb.measurements)
        assert ra.censoring_time == rb.censoring_time


def test_generate_cohort_marks_rows_beyond_censoring(study_cohort):
    cohort, _ = study_cohort
    for rec in cohort:
        late = rec.measurement_times > rec.censoring_time
        assert rec.missing_rows[late].all()


def test_generate_cohort_respects_separation(study_cohort):
    cohort, _ = study_cohort
    delta = 0.7 * 15.0 / 20
    for rec in cohort:
        assert (np.diff(rec.measurement_times) >= delta - 1e-12).all()


def test_weibull_trajectories_sojourn_law():
    # clock-reset Weibull sojourn from state entry follows the Weibull law
    g = build_graph(2, [(0, 1)])
    reg = Polynomial(0)
    design = ModelDesign(BOnly(), reg, {(0, 1): (WeibullHazard(2.0, 3.0), ValueLink(reg))})
    params = ModelParams(
        gamma=np.zeros(0),
        q_repr=repr_from_cov(np.eye(1), "diag"),
        r_repr=repr_from_cov(np.eye(1), "ball"),
        alpha={(0, 1): np.zeros(1)},
        beta={(0, 1): np.zeros(1)},
    )
    n = 30_000
    cfg = SimConfig(censoring=np.inf)
    # entry at a nonzero time: sojourn ages from the entry, not from zero
    trajs = sample_trajectories(
        design, params, np.zeros((n, 1)), np.zeros((n, 1)), (5.0, 0), cfg,
        rng=np.random.default_rng(14),
    )
    sojourns = np.array([tr.pairs[1][0] - 5.0 for tr in trajs])
    d = stats.kstest(sojourns, lambda x: 1 - np.exp(-((x / 3.0) ** 2))).statistic
    assert d * np.sqrt(n) < KS_CRIT_1PCT
