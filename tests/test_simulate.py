from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from msjoint import (
    LikelihoodEngine,
    ModelDesign,
    ModelParams,
    build_buckets,
    build_graph,
    repr_from_cov,
    validate_cohort,
)
from msjoint import simulate
from msjoint.design import cumulative_intensity, node_intensities, transition_log_intensity
from msjoint.families import BOnly, Polynomial, ValueLink
from msjoint.hazards import ExponentialHazard, WeibullHazard
from msjoint.simulate import (
    BISECT_TOL,
    MAX_REJECTION_ROUNDS,
    SimConfig,
    TrajectoryLimitError,
    conditioned_equals_rejection,
    extend_paths,
    generate_cohort,
    invert_cumulative_hazard,
    random_far_apart,
    sample_trajectories,
    _edge_intensity,
)
from msjoint.streams import RowStreams
from msjoint.study import Q_DIAG

KS_CRIT_1PCT = 1.63  # Kolmogorov critical value: D * sqrt(n) at alpha = 0.01


def closed_form(cumulative, rate, counter=None):
    """The intensity callable of a hazard known in closed form: [a, b] cut
    into four equal cells, each weighted by its width and valued by the
    hazard's mean over it, so that the weighted sum telescopes to
    Lambda(a, b); the last column is ``rate`` at b. ``counter`` collects the
    number of rows of every call."""

    def intensity(idx, a, b):
        if counter is not None:
            counter.append(np.size(idx))
        ends = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, 5)
        width = np.diff(ends, axis=1)
        mean = cumulative(idx, ends[:, :-1], ends[:, 1:]) / width
        return width, np.column_stack([mean, rate(idx, b)])

    return intensity


def constant_cumulative(level):
    """Lambda(a, b) = level * (b - a) of a constant hazard."""
    return lambda idx, a, b: level * (b - a)


def constant(level, counter=None):
    return closed_form(constant_cumulative(level), lambda idx, t: np.full(np.shape(t), float(level)), counter)


def quadratic_cumulative(idx, a, b):
    """Lambda(a, b) = b^2 - a^2: Weibull shape 2, scale 1."""
    return b**2 - a**2


def sample_event_times(intensity, n, rng):
    """Batched draws from 0 with no cap; censored draws come back as +inf."""
    return invert_cumulative_hazard(intensity, np.zeros(n), np.inf, rng.standard_exponential(n))


def edge_cumulative(design, params, edge, x, psi, entry):
    """Lambda of rows idx over [a, b] by ``cumulative_intensity``."""
    return lambda idx, a, b: cumulative_intensity(design, params, edge, entry[idx], b, x[idx], psi[idx], lower=a)


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
    t = invert_cumulative_hazard(constant(0.5), np.array([0.0]), np.array([np.inf]), np.array([1.0]))
    assert t[0] == pytest.approx(2.0, abs=1e-8)


def test_invert_censors_below_threshold():
    t = invert_cumulative_hazard(constant(0.1), np.array([0.0]), np.array([4.0]), np.array([1.0]))
    assert np.isinf(t[0])  # Lambda(0, 4) = 0.4 < 1


def test_invert_respects_nonzero_lower():
    t = invert_cumulative_hazard(constant(0.5), np.array([3.0]), np.array([np.inf]), np.array([1.0]))
    assert t[0] == pytest.approx(5.0, abs=1e-8)


def test_invert_censors_cap_at_or_below_lower_without_integrating():
    calls = []
    half = constant(0.5)

    def intensity(idx, a, b):
        if np.any(np.isin(idx, [1, 2])):
            raise AssertionError("integrated a row whose cap does not exceed its lower bound")
        calls.append(idx)
        return half(idx, a, b)

    t = invert_cumulative_hazard(
        intensity, np.array([0.0, 5.0, 3.0]), np.array([np.inf, 3.0, 3.0]), np.array([1.0, 1.0, 0.0])
    )
    assert t[0] == pytest.approx(2.0, abs=1e-8)
    assert np.isinf(t[1:]).all()
    assert calls


def test_negative_intensity_raises():
    with pytest.raises(RuntimeError, match="nonnegative"):
        invert_cumulative_hazard(constant(-0.1), np.array([0.0]), np.array([10.0]), np.array([1.0]))


def test_event_times_follow_exponential_law():
    rng = np.random.default_rng(1)
    draws = sample_event_times(constant(0.1), 100_000, rng)
    assert np.isfinite(draws).all()
    assert abs(draws.mean() - 10.0) < 3 * 10.0 / np.sqrt(draws.size)
    d = stats.kstest(draws, "expon", args=(0, 10.0)).statistic
    assert d * np.sqrt(draws.size) < KS_CRIT_1PCT


def test_event_times_nonconstant_hazard_law():
    # Weibull shape 2 scale 1: Lambda(t) = t^2, inverse sqrt(E)
    rng = np.random.default_rng(2)
    draws = sample_event_times(closed_form(quadratic_cumulative, lambda idx, t: 2.0 * t), 50_000, rng)
    d = stats.kstest(draws, lambda x: 1 - np.exp(-(x**2))).statistic
    assert d * np.sqrt(draws.size) < KS_CRIT_1PCT


def recurrent_model(study_design, study_params):
    """Recurrent 0 <-> 1 with absorbing 2: Weibull clock-reset baselines and
    a value link on the study's marker."""
    weibull = {(0, 1): (2.0, 2.2), (1, 0): (2.0, 1.5), (0, 2): (1.0, 60.0), (1, 2): (1.0, 30.0)}
    reg = study_design.regression
    hazards = {e: (WeibullHazard(k, s), ValueLink(reg)) for e, (k, s) in weibull.items()}
    design = ModelDesign(study_design.effects, reg, hazards)
    params = replace(
        study_params,
        alpha={(0, 1): [-0.1], (1, 0): [0.1], (0, 2): [-0.2], (1, 2): [-0.2]},
        beta={(0, 1): [0.3], (1, 0): [-0.3], (0, 2): [0.2], (1, 2): [0.2]},
    )
    return design, params


@pytest.mark.parametrize("model", ["study", "recurrent"])
def test_inverted_times_are_exact_to_the_tolerance(model, study_design, study_params):
    # Lambda(lower, t - tol) < E <= Lambda(lower, t + tol) for every solved row,
    # and Lambda(lower, cap) < E for every row censored at a finite cap
    design, params = (study_design, study_params) if model == "study" else recurrent_model(study_design, study_params)
    rng = np.random.default_rng(23)
    n = 400
    x = rng.standard_normal((n, 1))
    psi = params.gamma + rng.standard_normal((n, 3)) * np.sqrt(Q_DIAG)
    entry = np.where(rng.random(n) < 0.25, 0.0, rng.uniform(0.0, 8.0, n))
    lower = entry + np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2.0, n))
    cap = np.where(rng.random(n) < 0.2, np.inf, lower + rng.uniform(2.0, 12.0, n))
    thr = rng.standard_exponential(n)
    for edge in design.edges:
        t = invert_cumulative_hazard(_edge_intensity(design, params, edge, x, psi, entry), lower, cap, thr)
        cumulative = edge_cumulative(design, params, edge, x, psi, entry)
        idx = np.nonzero(np.isfinite(t))[0]
        assert idx.size >= 20, edge
        assert (t[idx] > lower[idx]).all()
        assert (cumulative(idx, lower[idx], np.maximum(t[idx] - BISECT_TOL, lower[idx])) < thr[idx]).all(), edge
        assert (cumulative(idx, lower[idx], t[idx] + BISECT_TOL) >= thr[idx]).all(), edge
        cut = np.nonzero(~np.isfinite(t) & np.isfinite(cap))[0]
        assert (cumulative(cut, lower[cut], cap[cut]) < thr[cut]).all(), edge


def random_rows(params, n, rng):
    """x, psi, entry times and integration bounds a <= b of n random rows."""
    x = rng.standard_normal((n, 1))
    psi = params.gamma + rng.standard_normal((n, 3)) * np.sqrt(Q_DIAG)
    entry = rng.uniform(0.0, 8.0, n)
    a = entry + np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2.0, n))
    return x, psi, entry, a, a + rng.uniform(0.0, 10.0, n)


@pytest.mark.parametrize("model", ["study", "recurrent"])
def test_edge_intensity_is_the_cumulative_intensity_and_the_rate(model, study_design, study_params):
    # bit for bit: the node columns' weighted sum is cumulative_intensity, and
    # the last column is exp(transition_log_intensity) at b
    design, params = (study_design, study_params) if model == "study" else recurrent_model(study_design, study_params)
    x, psi, entry, a, b = random_rows(params, 300, np.random.default_rng(25))
    idx = np.arange(300)
    for edge in design.edges:
        weights, values = _edge_intensity(design, params, edge, x, psi, entry)(idx, a, b)
        assert values.shape == (300, design.n_quad + 1)
        summed = np.sum(values[:, :-1] * weights, axis=-1)
        expected = cumulative_intensity(design, params, edge, entry, b, x, psi, lower=a)
        np.testing.assert_array_equal(summed, expected)
        rate = np.exp(transition_log_intensity(design, params, edge, b, entry, x, psi))
        np.testing.assert_array_equal(values[:, -1], rate)


def test_slowly_alternating_newton_falls_back_to_bisection():
    # Lambda(0, t) = g(t) - g(0) with g(t) = sign(t - r) |t - r|^0.55: from
    # either side of r a Newton step lands on the other side at 0.82 times
    # the distance, inside the bracket, so plain Newton takes about 95
    # evaluations; a step longer than half the step before the last one is
    # replaced by the bracket's midpoint
    r, p = 2.0, 0.55
    g = lambda t: np.sign(t - r) * np.abs(t - r) ** p  # noqa: E731
    calls = []
    intensity = closed_form(lambda idx, a, b: g(b) - g(a), lambda idx, t: p * np.abs(t - r) ** (p - 1), calls)
    t = invert_cumulative_hazard(intensity, np.zeros(1), np.array([5.0]), -g(np.zeros(1)))
    assert t[0] == pytest.approx(r, abs=BISECT_TOL)
    assert len(calls) <= 40


def test_root_beside_a_breakpoint_takes_few_evaluations(monkeypatch, study_design, study_params):
    # row 176's (0,1) root 5.776956 lies just below the slope link's tau = 6,
    # where plain Newton alternates between about 4.090 and 6.053 (54
    # evaluations over the row's three inversions); halving a step longer than
    # half the one before the last breaks the cycle
    _, latent = generate_cohort(study_design, study_params, n=1000, m=20, seed=5)
    target = latent["psi"][176]
    evaluations = []

    def counting(design, params, edge, x, psi, entry):
        intensity = _edge_intensity(design, params, edge, x, psi, entry)
        pos = np.nonzero((psi == target).all(axis=1))[0]

        def counted(idx, a, b):
            evaluations.append(np.isin(pos, idx).any())
            return intensity(idx, a, b)

        return counted

    monkeypatch.setattr(simulate, "_edge_intensity", counting)
    cohort, _ = generate_cohort(study_design, study_params, n=1000, m=20, seed=5)
    assert [s for _, s in cohort[176].trajectory.pairs] == [0, 1, 2]
    assert cohort[176].trajectory.pairs[1][0] == pytest.approx(5.776956, abs=1e-6)
    assert 0 < sum(evaluations) <= 15


def test_constant_hazard_takes_two_newton_passes():
    calls = []
    rng = np.random.default_rng(24)
    lower, thr = rng.uniform(0.0, 5.0, 200), rng.standard_exponential(200)
    t = invert_cumulative_hazard(constant(0.7, calls), lower, lower + 50.0, thr)
    assert len(calls) == 1 + 2  # the probe at the cap, then two passes
    np.testing.assert_allclose(t, lower + thr / 0.7, rtol=0.0, atol=BISECT_TOL)


def test_vanishing_hazard_falls_back_to_bisection():
    # lambda = 0 on [1, 3] and 1 elsewhere: Lambda(a, b) = |[a, b] outside [1, 3]|
    def cumulative(idx, a, b):
        return (b - a) - np.clip(np.minimum(b, 3.0) - np.maximum(a, 1.0), 0.0, None)

    zero_rates = []

    def rate(idx, t):
        lam = np.where((t >= 1.0) & (t <= 3.0), 0.0, 1.0)
        zero_rates.append(int((lam == 0.0).sum()))
        return lam

    thr = np.array([0.5, 1.0, 1.5, 2.5])
    lower = np.zeros(4)
    t = invert_cumulative_hazard(closed_form(cumulative, rate), lower, 10.0, thr)
    assert sum(zero_rates) > 0
    # the smallest roots; E = 1 is reached at 1 and held on all of [1, 3]
    np.testing.assert_allclose(t, [0.5, 1.0, 3.5, 4.5], rtol=0.0, atol=BISECT_TOL)
    assert (cumulative(None, lower, t - BISECT_TOL) < thr).all()
    assert (cumulative(None, lower, t + BISECT_TOL) >= thr).all()


# -- trajectory sampling -----------------------------------------------------------


def test_absorbing_initial_state_yields_single_pair():
    g, design, params = two_state_model({(0, 1): 0.3})
    cfg = SimConfig(censoring=np.inf)
    [traj] = sample_trajectories(
        design, params, np.zeros((1, 1)), np.zeros((1, 1)), (0.0, 1), cfg, np.random.default_rng(3)
    )
    assert traj.pairs == ((0.0, 1),)


def test_initial_pairs_must_match_the_rows(study_design, study_params):
    # two pairs for three rows used to drop the third row silently
    x = np.zeros((3, 1))
    psi = np.tile(study_params.gamma, (3, 1))
    with pytest.raises(ValueError, match="2 initial pairs for 3 rows"):
        sample_trajectories(
            study_design, study_params, x, psi, [(0.0, 0), (0.0, 0)], SimConfig(censoring=10.0),
            np.random.default_rng(0),
        )


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


def test_a_later_edge_that_cannot_win_stops_after_its_probe(monkeypatch):
    # (0,2)'s hazard is so small that (0,1) wins every row; capped at the
    # row's running minimum, (0,2) is probed once per row and never solved
    _, design, params = two_state_model({(0, 1): 0.5, (0, 2): 1e-9})
    calls = []

    def counting(design, params, edge, entry, *args, **kwargs):
        calls.append((edge, entry.size))
        return node_intensities(design, params, edge, entry, *args, **kwargs)

    monkeypatch.setattr(simulate, "node_intensities", counting)
    n = 200
    trajs = sample_trajectories(
        design, params, np.zeros((n, 1)), np.zeros((n, 1)), (0.0, 0), SimConfig(censoring=np.inf),
        rng=np.random.default_rng(11),
    )
    assert [tr.pairs[1][1] for tr in trajs] == [1] * n
    assert [c for c in calls if c[0] == (0, 2)] == [((0, 2), n)]
    assert len([c for c in calls if c[0] == (0, 1)]) > 1  # the winner is solved by Newton


def test_trajectory_legality(study_design, study_params, study_graph):
    cohort, _ = generate_cohort(study_design, study_params, 200, 5, seed=6)
    assert validate_cohort(cohort, study_graph) == []
    for rec in cohort:
        times = rec.trajectory.times
        assert (np.diff(times) > 0).all()
        assert times[-1] <= rec.censoring_time


def test_cohort_without_measurements(study_design, study_params, study_graph):
    # m = 0: no measurement grid, so no default separation to divide out
    cohort, _ = generate_cohort(study_design, study_params, 20, 0, seed=3)
    assert validate_cohort(cohort, study_graph) == []
    assert all(rec.measurements.shape == (0, 1) for rec in cohort)
    engine = LikelihoodEngine(cohort, study_design, study_graph)
    assert engine.folds
    lp = engine.posterior_logdensity(study_params, np.zeros((2, 20, study_params.q_repr.dim)))
    assert np.all(np.isfinite(lp))


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


def test_event_times_do_not_depend_on_the_batch(study_design, study_params):
    cohort, latent = generate_cohort(study_design, study_params, 200, 20, seed=5)
    x = np.array([rec.covariates for rec in cohort])
    psi, cens = latent["psi"], cohort.censoring_times()
    whole = [[(0.0, 0)] for _ in range(200)]
    extend_paths(study_design, study_params, x, psi, whole, cens, RowStreams.spawn(np.random.default_rng(7), 200))
    streams = RowStreams.spawn(np.random.default_rng(7), 200)
    for i in range(200):
        one = [[(0.0, 0)]]
        extend_paths(study_design, study_params, x[i:i + 1], psi[i:i + 1], one, cens[i], streams[i:i + 1])
        assert one[0] == whole[i], i


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
    cfg_plain = SimConfig(censoring=np.inf, t_surv=-np.inf)
    cfg_cond = SimConfig(censoring=np.inf, t_surv=-np.inf)
    a = sample_trajectories(
        design, params, np.zeros((50, 1)), np.zeros((50, 1)), (0.0, 0), cfg_plain, np.random.default_rng(9)
    )
    b = sample_trajectories(
        design, params, np.zeros((50, 1)), np.zeros((50, 1)), (0.0, 0), cfg_cond, np.random.default_rng(9)
    )
    assert [x.pairs for x in a] == [y.pairs for y in b]


def test_rejection_stops_at_round_limit():
    # Lambda(0, 20) = 100 under hazard 5: about exp(-100) of draws survive to t = 20
    _, design, params = two_state_model({(0, 1): 5.0})
    with pytest.raises(RuntimeError, match=f"after {MAX_REJECTION_ROUNDS} rounds: acceptance rate 0 "):
        conditioned_equals_rejection(
            design, params, np.zeros(1), np.zeros(1), (0.0, 0), t_surv=20.0, n_draws=20, seed=4,
        )


def test_survival_beyond_censoring_leaves_initial_pair_only():
    _, design, params = two_state_model({(0, 1): 0.3, (0, 2): 0.2})
    cfg = SimConfig(censoring=3.0, t_surv=5.0)
    trajs = sample_trajectories(
        design, params, np.zeros((20, 1)), np.zeros((20, 1)), (0.0, 0), cfg, np.random.default_rng(10)
    )
    assert [tr.pairs for tr in trajs] == [((0.0, 0),)] * 20


# -- measurement grids -----------------------------------------------------------


def test_random_far_apart_separation():
    rng = np.random.default_rng(10)
    grid = random_far_apart(rng, 200, 20, 0.0, 15.0, 0.525)
    assert grid.shape == (200, 20)
    assert (np.diff(grid, axis=1) >= 0.525 - 1e-12).all()
    assert (grid >= 0).all() and (grid <= 15).all()


def test_random_far_apart_rejection_path():
    # loose separation: most rows of plain sorted uniforms would already qualify
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
        random_far_apart(rng, 1, 20, 0.0, 10.0, 0.6)  # 19 * 0.6 > 10


def assert_exact_grid(grid, low, high, delta):
    """The grid's guarantees, with no tolerance: float64 gaps and bounds."""
    assert (np.diff(grid, axis=1) >= delta).all()
    assert (grid >= low).all() and (grid <= high).all()


@pytest.mark.parametrize("low", [0.0, 3.0])
def test_random_far_apart_exact_in_float64(low):
    rng = np.random.default_rng(15)
    # loose, on a shifted interval too
    assert_exact_grid(random_far_apart(rng, 500, 20, low, low + 15.0, 0.525), low, low + 15.0, 0.525)
    # tight: 20 gaps of 0.75 fill the span exactly, so every grid is the lattice
    grid = random_far_apart(rng, 50, 21, low, low + 15.0, 0.75)
    assert_exact_grid(grid, low, low + 15.0, 0.75)
    np.testing.assert_array_equal(grid, np.broadcast_to(low + 0.75 * np.arange(21), grid.shape))


def test_random_far_apart_rounding_past_high_is_repaired():
    # a slack of 16 ulps: rounding of the shift pushes some rows past high,
    # and those are rebuilt down from it
    low, delta, m = 10.0, 0.3, 8
    high = low + (m - 1) * delta
    for _ in range(16):
        high = np.nextafter(high, np.inf)
    assert_exact_grid(random_far_apart(np.random.default_rng(0), 200, m, low, high, delta), low, high, delta)


def test_random_far_apart_rejects_separations_float64_cannot_hold():
    # 19 * fl(15/19) exceeds 15 by 2**-52, and rounding the points to float64
    # adds more: no float64 grid keeps every gap >= delta inside [0, 15]
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="in float64"):
        random_far_apart(rng, 200, 20, 0.0, 15.0, 15 / 19)


def test_random_far_apart_single_point_and_zero_separation():
    grid = random_far_apart(np.random.default_rng(16), 30, 1, 2.0, 5.0, 100.0)
    assert grid.shape == (30, 1) and ((grid >= 2.0) & (grid <= 5.0)).all()
    assert random_far_apart(np.random.default_rng(16), 30, 0, 2.0, 5.0, 1.0).shape == (30, 0)
    # delta = 0: plain sorted uniforms, draw for draw
    grid = random_far_apart(np.random.default_rng(17), 30, 6, 0.0, 15.0, 0.0)
    expected = np.sort(np.random.default_rng(17).uniform(0.0, 15.0, size=(30, 6)), axis=1)
    np.testing.assert_array_equal(grid, expected)


def test_random_far_apart_negative_separation():
    with pytest.raises(ValueError, match="nonnegative"):
        random_far_apart(np.random.default_rng(18), 3, 4, 0.0, 10.0, -0.1)


def brute_force_far_apart(rng, n, m, low, high, delta):
    """Rejection: sorted uniform rows, kept when every gap is >= delta."""
    kept = np.empty((0, m))
    while kept.shape[0] < n:
        rows = np.sort(rng.uniform(low, high, size=(n, m)), axis=1)
        kept = np.vstack([kept, rows[(np.diff(rows, axis=1) >= delta).all(axis=1)]])
    return kept[:n]


def test_random_far_apart_matches_rejection_law():
    n, m, low, high, delta = 4000, 4, 0.0, 100.0, 1.0
    grid = random_far_apart(np.random.default_rng(19), n, m, low, high, delta)
    ref = brute_force_far_apart(np.random.default_rng(20), n, m, low, high, delta)
    for stat in (lambda g: np.diff(g, axis=1).min(axis=1), lambda g: g[:, 0]):
        d = stats.ks_2samp(stat(grid), stat(ref)).statistic
        assert d * np.sqrt(n / 2) < KS_CRIT_1PCT


def test_random_far_apart_study_grid_law():
    # closed forms of the uniform law over feasible grids, via the spacings
    # of m sorted uniforms on [0, L], L = span - (m-1) delta:
    # P(first point > s) = (1 - s/L)^m, P(smallest gap - delta > s) = (1 - (m-1) s/L)^m
    n, m, span, delta = 4000, 20, 15.0, 0.525
    length = span - (m - 1) * delta
    grid = random_far_apart(np.random.default_rng(21), n, m, 0.0, span, delta)
    d = stats.kstest(grid[:, 0], lambda s: 1 - (1 - s / length) ** m).statistic
    assert d * np.sqrt(n) < KS_CRIT_1PCT
    gap = np.diff(grid, axis=1).min(axis=1) - delta
    d = stats.kstest(gap, lambda s: 1 - (1 - (m - 1) * s / length) ** m).statistic
    assert d * np.sqrt(n) < KS_CRIT_1PCT


# -- cohort generation ------------------------------------------------------------


def test_generate_cohort_grid_size_leaves_the_rest_unchanged(study_design, study_params):
    # covariates, b and censoring are drawn before the grid, trajectories from
    # spawned streams: none of them depends on m
    a, la = generate_cohort(study_design, study_params, 40, 20, seed=5)
    b, lb = generate_cohort(study_design, study_params, 40, 5, seed=5)
    np.testing.assert_array_equal(la["b"], lb["b"])
    np.testing.assert_array_equal(la["psi"], lb["psi"])
    for ra, rb in zip(a, b):
        assert ra.trajectory.pairs == rb.trajectory.pairs
        np.testing.assert_array_equal(ra.covariates, rb.covariates)
        assert ra.censoring_time == rb.censoring_time


def test_generate_cohort_zero_noise_limit(study_design, study_graph, study_params):
    edges = study_graph.sorted_edges()
    params = replace(
        study_params,
        r_repr=repr_from_cov(1e-20 * np.eye(1), "ball"),
        alpha={e: np.array([-0.5, -3.0]) for e in edges},
        beta={e: np.array([-1.3]) for e in edges},
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
