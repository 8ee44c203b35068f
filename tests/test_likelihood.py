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
    longitudinal_loglik,
    prior_loglik,
    repr_from_cov,
    semi_markov_loglik,
)
from msjoint.families import (
    BOnly,
    GammaPlusB,
    Polynomial,
    ShiftedTanh,
    ValueLink,
)
from msjoint.hazards import ExponentialHazard, PiecewiseConstantHazard, WeibullHazard
from msjoint.likelihood import _CachedBasis, locate_nonfinite
from msjoint.params import Sharing, flatten, unflatten
from msjoint.simulate import generate_cohort
from msjoint.study import RATES


# -- prior term ---------------------------------------------------------------


def test_prior_loglik_at_zero():
    rep = repr_from_cov(np.eye(3), "diag")
    assert prior_loglik(np.zeros(3), rep) == pytest.approx(-1.5 * np.log(2 * np.pi))
    assert prior_loglik(np.zeros(3), rep) == pytest.approx(-2.7568, abs=1e-4)


def test_prior_loglik_unit_vector():
    rep = repr_from_cov(np.eye(3), "diag")
    assert prior_loglik(np.array([1.0, 0, 0]), rep) == pytest.approx(-2.7568 - 0.5, abs=1e-4)


def test_prior_loglik_matches_dense_gaussian_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + 3 * np.eye(3)
        b = rng.normal(size=3)
        for method in ("full",):
            rep = repr_from_cov(cov, method)
            ref = stats.multivariate_normal(np.zeros(3), cov).logpdf(b)
            assert prior_loglik(b, rep) == pytest.approx(ref, abs=1e-9)


# -- longitudinal term ----------------------------------------------------------


def test_longitudinal_all_rows_missing_gives_zero(study_design):
    rec = IndividualRecord(
        covariates=np.zeros(1),
        measurement_times=np.array([1.0, 2.0]),
        measurements=np.full((2, 1), np.nan),
        trajectory=Trajectory(((0.0, 0),)),
        censoring_time=np.inf,
    )
    rep = repr_from_cov(np.eye(1), "ball")
    assert longitudinal_loglik(rec, np.zeros(3), rep, study_design) == 0.0


def test_longitudinal_single_exact_row(study_design):
    # residual 0, d = 1, R = 1: -log(2 pi)/2
    psi = np.array([1.0, 2.0, -1.0])
    h8 = 11.0
    rec = IndividualRecord(
        covariates=np.zeros(1),
        measurement_times=np.array([8.0]),
        measurements=np.array([[h8]]),
        trajectory=Trajectory(((0.0, 0),)),
        censoring_time=np.inf,
    )
    rep = repr_from_cov(np.eye(1), "ball")
    got = longitudinal_loglik(rec, psi, rep, study_design)
    assert got == pytest.approx(-0.5 * np.log(2 * np.pi))
    assert got == pytest.approx(-0.9189, abs=1e-4)


def test_longitudinal_matches_dense_gaussian_oracle(small_cohort, study_design, study_params):
    cohort, latent = small_cohort
    rng = np.random.default_rng(1)
    i = rng.integers(len(cohort))
    rec = cohort[i]
    psi = latent["psi"][i]
    got = longitudinal_loglik(rec, psi, study_params.r_repr, study_design)
    obs = rec.observed_rows
    h = study_design.regression.value(rec.measurement_times[obs], psi[None, :])
    cov = study_params.r_repr.covariance()
    ref = sum(
        stats.multivariate_normal(hj, cov).logpdf(yj)
        for hj, yj in zip(h, rec.measurements[obs])
    )
    assert got == pytest.approx(ref, abs=1e-9)


# -- semi-Markov term -------------------------------------------------------------


def test_semi_markov_absorbing_initial_state():
    g = build_graph(1, [])
    reg = Polynomial(0)
    design = ModelDesign(GammaPlusB(), reg, {})
    params = ModelParams(
        gamma=np.zeros(1),
        q_repr=repr_from_cov(np.eye(1), "diag"),
        r_repr=repr_from_cov(np.eye(1), "ball"),
        alpha={},
        beta={},
    )
    rec = IndividualRecord(
        covariates=np.zeros(1),
        measurement_times=np.zeros(0),
        measurements=np.zeros((0, 1)),
        trajectory=Trajectory(((0.0, 0),)),
        censoring_time=np.inf,
    )
    assert semi_markov_loglik(rec, np.zeros(1), params, design, g) == 0.0


def null_single_edge_model(rate=0.1):
    g = build_graph(2, [(0, 1)])
    reg = Polynomial(0)
    design = ModelDesign(BOnly(), reg, {(0, 1): (ExponentialHazard(rate), ValueLink(reg))})
    params = ModelParams(
        gamma=np.zeros(0),
        q_repr=repr_from_cov(np.eye(1), "diag"),
        r_repr=repr_from_cov(np.eye(1), "ball"),
        alpha={(0, 1): np.zeros(1)},
        beta={(0, 1): np.zeros(1)},
    )
    return g, design, params


def test_semi_markov_single_transition_density():
    g, design, params = null_single_edge_model(0.1)
    rec = IndividualRecord(
        covariates=np.zeros(1),
        measurement_times=np.zeros(0),
        measurements=np.zeros((0, 1)),
        trajectory=Trajectory(((0.0, 0), (1.0, 1))),
        censoring_time=1.0,
    )
    got = semi_markov_loglik(rec, np.zeros(1), params, design, g)
    assert got == pytest.approx(np.log(0.1) - 0.1, abs=1e-12)


def test_semi_markov_pure_censoring_term():
    g, design, params = null_single_edge_model(0.1)
    rec = IndividualRecord(
        covariates=np.zeros(1),
        measurement_times=np.zeros(0),
        measurements=np.zeros((0, 1)),
        trajectory=Trajectory(((0.0, 0),)),
        censoring_time=4.0,
    )
    got = semi_markov_loglik(rec, np.zeros(1), params, design, g)
    assert got == pytest.approx(-0.4, abs=1e-12)


def test_semi_markov_rejects_non_edge():
    g, design, params = null_single_edge_model()
    rec = IndividualRecord(
        covariates=np.zeros(1),
        measurement_times=np.zeros(0),
        measurements=np.zeros((0, 1)),
        trajectory=Trajectory(((0.0, 1), (1.0, 0))),
        censoring_time=2.0,
    )
    with pytest.raises(ValueError, match="not a graph edge"):
        semi_markov_loglik(rec, np.zeros(1), params, design, g)


def test_hazard_scaling_closed_form(small_cohort, study_graph, study_design, study_params):
    # multiplying constant hazards by c shifts the term by N log c - (c-1) * integral
    cohort, latent = small_cohort
    c = 2.5
    base = study_design
    scaled = replace(
        base, edge_specs={e: (ExponentialHazard(c * RATES[e]), link) for e, (_, link) in base.edge_specs.items()}
    )
    params = replace(study_params, alpha={e: np.zeros(2) for e in RATES}, beta={e: np.zeros(1) for e in RATES})
    n_trans = sum(len(r.trajectory) - 1 for r in cohort)
    ll_base = ll_scaled = integral = 0.0
    for i, rec in enumerate(cohort):
        psi = latent["psi"][i]
        ll_base += semi_markov_loglik(rec, psi, params, base, study_graph)
        ll_scaled += semi_markov_loglik(rec, psi, params, scaled, study_graph)
        # with null links the integral term is sum of rate * exposure
        pairs = rec.trajectory.pairs
        for (t0, s0), (t1, _) in zip(pairs, pairs[1:]):
            for s in study_graph.successors(s0):
                integral += RATES[(s0, s)] * (t1 - t0)
        t_last, s_last = pairs[-1]
        for s in study_graph.successors(s_last):
            integral += RATES[(s_last, s)] * (rec.censoring_time - t_last)
    expected = ll_base + n_trans * np.log(c) - (c - 1) * integral
    assert ll_scaled == pytest.approx(expected, abs=1e-9)


# -- aggregation -------------------------------------------------------------------


def nonlinear_model():
    """The study graph with a value link on a shifted tanh, which is not linear
    in psi, and a trainable Weibull baseline on the edge 0 -> 1."""
    reg = ShiftedTanh()
    link = ValueLink(reg)
    design = ModelDesign(
        GammaPlusB(),
        reg,
        {
            (0, 1): (WeibullHazard(1.5, 6.0, trainable=True), link),
            (0, 2): (ExponentialHazard(0.02), link),
            (1, 2): (ExponentialHazard(0.2), link),
        },
    )
    params = ModelParams(
        gamma=np.array([0.8, 4.0, 5.0]),
        q_repr=repr_from_cov(np.diag([0.05, 0.3, 0.5]), "diag"),
        r_repr=repr_from_cov([[0.3]], "ball"),
        alpha={e: np.array([-1.0]) for e in design.edges},
        beta={e: np.array([0.3]) for e in design.edges},
        extra=design.initial_extra(),
    )
    return design, params


@pytest.fixture(params=["study", "nonlinear"])
def engine_case(request, small_cohort, study_design, study_params):
    """(cohort, latent, design, params, linear): the study design, whose
    families the engine evaluates once as linear in psi, and a design it
    evaluates through the family methods at every call."""
    if request.param == "study":
        return small_cohort + (study_design, study_params, True)
    design, params = nonlinear_model()
    cohort, latent = generate_cohort(design, params, n=25, m=6, seed=5)
    return cohort, latent, design, params, False


def reference_loglik(rec, b, params, design, graph):
    """One individual's complete-data log-likelihood from the reference
    functions, which evaluate the families directly."""
    psi = design.effects.psi(params.gamma, rec.covariates, b)
    return (
        prior_loglik(b, params.q_repr)
        + longitudinal_loglik(rec, psi, params.r_repr, design)
        + semi_markov_loglik(rec, psi, params, design, graph)
    )


def test_engine_caches_bases_of_linear_families(engine_case, study_graph):
    cohort, _, design, _, linear = engine_case
    engine = LikelihoodEngine(cohort, design, study_graph)
    bases = [engine.marker] + [rows.basis for _, row_sets in engine.edge_blocks for rows in row_sets]
    assert all(isinstance(basis, _CachedBasis) == linear for basis in bases)


def assert_bound_matches_unbound(engine, params):
    bound = engine.bind(params)
    rng = np.random.default_rng(12)
    subset = [2, 3, 11, 17]
    # one bound value reused across chain counts and across the methods
    for C in (1, 5, 15):
        b = rng.normal(scale=0.5, size=(C, engine.n, 3))
        assert np.array_equal(engine.posterior_logdensity(bound, b), engine.posterior_logdensity(params, b))
        assert np.array_equal(engine.grad_theta(bound, b), engine.grad_theta(params, b))
        assert np.array_equal(engine.grad_theta(bound, b, subset=subset), engine.grad_theta(params, b, subset=subset))
        assert np.array_equal(engine.individual_scores(bound, b), engine.individual_scores(params, b))
        assert np.array_equal(engine.posterior_logdensity(bound, b[0]), engine.posterior_logdensity(params, b[0]))


def test_bound_params_evaluate_as_unbound(engine_case, study_graph):
    cohort, _, design, params, _ = engine_case
    assert_bound_matches_unbound(LikelihoodEngine(cohort, design, study_graph), params)


@pytest.mark.parametrize(
    "hazard",
    [WeibullHazard(1.5, 6.0, trainable=True), PiecewiseConstantHazard([2.0, 5.0], [0.05, 0.1, 0.2], trainable=True)],
    ids=["weibull", "piecewise"],
)
def test_bound_params_with_trainable_baseline_evaluate_as_unbound(
    hazard, study_graph, study_design, study_params
):
    # the study design and truth with a trainable baseline on 0 -> 1, set
    # away from its construction values
    edge = (0, 1)
    design = replace(study_design, edge_specs={**study_design.edge_specs, edge: (hazard, study_design.link(edge))})
    params = replace(study_params, extra=design.initial_extra() + 0.1)
    cohort, _ = generate_cohort(design, params, n=25, m=6, seed=7)
    assert_bound_matches_unbound(LikelihoodEngine(cohort, design, study_graph), params)


def test_bind_validates_like_design(small_cohort, study_design, study_graph, study_params):
    engine = LikelihoodEngine(small_cohort[0], study_design, study_graph)
    bad = replace(study_params, alpha={**study_params.alpha, (0, 1): np.zeros(3)})
    with pytest.raises(ValueError) as want:
        study_design.validate_params(bad)
    with pytest.raises(ValueError) as got:
        engine.bind(bad)
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match="another engine"):
        LikelihoodEngine(small_cohort[0], study_design, study_graph).posterior_logdensity(
            engine.bind(study_params), small_cohort[1]["b"]
        )


def test_complete_loglik_empty_subset(small_cohort, study_design, study_graph, study_params):
    cohort, latent = small_cohort
    got = LikelihoodEngine(cohort, study_design, study_graph).complete_loglik(study_params, latent["b"], subset=[])
    assert got == 0.0


@pytest.mark.parametrize("method", ["complete_loglik", "grad_theta"])
@pytest.mark.parametrize(
    "subset, message",
    [
        ([3, 3], "subset index 3 is repeated"),
        ([-1], "subset index -1 is outside"),
        ([25], "subset index 25 is outside"),
    ],
    ids=["repeated", "negative", "n"],
)
def test_subset_is_distinct_indices_in_range(
    small_cohort, study_design, study_graph, study_params, method, subset, message
):
    # a repeated individual would count twice in the value but once in the
    # gradient, and -1 would mean the last individual
    cohort, latent = small_cohort
    engine = LikelihoodEngine(cohort, study_design, study_graph)
    with pytest.raises(ValueError, match=message):
        getattr(engine, method)(study_params, latent["b"], subset=subset)


def test_complete_loglik_matches_per_individual_sum(engine_case, study_graph):
    cohort, latent, design, params, _ = engine_case
    engine = LikelihoodEngine(cohort, design, study_graph)
    total = engine.complete_loglik(params, latent["b"])
    ref = sum(
        reference_loglik(rec, latent["b"][i], params, design, study_graph) for i, rec in enumerate(cohort)
    )
    assert total == pytest.approx(ref, abs=1e-9)
    single = engine.complete_loglik(params, latent["b"], subset=[3])
    ref3 = reference_loglik(cohort[3], latent["b"][3], params, design, study_graph)
    assert single == pytest.approx(ref3, abs=1e-9)


def test_additivity_over_partition(small_cohort, study_design, study_graph, study_params):
    cohort, latent = small_cohort
    engine = LikelihoodEngine(cohort, study_design, study_graph)
    full = engine.complete_loglik(study_params, latent["b"])
    idx = np.arange(len(cohort))
    part = sum(engine.complete_loglik(study_params, latent["b"], subset=chunk) for chunk in np.array_split(idx, 4))
    assert part == pytest.approx(full, abs=1e-9)


def test_finite_value_at_truth(small_cohort, study_design, study_graph, study_params):
    cohort, latent = small_cohort
    value = LikelihoodEngine(cohort, study_design, study_graph).complete_loglik(study_params, latent["b"])
    assert np.isfinite(value)


# -- gradients -----------------------------------------------------------------------


def fd_gradient(engine, params, b, subset=None):
    theta = flatten(params)
    out = np.zeros_like(theta)
    for j in range(theta.size):
        h = 1e-5 * max(1.0, abs(theta[j]))
        vp, vm = theta.copy(), theta.copy()
        vp[j] += h
        vm[j] -= h
        out[j] = (
            engine.complete_loglik(unflatten(vp, params), b, subset=subset)
            - engine.complete_loglik(unflatten(vm, params), b, subset=subset)
        ) / (2 * h)
    return out


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def test_prior_gradient_wrt_gamma_is_zero(small_cohort, study_design, study_graph, study_params):
    # at Q = I and b = 0 the prior contributes nothing to the gamma block
    cohort, _ = small_cohort
    no_data = Cohort(
        tuple(
            IndividualRecord(
                covariates=r.covariates,
                measurement_times=np.zeros(0),
                measurements=np.zeros((0, 1)),
                trajectory=Trajectory(((0.0, 0),)),
                censoring_time=0.0,
            )
            for r in cohort
        )
    )
    engine = LikelihoodEngine(no_data, study_design, study_graph)
    params = replace(study_params, q_repr=repr_from_cov(np.eye(3), "diag"))
    grad = engine.grad_theta(params, np.zeros((len(cohort), 3)))
    np.testing.assert_allclose(grad[:3], 0.0, atol=1e-12)


def test_gradient_matches_finite_differences(engine_case, study_graph):
    cohort, _, design, params0, _ = engine_case
    engine = LikelihoodEngine(cohort, design, study_graph)
    rng = np.random.default_rng(2)
    theta0 = flatten(params0)
    for _ in range(6):
        theta = theta0 + rng.normal(scale=0.25, size=theta0.size)
        params = unflatten(theta, params0)
        b = rng.normal(scale=0.6, size=(len(cohort), 3))
        ana = engine.grad_theta(params, b)
        fd = fd_gradient(engine, params, b)
        assert rel_err(ana, fd).max() < 1e-4


def test_individual_scores_match_reference_finite_differences(engine_case, study_graph):
    # per-individual scores against central differences of the reference
    # per-individual log-likelihood, which calls the families directly
    cohort, latent, design, params, _ = engine_case
    engine = LikelihoodEngine(cohort, design, study_graph)
    rng = np.random.default_rng(6)
    b = latent["b"][None] + rng.normal(scale=0.1, size=(2,) + latent["b"].shape)
    scores = engine.individual_scores(params, b)
    assert scores.shape == (2, len(cohort), flatten(params).size)
    theta = flatten(params)
    for c, i in [(0, 0), (1, 3), (0, 11), (1, 20)]:
        fd = np.zeros_like(theta)
        for j in range(theta.size):
            h = 1e-5 * max(1.0, abs(theta[j]))
            vp, vm = theta.copy(), theta.copy()
            vp[j] += h
            vm[j] -= h
            fd[j] = (
                reference_loglik(cohort[i], b[c, i], unflatten(vp, params), design, study_graph)
                - reference_loglik(cohort[i], b[c, i], unflatten(vm, params), design, study_graph)
            ) / (2 * h)
        assert rel_err(scores[c, i], fd).max() < 1e-4


def test_gradient_with_subset_matches_finite_differences(
    small_cohort, study_design, study_graph, study_params
):
    cohort, latent = small_cohort
    engine = LikelihoodEngine(cohort, study_design, study_graph)
    rng = np.random.default_rng(3)
    subset = np.array([0, 4, 7, 11])
    b = rng.normal(scale=0.5, size=(len(cohort), 3))
    ana = engine.grad_theta(study_params, b, subset=subset)
    fd = fd_gradient(engine, study_params, b, subset=subset)
    assert rel_err(ana, fd).max() < 1e-4


def test_shared_slot_gradient_accumulates(small_cohort, study_graph, study_design, study_params):
    cohort, latent = small_cohort
    edges = study_graph.sorted_edges()
    shared = replace(
        study_params,
        alpha={e: np.array([-0.3, -1.0]) for e in edges},
        beta={e: np.array([-0.5]) for e in edges},
        sharing=Sharing(beta=(tuple(edges),)),
    )
    engine = LikelihoodEngine(cohort, study_design, study_graph)
    rng = np.random.default_rng(4)
    b = rng.normal(scale=0.5, size=(len(cohort), 3))
    ana = engine.grad_theta(shared, b)
    # finite differences on the flattened space perturb all tied slots at once
    fd = fd_gradient(engine, shared, b)
    assert rel_err(ana, fd).max() < 1e-4
    # the shared coordinate equals the sum of the per-edge untied gradients
    untied = replace(shared, sharing=Sharing())
    engine2 = LikelihoodEngine(cohort, study_design, study_graph)
    g_untied = engine2.grad_theta(untied, b)
    layout = untied.layout()
    per_edge = sum(g_untied[layout.edge_slice("beta", e)] for e in edges)
    shared_slice = shared.layout().edge_slice("beta", edges[0])
    np.testing.assert_allclose(ana[shared_slice], per_edge, rtol=1e-9, atol=1e-9)


def test_linear_gaussian_posterior_mode_matches_conjugate_oracle():
    # linear-in-b regression, no survival data: the complete log-likelihood in
    # b is an exact quadratic with a known maximizer
    g = build_graph(1, [])
    reg = Polynomial(1)
    design = ModelDesign(BOnly(), reg, {})
    rng = np.random.default_rng(8)
    t = np.sort(rng.uniform(0, 10, 12))
    q_cov = np.diag([0.7, 0.4])
    r_var = 0.5
    b_true = rng.multivariate_normal(np.zeros(2), q_cov)
    y = (b_true[0] + b_true[1] * t + rng.normal(scale=np.sqrt(r_var), size=t.size))[:, None]
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

    # conjugate oracle: posterior precision and mean of b given y
    a_mat = np.stack([np.ones_like(t), t], axis=1)
    prec = np.linalg.inv(q_cov) + a_mat.T @ a_mat / r_var
    mean = np.linalg.solve(prec, a_mat.T @ y[:, 0] / r_var)

    # the log-likelihood is exactly quadratic in b, so central differences
    # recover its gradient and Hessian exactly; solve for the maximizer
    f = lambda b: engine.complete_loglik(params, np.asarray(b)[None, :])  # noqa: E731
    h = 0.5
    e = np.eye(2) * h
    grad0 = np.array([(f(e[i]) - f(-e[i])) / (2 * h) for i in range(2)])
    hess = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            hess[i, j] = (
                f(e[i] + e[j]) - f(e[i] - e[j]) - f(-e[i] + e[j]) + f(-e[i] - e[j])
            ) / (4 * h * h)
    maximizer = -np.linalg.solve(hess, grad0)
    np.testing.assert_allclose(maximizer, mean, atol=1e-8)


def test_locate_nonfinite_reports_individual_and_term(
    small_cohort, study_design, study_graph, study_params
):
    cohort, latent = small_cohort
    engine = LikelihoodEngine(cohort, study_design, study_graph)
    b = latent["b"].copy()
    b[7] = np.nan
    terms = engine.loglik_terms(study_params, b)
    message = locate_nonfinite(terms)
    assert "individual 7" in message
    assert locate_nonfinite(engine.loglik_terms(study_params, latent["b"])) is None


def test_engine_rejects_infinite_censoring_with_successors(study_design, study_graph):
    rec = IndividualRecord(
        covariates=np.zeros(1),
        measurement_times=np.zeros(0),
        measurements=np.zeros((0, 1)),
        trajectory=Trajectory(((0.0, 0),)),
        censoring_time=np.inf,
    )
    with pytest.raises(ValueError, match="infinite censoring"):
        LikelihoodEngine(Cohort((rec,)), study_design, study_graph)
