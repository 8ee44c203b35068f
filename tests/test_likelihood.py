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
    CustomRegression,
    EmptyLink,
    ExponentialDecay,
    GammaPlusB,
    GammaXPlusB,
    Polynomial,
    ShiftedTanh,
    TransformStack,
    ValueLink,
)
from msjoint.hazards import ExponentialHazard, PiecewiseConstantHazard, WeibullHazard
from msjoint.likelihood import _CachedBasis, _ResidualMarker, _row_index, _StatsMarker, locate_nonfinite
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


def truncated_study_record(small_cohort, event: bool):
    """One study record truncated after its first transition (event and risk
    rows) or before it (risk rows only)."""
    cohort, latent = small_cohort
    for i, rec in enumerate(cohort):
        pairs = rec.trajectory.pairs
        if len(pairs) > 1:
            t1 = pairs[1][0]
            t = 0.5 * (t1 + (pairs[2][0] if len(pairs) > 2 else rec.censoring_time)) if event else 0.5 * t1
            return Cohort((rec.truncated(t),)), latent["b"][i:i + 1]
    raise AssertionError("no record with a transition")


def mixed_model(study_design, study_params):
    """The study design with a value link on a shifted tanh, which is not
    linear in psi, on the edge 1 -> 2: one edge of the engine's stacked blocks
    goes through the family methods, the other two through cached bases."""
    edge = (1, 2)
    hazard, _ = study_design.edge_specs[edge]
    design = replace(study_design, edge_specs={**study_design.edge_specs, edge: (hazard, ValueLink(ShiftedTanh()))})
    return design, replace(study_params, alpha={**study_params.alpha, edge: np.array([0.5])})


def trainable_model(study_design, study_params, hazard=WeibullHazard(1.5, 6.0, trainable=True)):
    """The study design and truth with a trainable baseline on 0 -> 1, set
    away from its construction values."""
    edge = (0, 1)
    design = replace(study_design, edge_specs={**study_design.edge_specs, edge: (hazard, study_design.link(edge))})
    return design, replace(study_params, extra=design.initial_extra() + 0.1)


def gamma_x_model(study_design, study_params):
    """The study design with psi = Gamma x + b, whose gamma Jacobian depends
    on the covariate, and a full prior precision with off-diagonal terms."""
    design = replace(study_design, effects=GammaXPlusB(3, 1))
    cov = np.array([[0.6, 0.1, 0.05], [0.1, 0.2, -0.03], [0.05, -0.03, 0.3]])
    return design, replace(study_params, q_repr=repr_from_cov(cov, "full"))


@pytest.mark.parametrize("case", ["truncated_event", "truncated_state0", "mixed", "trainable"])
def test_stacked_terms_match_reference_terms(case, small_cohort, study_design, study_params, study_graph):
    design, params = study_design, study_params
    if case.startswith("truncated"):
        cohort, b0 = truncated_study_record(small_cohort, event=case == "truncated_event")
    else:
        design, params = (mixed_model if case == "mixed" else trainable_model)(study_design, study_params)
        cohort, latent = generate_cohort(design, params, n=25, m=6, seed=7)
        b0 = latent["b"]
    engine = LikelihoodEngine(cohort, design, study_graph)
    assert [block.event for block in engine.blocks] == ([False] if case == "truncated_state0" else [True, False])
    b = b0 + np.random.default_rng(3).normal(scale=0.3, size=(3,) + b0.shape)
    terms = engine.loglik_terms(params, b)
    for c in range(b.shape[0]):
        for i, rec in enumerate(cohort):
            psi = design.effects.psi(params.gamma, rec.covariates, b[c, i])
            want = (
                prior_loglik(b[c, i], params.q_repr),
                longitudinal_loglik(rec, psi, params.r_repr, design),
                semi_markov_loglik(rec, psi, params, design, study_graph),
            )
            got = (terms.prior[c, i], terms.longitudinal[c, i], terms.semi_markov[c, i])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def b_only_model(study_design, study_params):
    """The study design with psi = b: no population parameters."""
    return replace(study_design, effects=BOnly()), replace(study_params, gamma=np.zeros(0))


def transform_model(study_design, study_params):
    """The study design with psi_2 = exp(gamma_2 + b_2), not additive in b."""
    design = replace(study_design, effects=TransformStack(("identity", "exp", "identity")))
    return design, replace(study_params, gamma=np.array([2.5, np.log(1.3), 0.2]))


def empty_link_model(study_design, study_params):
    """The study design with an empty link on the edge 0 -> 2: its event rows
    have a log intensity that does not depend on psi."""
    edge = (0, 2)
    hazard, _ = study_design.edge_specs[edge]
    design = replace(study_design, edge_specs={**study_design.edge_specs, edge: (hazard, EmptyLink())})
    return design, replace(study_params, alpha={**study_params.alpha, edge: np.zeros(0)})


@pytest.mark.parametrize("model", [None, gamma_x_model, b_only_model, trainable_model, empty_link_model],
                         ids=["study", "gamma_x", "b_only", "trainable", "empty_link"])
@pytest.mark.parametrize("case", ["truncated_event", "truncated_state0", "cohort"])
def test_folded_logdensity_matches_three_terms(model, case, study_design, study_params, study_graph):
    design, params = (study_design, study_params) if model is None else model(study_design, study_params)
    cohort, latent = generate_cohort(design, params, n=25, m=6, seed=7)
    b0 = latent["b"]
    if case != "cohort":
        cohort, b0 = truncated_study_record((cohort, latent), event=case == "truncated_event")
    engine = LikelihoodEngine(cohort, design, study_graph)
    assert engine.folds
    assert [block.event for block in engine.blocks] == ([False] if case == "truncated_state0" else [True, False])
    bound = engine.bind(params)
    for C in (1, 5):
        b = b0 + np.random.default_rng(C).normal(scale=0.3, size=(C,) + b0.shape)
        np.testing.assert_allclose(
            engine.posterior_logdensity(bound, b), engine.loglik_terms(bound, b).total, rtol=1e-12, atol=0
        )
    np.testing.assert_allclose(
        engine.posterior_logdensity(bound, b0), engine.loglik_terms(bound, b0).total, rtol=1e-12, atol=0
    )
    # the fold's Gaussian: its quadratic is flat at the mode, and L L^T is
    # the inverse of H_ss = -2 A_ss
    shift, _, A = bound.fold
    mode, L = bound.gaussian
    s = mode.shape[1]
    z = np.concatenate([mode + shift[:, 0], np.ones((len(cohort), 1))], axis=1)
    np.testing.assert_allclose(np.einsum("nij,nj->ni", A, z)[:, :s], 0.0, atol=1e-9)
    identity = np.broadcast_to(np.eye(s), L.shape)
    np.testing.assert_allclose(L @ L.transpose(0, 2, 1) @ (-2.0 * A[:, :s, :s]), identity, atol=1e-9)


@pytest.mark.parametrize("model", [mixed_model, transform_model, None], ids=["mixed", "transform", "nonlinear"])
def test_logdensity_keeps_three_terms_outside_the_fold(model, study_design, study_params, study_graph):
    """A family-basis event part, a non-additive effects map and a marker
    that is not linear in psi each keep the three-term sum."""
    design, params = nonlinear_model() if model is None else model(study_design, study_params)
    cohort, latent = generate_cohort(design, params, n=25, m=6, seed=7)
    engine = LikelihoodEngine(cohort, design, study_graph)
    assert not engine.folds
    b = latent["b"] + np.random.default_rng(3).normal(scale=0.3, size=(5,) + latent["b"].shape)
    assert np.array_equal(engine.posterior_logdensity(params, b), engine.loglik_terms(params, b).total)


def test_engine_caches_bases_of_linear_families(engine_case, study_graph):
    cohort, _, design, _, linear = engine_case
    engine = LikelihoodEngine(cohort, design, study_graph)
    assert isinstance(engine.marker, _StatsMarker) == linear
    bases = [rows.basis for block in engine.blocks for _, rows in block.parts]
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
    design, params = trainable_model(study_design, study_params, hazard)
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


@pytest.mark.parametrize("method", ["posterior_logdensity", "complete_loglik", "grad_theta", "individual_scores"])
@pytest.mark.parametrize(
    "shape", [(1, 3), (26, 3), (25, 2), (0, 25, 3)], ids=["one_row", "n_plus_1", "q_minus_1", "no_chain"]
)
def test_engine_rejects_b_of_wrong_shape(method, shape, small_cohort, study_design, study_graph, study_params):
    # a (1, q) b would otherwise broadcast over every individual, and no chain
    # would average the gradient over zero chains
    engine = LikelihoodEngine(small_cohort[0], study_design, study_graph)
    message = r"b must have shape \(n, q\) or \(chains, n, q\) with n = 25, q = 3 and chains >= 1"
    with pytest.raises(ValueError, match=message):
        getattr(engine, method)(study_params, np.zeros(shape))


def test_complete_loglik_empty_subset(small_cohort, study_design, study_graph, study_params):
    cohort, latent = small_cohort
    engine = LikelihoodEngine(cohort, study_design, study_graph)
    assert engine.complete_loglik(study_params, latent["b"], subset=[]) == 0.0
    grad = engine.grad_theta(study_params, latent["b"], subset=[])
    assert grad.shape == (study_params.layout().size,) and not grad.any()


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


@pytest.mark.parametrize(
    "model", [None, mixed_model, trainable_model], ids=["study", "mixed_model", "trainable_model"]
)
def test_gradient_with_subset_matches_finite_differences(
    model, small_cohort, study_design, study_graph, study_params
):
    # a subset takes the rows of every block part: cached-basis spans, the
    # family-basis span of the mixed model and the trainable hazard's rows
    design, params = study_design, study_params
    cohort, _ = small_cohort
    if model is not None:
        design, params = model(study_design, study_params)
        cohort, _ = generate_cohort(design, params, n=25, m=6, seed=7)
    engine = LikelihoodEngine(cohort, design, study_graph)
    rng = np.random.default_rng(3)
    subset = np.array([0, 4, 7, 11])
    b = rng.normal(scale=0.5, size=(len(cohort), 3))
    ana = engine.grad_theta(params, b, subset=subset)
    fd = fd_gradient(engine, params, b, subset=subset)
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


def two_marker_regression():
    """h(t, psi) = (psi0 + psi1 t, psi2 + psi3 t + psi0 t / 2): d = 2 outputs
    that share psi0, declared linear in psi through a custom family."""

    def jac(t, psi):
        t = np.broadcast_to(np.asarray(t, dtype=float), np.broadcast_shapes(np.shape(t), psi.shape[:-1]))
        one, zero = np.ones_like(t), np.zeros_like(t)
        return np.stack([np.stack([one, t, zero, zero], -1), np.stack([0.5 * t, zero, one, t], -1)], -2)

    reg = CustomRegression(lambda t, psi: (jac(t, psi) @ psi[..., None])[..., 0], jac, dim=2, n_psi=4)
    reg.linear_in_psi = True
    return reg


def marker_model(case):
    """(cohort, design, params, graph) of a marker-only model (one absorbing
    state) whose cohort holds a record with six rows, one with a single row
    (fewer than s, so its sum of J (x) J is singular), one with none and one
    with two of six rows unobserved. ``offset`` puts the marker near 1e3 with
    a noise variance near 1e-2, where expanding the squares about psi = 0
    would lose about 1e-8."""
    spread = 0.02 if case == "offset" else 0.4  # residuals of a few noise SDs
    if case == "two_markers":
        reg, gamma, r_cov = two_marker_regression(), np.array([0.5, 0.3, -1.0, 0.2]), [[0.6, 0.2], [0.2, 0.4]]
    else:
        reg, gamma, r_cov = Polynomial(1), np.array([1.0, 0.4]), [[0.5]]
        if case == "offset":
            gamma, r_cov = np.array([1e3, 0.4]), [[1.2e-2]]
    design = ModelDesign(GammaPlusB(), reg, {})
    s, d = gamma.size, reg.dim
    params = ModelParams(
        gamma=gamma,
        q_repr=repr_from_cov(0.2 * np.eye(s), "diag"),
        r_repr=repr_from_cov(r_cov, "full" if d > 1 else "ball"),
        alpha={},
        beta={},
    )
    rng = np.random.default_rng(21)
    records = []
    for rows in (6, 1, 0, 6):
        t = np.sort(rng.uniform(0.0, 10.0, rows))
        psi = gamma + rng.normal(scale=spread, size=s)
        y = reg.value(t, psi[None, :]) + rng.multivariate_normal(np.zeros(d), r_cov, size=rows)
        records.append(IndividualRecord(np.zeros(1), t, y.reshape(rows, d), Trajectory(((0.0, 0),))))
    records[3].measurements[[1, 4]] = np.nan
    return Cohort(tuple(records)), design, params, build_graph(1, [])


@pytest.mark.parametrize("case", ["polynomial", "two_markers", "offset"])
def test_marker_statistics_match_reference(case):
    cohort, design, params0, graph = marker_model(case)
    engine = LikelihoodEngine(cohort, design, graph)
    assert isinstance(engine.marker, _StatsMarker)
    rng = np.random.default_rng(22)
    theta0 = flatten(params0)
    scale = 0.02 if case == "offset" else 0.3
    for _ in range(3):
        params = unflatten(theta0 + rng.normal(scale=scale, size=theta0.size), params0)
        b = rng.normal(scale=scale, size=(3, len(cohort), params.q_repr.dim))
        terms = engine.loglik_terms(params, b)
        for c in range(b.shape[0]):
            for i, rec in enumerate(cohort):
                psi = design.effects.psi(params.gamma, rec.covariates, b[c, i])
                want = longitudinal_loglik(rec, psi, params.r_repr, design)
                assert abs(terms.longitudinal[c, i] - want) < 1e-10
        assert rel_err(engine.grad_theta(params, b[0]), fd_gradient(engine, params, b[0])).max() < 1e-4


GRADIENT_MODELS = {
    "study": None,
    "mixed_model": mixed_model,
    "trainable_model": trainable_model,
    "gamma_x_model": gamma_x_model,
    "b_only_model": b_only_model,
    "transform_model": transform_model,
    "nonlinear_model": lambda study_design, study_params: nonlinear_model(),
}


@pytest.mark.parametrize(
    "model, C",
    [(model, C) for model in GRADIENT_MODELS.values() for C in (2, 1, 15)],
    ids=[name if C == 2 else f"{name}-C{C}" for name in GRADIENT_MODELS for C in (2, 1, 15)],
)
def test_gradient_sums_individual_scores(model, C, small_cohort, study_design, study_graph, study_params):
    # the gradient contracts rows straight into theta and the scores sum them
    # per individual: family-basis spans, dlog_dparams rows, an x-dependent
    # jac_gamma and a summed full-Q prior term must agree between the two,
    # both where an additive map lets the gradient sum the psi-score over
    # the chains (cached and family rows, a residual marker) and where the
    # transform stack keeps it per chain
    design, params = study_design, study_params
    cohort, latent = small_cohort
    if model is not None:
        design, params = model(study_design, study_params)
        cohort, latent = generate_cohort(design, params, n=25, m=6, seed=7)
    records = list(cohort)
    records[3] = replace(records[3], measurement_times=np.zeros(0), measurements=np.zeros((0, 1)))
    engine = LikelihoodEngine(Cohort(tuple(records)), design, study_graph)
    b = latent["b"] + np.random.default_rng(9).normal(scale=0.3, size=(C,) + latent["b"].shape)
    scores = engine.individual_scores(params, b)
    # the whole-cohort gradient caches its psi-score row index at its first
    # call and reads it at the second; the subsets build their own
    for subset in (None, [3], [0, 3, 7, 11], None, np.arange(len(cohort))):
        grad = engine.grad_theta(params, b, subset=subset)
        want = scores[:, slice(None) if subset is None else subset].sum(axis=1).mean(axis=0)
        np.testing.assert_allclose(grad, want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("model", [None, mixed_model], ids=["study", "mixed_model"])
def test_results_keep_their_values_after_later_calls(model, small_cohort, study_design, study_graph, study_params):
    # the engine writes risk-row weights into one buffer that it reuses from
    # call to call, so no result may be a view of it
    design, params = study_design, study_params
    cohort, latent = small_cohort
    if model is not None:
        design, params = model(study_design, study_params)
        cohort, latent = generate_cohort(design, params, n=25, m=6, seed=7)
    engine = LikelihoodEngine(cohort, design, study_graph)
    bound = engine.bind(params)
    rng = np.random.default_rng(4)
    calls = [
        lambda b: engine.grad_theta(bound, b),
        lambda b: engine.grad_theta(bound, b[0]),
        lambda b: engine.grad_theta(bound, b, subset=[1, 4]),
        lambda b: engine.individual_scores(bound, b),
        lambda b: engine.posterior_logdensity(bound, b),
        lambda b: engine.loglik_terms(bound, b).semi_markov,
        lambda b: engine.loglik_terms(bound, b).total,
    ]
    b = latent["b"] + rng.normal(scale=0.3, size=(3,) + latent["b"].shape)
    results = [call(b) for call in calls]
    kept = [r.copy() for r in results]
    # other b at the same chain count, then at more chains, which grows the buffer
    for C in (3, 6):
        other = latent["b"] + rng.normal(scale=0.3, size=(C,) + latent["b"].shape)
        for call in calls:
            call(other)
    for result, want in zip(results, kept):
        np.testing.assert_array_equal(result, want)


@pytest.mark.parametrize(
    "model", [None, mixed_model, trainable_model], ids=["study", "mixed_model", "trainable_model"]
)
def test_block_index_is_a_view_of_the_row_index(model, small_cohort, study_design, study_graph, study_params):
    design, params = study_design, study_params
    cohort, _ = small_cohort
    if model is not None:
        design, params = model(study_design, study_params)
        cohort, _ = generate_cohort(design, params, n=25, m=6, seed=7)
    engine = LikelihoodEngine(cohort, design, study_graph)
    layout = params.layout()
    for block in engine.blocks:
        for edge, rows in block.parts:
            spans = (layout.edge_slice("alpha", edge), layout.edge_slice("beta", edge), design.extra_slice(edge))
            columns = sum(s.stop - s.start for s in spans if s is not None) + 3  # + psi
            for C, m in ((1, 1), (5, 3), (15, columns)):
                index = block.index(C, m, rows.span)
                np.testing.assert_array_equal(index, _row_index(rows.idx, engine.n, C, m))
                assert np.shares_memory(index, block._index[C, m])



# -- engines taken for some individuals ---------------------------------------


def decay_model():
    """The study graph on an exponential-decay marker with value links, both
    evaluated through the family methods: the marker forms its residuals at
    every call and no edge has a cached basis."""
    reg = ExponentialDecay()
    design = ModelDesign(
        GammaPlusB(),
        reg,
        {e: (ExponentialHazard(rate), ValueLink(reg)) for e, rate in (((0, 1), 0.1), ((0, 2), 0.05), ((1, 2), 0.2))},
    )
    params = ModelParams(
        gamma=np.array([1.0, 0.3]),
        q_repr=repr_from_cov(np.diag([0.2, 0.01]), "diag"),
        r_repr=repr_from_cov([[0.3]], "ball"),
        alpha={e: np.array([-0.5]) for e in design.edges},
        beta={e: np.array([0.2]) for e in design.edges},
    )
    return design, params


def assert_taken_matches_built(engine, idx, cohort, design, params, graph):
    """The engine taken for idx evaluates as one built from their records, up
    to rounding: the marker centres are pooled over another cohort."""
    sub = engine._take(idx)
    built = LikelihoodEngine(Cohort(tuple(cohort[i] for i in idx)), design, graph)
    b = np.random.default_rng(4).normal(scale=0.3, size=(3, len(idx), params.q_repr.dim))

    def close(actual, expected):
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())

    close(sub.posterior_logdensity(params, b), built.posterior_logdensity(params, b))
    terms, expected = sub.loglik_terms(params, b), built.loglik_terms(params, b)
    for name in ("prior", "longitudinal", "semi_markov"):
        close(getattr(terms, name), getattr(expected, name))
    close(sub.individual_scores(params, b), built.individual_scores(params, b))
    close(sub.grad_theta(params, b), built.grad_theta(params, b))
    return sub


@pytest.mark.parametrize("case", ["study", "decay"])
def test_taken_engine_matches_engine_built_from_its_records(case, small_cohort, study_design, study_params, study_graph):
    design, params = study_design, study_params
    cohort, _ = small_cohort
    if case == "decay":
        design, params = decay_model()
        cohort, _ = generate_cohort(design, params, n=25, m=6, seed=7)
    engine = LikelihoodEngine(cohort, design, study_graph)
    assert isinstance(engine.marker, _StatsMarker if case == "study" else _ResidualMarker)
    sub = assert_taken_matches_built(engine, np.array([1, 2, 8, 13, 20]), cohort, design, params, study_graph)
    assert sub.n == 5 and sub.folds == engine.folds


def test_taken_engine_drops_edges_without_rows(small_cohort, study_design, study_params, study_graph):
    # absorbed 0 -> 2: no event rows on 0 -> 1, and no rows at all on 1 -> 2
    cohort, _ = small_cohort
    idx = np.array([i for i, rec in enumerate(cohort) if [s for _, s in rec.trajectory.pairs] == [0, 2]])
    assert idx.size >= 2
    engine = LikelihoodEngine(cohort, study_design, study_graph)
    sub = assert_taken_matches_built(engine, idx, cohort, study_design, study_params, study_graph)
    assert [[edge for edge, _ in block.parts] for block in sub.blocks] == [[(0, 2)], [(0, 1), (0, 2)]]


def test_taking_every_individual_gives_the_engine_and_a_take_keeps_its_type(
    small_cohort, study_design, study_params, study_graph
):
    class Subclass(LikelihoodEngine):
        def posterior_logdensity(self, params, b):
            return super().posterior_logdensity(params, b) + 1.0

    cohort, latent = small_cohort
    engine = Subclass(cohort, study_design, study_graph)
    assert engine._take(np.arange(len(cohort))) is engine
    sub = engine._take(np.array([0, 3]))
    assert type(sub) is Subclass
    b = latent["b"][[0, 3]]
    np.testing.assert_array_equal(
        sub.posterior_logdensity(study_params, b),
        LikelihoodEngine.posterior_logdensity(sub, study_params, b) + 1.0,
    )

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


def test_engine_rejects_an_effects_map_of_another_covariate_count(small_cohort, study_design, study_graph):
    cohort, _ = small_cohort
    design = replace(study_design, effects=GammaXPlusB(3, 2))
    with pytest.raises(ValueError, match="the effects map takes 2 covariates, but the cohort has 1"):
        LikelihoodEngine(cohort, design, study_graph)
    LikelihoodEngine(cohort, replace(study_design, effects=GammaXPlusB(3, 1)), study_graph)
