from dataclasses import replace

import numpy as np
import pytest

import msjoint.design as design_mod
from msjoint import (
    ModelDesign,
    ModelParams,
    build_graph,
    cumulative_intensity,
    gauss_legendre,
    repr_from_cov,
    transition_log_intensity,
)
from msjoint.design import (
    check_effects_family,
    check_hazard_family,
    check_link_family,
    check_regression_family,
)
from msjoint.families import (
    BOnly,
    CumulativeLink,
    EmptyLink,
    ExponentialDecay,
    GammaPlusB,
    GammaXPlusB,
    PiecewiseAffine,
    Polynomial,
    ShiftedTanh,
    SlopeLink,
    TransformStack,
    ValueLink,
    ValueSlopeLink,
)
from msjoint.hazards import ExponentialHazard, PiecewiseConstantHazard, WeibullHazard


# -- quadrature ---------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 8, 32])
def test_quadrature_integrates_monomials_exactly(n):
    nodes, weights = gauss_legendre(n)
    for degree in range(2 * n):
        approx = np.sum(weights * nodes**degree)
        exact = (1 - (-1) ** (degree + 1)) / (degree + 1)
        assert abs(approx - exact) <= 1e-12 * max(1.0, abs(exact)), (n, degree)


def test_quadrature_weights_positive():
    for n in (2, 8, 32):
        _, weights = gauss_legendre(n)
        assert (weights > 0).all()


def test_quadrature_cache_returns_same_arrays(monkeypatch):
    design_mod._QUAD_CACHE.clear()
    calls = {"n": 0}
    true_leggauss = np.polynomial.legendre.leggauss

    def counting(n):
        calls["n"] += 1
        return true_leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    a = gauss_legendre(16)
    b = gauss_legendre(16)
    assert calls["n"] == 1  # computed at most once per n
    assert a[0] is b[0] and a[1] is b[1]
    assert not a[0].flags.writeable


# -- effects families ----------------------------------------------------------


def test_gamma_plus_b_examples():
    fam = GammaPlusB()
    gamma = np.array([2.5, -1.3, 0.2])
    np.testing.assert_allclose(fam.psi(gamma, None, np.zeros(3)), gamma)


def test_transform_stack_sigmoid_exp_identity():
    fam = TransformStack(("sigmoid", "exp", "identity"))
    psi = fam.psi(np.zeros(3), None, np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(psi, [0.5, 1.0, 1.0])


def test_gamma_x_plus_b_zero_matrix():
    fam = GammaXPlusB(n_effects=2, n_covariates=1)
    psi = fam.psi(np.zeros(2), np.array([[3.0]]), np.array([[1.0, 2.0]]))
    np.testing.assert_allclose(psi, [[1.0, 2.0]])


@pytest.mark.parametrize(
    "family",
    [GammaPlusB(), GammaXPlusB(3, 2), TransformStack(("sigmoid", "exp", "identity")), BOnly()],
)
def test_effects_families_pass_self_check(family):
    k = getattr(family, "k", 1)
    check_effects_family(family, n_covariates=k)


# -- regression families --------------------------------------------------------


def test_piecewise_affine_reference_points():
    fam = PiecewiseAffine(6.0)
    psi = np.array([1.0, 2.0, -1.0])
    assert fam.value(8.0, psi)[0] == pytest.approx(1 + 2 * 8 + (-1 - 2) * (8 - 6))
    assert fam.value(8.0, psi)[0] == pytest.approx(11.0)
    # the indicator is strict: t = tau uses the pre-break slope
    assert fam.value(6.0, psi)[0] == pytest.approx(13.0)


def test_shifted_tanh_at_origin():
    fam = ShiftedTanh()
    psi = np.array([1.0, 1.0, 0.0])
    assert fam.value(0.0, psi)[0] == pytest.approx(0.0)


@pytest.mark.parametrize(
    "family",
    [Polynomial(2), Polynomial(0), PiecewiseAffine(6.0), ExponentialDecay(), ShiftedTanh()],
)
def test_regression_families_pass_self_check(family):
    check_regression_family(family)


# -- link families ---------------------------------------------------------------


def test_value_slope_link_reference_point():
    link = ValueSlopeLink(PiecewiseAffine(6.0))
    psi = np.array([1.0, 2.0, -1.0])
    np.testing.assert_allclose(link.value(8.0, None, psi), [11.0, -1.0])


def test_slope_of_constant_family_is_zero():
    link = SlopeLink(Polynomial(0))
    np.testing.assert_allclose(link.value(3.0, None, np.array([4.0])), [0.0])


def test_cumulative_link_linear_integrand():
    # integral of h(t) = t over [0, 2] is 2 (exact at degree 1)
    link = CumulativeLink(Polynomial(1), lower=0.0)
    psi = np.array([0.0, 1.0])
    np.testing.assert_allclose(link.value(2.0, None, psi), [2.0], atol=1e-12)


def test_cumulative_link_requires_finite_lower_bound():
    with pytest.raises(ValueError, match="finite lower bound"):
        CumulativeLink(Polynomial(1), lower=-np.inf)


@pytest.mark.parametrize(
    "link",
    [
        ValueLink(PiecewiseAffine(6.0)),
        SlopeLink(PiecewiseAffine(6.0)),
        ValueSlopeLink(ExponentialDecay()),
        CumulativeLink(Polynomial(2)),
    ],
)
def test_link_families_pass_self_check(link):
    check_link_family(link)


# -- hazards -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "hazard",
    [
        ExponentialHazard(0.1),
        WeibullHazard(2.0, 1.5),
        WeibullHazard(0.8, 3.0, clock="forward"),
        PiecewiseConstantHazard([1.0, 4.0], [0.1, 0.5, 0.2]),
    ],
)
def test_hazards_pass_self_check(hazard):
    check_hazard_family(hazard)


def test_hazard_rejects_bad_construction():
    with pytest.raises(ValueError):
        ExponentialHazard(-1.0)
    with pytest.raises(ValueError):
        WeibullHazard(2.0, 1.0, clock="sideways")
    with pytest.raises(ValueError):
        PiecewiseConstantHazard([3.0, 1.0], [0.1, 0.2, 0.3])


# -- design-level operations ----------------------------------------------------------


@pytest.fixture
def null_link_design():
    reg = PiecewiseAffine(6.0)
    link = ValueSlopeLink(reg)
    design = ModelDesign(
        GammaPlusB(),
        reg,
        {
            (0, 1): (ExponentialHazard(0.1), link),
            (0, 2): (WeibullHazard(2.0, 1.0), link),
        },
    )
    params = ModelParams(
        gamma=np.zeros(3),
        q_repr=repr_from_cov(np.eye(3), "diag"),
        r_repr=repr_from_cov(np.eye(1), "ball"),
        alpha={e: np.zeros(2) for e in design.edges},
        beta={e: np.zeros(1) for e in design.edges},
    )
    return design, params


def test_transition_log_intensity_constant_hazard(null_link_design):
    design, params = null_link_design
    psi, x = np.zeros(3), np.zeros(1)
    for t in (0.5, 3.0, 12.0):
        got = transition_log_intensity(design, params, (0, 1), t, 0.0, x, psi)
        assert got == pytest.approx(np.log(0.1))


def test_transition_log_intensity_is_additive_in_log(null_link_design):
    design, params = null_link_design
    psi, x = np.zeros(3), np.zeros(1)
    base = transition_log_intensity(design, params, (0, 1), 3.0, 0.0, x, psi)
    bumped = ModelParams(
        gamma=params.gamma, q_repr=params.q_repr, r_repr=params.r_repr,
        alpha={(0, 1): np.array([1.0 / 3.0, 0.0]), (0, 2): np.zeros(2)},
        beta=params.beta,
    )
    # alpha . g = 1 at t=3 with psi = (1,0,0)/... use psi giving h(3) = 3
    psi_one = np.array([3.0, 0.0, 0.0])
    got = transition_log_intensity(design, bumped, (0, 1), 3.0, 0.0, x, psi_one)
    assert got == pytest.approx(np.log(0.1) + 1.0)
    assert base == pytest.approx(np.log(0.1))


def test_transition_log_intensity_weibull_clock_reset(null_link_design):
    design, params = null_link_design
    # shape 2, scale 1, sojourn u = 3: lambda = 2 * 3
    got = transition_log_intensity(design, params, (0, 2), 5.0, 2.0, np.zeros(1), np.zeros(3))
    assert got == pytest.approx(np.log(6.0))


def _squared_value_link(reg):
    """A three-component link (h, dh/dt, h^2) from user callbacks."""
    from msjoint.families import CustomLink

    value_slope, value = ValueSlopeLink(reg), ValueLink(reg)

    def g(t, x, psi):
        h = value.value(t, x, psi)
        return np.concatenate([value_slope.value(t, x, psi), h * h], axis=-1)

    def jac(t, x, psi):
        h = value.value(t, x, psi)
        return np.concatenate([value_slope.jac_psi(t, x, psi), 2.0 * h[..., None] * value.jac_psi(t, x, psi)], axis=-2)

    return CustomLink(g, jac, dim=3)


SUM_LINKS = {
    "empty": lambda reg: EmptyLink(),
    "value": ValueLink,
    "value_slope": ValueSlopeLink,
    "custom_three": _squared_value_link,
}


def _sum_rule_case(link_name, k):
    """A one-edge design with a clock-reset Weibull baseline and the named
    link, seeded coefficients, and 50 rows of 4 node times laid out as
    ``node_intensities`` lays them: t (50, 4), entry (50, 1), x (50, 1, k)
    and psi (50, 1, 3)."""
    reg = PiecewiseAffine(6.0)
    link = SUM_LINKS[link_name](reg)
    design = ModelDesign(GammaPlusB(), reg, {(0, 1): (WeibullHazard(1.5, 2.0), link)})
    rng = np.random.default_rng(40 + 4 * link.dim + k)
    params = ModelParams(
        gamma=np.zeros(3),
        q_repr=repr_from_cov(np.eye(3), "diag"),
        r_repr=repr_from_cov(np.eye(1), "ball"),
        alpha={(0, 1): rng.normal(size=link.dim)},
        beta={(0, 1): rng.normal(size=k)},
    )
    entry = rng.uniform(0.0, 3.0, size=(50, 1))
    t = entry + rng.uniform(0.1, 9.0, size=(50, 4))
    x = rng.normal(size=(50, 1, k))
    psi = rng.normal(size=(50, 1, 3))
    return design, params, t, entry, x, psi


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("link_name", list(SUM_LINKS))
def test_transition_log_intensity_adds_the_products_left_to_right(link_name, k):
    # per row and node, in plain Python floats: log lambda_0, then the link's
    # products a_j g_j added left to right, then the covariates' b_j x_j
    design, params, t, entry, x, psi = _sum_rule_case(link_name, k)
    got = transition_log_intensity(design, params, (0, 1), t, entry, x, psi)
    assert got.shape == t.shape
    log_h0 = design.hazard((0, 1)).log_hazard(t - entry, design.hazard_values((0, 1), params))
    g = design.link((0, 1)).value(t, x, psi)
    alpha, beta = params.alpha[(0, 1)].tolist(), params.beta[(0, 1)].tolist()

    def dot(values, coefs):
        products = [float(v) * c for v, c in zip(values, coefs)]
        total = products[0] if products else 0.0
        for p in products[1:]:
            total += p
        return total

    for i in range(t.shape[0]):
        for j in range(t.shape[1]):
            expected = float(log_h0[i, j]) + dot(g[i, j], alpha) + dot(x[i, 0], beta)
            assert got[i, j] == expected, (i, j)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("link_name", ["empty", "value", "value_slope"])
def test_transition_log_intensity_keeps_the_bytes_of_numpys_sums(link_name, k):
    # up to two components, the products added in order are numpy's own sum
    # over the last axis, so the bytes of every built-in link are unchanged
    design, params, t, entry, x, psi = _sum_rule_case(link_name, k)
    got = transition_log_intensity(design, params, (0, 1), t, entry, x, psi)
    out = design.hazard((0, 1)).log_hazard(t - entry, design.hazard_values((0, 1), params))
    out = out + (design.link((0, 1)).value(t, x, psi) * params.alpha[(0, 1)]).sum(axis=-1)
    out = out + (x * params.beta[(0, 1)]).sum(axis=-1)
    assert np.array_equal(got, out)


def test_cumulative_intensity_constant(null_link_design):
    design, params = null_link_design
    got = cumulative_intensity(design, params, (0, 1), 2.0, 5.0, np.zeros(1), np.zeros(3))
    assert got == pytest.approx(0.3, abs=1e-12)


def test_cumulative_intensity_empty_interval(null_link_design):
    design, params = null_link_design
    got = cumulative_intensity(design, params, (0, 1), 2.0, 2.0, np.zeros(1), np.zeros(3))
    assert got == pytest.approx(0.0, abs=1e-15)


def test_cumulative_intensity_rejects_reversed_bounds(null_link_design):
    design, params = null_link_design
    with pytest.raises(ValueError, match="precedes"):
        cumulative_intensity(design, params, (0, 1), 5.0, 2.0, np.zeros(1), np.zeros(3))


def test_cumulative_intensity_linear_hazard_exact():
    # Weibull shape 2 scale 1 has lambda(u) = 2u: integral over [0,1] is 1
    reg = Polynomial(0)
    design = ModelDesign(
        BOnly(), reg, {(0, 1): (WeibullHazard(2.0, 1.0), ValueLink(reg))}
    )
    params = ModelParams(
        gamma=np.zeros(0),
        q_repr=repr_from_cov(np.eye(1), "diag"),
        r_repr=repr_from_cov(np.eye(1), "ball"),
        alpha={(0, 1): np.zeros(1)},
        beta={(0, 1): np.zeros(1)},
    )
    got = cumulative_intensity(design, params, (0, 1), 0.0, 1.0, np.zeros(1), np.zeros(1))
    assert got == pytest.approx(1.0, rel=1e-12)


def test_chasles_additivity(study_design, study_params):
    # the split rule puts its pieces on either side of the regression
    # breakpoint, where the integrand is smooth, so it is sharp on intervals
    # on one side of it and on intervals that cross it
    rng = np.random.default_rng(4)
    x = rng.normal(size=1)
    psi = rng.normal(size=3)
    for edge in study_design.edges:
        for a, b, c in [(1.0, 3.7, 5.9), (6.05, 8.0, 13.0), (2.0, 7.5, 12.0)]:
            whole = cumulative_intensity(study_design, study_params, edge, a, c, x, psi)
            left = cumulative_intensity(study_design, study_params, edge, a, b, x, psi)
            # conditioning past the entry keeps the clock anchored at a
            right = cumulative_intensity(study_design, study_params, edge, a, c, x, psi, lower=b)
            assert abs(whole - left - right) <= 1e-8 * max(1.0, abs(whole))


def test_cumulative_intensity_with_conditioning_lower_bound(study_design, study_params):
    # Chasles conditioning: integrate on [lower, t] with the clock anchored at t0
    x, psi = np.zeros(1), np.zeros(3)
    got = cumulative_intensity(study_design, study_params, (0, 1), 0.0, 5.0, x, psi, lower=2.0)
    ref = cumulative_intensity(study_design, study_params, (0, 1), 0.0, 5.0, x, psi) - \
        cumulative_intensity(study_design, study_params, (0, 1), 0.0, 2.0, x, psi)
    assert got == pytest.approx(ref, abs=1e-9)


def test_design_validates_edge_set(study_design):
    other = build_graph(3, [(0, 1)])
    with pytest.raises(ValueError, match="do not match"):
        study_design.validate_against(other)


def test_design_validates_alpha_lengths(study_design, study_params):
    edges = study_design.edges
    # alpha needs length 2
    bad = replace(study_params, alpha={e: np.zeros(1) for e in edges}, beta={e: np.zeros(1) for e in edges})
    with pytest.raises(ValueError, match="alpha"):
        study_design.validate_params(bad)


def test_self_check_rejects_wrong_derivatives():
    from msjoint.families import CustomRegression

    broken = CustomRegression(
        value=lambda t, psi: (psi[..., 0] * np.asarray(t, dtype=float))[..., None],
        jac_psi=lambda t, psi: np.ones(
            np.broadcast_shapes(np.shape(t), psi.shape[:-1]) + (1, 1)
        ) * 99.0,
        dim=1,
        n_psi=1,
    )
    with pytest.raises(ValueError, match="finite differences"):
        check_regression_family(broken)


class PlainLine:
    """h = psi1 + psi2 t as a plain object: no ``name``, no time derivative."""

    dim = 1
    n_psi = 2

    def value(self, t, psi):
        return (psi[..., 0] + psi[..., 1] * np.asarray(t, dtype=float))[..., None]

    def jac_psi(self, t, psi):
        t = np.broadcast_to(np.asarray(t, dtype=float), np.broadcast_shapes(np.shape(t), psi.shape[:-1]))
        return np.stack([np.ones(t.shape), t], axis=-1)[..., None, :]


def test_self_check_names_a_nameless_family_by_its_class():
    class WrongJacobian(PlainLine):
        def jac_psi(self, t, psi):
            return 2.0 * super().jac_psi(t, psi)

    with pytest.raises(ValueError, match="^WrongJacobian: jac_psi disagrees with finite differences$"):
        check_regression_family(WrongJacobian())


def test_regression_without_time_derivative_serves_value_links(study_graph):
    from msjoint import LikelihoodEngine
    from msjoint.simulate import generate_cohort

    reg = PlainLine()
    link = ValueLink(reg)
    design = ModelDesign(GammaPlusB(), reg, {e: (ExponentialHazard(0.1), link) for e in study_graph.edges})
    params = ModelParams(
        gamma=np.array([1.0, -0.1]), q_repr=repr_from_cov(np.eye(2) * 0.2, "diag"),
        r_repr=repr_from_cov(np.eye(1), "ball"),
        alpha={e: np.array([0.3]) for e in study_graph.edges}, beta={e: np.array([-0.5]) for e in study_graph.edges},
    )
    cohort, latent = generate_cohort(design, params, n=20, m=4, seed=3)
    engine = LikelihoodEngine(cohort, design, study_graph)
    assert np.all(np.isfinite(engine.posterior_logdensity(params, latent["b"][None])))
    with pytest.raises(AttributeError, match="time_derivative"):
        SlopeLink(reg)


def test_custom_regression_takes_both_time_derivative_callbacks_or_neither():
    from msjoint.families import CustomRegression

    reg = PlainLine()
    for half in ({"time_derivative": reg.value}, {"time_derivative_jac_psi": reg.jac_psi}):
        with pytest.raises(ValueError, match="both time-derivative callbacks or neither"):
            CustomRegression(reg.value, reg.jac_psi, dim=1, n_psi=2, **half)
    assert not hasattr(CustomRegression(reg.value, reg.jac_psi, dim=1, n_psi=2), "time_derivative")


def test_design_rejects_false_linearity_declaration(study_graph):
    from msjoint.families import CustomLink

    reg = PiecewiseAffine(6.0)

    def custom_link(family, linear):
        link = CustomLink(
            lambda t, x, psi: family.value(t, psi), lambda t, x, psi: family.jac_psi(t, psi), dim=1
        )
        link.linear_in_psi = linear
        return link

    def build(link):
        return ModelDesign(GammaPlusB(), reg, {e: (ExponentialHazard(0.1), link) for e in study_graph.edges})

    build(custom_link(ShiftedTanh(), False))
    build(custom_link(reg, True))
    # correct derivatives, so only the linearity check can reject it
    with pytest.raises(ValueError, match="declared linear in psi"):
        build(custom_link(ShiftedTanh(), True))


def test_design_rejects_false_additivity_declaration(study_graph):
    from msjoint.families import CustomEffects

    reg = PiecewiseAffine(6.0)
    # psi = b + exp(gamma) and psi = exp(gamma) * b, with their gamma-Jacobians
    shifted = (lambda gamma, x, b: np.asarray(b) + np.exp(gamma),
               lambda gamma, x, b: np.exp(gamma) * np.ones_like(b)[..., None] * np.eye(3))
    scaled = (lambda gamma, x, b: np.exp(gamma) * np.asarray(b),
              lambda gamma, x, b: (np.exp(gamma) * np.asarray(b))[..., None] * np.eye(3))

    def build(family, additive):
        effects = CustomEffects(*family, n_gamma=3)
        effects.additive = additive
        link = ValueLink(reg)
        return ModelDesign(effects, reg, {e: (ExponentialHazard(0.1), link) for e in study_graph.edges})

    build(shifted, True)
    build(scaled, False)
    # correct derivatives, so only the additivity check can reject it
    with pytest.raises(ValueError, match="declared additive"):
        build(scaled, True)


def _value_link_design(graph, effects, regression, link=None):
    link = link or ValueLink(regression)
    return ModelDesign(effects, regression, {e: (ExponentialHazard(0.1), link) for e in graph.edges})


def _polynomial_custom_link():
    from msjoint.families import CustomLink

    line = Polynomial(1)
    return CustomLink(lambda t, x, psi: line.value(t, psi), lambda t, x, psi: line.jac_psi(t, psi), dim=1)


@pytest.mark.parametrize(
    "effects, regression, link",
    [
        (TransformStack(("identity", "exp")), Polynomial(1), None),
        (GammaXPlusB(2, 1), Polynomial(1), None),
        (GammaXPlusB(3, 2), PiecewiseAffine(6.0), ValueSlopeLink(PiecewiseAffine(6.0))),
        (GammaPlusB(), Polynomial(1), _polynomial_custom_link()),
    ],
    ids=["transform_stack_two_components", "gamma_x_plus_b_two_effects", "gamma_x_plus_b_two_covariates",
         "custom_link_two_components"],
)
def test_self_check_draws_the_sizes_of_the_design(study_graph, effects, regression, link):
    # psi of the regression's n_psi components, b of the same size and the
    # effects map's k covariates, not 3 components and one covariate
    _value_link_design(study_graph, effects, regression, link)


def test_two_covariate_effects_map_fits_and_predicts(study_graph):
    from msjoint.inference import FitConfig, compute_fim, fit
    from msjoint.predict import predict_state_grid
    from msjoint.sampler import SamplerConfig
    from msjoint.simulate import generate_cohort

    reg = PiecewiseAffine(6.0)
    design = _value_link_design(study_graph, GammaXPlusB(3, 2), reg, ValueSlopeLink(reg))
    params = ModelParams(
        gamma=np.array([2.5, 0.3, -1.3, 0.1, 0.2, -0.2]),
        q_repr=repr_from_cov(np.diag([0.6, 0.2, 0.3]), "diag"), r_repr=repr_from_cov([[1.7]], "ball"),
        alpha={e: np.array([-0.5, -1.0]) for e in study_graph.edges},
        beta={e: np.array([-0.5, 0.4]) for e in study_graph.edges},
    )
    cohort, _ = generate_cohort(design, params, n=100, m=6, n_covariates=2, seed=7)
    sampler = SamplerConfig(n_chains=2, warmup=10)
    report = fit(cohort, design, study_graph, params, FitConfig(max_iterations=2, n_draws=4), sampler_config=sampler)
    assert np.all(np.isfinite(report.theta_history)) and np.all(np.isfinite(report.loglik_history))
    fim = compute_fim(cohort, design, study_graph, params, sampler, n_samples=10, seed=1)
    assert fim.matrix.shape == (params.layout().size,) * 2 and np.all(np.isfinite(fim.matrix))
    probs, _ = predict_state_grid(cohort[0], 2.0, [3.0, 6.0], design, params, study_graph, n_draws=20,
                                  sampler_config=SamplerConfig(n_chains=2, warmup=20))
    assert np.all(np.isfinite(probs))


def test_custom_effects_family_passes_self_check():
    from msjoint.families import CustomEffects

    # psi = exp(gamma) * b elementwise, gamma length q
    fam = CustomEffects(
        psi=lambda gamma, x, b: np.exp(gamma) * np.asarray(b),
        jac_gamma=lambda gamma, x, b: np.exp(gamma)[None, :]
        * np.asarray(b)[..., None]
        * np.eye(len(gamma)),
        n_gamma=3,
    )
    check_effects_family(fam)


def test_trainable_hazards_define_extra_layout():
    reg = Polynomial(0)
    link = ValueLink(reg)
    design = ModelDesign(
        BOnly(), reg,
        {
            (0, 1): (ExponentialHazard(0.3, trainable=True), link),
            (1, 2): (WeibullHazard(2.0, 1.0, trainable=True), link),
        },
    )
    assert design.extra_size == 3
    init = design.initial_extra()
    assert init[0] == pytest.approx(np.log(0.3))
    np.testing.assert_allclose(init[1:], np.log([2.0, 1.0]))


# -- split quadrature ------------------------------------------------------------------


def reference_cumulative(design, params, edge, t0, a, b, x, psi):
    """Split 64-node reference of Lambda over [a, b]: 32 Gauss-Legendre nodes
    on either side of the first link breakpoint inside (a, b), else of the
    midpoint."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    cut = [tau for tau in sorted(design.link(edge).breakpoints) if a < tau < b][:1] or [0.5 * (a + b)]
    ends = [a, *cut, b]
    total = 0.0
    for lo, hi in zip(ends, ends[1:]):
        t = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        total += 0.5 * (hi - lo) * np.exp(transition_log_intensity(design, params, edge, t, t0, x, psi)) @ weights
    return total


STUDY_PSI = [2.5, -1.3, 0.2]


# (regression, link class, psi, stated relative tolerance of the 16-node rule)
@pytest.mark.parametrize(
    "regression, link_cls, psi, rtol",
    [
        (Polynomial(2), ValueLink, [0.5, -0.3, 0.02], 1e-11),
        (PiecewiseAffine(6.0), ValueLink, STUDY_PSI, 1e-11),
        (PiecewiseAffine(6.0), SlopeLink, STUDY_PSI, 1e-11),
        (PiecewiseAffine(6.0), ValueSlopeLink, STUDY_PSI, 1e-11),
        (ExponentialDecay(), ValueSlopeLink, [1.0, 0.3], 1e-11),
        # a C1 kink at tau inside the exponent of a quadratic
        (PiecewiseAffine(6.0), CumulativeLink, STUDY_PSI, 1e-6),
        (ExponentialDecay(), CumulativeLink, [1.0, 0.3], 1e-9),
        # smooth, split at the midpoint: a slope peak of width ~1.5 at t = 5
        # costs accuracy over long intervals (3.0e-3 measured; 1.3e-5 at n_quad=32)
        (ShiftedTanh(), ValueSlopeLink, [1.0, 1.5, 5.0], 5e-3),
        (PiecewiseAffine(6.0), lambda reg: EmptyLink(), STUDY_PSI, 1e-11),
    ],
)
def test_cumulative_intensity_matches_split_reference(regression, link_cls, psi, rtol):
    link = link_cls(regression)
    alpha = {0: [], 1: [-0.5], 2: [-0.5, -3.0]}[link.dim]
    psi, x = np.array(psi), np.array([0.3])
    params = ModelParams(
        gamma=np.zeros(psi.size),
        q_repr=repr_from_cov(np.eye(psi.size), "diag"),
        r_repr=repr_from_cov(np.eye(1), "ball"),
        alpha={(0, 1): alpha},
        beta={(0, 1): [0.4]},
    )
    # (entry, a, b): across tau, ending at tau, starting at tau, around it,
    # past the entry, long, and a sliver at tau
    intervals = [(0.0, 0.0, 10.0), (0.0, 2.0, 6.0), (0.0, 6.0, 12.0), (0.0, 5.9, 6.5),
                 (1.0, 3.0, 9.0), (0.5, 0.5, 14.5), (0.0, 6.0, 6.001)]
    hazards = [ExponentialHazard(0.1), WeibullHazard(2.0, 3.0), WeibullHazard(3.0, 8.0, clock="forward")]
    for hazard in hazards:
        design = ModelDesign(GammaPlusB(), regression, {(0, 1): (hazard, link)})
        assert design.n_quad == 16
        for t0, a, b in intervals:
            got = cumulative_intensity(design, params, (0, 1), t0, b, x, psi, lower=a)
            want = reference_cumulative(design, params, (0, 1), t0, a, b, x, psi)
            assert abs(got - want) <= rtol * want, (hazard.name, a, b)


def test_families_declare_breakpoints():
    reg = PiecewiseAffine(6.0)
    assert reg.breakpoints == (6.0,)
    for link in (ValueLink(reg), SlopeLink(reg), ValueSlopeLink(reg), CumulativeLink(reg)):
        assert link.breakpoints == (6.0,)
    for family in (Polynomial(1), ExponentialDecay(), ShiftedTanh(), EmptyLink(), ValueLink(ShiftedTanh())):
        assert family.breakpoints == ()


def test_split_nodes_split_at_breakpoint_inside_else_midpoint():
    reg = PiecewiseAffine(6.0)
    t, w = design_mod.split_nodes(reg, 4, np.array([0.0, 6.0, 7.0]), np.array([10.0, 8.0, 9.0]))
    # two nodes on each piece: [0, 6] and [6, 10]; [6, 7] and [7, 8]; [7, 8] and [8, 9]
    np.testing.assert_allclose(w.sum(axis=-1), [10.0, 2.0, 2.0])
    np.testing.assert_allclose(w[:, :2].sum(axis=-1), [6.0, 1.0, 1.0])
    assert (t[0, :2] < 6.0).all() and (t[0, 2:] > 6.0).all()
    # a family without the attribute splits at the midpoint
    t, w = design_mod.split_nodes(object(), 4, 0.0, 10.0)
    np.testing.assert_allclose(w[:2].sum(), 5.0)


def test_cumulative_link_integrates_across_the_breakpoint():
    # h is affine on either side of tau, so each 8-node piece is exact
    link = CumulativeLink(PiecewiseAffine(6.0), lower=1.0)
    psi = np.array(STUDY_PSI)
    t = np.array([3.0, 6.0, 8.0, 14.0])

    def closed(t):  # integral of h from 0 to t
        after = np.clip(t - 6.0, 0.0, None)
        return psi[0] * t + psi[1] * t**2 / 2 + (psi[2] - psi[1]) * after**2 / 2

    np.testing.assert_allclose(link.value(t, None, psi)[:, 0], closed(t) - closed(1.0), rtol=1e-13)


@pytest.mark.parametrize("n_quad", [15, 1, 0])
def test_design_rejects_odd_or_empty_node_count(n_quad):
    reg = Polynomial(0)
    with pytest.raises(ValueError, match="n_quad must be a positive even number"):
        ModelDesign(BOnly(), reg, {(0, 1): (ExponentialHazard(0.1), ValueLink(reg))}, n_quad=n_quad)


def test_cumulative_link_rejects_odd_node_count():
    with pytest.raises(ValueError, match="n_nodes must be a positive even number"):
        CumulativeLink(Polynomial(1), n_nodes=15)


def test_study_cumulative_hazard_is_monotone(study_design, study_params):
    # Lambda(0, t) of edge (0, 1) is nondecreasing in t for study rows; the
    # unsplit 32-node rule broke this for 1954 of these 2000 rows
    rng = np.random.default_rng(0)
    n = 2000
    x = rng.standard_normal((n, 1))
    psi = study_params.gamma + rng.standard_normal((n, 3)) * np.sqrt(study_params.q_repr.covariance().diagonal())
    lam = np.stack([
        cumulative_intensity(study_design, study_params, (0, 1), np.zeros(n), np.full(n, t), x, psi)
        for t in np.linspace(5.5, 15.0, 381)
    ], axis=1)
    assert (np.diff(lam, axis=1) >= 0).all()
