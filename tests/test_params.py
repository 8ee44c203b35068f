from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msjoint import ModelParams, PrecisionRepr, Sharing, flatten, repr_from_cov, unflatten


def random_spd(rng, q):
    a = rng.normal(size=(q, q))
    return a @ a.T + q * np.eye(q)


# -- log-Cholesky round trips -------------------------------------------------


def test_diag_representation_reference_values():
    # Ltilde_ii = -log(sigma_ii)/2 for a diagonal covariance
    rep = repr_from_cov(np.diag([0.6, 0.2, 0.3]), "diag")
    np.testing.assert_allclose(rep.values, [0.2554, 0.8047, 0.6020], atol=5e-5)


def test_ball_representation_reference_value():
    rep = repr_from_cov([[1.7]], "ball")
    np.testing.assert_allclose(rep.values, [-0.2653], atol=5e-5)


def test_identity_maps_to_zero_for_every_method():
    for method in ("full", "diag", "ball"):
        rep = repr_from_cov(np.eye(3), method)
        np.testing.assert_allclose(rep.values, 0.0, atol=1e-12)


@pytest.mark.parametrize("method", ["full", "diag", "ball"])
def test_round_trip_reconstruction(method):
    rng = np.random.default_rng(123)
    for q in range(1, 7):
        if method == "full":
            cov = random_spd(rng, q)
        elif method == "diag":
            cov = np.diag(rng.uniform(0.1, 3.0, q))
        else:
            cov = rng.uniform(0.1, 3.0) * np.eye(q)
        rep = repr_from_cov(cov, method)
        back = rep.covariance()
        err = np.linalg.norm(back - cov) / np.linalg.norm(cov)
        assert err < 1e-8, (method, q, err)


def test_repr_from_cov_rejects_bad_inputs():
    with pytest.raises(ValueError):
        repr_from_cov(np.array([[1.0, 2.0], [2.0, 1.0]]), "diag")  # off-diagonal
    with pytest.raises(ValueError):
        repr_from_cov(np.diag([1.0, 2.0]), "ball")  # not isotropic
    with pytest.raises(ValueError):
        repr_from_cov(np.array([[1.0, 2.0], [2.0, 1.0]]), "full")  # indefinite
    with pytest.raises(ValueError):
        repr_from_cov(np.eye(2), "banana")


def test_log_det_precision_values():
    assert repr_from_cov(np.eye(4), "full").log_det_precision() == pytest.approx(0.0, abs=1e-12)
    # dense oracle: materialize P and take its log-determinant
    rep = PrecisionRepr("diag", 3, np.array([0.2554, 0.8047, 0.6020]))
    _, ref = np.linalg.slogdet(rep.precision())
    assert rep.log_det_precision() == pytest.approx(ref, rel=1e-10)
    assert rep.log_det_precision() == pytest.approx(3.3242, abs=5e-4)
    ball = PrecisionRepr("ball", 1, np.array([-0.2653]))
    _, ref = np.linalg.slogdet(ball.precision())
    assert ball.log_det_precision() == pytest.approx(ref, rel=1e-10)
    assert ball.log_det_precision() == pytest.approx(-0.5306, abs=1e-4)


def test_quad_form_matches_materialized_precision():
    rng = np.random.default_rng(7)
    for _ in range(100):
        q = rng.integers(1, 6)
        method = rng.choice(["full", "diag", "ball"])
        n_free = {"full": q * (q + 1) // 2, "diag": q, "ball": 1}[method]
        rep = PrecisionRepr(method, int(q), rng.normal(scale=0.7, size=n_free))
        b = rng.normal(size=q)
        direct = rep.quad_form(b)
        ref = b @ rep.precision() @ b
        assert abs(direct - ref) <= 1e-10 * max(1.0, abs(ref))


def test_log_det_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for method, q in [("full", 4), ("diag", 3), ("ball", 2)]:
        n_free = {"full": q * (q + 1) // 2, "diag": q, "ball": 1}[method]
        values = rng.normal(scale=0.5, size=n_free)
        rep = PrecisionRepr(method, q, values)
        # grad of (1/2) log det P is grad_values at zero outer product, count 1
        grad = rep.grad_values(np.zeros((q, q)), 1.0)
        fd = np.zeros(n_free)
        for j in range(n_free):
            vp, vm = values.copy(), values.copy()
            vp[j] += 1e-5
            vm[j] -= 1e-5
            fd[j] = (
                PrecisionRepr(method, q, vp).log_det_precision()
                - PrecisionRepr(method, q, vm).log_det_precision()
            ) / 4e-5  # half log det
        np.testing.assert_allclose(grad, fd, atol=1e-6)


@pytest.mark.parametrize("method", ["full", "diag", "ball"])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_grad_values_matches_finite_differences_with_data(method, q):
    # the batch shapes the per-individual scores pass: (2, 3) items, each with
    # an SPD outer sum S and its own count
    rng = np.random.default_rng(100 * q + len(method))
    n_free = {"full": q * (q + 1) // 2, "diag": q, "ball": 1}[method]
    values = rng.normal(scale=0.5, size=n_free)
    a = rng.normal(size=(2, 3, q, q + 2))
    outer = a @ np.swapaxes(a, -1, -2)
    count = rng.integers(1, 10, size=(2, 3)).astype(float)

    def objective(v):
        rep = PrecisionRepr(method, q, v)
        return 0.5 * count * rep.log_det_precision() - 0.5 * np.einsum("ij,...ji->...", rep.precision(), outer)

    rep = PrecisionRepr(method, q, values)
    grad = rep.grad_values(outer, count)
    assert grad.shape == (2, 3, n_free)
    h = 1e-4
    fd = np.stack([
        (objective(values + h * e) - objective(values - h * e)) / (2 * h) for e in np.eye(n_free)
    ], axis=-1)
    # Along one value the objective is c v - 1/2 sum_k,a,b L_ak S_ab L_bk, where
    # an entry of L is a value, exp(value) or constant: its third derivative is
    # at most 4 e^{2h} T with T = sum |L_ak S_ab L_bk|, so the central difference
    # is off by at most h^2/6 of that, plus rounding of order eps |f| / h.
    absL = np.abs(rep.chol_factor())
    T = np.einsum("ak,...ab,bk->...", absL, np.abs(outer), absL)
    eps = np.finfo(float).eps
    tol = h**2 / 6 * 4 * np.exp(2 * h) * T + 10 * eps * (np.abs(count * rep.log_det_precision()) + T) / h
    assert np.all(np.abs(grad - fd) <= 2 * tol[..., None]), np.max(np.abs(grad - fd) / tol[..., None])


# -- flattening and sharing ---------------------------------------------------


@pytest.fixture
def study_like_params(study_params):
    edges = study_params.edges
    return replace(
        study_params, alpha={e: np.array([0.1, 0.2]) for e in edges}, beta={e: np.array([0.3]) for e in edges}
    )


def test_study_model_has_sixteen_free_scalars(study_like_params):
    assert flatten(study_like_params).shape == (16,)


def test_flatten_unflatten_identity(study_like_params):
    p = study_like_params
    v = flatten(p)
    v2 = flatten(unflatten(v, p))
    np.testing.assert_array_equal(v, v2)
    rng = np.random.default_rng(3)
    w = rng.normal(size=v.size)
    np.testing.assert_array_equal(flatten(unflatten(w, p)), w)


def test_flatten_order_and_names_are_pinned():
    # the order of history.csv columns and of fim.csv / stderr.csv rows
    p = ModelParams(
        gamma=[1.0, 2.0],
        q_repr=PrecisionRepr("full", 2, [3.0, 4.0, 5.0]),
        r_repr=PrecisionRepr("ball", 1, [6.0]),
        alpha={(0, 1): [7.0, 8.0], (0, 2): [9.0, 10.0], (1, 2): [9.0, 10.0]},
        beta={(0, 1): [11.0], (0, 2): [12.0], (1, 2): [11.0]},
        sharing=Sharing(alpha=(((0, 2), (1, 2)),), beta=(((1, 2), (0, 1)),)),
        extra=[13.0, 14.0, 15.0],  # one exponential and one Weibull baseline
    )
    layout = p.layout()
    assert layout.names() == [
        "gamma[0]", "gamma[1]", "q[0]", "q[1]", "q[2]", "r[0]",
        "alpha(0->1)[0]", "alpha(0->1)[1]", "alpha(0->2+1->2)[0]", "alpha(0->2+1->2)[1]",
        "beta(1->2+0->1)[0]", "beta(0->2)[0]",
        "extra[0]", "extra[1]", "extra[2]",
    ]
    np.testing.assert_array_equal(flatten(p), np.arange(1.0, 16.0))
    back = unflatten(flatten(p), p)
    for name in ("gamma", "extra"):
        np.testing.assert_array_equal(getattr(back, name), getattr(p, name))
    for name in ("q_repr", "r_repr"):
        assert (getattr(back, name).method, getattr(back, name).dim) == (getattr(p, name).method, getattr(p, name).dim)
        np.testing.assert_array_equal(getattr(back, name).values, getattr(p, name).values)
    for group in ("alpha", "beta"):
        assert getattr(back, group).keys() == getattr(p, group).keys()
        for e, v in getattr(p, group).items():
            np.testing.assert_array_equal(getattr(back, group)[e], v)
    assert back.sharing == p.sharing
    assert layout.edge_slice("alpha", (0, 2)) == layout.edge_slice("alpha", (1, 2)) == slice(8, 10)
    assert layout.edge_slice("beta", (0, 1)) == layout.edge_slice("beta", (1, 2)) == slice(10, 11)
    assert layout.edge_slice("beta", (0, 2)) == slice(11, 12)


def test_shared_beta_counts_once():
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (1, 3), (0, 3)]
    sharing = Sharing(beta=(tuple(edges),))
    p = ModelParams(
        gamma=np.zeros(3),
        q_repr=repr_from_cov(np.eye(3), "full"),
        r_repr=repr_from_cov(np.eye(1), "ball"),
        alpha={e: np.zeros(1) for e in edges},
        beta={e: np.zeros(2) for e in edges},
        sharing=sharing,
    )
    # beta contributes 2 free scalars instead of 12
    assert flatten(p).shape[0] == 3 + 6 + 1 + 6 * 1 + 2


def test_unflatten_propagates_shared_values():
    edges = [(0, 1), (0, 2)]
    sharing = Sharing(beta=(tuple(edges),))
    p = ModelParams(
        gamma=np.zeros(0),
        q_repr=repr_from_cov(np.eye(1), "diag"),
        r_repr=repr_from_cov(np.eye(1), "diag"),
        alpha={e: np.zeros(1) for e in edges},
        beta={e: np.zeros(1) for e in edges},
        sharing=sharing,
    )
    v = flatten(p)
    v[-1] = 9.0  # the single shared beta scalar
    out = unflatten(v, p)
    assert out.beta[(0, 1)][0] == 9.0
    assert out.beta[(0, 2)][0] == 9.0


def test_tied_slots_must_hold_identical_values():
    edges = [(0, 1), (0, 2)]
    with pytest.raises(ValueError, match="identical"):
        ModelParams(
            gamma=np.zeros(1),
            q_repr=repr_from_cov(np.eye(1), "diag"),
            r_repr=repr_from_cov(np.eye(1), "diag"),
            alpha={e: np.zeros(1) for e in edges},
            beta={(0, 1): np.array([1.0]), (0, 2): np.array([2.0])},
            sharing=Sharing(beta=(tuple(edges),)),
        )


def test_empty_params_round_trip():
    p = ModelParams(
        gamma=np.zeros(0),
        q_repr=PrecisionRepr("diag", 0, np.zeros(0)),
        r_repr=PrecisionRepr("diag", 0, np.zeros(0)),
        alpha={},
        beta={},
    )
    v = flatten(p)
    assert v.shape == (0,)
    assert flatten(unflatten(v, p)).shape == (0,)


def test_unflatten_rejects_wrong_length(study_like_params):
    p = study_like_params
    with pytest.raises(ValueError, match="length 16"):
        unflatten(np.zeros(15), p)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_round_trip_property_full(q, seed):
    rng = np.random.default_rng(seed)
    cov = random_spd(rng, q)
    rep = repr_from_cov(cov, "full")
    err = np.linalg.norm(rep.covariance() - cov) / np.linalg.norm(cov)
    assert err < 1e-8
