"""Built-in function families: individual-effects maps, regression functions
and hazard links, each with analytic parameter derivatives.

Shape contract (mirrors broadcast batching over chains and individuals):
``psi`` carries its components on the last axis, shape ``P + (s,)``; a time
array ``t`` must broadcast against ``P``. Values gain one trailing axis of
the family's output dimension, Jacobians two (output, psi component). Callers
insert extra axes (e.g. a time or quadrature axis) into ``psi`` themselves.

A family whose value is linear in psi, value(t, psi) = J(t) psi with J
independent of psi, declares ``linear_in_psi = True``; the likelihood engine
then evaluates J once at fixed times and reuses it. Links built on a
regression inherit the declaration from it.

Custom families are plain objects exposing the same methods; they must pass
the finite-difference self-check in :mod:`msjoint.design` before use, which
also verifies a declared linearity.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .design import gauss_legendre, map_nodes


def _bshape(t, psi) -> tuple[int, ...]:
    return np.broadcast_shapes(np.shape(t), np.shape(psi)[:-1])


# --------------------------------------------------------------------------
# Individual-effects maps: psi = f(gamma, x, b)


class GammaPlusB:
    """psi = gamma + b, the additive random-effects map."""

    name = "gamma_plus_b"

    def n_gamma(self, q: int, k: int) -> int:
        return q

    def psi(self, gamma, x, b):
        return np.asarray(b) + np.asarray(gamma)

    def jac_gamma(self, gamma, x, b):
        b = np.asarray(b)
        q = b.shape[-1]
        return np.broadcast_to(np.eye(q), b.shape[:-1] + (q, q))


class GammaXPlusB:
    """psi = Gamma x + b with Gamma an (s, k) matrix stored row-major."""

    name = "gamma_x_plus_b"

    def __init__(self, n_effects: int, n_covariates: int):
        self.s = int(n_effects)
        self.k = int(n_covariates)

    def n_gamma(self, q: int, k: int) -> int:
        return self.s * self.k

    def psi(self, gamma, x, b):
        G = np.asarray(gamma).reshape(self.s, self.k)
        return np.asarray(b) + np.asarray(x) @ G.T

    def jac_gamma(self, gamma, x, b):
        x = np.asarray(x)
        shape = np.broadcast_shapes(x.shape[:-1], np.shape(b)[:-1])
        jac = np.zeros(shape + (self.s, self.s, self.k))
        idx = np.arange(self.s)
        jac[..., idx, idx, :] = np.broadcast_to(x[..., None, :], shape + (self.s, self.k))
        return jac.reshape(shape + (self.s, self.s * self.k))


class TransformStack:
    """psi_a = T_a(gamma_a + b_a) for componentwise transforms T_a.

    Supported transforms: identity, sigmoid, exp.
    """

    name = "transform_stack"
    _fwd: dict[str, Callable] = {
        "identity": lambda z: z,
        "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
        "exp": np.exp,
    }

    def __init__(self, transforms):
        self.transforms = tuple(transforms)
        for name in self.transforms:
            if name not in self._fwd:
                raise ValueError(f"unknown transform {name!r}")

    def n_gamma(self, q: int, k: int) -> int:
        return len(self.transforms)

    def _deriv(self, name: str, z):
        if name == "identity":
            return np.ones_like(z)
        if name == "exp":
            return np.exp(z)
        s = self._fwd["sigmoid"](z)
        return s * (1.0 - s)

    def psi(self, gamma, x, b):
        z = np.asarray(b) + np.asarray(gamma)
        cols = [self._fwd[n](z[..., i]) for i, n in enumerate(self.transforms)]
        return np.stack(cols, axis=-1)

    def jac_gamma(self, gamma, x, b):
        z = np.asarray(b) + np.asarray(gamma)
        q = len(self.transforms)
        jac = np.zeros(z.shape[:-1] + (q, q))
        for i, n in enumerate(self.transforms):
            jac[..., i, i] = self._deriv(n, z[..., i])
        return jac


class BOnly:
    """psi = b; no population parameters."""

    name = "b_only"

    def n_gamma(self, q: int, k: int) -> int:
        return 0

    def psi(self, gamma, x, b):
        return np.asarray(b)

    def jac_gamma(self, gamma, x, b):
        b = np.asarray(b)
        return np.zeros(b.shape + (0,))


class CustomEffects:
    """Effects map from user callbacks psi(gamma, x, b) and its gamma-Jacobian."""

    name = "custom"

    def __init__(self, psi, jac_gamma, n_gamma):
        self._psi = psi
        self._jac = jac_gamma
        self._n_gamma = int(n_gamma)

    def n_gamma(self, q: int, k: int) -> int:
        return self._n_gamma

    def psi(self, gamma, x, b):
        return self._psi(gamma, x, b)

    def jac_gamma(self, gamma, x, b):
        return self._jac(gamma, x, b)


# --------------------------------------------------------------------------
# Regression families: h(t, psi) -> R^d


class Polynomial:
    """h(t, psi) = sum_j psi_j t^j up to the given degree; d = 1."""

    name = "polynomial"
    dim = 1
    linear_in_psi = True

    def __init__(self, degree: int):
        self.degree = int(degree)
        self.n_psi = self.degree + 1

    def _powers(self, t, shape):
        t = np.broadcast_to(np.asarray(t, dtype=float), shape)
        return np.stack([t**j for j in range(self.n_psi)], axis=-1)

    def value(self, t, psi):
        shape = _bshape(t, psi)
        tp = self._powers(t, shape)
        return np.sum(tp * psi, axis=-1)[..., None]

    def jac_psi(self, t, psi):
        shape = _bshape(t, psi)
        return self._powers(t, shape)[..., None, :]

    def time_derivative(self, t, psi):
        shape = _bshape(t, psi)
        t = np.broadcast_to(np.asarray(t, dtype=float), shape)
        out = np.zeros(shape)
        for j in range(1, self.n_psi):
            out += j * psi[..., j] * t ** (j - 1)
        return out[..., None]

    def time_derivative_jac_psi(self, t, psi):
        shape = _bshape(t, psi)
        t = np.broadcast_to(np.asarray(t, dtype=float), shape)
        cols = [np.full(shape, float(j)) * t ** (j - 1) if j else np.zeros(shape) for j in range(self.n_psi)]
        return np.stack(cols, axis=-1)[..., None, :]


class PiecewiseAffine:
    """Affine with a slope change at a fixed breakpoint:
    h = psi1 + psi2 t + 1_{t > tau} (psi3 - psi2)(t - tau); d = 1.

    The indicator is strict, so h(tau) uses the first slope. The breakpoint
    is a fixed hyperparameter, never trainable.
    """

    name = "piecewise_affine"
    dim = 1
    n_psi = 3
    linear_in_psi = True

    def __init__(self, breakpoint: float):
        self.tau = float(breakpoint)

    def value(self, t, psi):
        shape = _bshape(t, psi)
        t = np.broadcast_to(np.asarray(t, dtype=float), shape)
        ind = t > self.tau
        out = psi[..., 0] + psi[..., 1] * t + ind * (psi[..., 2] - psi[..., 1]) * (t - self.tau)
        return out[..., None]

    def jac_psi(self, t, psi):
        shape = _bshape(t, psi)
        t = np.broadcast_to(np.asarray(t, dtype=float), shape)
        ind = (t > self.tau).astype(float)
        excess = ind * (t - self.tau)
        jac = np.stack([np.ones(shape), t - excess, excess], axis=-1)
        return jac[..., None, :]

    def time_derivative(self, t, psi):
        shape = _bshape(t, psi)
        t = np.broadcast_to(np.asarray(t, dtype=float), shape)
        ind = t > self.tau
        return (psi[..., 1] + ind * (psi[..., 2] - psi[..., 1]))[..., None]

    def time_derivative_jac_psi(self, t, psi):
        shape = _bshape(t, psi)
        t = np.broadcast_to(np.asarray(t, dtype=float), shape)
        ind = (t > self.tau).astype(float)
        jac = np.stack([np.zeros(shape), 1.0 - ind, ind], axis=-1)
        return jac[..., None, :]


class ExponentialDecay:
    """h(t, psi) = psi1 exp(-psi2 t); d = 1."""

    name = "exponential_decay"
    dim = 1
    n_psi = 2

    def value(self, t, psi):
        shape = _bshape(t, psi)
        t = np.broadcast_to(np.asarray(t, dtype=float), shape)
        return (psi[..., 0] * np.exp(-psi[..., 1] * t))[..., None]

    def jac_psi(self, t, psi):
        shape = _bshape(t, psi)
        t = np.broadcast_to(np.asarray(t, dtype=float), shape)
        e = np.exp(-psi[..., 1] * t)
        jac = np.stack([e + np.zeros(shape), -psi[..., 0] * t * e], axis=-1)
        return jac[..., None, :]

    def time_derivative(self, t, psi):
        shape = _bshape(t, psi)
        t = np.broadcast_to(np.asarray(t, dtype=float), shape)
        return (-psi[..., 0] * psi[..., 1] * np.exp(-psi[..., 1] * t))[..., None]

    def time_derivative_jac_psi(self, t, psi):
        shape = _bshape(t, psi)
        t = np.broadcast_to(np.asarray(t, dtype=float), shape)
        e = np.exp(-psi[..., 1] * t)
        d1 = -psi[..., 1] * e
        d2 = -psi[..., 0] * e + psi[..., 0] * psi[..., 1] * t * e
        return np.stack([d1 + np.zeros(shape), d2], axis=-1)[..., None, :]


class ShiftedTanh:
    """h(t, psi) = psi1 tanh((psi3 - t)/psi2) + (1 - psi1); d = 1.

    Decreasing in t for psi1, psi2 > 0, with h -> 1 as t -> -inf.
    """

    name = "shifted_tanh"
    dim = 1
    n_psi = 3

    def _parts(self, t, psi):
        shape = _bshape(t, psi)
        t = np.broadcast_to(np.asarray(t, dtype=float), shape)
        u = (psi[..., 2] - t) / psi[..., 1]
        return shape, t, u, np.tanh(u)

    def value(self, t, psi):
        _, _, _, th = self._parts(t, psi)
        return (psi[..., 0] * th + (1.0 - psi[..., 0]))[..., None]

    def jac_psi(self, t, psi):
        shape, _, u, th = self._parts(t, psi)
        sech2 = 1.0 - th**2
        d1 = th - 1.0
        d2 = -psi[..., 0] * sech2 * u / psi[..., 1]
        d3 = psi[..., 0] * sech2 / psi[..., 1]
        return np.stack([d1 + np.zeros(shape), d2, d3], axis=-1)[..., None, :]

    def time_derivative(self, t, psi):
        _, _, _, th = self._parts(t, psi)
        return (-psi[..., 0] * (1.0 - th**2) / psi[..., 1])[..., None]

    def time_derivative_jac_psi(self, t, psi):
        shape, _, u, th = self._parts(t, psi)
        sech2 = 1.0 - th**2
        p1, p2 = psi[..., 0], psi[..., 1]
        d1 = -sech2 / p2
        d2 = p1 / p2**2 * sech2 * (1.0 - 2.0 * u * th)
        d3 = 2.0 * p1 * th * sech2 / p2**2
        return np.stack([d1 + np.zeros(shape), d2, d3], axis=-1)[..., None, :]


class CustomRegression:
    """Regression family from user callbacks (value, jac_psi, and optionally
    the time derivative pair for slope links)."""

    name = "custom"

    def __init__(self, value, jac_psi, dim, time_derivative=None, time_derivative_jac_psi=None, n_psi=None):
        self._value = value
        self._jac = jac_psi
        self.dim = int(dim)
        self._dt = time_derivative
        self._dt_jac = time_derivative_jac_psi
        self.n_psi = n_psi

    def value(self, t, psi):
        return self._value(t, psi)

    def jac_psi(self, t, psi):
        return self._jac(t, psi)

    def time_derivative(self, t, psi):
        if self._dt is None:
            raise NotImplementedError("this family has no time derivative callback")
        return self._dt(t, psi)

    def time_derivative_jac_psi(self, t, psi):
        if self._dt_jac is None:
            raise NotImplementedError("this family has no time derivative callback")
        return self._dt_jac(t, psi)


# --------------------------------------------------------------------------
# Link families: g(t, x, psi) -> R^a, entering the hazard exponent


class _RegressionLink:
    """A link computed from a regression family, linear in psi when it is."""

    @property
    def linear_in_psi(self) -> bool:
        return getattr(self.regression, "linear_in_psi", False)


class ValueLink(_RegressionLink):
    """g = h: direct effect of the current marker level."""

    name = "value"

    def __init__(self, regression):
        self.regression = regression
        self.dim = regression.dim

    def value(self, t, x, psi):
        return self.regression.value(t, psi)

    def jac_psi(self, t, x, psi):
        return self.regression.jac_psi(t, psi)


class SlopeLink(_RegressionLink):
    """g = dh/dt: effect of the marker's rate of change."""

    name = "slope"

    def __init__(self, regression):
        self.regression = regression
        self.dim = regression.dim

    def value(self, t, x, psi):
        return self.regression.time_derivative(t, psi)

    def jac_psi(self, t, x, psi):
        return self.regression.time_derivative_jac_psi(t, psi)


class ValueSlopeLink(_RegressionLink):
    """g = (h, dh/dt) concatenated."""

    name = "value_slope"

    def __init__(self, regression):
        self.regression = regression
        self.dim = 2 * regression.dim

    def value(self, t, x, psi):
        return np.concatenate(
            [self.regression.value(t, psi), self.regression.time_derivative(t, psi)], axis=-1
        )

    def jac_psi(self, t, x, psi):
        return np.concatenate(
            [self.regression.jac_psi(t, psi), self.regression.time_derivative_jac_psi(t, psi)],
            axis=-2,
        )


class CumulativeLink(_RegressionLink):
    """g = integral of h from a finite lower bound to t, via Gauss-Legendre."""

    name = "cumulative"

    def __init__(self, regression, lower: float = 0.0, n_nodes: int = 32):
        if not np.isfinite(lower):
            raise ValueError("cumulative link requires a finite lower bound")
        self.regression = regression
        self.lower = float(lower)
        self.n_nodes = int(n_nodes)
        self.dim = regression.dim

    def _nodes(self, t):
        return map_nodes(*gauss_legendre(self.n_nodes), self.lower, t)

    def value(self, t, x, psi):
        w, ww = self._nodes(t)
        vals = self.regression.value(w, psi[..., None, :])
        return np.sum(vals * ww[..., None], axis=-2)

    def jac_psi(self, t, x, psi):
        w, ww = self._nodes(t)
        jac = self.regression.jac_psi(w, psi[..., None, :])
        return np.sum(jac * ww[..., None, None], axis=-3)


class EmptyLink:
    """Zero-dimensional link: the hazard has no marker effect (alpha empty)."""

    name = "none"
    dim = 0
    linear_in_psi = True

    def value(self, t, x, psi):
        return np.zeros(_bshape(t, psi) + (0,))

    def jac_psi(self, t, x, psi):
        return np.zeros(_bshape(t, psi) + (0, np.shape(psi)[-1]))


class CustomLink:
    """Link family from user callbacks g(t, x, psi) and its psi-Jacobian."""

    name = "custom"

    def __init__(self, value, jac_psi, dim):
        self._value = value
        self._jac = jac_psi
        self.dim = int(dim)

    def value(self, t, x, psi):
        return self._value(t, x, psi)

    def jac_psi(self, t, x, psi):
        return self._jac(t, x, psi)


EFFECTS_FAMILIES = {
    "gamma_plus_b": lambda **kw: GammaPlusB(),
    "gamma_x_plus_b": lambda **kw: GammaXPlusB(kw["n_effects"], kw["n_covariates"]),
    "transform_stack": lambda **kw: TransformStack(kw["transforms"]),
    "b_only": lambda **kw: BOnly(),
}

REGRESSION_FAMILIES = {
    "polynomial": lambda **kw: Polynomial(kw["degree"]),
    "piecewise_affine": lambda **kw: PiecewiseAffine(kw["breakpoint"]),
    "exponential_decay": lambda **kw: ExponentialDecay(),
    "shifted_tanh": lambda **kw: ShiftedTanh(),
}

LINK_FAMILIES = {
    "value": lambda reg, **kw: ValueLink(reg),
    "slope": lambda reg, **kw: SlopeLink(reg),
    "value_slope": lambda reg, **kw: ValueSlopeLink(reg),
    "cumulative": lambda reg, **kw: CumulativeLink(reg, **kw),
    "none": lambda reg, **kw: EmptyLink(),
}
