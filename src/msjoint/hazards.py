"""Parametric baseline hazards with clock-reset / clock-forward evaluation.

A hazard family evaluates log lambda_0(u) where u is the sojourn time (clock
reset) or absolute time (clock forward); the clock is applied by the caller.
Trainable hazards expose their parameter vector (stored unconstrained, in log
scale where positivity is required) for inclusion in ``ModelParams.extra``.
"""

from __future__ import annotations

import numpy as np

CLOCKS = ("reset", "forward")


class ExponentialHazard:
    """Constant hazard lambda_0(u) = rate; parameter: log rate."""

    name = "exponential"
    n_params = 1

    def __init__(self, rate: float, clock: str = "reset", trainable: bool = False):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if clock not in CLOCKS:
            raise ValueError(f"clock must be one of {CLOCKS}")
        self.rate = float(rate)
        self.clock = clock
        self.trainable = bool(trainable)

    def initial_params(self) -> np.ndarray:
        return np.array([np.log(self.rate)])

    def log_hazard(self, u, values):
        return np.broadcast_to(values[0], np.shape(u)).copy()

    def dlog_dparams(self, u, values):
        return np.ones(np.shape(u) + (1,))


class WeibullHazard:
    """lambda_0(u) = (k / sigma) (u / sigma)^(k-1); parameters: (log k, log sigma).

    Requires u > 0; interior quadrature nodes and strictly increasing
    transition times keep evaluations off u = 0.
    """

    name = "weibull"
    n_params = 2

    def __init__(self, shape: float, scale: float, clock: str = "reset", trainable: bool = False):
        if shape <= 0 or scale <= 0:
            raise ValueError("shape and scale must be positive")
        if clock not in CLOCKS:
            raise ValueError(f"clock must be one of {CLOCKS}")
        self.shape = float(shape)
        self.scale = float(scale)
        self.clock = clock
        self.trainable = bool(trainable)

    def initial_params(self) -> np.ndarray:
        return np.log([self.shape, self.scale])

    def log_hazard(self, u, values):
        k, sigma = np.exp(values[0]), np.exp(values[1])
        u = np.maximum(np.asarray(u, dtype=float), 1e-300)
        return values[0] + (k - 1.0) * np.log(u) - k * np.log(sigma)

    def dlog_dparams(self, u, values):
        k = np.exp(values[0])
        sigma = np.exp(values[1])
        u = np.maximum(np.asarray(u, dtype=float), 1e-300)
        d_logk = 1.0 + k * (np.log(u) - np.log(sigma))
        d_logsigma = np.full_like(d_logk, -k)
        return np.stack([d_logk, d_logsigma], axis=-1)


class PiecewiseConstantHazard:
    """Step hazard: level j applies on [cut_{j-1}, cut_j); parameters: log levels."""

    name = "piecewise_constant"

    def __init__(self, cuts, levels, clock: str = "reset", trainable: bool = False):
        self.cuts = np.asarray(cuts, dtype=float)
        levels = np.asarray(levels, dtype=float)
        if np.any(np.diff(self.cuts) <= 0):
            raise ValueError("cuts must be strictly increasing")
        if levels.shape[0] != self.cuts.shape[0] + 1:
            raise ValueError("need one more level than cuts")
        if np.any(levels <= 0):
            raise ValueError("levels must be positive")
        if clock not in CLOCKS:
            raise ValueError(f"clock must be one of {CLOCKS}")
        self.levels = levels
        self.clock = clock
        self.trainable = bool(trainable)
        self.n_params = levels.shape[0]

    def initial_params(self) -> np.ndarray:
        return np.log(self.levels)

    def _bins(self, u):
        return np.searchsorted(self.cuts, np.asarray(u, dtype=float), side="right")

    def log_hazard(self, u, values):
        return values[self._bins(u)]

    def dlog_dparams(self, u, values):
        bins = self._bins(u)
        out = np.zeros(bins.shape + (self.n_params,))
        np.put_along_axis(out, bins[..., None], 1.0, axis=-1)
        return out


HAZARD_FAMILIES = {cls.name: cls for cls in (ExponentialHazard, WeibullHazard, PiecewiseConstantHazard)}
