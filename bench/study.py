"""The two designs the benchmark simulates and fits.

* The paper's three-state study: healthy -> sick -> terminal plus
  healthy -> terminal, a piecewise-affine marker with a slope change at
  tau = 6, value+slope links and exponential clock-reset baselines.
* A recurrent semi-Markov design: 0 <-> 1 with Weibull clock-reset
  baselines, both states -> 2, value link on the same marker.

Family classes come from a ``Families`` table so that the traced run can put
counting subclasses into the same designs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from msjoint import ModelDesign, ModelParams, TransitionGraph, build_graph, repr_from_cov
from msjoint.families import GammaPlusB, PiecewiseAffine, ValueLink, ValueSlopeLink
from msjoint.hazards import ExponentialHazard, WeibullHazard

TAU = 6.0
GAMMA = np.array([2.5, -1.3, 0.2])
Q_DIAG = np.array([0.6, 0.2, 0.3])
R_VAR = np.array([[1.7]])

STUDY_RATES = {(0, 1): 0.1, (0, 2): 0.01, (1, 2): 0.2}
STUDY_ALPHA = {(0, 1): [-0.5, -3.0], (0, 2): [-1.0, -5.0], (1, 2): [0.0, -1.2]}
STUDY_BETA = {(0, 1): [-1.3], (0, 2): [-0.9], (1, 2): [-0.7]}

# (shape, scale) of each Weibull clock-reset baseline
RECURRENT_WEIBULL = {(0, 1): (2.0, 2.2), (1, 0): (2.0, 1.5), (0, 2): (1.0, 60.0), (1, 2): (1.0, 30.0)}
RECURRENT_ALPHA = {(0, 1): [-0.1], (1, 0): [0.1], (0, 2): [-0.2], (1, 2): [-0.2]}
RECURRENT_BETA = {(0, 1): [0.3], (1, 0): [-0.3], (0, 2): [0.2], (1, 2): [0.2]}


@dataclass(frozen=True)
class Families:
    """Constructors of the family and hazard classes a design is built from."""

    regression: type = PiecewiseAffine
    value_slope: type = ValueSlopeLink
    value: type = ValueLink
    exponential: type = ExponentialHazard
    weibull: type = WeibullHazard


@dataclass(frozen=True)
class Model:
    graph: TransitionGraph
    design: ModelDesign
    truth: ModelParams
    init: ModelParams


def _params(alpha, beta) -> ModelParams:
    return ModelParams(
        gamma=GAMMA,
        q_repr=repr_from_cov(np.diag(Q_DIAG), "diag"),
        r_repr=repr_from_cov(R_VAR, "ball"),
        alpha=alpha,
        beta=beta,
    )


def study_model(fam: Families) -> Model:
    """The paper's study with its true parameters and zero/identity start."""
    graph = build_graph(3, sorted(STUDY_RATES), labels=["healthy", "sick", "terminal"])
    regression = fam.regression(TAU)
    link = fam.value_slope(regression)
    design = ModelDesign(
        GammaPlusB(), regression,
        {edge: (fam.exponential(rate), link) for edge, rate in STUDY_RATES.items()},
    )
    init = ModelParams(
        gamma=np.zeros(3),
        q_repr=repr_from_cov(np.eye(3), "diag"),
        r_repr=repr_from_cov(np.eye(1), "ball"),
        alpha={e: np.zeros(2) for e in STUDY_RATES},
        beta={e: np.zeros(1) for e in STUDY_RATES},
    )
    return Model(graph, design, _params(STUDY_ALPHA, STUDY_BETA), init)


def recurrent_model(fam: Families) -> Model:
    """Recurrent 0 <-> 1 design with absorbing state 2 (no fit, so no start)."""
    graph = build_graph(3, sorted(RECURRENT_WEIBULL), labels=["well", "relapse", "dead"])
    regression = fam.regression(TAU)
    link = fam.value(regression)
    design = ModelDesign(
        GammaPlusB(), regression,
        {edge: (fam.weibull(k, s), link) for edge, (k, s) in RECURRENT_WEIBULL.items()},
    )
    truth = _params(RECURRENT_ALPHA, RECURRENT_BETA)
    return Model(graph, design, truth, truth)
