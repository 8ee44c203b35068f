"""The paper's three-state simulation study: healthy -> sick -> terminal plus
healthy -> terminal, a piecewise-affine marker with a slope change at tau = 6,
one value+slope link shared by every edge and exponential clock-reset baselines."""

from __future__ import annotations

import numpy as np

from .design import ModelDesign
from .families import GammaPlusB, PiecewiseAffine, ValueSlopeLink
from .graph import TransitionGraph, build_graph
from .hazards import ExponentialHazard
from .params import ModelParams, repr_from_cov

TAU = 6.0
GAMMA = np.array([2.5, -1.3, 0.2])
Q_DIAG = np.array([0.6, 0.2, 0.3])
R = np.array([[1.7]])
RATES = {(0, 1): 0.1, (0, 2): 0.01, (1, 2): 0.2}
ALPHA = {(0, 1): [-0.5, -3.0], (0, 2): [-1.0, -5.0], (1, 2): [0.0, -1.2]}
BETA = {(0, 1): [-1.3], (0, 2): [-0.9], (1, 2): [-0.7]}


def study_model() -> tuple[TransitionGraph, ModelDesign, ModelParams, ModelParams]:
    """(graph, design, truth, init): the study with its true parameters and
    the zero/identity start of its fit."""
    graph = build_graph(3, sorted(RATES), labels=["healthy", "sick", "terminal"])
    regression = PiecewiseAffine(TAU)
    link = ValueSlopeLink(regression)
    design = ModelDesign(
        GammaPlusB(), regression,
        {edge: (ExponentialHazard(rate), link) for edge, rate in RATES.items()},
    )
    truth = ModelParams(
        gamma=GAMMA,
        q_repr=repr_from_cov(np.diag(Q_DIAG), "diag"),
        r_repr=repr_from_cov(R, "ball"),
        alpha=ALPHA,
        beta=BETA,
    )
    init = ModelParams(
        gamma=np.zeros(3),
        q_repr=repr_from_cov(np.eye(3), "diag"),
        r_repr=repr_from_cov(np.eye(1), "ball"),
        alpha={e: np.zeros(2) for e in RATES},
        beta={e: np.zeros(1) for e in RATES},
    )
    return graph, design, truth, init
