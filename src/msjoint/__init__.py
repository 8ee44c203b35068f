"""Joint models of nonlinear longitudinal biomarkers and multi-state
semi-Markov event processes on arbitrary directed graphs."""

from .dataset import Cohort, IndividualRecord, Trajectory, validate_cohort
from .design import ModelDesign, cumulative_intensity, gauss_legendre, transition_log_intensity
from .graph import TransitionGraph, build_buckets, build_graph, reaches
from .likelihood import (
    LikelihoodEngine,
    LogLikTerms,
    longitudinal_loglik,
    prior_loglik,
    semi_markov_loglik,
)
from .params import ModelParams, PrecisionRepr, Sharing, flatten, repr_from_cov, unflatten

__all__ = [
    "Cohort",
    "IndividualRecord",
    "Trajectory",
    "validate_cohort",
    "ModelDesign",
    "cumulative_intensity",
    "gauss_legendre",
    "transition_log_intensity",
    "TransitionGraph",
    "build_buckets",
    "build_graph",
    "reaches",
    "LikelihoodEngine",
    "LogLikTerms",
    "longitudinal_loglik",
    "prior_loglik",
    "semi_markov_loglik",
    "ModelParams",
    "PrecisionRepr",
    "Sharing",
    "flatten",
    "repr_from_cov",
    "unflatten",
]

__version__ = "0.1.0"
