"""Shared fixtures: the three-state simulation-study model (piecewise-affine
biomarker, value+slope links, exponential clock-reset hazards) and small
cohorts derived from it."""

from __future__ import annotations

import numpy as np
import pytest

from msjoint import Cohort, IndividualRecord, Trajectory
from msjoint.simulate import generate_cohort
from msjoint.study import (  # tests/test_acceptance.py imports the STUDY_* names from here
    ALPHA as STUDY_ALPHA,
    BETA as STUDY_BETA,
    GAMMA as STUDY_GAMMA,
    Q_DIAG as STUDY_Q_DIAG,
    R as STUDY_R,
    RATES as STUDY_RATES,
    study_model,
)

# reference single-run statistics for the three-state study (mean, standard
# error and RMSE per free coordinate, in flatten order)
TABLE_MEAN = np.array([
    2.4960, -1.3039, 0.1936, 0.2243, 0.8009, 0.6001, -0.2684,
    -0.49997, -2.9962, -0.9990, -4.9897, 0.0011, -1.2045,
    -1.3015, -0.8982, -0.6981,
])
TABLE_SE = np.array([
    0.0370, 0.0257, 0.0267, 0.0442, 0.0260, 0.0276, 0.0083,
    0.0486, 0.0800, 0.0847, 0.1191, 0.0327, 0.0429,
    0.0501, 0.0670, 0.0551,
])
TABLE_RMSE = np.array([
    0.0372, 0.0260, 0.0275, 0.0540, 0.0263, 0.0277, 0.0089,
    0.0486, 0.0801, 0.0847, 0.1196, 0.0327, 0.0432,
    0.0501, 0.0670, 0.0551,
])
TRANSITION_COUNTS = {(0, 1): 613, (0, 2): 375, (1, 2): 592}


@pytest.fixture(scope="session")
def study():
    """(graph, design, truth, init) of the paper's study."""
    return study_model()


@pytest.fixture(scope="session")
def study_graph(study):
    return study[0]


@pytest.fixture(scope="session")
def study_design(study):
    return study[1]


@pytest.fixture(scope="session")
def study_params(study):
    return study[2]


@pytest.fixture(scope="session")
def study_init_params(study):
    return study[3]


@pytest.fixture(scope="session")
def study_cohort(study_design, study_params):
    """Full-size study cohort (n=1000, m=20, C ~ U[10, 15])."""
    return generate_cohort(study_design, study_params, n=1000, m=20, seed=42)


@pytest.fixture(scope="session")
def small_cohort(study_design, study_params):
    """A 25-individual cohort for gradient and likelihood tests."""
    cohort, latent = generate_cohort(study_design, study_params, n=25, m=6, seed=5)
    return cohort, latent


def make_single_individual_cohort(trajectory_pairs, censoring, n_meas=0, seed=0, k=1, d=1):
    """One-individual cohort with optional random longitudinal rows."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, censoring if np.isfinite(censoring) else 10.0, n_meas))
    y = rng.normal(size=(n_meas, d))
    rec = IndividualRecord(
        covariates=rng.normal(size=k),
        measurement_times=t,
        measurements=y,
        trajectory=Trajectory(tuple(trajectory_pairs)),
        censoring_time=censoring,
    )
    return Cohort((rec,))
