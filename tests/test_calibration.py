"""Posterior rank calibration of the conditioning on the paper's study.

``generate_cohort`` draws each individual's b from N(0, Q) at the true theta,
so each individual is one simulation-based calibration replicate: at the
truth, the rank of b_i among independent posterior draws given its history
is uniform (Cook, Gelman and Rubin 2006; Talts et al. 2018). One
``condition_cohort`` call gives n replicates. Four statistics are tested:
the rank of each of the three coordinates of b_i, and the rank of the
individual's semi-Markov term at b_i among its values at the draws, a
data-dependent test quantity that separates defects in the event terms and in
truncation better than the coordinates do (Modrak et al. 2023).

Records are censored U(2, 6) and truncated at t = 8, past every censoring
time, so the truncation must not invent follow-up. Ranks assume independent
draws: a U-shaped histogram means too few effective draws, not necessarily a
wrong posterior. The study folds, so most individuals are conditioned by
importance resampling, whose draws repeat (a resample of 500 weighted
proposals); the rest by MH, whose thin 10 is not checked against
autocorrelation. Both make the draws less than independent, so the test
judges them as they are.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from msjoint import Cohort, LikelihoodEngine, repr_from_cov
from msjoint.predict import condition_cohort
from msjoint.sampler import SamplerConfig
from msjoint.simulate import generate_cohort
from msjoint.study import Q_DIAG

N, M, T_TRUNC, N_DRAWS, BINS = 2000, 20, 8.0, 100, 10
SAMPLER = SamplerConfig(n_chains=5, warmup=400, thin=10)
# Bonferroni over the four statistics at a total level of 1%: each chi-square
# of the rank histogram (BINS - 1 = 9 degrees of freedom) is compared with its
# 1 - 0.01 / 4 = 0.9975 quantile
BOUND = float(stats.chi2.ppf(1.0 - 0.01 / 4, BINS - 1))


def rank_chi2(ranks: np.ndarray, n_draws: int) -> float:
    """Pearson chi-square of ranks in 0..n_draws, grouped into BINS bins,
    against the discrete uniform law of the rank (so unequal bin widths,
    when BINS does not divide n_draws + 1, are accounted for)."""
    values = np.arange(n_draws + 1) * BINS // (n_draws + 1)
    expected = ranks.size * np.bincount(values, minlength=BINS) / (n_draws + 1)
    observed = np.bincount(ranks * BINS // (n_draws + 1), minlength=BINS)
    return float(((observed - expected) ** 2 / expected).sum())


@pytest.fixture(scope="module")
def calibration_cohort(study):
    graph, design, truth, _ = study
    cohort, latent = generate_cohort(design, truth, n=N, m=M, censoring=(2.0, 6.0), seed=12)
    return cohort, latent["b"]


def calibration_chi2(study, calibration_cohort, q_repr) -> list[float]:
    """The four chi-squares (three coordinates, then the semi-Markov term)
    of the cohort conditioned at the truth with the prior Q replaced by
    ``q_repr``."""
    graph, design, truth, _ = study
    cohort, b_true = calibration_cohort
    params = truth if q_repr is None else replace(truth, q_repr=q_repr)
    draws = condition_cohort(cohort, T_TRUNC, design, params, graph, SAMPLER, n_draws=N_DRAWS, seed=1)
    assert draws.shape == (N_DRAWS, N, 3)
    out = [rank_chi2((draws < b_true).sum(axis=0)[:, j], N_DRAWS) for j in range(3)]
    engine = LikelihoodEngine(Cohort(tuple(rec.truncated(T_TRUNC) for rec in cohort)), design, graph)
    bound = engine.bind(params)
    at_truth = engine.loglik_terms(bound, b_true).semi_markov
    at_draws = np.concatenate([engine.loglik_terms(bound, chunk).semi_markov for chunk in np.split(draws, 5)])
    out.append(rank_chi2((at_draws < at_truth).sum(axis=0), N_DRAWS))
    return out


def test_bound_is_the_bonferroni_chi2_quantile():
    assert BOUND == pytest.approx(25.46, abs=0.01)


def test_posterior_ranks_are_uniform_at_the_truth(study, calibration_cohort):
    chi2 = calibration_chi2(study, calibration_cohort, None)
    assert max(chi2) < BOUND, f"rank chi-squares {np.round(chi2, 2)} (b1, b2, b3, semi-Markov), bound {BOUND:.2f}"


def test_halved_prior_covariance_exceeds_the_bound(study, calibration_cohort):
    chi2 = calibration_chi2(study, calibration_cohort, repr_from_cov(np.diag(0.5 * Q_DIAG), "diag"))
    assert max(chi2) > BOUND, f"rank chi-squares {np.round(chi2, 2)} (b1, b2, b3, semi-Markov), bound {BOUND:.2f}"
