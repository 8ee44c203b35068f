"""Dynamic prediction: condition random effects on the history up to a
truncation time, simulate survival-conditioned continuations, and evaluate
prefix-measurable functionals (state at a time, hitting times), plus the
modal-state accuracy metric."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dataset import Cohort, IndividualRecord, state_occupied_at
from .design import ModelDesign, check_count
from .graph import TransitionGraph, reaches
from .likelihood import LikelihoodEngine
from .params import ModelParams
from .sampler import SamplerConfig, init_chains, run
from .simulate import extend_paths, step_transitions  # noqa: F401
from .streams import RowStreams

# bench/tracing.py patches step_transitions, posterior_condition and
# LikelihoodEngine in this module by name: keep all three importable here.

Prefix = tuple[tuple[float, int], ...]

# a prediction's defaults: posterior draws per individual, and the sampler's
# warm-up and thinning when no sampler configuration is given
DEFAULT_DRAWS = 200
DEFAULT_WARMUP = 500
DEFAULT_THIN = 5

# Conditioning by importance resampling: proposals per requested draw, the
# factor c on the fold's standard deviations, and the most (proposal,
# individual) pairs one posterior_logdensity call weighs
IS_PROPOSALS_PER_DRAW = 5
IS_SCALE = 1.2
IS_BUDGET = 10_000


@dataclass(frozen=True)
class StoppingSpec:
    """A pair of prefix-monotone rules: ``tau`` fires at the index where the
    predicted event is decided, ``kappa`` where it has become impossible.
    Each maps a trajectory prefix to a fired index or None (not yet)."""

    tau: Callable[[Prefix], int | None]
    kappa: Callable[[Prefix], int | None]

    def fired(self, prefix: Prefix) -> bool:
        return self.tau(prefix) is not None or self.kappa(prefix) is not None


@dataclass(frozen=True)
class Functional:
    """Outcome map evaluated on the prefix up to min(tau, kappa)."""

    evaluate: Callable[[int | float, int | float, Prefix], object]

    def __call__(self, spec: StoppingSpec, prefix: Prefix):
        tau = spec.tau(prefix)
        kappa = spec.kappa(prefix)
        tau = np.inf if tau is None else tau
        kappa = np.inf if kappa is None else kappa
        stop = min(tau, kappa)
        kept = prefix if np.isinf(stop) else prefix[: int(stop) + 1]
        return self.evaluate(tau, kappa, kept)


@dataclass
class PredictionResult:
    """Weighted empirical distribution of a functional's outcomes for one
    individual: uniform weights over completed draws; draws cut short by the
    max-transitions guard are counted separately, never silently dropped."""

    outcomes: list
    n_draws: int
    n_horizon_censored: int
    truncation_time: float

    @property
    def weights(self) -> np.ndarray:
        n_ok = len(self.outcomes)
        return np.full(n_ok, 1.0 / n_ok) if n_ok else np.zeros(0)

    @property
    def horizon_censored_fraction(self) -> float:
        return self.n_horizon_censored / self.n_draws if self.n_draws else 0.0

    def distribution(self) -> dict:
        """Outcome -> probability over completed draws (sums to 1)."""
        out: dict = {}
        w = self.weights
        for value, wi in zip(self.outcomes, w):
            out[value] = out.get(value, 0.0) + wi
        return out

    def modal(self):
        """Most likely outcome; ties break toward the smaller outcome."""
        dist = self.distribution()
        best = max(sorted(dist), key=lambda v: dist[v])
        return best


def state_at_time(graph: TransitionGraph, u: float) -> tuple[StoppingSpec, Functional]:
    """Stop at the first index with time >= u or an absorbing state; the
    outcome is the state occupied at u."""

    def tau(prefix: Prefix):
        for idx, (t, s) in enumerate(prefix):
            if t >= u or graph.is_absorbing(s):
                return idx
        return None

    def kappa(prefix: Prefix):
        return None

    return StoppingSpec(tau, kappa), Functional(lambda ti, ki, kept: state_occupied_at(kept, u))


def hitting_time(graph: TransitionGraph, targets: set[int]) -> tuple[StoppingSpec, Functional]:
    """tau fires on entering the target set, kappa when the current state can
    no longer reach it; the outcome is the hitting time, +inf if impossible."""
    targets = set(targets)
    if not targets:
        raise ValueError("the target state set must be non-empty")

    def tau(prefix: Prefix):
        for idx, (_, s) in enumerate(prefix):
            if s in targets:
                return idx
        return None

    def kappa(prefix: Prefix):
        for idx, (_, s) in enumerate(prefix):
            if s in targets:
                return None  # tau fires here first
            if not reaches(graph, {s}, targets):
                return idx
        return None

    def evaluate(tau_idx, kappa_idx, kept: Prefix):
        if np.isfinite(tau_idx):
            return kept[int(tau_idx)][0]
        return np.inf

    return StoppingSpec(tau, kappa), Functional(evaluate)


# --------------------------------------------------------------------------
# Posterior conditioning


def condition_cohort(
    cohort: Cohort,
    t: float,
    design: ModelDesign,
    params: ModelParams,
    graph: TransitionGraph,
    sampler_config: SamplerConfig | None = None,
    n_draws: int = DEFAULT_DRAWS,
    seed: int = 0,
) -> np.ndarray:
    """Draws from p(b | data up to t, theta) for every individual.

    Histories are truncated at t (measurements at times <= t, transitions at
    times <= t, censoring at min(t, C_i), so no follow-up past an
    individual's censoring time is assumed). Returns draws of shape
    (ceil(n_draws / n_chains) * n_chains, n, q), n_chains that of the
    sampler configuration; an n_draws that is not an integer >= 1 raises
    ValueError.

    One engine is built on the truncated cohort; each route runs on the
    engine taken from it for its individuals (``LikelihoodEngine._take``).
    When the engine ``folds``, chunks of at most ``IS_BUDGET //
    (IS_PROPOSALS_PER_DRAW * n_draws)`` individuals (at least one) are
    sampled by importance resampling (:func:`_importance_resample`): K =
    IS_PROPOSALS_PER_DRAW * n_draws proposals from N(mode_i, c^2 H_i^-1),
    the Gaussian of the fold (``_BoundParams.gaussian``) widened by c =
    IS_SCALE, weighed by one ``posterior_logdensity`` call at K chains and
    resampled. An individual whose Kish ESS (sum w)^2 / sum w^2 falls below
    n_draws / 4, and every one when the engine does not fold, is conditioned
    by random-walk MH instead (:func:`_mh_condition`), all in one run. The
    sampler configuration (``warmup``, ``thin``, step adaptation; the
    ``predict.warmup`` and ``predict.thin`` of ``msjoint predict``) steers
    that MH route only; ``n_chains`` also sets the number of draws returned.
    The same seed gives the same draws.
    """
    check_count(n_draws, "n_draws", 1)
    cfg = sampler_config or SamplerConfig(warmup=DEFAULT_WARMUP, thin=DEFAULT_THIN)
    truncated = Cohort(tuple(rec.truncated(t) for rec in cohort), cohort.n_covariates, cohort.n_biomarkers)
    engine = LikelihoodEngine(truncated, design, graph)
    n = engine.n
    keep = int(np.ceil(n_draws / cfg.n_chains))
    draws = np.empty((keep * cfg.n_chains, n, params.q_repr.dim))
    rng = np.random.default_rng(seed)
    n_proposals = IS_PROPOSALS_PER_DRAW * n_draws
    size = max(1, IS_BUDGET // n_proposals)
    ess = np.zeros(n)  # an individual left at 0 goes to MH
    if engine.folds:
        for start in range(0, n, size):
            chunk = slice(start, start + size)
            ess[chunk] = _importance_resample(engine._take(np.arange(n)[chunk]), params, n_proposals, rng, draws[:, chunk])
    to_mh = np.flatnonzero(ess < n_draws / 4)
    if to_mh.size:
        draws[:, to_mh] = _mh_condition(engine._take(to_mh), params, cfg, keep, seed)
    return draws


def _importance_resample(
    engine: LikelihoodEngine,
    params: ModelParams,
    n_proposals: int,
    rng: np.random.Generator,
    out: np.ndarray,
) -> np.ndarray:
    """Sampling-importance resampling (Rubin 1988; Smith and Gelfand 1992)
    of the random effects of the engine's n individuals into ``out`` (draws,
    n, q), for an engine that ``folds``: n_proposals proposals per
    individual drawn from the fold's Gaussian with its covariance scaled by
    IS_SCALE^2 and weighed by the posterior over the proposal density, in
    one ``posterior_logdensity`` call. Each individual's draws are a
    multinomial resample of its proposals, all individuals in one pass.
    Returns each individual's Kish ESS (0 without a finite weight)."""
    bound = engine.bind(params)
    mode, L = bound.gaussian
    n = engine.n
    eps = rng.standard_normal((n, n_proposals, mode.shape[1]))
    b = mode[:, None] + IS_SCALE * (eps @ L.transpose(0, 2, 1))  # (n, K, q)
    # log w = log p(b | data) - log q(b), less a per-record constant
    log_w = engine.posterior_logdensity(bound, b.transpose(1, 0, 2)).T + 0.5 * np.einsum("nks,nks->nk", eps, eps)
    with np.errstate(invalid="ignore"):
        w = np.nan_to_num(np.exp(log_w - log_w.max(axis=1, keepdims=True)))
    tiny = np.finfo(float).tiny
    ess = w.sum(axis=1) ** 2 / np.maximum(np.einsum("nk,nk->n", w, w), tiny)
    # inverse-CDF multinomial resampling: record i's cumulative weights and
    # uniforms are shifted by i, so one sorted search serves every record
    shift = np.arange(n)[:, None]
    cum = np.cumsum(w, axis=1)
    cum /= np.maximum(cum[:, -1:], tiny)
    u = rng.random((n, out.shape[0]))
    pick = np.searchsorted((cum + shift).ravel(), (u + shift).ravel(), side="right").reshape(n, -1)
    pick = np.minimum(pick - n_proposals * shift, n_proposals - 1)  # u + i may round up to i + 1
    out[...] = b[shift, pick].transpose(1, 0, 2)
    return ess


def _mh_condition(
    engine: LikelihoodEngine, params: ModelParams, cfg: SamplerConfig, keep: int, seed: int
) -> np.ndarray:
    """Random-walk MH draws (keep * n_chains, n, q) of the random effects
    of the engine's n individuals, ``cfg.thin`` sweeps apart after
    ``cfg.warmup`` sweeps."""
    bound = engine.bind(params)
    log_density = lambda b: engine.posterior_logdensity(bound, b)  # noqa: E731
    chains = init_chains(engine.n, params.q_repr.dim, log_density, cfg, np.random.default_rng(seed))
    snaps = run(chains, log_density, n_steps=keep * cfg.thin, thin=cfg.thin)
    return snaps.reshape(snaps.shape[0] * snaps.shape[1], engine.n, params.q_repr.dim)


def posterior_condition(
    record: IndividualRecord,
    t: float,
    design: ModelDesign,
    params: ModelParams,
    graph: TransitionGraph,
    sampler_config: SamplerConfig | None = None,
    n_draws: int = DEFAULT_DRAWS,
    seed: int = 0,
) -> np.ndarray:
    """Posterior draws of one individual's random effects given its history
    up to t, (ceil(n_draws / n_chains) * n_chains, q); errors if t precedes
    the initial time. Conditioning follows :func:`condition_cohort`:
    importance resampling of K = IS_PROPOSALS_PER_DRAW * n_draws proposals
    from the fold's Gaussian widened by c = IS_SCALE when the design folds,
    else, or when the Kish ESS of the weights falls below n_draws / 4, MH
    steered by ``sampler_config``, which steers nothing else."""
    draws = condition_cohort(
        Cohort((record,)), t, design, params, graph, sampler_config, n_draws, seed
    )
    return draws[:, 0, :]


# --------------------------------------------------------------------------
# Monte-Carlo prediction


def _continuations(
    record: IndividualRecord,
    t: float,
    design: ModelDesign,
    params: ModelParams,
    graph: TransitionGraph,
    n_draws: int,
    rng: np.random.Generator | int,
    sampler_config: SamplerConfig | None,
    b_draws: np.ndarray | None,
    max_transitions: int,
    cap: float = np.inf,
    stop: Callable[[Prefix], bool] | None = None,
) -> tuple[list[Prefix], int]:
    """Continue the history up to t once per random-effects draw (posterior
    draws unless ``b_draws`` is given, recycled to ``n_draws``) from its last
    transition, so clock-reset hazards keep the sojourn age, conditioned on
    T >= min(t, C). Returns the completed paths and the number of draws cut
    off by the max-transitions guard; an n_draws that is not an integer >= 1
    raises ValueError."""
    check_count(n_draws, "n_draws", 1)
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    if b_draws is None:
        b_draws = posterior_condition(
            record, t, design, params, graph, sampler_config,
            n_draws=n_draws, seed=int(rng.integers(2**63)),
        )
    b_used = b_draws[np.resize(np.arange(b_draws.shape[0]), n_draws)]
    x = np.broadcast_to(record.covariates, (n_draws, record.covariates.shape[0]))
    psi = design.effects.psi(params.gamma, x, b_used)
    prefix = record.trajectory.truncated(t).pairs
    paths = [list(prefix) for _ in range(n_draws)]
    running = extend_paths(
        design, params, x, psi, paths, cap, RowStreams.spawn(rng, n_draws),
        t_surv=min(t, record.censoring_time), max_transitions=max_transitions, stop=stop,
    )
    completed = [tuple(p) for p, r in zip(paths, running) if not r]
    return completed, int(running.sum())


def predict_functional(
    record: IndividualRecord,
    t: float,
    stop_spec: StoppingSpec,
    xi: Functional,
    design: ModelDesign,
    params: ModelParams,
    graph: TransitionGraph,
    n_draws: int = DEFAULT_DRAWS,
    rng: np.random.Generator | int = 0,
    sampler_config: SamplerConfig | None = None,
    b_draws: np.ndarray | None = None,
    max_transitions: int = 10_000,
) -> PredictionResult:
    """Empirical outcome distribution of a functional for one individual.

    Random effects are drawn from their posterior given the history up to t
    (or taken from ``b_draws``); each draw is continued by simulation until
    the stopping pair fires and the functional is evaluated on the prefix.
    """
    prefixes, n_guard = _continuations(
        record, t, design, params, graph, n_draws, rng, sampler_config, b_draws,
        max_transitions, stop=stop_spec.fired,
    )
    return PredictionResult(
        outcomes=[xi(stop_spec, p) for p in prefixes],
        n_draws=n_draws,
        n_horizon_censored=n_guard,
        truncation_time=t,
    )


def predict_state_grid(
    record: IndividualRecord,
    t: float,
    horizons: Sequence[float],
    design: ModelDesign,
    params: ModelParams,
    graph: TransitionGraph,
    n_draws: int = DEFAULT_DRAWS,
    rng: np.random.Generator | int = 0,
    b_draws: np.ndarray | None = None,
    sampler_config: SamplerConfig | None = None,
    max_transitions: int = 10_000,
) -> tuple[np.ndarray, np.ndarray]:
    """State-occupancy distribution at several horizons from one continuation
    batch per draw (capped at the largest horizon).

    Returns (probabilities with shape (n_horizons, n_states), modal states)."""
    horizons = np.asarray(horizons, dtype=float)
    prefixes, _ = _continuations(
        record, t, design, params, graph, n_draws, rng, sampler_config, b_draws,
        max_transitions, cap=float(max(horizons.max(), t)),
    )
    probs = np.zeros((horizons.size, graph.num_states))
    for prefix in prefixes:
        for ui, u in enumerate(horizons):
            probs[ui, state_occupied_at(prefix, u)] += 1.0
    if prefixes:
        probs /= len(prefixes)
    modal = np.argmax(probs, axis=1)  # argmax takes the lowest index on ties
    return probs, modal


def predict_cohort_grid(
    cohort: Cohort,
    t: float,
    horizons: Sequence[float],
    design: ModelDesign,
    params: ModelParams,
    graph: TransitionGraph,
    sampler_config: SamplerConfig | None,
    n_draws: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """State-occupancy distributions (n, n_horizons, n_states) of a cohort
    truncated at t, at horizons capped at each censoring time; also returns
    the capped horizons (n, n_horizons). The cohort is conditioned with a seed
    drawn from ``rng``, then each individual is continued from its own stream
    spawned from ``rng``, in cohort order."""
    draws = condition_cohort(
        cohort, t, design, params, graph, sampler_config, n_draws, int(rng.integers(2**63))
    )
    capped = np.minimum.outer(cohort.censoring_times(), np.asarray(horizons, dtype=float))
    probs = [
        predict_state_grid(
            rec, t, capped[i], design, params, graph, n_draws=n_draws,
            rng=rng.spawn(1)[0], b_draws=draws[:, i, :],
        )[0]
        for i, rec in enumerate(cohort)
    ]
    if not probs:
        return np.zeros((0, capped.shape[1], graph.num_states)), capped
    return np.stack(probs), capped


def accuracy(predicted_states: Sequence[int], true_states: Sequence[int]) -> float:
    """Fraction of individuals whose modal predicted state matches the truth."""
    predicted = np.asarray(predicted_states)
    truth = np.asarray(true_states)
    if predicted.shape != truth.shape:
        raise ValueError(
            f"prediction/truth length mismatch: {predicted.shape} vs {truth.shape}"
        )
    if predicted.size == 0:
        raise ValueError("accuracy needs at least one individual")
    return float(np.mean(predicted == truth))
