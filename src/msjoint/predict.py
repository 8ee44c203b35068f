"""Dynamic prediction: condition random effects on the history up to a
truncation time, simulate survival-conditioned continuations, and evaluate
prefix-measurable functionals (state at a time, hitting times), plus the
modal-state accuracy metric."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dataset import Cohort, IndividualRecord
from .design import ModelDesign
from .graph import TransitionGraph, reaches
from .likelihood import LikelihoodEngine
from .params import ModelParams
from .sampler import SamplerConfig, init_chains, run
from .simulate import extend_paths, step_transitions  # noqa: F401

# bench/tracing.py patches step_transitions, posterior_condition and
# LikelihoodEngine in this module by name: keep all three importable here.

Prefix = tuple[tuple[float, int], ...]


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


def state_occupied_at(prefix: Prefix, u: float) -> int:
    """State held at time u: the state of the last transition at or before u
    (the initial state when u precedes the first time)."""
    state = prefix[0][1]
    for t, s in prefix:
        if t <= u:
            state = s
    return state


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
    n_draws: int = 200,
    seed: int = 0,
) -> np.ndarray:
    """MH draws from p(b | data up to t, theta) for every individual.

    Histories are truncated at t (measurements at times <= t, transitions at
    times <= t, censoring at min(t, C_i), so no follow-up past an
    individual's censoring time is assumed). Returns draws of shape
    (>= n_draws, n, q).
    """
    cfg = sampler_config or SamplerConfig(warmup=500, thin=5)
    truncated = Cohort(tuple(rec.truncated(t) for rec in cohort))
    engine = LikelihoodEngine(truncated, design, graph)
    log_density = lambda b: engine.posterior_logdensity(params, b)  # noqa: E731
    chains = init_chains(len(cohort), params.q_repr.dim, log_density, cfg, np.random.default_rng(seed))
    keep = int(np.ceil(n_draws / cfg.n_chains))
    snaps = run(chains, log_density, n_steps=keep * cfg.thin, thin=cfg.thin)
    return snaps.reshape(-1, len(cohort), params.q_repr.dim)


def posterior_condition(
    record: IndividualRecord,
    t: float,
    design: ModelDesign,
    params: ModelParams,
    graph: TransitionGraph,
    sampler_config: SamplerConfig | None = None,
    n_draws: int = 200,
    seed: int = 0,
) -> np.ndarray:
    """Posterior draws of one individual's random effects given its history
    up to t; errors if t precedes the observed initial time."""
    if t < record.trajectory.pairs[0][0]:
        raise ValueError(
            f"truncation time {t} precedes the observed initial time "
            f"{record.trajectory.pairs[0][0]}"
        )
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
    off by the max-transitions guard."""
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
        design, params, x, psi, paths, cap, rng.spawn(n_draws),
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
    n_draws: int = 200,
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
    n_draws: int = 200,
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
    probs = np.stack([
        predict_state_grid(
            rec, t, capped[i], design, params, graph, n_draws=n_draws,
            rng=rng.spawn(1)[0], b_draws=draws[:, i, :],
        )[0]
        for i, rec in enumerate(cohort)
    ])
    return probs, capped


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
