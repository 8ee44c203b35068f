"""Adaptive random-walk Metropolis-Hastings over random effects, per
individual, with parallel chains and Robbins-Monro step-size adaptation
toward the 0.234 acceptance target.

A :class:`ChainState` draws from one random stream, spawned from the seed
of :func:`init_chains`: each sweep takes the proposals and the acceptance
uniforms of all chains from it at once. A fixed seed reproduces every draw,
and the chains are independent in law, because each chain's draws are
disjoint parts of one stream of independent variates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .design import check_count

TARGET_ACCEPT = 0.234

LogDensity = Callable[[np.ndarray], np.ndarray]
"""Maps b of shape (chains, n, q) to per-(chain, individual) log densities."""


@dataclass
class SamplerConfig:
    n_chains: int = 5
    warmup: int = 500
    target_accept: float = TARGET_ACCEPT
    rm_scale: float = 1.0  # c0 in eta_t = c0 / (t+1)^kappa
    rm_decay: float = 2.0 / 3.0  # kappa; needs sum(eta) = inf, sum(eta^2) < inf
    init_scale: float = 1.0
    thin: int = 1

    def __post_init__(self):
        check_count(self.n_chains, "n_chains", 1)
        check_count(self.warmup, "warmup")
        check_count(self.thin, "thin", 1)
        if not 0.5 < self.rm_decay <= 1.0:
            raise ValueError("rm_decay must lie in (1/2, 1] for Robbins-Monro convergence")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target_accept must lie in (0, 1)")
        if not 0.0 < self.init_scale < np.inf:
            raise ValueError("init_scale must be positive and finite")
        if not 0.0 <= self.rm_scale < np.inf:
            raise ValueError("rm_scale must be >= 0 (0 turns adaptation off) and finite")


@dataclass
class ChainState:
    """Current random-effect samples with cached posterior log-densities.

    ``b`` has shape (chains, n, q); ``step_scale`` and the acceptance
    statistics are per individual (shared across chains, as adaptation acts
    at the individual level). ``rng`` is the one stream every sweep of
    every chain draws from; ``b`` and ``log_post`` are updated in place.
    """

    b: np.ndarray
    log_post: np.ndarray
    step_scale: np.ndarray
    post_warmup_accepts: np.ndarray
    rng: np.random.Generator
    config: SamplerConfig
    sweeps: int = 0
    adapt_steps: int = 0

    @property
    def n_chains(self) -> int:
        return self.b.shape[0]

    @property
    def in_warmup(self) -> bool:
        return self.sweeps < self.config.warmup

    def realized_acceptance(self) -> np.ndarray:
        """Per-individual post-warmup empirical acceptance rate."""
        post_warmup_sweeps = self.sweeps - self.config.warmup
        if post_warmup_sweeps <= 0:
            return np.full(self.b.shape[1], np.nan)
        return self.post_warmup_accepts / (post_warmup_sweeps * self.n_chains)

    def refresh(self, log_density: LogDensity) -> None:
        """Recompute the cached log-density (needed after parameter updates)."""
        self.log_post = np.array(log_density(self.b), dtype=float)


def init_chains(
    n_individuals: int,
    n_effects: int,
    log_density: LogDensity,
    config: SamplerConfig | None = None,
    seed: int | np.random.Generator = 0,
) -> ChainState:
    """Chains initialized at b = 0 (the prior mode) with unit scales, drawing
    from one stream spawned from ``seed`` (an integer or a generator): the
    same seed gives the same draws, and the chains are independent in law."""
    config = config or SamplerConfig()
    master = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    b = np.zeros((config.n_chains, n_individuals, n_effects))
    return ChainState(
        b=b,
        log_post=np.array(log_density(b), dtype=float),
        step_scale=np.full(n_individuals, float(config.init_scale)),
        post_warmup_accepts=np.zeros(n_individuals),
        rng=master.spawn(1)[0],
        config=config,
    )


def _rate(accepted: np.ndarray) -> np.ndarray:
    """Per-individual mean over chains: the reduction and true division that
    ``accepted.mean(axis=0)`` performs, without its dispatch overhead."""
    return accepted.sum(axis=0) / accepted.shape[0]


def mh_step(chains: ChainState, log_density: LogDensity) -> np.ndarray:
    """One random-walk proposal/accept update of every (chain, individual).

    Proposals are isotropic, b' = b + s_i * eps; acceptance uses the
    complete-data log-density as a function of b_i with parameters fixed.
    Non-finite proposal densities are auto-rejected. The proposals and
    acceptance uniforms of all chains are two draws from ``chains.rng``,
    and accepted proposals are copied into ``chains.b`` and
    ``chains.log_post`` in place.

    Returns the (chains, n) array of acceptance indicators.
    """
    eps = chains.rng.standard_normal(chains.b.shape)
    log_u = np.log(chains.rng.random(chains.b.shape[:2]))
    proposal = chains.b + chains.step_scale[:, None] * eps
    lp_prop = np.asarray(log_density(proposal))
    accepted = (log_u < lp_prop - chains.log_post) & np.isfinite(lp_prop)
    np.copyto(chains.b, proposal, where=accepted[..., None])
    np.copyto(chains.log_post, lp_prop, where=accepted)
    return accepted


def adapt_step(chains: ChainState, accepted: np.ndarray) -> None:
    """Robbins-Monro update of the per-individual proposal scales toward the
    target acceptance; to be called during warmup only."""
    cfg = chains.config
    rate = _rate(accepted)
    eta = cfg.rm_scale / (chains.adapt_steps + 1) ** cfg.rm_decay
    chains.step_scale = chains.step_scale * np.exp(eta * (rate - cfg.target_accept))
    chains.adapt_steps += 1


def sweep(chains: ChainState, log_density: LogDensity) -> np.ndarray:
    """One MH step plus warmup-phase adaptation and acceptance accounting."""
    adapting = chains.in_warmup
    accepted = mh_step(chains, log_density)
    if adapting:
        adapt_step(chains, accepted)
    else:
        chains.post_warmup_accepts += accepted.sum(axis=0)
    chains.sweeps += 1
    return accepted


def warmup(chains: ChainState, log_density: LogDensity) -> None:
    """Advance through any remaining warmup sweeps (adaptation enabled)."""
    while chains.in_warmup:
        sweep(chains, log_density)


def run(
    chains: ChainState,
    log_density: LogDensity,
    n_steps: int,
    thin: int = 1,
) -> np.ndarray:
    """Warm up if needed, then advance n_steps retaining every thin-th state.

    Returns an array of shape (floor(n_steps/thin), chains, n, q).
    """
    check_count(thin, "thin", 1)
    warmup(chains, log_density)
    retained = []
    for step in range(1, n_steps + 1):
        sweep(chains, log_density)
        if step % thin == 0:
            retained.append(chains.b.copy())
    if not retained:
        return np.zeros((0,) + chains.b.shape)
    return np.stack(retained)
