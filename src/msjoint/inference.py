"""Stochastic gradient ascent on the marginal log-likelihood through the
Fisher identity, moment-based stopping, Fisher-information estimation and
standard errors."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import Cohort
from .design import ModelDesign, check_count
from .graph import TransitionGraph
from .likelihood import LikelihoodEngine, locate_nonfinite
from .params import ModelParams, flatten, unflatten
from .sampler import SamplerConfig, init_chains, run

MAX_NONFINITE_STREAK = 25
STDERR_COND_LIMIT = 1e12  # eigenvalues below top / limit count as null space
DEFAULT_FIM_SAMPLES = 1000  # posterior draws of a Fisher information estimate


@dataclass
class FitConfig:
    optimizer: str = "adam"
    learning_rate: float = 0.5
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    n_draws: int | None = None  # posterior draws per iteration, thin sweeps apart; default n_chains
    minibatch: int | None = None  # individuals per step; None = full cohort
    max_iterations: int = 500
    schedule_decay: float | None = None  # sgd power schedule eta_0/(t+1)^kappa

    def __post_init__(self):
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        check_count(self.max_iterations, "max_iterations")
        for key in ("minibatch", "n_draws"):  # None: the full cohort, one draw per chain
            if getattr(self, key) is not None:
                check_count(getattr(self, key), key, 1)
        if self.schedule_decay is not None and self.optimizer != "sgd":
            raise ValueError("schedule_decay is the sgd power schedule; adam does not read it")
        if self.schedule_decay is not None and not 0.5 < self.schedule_decay <= 1.0:
            raise ValueError(
                "the power schedule needs 0.5 < kappa <= 1 so that "
                "sum(eta) diverges while sum(eta^2) converges"
            )
        _check_betas(adam_beta1=self.adam_beta1, adam_beta2=self.adam_beta2)
        for key in ("learning_rate", "adam_eps"):
            if not 0.0 < getattr(self, key) < np.inf:
                raise ValueError(f"{key} must be positive and finite, got {getattr(self, key)}")


def _check_betas(**betas: float) -> None:
    """EMA decays must lie in [0, 1): at 1 the bias correction is 0/0."""
    for key, beta in betas.items():
        if not 0.0 <= beta < 1.0:
            raise ValueError(f"{key} must lie in [0, 1), got {beta}")


@dataclass
class StopRule:
    """Stop when bias-corrected EMA moments of consecutive parameter
    differences satisfy |m1_hat| <= atol + rtol * sqrt(m2_hat) in every
    coordinate."""

    beta1: float = 0.9
    beta2: float = 0.9
    atol: float = 1e-6
    rtol: float = 0.1
    m1: np.ndarray | None = field(default=None, init=False, repr=False)
    m2: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        _check_betas(beta1=self.beta1, beta2=self.beta2)
        if not (self.atol >= 0.0 and self.rtol >= 0.0):
            raise ValueError("atol and rtol must be >= 0")

    def reset(self) -> None:
        self.m1 = None
        self.m2 = None


def stop_check(rule: StopRule, prev_theta: np.ndarray, theta: np.ndarray, t: int) -> bool:
    """Update the difference moments with theta - prev_theta and test the
    componentwise stopping bound at step t >= 1."""
    if t < 1:
        raise ValueError("t must be >= 1")
    diff = np.asarray(theta, dtype=float) - np.asarray(prev_theta, dtype=float)
    if rule.m1 is None:
        rule.m1 = np.zeros_like(diff)
        rule.m2 = np.zeros_like(diff)
    rule.m1 = rule.beta1 * rule.m1 + (1.0 - rule.beta1) * diff
    rule.m2 = rule.beta2 * rule.m2 + (1.0 - rule.beta2) * diff**2
    m1_hat = rule.m1 / (1.0 - rule.beta1**t)
    m2_hat = rule.m2 / (1.0 - rule.beta2**t)
    return bool(np.all(np.abs(m1_hat) <= rule.atol + rule.rtol * np.sqrt(m2_hat)))


@dataclass
class FitReport:
    params: ModelParams
    iterations: int
    theta_history: np.ndarray  # (iterations, n_free)
    loglik_history: np.ndarray  # (iterations,)
    stop_reason: str
    param_names: list[str]


class _Adam:
    def __init__(self, size: int, cfg: FitConfig):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self.cfg = cfg

    def step(self, theta: np.ndarray, grad: np.ndarray, lr_mult: float = 1.0) -> np.ndarray:
        cfg = self.cfg
        self.t += 1
        self.m = cfg.adam_beta1 * self.m + (1 - cfg.adam_beta1) * grad
        self.v = cfg.adam_beta2 * self.v + (1 - cfg.adam_beta2) * grad**2
        m_hat = self.m / (1 - cfg.adam_beta1**self.t)
        v_hat = self.v / (1 - cfg.adam_beta2**self.t)
        # ascent on the log-likelihood
        return theta + lr_mult * cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


class _Sgd:
    def __init__(self, size: int, cfg: FitConfig):
        self.t = 0
        self.cfg = cfg

    def step(self, theta: np.ndarray, grad: np.ndarray, lr_mult: float = 1.0) -> np.ndarray:
        eta = self.cfg.learning_rate
        if self.cfg.schedule_decay is not None:  # power schedule
            eta = eta / (self.t + 1) ** self.cfg.schedule_decay
        self.t += 1
        return theta + lr_mult * eta * grad


def fit(
    cohort: Cohort,
    design: ModelDesign,
    graph: TransitionGraph,
    init_params: ModelParams,
    fit_config: FitConfig | None = None,
    stop_rule: StopRule | None = None,
    sampler_config: SamplerConfig | None = None,
    seed: int = 0,
    engine: LikelihoodEngine | None = None,
    callback=None,
) -> FitReport:
    """Maximum-likelihood fit by stochastic gradient ascent.

    Each iteration advances the persistent MH chains under the current
    parameters, averages the complete-data gradient over the retained
    posterior draws (``sampler_config.thin`` sweeps apart), and applies one
    optimizer step; the loop ends when the stopping rule fires on the
    flattened parameter vector or at max_iterations. Fixed seed and a single
    thread give identical reports across runs.
    """
    cfg = fit_config or FitConfig()
    rule = stop_rule or StopRule()
    rule.reset()
    sampler_cfg = sampler_config or SamplerConfig()
    engine = engine or LikelihoodEngine(cohort, design, graph)

    master = np.random.default_rng(seed)
    chain_seed, batch_rng = master.spawn(2)

    params = init_params
    theta = flatten(params)
    layout = params.layout()
    n = len(cohort)

    bound = engine.bind(params)
    log_density = lambda b: engine.posterior_logdensity(bound, b)  # noqa: E731
    chains = init_chains(n, params.q_repr.dim, log_density, sampler_cfg, chain_seed)

    opt = _Adam(layout.size, cfg) if cfg.optimizer == "adam" else _Sgd(layout.size, cfg)
    draws_per_iter = int(np.ceil((cfg.n_draws or sampler_cfg.n_chains) / sampler_cfg.n_chains))
    thin = sampler_cfg.thin

    theta_hist: list[np.ndarray] = []
    ll_hist: list[float] = []
    stop_reason = "max_iterations"
    nonfinite_streak = 0
    iterations = 0

    for t in range(1, cfg.max_iterations + 1):
        iterations = t
        if bound.params is not params:  # bind each theta once; a skipped step keeps it
            bound = None  # at most one bound parameter value alive at a time
            bound = engine.bind(params)
            chains.refresh(log_density)  # log_density reads the current bound
        b_draws = np.concatenate(run(chains, log_density, draws_per_iter * thin, thin=thin))

        subset = None
        scale = 1.0
        if cfg.minibatch is not None and cfg.minibatch < n:
            subset = np.sort(batch_rng.choice(n, size=cfg.minibatch, replace=False))
            scale = n / cfg.minibatch

        grad = engine.grad_theta(bound, b_draws, subset=subset) * scale

        ll_est = float(np.mean(chains.log_post.sum(axis=1)))
        prev_theta = theta
        if np.all(np.isfinite(grad)):
            # after k skipped iterations the next applied step is scaled by 2^-k
            theta = opt.step(theta, grad, 0.5**nonfinite_streak)
            params = unflatten(theta, init_params)
            nonfinite_streak = 0
        else:
            nonfinite_streak += 1
            culprit = locate_nonfinite(engine.loglik_terms(bound, b_draws))
            warnings.warn(
                f"iteration {t}: non-finite gradient"
                + (f" ({culprit})" if culprit else "")
                + "; step skipped, effective step halved"
            )
        theta_hist.append(theta.copy())
        ll_hist.append(ll_est)
        if nonfinite_streak >= MAX_NONFINITE_STREAK:
            stop_reason = f"aborted: {MAX_NONFINITE_STREAK} consecutive non-finite gradients"
            break
        if nonfinite_streak:  # this step was skipped
            continue
        if callback is not None:
            callback(t, params, ll_est)
        if stop_check(rule, prev_theta, theta, t):
            stop_reason = "converged"
            break

    return FitReport(
        params=params,
        iterations=iterations,
        theta_history=np.array(theta_hist) if theta_hist else np.zeros((0, layout.size)),
        loglik_history=np.array(ll_hist),
        stop_reason=stop_reason,
        param_names=layout.names(),
    )


# --------------------------------------------------------------------------
# Fisher information and standard errors


@dataclass(frozen=True)
class FIMEstimate:
    """Monte-Carlo Fisher information over the free parameter coordinates."""

    matrix: np.ndarray
    n_samples: int


def compute_fim(
    cohort: Cohort,
    design: ModelDesign,
    graph: TransitionGraph,
    params: ModelParams,
    sampler_config: SamplerConfig | None = None,
    n_samples: int = DEFAULT_FIM_SAMPLES,
    seed: int = 0,
    engine: LikelihoodEngine | None = None,
) -> FIMEstimate:
    """Average over posterior draws of the summed outer products of
    per-individual complete-data scores, symmetrized.

    ``n_samples`` is the total number of posterior draws (chains times
    sweeps); sampling uses the configured thinning between retained draws.
    Raises ValueError when ``n_samples`` is not an integer >= 1.
    """
    check_count(n_samples, "n_samples", 1)
    sampler_cfg = sampler_config or SamplerConfig()
    engine = engine or LikelihoodEngine(cohort, design, graph)
    bound = engine.bind(params)
    log_density = lambda b: engine.posterior_logdensity(bound, b)  # noqa: E731
    chains = init_chains(len(cohort), params.q_repr.dim, log_density, sampler_cfg, np.random.default_rng(seed))

    layout = params.layout()
    acc = np.zeros((layout.size, layout.size))
    m = 0
    while m < n_samples:
        b = run(chains, log_density, sampler_cfg.thin, thin=sampler_cfg.thin)[0]
        scores = engine.individual_scores(bound, b)
        acc += np.einsum("cnp,cnq->pq", scores, scores)
        m += chains.n_chains
    fim = acc / m
    return FIMEstimate(matrix=0.5 * (fim + fim.T), n_samples=m)


def stderr(fim: FIMEstimate | np.ndarray) -> np.ndarray:
    """sqrt(diag(FIM^-1)); null-space coordinates get +inf with a warning."""
    matrix = fim.matrix if isinstance(fim, FIMEstimate) else np.asarray(fim, dtype=float)
    if matrix.size == 0:
        return np.zeros(0)
    if not np.allclose(matrix, matrix.T, atol=1e-10 * max(1.0, np.abs(matrix).max())):
        raise ValueError("the Fisher information estimate must be symmetric")
    eigval, eigvec = np.linalg.eigh(matrix)
    top = eigval.max() if eigval.size else 0.0
    null = eigval <= max(top, 1.0) / STDERR_COND_LIMIT
    if null.any():
        warnings.warn(
            f"Fisher information is singular or ill-conditioned "
            f"(eigenvalue range [{eigval.min():.3e}, {top:.3e}]); "
            "standard errors of null-space coordinates reported as +inf"
        )
        inv_eig = np.where(null, 0.0, 1.0 / np.where(null, 1.0, eigval))
        var = np.einsum("jk,k,jk->j", eigvec, inv_eig, eigvec)
        loads_null = np.abs(eigvec[:, null]).max(axis=1) > 1e-8
        out = np.sqrt(var)
        out[loads_null] = np.inf
        return out
    return np.sqrt(np.diag(np.linalg.inv(matrix)))
