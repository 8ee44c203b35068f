"""Exact simulation of semi-Markov trajectories and synthetic cohorts.

Event times come from inverse-transform sampling: an Exp(1) threshold is
drawn per competing edge and the cumulative intensity is inverted by
bisection (bracketing by doubling when the censoring cap is infinite).
One loop, :func:`extend_paths`, steps trajectories: each step draws one
candidate time per successor edge and keeps the minimum, and a survival
condition raises the integration lower bound of the first step only. Its
two callers are :func:`sample_trajectories` (cohort generation) and
``predict``, which continues an observed prefix past the truncation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dataset import Cohort, IndividualRecord, Trajectory
from .design import ModelDesign, gauss_legendre, map_nodes, transition_log_intensity
from .params import ModelParams

BISECT_TOL = 1e-9
MAX_BRACKET_DOUBLINGS = 200
MAX_BISECT_ITERS = 200


@dataclass
class SimConfig:
    """Per-cohort simulation settings: censoring times (finite or +inf),
    optional survival conditions (default -inf), master seed, and the
    max-transitions guard against runaway cyclic graphs."""

    censoring: np.ndarray | float = np.inf
    t_surv: np.ndarray | float = -np.inf
    seed: int = 0
    max_transitions: int = 10_000

    def __post_init__(self):
        if self.max_transitions <= 0:
            raise ValueError("max_transitions guard must be positive")


class TrajectoryLimitError(RuntimeError):
    """Raised when a simulated path exceeds the max-transitions guard."""


def _cumulative(intensity_fn: Callable, lower: np.ndarray, upper: np.ndarray, n_quad: int) -> np.ndarray:
    nodes, weights = gauss_legendre(n_quad)
    w, ww = map_nodes(nodes, weights, lower, upper)
    vals = intensity_fn(w)
    if np.any(vals < 0):
        raise RuntimeError("intensity evaluated negative; hazards must be nonnegative")
    return np.sum(vals * ww, axis=-1)


def invert_cumulative_hazard(
    intensity_fn: Callable[[np.ndarray], np.ndarray],
    lower: np.ndarray,
    cap: np.ndarray,
    thresholds: np.ndarray,
    n_quad: int = 32,
    tol: float = BISECT_TOL,
) -> np.ndarray:
    """Vectorized smallest t with integral_lower^t intensity = threshold.

    Entries whose threshold is not reached below ``cap`` (or within the
    doubling bracket for infinite caps) come back as +inf, meaning censored.
    ``intensity_fn`` receives a (batch, n_quad) matrix of absolute times.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    cap = np.broadcast_to(np.asarray(cap, dtype=float), lower.shape).copy()
    thresholds = np.broadcast_to(np.asarray(thresholds, dtype=float), lower.shape)
    out = np.full(lower.shape, np.inf)

    hi = np.where(np.isfinite(cap), cap, lower)
    finite = np.isfinite(cap)
    solvable = np.zeros(lower.shape, dtype=bool)
    if finite.any():
        lam = np.zeros(lower.shape)
        lam[finite] = _cumulative(_restrict(intensity_fn, finite), lower[finite], cap[finite], n_quad)
        solvable |= finite & (lam >= thresholds)
    if (~finite).any():
        # bracket by doubling, starting at max(1, |lower|)
        width = np.maximum(1.0, np.abs(lower))
        active = ~finite
        probe = lower.copy()
        for _ in range(MAX_BRACKET_DOUBLINGS):
            if not active.any():
                break
            probe[active] = lower[active] + width[active]
            lam_a = _cumulative(_restrict(intensity_fn, active), lower[active], probe[active], n_quad)
            reached = np.zeros(lower.shape, dtype=bool)
            reached[active] = lam_a >= thresholds[active]
            hi[reached] = probe[reached]
            solvable |= reached
            active &= ~reached
            width *= 2.0
    if not solvable.any():
        return out

    lo = lower[solvable].copy()
    hi_s = hi[solvable].copy()
    base = lower[solvable]
    thr = thresholds[solvable]
    fn = _restrict(intensity_fn, solvable)
    for _ in range(MAX_BISECT_ITERS):
        if np.max(hi_s - lo) <= tol:
            break
        mid = 0.5 * (lo + hi_s)
        lam_mid = _cumulative(fn, base, mid, n_quad)
        below = lam_mid < thr
        lo = np.where(below, mid, lo)
        hi_s = np.where(below, hi_s, mid)
    # keep the solved time strictly past the lower bound at float resolution
    out[solvable] = np.maximum(0.5 * (lo + hi_s), np.nextafter(base, np.inf))
    return out


def _restrict(intensity_fn: Callable, mask: np.ndarray) -> Callable:
    idx = np.nonzero(mask)[0]

    def fn(w):
        return intensity_fn(w, idx)

    return fn


def sample_event_time(
    intensity_fn: Callable[[np.ndarray], np.ndarray],
    lower: float,
    upper_cap: float,
    rng: np.random.Generator,
    n_quad: int = 32,
    tol: float = BISECT_TOL,
) -> float | None:
    """One inverse-transform event-time draw for a single intensity.

    Draws E ~ Exp(1) and returns the smallest t with Lambda(lower, t) = E by
    bisection, or None (censored) when Lambda(lower, upper_cap) < E.
    ``intensity_fn`` maps an array of absolute times to intensities.
    """
    threshold = rng.standard_exponential()
    t = invert_cumulative_hazard(
        lambda w, idx=None: np.asarray(intensity_fn(w)),
        np.array([lower]),
        np.array([upper_cap]),
        np.array([threshold]),
        n_quad=n_quad,
        tol=tol,
    )[0]
    return None if np.isinf(t) else float(t)


def sample_event_times(
    intensity_fn: Callable[[np.ndarray], np.ndarray],
    lower: float,
    upper_cap: float,
    n_draws: int,
    rng: np.random.Generator,
    n_quad: int = 32,
    tol: float = BISECT_TOL,
) -> np.ndarray:
    """Batched draws from one intensity; censored draws come back as +inf."""
    thresholds = rng.standard_exponential(n_draws)

    def fn(w, idx=None):
        return np.asarray(intensity_fn(w))

    return invert_cumulative_hazard(
        fn,
        np.full(n_draws, float(lower)),
        np.full(n_draws, float(upper_cap)),
        thresholds,
        n_quad=n_quad,
        tol=tol,
    )


# --------------------------------------------------------------------------
# Trajectory sampling (competing edges, one transition at a time)


def _edge_intensity(design, params, edge, x, psi, entry):
    """Batched intensity of one edge: rows follow (x, psi, entry) rows; the
    returned callable accepts (times, active_row_index)."""

    def fn(w, idx=None):
        sel = slice(None) if idx is None else idx
        return np.exp(transition_log_intensity(
            design, params, edge, w, entry[sel, None], x[sel, None, :], psi[sel, None, :]
        ))

    return fn


def step_transitions(
    design: ModelDesign,
    params: ModelParams,
    x: np.ndarray,
    psi: np.ndarray,
    cur_t: np.ndarray,
    cur_s: np.ndarray,
    lower: np.ndarray,
    cap: np.ndarray,
    rngs: Sequence[np.random.Generator],
    active: np.ndarray,
    successors: dict[int, tuple[int, ...]],
    n_quad: int = 32,
) -> tuple[np.ndarray, np.ndarray]:
    """One competing-risks step for every active row: draw a candidate time
    per successor edge and keep the minimum (ties break toward the lowest
    successor state). Rows with no event below cap return +inf."""
    n = cur_t.shape[0]
    t_new = np.full(n, np.inf)
    s_new = np.full(n, -1, dtype=int)
    for state in np.unique(cur_s[active]):
        succ = successors[int(state)]
        rows = np.nonzero(active & (cur_s == state))[0]
        if not succ or rows.size == 0:
            continue
        cand = np.full((len(succ), rows.size), np.inf)
        for j, s in enumerate(succ):
            thresholds = np.array([rngs[i].standard_exponential() for i in rows])
            fn = _edge_intensity(
                design, params, (int(state), int(s)), x[rows], psi[rows], cur_t[rows]
            )
            cand[j] = invert_cumulative_hazard(
                fn, lower[rows], cap[rows], thresholds, n_quad=n_quad
            )
        best = np.argmin(cand, axis=0)  # first minimum = lowest successor index
        t_best = cand[best, np.arange(rows.size)]
        t_new[rows] = t_best
        s_new[rows] = np.where(np.isfinite(t_best), np.asarray(succ)[best], -1)
    return t_new, s_new


def extend_paths(
    design: ModelDesign,
    params: ModelParams,
    x: np.ndarray,
    psi: np.ndarray,
    paths: list[list[tuple[float, int]]],
    cap: np.ndarray | float,
    rngs: Sequence[np.random.Generator],
    t_surv: np.ndarray | float = -np.inf,
    max_transitions: int = 10_000,
    stop: Callable[[tuple], bool] | None = None,
) -> np.ndarray:
    """Extend each (time, state) path in place from its last pair, one
    competing-risks step at a time. A row stops in an absorbing state, at its
    cap, when no event falls below the cap, or when ``stop(prefix)`` fires;
    the survival condition T >= ``t_surv`` bounds the first step only.
    Returns the mask of rows still running after ``max_transitions`` steps."""
    n = len(paths)
    last = [p[-1] for p in paths]
    cur_t = np.array([t for t, _ in last], dtype=float)
    cur_s = np.array([s for _, s in last], dtype=int)
    cap = np.broadcast_to(np.asarray(cap, dtype=float), (n,))
    caps = cap.tolist()
    edges = design.edges
    successors = {k: tuple(sorted(b for a, b in edges if a == k)) for k, _ in edges}

    def running(path, cap_i) -> bool:
        t_i, s_i = path[-1]
        return t_i < cap_i and s_i in successors and not (stop is not None and stop(tuple(path)))

    active = np.array([running(p, c) for p, c in zip(paths, caps)], dtype=bool)
    lower = np.maximum(cur_t, t_surv)
    for _ in range(max_transitions):
        if not active.any():
            break
        t_new, s_new = step_transitions(
            design, params, x, psi, cur_t, cur_s, lower, cap, rngs, active,
            successors, n_quad=design.n_quad,
        )
        moved = np.nonzero(active & np.isfinite(t_new))[0]
        cur_t[moved], cur_s[moved] = t_new[moved], s_new[moved]
        active[:] = False  # rows with no event below the cap stop
        for i, t_i, s_i in zip(moved.tolist(), t_new[moved].tolist(), s_new[moved].tolist()):
            paths[i].append((t_i, s_i))
            active[i] = running(paths[i], caps[i])
        lower = cur_t
    return active


def sample_trajectories(
    design: ModelDesign,
    params: ModelParams,
    x: np.ndarray,
    psi: np.ndarray,
    initial: Sequence[tuple[float, int]] | tuple[float, int],
    sim_config: SimConfig,
    rng: np.random.Generator | None = None,
    rngs: Sequence[np.random.Generator] | None = None,
) -> list[Trajectory]:
    """Simulate one trajectory per row of (x, psi) from its initial pair.

    Follows the one-transition-at-a-time competing construction; the
    survival condition raises the integration lower bound of the first
    transition only. Transitions stop at censoring or in absorbing states;
    exceeding the max-transitions guard raises TrajectoryLimitError.

    Randomness is consumed from one independent stream per row (spawned from
    ``rng`` unless ``rngs`` is given), so each row's trajectory is
    reproducible regardless of batch composition.
    """
    x = np.asarray(x, dtype=float)
    psi = np.asarray(psi, dtype=float)
    n = psi.shape[0]
    if rngs is None:
        master = rng if rng is not None else np.random.default_rng(sim_config.seed)
        rngs = master.spawn(n)
    if len(rngs) != n:
        raise ValueError("one RNG stream per simulated row is required")

    if isinstance(initial, tuple) and np.isscalar(initial[0]):
        initial = [initial] * n
    paths = [[(float(t0), int(s0))] for t0, s0 in initial]
    running = extend_paths(
        design, params, x, psi, paths, sim_config.censoring, rngs,
        t_surv=sim_config.t_surv, max_transitions=sim_config.max_transitions,
    )
    if running.any():
        raise TrajectoryLimitError(
            f"{int(running.sum())} trajectories exceeded the "
            f"{sim_config.max_transitions}-transition guard"
        )
    return [Trajectory(tuple(p)) for p in paths]


def sample_trajectory(
    design: ModelDesign,
    params: ModelParams,
    x: np.ndarray,
    psi: np.ndarray,
    initial: tuple[float, int],
    sim_config: SimConfig,
    rng: np.random.Generator,
) -> Trajectory:
    """Single-path convenience wrapper around :func:`sample_trajectories`."""
    return sample_trajectories(
        design, params, np.atleast_2d(x), np.atleast_2d(psi), [initial], sim_config, rngs=[rng]
    )[0]


def conditioned_equals_rejection(
    design: ModelDesign,
    params: ModelParams,
    x: np.ndarray,
    psi: np.ndarray,
    initial: tuple[float, int],
    t_surv: float,
    n_draws: int,
    seed: int = 0,
    censoring: float = np.inf,
) -> dict[str, np.ndarray]:
    """Diagnostic: first-transition samples from the survival-conditioned
    simulator versus rejection sampling of the unconditioned one.

    Returns the two (time, state) samples; their laws must agree."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    master = np.random.default_rng(seed)

    def first_transitions(cfg, m, rng):
        xs = np.repeat(x, m, axis=0)
        psis = np.repeat(psi, m, axis=0)
        trajs = sample_trajectories(design, params, xs, psis, initial, cfg, rng=rng)
        times = np.array([tr.pairs[1][0] if len(tr) > 1 else np.inf for tr in trajs])
        states = np.array([tr.pairs[1][1] if len(tr) > 1 else -1 for tr in trajs])
        return times, states

    cond_cfg = SimConfig(censoring=censoring, t_surv=t_surv)
    t_cond, s_cond = first_transitions(cond_cfg, n_draws, master.spawn(1)[0])

    t_rej = np.empty(0)
    s_rej = np.empty(0, dtype=int)
    plain_cfg = SimConfig(censoring=censoring)
    rej_rng = master.spawn(1)[0]
    while t_rej.size < n_draws:
        t_all, s_all = first_transitions(plain_cfg, n_draws, rej_rng)
        keep = t_all >= t_surv
        t_rej = np.concatenate([t_rej, t_all[keep]])
        s_rej = np.concatenate([s_rej, s_all[keep]])
    return {
        "conditioned_times": t_cond,
        "conditioned_states": s_cond,
        "rejection_times": t_rej[:n_draws],
        "rejection_states": s_rej[:n_draws],
    }


# --------------------------------------------------------------------------
# Cohort generation


def random_far_apart(
    rng: np.random.Generator,
    n: int,
    m: int,
    low: float,
    high: float,
    min_separation: float,
    max_retries: int = 1000,
) -> np.ndarray:
    """(n, m) sorted grids on [low, high] with consecutive gaps >= delta.

    Sorted uniforms are rejection-sampled per row; rows still violating the
    separation after ``max_retries`` rounds fall back to an equispaced grid
    with bounded jitter (which satisfies the gap constraint by construction).
    """
    if m <= 0:
        return np.zeros((n, 0))
    span = high - low
    if (m - 1) * min_separation > span:
        raise ValueError(
            f"cannot place {m} points with separation {min_separation} in a span of {span}"
        )
    grid = np.sort(rng.uniform(low, high, size=(n, m)), axis=1)
    if m > 1 and min_separation > 0:
        bad = np.nonzero((np.diff(grid, axis=1) < min_separation).any(axis=1))[0]
        for _ in range(max_retries):
            if bad.size == 0:
                break
            redraw = np.sort(rng.uniform(low, high, size=(bad.size, m)), axis=1)
            grid[bad] = redraw
            still = (np.diff(redraw, axis=1) < min_separation).any(axis=1)
            bad = bad[still]
        if bad.size:
            step = span / (m - 1)
            base = low + step * np.arange(m)
            amp = 0.5 * (step - min_separation)
            jitter = rng.uniform(-amp, amp, size=(bad.size, m))
            grid[bad] = np.clip(base + jitter, low, high)
    return grid


def generate_cohort(
    design: ModelDesign,
    params: ModelParams,
    n: int,
    m: int,
    horizon: float = 15.0,
    min_separation: float | None = None,
    censoring=(10.0, 15.0),
    n_covariates: int = 1,
    initial: tuple[float, int] = (0.0, 0),
    seed: int = 0,
    max_transitions: int = 10_000,
) -> tuple[Cohort, dict[str, np.ndarray]]:
    """Draw a synthetic cohort: standard-normal covariates, b ~ N(0, Q),
    measurement grids with a minimum separation, noisy longitudinal rows
    censored past C, and trajectories simulated from the initial pair.

    ``censoring`` is a (low, high) uniform range, a scalar, or +inf.
    Returns the cohort and the latent truth (b, psi).
    """
    rng = np.random.default_rng(seed)
    if isinstance(censoring, (tuple, list)):
        c = rng.uniform(censoring[0], censoring[1], size=n)
    else:
        c = np.full(n, float(censoring))
    x = rng.standard_normal((n, n_covariates))
    q_cov = params.q_repr.covariance()
    chol_q = np.linalg.cholesky(q_cov) if params.q_repr.dim else np.zeros((0, 0))
    b = rng.standard_normal((n, params.q_repr.dim)) @ chol_q.T
    psi = design.effects.psi(params.gamma, x, b)

    delta = min_separation if min_separation is not None else 0.7 * horizon / m
    t_grid = random_far_apart(rng, n, m, 0.0, horizon, delta)

    d = params.r_repr.dim
    r_cov = params.r_repr.covariance()
    chol_r = np.linalg.cholesky(r_cov) if d else np.zeros((0, 0))
    y = design.regression.value(t_grid, psi[:, None, :])
    y = y + rng.standard_normal((n, m, d)) @ chol_r.T
    y[t_grid > c[:, None]] = np.nan

    cfg = SimConfig(censoring=c, seed=seed, max_transitions=max_transitions)
    trajectories = sample_trajectories(design, params, x, psi, initial, cfg, rng=rng)

    records = []
    for i in range(n):
        records.append(
            IndividualRecord(
                covariates=x[i],
                measurement_times=t_grid[i],
                measurements=y[i],
                trajectory=trajectories[i],
                censoring_time=c[i],
            )
        )
    cohort = Cohort(tuple(records), n_covariates=n_covariates, n_biomarkers=d)
    return cohort, {"b": b, "psi": psi}
