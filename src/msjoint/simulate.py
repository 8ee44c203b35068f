"""Exact simulation of semi-Markov trajectories and synthetic cohorts.

Event times come from inverse-transform sampling: an Exp(1) threshold is
drawn per competing edge and the cumulative intensity is inverted by
safeguarded Newton steps inside a bracket (bracketing by doubling when the
censoring cap is infinite). The inversion integrates through
``design.node_intensities``, whose weighted sum is the reference
likelihood's ``design.cumulative_intensity``, so the hazard integral exists
once. Newton starts from the nodes of the probe that bracketed the root,
each step makes one intensity pass (the new segment's nodes and its end),
and both safeguards of ``rtsafe`` apply (see
:func:`invert_cumulative_hazard`).
One loop, :func:`extend_paths`, steps trajectories: each step draws one
candidate time per successor edge and keeps the minimum, and a survival
condition raises the integration lower bound of the first step only. Its
two callers are :func:`sample_trajectories` (cohort generation) and
``predict``, which continues an observed prefix past the truncation time.

Randomness: :func:`sample_trajectories` takes one generator, ``rng``, and
keys one :class:`~msjoint.streams.RowStreams` from it, a counter-based
(Philox) stream per row with no generator object per row.
:func:`extend_paths` and :func:`step_transitions` take those streams; row
r's k-th threshold depends on the key, r and k alone, and the inversion
stops each row on its own bracket, so a row's event times do not depend on
the batch it is stepped in.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .dataset import Cohort, IndividualRecord, Trajectory
from .design import ModelDesign, check_count, node_intensities
from .params import ModelParams
from .streams import RowStreams

BISECT_TOL = 1e-9
MAX_BRACKET_DOUBLINGS = 200
MAX_NEWTON_PASSES = 200
MAX_REJECTION_ROUNDS = 100


class TrajectoryLimitError(RuntimeError):
    """Raised when a simulated path exceeds the max-transitions guard."""


def _probe_start(lower, weights, values, thresholds):
    """Newton's start from a probe over [lower, probe] that reached the
    threshold. The rule's weights tile the probe's span into cells, node k's
    cell ending at lower + the sum of weights 0..k, and the running sum of
    weight x intensity is Lambda at the cell ends; the start is the crossing
    cell's left end plus the rest of the threshold over the intensity at its
    node. Not finite where that intensity is 0."""
    cells = weights * values[:, :-1]
    running = np.cumsum(cells, axis=1)
    k = np.minimum((running < thresholds[:, None]).sum(axis=1), cells.shape[1] - 1)
    rows = np.arange(k.size)
    before = np.where(k > 0, running[rows, k - 1], 0.0)
    left = lower + np.where(k > 0, np.cumsum(weights, axis=1)[rows, k - 1], 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return left + (thresholds - before) / values[rows, k]


def invert_cumulative_hazard(
    intensity: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    lower: np.ndarray,
    cap: np.ndarray,
    thresholds: np.ndarray,
) -> np.ndarray:
    """Vectorized smallest t with Lambda(lower, t) = threshold.

    ``intensity(idx, a, b)`` evaluates rows ``idx`` once over [a, b]: it
    returns the weights of a quadrature rule on [a, b], (rows, n), whose
    cells tile [a, b] in node order, and the intensity at the rule's nodes
    followed by the intensity at b, (rows, n + 1). Lambda(a, b) is the
    weighted sum of the node columns, and the last column is its derivative
    in b. A finite cap is probed once; an infinite one is bracketed by
    doubling from max(1, |lower|). Entries whose threshold is not reached
    below the cap (or within the doubling bracket) come back as +inf,
    meaning censored; so do rows whose finite cap is at or below their lower
    bound, which are never integrated.

    A bracketed row is solved by safeguarded Newton (``rtsafe`` of Press et
    al., *Numerical Recipes*, section 9.4). It starts from the probe's own
    nodes: the crossing cell's left end plus the rest of the threshold over
    the intensity at its node, or else the regula-falsi point of the
    bracket, or else its midpoint. Each pass evaluates the intensity once,
    over the new segment [lo, t] and at t: the segment's weighted sum is
    added to the carried Lambda(lower, lo), the last column gives the Newton
    step, and the bracket (lo, hi) narrows at t. Both of rtsafe's safeguards
    apply: a step that is not finite or leaves the bracket, and a step
    longer than half the step before the last one (the bracket width at
    first), are replaced by the bracket's midpoint. A step shorter than
    ``BISECT_TOL / 2`` is lengthened by that much, to land across the root
    and close the bracket. A row stops when its own bracket is at most
    ``BISECT_TOL`` wide and returns the bracket's midpoint, so its result
    does not depend on the batch.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    cap = np.broadcast_to(np.asarray(cap, dtype=float), lower.shape)
    thresholds = np.broadcast_to(np.asarray(thresholds, dtype=float), lower.shape)
    out = np.full(lower.shape, np.inf)

    def evaluate(idx, a, b):
        weights, values = intensity(idx, a, b)
        got = np.sum(values[:, :-1] * weights, axis=-1)
        if np.any(got < 0):
            raise RuntimeError("cumulative hazard evaluated negative; hazards must be nonnegative")
        return got, weights, values

    finite = np.isfinite(cap)
    hi = np.where(finite, cap, lower)
    f_hi = np.zeros(lower.shape)
    start = np.full(lower.shape, np.nan)
    width = np.maximum(1.0, np.abs(lower))
    solvable = np.zeros(lower.shape, dtype=bool)
    active = ~finite | (cap > lower)
    for _ in range(MAX_BRACKET_DOUBLINGS):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        probe = np.where(finite[idx], cap[idx], lower[idx] + width[idx])
        f_probe, weights, values = evaluate(idx, lower[idx], probe)
        reached = f_probe >= thresholds[idx]
        got = idx[reached]
        hi[got] = probe[reached]
        f_hi[got] = f_probe[reached]
        start[got] = _probe_start(lower[got], weights[reached], values[reached], thresholds[got])
        solvable[got] = True
        active[idx] = ~(finite[idx] | reached)
        width *= 2.0

    idx = np.nonzero(solvable)[0]
    if idx.size == 0:
        return out
    lo, f_lo = lower[idx], np.zeros(idx.size)
    hi, thr = hi[idx], thresholds[idx]
    # a zero or infinite Lambda(lower, hi) or intensity gives a non-finite
    # point, which fails the bracket check
    quiet = dict(divide="ignore", invalid="ignore", over="ignore")
    with np.errstate(**quiet):
        falsi = lo + (thr / f_hi[idx]) * (hi - lo)
    t = start[idx]
    for fallback in (falsi, 0.5 * (lo + hi)):
        t = np.where((t > lo) & (t < hi), t, fallback)
    dx = dx_old = hi - lo
    for _ in range(MAX_NEWTON_PASSES):
        segment, _, values = evaluate(idx, lo, t)
        f = f_lo + segment
        below = f < thr
        lo, f_lo, hi = np.where(below, t, lo), np.where(below, f, f_lo), np.where(below, hi, t)
        with np.errstate(**quiet):
            step = (thr - f) / values[:, -1]
        short = np.abs(step) < 0.5 * BISECT_TOL
        step[short] += np.where(below[short], 0.5, -0.5) * BISECT_TOL
        t = t + step
        newton = (t > lo) & (t < hi) & (np.abs(step) <= 0.5 * dx_old)
        dx, dx_old = np.where(newton, np.abs(step), 0.5 * (hi - lo)), dx
        t = np.where(newton, t, 0.5 * (lo + hi))
        done = hi - lo <= BISECT_TOL
        if done.any():
            out[idx[done]] = 0.5 * (lo[done] + hi[done])
            keep = ~done
            idx, lo, f_lo, hi, thr, t, dx, dx_old = (v[keep] for v in (idx, lo, f_lo, hi, thr, t, dx, dx_old))
            if idx.size == 0:
                break
    out[idx] = 0.5 * (lo + hi)  # rows still open after MAX_NEWTON_PASSES passes
    # keep each solved time strictly past its lower bound at float resolution
    solved = np.isfinite(out)
    out[solved] = np.maximum(out[solved], np.nextafter(lower[solved], np.inf))
    return out


# --------------------------------------------------------------------------
# Trajectory sampling (competing edges, one transition at a time)


def _edge_intensity(design, params, edge, x, psi, entry):
    """One edge's intensity for rows of (x, psi, entry), as
    :func:`invert_cumulative_hazard` takes it: (row index, a, b) maps to the
    split rule's weights on [a, b] and the intensity at its nodes and at b,
    from :func:`~msjoint.design.node_intensities`, whose weighted sum is
    ``cumulative_intensity``."""

    def intensity(idx, a, b):
        return node_intensities(design, params, edge, entry[idx], b, x[idx], psi[idx], lower=a, at=b)

    return intensity


def step_transitions(
    design: ModelDesign,
    params: ModelParams,
    x: np.ndarray,
    psi: np.ndarray,
    cur_t: np.ndarray,
    cur_s: np.ndarray,
    lower: np.ndarray,
    cap: np.ndarray,
    streams: RowStreams,
    active: np.ndarray,
    successors: dict[int, tuple[int, ...]],
) -> tuple[np.ndarray, np.ndarray]:
    """One competing-risks step for every active row: draw a candidate time
    per successor edge and keep the minimum (ties break toward the lowest
    successor state). Each active row draws one threshold per successor
    edge from its row of ``streams``, all in one batch: the j-th successor's
    at the row's count + j. Rows with no event below cap return +inf.

    Each later edge is inverted with the row's running minimum as its cap,
    so an edge that cannot beat the earliest candidate so far stops after
    its one probe, at +inf. A row's cap depends on its own candidates only,
    so event times still do not depend on the batch; an edge solved to
    exactly that cap loses the tie to the earlier one."""
    n = cur_t.shape[0]
    t_new = np.full(n, np.inf)
    s_new = np.full(n, -1, dtype=int)
    for state in np.unique(cur_s[active]):
        succ = successors[int(state)]
        rows = np.nonzero(active & (cur_s == state))[0]
        cand = np.full((len(succ), rows.size), np.inf)
        thresholds = streams.exponential(rows, len(succ))
        bound = cap[rows]
        for j, s in enumerate(succ):
            edge = (int(state), int(s))
            intensity = _edge_intensity(design, params, edge, x[rows], psi[rows], cur_t[rows])
            cand[j] = invert_cumulative_hazard(intensity, lower[rows], bound, thresholds[j])
            bound = np.minimum(bound, cand[j])
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
    streams: RowStreams,
    t_surv: np.ndarray | float = -np.inf,
    max_transitions: int = 10_000,
    stop: Callable[[tuple], bool] | None = None,
) -> np.ndarray:
    """Extend each (time, state) path in place from its last pair, one
    competing-risks step at a time, path i drawing from row i of
    ``streams``. A row stops in an absorbing state, at its cap, when no event
    falls below the cap, or when ``stop(prefix)`` fires; the survival
    condition T >= ``t_surv`` bounds the first step only. Returns the mask
    of rows still running after ``max_transitions`` (an integer >= 1) steps."""
    check_count(max_transitions, "max_transitions", 1)
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
            design, params, x, psi, cur_t, cur_s, lower, cap, streams, active, successors
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
    rng: np.random.Generator,
    censoring: np.ndarray | float = np.inf,
    t_surv: np.ndarray | float = -np.inf,
    max_transitions: int = 10_000,
) -> list[Trajectory]:
    """Simulate one trajectory per row of (x, psi) from its initial pair.

    Follows the one-transition-at-a-time competing construction; the
    survival condition T >= ``t_surv`` raises the integration lower bound of
    the first transition only. Transitions stop at ``censoring`` or in
    absorbing states; exceeding ``max_transitions`` raises
    TrajectoryLimitError.
    ``initial`` is one (time, state) pair for every row, or a list of one
    pair per row; a list of another length raises ValueError.

    ``rng`` is the call's one source of randomness: it is spawned from
    once, for the key of ``RowStreams.spawn(rng, n)``, and row i draws only
    from row i of those streams. :func:`extend_paths` stops each row's
    inversion on its own bracket, so a row's trajectory depends on the key
    and its row alone, not on the batch.
    """
    x = np.asarray(x, dtype=float)
    psi = np.asarray(psi, dtype=float)
    n = psi.shape[0]
    if isinstance(initial, tuple) and np.isscalar(initial[0]):
        initial = [initial] * n
    if len(initial) != n:
        raise ValueError(f"{len(initial)} initial pairs for {n} rows of (x, psi)")
    paths = [[(float(t0), int(s0))] for t0, s0 in initial]
    running = extend_paths(
        design, params, x, psi, paths, censoring, RowStreams.spawn(rng, n),
        t_surv=t_surv, max_transitions=max_transitions,
    )
    if running.any():
        raise TrajectoryLimitError(
            f"{int(running.sum())} trajectories exceeded the "
            f"{max_transitions}-transition guard"
        )
    return [Trajectory(tuple(p)) for p in paths]


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

    Returns the two (time, state) samples; their laws must agree. Raises
    RuntimeError when rejection has not gathered ``n_draws`` accepted draws
    after ``MAX_REJECTION_ROUNDS`` rounds of ``n_draws`` paths each."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    master = np.random.default_rng(seed)

    def first_transitions(lower, m, rng):
        xs = np.repeat(x, m, axis=0)
        psis = np.repeat(psi, m, axis=0)
        trajs = sample_trajectories(design, params, xs, psis, initial, rng, censoring=censoring, t_surv=lower)
        times = np.array([tr.pairs[1][0] if len(tr) > 1 else np.inf for tr in trajs])
        states = np.array([tr.pairs[1][1] if len(tr) > 1 else -1 for tr in trajs])
        return times, states

    t_cond, s_cond = first_transitions(t_surv, n_draws, master.spawn(1)[0])

    t_rej = np.empty(0)
    s_rej = np.empty(0, dtype=int)
    rej_rng = master.spawn(1)[0]
    rounds = 0
    while t_rej.size < n_draws:
        if rounds == MAX_REJECTION_ROUNDS:
            raise RuntimeError(
                f"rejection sampling stopped after {rounds} rounds: acceptance rate "
                f"{t_rej.size / (rounds * n_draws):.3g} gave {t_rej.size} of {n_draws} draws"
            )
        t_all, s_all = first_transitions(-np.inf, n_draws, rej_rng)
        keep = t_all >= t_surv
        t_rej = np.concatenate([t_rej, t_all[keep]])
        s_rej = np.concatenate([s_rej, s_all[keep]])
        rounds += 1
    return {
        "conditioned_times": t_cond,
        "conditioned_states": s_cond,
        "rejection_times": t_rej[:n_draws],
        "rejection_states": s_rej[:n_draws],
    }


# --------------------------------------------------------------------------
# Cohort generation


def _push_apart(grid: np.ndarray, delta: float) -> None:
    """Raise each column of a row-sorted grid in place until its float64
    difference from the previous column is >= delta; where ``prev + delta``
    rounds short, one ulp more suffices, as rounding is monotone."""
    for k in range(1, grid.shape[1]):
        prev, cur = grid[:, k - 1], grid[:, k]
        np.maximum(cur, prev + delta, out=cur)
        short = cur - prev < delta
        cur[short] = np.nextafter(cur[short], np.inf)


def random_far_apart(
    rng: np.random.Generator,
    n: int,
    m: int,
    low: float,
    high: float,
    min_separation: float,
) -> np.ndarray:
    """(n, m) sorted grids on [low, high], each uniform over the grids whose
    consecutive gaps are all >= delta = ``min_separation``, in one draw: m sorted
    uniforms on [low, high - (m-1) delta], the k-th shifted by k delta, a
    volume-preserving bijection onto those grids (the spacing transform; Devroye
    1986, *Non-Uniform Random Variate Generation*, ch. V). Rounding is repaired
    by ulps, so that in float64 every ``np.diff`` gap is >= delta and every point
    lies in [low, high]. Raises ValueError for a negative delta or when no such
    grid fits."""
    if min_separation < 0:
        raise ValueError(f"min_separation must be nonnegative, got {min_separation}")
    top = high - (m - 1) * min_separation
    if top < low:
        raise ValueError(f"cannot place {m} points {min_separation} apart in a span of {high - low}")
    grid = np.sort(rng.uniform(low, top, size=(n, m)), axis=1)
    if m == 0 or min_separation == 0:
        return grid
    grid += min_separation * np.arange(m)
    _push_apart(grid, min_separation)
    over = grid[:, -1] > high
    if over.any():  # the same repair on the mirrored rows, down from high
        mirrored = -grid[over, ::-1]
        mirrored[:, 0] = -high
        _push_apart(mirrored, min_separation)
        grid[over] = -mirrored[:, ::-1]
        if (grid[:, 0] < low).any():
            raise ValueError(f"cannot place {m} points {min_separation} apart in [{low}, {high}] in float64")
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
    Returns the cohort and the latent truth (b, psi). ``n`` and ``m`` must be
    integers >= 0.
    """
    check_count(n, "n")
    check_count(m, "m")
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

    delta = min_separation
    if delta is None:
        delta = 0.7 * horizon / m if m else 0.0
    t_grid = random_far_apart(rng, n, m, 0.0, horizon, delta)

    d = params.r_repr.dim
    r_cov = params.r_repr.covariance()
    chol_r = np.linalg.cholesky(r_cov) if d else np.zeros((0, 0))
    y = design.regression.value(t_grid, psi[:, None, :])
    y = y + rng.standard_normal((n, m, d)) @ chol_r.T
    y[t_grid > c[:, None]] = np.nan

    trajectories = sample_trajectories(
        design, params, x, psi, initial, rng, censoring=c, max_transitions=max_transitions
    )

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
