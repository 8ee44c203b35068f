"""Independent references and the checks the workloads run on their outputs.

Nothing here calls the program's families, hazards, quadrature or
simulator: the marker, the intensities and their integrals are written out
again from the model's definition. The one exception is the individual-score
check, whose oracle is the per-individual reference likelihood in
``msjoint.likelihood`` (the form the engine's tests are checked against).

Every ``check_*`` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from msjoint.likelihood import longitudinal_loglik, prior_loglik, semi_markov_loglik
from msjoint.params import flatten, unflatten

import study

TABLE = json.loads((Path(__file__).with_name("reference_table.json")).read_text())

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
MC_Z = 5.0  # Monte-Carlo agreement bound, in aggregated standard errors
KS_LIMIT = 2.7  # sqrt(n) * D above this has p < 1e-6 under uniformity
FD_TOL = 1e-4


# --------------------------------------------------------------------------
# The marker and the intensities, from the model's definition


def marker(t, psi):
    """h(t) and dh/dt of the piecewise-affine marker (slope psi2, then psi3
    after tau); ``t`` broadcasts against psi[..., 0]."""
    t = np.asarray(t, dtype=float)
    p1, p2, p3 = psi[..., 0], psi[..., 1], psi[..., 2]
    after = t > study.TAU
    h = p1 + p2 * t + np.where(after, (p3 - p2) * (t - study.TAU), 0.0)
    return h, np.where(after, p3, p2)


def log_intensity(design_name, edge, t, entry, psi, x):
    """log lambda of one edge at absolute times t, shape (rows, nodes) or
    (1, nodes), for sojourns entered at ``entry`` (rows,); psi is (rows, 3)
    and x is (rows, k) or one individual's (k,)."""
    h, slope = marker(t, psi[:, None, :])
    if design_name == "study":
        a0, a1 = study.STUDY_ALPHA[edge]
        base = np.log(study.STUDY_RATES[edge])
        link = a0 * h + a1 * slope
        beta = study.STUDY_BETA[edge]
    else:
        k, sigma = study.RECURRENT_WEIBULL[edge]
        base = np.log(k / sigma)
        if k != 1.0:
            with np.errstate(divide="ignore"):  # zero-width pieces put nodes on the entry
                base = base + (k - 1.0) * np.log((t - entry[:, None]) / sigma)
        link = study.RECURRENT_ALPHA[edge][0] * h
        beta = study.RECURRENT_BETA[edge]
    xb = np.asarray(x, dtype=float) @ np.asarray(beta)
    return base + link + xb[..., None]


def cumulative(design_name, edge, entry, a, b, psi, x, panels=8):
    """Integral of the intensity over [a, b] per row: composite 16-node
    Gauss-Legendre on [a, m] and [m, b] with m = tau clipped into [a, b], so
    that no panel straddles the marker's kink."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = np.clip(study.TAU, a, b)
    total = np.zeros(a.shape)
    for lo, hi in ((a, mid), (mid, b)):
        width = (hi - lo) / panels
        for p in range(panels):
            t = (lo + p * width)[:, None] + 0.5 * width[:, None] * (GL_NODES + 1.0)
            lam = np.exp(log_intensity(design_name, edge, t, entry, psi, x))
            total += 0.5 * width * (lam @ GL_WEIGHTS)
    return total


def _study_cum(edge, psi, x, a, b):
    """Closed-form integral of a study edge's intensity over [a, b]: on each
    side of tau its log is affine in t (affine marker, constant slope,
    exponential baseline). Rows follow psi, columns follow b; a is scalar."""
    a0, a1 = study.STUDY_ALPHA[edge]
    rest = np.log(study.STUDY_RATES[edge]) + float(np.asarray(x) @ np.asarray(study.STUDY_BETA[edge]))
    p1, p2, p3 = (psi[:, j, None] for j in range(3))
    b = np.asarray(b, dtype=float)[None, :]
    m = np.clip(study.TAU, a, b)
    before = _int_exp_affine(rest + a0 * p1 + a1 * p2, a0 * p2, a, m)
    after = _int_exp_affine(rest + a0 * (p1 + (p2 - p3) * study.TAU) + a1 * p3, a0 * p3, m, b)
    return before + after


def _int_exp_affine(c, d, lo, hi):
    # integral of exp(c + d t) over [lo, hi], exact also as d -> 0
    safe = np.where(d == 0.0, 1.0, d)
    return np.exp(c + d * lo) * np.where(d == 0.0, hi - lo, np.expm1(d * (hi - lo)) / safe)


def illness_death_probs(psi, x, t, state, horizons, panels=4):
    """State probabilities at each horizon (> t) given the state at t, per
    psi row: shape (draws, horizons, 3). Exponential baselines make the
    study Markov in absolute time given psi; P(sick at u) integrates
    S_0(t, v) lambda_01(v) S_1(v, u) over v by composite Gauss-Legendre on
    panels between t, tau and the horizons."""
    horizons = np.asarray(horizons, dtype=float)
    out = np.zeros((psi.shape[0], horizons.size, 3))
    if state == 2:
        out[..., 2] = 1.0
        return out
    l12 = _study_cum((1, 2), psi, x, t, horizons)
    if state == 1:
        out[..., 1] = np.exp(-l12)
        out[..., 2] = 1.0 - out[..., 1]
        return out
    cuts = np.unique(np.concatenate([[t], horizons, [study.TAU] if t < study.TAU < horizons.max() else []]))
    running = np.zeros((psi.shape[0], cuts.size))
    for j in range(1, cuts.size):
        width = (cuts[j] - cuts[j - 1]) / panels
        for p in range(panels):
            v = cuts[j - 1] + p * width + 0.5 * width * (GL_NODES + 1.0)
            exponent = (
                log_intensity("study", (0, 1), v[None, :], None, psi, x)
                - _study_cum((0, 1), psi, x, t, v) - _study_cum((0, 2), psi, x, t, v)
                + _study_cum((1, 2), psi, x, t, v)
            )
            running[:, j] += 0.5 * width * (np.exp(exponent) @ GL_WEIGHTS)
    integral = np.cumsum(running, axis=1)[:, np.searchsorted(cuts, horizons)]
    out[..., 0] = np.exp(-_study_cum((0, 1), psi, x, t, horizons) - _study_cum((0, 2), psi, x, t, horizons))
    out[..., 1] = np.exp(-l12) * integral
    out[..., 2] = 1.0 - out[..., 0] - out[..., 1]
    return out


def sojourn_uniforms(design_name, graph, cohort, psi):
    """(1 - e^{-Lambda(T)}) / (1 - e^{-Lambda(C)}) for every sojourn that ends
    in a transition, Lambda being the total intensity out of the sojourn's
    state from its entry; uniform on (0, 1) under the model."""
    rows = []  # (individual, state, entry, exit, censoring)
    for i, rec in enumerate(cohort):
        pairs = rec.trajectory.pairs
        for (t0, s0), (t1, _) in zip(pairs, pairs[1:]):
            rows.append((i, s0, t0, t1, rec.censoring_time))
    if not rows:
        return np.zeros(0)
    arr = np.array(rows)
    idx, state, entry, exit_, cens = arr[:, 0].astype(int), arr[:, 1].astype(int), arr[:, 2], arr[:, 3], arr[:, 4]
    x = np.array([rec.covariates for rec in cohort])
    lam_t = np.zeros(len(rows))
    lam_c = np.zeros(len(rows))
    for s in np.unique(state):
        sel = state == s
        for succ in graph.successors(int(s)):
            edge = (int(s), succ)
            args = (psi[idx[sel]], x[idx[sel]])
            lam_t[sel] += cumulative(design_name, edge, entry[sel], entry[sel], exit_[sel], *args)
            lam_c[sel] += cumulative(design_name, edge, entry[sel], entry[sel], cens[sel], *args)
    return np.expm1(-lam_t) / np.expm1(-lam_c)


def ks_uniform(u: np.ndarray) -> float:
    """sqrt(n) times the Kolmogorov-Smirnov distance to Uniform(0, 1)."""
    u = np.sort(np.asarray(u, dtype=float))
    n = u.size
    ranks = np.arange(1, n + 1) / n
    d = max(np.max(ranks - u), np.max(u - (ranks - 1.0 / n)))
    return float(np.sqrt(n) * d)


# --------------------------------------------------------------------------
# Checks


def table_deviation(estimate: np.ndarray) -> np.ndarray:
    """|estimate - table mean| in reference standard errors, per coordinate."""
    return np.abs(estimate - np.array(TABLE["mean"])) / np.array(TABLE["se"])


def check_table(estimate: np.ndarray, bound: float = 4.0) -> list[str]:
    """Estimates within ``bound`` reference standard errors of the table means."""
    dev = table_deviation(estimate)
    worst = int(np.argmax(dev))
    if dev[worst] > bound:
        return [f"estimate {TABLE['names'][worst]} lies {dev[worst]:.2f} reference SE from the table mean (> {bound})"]
    return []


def check_ascent(loglik: np.ndarray, window: int = 10) -> list[str]:
    """Stochastic ascent from the zero start raises the log-likelihood estimate."""
    loglik = np.asarray(loglik, dtype=float)
    if loglik.size < 2 * window or not np.all(np.isfinite(loglik)):
        return [f"log-likelihood history of {loglik.size} entries is too short or non-finite"]
    first, last = loglik[:window].mean(), loglik[-window:].mean()
    if not last > first:
        return [f"log-likelihood estimate fell from {first:.1f} to {last:.1f}"]
    return []


def reference_loglik(rec, b, params, design, graph) -> float:
    """Per-individual complete-data log-likelihood from the reference forms."""
    psi = np.asarray(params.gamma) + b  # the study's psi = gamma + b
    return (
        float(prior_loglik(b, params.q_repr))
        + longitudinal_loglik(rec, psi, params.r_repr, design)
        + semi_markov_loglik(rec, psi, params, design, graph)
    )


def check_close(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> list[str]:
    """Relative agreement err / max(1, |got|, |want|) <= tol, elementwise."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.abs(got - want) / np.maximum(1.0, np.maximum(np.abs(got), np.abs(want)))
    if not np.all(np.isfinite(got)) or err.max() > tol:
        return [f"{name}: worst relative error {np.nanmax(err):.2e} (> {tol:.0e})"]
    return []


def fd_scores(records, b, params, design, graph) -> np.ndarray:
    """Central finite differences of the reference per-individual
    log-likelihoods in the flattened free parameters: (individuals, n_free)."""
    theta = flatten(params)
    out = np.zeros((len(records), theta.size))
    for j in range(theta.size):
        h = 1e-5 * max(1.0, abs(theta[j]))
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        p_up, p_down = unflatten(up, params), unflatten(down, params)
        for i, rec in enumerate(records):
            out[i, j] = (reference_loglik(rec, b[i], p_up, design, graph)
                         - reference_loglik(rec, b[i], p_down, design, graph)) / (2 * h)
    return out


def check_fim(matrix: np.ndarray, stderrs: np.ndarray) -> list[str]:
    problems = []
    if not np.array_equal(matrix, matrix.T):
        problems.append("Fisher information is not symmetric")
    eig = np.linalg.eigvalsh(0.5 * (matrix + matrix.T))
    if not eig.min() > 0:
        problems.append(f"Fisher information is not positive definite (smallest eigenvalue {eig.min():.3e})")
    if not np.all(np.isfinite(stderrs) & (stderrs > 0)):
        problems.append("standard errors are not finite and positive")
    return problems


def check_past_mass(probs: np.ndarray, horizons, t: float, trajectory) -> list[str]:
    """Rows sum to one; at u <= t all mass is on the observed state."""
    problems = []
    if not np.allclose(probs.sum(axis=1), 1.0, atol=1e-12):
        problems.append(f"state probabilities at t={t} do not sum to one")
    for u, row in zip(horizons, probs):
        if u <= t and row[trajectory.state_at(u)] != 1.0:
            problems.append(f"at u={u} <= t={t} mass {row[trajectory.state_at(u)]} on the observed state")
    return problems


class SweepAgreement:
    """Aggregates, per (truncation, horizon, state), the predicted and the
    reference probabilities over individuals together with the Monte-Carlo
    variance of the prediction (one simulated path per psi draw)."""

    def __init__(self):
        self.cells: dict[tuple, np.ndarray] = {}

    def add(self, t, horizon_index, probs_row, ref):
        # ref: (draws, 3) probabilities given each draw
        cell = self.cells.setdefault((t, horizon_index), np.zeros((3, 3)))
        cell[0] += probs_row
        cell[1] += ref.mean(axis=0)
        cell[2] += (ref * (1.0 - ref)).sum(axis=0) / ref.shape[0] ** 2

    def problems(self, bound: float = MC_Z) -> list[str]:
        out = []
        for (t, ui), (pred, ref, var) in sorted(self.cells.items()):
            for s in range(3):
                diff = pred[s] - ref[s]
                sd = np.sqrt(var[s])
                if (sd == 0 and abs(diff) > 1e-9) or (sd > 0 and abs(diff) / sd > bound):
                    out.append(
                        f"t={t} horizon #{ui} state {s}: predicted {pred[s]:.3f} vs reference "
                        f"{ref[s]:.3f} summed over individuals ({diff / sd if sd else np.inf:.1f} SE)"
                    )
        return out

    def worst_z(self) -> float:
        z = [abs(p - r) / np.sqrt(v) for pred, ref, var in self.cells.values()
             for p, r, v in zip(pred, ref, var) if v > 0]
        return max(z, default=0.0)


def check_counts(counts: dict, bound: float = 4.0) -> list[str]:
    """Transition counts within bound * sqrt(n) of the paper's reference counts."""
    out = []
    for key, n in TABLE["transition_counts"].items():
        a, b = (int(v) for v in key.split("->"))
        got = counts.get((a, b), 0)
        if abs(got - n) > bound * np.sqrt(n):
            out.append(f"{key}: {got} transitions vs reference {n} (> {bound} sqrt(n))")
    return out


def check_cohort(cohort, graph) -> list[str]:
    """Transitions follow graph edges at or before C; rows after C are missing."""
    out = []
    for i, rec in enumerate(cohort):
        pairs = rec.trajectory.pairs
        for (t0, s0), (t1, s1) in zip(pairs, pairs[1:]):
            if (s0, s1) not in graph.edges or not t0 < t1 <= rec.censoring_time:
                out.append(f"individual {i}: transition {s0}->{s1} at {t1} (C={rec.censoring_time})")
        late = rec.measurement_times > rec.censoring_time
        if not np.all(np.isnan(rec.measurements[late])):
            out.append(f"individual {i}: measurement after C={rec.censoring_time} is not missing")
        if len(out) > 5:
            break
    return out


def check_uniform(name: str, u: np.ndarray, limit: float = KS_LIMIT) -> list[str]:
    if u.size == 0:
        return [f"{name}: no sojourns to test"]
    stat = ks_uniform(u)
    if not stat <= limit:
        return [f"{name}: sqrt(n) KS distance {stat:.2f} over {u.size} sojourns (> {limit})"]
    return []


def check_round_trip(before, after) -> list[str]:
    """Cohorts equal bit for bit (NaN cells in the same places)."""
    if len(before) != len(after):
        return [f"round trip changed the cohort size {len(before)} -> {len(after)}"]
    for i, (a, b) in enumerate(zip(before, after)):
        same = (
            np.array_equal(a.covariates, b.covariates)
            and np.array_equal(a.measurement_times, b.measurement_times)
            and np.array_equal(a.measurements, b.measurements, equal_nan=True)
            and a.trajectory.pairs == b.trajectory.pairs
            and a.censoring_time == b.censoring_time
        )
        if not same:
            return [f"round trip changed individual {i}"]
    return []
