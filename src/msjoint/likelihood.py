"""Complete-data log-likelihood: prior, longitudinal and semi-Markov terms,
their sum, and the gradient in the flattened free parameters.

Everything is computed in log space; intensities are exponentiated only
inside quadrature integrands. The vectorized :class:`LikelihoodEngine`
batches over (chain, individual) and is the one entry point of the sampler,
the fitting loop and the FIM: its ``complete_loglik`` and ``grad_theta`` sum
over a ``subset`` of distinct individuals, so that the gradient is the
gradient of the value. The module-level functions are the per-individual
reference forms the engine is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Cohort, IndividualRecord, validate_cohort
from .design import ModelDesign, cumulative_intensity, split_nodes, transition_log_intensity
from .graph import Edge, TransitionGraph
from .params import ModelParams, ParamLayout, PrecisionRepr, quad_form

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class LogLikTerms:
    """The three complete-data log-likelihood components (scalars or arrays
    batched over chains and individuals)."""

    prior: np.ndarray | float
    longitudinal: np.ndarray | float
    semi_markov: np.ndarray | float

    @property
    def total(self):
        return self.prior + self.longitudinal + self.semi_markov


# --------------------------------------------------------------------------
# Per-individual reference operations


def prior_loglik(b: np.ndarray, q_repr: PrecisionRepr) -> float | np.ndarray:
    """log N(b; 0, Q) through the precision representation."""
    q = q_repr.dim
    return -0.5 * q * LOG_2PI + 0.5 * q_repr.log_det_precision() - 0.5 * q_repr.quad_form(b)


def longitudinal_loglik(
    record: IndividualRecord, psi: np.ndarray, r_repr: PrecisionRepr, design: ModelDesign
) -> float:
    """Sum of Gaussian log-densities over the observed measurement rows."""
    obs = record.observed_rows
    if not obs.any():
        return 0.0
    t = record.measurement_times[obs]
    y = record.measurements[obs]
    h = design.regression.value(t, np.asarray(psi)[None, :])
    r = y - h
    d = y.shape[1]
    const = -0.5 * d * LOG_2PI + 0.5 * r_repr.log_det_precision()
    return float(obs.sum() * const - 0.5 * r_repr.quad_form(r).sum())


def semi_markov_loglik(
    record: IndividualRecord,
    psi: np.ndarray,
    params: ModelParams,
    design: ModelDesign,
    graph: TransitionGraph,
) -> float:
    """Observed-transition log-densities plus the censored-sojourn survival
    term (zero when the last state is absorbing)."""
    pairs = record.trajectory.pairs
    x = record.covariates
    total = 0.0
    for (t0, s0), (t1, s1) in zip(pairs, pairs[1:]):
        if (s0, s1) not in graph.edges:
            raise ValueError(f"transition ({s0}, {s1}) is not a graph edge")
        total += float(
            transition_log_intensity(design, params, (s0, s1), t1, t0, x, psi)
        )
        for s in graph.successors(s0):
            total -= float(cumulative_intensity(design, params, (s0, s), t0, t1, x, psi))
    t_last, s_last = pairs[-1]
    succ = graph.successors(s_last)
    if succ and record.censoring_time > t_last:
        if not np.isfinite(record.censoring_time):
            raise ValueError(
                "infinite censoring with a non-absorbing last state has no finite survival term"
            )
        for s in succ:
            total -= float(
                cumulative_intensity(design, params, (s_last, s), t_last, record.censoring_time, x, psi)
            )
    return total


def locate_nonfinite(terms: LogLikTerms) -> str | None:
    """Identify the first (individual, term) pair that is non-finite."""
    for name in ("prior", "longitudinal", "semi_markov"):
        arr = np.atleast_2d(np.asarray(getattr(terms, name)))
        bad = ~np.isfinite(arr)
        if bad.any():
            _, i = np.argwhere(bad)[0]
            return f"{name} term of individual {int(i)}"
    return None


# --------------------------------------------------------------------------
# Vectorized engine
#
# Inside the engine a row is one individual (marker) or one event or sojourn
# at risk of an edge, and arrays are laid out (rows, chains, nodes, ...); the
# nodes are observation times or quadrature nodes.


class _CachedBasis:
    """A family linear in psi, value(t, psi) = J(t) psi, with J evaluated once
    at fixed points and stored as B of shape (rows, nodes, s, out). Chained
    psi arguments have shape (rows, chains, s)."""

    def __init__(self, B: np.ndarray):
        self.B = B

    def take(self, keep) -> "_CachedBasis":
        return _CachedBasis(self.B[keep])

    def value(self, psi):
        r, k, s, o = self.B.shape
        return (psi @ self.B.transpose(0, 2, 1, 3).reshape(r, s, k * o)).reshape(r, psi.shape[1], k, o)

    def vjp(self, cot, psi):
        """Sum over nodes and outputs of cot . d value / d psi."""
        r, k, s, o = self.B.shape
        return cot.reshape(r, cot.shape[1], k * o) @ self.B.transpose(0, 1, 3, 2).reshape(r, k * o, s)

    def weights(self, coef):
        """coef . J at every node, laid out (rows, s, nodes): the psi-free
        factor of :meth:`contract`."""
        r, k, s, o = self.B.shape
        w = (self.B.reshape(r * k * s, o) @ coef).reshape(r, k, s)
        return np.ascontiguousarray(w.transpose(0, 2, 1))

    def contract(self, psi, coef, w):
        """coef . value(psi), shape (rows, chains, nodes), from w =
        weights(coef), and the map from node weights wt to
        (sum_k wt_k value_k, sum_k wt_k coef . jac_k)."""
        r, k, s, o = self.B.shape
        c = psi.shape[1]

        def pullback(wt):
            pre = (wt @ self.B.reshape(r, k, s * o)).reshape(r, c, s, o)  # sum_k wt_k J_k
            return np.einsum("rcso,rcs->rco", pre, psi), (pre.reshape(r * c * s, o) @ coef).reshape(r, c, s)

        return psi @ w, pullback


class _FamilyBasis:
    """The same operations through the family's value and jac_psi, called at
    every evaluation. ``args`` are the family's leading arguments (times, and
    covariates for a link), shaped to broadcast against (rows, chains, nodes)."""

    def __init__(self, family, *args):
        self.family = family
        self.args = args

    def take(self, keep) -> "_FamilyBasis":
        return _FamilyBasis(self.family, *(a[keep] for a in self.args))

    def value(self, psi):
        return self.family.value(*self.args, psi[:, :, None, :])

    def vjp(self, cot, psi):
        return np.einsum("rcko,rckos->rcs", cot, self.family.jac_psi(*self.args, psi[:, :, None, :]))

    def weights(self, coef):
        return None  # not linear in psi: contract applies coef to each value

    def contract(self, psi, coef, w):
        g = self.value(psi)

        def pullback(wt):
            return np.einsum("rck,rcko->rco", wt, g), self.vjp(wt[..., None] * coef, psi)

        return g @ coef, pullback


def _basis(family, n_psi, t, *covariates):
    """Basis of a regression (times only) or link (times and covariates)
    family at the fixed times t of shape (rows, nodes); cached when the
    family declares ``linear_in_psi``, the psi dimension is known and the
    family has outputs (an empty link reads no psi, whatever its size)."""
    args = (t[:, None, :],) + tuple(x[:, None, None, :] for x in covariates)
    if n_psi is None or not family.dim or not getattr(family, "linear_in_psi", False):
        return _FamilyBasis(family, *args)
    jac = family.jac_psi(*args, np.zeros(t.shape[:1] + (1,) + t.shape[1:] + (n_psi,)))
    return _CachedBasis(np.ascontiguousarray(jac[:, 0].swapaxes(-1, -2)))


class _Rows:
    """One edge's event rows (one node at the event time) or sojourn-at-risk
    rows (quadrature nodes, with the quadrature weights negated): the
    individual of each row, clock times, node weights, covariates and the
    link basis at the node times."""

    __slots__ = ("event", "idx", "u", "w", "x", "basis")

    def __init__(self, event, idx, u, w, x, basis):
        self.event, self.idx, self.u, self.w, self.x, self.basis = event, idx, u, w, x, basis

    def take(self, keep) -> "_Rows":
        return _Rows(self.event, self.idx[keep], self.u[keep], self.w[keep], self.x[keep], self.basis.take(keep))


def _row_index(idx: np.ndarray, n: int, C: int, m: int) -> np.ndarray:
    """Flattened (column, chain, individual) index of per-row values (rows, C,
    m) whose rows belong to individuals idx among n."""
    return (idx[:, None, None] + n * (np.arange(C)[:, None] + C * np.arange(m))).ravel()


def _add_rows(flat: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """Sum per-row values (rows, C, m) into their individuals, (m, C, n), with
    one bincount over their :func:`_row_index`."""
    _, C, m = vals.shape
    return np.bincount(flat, weights=vals.ravel(), minlength=m * C * n).reshape(m, C, n)


class _BoundParams:
    """One parameter value bound to one engine (:meth:`LikelihoodEngine.bind`):
    the validated params and every quantity of the evaluation that depends on
    them alone. ``edges`` follows ``engine.edge_blocks``: per edge, one
    (link weights, offset) pair per row set, from :meth:`row_consts`."""

    def __init__(self, engine: LikelihoodEngine, params: ModelParams):
        engine.design.validate_params(params)
        self.engine, self.params = engine, params
        q_repr, r_repr = params.q_repr, params.r_repr
        self.prior_const = -0.5 * q_repr.dim * LOG_2PI + 0.5 * q_repr.log_det_precision()
        self.L_q = q_repr.chol_factor()
        const = -0.5 * engine.d * LOG_2PI + 0.5 * r_repr.log_det_precision()
        self.longit_const = engine.obs_counts[:, None] * const
        self.L_r = r_repr.chol_factor()
        self.edges = [[self.row_consts(edge, rows) for rows in row_sets] for edge, row_sets in engine.edge_blocks]

    def row_consts(self, edge: Edge, rows: _Rows) -> tuple[np.ndarray | None, np.ndarray]:
        """The link weights of a cached basis (None for a family basis) and
        the offset log lambda_0(u) + x . beta, shaped (rows, 1, nodes)."""
        design, params = self.engine.design, self.params
        base = design.hazard(edge).log_hazard(rows.u, design.hazard_values(edge, params))
        offset = (base + (rows.x @ params.beta[edge])[:, None])[:, None, :]
        return rows.basis.weights(params.alpha[edge]), offset


class LikelihoodEngine:
    """Batched complete-data log-likelihood, gradient and per-individual
    scores for a fixed cohort, design and graph.

    Random effects ``b`` are accepted with shape (n, q) or (chains, n, q);
    per-individual outputs follow the leading chain axis. Families declaring
    ``linear_in_psi`` have their psi-Jacobians evaluated once, at the
    observation times and quadrature nodes; the others are called at every
    evaluation.

    :meth:`bind` validates a parameter value and evaluates, once, everything
    that depends on it alone: the prior and longitudinal constants and
    Cholesky factors, each edge's link weights alpha . J on cached bases, and
    each row's log baseline hazard plus x . beta. Every method takes either
    ``ModelParams``, bound on the fly, or such a bound value, which callers
    that evaluate many ``b`` at one theta (MH sweeps, the FIM) pass instead.
    """

    def __init__(self, cohort: Cohort, design: ModelDesign, graph: TransitionGraph):
        design.validate_against(graph)
        violations = validate_cohort(cohort, graph)
        if violations:
            raise ValueError("invalid cohort: " + "; ".join(violations[:5]))
        self.cohort = cohort
        self.design = design
        self.graph = graph
        self.n = len(cohort)
        self.d = cohort.n_biomarkers
        self.k = cohort.n_covariates

        self.x = np.array([rec.covariates for rec in cohort]).reshape(self.n, self.k)

        j_max = max((rec.n_measurements for rec in cohort), default=0) if self.n else 0
        self.t_obs = np.zeros((self.n, j_max))
        self.y_obs = np.zeros((self.n, j_max, self.d))
        self.obs_mask = np.zeros((self.n, j_max), dtype=bool)
        for i, rec in enumerate(cohort):
            m = rec.n_measurements
            if m == 0 or self.d == 0:
                continue
            self.t_obs[i, :m] = rec.measurement_times
            obs = rec.observed_rows
            self.obs_mask[i, :m] = obs
            rows = rec.measurements.copy()
            rows[~obs] = 0.0
            self.y_obs[i, :m] = rows

        self.obs_counts = self.obs_mask.sum(axis=1)
        # bincount index of each edge's rows per chain count, for the
        # one-column log-density of the whole cohort
        self._density_index: dict[int, list[np.ndarray]] = {}

        n_psi = getattr(design.regression, "n_psi", None)
        self.marker = None
        if self.d and j_max and self.obs_mask.any():
            self.marker = _basis(design.regression, n_psi, self.t_obs)
        self._build_edge_blocks(n_psi)

    def _build_edge_blocks(self, n_psi) -> None:
        # Per edge, (individual, entry, exit) of each observed transition and
        # of each sojourn interval at risk: every stay in a state exposes all
        # of its outgoing edges from the entry time to the exit or censoring
        # time. Rows follow the cohort, then the trajectory.
        events: dict[Edge, list[tuple[int, float, float]]] = {e: [] for e in self.graph.sorted_edges()}
        risk: dict[Edge, list[tuple[int, float, float]]] = {e: [] for e in self.graph.sorted_edges()}
        for i, rec in enumerate(self.cohort):
            pairs = rec.trajectory.pairs
            for (t0, s0), (t1, s1) in zip(pairs, pairs[1:]):
                events[(s0, s1)].append((i, t0, t1))
                for s in self.graph.successors(s0):
                    risk[(s0, s)].append((i, t0, t1))
            t_last, s_last = pairs[-1]
            succ = self.graph.successors(s_last)
            if succ and rec.censoring_time > t_last:
                if not np.isfinite(rec.censoring_time):
                    raise ValueError(
                        f"individual {i}: infinite censoring with non-absorbing last state"
                    )
                for s in succ:
                    risk[(s_last, s)].append((i, t_last, rec.censoring_time))

        self.edge_blocks: list[tuple[Edge, list[_Rows]]] = []
        for edge in self.graph.sorted_edges():
            lnk = self.design.link(edge)
            ev = np.array(events[edge], dtype=float).reshape(-1, 3)
            sj = np.array(risk[edge], dtype=float).reshape(-1, 3)
            nd_t, nd_w = split_nodes(lnk, self.design.n_quad, sj[:, 1], sj[:, 2])
            layouts = (
                (True, ev[:, 0], ev[:, 2:], np.ones((len(ev), 1)), ev[:, 1]),
                (False, sj[:, 0], nd_t, -nd_w, sj[:, 1]),
            )
            row_sets = []
            for event, idx, t, w, entry in layouts:
                if not idx.size:
                    continue
                idx = idx.astype(int)
                u = self.design.clock_time(edge, t, entry[:, None])
                x = self.x[idx]
                row_sets.append(_Rows(event, idx, u, w, x, _basis(lnk, n_psi, t, x)))
            self.edge_blocks.append((edge, row_sets))

    # -- evaluation ---------------------------------------------------------

    def bind(self, params: ModelParams) -> _BoundParams:
        """Validate params and evaluate their parameter-only quantities once;
        the result stands in for params in every method of this engine."""
        return _BoundParams(self, params)

    def _bound(self, params: ModelParams | _BoundParams) -> _BoundParams:
        if not isinstance(params, _BoundParams):
            return self.bind(params)
        if params.engine is not self:
            raise ValueError("parameters were bound by another engine")
        return params

    @staticmethod
    def _as_chains(b: np.ndarray) -> tuple[np.ndarray, bool]:
        b = np.asarray(b, dtype=float)
        if b.ndim == 2:
            return b[None], True
        if b.ndim == 3:
            return b, False
        raise ValueError("b must have shape (n, q) or (chains, n, q)")

    def _subset(self, subset) -> np.ndarray | None:
        """The individuals of a ``subset`` argument as an index array (None
        for the whole cohort). A subset is 1-D, and its integers are distinct
        and in [0, n); anything else raises ValueError."""
        if subset is None:
            return None
        idx = np.asarray(subset)
        if idx.size == 0:
            return np.zeros(0, dtype=int)
        if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"subset must be a 1-D array of integer indices, got {subset!r}")
        outside = (idx < 0) | (idx >= self.n)
        if outside.any():
            raise ValueError(f"subset index {int(idx[outside][0])} is outside [0, {self.n})")
        values, counts = np.unique(idx, return_counts=True)
        if (counts > 1).any():
            raise ValueError(f"subset index {int(values[counts > 1][0])} is repeated")
        return idx

    def psi(self, params: ModelParams, b: np.ndarray) -> np.ndarray:
        return self.design.effects.psi(params.gamma, self.x, b)

    def _density_rows(self, C: int) -> list[np.ndarray]:
        """Per edge, the :func:`_row_index` of its row sets' individuals for
        one column and C chains over the whole cohort."""
        index = self._density_index.get(C)
        if index is None:
            index = self._density_index[C] = [
                _row_index(np.concatenate([rows.idx for rows in row_sets]), self.n, C, 1) if row_sets else None
                for _, row_sets in self.edge_blocks
            ]
        return index

    def _evaluate(self, bound: _BoundParams, b: np.ndarray, sel=None, scores: bool = False):
        """Prior, longitudinal and semi-Markov terms per (chain, individual) of
        the selected individuals (all when ``sel`` is None, else a sorted index
        array), each (C, n_sel); with ``scores`` also the complete-data scores
        (n_free, C, n_sel), else None. Rows of other individuals are dropped
        before any node work, and their parameter-only quantities are formed
        from the kept rows."""
        params = bound.params
        C = b.shape[0]
        keep = slice(None) if sel is None else sel
        n = self.n if sel is None else sel.size
        pos = np.arange(self.n)
        if sel is not None:
            pos = np.full(self.n, -1)
            pos[sel] = np.arange(n)
        psi = self.psi(params, b)
        psi_rows = np.ascontiguousarray(psi.transpose(1, 0, 2))
        acc = None
        if scores:
            layout = params.layout()
            P = layout.size
            # one (C, n) score plane per free parameter, then d/dpsi planes
            # that are pulled back to gamma last
            acc = np.zeros((P + psi.shape[-1], C, n))

        q_repr, r_repr = params.q_repr, params.r_repr
        b_sel = b[:, keep]
        prior = bound.prior_const - 0.5 * quad_form(bound.L_q, b_sel)
        if scores and q_repr.dim:
            outer = np.einsum("cnq,cnr->cnqr", b_sel, b_sel)
            acc[layout.group_slice("q")] = np.moveaxis(q_repr.grad_values(outer, 1.0), -1, 0)

        longit = np.zeros((C, n))
        if self.marker is not None:
            obs = self.obs_mask[keep]
            marker, psi_m = self.marker.take(keep), psi_rows[keep]
            r = (self.y_obs[keep][:, None] - marker.value(psi_m)) * obs[:, None, :, None]
            longit = (bound.longit_const[keep] - 0.5 * quad_form(bound.L_r, r).sum(axis=-1)).T
            if scores:
                if r_repr.n_free:
                    outer = np.einsum("ncjd,ncje->cnde", r, r)
                    acc[layout.group_slice("r")] = np.moveaxis(r_repr.grad_values(outer, self.obs_counts[keep]), -1, 0)
                # d/dpsi of -(1/2) r^T P r with r = y - h: (P r)^T dh/dpsi
                pr = (r.reshape(-1, self.d) @ r_repr.precision()).reshape(r.shape)
                acc[P:] += marker.vjp(pr, psi_m).transpose(2, 1, 0)

        sm = np.zeros((C, n))
        density_rows = self._density_rows(C) if sel is None and not scores else None
        for e, ((edge, row_sets), consts) in enumerate(zip(self.edge_blocks, bound.edges)):
            if not row_sets:
                continue
            hazard = self.design.hazard(edge)
            alpha = params.alpha[edge]
            trainable = self.design.extra_slice(edge) is not None
            where, parts = [], []
            for rows, (w, offset) in zip(row_sets, consts):
                if sel is not None:
                    rows = rows.take(pos[rows.idx] >= 0)
                    w, offset = bound.row_consts(edge, rows)
                log_lam, pullback = rows.basis.contract(psi_rows[rows.idx], alpha, w)
                log_lam += offset
                if rows.event:
                    term, wt = log_lam[..., 0], np.ones_like(log_lam)
                    wsum = np.ones_like(term)
                else:
                    # node weights carry the minus sign of the cumulative hazard
                    wt = np.exp(log_lam, out=log_lam)
                    wt *= rows.w[:, None, :]
                    term = wsum = wt.sum(axis=-1)
                cols = [term[..., None]]
                if scores:
                    # per-row scores: alpha, beta, trainable hazard values, psi
                    g_score, psi_score = pullback(wt)
                    cols += [g_score, wsum[..., None] * rows.x[:, None, :]]
                    if trainable:
                        cols.append(wt @ hazard.dlog_dparams(rows.u, self.design.hazard_values(edge, params)))
                    cols.append(psi_score)
                where.append(pos[rows.idx])
                parts.append(np.concatenate(cols, axis=-1))
            vals = np.concatenate(parts)
            if density_rows is None:
                flat = _row_index(np.concatenate(where), n, C, vals.shape[-1])
            else:
                flat = density_rows[e]
            sums = _add_rows(flat, vals, n)
            sm += sums[0]
            if scores:
                col = 1
                for target in self._edge_slices(layout, edge, P, psi.shape[-1]):
                    width = target.stop - target.start
                    acc[target] += sums[col:col + width]
                    col += width

        if scores:
            if params.gamma.size:
                jpg = self.design.effects.jac_gamma(params.gamma, self.x, b)[:, keep]
                acc[layout.group_slice("gamma")] += np.einsum("scn,cnsg->gcn", acc[P:], jpg)
            acc = acc[:P]
        return prior, longit, sm, acc

    def _edge_slices(self, layout: ParamLayout, edge: Edge, n_free: int, n_psi: int) -> list[slice]:
        """Accumulator columns of an edge's row scores, in order: alpha, beta,
        trainable hazard values, psi."""
        out = [layout.edge_slice("alpha", edge), layout.edge_slice("beta", edge)]
        local = self.design.extra_slice(edge)
        if local is not None:
            out.append(layout.group_slice("extra", local))
        return out + [slice(n_free, n_free + n_psi)]

    def loglik_terms(self, params: ModelParams | _BoundParams, b: np.ndarray) -> LogLikTerms:
        """Per-(chain, individual) prior, longitudinal and semi-Markov terms."""
        b, squeeze = self._as_chains(b)
        prior, longit, sm, _ = self._evaluate(self._bound(params), b)
        if squeeze:
            return LogLikTerms(prior[0], longit[0], sm[0])
        return LogLikTerms(prior, longit, sm)

    def posterior_logdensity(self, params: ModelParams | _BoundParams, b: np.ndarray) -> np.ndarray:
        """Unnormalized per-individual posterior log-density of b given the
        data (theta fixed): the sum of the three complete-data terms."""
        terms = self.loglik_terms(params, b)
        return terms.total

    def complete_loglik(self, params: ModelParams | _BoundParams, b: np.ndarray, subset=None) -> float | np.ndarray:
        """Complete-data log-likelihood summed over the subset (distinct
        indices in [0, n); all individuals if None); returns a scalar for
        (n, q) input, a per-chain vector for (chains, n, q)."""
        b_arr, squeeze = self._as_chains(b)
        subset = self._subset(subset)
        terms = self.loglik_terms(params, b_arr)
        total = np.asarray(terms.total)
        if subset is not None:
            total = total[:, subset]
        value = total.sum(axis=-1)
        return float(value[0]) if squeeze else value

    # -- scores and gradient ------------------------------------------------

    def individual_scores(self, params: ModelParams | _BoundParams, b: np.ndarray) -> np.ndarray:
        """Per-individual complete-data scores, shape (chains, n, n_free)."""
        scores = self._evaluate(self._bound(params), self._as_chains(b)[0], scores=True)[3]
        return np.ascontiguousarray(np.moveaxis(scores, 0, -1))

    def grad_theta(self, params: ModelParams | _BoundParams, b: np.ndarray, subset=None) -> np.ndarray:
        """Gradient of the summed complete-data log-likelihood with respect to
        the flattened free parameters (tied slots accumulate): the
        per-individual scores summed over the subset, which follows the rule
        of :meth:`complete_loglik`. For chained input the per-chain gradients
        are averaged."""
        bound = self._bound(params)
        b, squeeze = self._as_chains(b)
        sel = self._subset(subset)
        if sel is not None:
            sel = np.sort(sel)
        grad = self._evaluate(bound, b, sel, scores=True)[3].sum(axis=(1, 2))
        return grad if squeeze else grad / b.shape[0]
