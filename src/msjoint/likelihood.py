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

import copy
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import Cohort, IndividualRecord, validate_cohort
from .design import ModelDesign, cumulative_intensity, split_nodes, transition_log_intensity
from .graph import Edge, TransitionGraph
from .params import ModelParams, PrecisionRepr, quad_form

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


def check_covariate_count(design: ModelDesign, k: int, source: str = "the cohort") -> None:
    """Raise ValueError when the effects map states a covariate count (its
    ``k``) other than the k covariates of ``source``."""
    want = getattr(design.effects, "k", None)
    if want is not None and want != k:
        raise ValueError(f"the effects map takes {want} covariates, but {source} has {k}")


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

    def weights(self, coef, out: np.ndarray) -> None:
        """coef . J at every node, written to out of shape (rows, s, nodes):
        the link weights of the log intensity, linear in psi."""
        r, k, s, o = self.B.shape
        out[...] = (self.B.reshape(r * k * s, o) @ coef).reshape(r, k, s).transpose(0, 2, 1)

    def pullback(self, psi, coef, wt) -> tuple[np.ndarray, np.ndarray]:
        """From node weights wt of shape (rows, chains, nodes), per row and
        chain: sum_k wt_k value_k, (rows, chains, out), and sum_k wt_k
        coef . J_k, (rows, chains, s)."""
        r, k, s, o = self.B.shape
        c = psi.shape[1]
        pre = (wt @ self.B.reshape(r, k, s * o)).reshape(r, c, s, o)  # sum_k wt_k J_k
        return np.einsum("rcso,rcs->rco", pre, psi), (pre.reshape(r * c * s, o) @ coef).reshape(r, c, s)

    def alpha_sum(self, M) -> np.ndarray:
        """The same summed over rows and chains, (out,), from M = sum_c
        psi_c wt_c^T of shape (rows, s, nodes): one product with B."""
        o = self.B.shape[-1]
        return np.ascontiguousarray(M.transpose(0, 2, 1)).reshape(-1) @ self.B.reshape(-1, o)


class _FamilyBasis:
    """A family that is not cached: its value and the vector-Jacobian
    product of jac_psi, called at every evaluation. ``args`` are the family's
    leading arguments (times, and covariates for a link), shaped to broadcast
    against (rows, chains, nodes)."""

    def __init__(self, family, *args):
        self.family = family
        self.args = args

    def take(self, keep) -> "_FamilyBasis":
        return _FamilyBasis(self.family, *(a[keep] for a in self.args))

    def value(self, psi):
        return self.family.value(*self.args, psi[:, :, None, :])

    def vjp(self, cot, psi):
        return np.einsum("rcko,rckos->rcs", cot, self.family.jac_psi(*self.args, psi[:, :, None, :]))


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


# A marker is the Gaussian term of every individual's measurements, with
# residuals r_j = y_j - h(t_j, psi) over the observed rows. Both kinds expose
# the same four operations, with P = R^-1 the noise precision and psi_rows
# of shape (n, C, s): ``weigh(r_repr)``, the part that depends on R alone,
# formed once per bind; ``quad``, sum_j r_j^T P r_j of every individual,
# (n, C); ``scores``, sum_j r_j r_j^T, (n, C, d, d), and the psi-score
# sum_j (P r_j)^T dh_j/dpsi, (n, C, s); and ``take(idx)``, the marker of
# the individuals idx.


class _StatsMarker:
    """A marker whose regression is linear in psi, h_j = J_j psi, reduced at
    build to per-individual statistics over the observed rows. Per call, the
    term and the psi-score then cost O(C n s^2) and the R-score O(C n d^2 s^2),
    whatever the number of rows j.

    Each individual has a centre psi_hat: of its least-squares fits, the one
    nearest the fit pooled over the cohort, through pinv (a truncated record
    can have fewer observed rows than s, and its minimum-norm fit can lie
    far from any psi it is evaluated at). With
    delta = psi - psi_hat the residual r_j = y_j - J_j psi is Z_j z, where
    Z_j = [rhat_j, -J_j] (d, 1 + s) holds the residual at the centre and
    z = (1, delta). So sum_j r_j r_j^T = z^T G z, G = sum_j Z_j (x) Z_j of
    shape (n, d, d, 1 + s, 1 + s); in blocks G = [[S0, -A], [-A^T, K]] with
    S0 = sum rhat rhat^T, A = sum rhat (x) J and K = sum J (x) J. The identity
    is exact for any centre; the centre keeps the large, cancelling terms of
    y^T y - 2 psi^T J^T y + psi^T J^T J psi out of the sums."""

    def __init__(self, B: np.ndarray, y: np.ndarray, mask: np.ndarray):
        n, j, s, d = B.shape
        J = B.swapaxes(-1, -2) * mask[:, :, None, None]  # (n, j, d, s), zero at unobserved rows
        X, Y = J.reshape(n, j * d, s), y.reshape(n, j * d, 1)
        pooled = np.linalg.lstsq(X.reshape(-1, s), Y.reshape(-1), rcond=None)[0]
        self.centre = pooled + (np.linalg.pinv(X) @ (Y - X @ pooled[:, None]))[..., 0]
        Z = np.empty((n, j, d, 1 + s))
        Z[..., 0] = y - (X @ self.centre[..., None]).reshape(n, j, d)
        Z[..., 1:] = -J
        Z = Z.reshape(n, j, d * (1 + s))
        G = (Z.transpose(0, 2, 1) @ Z).reshape(n, d, 1 + s, d, 1 + s)
        self.G = np.ascontiguousarray(G.transpose(0, 1, 3, 2, 4))

    def take(self, idx) -> "_StatsMarker":
        marker = copy.copy(self)
        marker.centre, marker.G = self.centre[idx], self.G[idx]
        return marker

    def weigh(self, r_repr: PrecisionRepr) -> np.ndarray:
        """<P, G>: the (1 + s, 1 + s) quadratic of sum_j r_j^T P r_j in z."""
        return np.einsum("de,ndeab->nab", r_repr.precision(), self.G)

    def _z(self, psi_rows) -> np.ndarray:
        z = np.empty(psi_rows.shape[:2] + (1 + psi_rows.shape[2],))
        z[..., 0] = 1.0
        np.subtract(psi_rows, self.centre[:, None], out=z[..., 1:])
        return z

    def quad(self, psi_rows, Gw) -> np.ndarray:
        z = self._z(psi_rows)
        return np.einsum("nca,nca->nc", z @ Gw, z)

    def scores(self, psi_rows, Gw):
        z = self._z(psi_rows)
        n, d, _, a, _ = self.G.shape
        Gz = (self.G.reshape(n, d * d * a, a) @ z.transpose(0, 2, 1)).reshape(n, d, d, a, z.shape[1])
        # d/dpsi of -(1/2) z^T Gw z, Gw symmetric
        return np.einsum("ndeac,nca->ncde", Gz, z), -(z @ Gw)[..., 1:]


class _ResidualMarker:
    """A marker through its family basis: the residuals y_j - h(t_j, psi),
    zero at unobserved rows, formed at every evaluation."""

    def __init__(self, basis: _FamilyBasis, y: np.ndarray, mask: np.ndarray):
        self.basis, self.y, self.mask = basis, y, mask

    def take(self, idx) -> "_ResidualMarker":
        return _ResidualMarker(self.basis.take(idx), self.y[idx], self.mask[idx])

    def weigh(self, r_repr: PrecisionRepr) -> tuple[np.ndarray, np.ndarray]:
        """The Cholesky factor and the precision."""
        return r_repr.chol_factor(), r_repr.precision()

    def _residuals(self, psi_rows) -> np.ndarray:
        """(n, C, j, d)."""
        return (self.y[:, None] - self.basis.value(psi_rows)) * self.mask[:, None, :, None]

    def quad(self, psi_rows, weights) -> np.ndarray:
        return quad_form(weights[0], self._residuals(psi_rows)).sum(axis=-1)

    def scores(self, psi_rows, weights):
        r = self._residuals(psi_rows)
        # d/dpsi of -(1/2) r^T P r with r = y - h: (P r)^T dh/dpsi
        pr = (r.reshape(-1, r.shape[-1]) @ weights[1]).reshape(r.shape)
        return np.einsum("ncjd,ncje->ncde", r, r), self.basis.vjp(pr, psi_rows)


class _Rows:
    """One edge's event rows (one node at the event time) or sojourn-at-risk
    rows (quadrature nodes): the individual of each row, clock times, the
    logs of the node weights (0 at an event; the log of each quadrature
    weight, whose minus sign the risk block carries), covariates and the link
    basis at the node times. ``span`` locates the rows in their
    :class:`_Block`, whose ``idx`` they view (None until a block holds
    them)."""

    __slots__ = ("idx", "u", "log_w", "x", "basis", "span")

    def __init__(self, idx, u, log_w, x, basis):
        self.idx, self.u, self.log_w, self.x, self.basis = idx, u, log_w, x, basis
        self.span = None

    def take(self, pos) -> "_Rows":
        """The rows of each individual i with pos[i] >= 0, as pos[i]."""
        idx = pos[self.idx]
        keep = idx >= 0
        return _Rows(idx[keep], self.u[keep], self.log_w[keep], self.x[keep], self.basis.take(keep))


class _Block:
    """All event rows (one node each) or all risk rows of an engine, stacked
    edge after edge with the cached-basis edges first: the individual ``idx``
    of every row, and per edge its :class:`_Rows` (``parts``), which view
    their ``span`` of it.

    A row's log intensity, plus the log of its node weight, is affine in psi:
    with psi1 = (psi, 1) it is psi1 . W, where the bound weights W of a cached
    row hold alpha . J over the offset log lambda_0(u) + x . beta + log|w|
    (:meth:`_BoundParams.stack`). The log-density of the block is then a fixed
    number of numpy calls, whatever the number of edges: one product of the
    cached rows' psi1 with W (a family-basis edge writes alpha . value +
    offset into its own span), for risk rows the exponential and one
    matrix-vector product with minus ones over the nodes (risk rows enter
    with a minus sign), and one bincount into the individuals."""

    def __init__(self, event: bool, parts: list[tuple[Edge, _Rows]], n: int):
        parts = sorted(parts, key=lambda part: not isinstance(part[1].basis, _CachedBasis))
        self.event, self.parts, self.n = event, parts, n
        self.nodes = parts[0][1].log_w.shape[-1]
        self.idx = np.concatenate([rows.idx for _, rows in parts])
        start = 0
        for _, rows in parts:
            rows.span = slice(start, start + rows.idx.size)
            rows.idx = self.idx[rows.span]
            start = rows.span.stop
        self.n_cached = sum(rows.idx.size for _, rows in parts if isinstance(rows.basis, _CachedBasis))
        self._index: dict[tuple[int, int], np.ndarray] = {}
        self._cached_idx = self.idx[:self.n_cached]
        self._minus_ones = -np.ones(self.nodes)  # sums the risk rows' nodes with their sign

    def index(self, C: int, m: int, span: slice) -> np.ndarray:
        """:func:`_row_index` of the rows in ``span``, a view of the block's
        index, which is cached per (C, m) as (rows, C * m)."""
        index = self._index.get((C, m))
        if index is None:
            index = self._index[C, m] = _row_index(self.idx, self.n, C, m).reshape(self.idx.size, C * m)
        return index[span].ravel()

    def log_density(self, psi1, alpha, W, consts) -> np.ndarray:
        """This block's semi-Markov terms summed per (chain, individual),
        flattened to (C * n,), from psi1 per individual (n, C, s + 1) and the
        bound weights W and per-part constants of :meth:`_BoundParams.stack`."""
        C = psi1.shape[1]
        log_lam = np.empty((self.idx.size, C, self.nodes))
        if self.n_cached:
            np.matmul(psi1.take(self._cached_idx, axis=0), W, out=log_lam[:self.n_cached])
        for (edge, rows), const in zip(self.parts, consts):
            if not isinstance(rows.basis, _CachedBasis):
                np.add(rows.basis.value(psi1[rows.idx, :, :-1]) @ alpha[edge], const, out=log_lam[rows.span])
        index = self.index(C, 1, slice(None))
        if self.event:
            return np.bincount(index, weights=log_lam.ravel(), minlength=C * self.n)
        np.exp(log_lam, out=log_lam)
        return np.bincount(index, weights=log_lam.reshape(-1, self.nodes) @ self._minus_ones, minlength=C * self.n)


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
    them alone. ``marker`` is the engine marker's ``weigh(r_repr)``.
    ``blocks`` follows ``engine.blocks``: per block, the bound weights of its
    cached rows and one constant per part (:meth:`stack`); the log-density
    reads the weights whole and the scores read them part by part."""

    def __init__(self, engine: LikelihoodEngine, params: ModelParams):
        engine.design.validate_params(params)
        self.engine, self.params = engine, params
        q_repr, r_repr = params.q_repr, params.r_repr
        self.prior_const = -0.5 * q_repr.dim * LOG_2PI + 0.5 * q_repr.log_det_precision()
        self.L_q = q_repr.chol_factor()
        const = -0.5 * engine.d * LOG_2PI + 0.5 * r_repr.log_det_precision()
        self.longit_const = engine.obs_counts[:, None] * const
        self.marker = None if engine.marker is None else engine.marker.weigh(r_repr)
        self.blocks = [self.stack(block) for block in engine.blocks]

    @cached_property
    def fold(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The posterior log-density less the risk rows as one quadratic per
        individual, for an engine whose ``folds`` holds: (shift, centre1, A).
        With psi = b + m_i (m_i the effects map at b = 0) and z = (psi -
        psi_hat_i, 1), psi_hat_i the marker's centre (m_i without a marker,
        so that z = (b, 1)), the prior, the marker, the event rows and every
        constant are z^T A_i z, A of shape (n, s + 1, s + 1). Centring
        at psi_hat keeps the marker's cancellation as small as
        :class:`_StatsMarker` keeps it. ``shift`` is m_i - psi_hat_i, (n, 1,
        s), so that z = (b + shift, 1), and ``centre1`` is (psi_hat_i, 0), (n,
        1, s + 1), so that psi1 = z + centre1. Formed on first use, once per
        bound value."""
        engine, params = self.engine, self.params
        n, s = engine.n, params.q_repr.dim
        m = engine.psi(params, np.zeros((n, s)))
        # H = -2 A: the precision-like form, the log-density being -1/2 z^T H z
        if engine.marker is None:
            centre, H = m, np.zeros((n, s + 1, s + 1))
        else:
            # the marker's quadratic is in (1, delta): its first axis goes last
            order = np.arange(1, s + 2) % (s + 1)
            centre, H = engine.marker.centre, self.marker[:, order[:, None], order]
        # the prior -1/2 b^T P b, with b = delta + c and c = psi_hat - m,
        # and the constants: the linear and constant parts of H in delta
        c = centre - m
        P = self.L_q @ self.L_q.T
        lin = c @ P
        const = np.einsum("ns,ns->n", lin, c) - 2.0 * (self.prior_const + self.longit_const[:, 0])
        for block, (W, consts) in zip(engine.blocks, self.blocks):
            if not block.event:
                continue
            if block.n_cached:
                # psi1 . W summed over an individual's cached event rows, e of
                # shape (n, s + 1): delta . e[:s] plus psi_hat . e[:s] + e[s]
                e = _add_rows(block.index(1, s + 1, slice(0, block.n_cached)), W[:, None, :, 0], n)[:, 0].T
                lin -= e[:, :s]
                const -= 2.0 * (np.einsum("ns,ns->n", centre, e[:, :s]) + e[:, s])
            for (_, rows), offset in zip(block.parts, consts):
                if not isinstance(rows.basis, _CachedBasis):  # an empty link: the offset alone
                    const -= 2.0 * np.bincount(rows.idx, weights=offset[:, 0, 0], minlength=n)
        H[:, :s, :s] += P
        H[:, :s, s] += lin
        H[:, s, :s] += lin
        H[:, s, s] += const
        centre1 = np.zeros((n, 1, s + 1))
        centre1[:, 0, :s] = centre
        return (m - centre)[:, None], centre1, -0.5 * H

    @cached_property
    def gaussian(self) -> tuple[np.ndarray, np.ndarray]:
        """The Gaussian that :meth:`fold` is in b, per individual, for an
        engine whose ``folds`` holds: (mode, L), mode of shape (n, s) and L
        of shape (n, s, s) with L_i L_i^T = H_ss^-1, where H = -2 A_i. The
        fold is -1/2 z^T H z with z = (b + shift, 1), so its maximum is at b
        = -H_ss^-1 h - shift, h = H[:s, s]. H_ss is the prior precision plus
        the marker's cross-products, so it is positive definite; L is the
        transposed inverse of its Cholesky factor. Formed on first use."""
        shift, _, A = self.fold
        s = A.shape[-1] - 1
        H = -2.0 * A
        L = np.linalg.inv(np.linalg.cholesky(H[:, :s, :s])).transpose(0, 2, 1)
        mode = -np.einsum("nij,nkj,nk->ni", L, L, H[:, :s, s]) - shift[:, 0]
        return mode, L

    def importance(self, rng: np.random.Generator, n_proposals: int, scale: float):
        """Importance sampling of each individual's random effects from
        :meth:`gaussian` with its covariance scaled by scale^2, weighed in
        one ``posterior_logdensity`` call at K = n_proposals chains: (b, w,
        ess, log_scale). b, (n, K, s), are the proposals, drawn as one (n, K,
        s) standard normal from ``rng``; w, (n, K), the weights p(b, data) /
        q(b) over each individual's largest, non-finite ones 0; ess the Kish
        ESS (sum w)^2 / sum w^2, 0 without a finite weight; log_scale, (n,),
        the largest log-weight, so that log mean(w) + log_scale estimates log
        p(data_i | theta)."""
        mode, L = self.gaussian
        n, s = mode.shape
        eps = rng.standard_normal((n, n_proposals, s))
        b = mode[:, None] + scale * (eps @ L.transpose(0, 2, 1))
        # log w less the log-normaliser log|det cL| + (s/2) log 2 pi of q
        log_q = -0.5 * np.einsum("nks,nks->nk", eps, eps)
        log_w = self.engine.posterior_logdensity(self, b.transpose(1, 0, 2)).T - log_q
        top = log_w.max(axis=1)
        with np.errstate(invalid="ignore"):
            w = np.nan_to_num(np.exp(log_w - top[:, None]))
        ess = w.sum(axis=1) ** 2 / np.maximum(np.einsum("nk,nk->n", w, w), np.finfo(float).tiny)
        log_det = s * np.log(scale) + np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
        return b, w, ess, top + log_det + 0.5 * s * LOG_2PI

    def stack(self, block: _Block) -> tuple[np.ndarray | None, list[np.ndarray]]:
        """The affine rows of the block's cached rows, W of shape (n_cached,
        s + 1, nodes) (None without cached rows): the link weights alpha . J,
        then, as one more row, the offset log lambda_0(u) + x . beta + log|w|,
        so that psi1 . W is log lambda plus the log node weight. Also one
        constant per part, in ``block.parts`` order: a cached part's view of
        W, and a family-basis part's offsets, (rows, 1, nodes)."""
        design, params = self.engine.design, self.params
        W = None
        consts = []
        for edge, rows in block.parts:
            base = design.hazard(edge).log_hazard(rows.u, design.hazard_values(edge, params))
            offset = base + (rows.x @ params.beta[edge])[:, None] + rows.log_w
            if isinstance(rows.basis, _CachedBasis):
                if W is None:
                    W = np.empty((block.n_cached, rows.basis.B.shape[2] + 1, block.nodes))
                const = W[rows.span]
                rows.basis.weights(params.alpha[edge], const[:, :-1])
                const[:, -1] = offset
            else:
                const = offset[:, None, :]
            consts.append(const)
        return W, consts


class LikelihoodEngine:
    """Batched complete-data log-likelihood, gradient and per-individual
    scores for a fixed cohort, design and graph.

    Random effects ``b`` are accepted with shape (n, q) or (chains, n, q),
    with at least one chain; any other shape raises ValueError.
    Per-individual outputs follow the leading chain axis. Families declaring
    ``linear_in_psi`` have their psi-Jacobians evaluated once, at the
    observation times and quadrature nodes; the others are called at every
    evaluation. A marker whose regression is linear in psi becomes, at build,
    per-individual sufficient statistics of its observed rows (a centre and
    the cross-products of the residual there and of the Jacobians, see
    :class:`_StatsMarker`), so its term and scores cost O(C n s^2) per call
    whatever the number of measurements; any other marker forms its
    residuals at every call.

    :meth:`bind` validates a parameter value and evaluates, once, everything
    that depends on it alone: the prior and longitudinal constants, the
    prior's Cholesky factor, the marker statistics weighted by R^-1 and, per
    row on a cached basis, its affine row (:meth:`_BoundParams.stack`): the
    link weights alpha . J with, as one more row, the offset log lambda_0(u)
    + x . beta + log|w|, w the row's node weight. Every method takes either
    ``ModelParams``, bound on the fly, or such a bound value, which callers
    that evaluate many ``b`` at one theta (MH sweeps, the FIM) pass instead.

    ``folds`` holds when the effects map declares ``additive`` (psi = b +
    m_i), the marker is linear in psi or absent, and every event row sits on
    a cached basis or on an empty link, whose log intensity is its offset
    alone (or there is none). Then everything in the posterior
    log-density but the risk rows is one quadratic in psi per individual:
    the prior, the marker statistics, the event rows summed per individual
    and every constant. A bound value forms it once, on the first
    :meth:`posterior_logdensity` (:meth:`_BoundParams.fold`), and each call
    is that quadratic plus the risk block. Any other design, and
    :meth:`loglik_terms`, :meth:`complete_loglik` and ``locate_nonfinite``
    always, sum the three terms.

    The event rows of all edges form one :class:`_Block` and the risk rows
    another. With psi given a trailing 1, log lambda of a block's cached rows
    is one product, so the log-density (:meth:`loglik_terms` and the methods
    built on it) costs a fixed number of numpy calls whatever the number of
    edges. The scores walk the same rows part by part (:meth:`_row_pass`).
    :meth:`grad_theta` contracts them straight into theta and scatters only
    the psi-score into the individuals, for the gamma pullback (summed over
    the chains first when the effects map is ``additive``, see
    :meth:`_gradient`); :meth:`individual_scores` sums every column into the
    individuals. Each block caches one row index into the individuals per
    chain count and number of columns (:meth:`_Block.index`), and every pass
    reads its part's view of it. A subset's gradient and prediction run on
    the engine of those individuals, sliced from this one (:meth:`_take`).

    The engine owns one float buffer that the scores reuse from call to call
    for the risk rows' weights (:meth:`_row_buffer`); no result is a view of
    it. So one engine must not be shared between threads: give each thread
    its own.
    """

    def __init__(self, cohort: Cohort, design: ModelDesign, graph: TransitionGraph):
        design.validate_against(graph)
        violations = validate_cohort(cohort, graph)
        if violations:
            raise ValueError("invalid cohort: " + "; ".join(violations[:5]))
        self.design = design
        self.graph = graph
        self.n = len(cohort)
        self.d = cohort.n_biomarkers
        self.k = cohort.n_covariates
        check_covariate_count(design, self.k)

        self.x = np.array([rec.covariates for rec in cohort]).reshape(self.n, self.k)

        # Per edge, (individual, entry, exit) of each observed transition and
        # of each sojourn interval at risk: every stay in a state exposes all
        # of its outgoing edges from the entry time to the exit or censoring
        # time. Rows follow the cohort, then the trajectory.
        events: dict[Edge, list[tuple[int, float, float]]] = {e: [] for e in graph.sorted_edges()}
        risk: dict[Edge, list[tuple[int, float, float]]] = {e: [] for e in graph.sorted_edges()}
        j_max = max((rec.n_measurements for rec in cohort), default=0)
        t_obs = np.zeros((self.n, j_max))
        y_obs = np.zeros((self.n, j_max, self.d))
        obs_mask = np.zeros((self.n, j_max), dtype=bool)
        for i, rec in enumerate(cohort):
            m = rec.n_measurements
            if m and self.d:
                obs = rec.observed_rows
                t_obs[i, :m] = rec.measurement_times
                obs_mask[i, :m] = obs
                y_obs[i, :m][obs] = rec.measurements[obs]
            pairs = rec.trajectory.pairs
            for (t0, s0), (t1, s1) in zip(pairs, pairs[1:]):
                events[(s0, s1)].append((i, t0, t1))
                for s in graph.successors(s0):
                    risk[(s0, s)].append((i, t0, t1))
            t_last, s_last = pairs[-1]
            if rec.censoring_time > t_last:
                for s in graph.successors(s_last):
                    risk[(s_last, s)].append((i, t_last, rec.censoring_time))

        self.obs_counts = obs_mask.sum(axis=1)

        n_psi = getattr(design.regression, "n_psi", None)
        self.marker = None
        if self.d and j_max and obs_mask.any():
            basis = _basis(design.regression, n_psi, t_obs)
            if isinstance(basis, _CachedBasis):
                self.marker = _StatsMarker(basis.B, y_obs, obs_mask)
            else:
                self.marker = _ResidualMarker(basis, y_obs, obs_mask)
        self._build_blocks(n_psi, events, risk)
        self._buffer = np.empty(0)  # see _row_buffer
        # whether posterior_logdensity takes the quadratic of _BoundParams.fold
        self.folds = (
            getattr(design.effects, "additive", False)
            and not isinstance(self.marker, _ResidualMarker)
            and all(
                isinstance(rows.basis, _CachedBasis) or not design.link(edge).dim
                for block in self.blocks if block.event for edge, rows in block.parts
            )
        )

    def _build_blocks(self, n_psi, events, risk) -> None:
        """The event and risk blocks from each edge's (individual, entry, exit) rows."""
        parts: dict[bool, list[tuple[Edge, _Rows]]] = {True: [], False: []}
        for edge in self.graph.sorted_edges():
            lnk = self.design.link(edge)
            ev = np.array(events[edge], dtype=float).reshape(-1, 3)
            sj = np.array(risk[edge], dtype=float).reshape(-1, 3)
            nd_t, nd_w = split_nodes(lnk, self.design.n_quad, sj[:, 1], sj[:, 2])
            layouts = (
                (True, ev[:, 0], ev[:, 2:], np.zeros((len(ev), 1)), ev[:, 1]),
                (False, sj[:, 0], nd_t, np.log(nd_w), sj[:, 1]),
            )
            for event, idx, t, log_w, entry in layouts:
                if not idx.size:
                    continue
                idx = idx.astype(int)
                u = self.design.clock_time(edge, t, entry[:, None])
                x = self.x[idx]
                parts[event].append((edge, _Rows(idx, u, log_w, x, _basis(lnk, n_psi, t, x))))
        self.blocks = [_Block(event, parts[event], self.n) for event in (True, False) if parts[event]]

    def _take(self, idx: np.ndarray) -> LikelihoodEngine:
        """The engine of the individuals ``idx`` (sorted, distinct), sliced
        from this one with no record read again. It keeps this engine's type
        and ``folds`` and shares its row buffer, so its thread too; all n
        individuals give this engine itself."""
        if len(idx) == self.n:
            return self
        sub = copy.copy(self)
        sub.n, sub.x, sub.obs_counts = len(idx), self.x[idx], self.obs_counts[idx]
        sub.marker = None if self.marker is None else self.marker.take(idx)
        pos = np.full(self.n, -1)
        pos[idx] = np.arange(sub.n)
        sub.blocks = []
        for block in self.blocks:
            parts = [(edge, taken) for edge, rows in block.parts if (taken := rows.take(pos)).idx.size]
            if parts:
                sub.blocks.append(_Block(block.event, parts, sub.n))
        return sub

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

    def _as_chains(self, b: np.ndarray, q: int) -> tuple[np.ndarray, bool]:
        """b as (chains, n, q) and whether it came as (n, q); any other shape,
        or no chain, raises ValueError."""
        b = np.asarray(b, dtype=float)
        squeeze = b.ndim == 2
        if squeeze:
            b = b[None]
        if b.ndim != 3 or b.shape[1:] != (self.n, q) or not b.shape[0]:
            raise ValueError(
                f"b must have shape (n, q) or (chains, n, q) with n = {self.n}, q = {q} "
                f"and chains >= 1, got {np.shape(b)[1:] if squeeze else np.shape(b)}"
            )
        return b, squeeze

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

    def _psi1(self, params: ModelParams, b: np.ndarray) -> np.ndarray:
        """psi per individual with a trailing 1, (n, C, s + 1): the factor of
        the affine rows of :meth:`_BoundParams.stack`."""
        psi = self.psi(params, b)
        psi1 = np.empty((self.n, b.shape[0], psi.shape[-1] + 1))
        psi1[..., :-1] = psi.transpose(1, 0, 2)
        psi1[..., -1] = 1.0
        return psi1

    def _terms(self, bound: _BoundParams, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Prior, longitudinal and semi-Markov terms per (chain, individual),
        each (C, n). The semi-Markov term is one pass over each stacked
        :class:`_Block`, whatever the number of edges."""
        params = bound.params
        C = b.shape[0]
        psi1 = self._psi1(params, b)
        prior = bound.prior_const - 0.5 * quad_form(bound.L_q, b)
        longit = np.zeros((C, self.n))
        if self.marker is not None:
            longit = (bound.longit_const - 0.5 * self.marker.quad(psi1[..., :-1], bound.marker)).T
        sm = np.zeros(C * self.n)
        for block, (W, consts) in zip(self.blocks, bound.blocks):
            sm += block.log_density(psi1, params.alpha, W, consts)
        return prior, longit, sm.reshape(C, self.n)

    def _row_pass(self, bound: _BoundParams, psi1: np.ndarray):
        """The semi-Markov rows part by part, as the log-density lays them
        out. Yields (block, edge, rows, p, const, g, wt): p is the rows'
        psi1 (rows, C, s + 1); const their part of the bound constants of
        :meth:`_BoundParams.stack`; g the link values on a family basis,
        None on a cached one; and wt the derivative of the part's term in
        log lambda per node without the risk sign: ones on event rows,
        lambda |w| on risk rows, whose term is minus their sum. On risk rows
        wt is a view of :meth:`_row_buffer`, valid until the next part."""
        alpha = bound.params.alpha
        for block, (_, consts) in zip(self.blocks, bound.blocks):
            for (edge, rows), const in zip(block.parts, consts):
                p = psi1[rows.idx]
                g = None if isinstance(rows.basis, _CachedBasis) else rows.basis.value(p[..., :-1])
                if block.event:
                    wt = np.ones(p.shape[:2] + (1,))
                else:
                    wt = self._row_buffer(p.shape[:2] + (block.nodes,))
                    if g is None:
                        np.matmul(p, const, out=wt)
                    else:
                        np.add(g @ alpha[edge], const, out=wt)
                    np.exp(wt, out=wt)
                yield block, edge, rows, p, const, g, wt

    def _row_buffer(self, shape: tuple[int, ...]) -> np.ndarray:
        """A view of shape ``shape`` of the engine's one float buffer for
        risk-row weights, grown when a part needs more: reusing warm pages
        spares each part the page faults of a fresh array."""
        size = math.prod(shape)
        if self._buffer.size < size:
            self._buffer = np.empty(size)
        return self._buffer[:size].reshape(shape)

    def _gradient(self, bound: _BoundParams, b: np.ndarray) -> np.ndarray:
        """Complete-data scores summed over the chains and the individuals,
        (n_free,). Each part's rows are contracted straight into theta:
        with M = sum_c psi1_c wt_c^T per row, alpha is M . B summed over
        rows (or sum wt . value on a family basis), beta is x weighted by
        each row's total wt (the last row of M), and the trainable hazard
        values are that total against dlog_dparams. Only the psi-score goes
        per individual, for the gamma pullback. The prior's and the noise's
        sums of outer products are summed before ``grad_values``, which is
        linear in them.

        When the effects map is ``additive``, psi = b + m_i(gamma, x), so
        dpsi/dgamma does not depend on b and is the same in every chain: the
        pullback then needs each individual's psi-score summed over the
        chains, (s, 1, n), and jac_gamma at one chain. On cached rows that
        sum is the rows' total wt against the bound weights alpha . J; family
        rows and the marker sum their psi-scores over the chains before they
        are scattered. Any other map keeps one psi-score per chain, (s, C,
        n)."""
        params = bound.params
        alpha = params.alpha
        layout = params.layout()
        C, n = b.shape[:2]
        psi1 = self._psi1(params, b)
        s = psi1.shape[-1] - 1
        grad = np.zeros(layout.size)
        additive = getattr(self.design.effects, "additive", False)
        D = 1 if additive else C  # the chains of the psi-score
        reduce = (lambda v: v.sum(axis=1, keepdims=True)) if additive else (lambda v: v)
        dpsi = np.zeros((s, D, n))

        q_repr, r_repr = params.q_repr, params.r_repr
        if q_repr.dim:
            flat = b.reshape(-1, q_repr.dim)
            grad[layout.group_slice("q")] = q_repr.grad_values(flat.T @ flat, C * n)
        if self.marker is not None:
            outer, psi_score = self.marker.scores(psi1[..., :-1], bound.marker)
            count = C * self.obs_counts.sum()
            grad[layout.group_slice("r")] = r_repr.grad_values(outer.sum(axis=(0, 1)), count)
            dpsi += reduce(psi_score).transpose(2, 1, 0)

        for block, edge, rows, p, const, g, wt in self._row_pass(bound, psi1):
            sign = 1.0 if block.event else -1.0
            M = p.transpose(0, 2, 1) @ wt
            total = M[:, -1]
            if g is None:
                a = rows.basis.alpha_sum(M[:, :-1])
                # sum_k wt_k alpha . J_k from the bound weights, per chain or
                # (additive) from the chain sum of wt, which is total; the
                # batched product is about twice as fast on a contiguous transpose
                d = (total[:, None] if additive else wt) @ np.ascontiguousarray(const[:, :-1].transpose(0, 2, 1))
            else:
                a = np.einsum("rck,rcko->o", wt, g)
                d = reduce(rows.basis.vjp(wt[..., None] * alpha[edge], p[..., :-1]))
            grad[layout.edge_slice("alpha", edge)] += sign * a
            grad[layout.edge_slice("beta", edge)] += sign * (total.sum(axis=-1) @ rows.x)
            local = self.design.extra_slice(edge)
            if local is not None:
                dlog = self.design.hazard(edge).dlog_dparams(rows.u, self.design.hazard_values(edge, params))
                grad[layout.group_slice("extra", local)] += sign * np.einsum("rk,rke->e", total, dlog)
            dpsi += sign * _add_rows(block.index(D, s, rows.span), d, n)

        if params.gamma.size:
            jpg = self.design.effects.jac_gamma(params.gamma, self.x, b[:D])
            grad[layout.group_slice("gamma")] += np.einsum("scn,cnsg->g", dpsi, jpg)
        return grad

    def _scores(self, bound: _BoundParams, b: np.ndarray) -> np.ndarray:
        """Complete-data scores per (chain, individual), (n_free, C, n): the
        rows of :meth:`_row_pass`, each part's columns summed into the
        individuals with one bincount over its cached row index."""
        params = bound.params
        alpha = params.alpha
        C = b.shape[0]
        psi1 = self._psi1(params, b)
        layout = params.layout()
        P = layout.size
        s = psi1.shape[-1] - 1
        # one (C, n) score plane per free parameter, then d/dpsi planes that
        # are pulled back to gamma last
        acc = np.zeros((P + s, C, self.n))

        q_repr, r_repr = params.q_repr, params.r_repr
        if q_repr.dim:
            outer = np.einsum("cnq,cnr->cnqr", b, b)
            acc[layout.group_slice("q")] = np.moveaxis(q_repr.grad_values(outer, 1.0), -1, 0)
        if self.marker is not None:
            outer, psi_score = self.marker.scores(psi1[..., :-1], bound.marker)
            grad = r_repr.grad_values(outer, self.obs_counts[:, None])
            acc[layout.group_slice("r")] = grad.transpose(2, 1, 0)
            acc[P:] += psi_score.transpose(2, 1, 0)

        for block, edge, rows, p, _, g, wt in self._row_pass(bound, psi1):
            if g is None:
                a, d = rows.basis.pullback(p[..., :-1], alpha[edge], wt)
            else:
                a, d = np.einsum("rck,rcko->rco", wt, g), rows.basis.vjp(wt[..., None] * alpha[edge], p[..., :-1])
            # per-row scores with their accumulator columns: alpha, beta,
            # trainable hazard values, psi
            parts = [
                (layout.edge_slice("alpha", edge), a),
                (layout.edge_slice("beta", edge), wt.sum(axis=-1)[..., None] * rows.x[:, None, :]),
            ]
            local = self.design.extra_slice(edge)
            if local is not None:
                dlog = self.design.hazard(edge).dlog_dparams(rows.u, self.design.hazard_values(edge, params))
                parts.append((layout.group_slice("extra", local), wt @ dlog))
            parts.append((slice(P, P + s), d))
            vals = np.concatenate([v for _, v in parts], axis=-1)
            sums = _add_rows(block.index(C, vals.shape[-1], rows.span), vals, self.n)
            if not block.event:
                np.negative(sums, out=sums)
            col = 0
            for target, v in parts:
                acc[target] += sums[col:col + v.shape[-1]]
                col += v.shape[-1]

        if params.gamma.size:
            jpg = self.design.effects.jac_gamma(params.gamma, self.x, b)
            acc[layout.group_slice("gamma")] += np.einsum("scn,cnsg->gcn", acc[P:], jpg)
        return acc[:P]

    def loglik_terms(self, params: ModelParams | _BoundParams, b: np.ndarray) -> LogLikTerms:
        """Per-(chain, individual) prior, longitudinal and semi-Markov terms."""
        bound = self._bound(params)
        b, squeeze = self._as_chains(b, bound.params.q_repr.dim)
        prior, longit, sm = self._terms(bound, b)
        if squeeze:
            return LogLikTerms(prior[0], longit[0], sm[0])
        return LogLikTerms(prior, longit, sm)

    def posterior_logdensity(self, params: ModelParams | _BoundParams, b: np.ndarray) -> np.ndarray:
        """Unnormalized per-individual posterior log-density of b given the
        data (theta fixed): the sum of the three complete-data terms. When
        ``folds`` holds, everything but the risk rows is the per-individual
        quadratic of :meth:`_BoundParams.fold`, and the risk block is added to
        it."""
        bound = self._bound(params)
        if not self.folds:
            return self.loglik_terms(bound, b).total
        b, squeeze = self._as_chains(b, bound.params.q_repr.dim)
        shift, centre1, A = bound.fold
        z = np.empty((self.n, b.shape[0], A.shape[-1]))
        np.add(b.transpose(1, 0, 2), shift, out=z[..., :-1])
        z[..., -1] = 1.0
        out = np.einsum("nca,nca->cn", z @ A, z)
        psi1 = z + centre1
        for block, (W, consts) in zip(self.blocks, bound.blocks):
            if not block.event:
                out += block.log_density(psi1, bound.params.alpha, W, consts).reshape(out.shape)
        return out[0] if squeeze else out

    def complete_loglik(self, params: ModelParams | _BoundParams, b: np.ndarray, subset=None) -> float | np.ndarray:
        """Complete-data log-likelihood summed over the subset (distinct
        indices in [0, n); all individuals if None); returns a scalar for
        (n, q) input, a per-chain vector for (chains, n, q)."""
        bound = self._bound(params)
        b_arr, squeeze = self._as_chains(b, bound.params.q_repr.dim)
        subset = self._subset(subset)
        total = np.asarray(self.loglik_terms(bound, b_arr).total)
        if subset is not None:
            total = total[:, subset]
        value = total.sum(axis=-1)
        return float(value[0]) if squeeze else value

    # -- scores and gradient ------------------------------------------------

    def individual_scores(self, params: ModelParams | _BoundParams, b: np.ndarray) -> np.ndarray:
        """Per-individual complete-data scores, shape (chains, n, n_free)."""
        bound = self._bound(params)
        scores = self._scores(bound, self._as_chains(b, bound.params.q_repr.dim)[0])
        return np.ascontiguousarray(np.moveaxis(scores, 0, -1))

    def grad_theta(self, params: ModelParams | _BoundParams, b: np.ndarray, subset=None) -> np.ndarray:
        """Gradient of the summed complete-data log-likelihood with respect to
        the flattened free parameters (tied slots accumulate): the
        per-individual scores summed over the subset, which follows the rule
        of :meth:`complete_loglik` and is evaluated on the engine taken for
        it. For chained input the per-chain gradients are averaged."""
        bound = self._bound(params)
        b, squeeze = self._as_chains(b, bound.params.q_repr.dim)
        if subset is not None:
            sel = np.sort(self._subset(subset))
            bound, b = self._take(sel).bind(bound.params), b[:, sel]
        grad = bound.engine._gradient(bound, b)
        return grad if squeeze else grad / b.shape[0]
