"""Model parameters: log-Cholesky precision representations, cross-edge
sharing, and flattening for optimizers.

Covariance matrices are stored through their precision P = L L^T where L is
lower triangular with diagonal L_ii = exp(Ltilde_ii); only the raw Ltilde
values are trainable. The shapes ``full``, ``diag`` and ``ball`` (a scalar
multiple of the identity) differ only in their slot map: ``diag`` and ``ball``
are the full factor with fewer free values filling its diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .graph import Edge

_N_FREE = {"full": lambda q: q * (q + 1) // 2, "diag": lambda q: q, "ball": lambda q: min(q, 1)}
METHODS = tuple(_N_FREE)


def quad_form(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b^T P b for b of shape (..., dim) and P = L L^T."""
    b = np.asarray(b)
    if L.shape[0] == 0:
        return np.zeros(b.shape[:-1])
    u = b.reshape(-1, L.shape[0]) @ L  # one matrix product for any batch
    return np.einsum("ij,ij->i", u, u).reshape(b.shape[:-1])


class _SlotMap(NamedTuple):
    """Where the values of a ``method`` factor of dimension q go: the
    lower-triangle entries (rows, cols) they fill, the q diagonal entries
    first; the index of the value each entry holds, and the same as a 0/1
    matrix ``fills`` of shape (entries, values); and ``diag_weights``, the
    number of diagonal entries each value fills."""

    rows: np.ndarray
    cols: np.ndarray
    index: np.ndarray
    fills: np.ndarray
    diag_weights: np.ndarray


@lru_cache(maxsize=None)
def _slots(method: str, q: int) -> _SlotMap:
    """The slot map of a ``method`` factor of dimension q (cached, read-only)."""
    diag = np.arange(q)
    if method == "full":
        below = np.tril_indices(q, -1)
        rows, cols = np.concatenate([diag, below[0]]), np.concatenate([diag, below[1]])
        index = rows * (rows + 1) // 2 + cols  # the lower triangle, row-major
    else:
        rows, cols, index = diag, diag, diag if method == "diag" else np.zeros(q, dtype=int)
    fills = np.eye(_N_FREE[method](q))[index]
    slots = _SlotMap(rows, cols, index, fills, fills[:q].sum(axis=0))
    for a in slots:
        a.flags.writeable = False  # the cache hands the same arrays to every caller
    return slots


@dataclass(frozen=True)
class PrecisionRepr:
    """Log-Cholesky representation of a precision matrix of dimension ``dim``.

    ``values`` holds the free scalars: the lower triangle row-major for
    ``full`` (diagonal entries in log scale), the log-diagonal for ``diag``,
    a single scalar for ``ball``.
    """

    method: str
    dim: int
    values: np.ndarray

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", v)
        if v.shape != (self.n_free,):
            raise ValueError(
                f"method {self.method!r} with dim {self.dim} needs "
                f"{self.n_free} values, got {v.shape}"
            )

    @property
    def n_free(self) -> int:
        return _N_FREE[self.method](self.dim)

    def chol_factor(self) -> np.ndarray:
        """Lower-triangular L with exponentiated diagonal, so P = L L^T."""
        q = self.dim
        rows, cols, index = _slots(self.method, q)[:3]
        L = np.zeros((q, q))
        L[rows, cols] = self.values[index]
        L[np.diag_indices(q)] = np.exp(np.diag(L))
        return L

    def precision(self) -> np.ndarray:
        L = self.chol_factor()
        return L @ L.T

    def covariance(self) -> np.ndarray:
        """Materialized covariance (reporting and simulation only)."""
        # P = L L^T  =>  Sigma = L^-T L^-1
        Linv = np.linalg.solve(self.chol_factor(), np.eye(self.dim))
        return Linv.T @ Linv

    def log_det_precision(self) -> float:
        """log det P = 2 * the sum of the log-scale diagonal entries."""
        return 2.0 * float((_slots(self.method, self.dim).diag_weights * self.values).sum())

    def quad_form(self, b: np.ndarray) -> np.ndarray:
        """b^T P b for b of shape (..., dim)."""
        return quad_form(self.chol_factor(), b)

    def grad_values(self, outer_sum: np.ndarray, count) -> np.ndarray:
        """Gradient of sum over items of [1/2 log det P - 1/2 r^T P r].

        ``outer_sum`` is sum_j r_j r_j^T over the items (leading batch axes
        allowed), ``count`` the number of items (scalar or batch-shaped).
        Returns batch + (n_free,) aligned with ``values``.
        """
        q = self.dim
        slots = _slots(self.method, q)
        L = self.chol_factor()
        # -(S L) as S (-L), one product for the whole batch, at the filled entries
        g = np.tensordot(np.asarray(outer_sum, dtype=float), -L, axes=1)[..., slots.rows, slots.cols]
        g[..., :q] *= np.diag(L)  # chain rule through exp on the diagonal
        g[..., :q] += np.asarray(count, dtype=float)[..., None]
        return np.tensordot(g, slots.fills, axes=1)  # summed over the entries each value fills


def repr_from_cov(cov: np.ndarray, method: str) -> PrecisionRepr:
    """Build the log-Cholesky precision representation of a covariance matrix.

    ``diag`` requires a diagonal covariance and ``ball`` a scalar multiple of
    the identity; violations raise ValueError. Non-SPD input raises a
    factorization error.
    """
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    q = cov.shape[0]
    if cov.shape != (q, q):
        raise ValueError("covariance must be square")
    if method == "diag":
        off = cov - np.diag(np.diag(cov))
        if np.any(np.abs(off) > 1e-12 * max(1.0, np.abs(cov).max())):
            raise ValueError("method 'diag' requires a diagonal covariance")
        d = np.diag(cov)
        if np.any(d <= 0):
            raise ValueError("covariance diagonal must be positive")
        return PrecisionRepr("diag", q, -0.5 * np.log(d))
    if method == "ball":
        if q == 0:
            return PrecisionRepr("ball", 0, np.zeros(0))
        if np.any(np.abs(cov - cov[0, 0] * np.eye(q)) > 1e-12 * max(1.0, abs(cov[0, 0]))):
            raise ValueError("method 'ball' requires a scalar multiple of the identity")
        if cov[0, 0] <= 0:
            raise ValueError("covariance must be positive definite")
        return PrecisionRepr("ball", q, np.array([-0.5 * np.log(cov[0, 0])]))
    if method != "full":
        raise ValueError(f"unknown method {method!r}")
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise ValueError("covariance must be symmetric")
    # P = Sigma^-1 = L L^T with L lower triangular: L = chol(P).
    prec = np.linalg.inv(cov)
    try:
        L = np.linalg.cholesky(0.5 * (prec + prec.T))
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance is not symmetric positive definite") from exc
    tri = L.copy()
    tri[np.diag_indices(q)] = np.log(np.diag(L))
    return PrecisionRepr("full", q, tri[np.tril_indices(q)])


# --------------------------------------------------------------------------
# Parameter container and flattening


@dataclass(frozen=True)
class Sharing:
    """Tie classes across edges, per parameter group.

    Each entry of ``alpha``/``beta`` is one class: a list of edges whose
    slots hold a single shared vector. Classes are declared explicitly; value
    equality never implies a tie.
    """

    alpha: tuple[tuple[Edge, ...], ...] = ()
    beta: tuple[tuple[Edge, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(tuple(map(tuple, c)) for c in self.alpha))
        object.__setattr__(self, "beta", tuple(tuple(map(tuple, c)) for c in self.beta))
        for group in (self.alpha, self.beta):
            seen: set[Edge] = set()
            for cls in group:
                if len(cls) == 0:
                    raise ValueError("a tie class cannot be empty")
                for e in cls:
                    if e in seen:
                        raise ValueError(f"edge {e} appears in two tie classes")
                    seen.add(e)

    def classes(self, group: str, edges: list[Edge]) -> list[tuple[Edge, ...]]:
        """Tie classes covering all ``edges``: declared classes first-seen in
        edge-sorted order, then singletons for unlisted edges."""
        declared = self.alpha if group == "alpha" else self.beta
        by_edge: dict[Edge, tuple[Edge, ...]] = {}
        for cls in declared:
            for e in cls:
                by_edge[e] = cls
        out: list[tuple[Edge, ...]] = []
        emitted: set[tuple[Edge, ...]] = set()
        for e in sorted(edges):
            cls = by_edge.get(e, (e,))
            if cls not in emitted:
                for member in cls:
                    if member not in edges:
                        raise ValueError(f"tie class {cls} references unknown edge {member}")
                out.append(cls)
                emitted.add(cls)
        return out


@dataclass(frozen=True)
class ModelParams:
    """Full parameter vector: population gamma, precision representations for
    the random-effect and noise covariances, per-edge link and covariate
    coefficients, optional sharing, and trainable baseline-hazard values."""

    gamma: np.ndarray
    q_repr: PrecisionRepr
    r_repr: PrecisionRepr
    alpha: dict[Edge, np.ndarray]
    beta: dict[Edge, np.ndarray]
    sharing: Sharing = field(default_factory=Sharing)
    extra: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.atleast_1d(np.asarray(self.gamma, dtype=float)))
        object.__setattr__(self, "extra", np.atleast_1d(np.asarray(self.extra, dtype=float)))
        object.__setattr__(
            self, "alpha", {tuple(e): np.atleast_1d(np.asarray(v, dtype=float)) for e, v in self.alpha.items()}
        )
        object.__setattr__(
            self, "beta", {tuple(e): np.atleast_1d(np.asarray(v, dtype=float)) for e, v in self.beta.items()}
        )
        if set(self.alpha) != set(self.beta):
            raise ValueError("alpha and beta must cover the same edge set")
        for group_name, slots in (("alpha", self.alpha), ("beta", self.beta)):
            for cls in self.sharing.classes(group_name, list(slots)):
                ref = slots[cls[0]]
                for e in cls[1:]:
                    if slots[e].shape != ref.shape or not np.array_equal(slots[e], ref):
                        raise ValueError(
                            f"tied {group_name} slots {cls} must hold identical values"
                        )

    @property
    def edges(self) -> list[Edge]:
        return sorted(self.alpha)

    def layout(self) -> "ParamLayout":
        return ParamLayout.from_params(self)


@dataclass(frozen=True)
class ParamLayout:
    """Index map from free (untied) scalars to parameter slots: one block
    (group, tie-class edges or (), size) per run of the free vector, in
    flatten order: gamma, Q values, R values, one block per alpha tie class
    (classes in edge-sorted first-seen order), the same for beta, then the
    extra hazard vector."""

    blocks: tuple[tuple[str, tuple[Edge, ...], int], ...]

    @classmethod
    def from_params(cls, p: ModelParams) -> "ParamLayout":
        blocks = [("gamma", (), p.gamma.shape[0]), ("q", (), p.q_repr.n_free), ("r", (), p.r_repr.n_free)]
        for group, slots in (("alpha", p.alpha), ("beta", p.beta)):
            blocks += [(group, c, slots[c[0]].shape[0]) for c in p.sharing.classes(group, p.edges)]
        blocks.append(("extra", (), p.extra.shape[0]))
        return cls(tuple(blocks))

    @property
    def size(self) -> int:
        return sum(n for _, _, n in self.blocks)

    @cached_property
    def spans(self) -> tuple[slice, ...]:
        """The free-vector slice of each block."""
        stops = list(accumulate(n for _, _, n in self.blocks))
        return tuple(slice(stop - n, stop) for (_, _, n), stop in zip(self.blocks, stops))

    @cached_property
    def _index(self) -> dict[tuple[str, Edge | None], slice]:
        index = {}
        for (group, edges, _), span in zip(self.blocks, self.spans):
            for e in edges or (None,):
                index[group, e] = span
        return index

    def group_slice(self, group: str, part: slice | None = None) -> slice:
        """Free-vector slice of the gamma, q, r or extra block, or of ``part``
        of it (a slice within the block)."""
        span = self._index[group, None]
        return span if part is None else slice(span.start + part.start, span.start + part.stop)

    def edge_slice(self, group: str, edge: Edge) -> slice:
        """Free-vector slice feeding the (group, edge) slot."""
        try:
            return self._index[group, edge]
        except KeyError:
            raise KeyError(f"edge {edge} not in layout") from None

    def names(self) -> list[str]:
        """One display name per free scalar."""
        out = []
        for group, edges, n in self.blocks:
            tag = f"{group}({'+'.join(f'{k}->{kp}' for k, kp in edges)})" if edges else group
            out += [f"{tag}[{i}]" for i in range(n)]
        return out


def _block_values(params: ModelParams, group: str, edges: tuple[Edge, ...]) -> np.ndarray:
    if edges:
        return getattr(params, group)[edges[0]]
    if group in ("q", "r"):
        return getattr(params, f"{group}_repr").values
    return getattr(params, group)


def flatten(params: ModelParams) -> np.ndarray:
    """Free parameter vector; tied slots emit one scalar block per class."""
    return np.concatenate([_block_values(params, group, edges) for group, edges, _ in params.layout().blocks])


def unflatten(vector: np.ndarray, template: ModelParams) -> ModelParams:
    """Rebuild a ModelParams from a free vector; tied slots all receive the
    class value."""
    vector = np.asarray(vector, dtype=float)
    layout = template.layout()
    if vector.shape != (layout.size,):
        raise ValueError(f"expected a vector of length {layout.size}, got {vector.shape}")
    values: dict = {"alpha": {}, "beta": {}}
    for (group, edges, _), span in zip(layout.blocks, layout.spans):
        value = vector[span].copy()
        if edges:
            values[group].update(dict.fromkeys(edges, value))
        else:
            values[group] = value
    return ModelParams(
        gamma=values["gamma"],
        q_repr=PrecisionRepr(template.q_repr.method, template.q_repr.dim, values["q"]),
        r_repr=PrecisionRepr(template.r_repr.method, template.r_repr.dim, values["r"]),
        alpha=values["alpha"],
        beta=values["beta"],
        sharing=template.sharing,
        extra=values["extra"],
    )
