"""Model design: effects map, regression, per-edge hazard/link table,
transition intensities and Gauss-Legendre cumulative intensities.

Every hazard integral (the simulator's, the reference likelihoods', the
engine's and the cumulative link's) lays out its nodes through
:func:`split_nodes`: two Gauss-Legendre pieces per row, split at a
breakpoint of the integrand when one lies inside the interval."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .graph import Edge, TransitionGraph
from .params import ModelParams

DEFAULT_QUAD_NODES = 16

_QUAD_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], exact for polynomials of degree <= 2n-1.

    Cached per n; repeated requests return the same read-only arrays. The
    compute-then-setdefault idiom keeps concurrent first requests consistent.
    """
    if n < 1:
        raise ValueError("need at least one quadrature node")
    cached = _QUAD_CACHE.get(n)
    if cached is None:
        nodes, weights = np.polynomial.legendre.leggauss(n)
        nodes.flags.writeable = False
        weights.flags.writeable = False
        cached = _QUAD_CACHE.setdefault(n, (nodes, weights))
    return cached


def _is_count(value, least: int) -> bool:
    """Whether ``value`` is an integer (a ``numbers.Integral``, not a bool)
    of at least ``least``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def check_count(value, name: str, least: int = 0):
    """``value`` if it is an integer of at least ``least``, else a ValueError
    naming ``name``. Every count setting of a run (chains, sweeps, draws,
    iterations, cohort sizes) passes here."""
    if not _is_count(value, least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def check_node_count(n: int, what: str = "n_quad") -> int:
    """A total node count of a split rule: an integer, positive and even, as
    the two pieces take half each."""
    if not _is_count(n, 2) or n % 2:
        raise ValueError(f"{what} must be a positive even number (two pieces of {what}/2 nodes), got {n}")
    return int(n)


def split_nodes(family, n: int, a, b):
    """Nodes and weights of the split Gauss-Legendre rule on [a, b], each
    (..., n) for a, b broadcast to (...): two n/2-node pieces, split at the
    first of the family's ``breakpoints`` that lies strictly inside (a, b),
    or else at the midpoint. A family without the attribute has none."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    split = 0.5 * (a + b)
    for tau in sorted(getattr(family, "breakpoints", ()), reverse=True):
        split = np.where((a < tau) & (tau < b), tau, split)
    nodes, weights = gauss_legendre(n // 2)
    start = np.stack([a, split], axis=-1)[..., None]
    width = np.stack([split - a, b - split], axis=-1)[..., None]
    t = start + width * (0.5 * (nodes + 1.0))
    return t.reshape(a.shape + (n,)), (width * (0.5 * weights)).reshape(a.shape + (n,))


@dataclass
class ModelDesign:
    """Effects map f, regression h, and per-edge (baseline hazard, link).

    The per-edge table keys are the graph edges; every family must pass the
    finite-difference derivative self-check, run at construction.
    """

    effects: object
    regression: object
    edge_specs: dict[Edge, tuple[object, object]]
    n_quad: int = DEFAULT_QUAD_NODES
    _extra_slices: dict[Edge, slice] = field(init=False, repr=False)

    def __post_init__(self):
        self.n_quad = check_node_count(self.n_quad)
        self.edge_specs = {tuple(e): (h, l) for e, (h, l) in self.edge_specs.items()}
        slices: dict[Edge, slice] = {}
        pos = 0
        for e in sorted(self.edge_specs):
            hazard, _ = self.edge_specs[e]
            if hazard.trainable:
                slices[e] = slice(pos, pos + hazard.n_params)
                pos += hazard.n_params
        self._extra_slices = slices
        run_self_check(self)

    @property
    def edges(self) -> list[Edge]:
        return sorted(self.edge_specs)

    def hazard(self, edge: Edge):
        return self.edge_specs[edge][0]

    def link(self, edge: Edge):
        return self.edge_specs[edge][1]

    @property
    def extra_size(self) -> int:
        return sum(s.stop - s.start for s in self._extra_slices.values())

    def initial_extra(self) -> np.ndarray:
        """Initial trainable hazard parameters, in edge-sorted layout."""
        out = np.zeros(self.extra_size)
        for e, sl in self._extra_slices.items():
            out[sl] = self.hazard(e).initial_params()
        return out

    def extra_slice(self, edge: Edge) -> slice | None:
        return self._extra_slices.get(edge)

    def hazard_values(self, edge: Edge, params: ModelParams) -> np.ndarray:
        """Current parameter vector of the edge's hazard (trainable ones read
        from params.extra, fixed ones from the construction values)."""
        sl = self._extra_slices.get(edge)
        if sl is None:
            return self.hazard(edge).initial_params()
        return params.extra[sl]

    def clock_time(self, edge: Edge, t, t_entry):
        hazard = self.hazard(edge)
        if hazard.clock == "reset":
            return np.asarray(t, dtype=float) - np.asarray(t_entry, dtype=float)
        return np.asarray(t, dtype=float)

    def validate_against(self, graph: TransitionGraph) -> None:
        if set(self.edge_specs) != set(graph.edges):
            raise ValueError(
                f"design edges {sorted(self.edge_specs)} do not match "
                f"graph edges {graph.sorted_edges()}"
            )

    def validate_params(self, params: ModelParams) -> None:
        for e in self.edges:
            a, dim = params.alpha.get(e), self.link(e).dim
            if a is None or a.shape[0] != dim:
                raise ValueError(f"alpha for edge {e} must have length {dim}")
        if params.extra.shape[0] != self.extra_size:
            raise ValueError(
                f"params.extra has length {params.extra.shape[0]}, design needs {self.extra_size}"
            )


# --------------------------------------------------------------------------
# Design-level operations


def _dot(v, coef: np.ndarray) -> np.ndarray:
    """sum_j v[..., j] coef[j]: the products added left to right, zeros of
    the batch shape for no components. numpy's reduction over a short last
    axis costs about ten times these few products and adds."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != coef.shape:
        v = np.broadcast_to(v, v.shape[:-1] + coef.shape)
    if not coef.size:
        return np.zeros(v.shape[:-1])
    out = v[..., 0] * coef[0]
    for j in range(1, coef.size):
        out += v[..., j] * coef[j]
    return out


def transition_log_intensity(
    design: ModelDesign, params: ModelParams, edge: Edge, t, t_entry, x, psi
):
    """log lambda = log lambda_0(clock) + alpha . g(t, x, psi) + beta . x.

    Each dot product multiplies every component by its coefficient and adds
    the products left to right, then the sum joins the log-hazard:
    ((log lambda_0 + (a_0 g_0 + a_1 g_1 + ...)) + (b_0 x_0 + ...)). These are
    elementwise operations, not matrix products, whose BLAS kernels round
    differently with the number of rows: each row's value does not depend on
    the rows beside it."""
    edge = tuple(edge)
    hazard = design.hazard(edge)
    values = design.hazard_values(edge, params)
    u = design.clock_time(edge, t, t_entry)
    out = hazard.log_hazard(u, values)
    out = out + _dot(design.link(edge).value(t, x, psi), params.alpha[edge])
    out = out + _dot(x, params.beta[edge])
    return out


def node_intensities(
    design: ModelDesign,
    params: ModelParams,
    edge: Edge,
    t0,
    t1,
    x,
    psi,
    lower=None,
    at=None,
) -> tuple[np.ndarray, np.ndarray]:
    """The split Gauss-Legendre rule (``design.n_quad`` nodes, see
    :func:`split_nodes`) on [t0, t1] (or [lower, t1] when conditioning past
    the entry time t0) and the intensity at its nodes.

    Returns the weights, (..., n_quad), and the intensities, (..., n_quad),
    or (..., n_quad + 1) when ``at`` (broadcast to (...)) is given: the
    intensity at ``at`` is then the last column, from the same
    :func:`transition_log_intensity` call.
    """
    edge = tuple(edge)
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    a = t0 if lower is None else np.asarray(lower, dtype=float)
    if np.any(t1 < a):
        raise ValueError("upper integration bound precedes the lower bound")
    w, ww = split_nodes(design.link(edge), design.n_quad, a, t1)
    if at is not None:
        at = np.broadcast_to(np.asarray(at, dtype=float), ww.shape[:-1])
        w = np.concatenate([w, at[..., None]], axis=-1)
    psi_q = np.asarray(psi)[..., None, :] if np.ndim(psi) else psi
    x_q = np.asarray(x, dtype=float)[..., None, :] if np.ndim(x) else x
    log_lam = transition_log_intensity(
        design, params, edge, w, t0[..., None], x_q, psi_q
    )
    return ww, np.exp(log_lam)


def cumulative_intensity(
    design: ModelDesign,
    params: ModelParams,
    edge: Edge,
    t0,
    t1,
    x,
    psi,
    lower=None,
) -> np.ndarray:
    """Split Gauss-Legendre approximation (``design.n_quad`` nodes, see
    :func:`split_nodes`) of the integrated intensity on [t0, t1] (or
    [lower, t1] when conditioning past the entry time t0): the weighted sum
    of :func:`node_intensities`.

    Positive weights and a positive integrand keep the result >= 0.
    """
    ww, lam = node_intensities(design, params, edge, t0, t1, x, psi, lower)
    return np.sum(lam * ww, axis=-1)


# --------------------------------------------------------------------------
# Finite-difference self-check of family derivative callbacks


def _name(family) -> str:
    """A family's ``name``, or else its class name."""
    return getattr(family, "name", type(family).__name__)


def _check_fd(family, what: str, value, fd, atol, rtol) -> None:
    """Raise unless |value - fd| <= atol + rtol |fd| everywhere: np.allclose
    for the self-check's finite arrays, without its per-call overhead, as
    the check runs at every design construction."""
    if not np.all(np.abs(value - fd) <= atol + rtol * np.abs(fd)):
        raise ValueError(f"{_name(family)}: {what} disagrees with finite differences")


def _fd(fun, z, h=1e-6):
    z = np.asarray(z, dtype=float)
    cols = []
    for i in range(z.shape[-1]):
        zp, zm = z.copy(), z.copy()
        zp[..., i] += h
        zm[..., i] -= h
        cols.append((fun(zp) - fun(zm)) / (2 * h))
    return np.stack(cols, axis=-1)


def _breakpoint_points(family, t, psi, x=None):
    """For a family declaring ``linear_in_psi``, the random check points plus
    one on either side of each of its ``breakpoints``."""
    breakpoints = getattr(family, "breakpoints", ())
    if not breakpoints or not getattr(family, "linear_in_psi", False):
        return t, psi, x
    extra = [tau + side for tau in breakpoints for side in (-0.5, 0.5)]
    rows = [k % len(psi) for k in range(len(extra))]
    more = (np.concatenate([t, extra]), np.concatenate([psi, psi[rows]]))
    return more + (None if x is None else np.concatenate([x, x[rows]]),)


def _check_linearity(family, jac, t, psi, x=None) -> None:
    """A family declaring ``linear_in_psi`` must satisfy value = J(t) psi with
    J independent of psi: ``jac``, evaluated at (t, psi), must reproduce the
    value at a second psi (one value call). ``x`` is given for links."""
    if not getattr(family, "linear_in_psi", False):
        return
    other = 2.0 * psi + 1.0
    value = family.value(*((t,) if x is None else (t, x)), other)
    err = np.abs(value - (jac @ other[..., None])[..., 0]).max(initial=0.0)
    if not err <= 1e-8 * (1.0 + np.abs(value).max(initial=0.0)):
        raise ValueError(
            f"{_name(family)}: declared linear in psi, but value is not J(t) psi with J independent of psi"
        )


def _n_psi(regression) -> int:
    """The psi size a regression states, or 3 when it states none."""
    return getattr(regression, "n_psi", None) or 3


def _draw_psi(rng, s: int) -> np.ndarray:
    psi = rng.normal(0.3, 0.7, size=(4, s))
    if s > 1:
        psi[..., 1] = 0.8 + np.abs(psi[..., 1])  # keep scale-like components positive
    return psi


def check_regression_family(family, rng=None, atol=1e-5) -> None:
    """Validate jac_psi (and the time-derivative pair if present) against
    central finite differences on random inputs, and a declared linearity."""
    rng = rng or np.random.default_rng(1234)
    psi = _draw_psi(rng, _n_psi(family))
    t, psi, _ = _breakpoint_points(family, rng.uniform(0.1, 7.9, size=(4,)), psi)
    jac = family.jac_psi(t, psi)
    _check_fd(family, "jac_psi", jac, _fd(lambda z: family.value(t, z), psi), atol, atol)
    _check_linearity(family, jac, t, psi)
    if not hasattr(family, "time_derivative"):
        return
    fd_t = (family.value(t + 1e-6, psi) - family.value(t - 1e-6, psi)) / 2e-6
    _check_fd(family, "time derivative", family.time_derivative(t, psi), fd_t, max(atol, 1e-4), 1e-4)
    fd_jt = _fd(lambda z: family.time_derivative(t, z), psi)
    _check_fd(family, "time-derivative Jacobian", family.time_derivative_jac_psi(t, psi), fd_jt, atol, atol)


def check_link_family(family, rng=None, atol=1e-5, n_psi=None, n_covariates=1) -> None:
    """Validate jac_psi against central finite differences at psi of ``n_psi``
    components (by default the size its own regression states), and a
    declared linearity."""
    rng = rng or np.random.default_rng(1235)
    psi = _draw_psi(rng, n_psi or _n_psi(getattr(family, "regression", None)))
    t = rng.uniform(0.1, 7.9, size=(4,))
    t, psi, x = _breakpoint_points(family, t, psi, rng.normal(size=(4, n_covariates)))
    jac = family.jac_psi(t, x, psi)
    _check_fd(family, "link jac_psi", jac, _fd(lambda z: family.value(t, x, z), psi), atol, atol)
    _check_linearity(family, jac, t, psi, x)


def check_effects_family(family, rng=None, atol=1e-5, q=3, n_covariates=1) -> None:
    rng = rng or np.random.default_rng(1236)
    n_gamma = family.n_gamma(q, n_covariates)
    gamma = rng.normal(size=n_gamma)
    x = rng.normal(size=(4, n_covariates))
    b = rng.normal(size=(4, q))
    if getattr(family, "additive", False):
        # psi(gamma, x, b) and psi(gamma, x, 0) in one call
        both = np.asarray(family.psi(gamma, np.concatenate([x, x]), np.concatenate([b, np.zeros_like(b)])))
        ok = both.shape == (8, q) and np.all(np.abs(both[:4] - b - both[4:]) <= 1e-10 + 1e-10 * np.abs(both[4:]))
        if not ok:
            raise ValueError(f"{_name(family)}: declared additive, but psi(gamma, x, b) - b is not psi(gamma, x, 0)")
    jac = family.jac_gamma(gamma, x, b)
    if n_gamma == 0:
        if jac.shape[-1] != 0:
            raise ValueError(f"{_name(family)}: expected empty gamma Jacobian")
        return
    _check_fd(family, "jac_gamma", jac, _fd(lambda g: family.psi(g, x, b), gamma), atol, atol)


def check_hazard_family(hazard, rng=None, atol=1e-5) -> None:
    rng = rng or np.random.default_rng(1237)
    values = hazard.initial_params()
    u = rng.uniform(0.05, 9.5, size=(6,))
    jac = hazard.dlog_dparams(u, values)
    _check_fd(hazard, "dlog_dparams", jac, _fd(lambda v: hazard.log_hazard(u, v), values), atol, atol)


def run_self_check(design: ModelDesign) -> None:
    """Finite-difference validation of every family in the design; raises on
    the first failing derivative contract. Every check draws psi (and b) with
    the regression's ``n_psi`` components and covariates of the effects
    map's size ``k`` (1 when it states none)."""
    s, k = _n_psi(design.regression), getattr(design.effects, "k", 1)
    check_regression_family(design.regression)
    seen: set[int] = set()
    for e in design.edges:
        hazard, lnk = design.edge_specs[e]
        if id(lnk) not in seen:
            check_link_family(lnk, n_psi=s, n_covariates=k)
            seen.add(id(lnk))
        if id(hazard) not in seen:
            check_hazard_family(hazard)
            seen.add(id(hazard))
    check_effects_family(design.effects, q=s, n_covariates=k)
