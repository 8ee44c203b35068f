"""File formats and run configuration: lossless CSV cohort files, params as
JSON (method tags + raw log-Cholesky values), and a strict config schema
that rejects unknown keys."""

from __future__ import annotations

import csv
import dataclasses
import inspect
import json
from itertools import compress
from pathlib import Path

import numpy as np

from .dataset import Cohort, IndividualRecord, Trajectory
from .design import DEFAULT_QUAD_NODES, ModelDesign
from .families import EFFECTS_FAMILIES, LINK_FAMILIES, REGRESSION_FAMILIES
from .graph import Edge, TransitionGraph, build_graph
from .hazards import HAZARD_FAMILIES
from .inference import FitConfig, StopRule
from .params import METHODS, ModelParams, PrecisionRepr, Sharing
from .sampler import SamplerConfig
from .simulate import generate_cohort


class ConfigError(ValueError):
    """Configuration or input-validation failure (CLI exit code 2)."""


def fmt(x: float) -> str:
    """Canonical decimal form: 17 significant digits round-trip float64."""
    return "%.17g" % float(x)


# --------------------------------------------------------------------------
# Cohort CSV files


def write_cohort(cohort: Cohort, out_dir: str | Path, latent: dict | None = None) -> None:
    """Write the cohort's CSV files, one %-format per row, as ``csv.writer``
    would with every float through ``fmt`` (no cell needs quoting)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    k, d = cohort.n_covariates, cohort.n_biomarkers
    recs = list(enumerate(cohort))

    def names(prefix, size):
        return "".join(f",{prefix}{j+1}" for j in range(size))

    full, blank = "%d,%.17g" + ",%.17g" * d, "%d,%.17g" + "," * d
    tables = {
        "covariates.csv": (
            "id" + names("x", k),
            [("%d" + ",%.17g" * k) % (i, *rec.covariates.tolist()) for i, rec in recs],
        ),
        "longitudinal.csv": (
            "id,time" + names("y", d),
            [
                blank % (i, t) if gone else full % (i, t, *y)
                for i, rec in recs
                for t, y, gone in zip(rec.measurement_times.tolist(), rec.measurements.tolist(), rec.missing_rows)
            ],
        ),
        "trajectories.csv": (
            "id,time,state",
            ["%d,%.17g,%d" % (i, t, s) for i, rec in recs for t, s in rec.trajectory.pairs],
        ),
        "censoring.csv": ("id,ctime", ["%d,%.17g" % (i, rec.censoring_time) for i, rec in recs]),
    }
    if latent is not None:
        b, psi = np.asarray(latent["b"], dtype=float), np.asarray(latent["psi"], dtype=float)
        row = "%d" + ",%.17g" * (b.shape[1] + psi.shape[1])
        tables["latent.csv"] = (
            "id" + names("b", b.shape[1]) + names("psi", psi.shape[1]),
            [row % (i, *v) for i, v in enumerate(np.hstack([b, psi]).tolist())],
        )
    for name, (header, lines) in tables.items():
        with open(out / name, "w", newline="") as f:
            f.write("\r\n".join([header, *lines]) + "\r\n")


class _Table:
    """The non-blank rows of one cohort CSV file, as columns of cells with
    their line numbers. A missing file, a missing header and a row whose
    width differs from the header's are errors naming the file (and line)."""

    def __init__(self, data: Path, name: str):
        path = data / name
        if not path.exists():
            raise ConfigError(f"missing data file {path}")
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None:
                raise ConfigError(f"{name}: missing header row")
            body = [(ln, row) for ln, row in enumerate(reader, start=2) if row]
        self.name, self.width = name, len(header)
        for ln, row in body:
            if len(row) != self.width:
                raise self.error(ln, f"{len(row)} cells, the header has {self.width}")
        self.lines = [ln for ln, _ in body]
        self.columns = list(zip(*(row for _, row in body))) or [()] * self.width

    def error(self, line: int, message) -> ConfigError:
        return ConfigError(f"{self.name} line {line}: {message}")

    def parse(self, col: int, kind=float, keep=None) -> np.ndarray:
        """Column ``col`` converted by ``kind`` (float or int), of the rows
        where ``keep`` holds (all rows by default)."""
        cells, lines = self.columns[col], self.lines
        if keep is not None:
            cells, lines = list(compress(cells, keep)), list(compress(lines, keep))
        try:
            return np.array(list(map(kind, cells)), dtype=kind)
        except ValueError:
            for ln, cell in zip(lines, cells):
                try:
                    kind(cell)
                except ValueError as exc:
                    raise self.error(ln, exc) from exc
            raise

    def floats(self, first: int, keep=None) -> np.ndarray:
        """Columns ``first`` onward as float rows, of the rows where ``keep`` holds."""
        out = np.empty((len(self.lines) if keep is None else np.count_nonzero(keep), self.width - first))
        for col in range(first, self.width):
            out[:, col - first] = self.parse(col, float, keep)
        return out

    def groups(self, index: dict[int, int]) -> list[np.ndarray]:
        """Each individual's rows, in the order of ``index`` (id -> position),
        each in file order; an id that ``index`` lacks is an error."""
        ids = self.parse(0, int).tolist()
        pos = np.array([index.get(i, -1) for i in ids], dtype=int)
        if np.any(pos < 0):
            r = int(np.argmax(pos < 0))
            raise self.error(self.lines[r], f"unknown individual id {ids[r]}")
        order = np.argsort(pos, kind="stable")
        bounds = np.searchsorted(pos[order], np.arange(len(index) + 1)).tolist()
        return [order[a:b] for a, b in zip(bounds, bounds[1:])]


def read_cohort(data_dir: str | Path) -> Cohort:
    """Read the cohort files that :func:`write_cohort` writes. Records follow
    the rows of ``covariates.csv``; each individual's rows of the other files
    keep their file order."""
    data = Path(data_dir)
    cov = _Table(data, "covariates.csv")
    ids = cov.parse(0, int).tolist()
    index = {i: j for j, i in enumerate(ids)}
    if len(index) < len(ids):
        j = next(j for j, i in enumerate(ids) if index[i] != j)
        raise cov.error(cov.lines[j], f"duplicate individual id {ids[j]}")
    x = cov.floats(1)

    lon = _Table(data, "longitudinal.csv")
    d = lon.width - 2
    measured = lon.groups(index)
    times = lon.parse(1)
    blank = np.zeros(len(lon.lines), dtype=int)  # empty measurement cells per row
    for col in lon.columns[2:]:
        blank += np.array([c == "" for c in col], dtype=bool)
    partial = (blank > 0) & (blank < d)
    if partial.any():
        raise lon.error(lon.lines[int(np.argmax(partial))], "partially missing measurement row")
    y = np.full((len(lon.lines), d), np.nan)
    seen = blank == 0
    y[seen] = lon.floats(2, seen)

    traj = _Table(data, "trajectories.csv")
    moves = traj.groups(index)
    move_times, states = traj.parse(1), traj.parse(2, int)

    cens = _Table(data, "censoring.csv")
    censored = cens.groups(index)
    ctimes = cens.parse(1)

    records = []
    for j, i in enumerate(ids):
        if not moves[j].size or not censored[j].size:
            missing = "censoring time" if moves[j].size else "trajectory rows"
            raise ConfigError(f"individual {i} (covariates.csv line {cov.lines[j]}): no {missing}")
        try:
            trajectory = Trajectory(tuple(zip(move_times[moves[j]].tolist(), states[moves[j]].tolist())))
        except ValueError as exc:
            raise traj.error(traj.lines[moves[j][0]], f"individual {i}: {exc}") from exc
        rows = measured[j]
        records.append(
            IndividualRecord(
                covariates=x[j],
                measurement_times=times[rows],
                measurements=y[rows],
                trajectory=trajectory,
                censoring_time=ctimes[censored[j][-1]],
            )
        )
    return Cohort(tuple(records), n_covariates=cov.width - 1, n_biomarkers=d)


# --------------------------------------------------------------------------
# Params JSON


def edge_key(edge: Edge) -> str:
    return f"{edge[0]}->{edge[1]}"


def parse_edge_key(key: str) -> Edge:
    try:
        a, b = key.split("->")
        return (int(a), int(b))
    except ValueError as exc:
        raise ConfigError(f"bad edge key {key!r}, expected 'k->k''") from exc


def params_to_dict(params: ModelParams) -> dict:
    return {
        "gamma": [float(v) for v in params.gamma],
        "q": {
            "method": params.q_repr.method,
            "dim": params.q_repr.dim,
            "values": [float(v) for v in params.q_repr.values],
        },
        "r": {
            "method": params.r_repr.method,
            "dim": params.r_repr.dim,
            "values": [float(v) for v in params.r_repr.values],
        },
        "alpha": {edge_key(e): [float(v) for v in params.alpha[e]] for e in params.edges},
        "beta": {edge_key(e): [float(v) for v in params.beta[e]] for e in params.edges},
        "sharing": {
            "alpha": [[edge_key(e) for e in cls] for cls in params.sharing.alpha],
            "beta": [[edge_key(e) for e in cls] for cls in params.sharing.beta],
        },
        "extra": [float(v) for v in params.extra],
    }


def params_from_dict(spec: dict, path: str = "params") -> ModelParams:
    _check_keys(spec, {"gamma", "q", "r", "alpha", "beta", "sharing", "extra"}, path)
    for name in ("q", "r"):
        block = spec.get(name)
        if not isinstance(block, dict):
            raise ConfigError(f"{path}.{name}: expected an object")
        _check_keys(block, {"method", "dim", "values"}, f"{path}.{name}")
        if block.get("method") not in METHODS:
            raise ConfigError(f"{path}.{name}.method: expected one of {METHODS}")
    sharing_spec = spec.get("sharing", {}) or {}
    _check_keys(sharing_spec, {"alpha", "beta"}, f"{path}.sharing")
    try:
        return ModelParams(
            gamma=np.array(spec.get("gamma", []), dtype=float),
            q_repr=PrecisionRepr(spec["q"]["method"], int(spec["q"]["dim"]), np.array(spec["q"]["values"], dtype=float)),
            r_repr=PrecisionRepr(spec["r"]["method"], int(spec["r"]["dim"]), np.array(spec["r"]["values"], dtype=float)),
            alpha={parse_edge_key(k): np.array(v, dtype=float) for k, v in spec.get("alpha", {}).items()},
            beta={parse_edge_key(k): np.array(v, dtype=float) for k, v in spec.get("beta", {}).items()},
            sharing=Sharing(
                alpha=tuple(tuple(parse_edge_key(e) for e in cls) for cls in sharing_spec.get("alpha", [])),
                beta=tuple(tuple(parse_edge_key(e) for e in cls) for cls in sharing_spec.get("beta", [])),
            ),
            extra=np.array(spec.get("extra", []), dtype=float),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def write_params(params: ModelParams, path: str | Path) -> None:
    with open(path, "w") as f:
        json.dump(params_to_dict(params), f, indent=2, sort_keys=True)
        f.write("\n")


def read_params(path: str | Path) -> ModelParams:
    with open(path) as f:
        return params_from_dict(json.load(f), path=str(path))


# --------------------------------------------------------------------------
# Run configuration


def _param_keys(fn, *supplied: str) -> frozenset:
    """The parameters of a function or constructor, less those its caller supplies."""
    return frozenset(inspect.signature(fn).parameters).difference(supplied)


def _field_keys(cls) -> frozenset:
    """The constructor fields of a dataclass."""
    return frozenset(f.name for f in dataclasses.fields(cls) if f.init)


_FAMILIES = {
    "effects": EFFECTS_FAMILIES,
    "regression": REGRESSION_FAMILIES,
    "link": LINK_FAMILIES,
    "hazard": HAZARD_FAMILIES,
}

# Each section's keys are the fields or parameters of what it feeds, except
# where no signature states them (design, predict, fim, the top level).
_SECTION_KEYS = {
    "graph": _param_keys(build_graph),
    "design": {"effects", "regression", "edges", "n_quad"},
    "fit": _field_keys(FitConfig) | {"stop"},
    "sampler": _field_keys(SamplerConfig),
    "simulate": _param_keys(generate_cohort, "design", "params", "seed"),
    "predict": {"truncations", "horizons", "n_draws", "warmup", "thin"},
    "fim": {"n_samples"},
}

_TOP_KEYS = {"seed", "graph", "design", "params", "fit", "sampler", "simulate", "predict", "fim"}


def _check_keys(spec: dict, allowed: set, path: str) -> None:
    unknown = set(spec) - allowed
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"unknown key {path}.{key}")


def _family_spec(kind: str, spec, path: str) -> tuple[type, dict]:
    """The registered class of a family spec and its keyword arguments,
    which must be parameters of the class's constructor (less
    ``regression``, which links are given by the design)."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigError(f"{path}: expected an object with a 'family' key")
    name = spec["family"]
    table = _FAMILIES[kind]
    if name not in table:
        raise ConfigError(f"{path}.family: unknown {kind} family {name!r}")
    kwargs = {k: v for k, v in spec.items() if k != "family"}
    _check_keys(kwargs, _param_keys(table[name], "regression"), path)
    return table[name], kwargs


def _build_family(kind: str, spec, path: str, regression=None):
    """Construct a family from its spec; links take the design's regression."""
    cls, kwargs = _family_spec(kind, spec, path)
    if "regression" in inspect.signature(cls).parameters:
        kwargs["regression"] = regression
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path: str | Path) -> dict:
    try:
        with open(path) as f:
            config = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: the config must be a JSON object")
    validate_config(config)
    return config


def validate_config(config: dict) -> None:
    _check_keys(config, _TOP_KEYS, "config")
    for section, allowed in _SECTION_KEYS.items():
        block = config.get(section)
        if block is None:
            continue
        if not isinstance(block, dict):
            raise ConfigError(f"config.{section}: expected an object")
        if section == "design":
            _check_keys(block, allowed, f"config.{section}")
            _family_spec("effects", block.get("effects", {}), "config.design.effects")
            _family_spec("regression", block.get("regression", {}), "config.design.regression")
            edges = block.get("edges", {})
            if not isinstance(edges, dict):
                raise ConfigError("config.design.edges: expected an object")
            for key, espec in edges.items():
                parse_edge_key(key)
                _check_keys(espec, {"hazard", "link"}, f"config.design.edges.{key}")
                _family_spec("hazard", espec.get("hazard", {}), f"config.design.edges.{key}.hazard")
                _family_spec("link", espec.get("link", {}), f"config.design.edges.{key}.link")
        else:
            _check_keys(block, allowed, f"config.{section}")
    if "fit" in config and isinstance(config["fit"], dict) and "stop" in config["fit"]:
        _check_keys(config["fit"]["stop"] or {}, _field_keys(StopRule), "config.fit.stop")
    if "params" in config:
        params_from_dict(config["params"], "config.params")


def build_graph_from_config(config: dict) -> TransitionGraph:
    spec = config.get("graph")
    if spec is None:
        raise ConfigError("config.graph: missing section")
    try:
        return build_graph(
            int(spec["num_states"]),
            [tuple(e) for e in spec["edges"]],
            spec.get("labels"),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"config.graph: {exc}") from exc


def build_design_from_config(config: dict) -> ModelDesign:
    spec = config.get("design")
    if spec is None:
        raise ConfigError("config.design: missing section")
    effects = _build_family("effects", spec.get("effects", {}), "config.design.effects")
    regression = _build_family("regression", spec.get("regression", {}), "config.design.regression")
    edge_specs = {}
    links_cache: dict[str, object] = {}
    for key, espec in spec.get("edges", {}).items():
        edge, path = parse_edge_key(key), f"config.design.edges.{key}"
        hazard = _build_family("hazard", espec.get("hazard", {}), f"{path}.hazard")
        lspec = espec.get("link", {})
        cache_key = json.dumps(lspec, sort_keys=True)
        if cache_key not in links_cache:
            links_cache[cache_key] = _build_family("link", lspec, f"{path}.link", regression)
        edge_specs[edge] = (hazard, links_cache[cache_key])
    try:
        return ModelDesign(effects, regression, edge_specs, n_quad=int(spec.get("n_quad", DEFAULT_QUAD_NODES)))
    except ValueError as exc:
        raise ConfigError(f"config.design: {exc}") from exc
