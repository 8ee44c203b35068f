"""File formats and run configuration: lossless CSV cohort files, params as
JSON (method tags + raw log-Cholesky values), and a strict config schema
that rejects unknown keys."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .dataset import Cohort, IndividualRecord, Trajectory
from .design import ModelDesign
from .families import EFFECTS_FAMILIES, LINK_FAMILIES, REGRESSION_FAMILIES
from .graph import Edge, TransitionGraph, build_graph
from .hazards import HAZARD_FAMILIES
from .params import METHODS, ModelParams, PrecisionRepr, Sharing


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


def read_cohort(data_dir: str | Path) -> Cohort:
    data = Path(data_dir)

    def rows_of(name):
        path = data / name
        if not path.exists():
            raise ConfigError(f"missing data file {path}")
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None:
                raise ConfigError(f"{name}: missing header row")
            body = [(ln, row) for ln, row in enumerate(reader, start=2) if row]
        return header, body

    header, rows = rows_of("covariates.csv")
    k = len(header) - 1
    ids: list[int] = []
    covariates: dict[int, np.ndarray] = {}
    for ln, row in rows:
        try:
            i = int(row[0])
            covariates[i] = np.array([float(v) for v in row[1:]])
        except ValueError as exc:
            raise ConfigError(f"covariates.csv line {ln}: {exc}") from exc
        ids.append(i)

    header, rows = rows_of("longitudinal.csv")
    d = len(header) - 2
    times: dict[int, list[float]] = {i: [] for i in ids}
    values: dict[int, list[list[float]]] = {i: [] for i in ids}
    for ln, row in rows:
        try:
            i = int(row[0])
            t = float(row[1])
            cells = row[2:]
            if all(c == "" for c in cells):
                y = [np.nan] * d
            elif any(c == "" for c in cells):
                raise ValueError("partially missing measurement row")
            else:
                y = [float(c) for c in cells]
        except ValueError as exc:
            raise ConfigError(f"longitudinal.csv line {ln}: {exc}") from exc
        if i not in times:
            raise ConfigError(f"longitudinal.csv line {ln}: unknown individual id {i}")
        times[i].append(t)
        values[i].append(y)

    header, rows = rows_of("trajectories.csv")
    pairs: dict[int, list[tuple[float, int]]] = {i: [] for i in ids}
    for ln, row in rows:
        try:
            i = int(row[0])
            t = float(row[1])
            s = int(row[2])
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"trajectories.csv line {ln}: {exc}") from exc
        if i not in pairs:
            raise ConfigError(f"trajectories.csv line {ln}: unknown individual id {i}")
        pairs[i].append((t, s))

    header, rows = rows_of("censoring.csv")
    ctimes: dict[int, float] = {}
    for ln, row in rows:
        try:
            ctimes[int(row[0])] = float(row[1])
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"censoring.csv line {ln}: {exc}") from exc

    records = []
    for i in ids:
        if not pairs[i]:
            raise ConfigError(f"individual {i}: no trajectory rows")
        if i not in ctimes:
            raise ConfigError(f"individual {i}: no censoring time")
        try:
            trajectory = Trajectory(tuple(pairs[i]))
        except ValueError as exc:
            raise ConfigError(f"individual {i}: {exc}") from exc
        y = np.array(values[i], dtype=float).reshape(len(times[i]), d)
        records.append(
            IndividualRecord(
                covariates=covariates[i],
                measurement_times=np.array(times[i]),
                measurements=y,
                trajectory=trajectory,
                censoring_time=ctimes[i],
            )
        )
    return Cohort(tuple(records), n_covariates=k, n_biomarkers=d)


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


_FAMILY_KEYS = {
    "effects": {
        "gamma_plus_b": set(),
        "gamma_x_plus_b": {"n_effects", "n_covariates"},
        "transform_stack": {"transforms"},
        "b_only": set(),
    },
    "regression": {
        "polynomial": {"degree"},
        "piecewise_affine": {"breakpoint"},
        "exponential_decay": set(),
        "shifted_tanh": set(),
    },
    "link": {
        "value": set(),
        "slope": set(),
        "value_slope": set(),
        "cumulative": {"lower", "n_nodes"},
        "none": set(),
    },
    "hazard": {
        "exponential": {"rate", "clock", "trainable"},
        "weibull": {"shape", "scale", "clock", "trainable"},
        "piecewise_constant": {"cuts", "levels", "clock", "trainable"},
    },
}

_SECTION_KEYS = {
    "graph": {"num_states", "edges", "labels"},
    "design": {"effects", "regression", "edges", "n_quad"},
    "fit": {
        "optimizer", "learning_rate", "adam_beta1", "adam_beta2", "adam_eps",
        "n_draws", "minibatch", "max_iterations", "grad_clip", "schedule_decay",
        "stop",
    },
    "stop": {"beta1", "beta2", "atol", "rtol"},
    "sampler": {"n_chains", "warmup", "target_accept", "rm_scale", "rm_decay", "init_scale", "thin"},
    "simulate": {"n", "m", "horizon", "min_separation", "censoring", "n_covariates", "initial", "max_transitions"},
    "predict": {"truncations", "horizons", "n_draws", "warmup", "thin"},
    "fim": {"n_samples"},
}

_TOP_KEYS = {"seed", "graph", "design", "params", "fit", "sampler", "simulate", "predict", "fim"}


def _check_keys(spec: dict, allowed: set, path: str) -> None:
    unknown = set(spec) - allowed
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"unknown key {path}.{key}")


def _family_spec(kind: str, spec, path: str) -> tuple[str, dict]:
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigError(f"{path}: expected an object with a 'family' key")
    name = spec["family"]
    table = _FAMILY_KEYS[kind]
    if name not in table:
        raise ConfigError(f"{path}.family: unknown {kind} family {name!r}")
    kwargs = {k: v for k, v in spec.items() if k != "family"}
    unknown = set(kwargs) - table[name]
    if unknown:
        raise ConfigError(f"unknown key {path}.{sorted(unknown)[0]}")
    return name, kwargs


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
        if section in ("stop",):
            continue
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
        _check_keys(config["fit"]["stop"] or {}, _SECTION_KEYS["stop"], "config.fit.stop")
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
    name, kwargs = _family_spec("effects", spec.get("effects", {}), "config.design.effects")
    effects = EFFECTS_FAMILIES[name](**kwargs)
    name, kwargs = _family_spec("regression", spec.get("regression", {}), "config.design.regression")
    regression = REGRESSION_FAMILIES[name](**kwargs)
    edge_specs = {}
    links_cache: dict[str, object] = {}
    for key, espec in spec.get("edges", {}).items():
        edge = parse_edge_key(key)
        hname, hkwargs = _family_spec("hazard", espec.get("hazard", {}), f"config.design.edges.{key}.hazard")
        try:
            hazard = HAZARD_FAMILIES[hname](**hkwargs)
        except ValueError as exc:
            raise ConfigError(f"config.design.edges.{key}.hazard: {exc}") from exc
        lname, lkwargs = _family_spec("link", espec.get("link", {}), f"config.design.edges.{key}.link")
        cache_key = json.dumps({"family": lname, **lkwargs}, sort_keys=True)
        if cache_key not in links_cache:
            links_cache[cache_key] = LINK_FAMILIES[lname](regression, **lkwargs)
        edge_specs[edge] = (hazard, links_cache[cache_key])
    try:
        return ModelDesign(effects, regression, edge_specs, n_quad=int(spec.get("n_quad", 32)))
    except ValueError as exc:
        raise ConfigError(f"config.design: {exc}") from exc
