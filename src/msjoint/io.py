"""File formats and run configuration: lossless CSV cohort files, params as
JSON (method tags + raw log-Cholesky values), and a strict config schema
that rejects unknown keys."""

from __future__ import annotations

import dataclasses
import inspect
import json
from itertools import compress, repeat
from pathlib import Path

import numpy as np

from .dataset import Cohort, IndividualRecord, Trajectory, first_unordered
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
    """Write the cohort's CSV files, one %-format per file over the file's
    cells as floats (``%d`` prints an integral float as the integer), as
    ``csv.writer`` would with every float through ``fmt`` (no cell needs
    quoting). A missing longitudinal row has its blank format in the
    file's format string and no y cells."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n, k, d = len(cohort), cohort.n_covariates, cohort.n_biomarkers

    def names(prefix, size):
        return "".join(f",{prefix}{j+1}" for j in range(size))

    def uniform(header, row, *columns):
        cells = np.column_stack(columns)
        return header, [row] * len(cells), cells.ravel().tolist()

    ids = np.arange(n, dtype=float)
    counts = [rec.n_measurements for rec in cohort]
    gone = np.concatenate([np.zeros(0, dtype=bool), *(rec.missing_rows for rec in cohort)])
    cells = np.column_stack([
        np.repeat(ids, counts),
        np.concatenate([np.zeros(0), *(rec.measurement_times for rec in cohort)]),
        np.concatenate([np.zeros((0, d)), *(rec.measurements for rec in cohort)]),
    ])
    kept = np.ones(cells.shape, dtype=bool)
    kept[gone, 2:] = False
    full, blank = "%d,%.17g" + ",%.17g" * d, "%d,%.17g" + "," * d
    pairs = [(i, t, s) for i, rec in enumerate(cohort) for t, s in rec.trajectory.pairs]
    tables = {  # per file: the header, each row's format, and the cells in turn
        "covariates.csv": uniform(
            "id" + names("x", k), "%d" + ",%.17g" * k, ids, np.array([rec.covariates for rec in cohort]).reshape(n, k)
        ),
        "longitudinal.csv": (
            "id,time" + names("y", d), [blank if g else full for g in gone.tolist()], cells[kept].tolist()
        ),
        "trajectories.csv": uniform("id,time,state", "%d,%.17g,%d", np.array(pairs, dtype=float).reshape(-1, 3)),
        "censoring.csv": uniform("id,ctime", "%d,%.17g", ids, [rec.censoring_time for rec in cohort]),
    }
    if latent is not None:
        b, psi = np.asarray(latent["b"], dtype=float), np.asarray(latent["psi"], dtype=float)
        tables["latent.csv"] = uniform(
            "id" + names("b", b.shape[1]) + names("psi", psi.shape[1]),
            "%d" + ",%.17g" * (b.shape[1] + psi.shape[1]), np.arange(len(b), dtype=float), b, psi,
        )
    for name, (header, formats, values) in tables.items():
        with open(out / name, "w", newline="") as f:
            f.write("\r\n".join([header, *formats]) % tuple(values) + "\r\n")


class _Table:
    """The non-blank rows of one cohort CSV file as one flat list of cells,
    row after row, with their line numbers. Lines end in \\n, \\r\\n or \\r,
    and cells are split at every comma: the format has no quoting. A missing
    file, a missing header or one narrower than ``least`` cells, a quote and
    a row whose width differs from the header's are errors naming the file
    (and line)."""

    def __init__(self, data: Path, name: str, least: int):
        path = data / name
        if not path.exists():
            raise ConfigError(f"missing data file {path}")
        self.name = name
        text = path.read_text()  # universal newlines: every line ends in \n
        if '"' in text:
            raise self.error(text.count("\n", 0, text.index('"')) + 1, "quoted cell (cohort files are unquoted)")
        header, _, body = text.partition("\n")
        if not header:
            raise ConfigError(f"{name}: missing header row")
        self.width = header.count(",") + 1
        rows = body.split("\n")
        self.lines = [ln for ln, row in enumerate(rows, start=2) if row]  # blank lines are skipped
        body = "\n".join(filter(None, rows))
        if body:  # cells per row, from the commas before each line end
            chars = np.frombuffer(f"{body}\n".encode(), np.uint8)
            commas = np.searchsorted(np.flatnonzero(chars == ord(",")), np.flatnonzero(chars == ord("\n")))
            cells = np.diff(commas, prepend=0) + 1
            if np.any(cells != self.width):
                r = int(np.argmax(cells != self.width))
                raise self.error(self.lines[r], f"{cells[r]} cells, the header has {self.width}")
        if self.width < least:
            raise ConfigError(f"{name}: the header has {self.width} cells, at least {least} are needed")
        self.cells = body.replace("\n", ",").split(",") if body else []

    def error(self, line: int, message) -> ConfigError:
        return ConfigError(f"{self.name} line {line}: {message}")

    def column(self, col: int) -> list[str]:
        return self.cells[col :: self.width]

    def parse(self, col: int, kind=float, keep=None) -> np.ndarray:
        """Column ``col`` converted by ``kind`` (float or int), of the rows
        where ``keep`` holds (all rows by default)."""
        cells = self.column(col) if keep is None else list(compress(self.column(col), keep))
        try:
            return np.array(cells, dtype=kind)
        except ValueError:
            lines = self.lines if keep is None else compress(self.lines, keep)
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

    def groups(self, index: dict[int, int]) -> tuple[np.ndarray, list[int]]:
        """The rows grouped by individual in the order of ``index`` (id ->
        position), each group in file order, and the bounds of the groups;
        an id that ``index`` lacks is an error."""
        ids = self.parse(0, int).tolist()
        pos = np.array(list(map(index.get, ids, repeat(-1))), dtype=int)
        if np.any(pos < 0):
            r = int(np.argmax(pos < 0))
            raise self.error(self.lines[r], f"unknown individual id {ids[r]}")
        order = np.argsort(pos, kind="stable")
        return order, np.searchsorted(pos[order], np.arange(len(index) + 1)).tolist()


def read_cohort(data_dir: str | Path) -> Cohort:
    """Read the cohort files that :func:`write_cohort` writes. Records follow
    the rows of ``covariates.csv``; each individual's rows of the other files
    keep their file order."""
    data = Path(data_dir)
    cov = _Table(data, "covariates.csv", 1)
    ids = cov.parse(0, int).tolist()
    index = {i: j for j, i in enumerate(ids)}
    if len(index) < len(ids):
        j = next(j for j, i in enumerate(ids) if index[i] != j)
        raise cov.error(cov.lines[j], f"duplicate individual id {ids[j]}")
    x = cov.floats(1)

    lon = _Table(data, "longitudinal.csv", 2)
    d = lon.width - 2
    order, measured = lon.groups(index)
    times = lon.parse(1)[order]
    blank = np.zeros(len(lon.lines), dtype=int)  # empty measurement cells per row
    for col in range(2, lon.width):
        blank += np.fromiter(map(len, lon.column(col)), dtype=int, count=len(lon.lines)) == 0
    partial = (blank > 0) & (blank < d)
    if partial.any():
        raise lon.error(lon.lines[int(np.argmax(partial))], "partially missing measurement row")
    y = np.full((len(lon.lines), d), np.nan)
    seen = blank == 0
    y[seen] = lon.floats(2, seen)
    y = y[order]

    traj = _Table(data, "trajectories.csv", 3)
    traj_order, moved = traj.groups(index)
    move_times, states = traj.parse(1)[traj_order].tolist(), traj.parse(2, int)[traj_order].tolist()

    cens = _Table(data, "censoring.csv", 2)
    order, censored = cens.groups(index)
    ctimes = cens.parse(1)[order].tolist()

    records = []
    for j, i in enumerate(ids):
        (a, b), (c, e), (m0, m1) = moved[j : j + 2], censored[j : j + 2], measured[j : j + 2]
        if a == b or c == e:
            missing = "censoring time" if a < b else "trajectory rows"
            raise ConfigError(f"individual {i} (covariates.csv line {cov.lines[j]}): no {missing}")
        pairs = tuple(zip(move_times[a:b], states[a:b]))
        try:
            trajectory = Trajectory(pairs)
        except ValueError as exc:
            k = first_unordered(pairs)
            raise traj.error(traj.lines[traj_order[a + k]], f"individual {i}: {exc}") from exc
        records.append(
            IndividualRecord(
                covariates=x[j],
                measurement_times=times[m0:m1],
                measurements=y[m0:m1],
                trajectory=trajectory,
                censoring_time=ctimes[e - 1],
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
        **{
            key: {"method": rep.method, "dim": rep.dim, "values": [float(v) for v in rep.values]}
            for key, rep in (("q", params.q_repr), ("r", params.r_repr))
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

_TOP_KEYS = {"seed", "params", *_SECTION_KEYS}


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
        return ModelDesign(effects, regression, edge_specs, n_quad=spec.get("n_quad", DEFAULT_QUAD_NODES))
    except ValueError as exc:
        raise ConfigError(f"config.design: {exc}") from exc
