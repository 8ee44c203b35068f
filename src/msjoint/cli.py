"""Batch command-line interface: simulate cohorts, fit models, compute
Fisher-information standard errors, and run dynamic predictions.

Every command takes --config, --out, --seed and --threads, and ``COMMANDS``
names the inputs it takes besides (--data, --params). Exit codes are 0 on
success, 2 on configuration/validation errors, 1 on runtime errors. With a
fixed seed and --threads 1 every command is byte-reproducible.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dataset import validate_cohort
from .design import check_count
from .graph import build_buckets
from .inference import DEFAULT_FIM_SAMPLES, FitConfig, StopRule, compute_fim, fit, stderr
from .io import (
    ConfigError,
    build_design_from_config,
    build_graph_from_config,
    fmt,
    load_config,
    params_from_dict,
    read_cohort,
    read_params,
    write_cohort,
    write_params,
)
from .likelihood import check_covariate_count
from .params import flatten
from .predict import DEFAULT_DRAWS, DEFAULT_THIN, DEFAULT_WARMUP, accuracy, predict_cohort_grid
from .sampler import SamplerConfig
from .simulate import generate_cohort


@contextmanager
def _section(name: str):
    """Report a rejection of a config section or an input file as a
    ConfigError naming it."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _count(value, name: str, least: int = 1) -> int:
    """A count setting, flag or seed: an integer (not a bool) >= ``least``."""
    try:
        return check_count(value, name, least)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _sampler_config(config: dict) -> SamplerConfig:
    with _section("config.sampler"):
        return SamplerConfig(**(config.get("sampler") or {}))


def _times(values, name: str) -> list[float]:
    """A list of times, each read by ``float`` (so +-inf is allowed), none
    of them NaN; anything else is a ValueError naming ``name``."""
    try:
        times = [float(v) for v in values]
        valid = not np.isnan(times).any()
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ValueError(f"{name} must be a list of numbers, none of them NaN, got {values!r}")
    return times


def _require(config: dict, section: str) -> dict:
    block = config.get(section)
    if block is None:
        raise ConfigError(f"config.{section}: missing section")
    return block


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _load_inputs(config: dict, args: argparse.Namespace, inputs: tuple[str, ...], params_role: str | None):
    """A command's inputs: the params, read from --params when the command
    takes it and else from ``config.params`` (which holds ``params_role``);
    the config's graph and design, checked against each other and against
    the params; and, with --data, the validated cohort. A mismatch is a
    ConfigError naming ``config.design`` or the params' source."""
    if "params" in inputs:
        params, source = read_params(args.params), str(args.params)
    elif "params" not in config:
        raise ConfigError(f"config.params: missing section ({params_role})")
    else:
        params, source = params_from_dict(config["params"], "config.params"), "config.params"
    graph = build_graph_from_config(config)
    design = build_design_from_config(config)
    with _section("config.design"):
        design.validate_against(graph)
    with _section(source):
        design.validate_params(params)
    loaded = {"params": params, "graph": graph, "design": design}
    if "data" in inputs:
        cohort = read_cohort(args.data)
        violations = validate_cohort(cohort, graph)
        if violations:
            raise ConfigError("invalid cohort: " + "; ".join(violations[:10]))
        with _section("config.design"):
            check_covariate_count(design, cohort.n_covariates)
        loaded["cohort"] = cohort
    return loaded


def cmd_simulate(config: dict, out_dir: Path, seed: int, params, graph, design) -> None:
    spec = {"n": 100, "m": 10, **_require(config, "simulate")}
    with _section("config.design"):
        check_covariate_count(design, spec.get("n_covariates", 1), "config.simulate")
    if spec.get("censoring") == "inf":
        spec["censoring"] = np.inf
    if "initial" in spec:
        spec["initial"] = tuple(spec["initial"])
    with _section("config.simulate"):
        cohort, latent = generate_cohort(design, params, seed=seed, **spec)
    write_cohort(cohort, out_dir, latent=latent)
    counts = build_buckets(graph, cohort.trajectories(), cohort.censoring_times()).counts()
    print(f"simulated {len(cohort)} individuals into {out_dir}")
    for edge, count in sorted(counts.items()):
        print(f"  transitions {edge[0]}->{edge[1]}: {count}")


def cmd_fit(config: dict, out_dir: Path, seed: int, params, graph, design, cohort) -> None:
    spec = dict(config.get("fit") or {})
    stop_spec = spec.pop("stop", None) or {}
    with _section("config.fit"):
        fit_cfg, stop_rule = FitConfig(**spec), StopRule(**stop_spec)
    report = fit(cohort, design, graph, params, fit_cfg, stop_rule, _sampler_config(config), seed=seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_params(report.params, out_dir / "params.json")
    _write_csv(
        out_dir / "history.csv",
        ["iteration"] + report.param_names + ["loglik"],
        ([it] + [fmt(v) for v in theta] + [fmt(loglik)]
         for it, (theta, loglik) in enumerate(zip(report.theta_history, report.loglik_history), 1)),
    )
    with open(out_dir / "report.json", "w") as f:
        json.dump(
            {"iterations": report.iterations, "stop_reason": report.stop_reason, "seed": seed},
            f, indent=2, sort_keys=True,
        )
        f.write("\n")
    print(f"fit: {report.iterations} iterations ({report.stop_reason}); wrote {out_dir}")


def cmd_fim(config: dict, out_dir: Path, seed: int, params, graph, design, cohort) -> None:
    with _section("config.fim"):
        n_samples = _count((config.get("fim") or {}).get("n_samples", DEFAULT_FIM_SAMPLES), "n_samples")
    estimate = compute_fim(
        cohort, design, graph, params, _sampler_config(config), n_samples=n_samples, seed=seed
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    names = params.layout().names()
    _write_csv(
        out_dir / "fim.csv", ["param"] + names,
        ([name] + [fmt(v) for v in row] for name, row in zip(names, estimate.matrix)),
    )
    _write_csv(
        out_dir / "stderr.csv", ["param", "value", "stderr"],
        ([name, fmt(value), fmt(err)] for name, value, err in zip(names, flatten(params), stderr(estimate))),
    )
    print(f"fim: {estimate.n_samples} score draws; wrote {out_dir}")


def cmd_predict(config: dict, out_dir: Path, seed: int, params, graph, design, cohort) -> None:
    spec = _require(config, "predict")
    with _section("config.predict"):
        truncations, horizons = (_times(spec.get(key, []), key) for key in ("truncations", "horizons"))
    if not truncations:
        raise ConfigError("config.predict.truncations: at least one truncation time is required")
    if not horizons:
        raise ConfigError("config.predict.horizons: at least one horizon is required")
    sampler_cfg = _sampler_config(config)
    with _section("config.predict"):
        n_draws = _count(spec.get("n_draws", DEFAULT_DRAWS), "n_draws")
        sampler_cfg = replace(
            sampler_cfg, warmup=spec.get("warmup", DEFAULT_WARMUP), thin=spec.get("thin", DEFAULT_THIN)
        )
    master = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    pred_rows = []
    acc_rows = []
    for t in truncations:
        probs, capped = predict_cohort_grid(
            cohort, t, horizons, design, params, graph, sampler_cfg, n_draws, master
        )
        modal = np.argmax(probs, axis=2)
        censored_mass = 1.0 - probs.sum(axis=2)
        for i in range(len(cohort)):
            for ui, u in enumerate(horizons):
                for s in range(graph.num_states):
                    pred_rows.append(
                        [i, fmt(t), fmt(u), s, fmt(probs[i, ui, s]), int(s == modal[i, ui])]
                    )
                if censored_mass[i, ui] > 1e-12:
                    pred_rows.append([i, fmt(t), fmt(u), "censored", fmt(censored_mass[i, ui]), 0])
        if not len(cohort):
            continue  # accuracy over no individuals is undefined: header-only tables
        truth = np.array([[rec.trajectory.state_at(u) for u in row] for rec, row in zip(cohort, capped)])
        for ui, u in enumerate(horizons):
            acc_rows.append([fmt(t), fmt(u), fmt(accuracy(modal[:, ui], truth[:, ui])), len(cohort)])
    header = ["id", "truncation", "horizon", "outcome", "probability", "modal"]
    _write_csv(out_dir / "predictions.csv", header, pred_rows)
    _write_csv(out_dir / "accuracy.csv", ["truncation", "horizon", "accuracy", "n"], acc_rows)
    print(f"predict: {len(truncations)} truncations x {len(horizons)} horizons; wrote {out_dir}")


# command -> (function, the inputs it takes besides --config, what config.params
# holds for it when it does not take --params)
COMMANDS = {
    "simulate": (cmd_simulate, (), "true parameters are required to simulate"),
    "fit": (cmd_fit, ("data",), "initial parameters"),
    "fim": (cmd_fim, ("data", "params"), None),
    "predict": (cmd_predict, ("data", "params"), None),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msjoint",
        description="Joint multi-state / longitudinal modeling: simulate, fit, fim, predict.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, inputs, _) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, type=Path)
        p.add_argument("--out", required=True, type=Path)
        p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and validated (>= 1) only: the engine is "
                            "single-threaded, so the value has no effect")
        for flag in inputs:
            p.add_argument(f"--{flag}", required=True, type=Path)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _count(args.threads, "--threads")
        config = load_config(args.config)
        seed, name = (args.seed, "--seed") if args.seed is not None else (config.get("seed", 0), "config.seed")
        seed = _count(seed, name, 0)
        run, inputs, params_role = COMMANDS[args.command]
        run(config, args.out, seed, **_load_inputs(config, args, inputs, params_role))
        return 0
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
