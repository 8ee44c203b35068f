"""Batch command-line interface: simulate cohorts, fit models, compute
Fisher-information standard errors, and run dynamic predictions.

Commands share the flags --config, --data, --out, --seed and --threads;
exit codes are 0 on success, 2 on configuration/validation errors, 1 on
runtime errors. With a fixed seed and --threads 1 every command is
byte-reproducible.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .dataset import validate_cohort
from .graph import build_buckets
from .inference import FitConfig, StopRule, compute_fim, fit, stderr
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
from .params import flatten
from .predict import accuracy, predict_cohort_grid
from .sampler import SamplerConfig
from .simulate import generate_cohort


@contextmanager
def _section(name: str):
    """Report a constructor's rejection of a config section as a ConfigError
    naming the section."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config.{name}: {exc}") from exc


def _count(spec: dict, key: str, default: int) -> int:
    """A count setting of a config section, which must be at least 1."""
    value = int(spec.get(key, default))
    if value < 1:
        raise ValueError(f"{key} must be >= 1, got {value}")
    return value


def _sampler_config(config: dict) -> SamplerConfig:
    with _section("sampler"):
        return SamplerConfig(**(config.get("sampler") or {}))


def _fit_config(config: dict) -> tuple[FitConfig, StopRule]:
    spec = dict(config.get("fit") or {})
    stop_spec = spec.pop("stop", None) or {}
    with _section("fit"):
        return FitConfig(**spec), StopRule(**stop_spec)


def _require(config: dict, section: str) -> dict:
    block = config.get(section)
    if block is None:
        raise ConfigError(f"config.{section}: missing section")
    return block


def cmd_simulate(config: dict, out_dir: Path, seed: int) -> None:
    graph = build_graph_from_config(config)
    design = build_design_from_config(config)
    design.validate_against(graph)
    if "params" not in config:
        raise ConfigError("config.params: missing section (true parameters are required to simulate)")
    params = params_from_dict(config["params"], "config.params")
    design.validate_params(params)
    spec = {"n": 100, "m": 10, **_require(config, "simulate")}
    if spec.get("censoring") == "inf":
        spec["censoring"] = np.inf
    if "initial" in spec:
        spec["initial"] = tuple(spec["initial"])
    cohort, latent = generate_cohort(design, params, seed=seed, **spec)
    write_cohort(cohort, out_dir, latent=latent)
    counts = build_buckets(graph, cohort.trajectories(), cohort.censoring_times()).counts()
    print(f"simulated {len(cohort)} individuals into {out_dir}")
    for edge, count in sorted(counts.items()):
        print(f"  transitions {edge[0]}->{edge[1]}: {count}")


def _load_validated_cohort(config: dict, data_dir: Path):
    graph = build_graph_from_config(config)
    design = build_design_from_config(config)
    design.validate_against(graph)
    cohort = read_cohort(data_dir)
    violations = validate_cohort(cohort, graph)
    if violations:
        raise ConfigError("invalid cohort: " + "; ".join(violations[:10]))
    return graph, design, cohort


def cmd_fit(config: dict, data_dir: Path, out_dir: Path, seed: int) -> None:
    graph, design, cohort = _load_validated_cohort(config, data_dir)
    if "params" not in config:
        raise ConfigError("config.params: missing section (initial parameters)")
    init = params_from_dict(config["params"], "config.params")
    design.validate_params(init)
    fit_cfg, stop_rule = _fit_config(config)
    report = fit(
        cohort, design, graph, init, fit_cfg, stop_rule, _sampler_config(config), seed=seed
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    write_params(report.params, out_dir / "params.json")
    with open(out_dir / "history.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["iteration"] + report.param_names + ["loglik"])
        for it in range(report.theta_history.shape[0]):
            w.writerow(
                [it + 1]
                + [fmt(v) for v in report.theta_history[it]]
                + [fmt(report.loglik_history[it])]
            )
    with open(out_dir / "report.json", "w") as f:
        json.dump(
            {"iterations": report.iterations, "stop_reason": report.stop_reason, "seed": seed},
            f, indent=2, sort_keys=True,
        )
        f.write("\n")
    print(f"fit: {report.iterations} iterations ({report.stop_reason}); wrote {out_dir}")


def cmd_fim(config: dict, data_dir: Path, params_file: Path, out_dir: Path, seed: int) -> None:
    graph, design, cohort = _load_validated_cohort(config, data_dir)
    params = read_params(params_file)
    design.validate_params(params)
    with _section("fim"):
        n_samples = _count(config.get("fim") or {}, "n_samples", 1000)
    estimate = compute_fim(
        cohort, design, graph, params, _sampler_config(config), n_samples=n_samples, seed=seed
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    names = params.layout().names()
    with open(out_dir / "fim.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["param"] + names)
        for name, row in zip(names, estimate.matrix):
            w.writerow([name] + [fmt(v) for v in row])
    errs = stderr(estimate)
    values = flatten(params)
    with open(out_dir / "stderr.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["param", "value", "stderr"])
        for name, value, err in zip(names, values, errs):
            w.writerow([name, fmt(value), fmt(err)])
    print(f"fim: {estimate.n_samples} score draws; wrote {out_dir}")


def cmd_predict(config: dict, data_dir: Path, params_file: Path, out_dir: Path, seed: int) -> None:
    graph, design, cohort = _load_validated_cohort(config, data_dir)
    params = read_params(params_file)
    design.validate_params(params)
    spec = _require(config, "predict")
    truncations = [float(t) for t in spec.get("truncations", [])]
    horizons = [float(u) for u in spec.get("horizons", [])]
    if not truncations:
        raise ConfigError("config.predict.truncations: at least one truncation time is required")
    if not horizons:
        raise ConfigError("config.predict.horizons: at least one horizon is required")
    n_chains = _sampler_config(config).n_chains  # the rest of the sampler settings come from predict
    with _section("predict"):
        n_draws = _count(spec, "n_draws", 200)
        sampler_cfg = SamplerConfig(
            n_chains=n_chains, warmup=int(spec.get("warmup", 500)), thin=int(spec.get("thin", 5))
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
    with open(out_dir / "predictions.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id", "truncation", "horizon", "outcome", "probability", "modal"])
        w.writerows(pred_rows)
    with open(out_dir / "accuracy.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["truncation", "horizon", "accuracy", "n"])
        w.writerows(acc_rows)
    print(f"predict: {len(truncations)} truncations x {len(horizons)} horizons; wrote {out_dir}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msjoint",
        description="Joint multi-state / longitudinal modeling: simulate, fit, fim, predict.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_data, needs_params in (
        ("simulate", False, False),
        ("fit", True, False),
        ("fim", True, True),
        ("predict", True, True),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, type=Path)
        p.add_argument("--out", required=True, type=Path)
        p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and validated (>= 1) only: the engine is "
                            "single-threaded, so the value has no effect")
        if needs_data:
            p.add_argument("--data", required=True, type=Path)
        if needs_params:
            p.add_argument("--params", required=True, type=Path)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        config = load_config(args.config)
        seed = args.seed if args.seed is not None else int(config.get("seed", 0))
        if args.command == "simulate":
            cmd_simulate(config, args.out, seed)
        elif args.command == "fit":
            cmd_fit(config, args.data, args.out, seed)
        elif args.command == "fim":
            cmd_fim(config, args.data, args.params, args.out, seed)
        elif args.command == "predict":
            cmd_predict(config, args.data, args.params, args.out, seed)
        return 0
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
