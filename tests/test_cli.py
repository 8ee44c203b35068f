import csv
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from msjoint import repr_from_cov
from msjoint.cli import main
from msjoint.dataset import Cohort, IndividualRecord, Trajectory
from msjoint.families import EFFECTS_FAMILIES, LINK_FAMILIES, REGRESSION_FAMILIES
from msjoint.hazards import HAZARD_FAMILIES
from msjoint.io import (
    ConfigError,
    build_design_from_config,
    fmt,
    load_config,
    params_from_dict,
    params_to_dict,
    read_cohort,
    read_params,
    validate_config,
    write_cohort,
    write_params,
)


def study_config(n=30, m=6, seed=3, **extra):
    q = repr_from_cov(np.diag([0.6, 0.2, 0.3]), "diag")
    r = repr_from_cov([[1.7]], "ball")
    config = {
        "seed": seed,
        "graph": {"num_states": 3, "edges": [[0, 1], [0, 2], [1, 2]]},
        "design": {
            "effects": {"family": "gamma_plus_b"},
            "regression": {"family": "piecewise_affine", "breakpoint": 6.0},
            "edges": {
                "0->1": {"hazard": {"family": "exponential", "rate": 0.1}, "link": {"family": "value_slope"}},
                "0->2": {"hazard": {"family": "exponential", "rate": 0.01}, "link": {"family": "value_slope"}},
                "1->2": {"hazard": {"family": "exponential", "rate": 0.2}, "link": {"family": "value_slope"}},
            },
        },
        "params": {
            "gamma": [2.5, -1.3, 0.2],
            "q": {"method": "diag", "dim": 3, "values": list(map(float, q.values))},
            "r": {"method": "ball", "dim": 1, "values": list(map(float, r.values))},
            "alpha": {"0->1": [-0.5, -3.0], "0->2": [-1.0, -5.0], "1->2": [0.0, -1.2]},
            "beta": {"0->1": [-1.3], "0->2": [-0.9], "1->2": [-0.7]},
            "sharing": {"alpha": [], "beta": []},
            "extra": [],
        },
        "simulate": {"n": n, "m": m, "horizon": 15.0, "censoring": [10, 15]},
        "fit": {"max_iterations": 2, "n_draws": 4},
        "sampler": {"n_chains": 2, "warmup": 10},
        "predict": {"truncations": [2.0], "horizons": [1.0, 4.0], "n_draws": 25, "warmup": 40, "thin": 2},
        "fim": {"n_samples": 10},
    }
    config.update(extra)
    return config


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(study_config()))
    return path


def read_bytes(path):
    return Path(path).read_bytes()


# -- config schema ---------------------------------------------------------------


def test_config_rejects_unknown_top_level_key(tmp_path):
    cfg = study_config()
    cfg["typo_section"] = {}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="config.typo_section"):
        load_config(path)


def test_config_rejects_unknown_nested_key(tmp_path):
    cfg = study_config()
    cfg["fit"]["learning_rte"] = 0.5
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="config.fit.learning_rte"):
        load_config(path)


def test_config_rejects_unknown_family_kwarg(tmp_path):
    cfg = study_config()
    cfg["design"]["regression"]["breakpont"] = 6.0
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="config.design.regression.breakpont"):
        load_config(path)


@pytest.mark.parametrize(
    "kind, registry, path",
    [
        ("effects", EFFECTS_FAMILIES, "config.design.effects"),
        ("regression", REGRESSION_FAMILIES, "config.design.regression"),
        ("link", LINK_FAMILIES, "config.design.edges.0->1.link"),
        ("hazard", HAZARD_FAMILIES, "config.design.edges.0->1.hazard"),
    ],
)
def test_family_keys_are_the_constructor_parameters(kind, registry, path):
    assert registry
    for name, cls in registry.items():
        keys = {p: 1 for p in inspect.signature(cls).parameters if p != "regression"}
        cfg = study_config()
        parent = cfg["design"] if kind in ("effects", "regression") else cfg["design"]["edges"]["0->1"]
        parent[kind] = {"family": name, **keys}
        validate_config(cfg)  # every constructor parameter is accepted
        misspelt = next(iter(keys), name) + "_typo"
        parent[kind][misspelt] = 1
        with pytest.raises(ConfigError, match=re.escape(f"unknown key {path}.{misspelt}")):
            validate_config(cfg)


def test_config_rejects_stop_rule_moments():
    cfg = study_config()
    cfg["fit"]["stop"] = {"rtol": 0.1, "m1": [0.0]}
    with pytest.raises(ConfigError, match=re.escape("unknown key config.fit.stop.m1")):
        validate_config(cfg)


def test_params_json_round_trip(tmp_path):
    cfg = study_config()
    params = params_from_dict(cfg["params"])
    path = tmp_path / "p.json"
    write_params(params, path)
    back = read_params(path)
    assert params_to_dict(back) == params_to_dict(params)


# -- cohort round trip --------------------------------------------------------------


def test_cohort_round_trip_is_bit_exact(tmp_path, study_cohort):
    cohort, latent = study_cohort
    sub_dir = tmp_path / "d1"
    write_cohort(cohort, sub_dir, latent=latent)
    back = read_cohort(sub_dir)
    sub_dir2 = tmp_path / "d2"
    write_cohort(back, sub_dir2)
    for name in ("covariates.csv", "longitudinal.csv", "trajectories.csv", "censoring.csv"):
        assert read_bytes(sub_dir / name) == read_bytes(sub_dir2 / name), name
    # numeric equality too
    for a, b in zip(cohort, back):
        np.testing.assert_array_equal(a.covariates, b.covariates)
        np.testing.assert_array_equal(a.measurement_times, b.measurement_times)
        np.testing.assert_array_equal(a.measurements, b.measurements)
        assert a.trajectory.pairs == b.trajectory.pairs
        assert a.censoring_time == b.censoring_time


def write_cohort_with_csv_writer(cohort, out, latent):
    """Reference writer: every cell through ``fmt`` and ``csv.writer``."""
    out.mkdir(parents=True)
    k, d = cohort.n_covariates, cohort.n_biomarkers
    tables = {
        "covariates.csv": [["id"] + [f"x{j+1}" for j in range(k)]]
        + [[i] + [fmt(v) for v in rec.covariates] for i, rec in enumerate(cohort)],
        "longitudinal.csv": [["id", "time"] + [f"y{j+1}" for j in range(d)]]
        + [
            [i, fmt(t)] + ([""] * d if np.all(np.isnan(y)) else [fmt(v) for v in y])
            for i, rec in enumerate(cohort)
            for t, y in zip(rec.measurement_times, rec.measurements)
        ],
        "trajectories.csv": [["id", "time", "state"]]
        + [[i, fmt(t), s] for i, rec in enumerate(cohort) for t, s in rec.trajectory.pairs],
        "censoring.csv": [["id", "ctime"]] + [[i, fmt(rec.censoring_time)] for i, rec in enumerate(cohort)],
        "latent.csv": [["id", "b1", "psi1", "psi2"]]
        + [[i] + [fmt(v) for v in row] for i, row in enumerate(np.hstack([latent["b"], latent["psi"]]))],
    }
    for name, rows in tables.items():
        with open(out / name, "w", newline="") as f:
            csv.writer(f).writerows(rows)


def test_write_cohort_matches_csv_writer_bytes(tmp_path):
    tiny, huge = 1e-300, 1e300
    records = [
        IndividualRecord(
            covariates=[-0.0, huge],
            measurement_times=[0.0, 1.5, 2.0 / 3.0, 12.0],
            measurements=[[np.nan, np.nan], [-tiny, 3.0], [np.nan, 1.0], [np.nan, np.nan]],
            trajectory=Trajectory(((0.0, 0), (0.1 + 0.2, 1), (7.25, 2))),
            censoring_time=np.inf,
        ),
        IndividualRecord(
            covariates=[np.pi, -huge],
            measurement_times=[-0.0],
            measurements=[[tiny, -1e-310]],
            trajectory=Trajectory(((-1.0, 0),)),
            censoring_time=11.123456789012345,
        ),
        IndividualRecord(
            covariates=[1.0, 2.0], measurement_times=[], measurements=np.empty((0, 2)),
            trajectory=Trajectory(((0.0, 1),)), censoring_time=-0.0,
        ),
    ]
    cohort = Cohort(tuple(records))
    latent = {
        "b": np.array([[-0.0], [np.inf], [5e-324]]),
        "psi": np.array([[huge, -tiny], [np.nan, -np.inf], [1.0, 0.1]]),
    }
    write_cohort(cohort, tmp_path / "new", latent=latent)
    write_cohort_with_csv_writer(cohort, tmp_path / "ref", latent)
    for name in ("covariates.csv", "longitudinal.csv", "trajectories.csv", "censoring.csv", "latent.csv"):
        assert read_bytes(tmp_path / "new" / name) == read_bytes(tmp_path / "ref" / name), name


def test_infinite_censoring_round_trips(tmp_path):
    from conftest import make_single_individual_cohort

    cohort = make_single_individual_cohort(((0.0, 0),), np.inf, n_meas=2)
    write_cohort(cohort, tmp_path / "d")
    back = read_cohort(tmp_path / "d")
    assert np.isinf(back[0].censoring_time)


def _replace_line(path, line, text):
    """Replace line ``line`` (1-based, the header is line 1) of a CSV file."""
    lines = path.read_text().splitlines()
    lines[line - 1] = text
    path.write_text("\n".join(lines) + "\n")


def _two_biomarker_cohort(out):
    records = [
        IndividualRecord(
            covariates=[0.5], measurement_times=[1.0, 2.0], measurements=[[1.0, 2.0], [3.0, 4.0]],
            trajectory=Trajectory(((0.0, 0), (1.5, 1))), censoring_time=10.0,
        ),
        IndividualRecord(
            covariates=[-0.5], measurement_times=[0.5], measurements=[[5.0, 6.0]],
            trajectory=Trajectory(((0.0, 0),)), censoring_time=12.0,
        ),
    ]
    write_cohort(Cohort(tuple(records)), out)
    return out


@pytest.mark.parametrize(
    "name, line, text, message",
    [
        ("covariates.csv", 3, "1,abc", "covariates.csv line 3: could not convert string to float: 'abc'"),
        ("covariates.csv", 3, "0,-0.5", "covariates.csv line 2: duplicate individual id 0"),
        ("longitudinal.csv", 3, "0,2,3,", "longitudinal.csv line 3: partially missing measurement row"),
        ("longitudinal.csv", 4, "999,0.5,5,6", "longitudinal.csv line 4: unknown individual id 999"),
        ("trajectories.csv", 2, "0,0,0,7", "trajectories.csv line 2: 4 cells, the header has 3"),
        ("trajectories.csv", 3, "0,-1,1", "trajectories.csv line 2: individual 0: trajectory times must be strictly increasing"),
        ("censoring.csv", 3, "", "individual 1 (covariates.csv line 3): no censoring time"),
        ("censoring.csv", 3, "1,12,0", "censoring.csv line 3: 3 cells, the header has 2"),
        ("censoring.csv", 3, "7,12", "censoring.csv line 3: unknown individual id 7"),
        ("trajectories.csv", 4, "", "individual 1 (covariates.csv line 3): no trajectory rows"),
    ],
)
def test_read_cohort_errors_name_file_and_line(tmp_path, name, line, text, message):
    data = _two_biomarker_cohort(tmp_path / "d")
    _replace_line(data / name, line, text)
    with pytest.raises(ConfigError, match=re.escape(message)):
        read_cohort(data)


def test_read_cohort_follows_covariates_order_and_file_order(tmp_path):
    data = _two_biomarker_cohort(tmp_path / "d")
    for name in ("covariates.csv", "longitudinal.csv"):
        header, *rows = (data / name).read_text().splitlines()
        (data / name).write_text("\n".join([header] + rows[::-1]) + "\n")
    back = read_cohort(data)
    assert [rec.covariates.tolist() for rec in back] == [[-0.5], [0.5]]  # id 1 first
    np.testing.assert_array_equal(back[1].measurement_times, [2.0, 1.0])  # unsorted, as filed
    np.testing.assert_array_equal(back[1].measurements, [[3.0, 4.0], [1.0, 2.0]])
    assert back[1].trajectory.pairs == ((0.0, 0), (1.5, 1))
    assert back[0].censoring_time == 12.0


# -- commands ------------------------------------------------------------------------


def test_simulate_writes_all_files(config_file, tmp_path, capsys):
    rc = main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "data")])
    assert rc == 0
    for name in ("covariates.csv", "longitudinal.csv", "trajectories.csv", "censoring.csv", "latent.csv"):
        assert (tmp_path / "data" / name).exists()


def test_simulate_empty_cohort_has_valid_headers(tmp_path):
    cfg = study_config(n=0)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "data")])
    assert rc == 0
    with open(tmp_path / "data" / "longitudinal.csv") as f:
        header = f.readline().strip()
    assert header == "id,time,y1"
    back = read_cohort(tmp_path / "data")
    assert len(back) == 0


def test_predict_empty_cohort_writes_header_only_tables(tmp_path):
    cfg = study_config(n=0)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "data")]) == 0
    write_params(params_from_dict(cfg["params"]), tmp_path / "params.json")
    rc = main([
        "predict", "--config", str(path), "--data", str(tmp_path / "data"),
        "--params", str(tmp_path / "params.json"), "--out", str(tmp_path / "pred"),
    ])
    assert rc == 0
    with open(tmp_path / "pred" / "predictions.csv") as f:
        assert list(csv.reader(f)) == [["id", "truncation", "horizon", "outcome", "probability", "modal"]]
    with open(tmp_path / "pred" / "accuracy.csv") as f:
        assert list(csv.reader(f)) == [["truncation", "horizon", "accuracy", "n"]]


def test_simulate_byte_reproducible(config_file, tmp_path):
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "a"), "--seed", "11"])
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "b"), "--seed", "11"])
    for name in ("covariates.csv", "longitudinal.csv", "trajectories.csv", "censoring.csv", "latent.csv"):
        assert read_bytes(tmp_path / "a" / name) == read_bytes(tmp_path / "b" / name)


def test_simulate_requires_true_params(tmp_path):
    cfg = study_config()
    del cfg["params"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "data")])
    assert rc == 2


def test_fit_zero_iterations_returns_init(config_file, tmp_path):
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "data")])
    cfg = study_config()
    cfg["fit"]["max_iterations"] = 0
    path = tmp_path / "c0.json"
    path.write_text(json.dumps(cfg))
    rc = main(["fit", "--config", str(path), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "fit")])
    assert rc == 0
    fitted = read_params(tmp_path / "fit" / "params.json")
    init = params_from_dict(cfg["params"])
    assert params_to_dict(fitted) == params_to_dict(init)
    report = json.loads((tmp_path / "fit" / "report.json").read_text())
    assert report["iterations"] == 0


def test_fit_emits_history(config_file, tmp_path):
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "data")])
    rc = main(["fit", "--config", str(config_file), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "fit")])
    assert rc == 0
    with open(tmp_path / "fit" / "history.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "iteration"
    assert rows[0][-1] == "loglik"
    assert len(rows) == 3  # header + 2 iterations
    assert len(rows[0]) == 1 + 16 + 1


def test_fit_reports_bad_trajectory_row_with_line_number(config_file, tmp_path):
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "data")])
    traj = tmp_path / "data" / "trajectories.csv"
    lines = traj.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",not_a_state"
    traj.write_text("\n".join(lines) + "\n")
    rc = main(["fit", "--config", str(config_file), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "fit")])
    assert rc == 2


def test_fit_determinism(config_file, tmp_path):
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "data")])
    for out in ("f1", "f2"):
        rc = main([
            "fit", "--config", str(config_file), "--data", str(tmp_path / "data"),
            "--out", str(tmp_path / out), "--seed", "5", "--threads", "1",
        ])
        assert rc == 0
    for name in ("params.json", "history.csv", "report.json"):
        assert read_bytes(tmp_path / "f1" / name) == read_bytes(tmp_path / "f2" / name)


def test_fim_command_outputs(config_file, tmp_path):
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "data")])
    main(["fit", "--config", str(config_file), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "fit")])
    rc = main([
        "fim", "--config", str(config_file), "--data", str(tmp_path / "data"),
        "--params", str(tmp_path / "fit" / "params.json"), "--out", str(tmp_path / "fim"),
    ])
    assert rc == 0
    with open(tmp_path / "fim" / "fim.csv") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 17  # header + 16 rows
    with open(tmp_path / "fim" / "stderr.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["param", "value", "stderr"]
    assert len(rows) == 17


def test_predict_accuracy_is_one_before_truncation(config_file, tmp_path):
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "data")])
    main(["fit", "--config", str(config_file), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "fit")])
    rc = main([
        "predict", "--config", str(config_file), "--data", str(tmp_path / "data"),
        "--params", str(tmp_path / "fit" / "params.json"), "--out", str(tmp_path / "pred"),
    ])
    assert rc == 0
    with open(tmp_path / "pred" / "accuracy.csv") as f:
        rows = {(r["truncation"], r["horizon"]): float(r["accuracy"]) for r in csv.DictReader(f)}
    assert rows[("2", "1")] == 1.0  # horizon before the truncation time
    # prediction rows: distributions sum to one per (id, truncation, horizon)
    with open(tmp_path / "pred" / "predictions.csv") as f:
        probs = {}
        for r in csv.DictReader(f):
            if r["outcome"] != "censored":
                key = (r["id"], r["truncation"], r["horizon"])
                probs[key] = probs.get(key, 0.0) + float(r["probability"])
    assert all(abs(v - 1.0) < 1e-9 for v in probs.values())


def test_predict_requires_truncations(config_file, tmp_path):
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "data")])
    cfg = study_config()
    cfg["predict"]["truncations"] = []
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    main(["fit", "--config", str(config_file), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "fit")])
    rc = main([
        "predict", "--config", str(path), "--data", str(tmp_path / "data"),
        "--params", str(tmp_path / "fit" / "params.json"), "--out", str(tmp_path / "pred"),
    ])
    assert rc == 2


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("sampler", "rm_decay", 0.3, "config.sampler: rm_decay"),
        ("sampler", "n_chains", 0, "config.sampler: n_chains"),
        ("fit", "minibatch", 0, "config.fit: minibatch"),
        ("fit", "minibatch", -3, "config.fit: minibatch"),
    ],
    ids=["rm_decay", "n_chains", "minibatch_zero", "minibatch_negative"],
)
def test_sampler_config_error_exits_2(config_file, tmp_path, capsys, section, key, value, message):
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "data")])
    cfg = study_config()
    cfg[section][key] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    rc = main(["fit", "--config", str(path), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "fit")])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_predict_thin_error_exits_2(config_file, tmp_path, capsys):
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "data")])
    cfg = study_config()
    cfg["predict"]["thin"] = 0
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    write_params(params_from_dict(cfg["params"]), tmp_path / "params.json")
    rc = main([
        "predict", "--config", str(path), "--data", str(tmp_path / "data"),
        "--params", str(tmp_path / "params.json"), "--out", str(tmp_path / "pred"),
    ])
    assert rc == 2
    assert "config.predict: thin" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section, key, value, message",
    [
        ("fim", "fim", "n_samples", 0, "config.fim: n_samples must be >= 1"),
        ("predict", "predict", "n_draws", 0, "config.predict: n_draws must be >= 1"),
        ("predict", "sampler", "n_chains", 0, "config.sampler: n_chains must be >= 1"),
    ],
    ids=["fim_n_samples", "predict_n_draws", "predict_n_chains"],
)
def test_zero_count_exits_2(config_file, tmp_path, capsys, command, section, key, value, message):
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "data")])
    cfg = study_config()
    cfg[section][key] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    write_params(params_from_dict(cfg["params"]), tmp_path / "params.json")
    rc = main([
        command, "--config", str(path), "--data", str(tmp_path / "data"),
        "--params", str(tmp_path / "params.json"), "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_odd_n_quad_is_a_config_error(tmp_path, capsys):
    cfg = study_config()
    cfg["design"]["n_quad"] = 15
    with pytest.raises(ConfigError, match="config.design: n_quad must be a positive even number"):
        build_design_from_config(cfg)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "data")]) == 2
    assert "config.design: n_quad" in capsys.readouterr().err


def test_unknown_individual_ids_error(config_file, tmp_path):
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "data")])
    traj = tmp_path / "data" / "trajectories.csv"
    with open(traj, "a") as f:
        f.write("999,0,0\n")
    rc = main(["fit", "--config", str(config_file), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "fit")])
    assert rc == 2


def test_missing_config_file_gives_validation_exit(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_threads_flag_validated(config_file, tmp_path):
    rc = main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "o"), "--threads", "0"])
    assert rc == 2
