import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
METRICS = {"setup_s", "peak_rss_mb", "work_s", "op_p50_ms", "op_p90_ms"}


def load_script():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_schema(tmp_path):
    out = tmp_path / "BENCH_test.json"
    argv = ["--pr", "test", "--workloads", "cohort-sim", "--seeds", "3", "--seconds", "1", "--out", str(out)]
    assert load_script().main(argv) == 0
    record = json.loads(out.read_text())
    assert record["pr"] == "test"
    assert {"cores", "python", "numpy"} <= set(record["machine"])
    assert record["settings"] == {"seconds": 1, "seeds": [3], "paired": False}
    entry = record["workloads"]["cohort-sim"]
    assert set(entry) == {"change", "traced"}  # no parent: no pairs
    (run,) = entry["change"]["runs"]
    assert run["correct"] and run["failed"] == 0 and run["seed"] == 3
    assert set(entry["change"]["summary"]) == METRICS
    for name, stats in entry["change"]["summary"].items():
        assert stats["q1"] == stats["median"] == stats["q3"] == run["metrics"][name]["value"]
        assert stats["unit"] == run["metrics"][name]["unit"]
    traced = entry["traced"]["change"]
    assert traced["correct"] and "simulate.step_calls" in traced["metrics"]


def test_pair_wins_follow_each_metric_direction():
    def run(lat, rate):
        return {"metrics": {"lat": {"value": lat}, "rate": {"value": rate}}}

    change = [run(1.0, 5.0), run(2.0, 5.0), run(3.0, 1.0)]
    parent = [run(2.0, 4.0), run(2.0, 6.0), run(1.0, 1.0)]
    wins = load_script().pair_wins(change, parent, {"lat": "lower", "rate": "higher"})
    assert wins == {
        "lat": {"change": 1, "parent": 1, "ties": 1},
        "rate": {"change": 1, "parent": 1, "ties": 1},
    }


def fake_result(seed, correct=True, failed=0):
    metrics = {name: {"value": 1.0, "unit": "s"} for name in METRICS}
    return {"correct": correct, "attempted": 4, "failed": failed, "metrics": metrics, "seed": seed}


def test_unknown_workload_fails_before_any_run(monkeypatch, tmp_path):
    module = load_script()
    ran = []
    monkeypatch.setattr(module, "run_bench", lambda *args, **kwargs: ran.append(args))
    argv = ["--pr", "t", "--workloads", "cohort-sim", "study-fitt", "--seeds", "1", "--out", str(tmp_path / "x.json")]
    with pytest.raises(SystemExit) as exc:
        module.main(argv)
    assert exc.value.code != 0
    assert ran == [] and not (tmp_path / "x.json").exists()


def test_incorrect_and_failed_runs_are_listed_and_exit_nonzero(monkeypatch, tmp_path, capsys):
    module = load_script()

    def run_bench(tree, workload, seed, seconds, trace):
        if trace:
            return fake_result(seed, correct=tree == module.ROOT)  # the parent's traced run is wrong
        return fake_result(seed, failed=int(seed == 2 and tree == module.ROOT))

    monkeypatch.setattr(module, "run_bench", run_bench)
    out = tmp_path / "BENCH_t.json"
    argv = ["--pr", "t", "--workloads", "study-fit", "--seeds", "1", "2", "--parent", str(tmp_path), "--out", str(out)]
    assert module.main(argv) == 1
    record = json.loads(out.read_text())  # written before failing
    assert len(record["workloads"]["study-fit"]["change"]["runs"]) == 2
    err = capsys.readouterr().err
    assert "study-fit change seed 2: correct=True, failed 1 of 4" in err
    assert "study-fit parent traced seed 1: correct=False, failed 0 of 4" in err
    assert err.count("FAULTY RUN") == 2


def test_clean_runs_exit_zero(monkeypatch, tmp_path):
    module = load_script()
    monkeypatch.setattr(module, "run_bench", lambda tree, workload, seed, seconds, trace: fake_result(seed))
    argv = ["--pr", "t", "--workloads", "cohort-sim", "--seeds", "1", "--out", str(tmp_path / "b.json")]
    assert module.main(argv) == 0
