import importlib.util
import json
from pathlib import Path

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
