import csv
import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_simulation_study.py"


def test_study_script_runs_end_to_end(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("run_simulation_study", SCRIPT)
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    out = tmp_path / "study"
    monkeypatch.setattr(
        sys, "argv",
        [str(SCRIPT), "--n", "20", "--m", "4", "--max-iterations", "2", "--out", str(out)],
    )
    study.main()
    with open(out / "accuracy.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 15  # 3 truncations x 5 horizons
    assert all(0.0 <= float(r["accuracy"]) <= 1.0 for r in rows)
    assert (out / "estimates.json").exists() and (out / "params.json").exists()
