import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "identity_check.py"


def load_script():
    spec = importlib.util.spec_from_file_location("identity_check", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_lists_every_item_of_either_table():
    change = {"grad": "a1", "fit": "b2", "only change": "c3"}
    parent = {"grad": "a1", "fit": "bX", "only parent": "d4"}
    assert load_script().compare(change, parent) == [
        ("fit", "different"),
        ("grad", "equal"),
        ("only change", "missing in parent"),
        ("only parent", "missing in change"),
    ]


def test_exit_status_follows_the_comparison(monkeypatch, tmp_path, capsys):
    module = load_script()
    tables = {module.ROOT: {"grad": "a1", "fit": "b2"}}
    monkeypatch.setattr(module, "tree_hashes", lambda tree, shared: tables[tree])
    tables[tmp_path] = {"grad": "a1", "fit": "b2"}
    assert module.main(["--parent", str(tmp_path)]) == 0
    assert "2 of 2 items equal" in capsys.readouterr().out
    tables[tmp_path] = {"grad": "a1", "fit": "bX"}
    assert module.main(["--parent", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "different  fit" in out and "1 of 2 items equal" in out


def test_the_parent_pass_runs_first_and_both_share_one_directory(monkeypatch, tmp_path):
    module = load_script()
    calls = []

    def hashes(tree, shared):
        calls.append((tree, shared))
        return {"grad": "a1"}

    monkeypatch.setattr(module, "tree_hashes", hashes)
    assert module.main(["--parent", str(tmp_path)]) == 0
    assert [tree for tree, _ in calls] == [tmp_path.resolve(), module.ROOT]
    assert calls[0][1] == calls[1][1]


def records(cohort):
    return [(rec.covariates, rec.measurement_times, rec.measurements, rec.trajectory.pairs, rec.censoring_time)
            for rec in cohort]


def test_the_first_shared_cohort_is_the_one_every_pass_reads(tmp_path, study_design, study_params):
    # the parent's pass writes its cohort; the change's pass reads that one
    # back and ignores the cohort it generated itself
    from msjoint.simulate import generate_cohort

    module = load_script()

    first = generate_cohort(study_design, study_params, n=5, m=3, seed=1)
    second = generate_cohort(study_design, study_params, n=5, m=3, seed=2)
    for cohort, latent in (first, second):
        got, got_latent = module.shared_cohort(tmp_path / "study", cohort, latent)
        for a, b in zip(records(got), records(first[0])):
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(got_latent["b"], first[1]["b"])
        np.testing.assert_array_equal(got_latent["psi"], first[1]["psi"])
