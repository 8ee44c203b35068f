import importlib.util
from pathlib import Path

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
    monkeypatch.setattr(module, "tree_hashes", lambda tree: tables[tree])
    tables[tmp_path] = {"grad": "a1", "fit": "b2"}
    assert module.main(["--parent", str(tmp_path)]) == 0
    assert "2 of 2 items equal" in capsys.readouterr().out
    tables[tmp_path] = {"grad": "a1", "fit": "bX"}
    assert module.main(["--parent", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "different  fit" in out and "1 of 2 items equal" in out
