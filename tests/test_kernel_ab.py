import importlib.util
import io
import json
import mmap
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "kernel_ab.py"


def load_script():
    spec = importlib.util.spec_from_file_location("kernel_ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_measure(calls):
    """The change takes 2 s per call and the parent 3 s, except that the
    parent is faster in round 3 of kernel "b"; the parent takes r + 10 page
    faults per call in round r, the change none."""
    rounds = {}

    def measure(side, name, number):
        calls.append((side, name, number))
        if number == 1:
            return 0.01, 0.0
        r = rounds[name, side] = rounds.get((name, side), -1) + 1
        faults = 0.0 if side == "change" else r + 10.0
        if name == "b" and r == 3:
            return (1.0 if side == "parent" else 4.0), faults
        return (2.0 + r * 1e-3 if side == "change" else 3.0 + r * 1e-3), faults

    return measure


def test_rounds_alternate_the_first_side_and_size_the_batch_once():
    module = load_script()
    calls = []
    module.alternate(fake_measure(calls), ["a", "b"], rounds=3)
    # every round of a kernel before the next kernel, each sized by one call of each side first
    assert [(side, name) for side, name, _ in calls] == [
        ("parent", "a"), ("change", "a"), ("parent", "a"), ("change", "a"), ("change", "a"),
        ("parent", "a"), ("parent", "a"), ("change", "a"),
        ("parent", "b"), ("change", "b"), ("parent", "b"), ("change", "b"), ("change", "b"),
        ("parent", "b"), ("parent", "b"), ("change", "b"),
    ]
    sized = [(side, name) for side, name, number in calls if number == 1]
    assert sized == [("parent", "a"), ("change", "a"), ("parent", "b"), ("change", "b")]
    assert {number for _, _, number in calls if number > 1} == {int(module.BATCH_SECONDS / 0.01)}


def test_summary_reports_medians_quartiles_and_wins():
    module = load_script()
    times = module.alternate(fake_measure([]), ["a", "b"], rounds=4)
    report = module.summarize(times)
    a, b = report["a"], report["b"]
    assert a["parent"]["median_us"] == pytest.approx(3.0015e6)
    assert a["change"]["median_us"] == pytest.approx(2.0015e6)
    assert a["change"]["q1_us"] <= a["change"]["median_us"] <= a["change"]["q3_us"]
    assert (a["change_wins"], a["rounds"]) == (4, 4)
    assert (b["change_wins"], b["rounds"]) == (3, 4)
    assert a["ratio"] == pytest.approx(2.0015 / 3.0015)
    assert (a["parent"]["faults_per_call"], a["change"]["faults_per_call"]) == (11.5, 0.0)


def test_main_writes_the_report(monkeypatch, tmp_path, capsys):
    module = load_script()

    class FakeWorker:
        def __init__(self, tree):
            self.side = "change" if tree == module.ROOT else "parent"
            self.names = ["a"]

        def measure(self, name, number):
            return (2.0, 0.0) if self.side == "change" else (3.0, 40.0)

        def close(self):
            pass

    monkeypatch.setattr(module, "Worker", FakeWorker)
    out = tmp_path / "ab.json"
    assert module.main(["--parent", str(tmp_path), "--rounds", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["rounds"] == 2 and set(report["machine"]) == {"cores", "python", "numpy"}
    assert report["kernels"]["a"]["change_wins"] == 2
    assert report["kernels"]["a"]["parent"]["faults_per_call"] == 40.0
    assert "change wins 2/2; faults per call 40 -> 0" in capsys.readouterr().out


def test_worker_replies_with_seconds_and_page_faults_per_call(monkeypatch, capsys):
    module = load_script()
    kept = []

    def touch_fresh_pages():
        # an anonymous map is always new memory: writing each page faults it in
        pages = mmap.mmap(-1, 64 * mmap.PAGESIZE)
        for i in range(0, len(pages), mmap.PAGESIZE):
            pages[i] = 1
        kept.append(pages)

    monkeypatch.setattr(module, "build_kernels", lambda work: {"a": touch_fresh_pages})
    monkeypatch.setattr(sys, "stdin", io.StringIO("4 a\n"))
    module.serve()
    for pages in kept:
        pages.close()
    names, reply = capsys.readouterr().out.splitlines()
    seconds, faults = map(float, reply.split())
    assert json.loads(names) == ["a"] and len(kept) == 4
    assert seconds > 0 and faults >= 64
