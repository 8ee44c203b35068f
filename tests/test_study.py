import importlib.util
import sys
from pathlib import Path

import numpy as np

from msjoint.params import flatten
from msjoint.study import study_model

BENCH_STUDY = Path(__file__).resolve().parents[1] / "bench" / "study.py"


def test_bench_study_matches_msjoint_study(monkeypatch):
    # the benchmark keeps its own copy of the study, built from injectable
    # family classes; with the plain classes it must be this package's study
    spec = importlib.util.spec_from_file_location("bench_study", BENCH_STUDY)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # its dataclasses resolve annotations there
    spec.loader.exec_module(bench)
    copy = bench.study_model(bench.Families())
    graph, design, truth, init = study_model()
    np.testing.assert_array_equal(flatten(copy.truth), flatten(truth))
    np.testing.assert_array_equal(flatten(copy.init), flatten(init))
    assert copy.graph == graph  # edges and labels
    assert copy.design.edges == design.edges
    for edge in design.edges:
        got, want = copy.design.hazard(edge), design.hazard(edge)
        assert (type(got), got.rate, got.clock) == (type(want), want.rate, want.clock)
        assert type(copy.design.link(edge)) is type(design.link(edge))
    assert type(copy.design.regression) is type(design.regression)
    assert copy.design.regression.tau == design.regression.tau
    assert copy.design.n_quad == design.n_quad
