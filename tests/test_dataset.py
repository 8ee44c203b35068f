import numpy as np
import pytest

from msjoint import Cohort, IndividualRecord, Trajectory, build_graph, validate_cohort
from msjoint.dataset import first_unordered


def make_record(pairs=((0.0, 0),), censoring=5.0, times=(), values=None, k=1, d=1):
    times = np.asarray(times, dtype=float)
    if values is None:
        values = np.zeros((times.size, d))
    return IndividualRecord(
        covariates=np.zeros(k),
        measurement_times=times,
        measurements=np.asarray(values, dtype=float),
        trajectory=Trajectory(pairs),
        censoring_time=censoring,
    )


def test_trajectory_requires_increasing_times():
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(((0.0, 0), (0.0, 1)))
    with pytest.raises(ValueError, match="at least the initial"):
        Trajectory(())


@pytest.mark.parametrize("pairs", [((0.0, 0), (np.nan, 1)), ((np.nan, 0),), ((np.nan, 0), (1.0, 1))])
def test_trajectory_rejects_nan_times(pairs):
    with pytest.raises(ValueError, match=r"strictly increasing \(NaN is not\)"):
        Trajectory(pairs)


@pytest.mark.parametrize(
    "times, k",
    [([0.0], None), ([-3.0, -1.0, 2.0], None), ([np.nan], 0), ([np.nan, 1.0], 0), ([0.0, 1.0, 1.0], 2), ([0.0, np.nan, 2.0], 1)],
)
def test_first_unordered_names_the_first_bad_time(times, k):
    assert first_unordered([(t, 0) for t in times]) == k


def test_trajectory_times_may_be_negative():
    tr = Trajectory(((-3.0, 0), (-1.0, 1)))
    assert tr.last_time == -1.0
    assert tr.state_at(-2.0) == 0


def test_trajectory_state_at_and_truncation():
    tr = Trajectory(((0.0, 0), (2.0, 1), (5.0, 2)))
    assert tr.state_at(-1.0) == 0
    assert tr.state_at(2.0) == 1
    assert tr.state_at(10.0) == 2
    assert tr.truncated(3.0).pairs == ((0.0, 0), (2.0, 1))
    with pytest.raises(ValueError, match="precedes"):
        tr.truncated(-0.5)


def test_validate_cohort_accepts_simulated_data(study_cohort, study_graph):
    cohort, _ = study_cohort
    assert validate_cohort(cohort, study_graph) == []


def test_validate_cohort_state_out_of_range():
    g = build_graph(3, [(0, 1)])
    cohort = Cohort((make_record(pairs=((0.0, 0), (2.0, 5))),))
    violations = validate_cohort(cohort, g)
    assert any("state out of range" in v for v in violations)


def test_validate_cohort_transition_after_censoring():
    g = build_graph(3, [(0, 1)])
    cohort = Cohort((make_record(pairs=((0.0, 0), (2.0, 1)), censoring=1.0),))
    violations = validate_cohort(cohort, g)
    assert any("transition after censoring" in v for v in violations)


def test_validate_cohort_non_edge_transition():
    g = build_graph(3, [(0, 1)])
    cohort = Cohort((make_record(pairs=((0.0, 1), (2.0, 0)), censoring=3.0),))
    violations = validate_cohort(cohort, g)
    assert any("not a graph edge" in v for v in violations)


def test_validate_cohort_partially_missing_row():
    g = build_graph(2, [(0, 1)])
    values = np.array([[1.0, np.nan]])
    cohort = Cohort((make_record(times=[1.0], values=values, d=2),))
    violations = validate_cohort(cohort, g)
    assert any("partially missing" in v for v in violations)


def test_validate_cohort_unmasked_row_beyond_censoring():
    g = build_graph(2, [(0, 1)])
    cohort = Cohort((make_record(times=[6.0], values=[[1.0]], censoring=5.0),))
    violations = validate_cohort(cohort, g)
    assert any("beyond censoring" in v for v in violations)
    # properly masked row passes
    cohort_ok = Cohort((make_record(times=[6.0], values=[[np.nan]], censoring=5.0),))
    assert validate_cohort(cohort_ok, g) == []


def test_validate_cohort_nan_censoring():
    g = build_graph(2, [(0, 1)])
    cohort = Cohort((make_record(censoring=np.nan, times=[12.0], values=[[1.0]]),))
    assert validate_cohort(cohort, g) == ["individual 0: censoring time is NaN"]


def test_validate_cohort_infinite_censoring_needs_absorbing_last_state():
    g = build_graph(2, [(0, 1)])
    violations = validate_cohort(Cohort((make_record(censoring=np.inf),)), g)
    assert violations == ["individual 0: infinite censoring with non-absorbing last state"]
    assert validate_cohort(Cohort((make_record(pairs=((0.0, 0), (2.0, 1)), censoring=np.inf),)), g) == []
    # an out-of-range last state is reported as such, and has no successors to look up
    out_of_range = Cohort((make_record(pairs=((0.0, 0), (2.0, 5)), censoring=np.inf),))
    assert validate_cohort(out_of_range, g) == ["individual 0: state out of range (5)"]


@pytest.mark.parametrize(
    "times, values, covariates, message",
    [
        ([np.nan, 2.0], [[1.0], [2.0]], [0.0], "measurement row 0 has a non-finite time (nan)"),
        ([1.0, -np.inf], [[1.0], [np.nan]], [0.0], "measurement row 1 has a non-finite time (-inf)"),
        ([1.0, 2.0], [[1.0], [np.inf]], [0.0], "measurement row 1 has an infinite value"),
        ([1.0, 2.0], [[1.0], [2.0]], [np.nan], "covariate 0 is not finite (nan)"),
    ],
    ids=["nan_time", "minus_inf_time", "inf_value", "nan_covariate"],
)
def test_validate_cohort_rejects_values_the_likelihood_cannot_use(times, values, covariates, message):
    g = build_graph(2, [(0, 1)])
    bad = IndividualRecord(
        covariates=covariates, measurement_times=times, measurements=values,
        trajectory=Trajectory(((0.0, 0),)), censoring_time=5.0,
    )
    assert validate_cohort(Cohort((make_record(), bad)), g) == [f"individual 1: {message}"]
    # NaN stays the missing-row marker
    assert validate_cohort(Cohort((make_record(times=[1.0, 2.0], values=[[1.0], [np.nan]]),)), g) == []


def test_validate_cohort_is_idempotent(study_cohort, study_graph):
    cohort, _ = study_cohort
    assert validate_cohort(cohort, study_graph) == validate_cohort(cohort, study_graph)


def test_individuals_without_measurements_are_admitted():
    g = build_graph(2, [(0, 1)])
    cohort = Cohort((make_record(times=[]),))
    assert validate_cohort(cohort, g) == []
    assert cohort[0].n_measurements == 0


def test_infinite_censoring_is_representable():
    rec = make_record(censoring=np.inf)
    assert np.isinf(rec.censoring_time)


def test_cohort_rejects_mixed_covariate_dimensions():
    a = make_record(k=1)
    b = make_record(k=2)
    with pytest.raises(ValueError, match="covariate dimension"):
        Cohort((a, b))


def test_record_truncation_censors_at_t():
    rec = make_record(
        pairs=((0.0, 0), (2.0, 1)), censoring=8.0, times=[1.0, 3.0, 6.0],
        values=[[1.0], [2.0], [3.0]],
    )
    cut = rec.truncated(3.5)
    assert cut.censoring_time == 3.5
    assert cut.n_measurements == 2
    assert cut.trajectory.pairs == ((0.0, 0), (2.0, 1))
