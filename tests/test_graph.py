import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msjoint import build_buckets, build_graph, reaches


def four_state_graph():
    # the 4-state example with one absorbing terminal state
    return build_graph(4, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 1), (2, 3)])


def test_adjacency_matrix_four_state():
    g = four_state_graph()
    expected = np.array(
        [[0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 0, 1], [0, 0, 0, 0]]
    )
    np.testing.assert_array_equal(g.adjacency_matrix(), expected)


def test_single_state_graph_is_absorbing():
    g = build_graph(1, [])
    assert g.successors(0) == ()
    assert g.is_absorbing(0)


@pytest.mark.parametrize(
    "edges,match",
    [
        ([(0, 0)], "self-loop"),
        ([(0, 1), (0, 1)], "duplicated"),
        ([(0, 5)], "outside"),
    ],
)
def test_build_graph_rejects_bad_edges(edges, match):
    with pytest.raises(ValueError, match=match):
        build_graph(3, edges)


def test_is_absorbing_four_state():
    g = four_state_graph()
    assert g.is_absorbing(3)
    assert not g.is_absorbing(1)


def test_absorbing_iff_zero_adjacency_row():
    g = four_state_graph()
    a = g.adjacency_matrix()
    for k in range(g.num_states):
        assert g.is_absorbing(k) == (a[k].sum() == 0)


def test_reaches_examples():
    g = four_state_graph()
    assert not reaches(g, {3}, {1})
    assert reaches(g, {2}, {2})  # zero-length path
    assert reaches(g, {0}, {2})  # via 0 -> 1 -> 2


def test_reaches_rejects_empty_sets():
    g = four_state_graph()
    with pytest.raises(ValueError, match="non-empty"):
        reaches(g, set(), {1})
    with pytest.raises(ValueError, match="non-empty"):
        reaches(g, {0}, set())


def _brute_force_reaches(num_states, edges, sources, targets):
    if sources & targets:
        return True
    for length in range(1, num_states + 1):
        for path in itertools.product(range(num_states), repeat=length + 1):
            if path[0] not in sources or path[-1] not in targets:
                continue
            if all((a, b) in edges for a, b in zip(path, path[1:])):
                return True
    return False


@settings(max_examples=60, deadline=None)
@given(data=st.data(), num_states=st.integers(min_value=1, max_value=6))
def test_reaches_matches_path_enumeration(data, num_states):
    all_edges = [(a, b) for a in range(num_states) for b in range(num_states) if a != b]
    edges = data.draw(st.lists(st.sampled_from(all_edges), unique=True, max_size=8)) if all_edges else []
    g = build_graph(num_states, edges)
    src = data.draw(st.sets(st.integers(0, num_states - 1), min_size=1))
    dst = data.draw(st.sets(st.integers(0, num_states - 1), min_size=1))
    assert reaches(g, src, dst) == _brute_force_reaches(num_states, set(edges), src, dst)


def test_build_buckets_direct_bookkeeping():
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    trajectories = [((0.0, 0), (2.0, 1)), ((0.0, 0),)]
    buckets = build_buckets(g, trajectories, [5.0, 5.0])
    assert buckets.counts() == {(0, 1): 1, (0, 2): 0, (1, 2): 0}
    entry = buckets.by_edge[(0, 1)][0]
    assert (entry.individual, entry.entry_time, entry.exit_time) == (0, 0.0, 2.0)
    assert len(buckets.terminal) == 2
    assert buckets.terminal[1] == (1, 0, 0.0, 5.0)


def test_build_buckets_empty():
    g = build_graph(2, [(0, 1)])
    buckets = build_buckets(g, [], [])
    assert sum(buckets.counts().values()) == 0
    assert buckets.terminal == []


def test_build_buckets_rejects_non_edges():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(ValueError, match=r"individual 0.*\(1, 0\)"):
        build_buckets(g, [((0.0, 1), (1.0, 0))], [2.0])


def test_bucket_totals_match_consecutive_pairs(study_cohort, study_graph):
    cohort, _ = study_cohort
    buckets = build_buckets(study_graph, cohort.trajectories(), cohort.censoring_times())
    n_pairs = sum(len(rec.trajectory) - 1 for rec in cohort)
    assert sum(buckets.counts().values()) == n_pairs
    # every transition appears exactly once across buckets
    seen = set()
    for edge, entries in buckets.by_edge.items():
        for e in entries:
            key = (e.individual, e.entry_time, e.exit_time)
            assert key not in seen
            seen.add(key)
    assert len(seen) == n_pairs


def test_study_cohort_transition_counts(study_cohort, study_graph):
    from conftest import TRANSITION_COUNTS

    cohort, _ = study_cohort
    counts = build_buckets(study_graph, cohort.trajectories(), cohort.censoring_times()).counts()
    for edge, target in TRANSITION_COUNTS.items():
        assert abs(counts[edge] - target) <= 4 * np.sqrt(target), (edge, counts[edge])
