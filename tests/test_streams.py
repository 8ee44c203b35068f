import numpy as np
import pytest
from scipy import stats

from msjoint.streams import RowStreams, philox_word

KS_CRIT_1PCT = 1.63  # Kolmogorov critical value: D * sqrt(n) at alpha = 0.01


def numpy_philox_word(key, k, r):
    """First output word of numpy's Philox4x64-10 block at counter (k, r, 0, 0);
    numpy increments the counter before each block, so start one below."""
    counter = (k + (r << 64) - 1) % (1 << 256)
    return int(np.random.Philox(key=key[0] | (key[1] << 64), counter=counter).random_raw())


@pytest.fixture
def streams():
    return RowStreams.spawn(np.random.default_rng(2024), 1000)


def test_key_is_the_philox_key_of_the_spawned_child(streams):
    child = np.random.default_rng(2024).spawn(1)[0]
    philox = np.random.Philox(child.bit_generator.seed_seq)
    assert list(streams.key) == philox.state["state"]["key"].tolist()


@pytest.mark.parametrize("k, r", [(0, 0), (0, 3), (5, 0), (1, 999)])
def test_draws_match_numpy_philox(streams, k, r):
    word = philox_word(streams.key, np.array([k], dtype=np.uint64), np.array([r], dtype=np.uint64))
    assert int(word[0]) == numpy_philox_word(streams.key, k, r)
    for _ in range(k):
        streams.exponential(np.array([r]), 1)
    u = (numpy_philox_word(streams.key, k, r) >> 11) * 2.0**-53
    assert streams.exponential(np.array([r]), 1)[0, 0] == -np.log1p(-u)


def test_exponential_law_across_rows():
    draws = RowStreams.spawn(np.random.default_rng(3), 100_000).exponential(np.arange(100_000), 1)[0]
    d = stats.kstest(draws, "expon").statistic
    assert d * np.sqrt(draws.size) < KS_CRIT_1PCT


def test_exponential_law_across_counters_of_one_row():
    one = RowStreams.spawn(np.random.default_rng(4), 1)
    draws = np.array([one.exponential(np.array([0]), 1)[0, 0] for _ in range(1000)])
    assert one.counts.tolist() == [1000]
    d = stats.kstest(draws, "expon").statistic
    assert d * np.sqrt(draws.size) < KS_CRIT_1PCT


def test_a_rows_draw_does_not_depend_on_other_rows_counts():
    a = RowStreams.spawn(np.random.default_rng(5), 10)
    b = RowStreams.spawn(np.random.default_rng(5), 10)
    for _ in range(3):
        b.exponential(np.array([0, 2, 9]), 1)  # other rows advance in b only
    a.exponential(np.array([7]), 1)
    b.exponential(np.array([7]), 1)
    assert a.exponential(np.array([4, 7]), 1)[0, 1] == b.exponential(np.array([7]), 1)[0, 0]
    assert b.counts.tolist() == [3, 0, 3, 0, 0, 0, 0, 2, 0, 3]


def test_a_slice_shares_the_key_and_the_counts():
    streams = RowStreams.spawn(np.random.default_rng(6), 10)
    fresh = RowStreams.spawn(np.random.default_rng(6), 10)
    part = streams[3:6]
    assert part.key == streams.key
    assert part.rows.tolist() == [3, 4, 5]
    np.testing.assert_array_equal(part.exponential(np.array([0, 2]), 1), fresh.exponential(np.array([3, 5]), 1))
    assert streams.counts.tolist() == fresh.counts.tolist()  # drawing from the slice advances its rows


def test_spawns_give_distinct_keys():
    rng = np.random.default_rng(7)
    assert RowStreams.spawn(rng, 1).key != RowStreams.spawn(rng, 1).key


def test_a_batch_of_k_equals_k_single_draws():
    batch = RowStreams.spawn(np.random.default_rng(8), 10)
    single = RowStreams.spawn(np.random.default_rng(8), 10)
    rows = np.array([1, 4, 9])
    batch.exponential(np.array([4]), 1)  # uneven counts before the batch
    single.exponential(np.array([4]), 1)
    draws = batch.exponential(rows, 3)
    assert draws.shape == (3, 3)
    np.testing.assert_array_equal(draws, [single.exponential(rows, 1)[0] for _ in range(3)])
    assert batch.counts.tolist() == single.counts.tolist() == [0, 3, 0, 0, 4, 0, 0, 0, 0, 3]
