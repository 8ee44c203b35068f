"""Counter-based per-row random streams: Philox4x64-10 in numpy.

Philox (Salmon, Moraes, Dror and Shaw 2011, "Parallel random numbers: as
easy as 1, 2, 3", SC'11) maps a 128-bit key and a 256-bit counter to four
64-bit words through ten rounds of multiply-and-xor. Row r's k-th draw is
the first word of the block at counter (k, r, 0, 0), so it depends on the
key, r and k alone: no row holds a generator of its own, and a row's draws
do not depend on which other rows are drawn with it. The blocks are those of
``np.random.Philox(key=key)``, which serves as the oracle in the tests.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_M = tuple(  # round multipliers, each with its 32-bit halves
    (np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32))
    for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157)
)
_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # key schedule (Weyl) increments
_LOW32, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhi(m: tuple, x: np.ndarray) -> np.ndarray:
    """High words of the 128-bit products m·x, from four 32-bit products;
    ``m`` is a multiplier split as (m, low half, high half)."""
    _, m_lo, m_hi = m
    x_lo, x_hi = x & _LOW32, x >> _HALF
    lh, hl = m_lo * x_hi, m_hi * x_lo
    mid = ((m_lo * x_lo) >> _HALF) + (lh & _LOW32) + (hl & _LOW32)
    return m_hi * x_hi + (lh >> _HALF) + (hl >> _HALF) + (mid >> _HALF)


def philox_word(key: tuple[int, int], c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """First output word of Philox4x64-10 at the counters (c0, c1, 0, 0).
    uint64 array products wrap, so the low word of m·x is their product."""
    # the key schedule in Python ints, wrapped by hand: numpy scalar adds warn on overflow
    keys = [tuple(np.uint64((k + i * w) & _MASK) for k, w in zip(key, _W)) for i in range(10)]
    m0, m1 = _M
    zero = np.zeros_like(c0)
    c = (c0, c1, zero, zero)
    for k0, k1 in keys[:-1]:
        c = (_mulhi(m1, c[2]) ^ c[1] ^ k0, m1[0] * c[2], _mulhi(m0, c[0]) ^ c[3] ^ k1, m0[0] * c[0])
    return _mulhi(m1, c[2]) ^ c[1] ^ keys[-1][0]


class RowStreams:
    """One Exp(1) stream per row under one key: row ``rows[i]`` draws its
    k-th value from counter (k, rows[i]) and carries its own draw count k.
    ``streams[i:j]`` holds rows i..j-1 under the same key, as views, so
    drawing from a slice advances the same rows' counts."""

    def __init__(self, key: tuple[int, int], rows: np.ndarray, counts: np.ndarray | None = None):
        self.key = (int(key[0]), int(key[1]))
        self.rows = np.asarray(rows, dtype=np.uint64)
        self.counts = np.zeros(self.rows.shape, dtype=np.uint64) if counts is None else counts

    @classmethod
    def spawn(cls, rng: np.random.Generator, n: int) -> "RowStreams":
        """n row streams keyed by the child ``rng.spawn(1)[0]`` would get, as
        ``np.random.Philox`` keys it; the key does not depend on how much of
        ``rng`` was drawn, only on how often it was spawned from."""
        child = rng.bit_generator.seed_seq.spawn(1)[0]
        return cls(tuple(child.generate_state(2, np.uint64).tolist()), np.arange(n, dtype=np.uint64))

    def __getitem__(self, index: slice) -> "RowStreams":
        return RowStreams(self.key, self.rows[index], self.counts[index])

    def exponential(self, rows: np.ndarray, k: int) -> np.ndarray:
        """k Exp(1) draws for each of the distinct local ``rows``, by
        inversion of u = (x >> 11)·2⁻⁵³, as an array (k, len(rows)) whose
        line j holds each row's draw at its count + j; bumps those rows'
        draw counts by k."""
        ahead = np.arange(k, dtype=np.uint64)[:, None]
        x = philox_word(self.key, self.counts[rows] + ahead, self.rows[rows])
        self.counts[rows] += np.uint64(k)
        return -np.log1p(-((x >> np.uint64(11)) * 2.0**-53))
