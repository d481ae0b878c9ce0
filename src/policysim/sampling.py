"""Batched uniform samples without replacement, on the generator's own stream.

Both markets take, per agent, a uniform sample of k positions out of a pool
of n followed by one coin, as numpy's ``Generator.choice`` of k out of n
without replacement and then ``random()`` would. numpy draws such a sample
one bounded integer per step (Lemire's method), and the bound of each step
depends only on n and k, never on the values already drawn:

- Floyd's algorithm draws bounds n-k ... n-1, then shuffles its k picks
  with bounds k-1 ... 1;
- for n > 10000 and k > n // 50 numpy instead shuffles the tail of
  ``arange(n)`` with bounds n-1 ... n-k and returns that tail;
- a sample of the whole pool (k == n) draws nothing;
- the coin is one whole 64-bit word, which numpy also returns for the
  bound 2**64-1.

numpy answers the bound 0 with 0 and draws nothing for it, not even half a
buffered word. So ``sample_positions`` lays the bounds of a run of samples
end to end, puts 0 in every cell that a sample does not draw, and draws
them all with one ``Generator.integers`` call. The values, and the
generator's state afterwards, are those of the per-agent calls; the
positions of a sample come back as a set (unshuffled), which is all that a
choice by a key ending in an id needs.

Floyd's step t keeps its draw unless the draw repeats an earlier pick, and
then takes n-k+t. A row whose k draws are all distinct never substitutes:
each draw differs from every earlier draw, and so from every earlier pick,
which are those draws. So such a row's draws are its sample, and Floyd's
pass only has to find the few draws that repeat and replace those.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

COIN_BOUND = np.iinfo(np.uint64).max
_WORD_SCALE = 1.0 / 9007199254740992.0  # 2**-53, as numpy's random()
TAIL_SHUFFLE_MIN_POOL = 10000
TAIL_SHUFFLE_DIVISOR = 50
# pools x sample width per batched draw, in both markets: at fixture3 x40 a
# quarter of this made the month about 5% slower (the goods market's share),
# while calibration took the same time at either size, with a traced peak
# 1 MB higher at this one
BLOCK_CELLS = 1 << 14


def sample_blocks(
    rng: np.random.Generator, pool_sizes: np.ndarray, sample_size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``sample_positions`` over consecutive blocks of the pools, drawn lazily.

    A block holds about ``BLOCK_CELLS`` sampled positions, so the arrays stay
    small whatever the sample size. The blocks continue one stream: their
    draws are those of one call over all the pools.
    """
    n = np.asarray(pool_sizes, dtype=np.int64)
    if not len(n):
        return
    width = int(min(sample_size, n.max()))
    rows = max(1, BLOCK_CELLS // width)
    for start in range(0, len(n), rows):
        yield sample_positions(rng, n[start : start + rows], sample_size)


def sample_positions(
    rng: np.random.Generator, pool_sizes: np.ndarray, sample_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Replay a sample of min(sample_size, n) out of n, plus a coin, per pool size n.

    Returns (picks, coins). Row r of the int64 matrix ``picks`` holds the
    sampled positions of pool r in no particular order, padded with -1 when
    the pool is smaller than the sample; ``coins[r]`` is the ``random()``
    that followed. There must be at least one pool, and every pool must
    hold at least one position.
    """
    n = np.asarray(pool_sizes, dtype=np.int64)
    k = np.minimum(n, sample_size)
    whole = k == n
    largest = int(n.max())
    # every pool not taken whole samples k == width positions
    width = min(sample_size, largest)
    steps = np.arange(width)
    # one row of bounds per pool: Floyd's picks n-k ... n-1 and shuffle
    # k-1 ... 1, or the tail shuffle's n-1 ... n-k, or nothing for a whole
    # pool; then the coin. A cell that a pool does not draw holds the bound 0,
    # which draws nothing
    bounds = np.empty((len(n), 2 * width), dtype=np.uint64)
    bounds[:, :width] = (n - width)[:, None] + steps
    bounds[:, width:] = steps[::-1]
    floyd = ~whole
    tail = None
    if largest > TAIL_SHUFFLE_MIN_POOL:
        tail = floyd & (n > TAIL_SHUFFLE_MIN_POOL) & (k > n // TAIL_SHUFFLE_DIVISOR)
        bounds[tail, :width] = (n[tail] - 1)[:, None] - steps
        bounds[tail, width:] = 0
        floyd &= ~tail
    if whole.any():
        bounds[whole] = 0
    bounds[:, -1] = COIN_BOUND
    draws = rng.integers(0, bounds, dtype=np.uint64, endpoint=True)
    coins = unit_doubles(draws[:, -1])
    # a block of Floyd rows only skips the gather and scatter below, a third of its time
    if floyd.all():
        return _floyd_picks(draws[:, :width], n), coins

    # Floyd's pass costs width steps over its rows, however few they are, so
    # it runs on the Floyd rows only, and not at all without them
    picks = np.where(steps < k[:, None], steps, -1)  # a whole pool's positions
    if floyd.any():
        picks[floyd] = _floyd_picks(draws[floyd, :width], n[floyd])
    if tail is not None:
        for r in tail.nonzero()[0].tolist():
            picks[r] = _tail_picks(draws[r, :width], int(n[r]))
    return picks, coins


def unit_doubles(words: np.ndarray) -> np.ndarray:
    """The ``random()`` double of each whole 64-bit word: its top 53 bits times 2**-53."""
    return (words >> np.uint64(11)).astype(np.float64) * _WORD_SCALE


def _floyd_picks(draws: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Floyd's algorithm over many rows of k draws: a draw that repeats an
    earlier pick of its row takes j = n-k+t instead.

    The picks are held one step to a row, so that each step compares every
    sample at once over contiguous memory; the (samples, k) result is a view
    of them. The first pick has nothing to repeat, so the loop starts at the
    second.
    """
    picks = np.ascontiguousarray(draws.T, dtype=np.int64)
    k = len(picks)
    for t in range(1, k):
        repeat = np.logical_or.reduce(picks[:t] == picks[t], axis=0).nonzero()[0]
        if len(repeat):
            picks[t, repeat] = n[repeat] - k + t
    return picks.T


def _tail_picks(draws: np.ndarray, n: int) -> list[int]:
    """The last k entries of arange(n) after swapping i with draws[n-1-i] for i = n-1 ... n-k."""
    k = len(draws)
    moved: dict[int, int] = {}
    for i, j in zip(range(n - 1, n - k - 1, -1), draws.tolist()):
        moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
    return [moved.get(i, i) for i in range(n - k, n)]
