"""Prime generation against a trial-division oracle, plus table contracts."""

from __future__ import annotations

import math

import numpy as np
import pytest

from primemean.errors import GridError
from primemean.sieve import (BLOCK_SIZE, DEFAULT_MAX_BOUND, WHEEL_PERIOD,
                             SpfTable, distinct_prime_factors,
                             factorize, primes_up_to, spf_build, stream_segmented)


def trial_division_primes(limit: int) -> list[int]:
    """Oracle: primality by trial division, no sieve machinery shared."""
    out = []
    for k in range(2, limit + 1):
        for q in range(2, math.isqrt(k) + 1):
            if k % q == 0:
                break
        else:
            out.append(k)
    return out


def test_primes_match_trial_division():
    assert primes_up_to(20000).tolist() == trial_division_primes(20000)


@pytest.mark.parametrize("limit,expect", [
    (0, []), (1, []), (2, [2]), (3, [2, 3]), (4, [2, 3]),
    (29, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]),
])
def test_primes_small_edges(limit, expect):
    assert primes_up_to(limit).tolist() == expect


def test_segmented_stream_equals_whole_range():
    # deliberately misaligned segment size to exercise window edges
    stream = stream_segmented(2, 10 ** 5, segment_size=4099)
    got = np.concatenate(list(stream.segments()))
    assert got.tolist() == primes_up_to(10 ** 5).tolist()


def test_segmented_stream_partial_window():
    stream = stream_segmented(1000, 2000, segment_size=128)
    expect = [p for p in trial_division_primes(2000) if p >= 1000]
    assert np.concatenate(list(stream.segments())).tolist() == expect


# `segments()` sieves blocks of the whole segments that fit in BLOCK_SIZE
# numbers; with segments of WIDE numbers (odd, so flags straddle bytes) the
# first block from lo = 2 ends at 2 + BLOCK
WIDE = BLOCK_SIZE // 3 - 1
BLOCK = BLOCK_SIZE // WIDE * WIDE


@pytest.mark.parametrize("lo,hi,size", [
    (2, 5000, 997),
    (2, 1 + BLOCK, WIDE),       # the last segment ends on a block edge
    (2, 2 + BLOCK, WIDE),       # one number past it
    (1000, 20000, 997),
    (2, 5000, 64),
], ids=["misaligned", "block-edge", "past-block-edge", "lo-above-2", "size-64"])
def test_stream_segments_are_disjoint_and_ordered(lo, hi, size):
    # segment k holds the primes of [lo + k * size, lo + (k + 1) * size),
    # the last one cut at hi
    segments = list(stream_segmented(lo, hi, segment_size=size).segments())
    assert len(segments) == -(-(hi + 1 - lo) // size)
    want = primes_up_to(hi)
    for k, seg in enumerate(segments):
        s_lo, s_hi = lo + k * size, min(lo + (k + 1) * size, hi + 1)
        assert seg.tolist() == want[(want >= s_lo) & (want < s_hi)].tolist()


def _window_primes(lo: int, hi: int) -> list[int]:
    """The primes of [lo, hi) from the stream, as one segment."""
    segments = list(stream_segmented(lo, hi - 1, segment_size=max(64, hi - lo)).segments())
    assert len(segments) == 1 and segments[0].dtype == np.int64
    return segments[0].tolist()


@pytest.mark.parametrize("lo", range(2, 20))
def test_wheel_windows_from_the_small_primes(lo):
    # the wheel strikes 3..17 along with their multiples and gives them back;
    # windows from lo = 2..19, shorter and longer than one pattern period
    want = primes_up_to(3 * WHEEL_PERIOD).tolist()
    for hi in (lo + 1, lo + 2, 20, 30, 290, 1000, 2 * WHEEL_PERIOD + 7,
               3 * WHEEL_PERIOD):
        if hi > lo:
            assert _window_primes(lo, hi) == [p for p in want if lo <= p < hi], hi


def test_wheel_windows_across_odd_block_edges():
    # windows whose first odd number falls anywhere in the pattern, of odd or
    # even length, whose masks (one flag per odd number) fall short of, fill
    # or pass one period: shorter masks strike the wheel primes themselves
    want = primes_up_to(4 * 10 ** 6)
    rng = np.random.default_rng(23)
    lengths = (1, 2, 3, 97, 1000, 2 * WHEEL_PERIOD - 2, 2 * WHEEL_PERIOD - 1,
               2 * WHEEL_PERIOD, 2 * WHEEL_PERIOD + 1, 2 * WHEEL_PERIOD + 2, 1 << 19)
    for lo in [2 * WHEEL_PERIOD - 1, 2 * WHEEL_PERIOD, 2 * WHEEL_PERIOD + 1,
               *rng.integers(20, 3 * 10 ** 6, 24).tolist()]:
        for length in lengths:
            hi = lo + length
            assert _window_primes(lo, hi) == want[(want >= lo) & (want < hi)].tolist(), (lo, hi)


def test_stream_validates_range():
    with pytest.raises(GridError):
        stream_segmented(5, 4)
    with pytest.raises(GridError):
        stream_segmented(2, DEFAULT_MAX_BOUND + 1)
    with pytest.raises(GridError):
        stream_segmented(2, 100, segment_size=8)


def test_spf_table_is_smallest_factor(table5k: SpfTable):
    primes = set(trial_division_primes(5000))
    for k in range(2, 5001):
        s = int(table5k.spf[k])
        assert s in primes and k % s == 0
        # nothing smaller divides k
        for q in range(2, s):
            assert k % q != 0


def test_spf_prime_flag(table5k: SpfTable):
    primes = set(trial_division_primes(5000))
    for k in (0, 1, 2, 3, 4, 91, 97, 4999, 5000):
        assert (k >= 2 and int(table5k.spf[k]) == k) == (k in primes)


def test_factorize_roundtrip(table5k: SpfTable):
    for k in range(1, 3000):
        fac = factorize(k, table5k)
        prod = 1
        for p, a in fac:
            assert int(table5k.spf[p]) == p and a >= 1
            prod *= p ** a
        assert prod == k
        assert [p for p, _ in fac] == sorted(p for p, _ in fac)
    with pytest.raises(GridError):
        factorize(5001, table5k)


def test_distinct_prime_factors_match_factorize(table5k: SpfTable):
    ks = np.arange(0, 5001, dtype=np.int64)
    peeled = [[] for _ in ks]
    for idx, p in distinct_prime_factors(ks, table5k):
        for i, q in zip(idx.tolist(), p.tolist()):
            peeled[i].append(q)
    assert peeled == [[p for p, _ in factorize(int(k), table5k)] for k in ks]


def test_spf_build_cap():
    with pytest.raises(GridError):
        spf_build(10 ** 7 + 1)
    tiny = spf_build(1)
    assert tiny.limit == 1 and tiny.spf.tolist() == [0, 0]
