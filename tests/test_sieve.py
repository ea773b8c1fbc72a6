"""Prime generation against a trial-division oracle, plus table contracts."""

from __future__ import annotations

import math

import numpy as np
import pytest

from primemean.errors import GridError
from primemean.sieve import (DEFAULT_MAX_BOUND, SEGMENTS_PER_BLOCK, SpfTable,
                             distinct_prime_factors, factorize, primes_up_to,
                             spf_build, stream_segmented)


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


# `segments()` sieves SEGMENTS_PER_BLOCK segments at a time; a block of
# segment size 997 from lo = 2 ends at 2 + BLOCK
BLOCK = SEGMENTS_PER_BLOCK * 997


@pytest.mark.parametrize("lo,hi,size", [
    (2, 5000, 997),
    (2, 1 + BLOCK, 997),        # the last segment ends on a block edge
    (2, 2 + BLOCK, 997),        # one number past it
    (1000, 20000, 997),
    (2, 5000, 64),
], ids=["misaligned", "block-edge", "past-block-edge", "lo-above-2", "size-64"])
def test_stream_segments_are_disjoint_and_ordered(lo, hi, size):
    stream = stream_segmented(lo, hi, segment_size=size)
    bounds = stream.segment_bounds()
    assert bounds[0][0] == lo and bounds[-1][1] == hi + 1
    for (a_lo, a_hi), (b_lo, b_hi) in zip(bounds, bounds[1:]):
        assert a_hi == b_lo
    segments = list(stream.segments())
    assert len(segments) == len(bounds)
    want = primes_up_to(hi)
    for i, ((s_lo, s_hi), seg) in enumerate(zip(bounds, segments)):
        assert seg.tolist() == want[(want >= s_lo) & (want < s_hi)].tolist()
        # random-access segments agree with the ordered walk
        assert stream.segment(i).tolist() == seg.tolist()


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
