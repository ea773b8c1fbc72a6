"""Floor-value prime sums (Lucy's method) and log n! (Stirling), each
against an independent reference and its own error bound."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from primemean import lucy
from primemean.accum import EPS
from primemean.sieve import primes_up_to


def test_half_log_2pi_constant():
    with mpmath.workdps(60):
        ref = mpmath.log(2 * mpmath.pi) / 2
        assert abs(mpmath.mpf(str(lucy._HALF_LOG_2PI)) - ref) < mpmath.mpf(10) ** -49


@pytest.mark.parametrize("n", [2, 3, 10, 999, 1000, 1001, 12345, 10 ** 8, 10 ** 12])
def test_log_factorial_within_its_bound(n):
    value, bound = lucy.log_factorial(n)
    with mpmath.workdps(40):
        err = abs(mpmath.mpf(value) - mpmath.loggamma(n + 1))
    assert err <= bound
    assert bound <= 4 * math.ulp(value)


@pytest.mark.parametrize("j", [1, 2, 5, 12])
def test_initial_rows_within_their_bounds(j):
    v = np.array(list(range(0, 200)) + [999, 4096, 65537, 10 ** 6], dtype=np.float64)
    value, bound = lucy._initial_row(j, v)
    with mpmath.workdps(40):
        for x, got, b in zip(v.astype(int).tolist(), value, bound):
            if x <= 4096:
                ref = sum((Fraction(1, k ** j) for k in range(2, x + 1)), Fraction(0))
                ref = mpmath.mpf(ref.numerator) / ref.denominator
            else:   # sum_{k<=x} k^-j = zeta(j, 1) - zeta(j, x + 1), or H_x at j = 1
                ref = (mpmath.harmonic(x) if j == 1
                       else mpmath.zeta(j) - mpmath.zeta(j, x + 1)) - 1
            assert abs(mpmath.mpf(got) - ref) <= b, (j, x)


# n = 101^3 puts p = 101 last in the per-prime updates, one less first in
# the batch; a batch of 97 pairs splits the batch primes into many parts
@pytest.mark.parametrize("batch", [lucy.BATCH, 97])
@pytest.mark.parametrize("n", [10 ** 4, 12345, 101 ** 3 - 1, 101 ** 3, 999983])
def test_floor_table_counts_exactly_and_bounds_its_sums(n, batch, monkeypatch):
    monkeypatch.setattr(lucy, "BATCH", batch)
    rows = 4
    every = primes_up_to(n)
    w = lucy.floor_table(n, primes_up_to(math.isqrt(n)), rows)
    r = math.isqrt(n)
    values = [n // m for m in range(1, r + 1)] + list(range(r + 1))
    assert [int(c) for c in w[0]] == np.searchsorted(every, values, side="right").tolist()
    # each reference term 1/p^j is correctly rounded and fsum is exact, so
    # the reference itself is within one ulp of the sum
    terms = [[1.0 / p ** j for p in every.tolist()] for j in range(1, rows + 1)]
    for c in list(range(0, 2 * r + 1, max(1, r // 30))) + [2 * r]:
        count = int(w[0, c])
        for j in range(1, rows + 1):
            ref = math.fsum(terms[j - 1][:count])
            assert abs(w[j, c] - ref) <= w[rows + 1, c] + EPS * ref, (c, j)


# pi(10^k), OEIS A006880: the sublinear route's S1 above the split, and so
# the trend checks' omega means, rest on this column
@pytest.mark.parametrize("n, pi", [(10 ** 9, 50_847_534), (10 ** 10, 455_052_511),
                                   (10 ** 11, 4_118_054_813)])
def test_floor_table_counts_the_classical_prime_counts(n, pi):
    assert lucy.floor_table(n, primes_up_to(math.isqrt(n)), 0)[0, 0] == pi


@pytest.mark.parametrize("n, y", [(5000, 70), (5000, 100), (10 ** 6, 1000), (10 ** 6, 1024)])
def test_prime_tails_against_a_direct_sum(n, y):
    rows = 3
    every = primes_up_to(n)
    above = [p for p in every.tolist() if p > y]
    s1, tails = lucy.prime_tails(n, y, primes_up_to(max(math.isqrt(n), y)), rows)
    assert s1 == sum(n // p for p in above)
    for j, (value, bound) in enumerate(tails, start=1):
        ref = math.fsum((n // p) / p ** j for p in above)
        assert abs(value - ref) <= bound + EPS * ref, j


def _gather_floor_table(n, primes, rows):
    """floor_table with each per-prime update as one full-width gather,
    w[:, src] over every target at once, so that every source is read before
    any target is written: the reference for the blocked kernel."""
    r = math.isqrt(n)
    idx = np.arange(r + 1)
    v = np.concatenate((n // idx[1:], idx)).astype(np.float64)
    nv = rows + 1
    w = np.zeros((nv + (rows > 0), 2 * r + 1))
    w[0] = np.maximum(v - 1.0, 0.0)
    for j in range(1, nv):
        w[j], bound = lucy._initial_row(j, v)
        np.maximum(w[nv], bound, out=w[nv])
    slop = (rows + 3) * EPS * float(w[1].max()) * lucy.BOUND_SLACK if rows else 0.0
    base_primes = primes[:np.searchsorted(primes, r, side="right")]
    split = int(np.count_nonzero(base_primes ** 3 <= n))
    for p in base_primes[:split].tolist():
        top = min(r, n // (p * p))
        inner = min(top, r // p)
        src = np.concatenate((idx[p - 1:inner * p:p], r + n // (idx[inner + 1:top + 1] * p),
                              r + idx[p * p:] // p))
        g, base = lucy._weights(p, w[:, r + p - 1], rows, slop)
        t = w[:, src]
        t -= base[:, None]
        t *= g[:, None]
        w[:, :top] -= t[:, :top]
        w[:, r + p * p:] -= t[:, top:]
    batch = base_primes[split:]
    reach = np.cumsum(n // (batch * batch))
    cuts = (np.searchsorted(reach, np.arange(lucy.BATCH, reach[-1], lucy.BATCH))
            if batch.size else [])
    extra = EPS * float(w[1].max()) if rows else 0.0
    for part in np.split(batch, cuts):
        count = n // (part * part)
        p = np.repeat(part, count)
        m = np.arange(p.size) - np.repeat(np.cumsum(count) - count, count)
        mp = (m + 1) * p
        src = np.where(mp <= r, mp - 1, r + n // mp)
        g, base = lucy._weights(p, w[:, r + p - 1], rows, slop)
        t = (w[:, src] - base) * g
        top = int(count[0]) if count.size else 0
        for j in range(len(w)):
            w[j, :top] -= np.bincount(m, weights=t[j], minlength=top)
        if rows:
            w[nv, :top] += np.bincount(m, minlength=top) * extra
    if rows:
        w[nv] *= lucy.BOUND_SLACK
    return w


# blocks of r/16 columns split the initial fill, both target ranges of the
# first per-prime updates and their small-target runs into many blocks
@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("n", [10 ** 4, 12345, 101 ** 3 - 1, 101 ** 3, 999983, 10 ** 8])
def test_floor_table_is_bitwise_the_gather_reference(n, split, monkeypatch):
    if split:
        monkeypatch.setattr(lucy, "BLOCK", max(7, math.isqrt(n) // 16))
    primes = primes_up_to(math.isqrt(n))
    for rows in range(5):
        assert np.array_equal(lucy.floor_table(n, primes, rows),
                              _gather_floor_table(n, primes, rows)), rows


@pytest.mark.parametrize("n", [10 ** 9, 10 ** 10])
def test_floor_table_temporaries_stay_within_a_few_blocks(n, monkeypatch):
    # batches of 1024 pairs keep the batch phase's temporaries small, so that
    # the peak is the initial fill's and the per-prime updates'; a gather over
    # every column of the table would exceed the budget at both sizes
    monkeypatch.setattr(lucy, "BATCH", 1024)
    primes = primes_up_to(math.isqrt(n))
    lucy.floor_table(10 ** 6, primes, 2)        # fill the constants' caches first
    tracemalloc.start()
    try:
        w = lucy.floor_table(n, primes, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget = 8 * len(w) * lucy.BLOCK * w.itemsize      # eight (rows, BLOCK) arrays
    assert peak - w.nbytes < budget, (peak - w.nbytes, budget)
