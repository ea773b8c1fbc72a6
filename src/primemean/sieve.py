"""Prime generation and smallest-prime-factor tables.

Whole-range and segmented odd-only sieves of Eratosthenes.  The segmented
stream keeps memory at O(segment_size + sqrt(hi)) so a desk machine can walk
every prime up to 1e9; the smallest-prime-factor (SPF) table is the exact
factorization oracle used by brute-force cross-checks and is deliberately
capped at a much smaller range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import GridError

DEFAULT_SEGMENT_SIZE = 1 << 20  # numbers per segment
DEFAULT_MAX_BOUND = 10 ** 9     # address budget for sieving
SEGMENTS_PER_BLOCK = 2          # segments sieved together by PrimeStream.segments
SPF_CAP = 10 ** 7               # SPF tables stay oracle-sized


def primes_up_to(limit: int) -> np.ndarray:
    """All primes p <= limit, ascending, as an int64 array.

    Odd-only bitmap: index i represents 2i+3, so composites of an odd prime
    p start at (p*p - 3) / 2 with stride p.
    """
    limit = int(limit)
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    if limit < 3:
        return np.array([2], dtype=np.int64)
    size = (limit - 1) // 2
    mask = np.ones(size, dtype=bool)
    for i in range((math.isqrt(limit) - 1) // 2):
        if mask[i]:
            p = 2 * i + 3
            mask[(p * p - 3) // 2:: p] = False
    odds = 2 * np.flatnonzero(mask).astype(np.int64) + 3
    return np.concatenate((np.array([2], dtype=np.int64), odds))


def _segment_primes(lo: int, hi: int, base_odd: np.ndarray) -> np.ndarray:
    """Primes in the half-open window [lo, hi).

    `base_odd` must contain every odd prime <= sqrt(hi - 1).
    """
    if hi <= 2 or hi <= lo:
        return np.empty(0, dtype=np.int64)
    first_odd = max(lo, 3) | 1
    out_two = lo <= 2 < hi
    if first_odd >= hi:
        return np.array([2], dtype=np.int64) if out_two else np.empty(0, dtype=np.int64)
    mask = np.ones((hi - first_odd + 1) // 2, dtype=bool)
    base = base_odd[:np.searchsorted(base_odd, math.isqrt(hi - 1), side="right")]
    # each base prime's first odd multiple >= max(p^2, first_odd), as a mask index
    start = np.maximum(base * base, -(-first_odd // base) * base)
    start += base * (start % 2 == 0)
    for i, p in zip(((start - first_odd) // 2).tolist(), base.tolist()):
        mask[i::p] = False      # empty when the multiple lies past the window
    primes = first_odd + 2 * np.flatnonzero(mask).astype(np.int64)
    if out_two:
        return np.concatenate((np.array([2], dtype=np.int64), primes))
    return primes


@dataclass(frozen=True)
class PrimeStream:
    """Lazy ascending stream of the primes in [lo, hi] (inclusive).

    Segments are independently sievable: `segment_bounds()` plus
    `segment(i)` let a driver pull disjoint windows concurrently, while
    `segments()` / iteration walk them in ascending order.
    """

    lo: int
    hi: int
    segment_size: int

    def __post_init__(self):
        if not (2 <= self.lo <= self.hi):
            raise GridError(f"need 2 <= lo <= hi, got [{self.lo}, {self.hi}]")
        if self.segment_size < 64:
            raise GridError(f"segment size too small: {self.segment_size}")

    def segment_bounds(self) -> list[tuple[int, int]]:
        end = self.hi + 1
        bounds = []
        lo = self.lo
        while lo < end:
            bounds.append((lo, min(lo + self.segment_size, end)))
            lo += self.segment_size
        return bounds

    def _base(self) -> np.ndarray:
        return primes_up_to(math.isqrt(self.hi))[1:]  # odd base primes

    def segment(self, i: int, base_odd: np.ndarray | None = None) -> np.ndarray:
        lo = self.lo + i * self.segment_size
        hi = min(lo + self.segment_size, self.hi + 1)
        return _segment_primes(lo, hi, self._base() if base_odd is None else base_odd)

    def segments(self) -> Iterator[np.ndarray]:
        """The segments in ascending order, sieved SEGMENTS_PER_BLOCK at a time.

        Each block is split at the segment edges, so every segment is the
        same array that `segment(i)` returns.
        """
        base = self._base()
        bounds = self.segment_bounds()
        for b in range(0, len(bounds), SEGMENTS_PER_BLOCK):
            block = bounds[b:b + SEGMENTS_PER_BLOCK]
            primes = _segment_primes(block[0][0], block[-1][1], base)
            edges = np.searchsorted(primes, [lo for lo, _ in block[1:]])
            yield from np.split(primes, edges)

    def __iter__(self) -> Iterator[int]:
        for seg in self.segments():
            yield from (int(p) for p in seg)


def stream_segmented(lo: int, hi: int,
                     segment_size: int = DEFAULT_SEGMENT_SIZE) -> PrimeStream:
    """Segmented prime stream over [lo, hi], hi at most DEFAULT_MAX_BOUND."""
    if hi > DEFAULT_MAX_BOUND:
        raise GridError(f"hi={hi} exceeds the sieve bound {DEFAULT_MAX_BOUND}")
    return PrimeStream(int(lo), int(hi), int(segment_size))


@dataclass(frozen=True)
class SpfTable:
    """Smallest-prime-factor table for exact factorization up to `limit`."""

    limit: int
    spf: np.ndarray


def spf_build(limit: int) -> SpfTable:
    """Build the SPF table for 0..limit <= SPF_CAP (spf[0] = spf[1] = 0)."""
    limit = int(limit)
    if limit > SPF_CAP:
        raise GridError(f"SPF table limit {limit} exceeds cap {SPF_CAP}")
    if limit < 2:
        return SpfTable(limit, np.zeros(limit + 1, dtype=np.int32))
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            window = spf[p * p:: p]
            window[window == 0] = p
    untouched = np.flatnonzero(spf[2:] == 0) + 2
    spf[untouched] = untouched
    return SpfTable(limit, spf)


def factorize(k: int, table: SpfTable) -> list[tuple[int, int]]:
    """Exact factorization of k as ascending (prime, multiplicity) pairs.

    k < 2 has the empty factorization.
    """
    if k > table.limit:
        raise GridError(f"k={k} exceeds SPF table limit {table.limit}")
    if k < 2:
        return []
    spf = table.spf
    out: list[tuple[int, int]] = []
    while k > 1:
        p = int(spf[k])
        a = 0
        while k % p == 0:
            k //= p
            a += 1
        out.append((p, a))
    return out


def distinct_prime_factors(ks: np.ndarray, table: SpfTable
                           ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Peel the distinct prime factors off every entry of the int64 array ks.

    Round r yields (idx, p): the positions in `ks` of the entries with at
    least r distinct prime factors, ascending, and the r-th smallest of
    them.  Every entry must lie within the table.
    """
    idx = np.flatnonzero(ks > 1)
    cur = ks[idx]
    while idx.size:
        p = table.spf[cur].astype(np.int64)
        yield idx, p
        cur //= p
        while True:
            mask = cur % p == 0
            if not mask.any():
                break
            cur[mask] //= p[mask]
        keep = cur > 1
        idx, cur = idx[keep], cur[keep]
