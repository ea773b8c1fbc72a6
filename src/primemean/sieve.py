"""Prime generation and smallest-prime-factor tables.

Whole-range and segmented odd-only sieves of Eratosthenes.  The segmented
stream keeps memory at O(segment_size + sqrt(hi)) so a desk machine can walk
every prime up to 1e9; the smallest-prime-factor (SPF) table is the exact
factorization oracle used by brute-force cross-checks and is deliberately
capped at a much smaller range.

A window's odd-only mask starts from a wheel: the odd numbers prime to
3 * 5 * 7 * 11 * 13 * 17 repeat with a period of WHEEL_PERIOD odd numbers,
so one period's pattern, built once on first use, is copied into the window
by doubling, and only the base primes from 19 up are struck one by one.  A
window shorter than the period strikes every base prime and never builds
the 255,255-byte pattern.
`PrimeStream.segments` sieves blocks of BLOCK_SIZE numbers (the struck
base primes cost a Python step each per block, so a block stays large
whatever the segment length), keeps each block's mask packed 8 flags a
byte, and reads one segment's primes from it at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Iterator

import numpy as np

from .errors import GridError

DEFAULT_SEGMENT_SIZE = 1 << 20  # numbers per segment
DEFAULT_MAX_BOUND = 10 ** 9     # address budget for sieving
BLOCK_SIZE = 1 << 21            # numbers PrimeStream.segments sieves at a time
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


#: the odd primes the wheel pre-sieves, and its period in odd numbers
WHEEL_PRIMES = (3, 5, 7, 11, 13, 17)
WHEEL_PERIOD = math.prod(WHEEL_PRIMES)


@cache
def _wheel_pattern() -> np.ndarray:
    """pattern[j]: 2j + 1 is prime to every wheel prime, for 0 <= j < WHEEL_PERIOD."""
    pattern = np.ones(WHEEL_PERIOD, dtype=bool)
    for p in WHEEL_PRIMES:
        pattern[(p - 1) // 2::p] = False
    return pattern


def _sieve(lo: int, hi: int, base_odd: np.ndarray) -> tuple[int, np.ndarray]:
    """(start, mask) for the window [lo, hi): mask[i] says whether the odd
    number start + 2i is prime, for the odd numbers of the window; when the
    window holds 2, one more index in front stands for start = 1 and marks
    the 2.  `base_odd` must contain every odd prime <= sqrt(hi - 1)."""
    start = 1 if lo <= 2 < hi else max(lo, 3) | 1
    mask = np.empty(max(0, (hi - start + 1) // 2), dtype=bool)
    if not mask.size:
        return start, mask
    if mask.size < WHEEL_PERIOD:        # short: the loop below strikes every base prime
        mask.fill(True)
        skip = 0
    else:
        pattern = _wheel_pattern()
        j = (start - 1) // 2 % WHEEL_PERIOD
        mask[:WHEEL_PERIOD - j] = pattern[j:]   # one period from phase j
        mask[WHEEL_PERIOD - j:WHEEL_PERIOD] = pattern[:j]
        done = WHEEL_PERIOD
        while done < mask.size:             # double the filled prefix
            step = min(done, mask.size - done)
            mask[done:done + step] = mask[:step]
            done += step
        for p in WHEEL_PRIMES:              # the wheel struck its own primes
            if start <= p < hi:
                mask[(p - start) // 2] = True
        skip = len(WHEEL_PRIMES)            # the wheel primes are the first odd primes
    base = base_odd[skip:np.searchsorted(base_odd, math.isqrt(hi - 1), side="right")]
    # each base prime's first odd multiple >= max(p^2, start), as a mask index
    first = np.maximum(base * base, -(-start // base) * base)
    first += base * (first % 2 == 0)
    for i, p in zip(((first - start) // 2).tolist(), base.tolist()):
        mask[i::p] = False      # empty when the multiple lies past the window
    return start, mask


def _marked(flags: np.ndarray, start: int) -> np.ndarray:
    """The primes a run of `_sieve` flags marks, index 0 standing for start."""
    primes = np.flatnonzero(flags)  # int64 indices, mapped to numbers in place
    primes *= 2
    primes += start
    if start == 1 and primes.size:
        primes[0] = 2
    return primes


def _segment_primes(lo: int, hi: int, base_odd: np.ndarray) -> np.ndarray:
    """Primes in the half-open window [lo, hi).

    `base_odd` must contain every odd prime <= sqrt(hi - 1).
    """
    start, mask = _sieve(lo, hi, base_odd)
    return _marked(mask, start)


@dataclass(frozen=True)
class PrimeStream:
    """Lazy ascending stream of the primes in [lo, hi] (inclusive).

    Segments are independently sievable: `segment_bounds()` plus
    `segment(i)` let a driver pull disjoint windows concurrently, while
    `segments()` walks them in ascending order.
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
        """The segments in ascending order, from blocks of BLOCK_SIZE numbers.

        A block holds whole segments, at least one.  Its mask is kept packed
        8 flags a byte, and a segment's primes are read from it only when the
        segment is asked for; they are the same array that `segment(i)`
        returns.
        """
        base = self._base()
        bounds = self.segment_bounds()
        per_block = max(1, BLOCK_SIZE // self.segment_size)
        for b in range(0, len(bounds), per_block):
            block = bounds[b:b + per_block]
            start, mask = _sieve(block[0][0], block[-1][1], base)
            bits = np.packbits(mask)
            del mask
            for lo, hi in block:
                i = 0 if lo <= 2 else (lo - start + 1) // 2     # first flag of [lo, hi)
                end = (hi - start + 1) // 2
                flags = np.unpackbits(bits[i // 8:(end + 7) // 8]).view(bool)
                primes = _marked(flags[i % 8:i % 8 + end - i], start + 2 * i)
                del flags       # not held across the yield
                yield primes


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
