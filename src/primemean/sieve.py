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
`PrimeStream.tagged` is the one walk over the primes: it sieves blocks of
BLOCK_SIZE numbers in ascending order (the struck base primes cost a
Python step each per block, so a block stays large whatever the segment
length), keeps each block's mask packed 8 flags a byte, and reads one
segment's primes from it at a time, tagged with the segment's place in the
whole walk.  It may walk only some of the blocks, so that processes can
share a walk; `segments()` is the whole walk, untagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator

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


@dataclass(frozen=True)
class PrimeStream:
    """Lazy ascending stream of the primes in [lo, hi] (inclusive), walked
    in ascending segments by `tagged()` (some blocks) or `segments()` (all)."""

    lo: int
    hi: int
    segment_size: int

    def __post_init__(self):
        if not (2 <= self.lo <= self.hi):
            raise GridError(f"need 2 <= lo <= hi, got [{self.lo}, {self.hi}]")
        if self.segment_size < 64:
            raise GridError(f"segment size too small: {self.segment_size}")

    @property
    def block_size(self) -> int:
        """Numbers per sieve block: the whole segments that fit in BLOCK_SIZE, at least one."""
        return max(1, BLOCK_SIZE // self.segment_size) * self.segment_size

    def block_count(self) -> int:
        return -(-(self.hi + 1 - self.lo) // self.block_size)

    def segments(self) -> Iterator[np.ndarray]:
        """The primes of each window [lo + k * segment_size, ...) in
        ascending order, from blocks of BLOCK_SIZE numbers."""
        return (primes for _, primes in self.tagged())

    def tagged(self, blocks: Iterable[int] | None = None
               ) -> Iterator[tuple[int, np.ndarray]]:
        """(k, primes of window k) for every segment of the given blocks
        (ascending block indices; default every block), k counting the
        segments of the whole walk.

        A segment's mask is kept packed 8 flags a byte in its block, and
        its primes are read from it only when the segment is asked for.
        """
        base = primes_up_to(math.isqrt(self.hi))[1:]   # odd base primes
        end = self.hi + 1
        block_size = self.block_size
        per_block = block_size // self.segment_size
        for b in range(self.block_count()) if blocks is None else blocks:
            block_lo = self.lo + b * block_size
            block_hi = min(block_lo + block_size, end)
            start, mask = _sieve(block_lo, block_hi, base)
            bits = np.packbits(mask)
            del mask
            for j, lo in enumerate(range(block_lo, block_hi, self.segment_size)):
                hi = min(lo + self.segment_size, end)
                i = 0 if lo <= 2 else (lo - start + 1) // 2     # first flag of [lo, hi)
                stop = (hi - start + 1) // 2
                flags = np.unpackbits(bits[i // 8:(stop + 7) // 8]).view(bool)
                primes = _marked(flags[i % 8:i % 8 + stop - i], start + 2 * i)
                del flags       # not held across the yield
                yield b * per_block + j, primes


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
