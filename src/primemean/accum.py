"""Compensated summation with explicit error accounting, and the one
segmented reducer every prime sum goes through.

Streaming prime sums add up to ~5e7 terms, and the quantities of interest
are O(1) constants sitting on top of O(n log n) totals.  Plain left-to-right
float addition would contaminate exactly the digits we are trying to
measure.  Two devices keep that under control:

- per-segment partial sums are formed by numpy's pairwise reduction, whose
  rounding is bounded by eps * ceil(log2(m)) * sum|x|;
- segment partials are merged into a Kahan accumulator, whose rounding is
  bounded by 2 * eps * sum|x| independent of the number of merges.

`reduce_primes` owns the whole reduction of every prime and prime-power
sum (a prime-power term is a channel of its prime's segment): it cuts
[2, max cut] into sieve segments, forms every partial by pairwise
reduction, charges each partial pairwise_error_bound(mass, count) +
FORM_ULPS * eps * mass (the second term is the formation rounding of the
individual terms), and merges the partials into per-cut Kahan
accumulators in ascending segment order, so every total carries a
certified accumulation error bound.  Every command runs the
segments in order on one thread.  The thread pool behind ``parallel=True``
serves only the `determinism` check and the benchmark's per-layer probe:
the merge order never depends on it, so its runs are bit-identical to
sequential ones.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Sequence

import numpy as np

from .sieve import DEFAULT_SEGMENT_SIZE, stream_segmented

EPS = 2.0 ** -52

# Per-term formation rounding allowance (in ulps of the term magnitude):
# one log/log1p evaluation, one division, one multiplication, one cast.
FORM_ULPS = 4.0


@dataclass
class KahanSum:
    """Kahan-compensated accumulator with an attached error budget.

    `value` is the running compensated sum, `comp` the running compensation
    term.  `absmass` accumulates sum|x| over everything added, which drives
    the 2*eps*sum|x| compensated-summation bound; `inherited` collects error
    already present inside added partials (e.g. pairwise rounding).
    """

    value: float = 0.0
    comp: float = 0.0
    absmass: float = 0.0
    inherited: float = 0.0

    def add(self, x: float, *, abs_x: float | None = None, err_in: float = 0.0) -> None:
        y = x - self.comp
        t = self.value + y
        self.comp = (t - self.value) - y
        self.value = t
        self.absmass += abs(x) if abs_x is None else abs_x
        self.inherited += err_in

    def error_bound(self) -> float:
        return 2.0 * EPS * self.absmass + self.inherited


def pairwise_error_bound(total_abs: float, nterms: int) -> float:
    """Worst-case rounding of numpy's pairwise summation over nterms."""
    if nterms <= 1:
        return 0.0
    # numpy unrolls blocks of 8 before pairwise recursion; +4 absorbs that.
    return EPS * (math.ceil(math.log2(nterms)) + 4.0) * total_abs


#: What a segment worker returns: the cut-independent term arrays, and a
#: function giving the (name, terms) pairs that depend on the cut (or None).
SegmentTerms = tuple[dict[str, np.ndarray],
                     Callable[[int, int], Iterable[tuple[str, np.ndarray]]] | None]


def _partial(terms: np.ndarray, signed: bool) -> tuple[float, float, float]:
    """(value, mass, error) of one pairwise partial; mass is sum|terms|."""
    value = float(terms.sum())
    mass = float(np.abs(terms).sum()) if signed else value
    return value, mass, pairwise_error_bound(mass, terms.size) + FORM_ULPS * EPS * mass


def _segment_partials(primes, segment_terms, cuts, limits, signed, integers):
    """Every cut's partials over one segment, as (cut index, {name: partial})."""
    size = len(primes)
    if size == 0:
        return []
    shared, at_cut = segment_terms(primes)
    full = {}
    out = []
    for i in range(bisect_left(limits, int(primes[0])), len(cuts)):
        n = cuts[i]
        count = int(np.searchsorted(primes, limits[i], side="right"))
        parts = {}
        for name, terms in shared.items():
            if count < size:
                parts[name] = _partial(terms[:count], name in signed)
            else:   # every cut at or above the segment's end shares this one
                if name not in full:
                    full[name] = _partial(terms, name in signed)
                parts[name] = full[name]
        if at_cut is not None:
            for name, terms in at_cut(count, n):
                parts[name] = (int(terms.sum()) if name in integers
                               else _partial(terms, name in signed))
        out.append((i, parts))
    return out


def reduce_primes(
    cuts: Sequence[int],
    segment_terms: Callable[[np.ndarray], SegmentTerms],
    *,
    signed: Collection[str] = (),
    integers: Collection[str] = (),
    limits: Sequence[int] | None = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    parallel: bool = False,
) -> dict[str, list]:
    """Sum per-segment terms over the primes p <= n at every cut n.

    `cuts` must be strictly ascending, with cuts[0] >= 2.  With `limits`
    (one per cut, ascending, each at least 2) cut n sums the primes
    p <= limits[i] instead of p <= n.  [2, last limit] is cut into sieve
    segments, and `segment_terms(primes)` is called once per
    nonempty segment with its primes as an ascending int64 array.  It
    returns ``(shared, at_cut)``:

    - `shared` maps a channel name to a term array aligned with the primes;
      at cut n the segment contributes the terms of its primes <= n (or its
      limit);
    - `at_cut(count, n)`, if not None, yields (channel name, terms) pairs for
      cut n over the first `count` primes.
      Each array is summed before the next is asked for, so a generator
      keeps only one alive.

    A channel named in `integers` has nonnegative integer-valued terms, int
    or float, and is summed exactly into a Python int (a float partial is
    exact while its total stays below 2^53: every pairwise partial is then
    an integer no larger than the total).  A channel named in `signed` takes
    its mass from sum|terms|; any other channel must have nonnegative terms
    and takes its mass from their sum.
    With ``parallel=True`` the segments run on a thread pool (see the module
    docstring for who asks for it).

    Returns, per channel, one entry per cut: a KahanSum, or a Python int for
    integer channels.
    """
    limits = cuts if limits is None else limits
    stream = stream_segmented(2, limits[-1], segment_size=segment_size)
    sums: dict[str, list] = {}

    def merge(partials) -> None:
        for i, parts in partials:
            for name, part in parts.items():
                if name not in sums:
                    sums[name] = ([0] * len(cuts) if isinstance(part, int)
                                  else [KahanSum() for _ in cuts])
                if isinstance(part, int):
                    sums[name][i] += part
                else:
                    value, mass, err = part
                    sums[name][i].add(value, abs_x=mass, err_in=err)

    if parallel:
        from concurrent.futures import ThreadPoolExecutor

        base = stream._base()

        def work(idx: int):
            return _segment_partials(stream.segment(idx, base), segment_terms,
                                     cuts, limits, signed, integers)

        with ThreadPoolExecutor() as pool:
            for partials in pool.map(work, range(len(stream.segment_bounds()))):
                merge(partials)
    else:
        # `primes` stays alive while the next segment is sieved: freeing it
        # first measured ~15% slower on the constants' 2e8 passes (an effect
        # of the allocator, not of the arithmetic).
        for primes in stream.segments():
            merge(_segment_partials(primes, segment_terms, cuts, limits, signed,
                                    integers))
    return sums


def prime_sums(cuts: Sequence[int],
               term_fn: Callable[[np.ndarray, np.ndarray], np.ndarray], *,
               signed: bool = False) -> list[KahanSum]:
    """Compensated sums of term_fn(p, log p) over the primes p <= n, per cut n.

    `term_fn` receives float64 arrays of primes and their logs.  Unless
    `signed` is set, its terms must be nonnegative.
    """
    def terms(seg: np.ndarray) -> SegmentTerms:
        pf = seg.astype(np.float64)
        return {"sum": term_fn(pf, np.log(pf))}, None

    return reduce_primes(cuts, terms, signed=("sum",) if signed else ())["sum"]
