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
individual terms; the mass sum|x| of a signed channel's partial is |sum x|
when its terms share one sign, and a second pairwise sum only when they do
not), and merges the partials into per-cut Kahan
accumulators in ascending segment order, so every total carries a
certified accumulation error bound.  A run of terms that share one integer
weight k (`Runs`) is summed once and scaled: its partial's error is k times
the pairwise one plus the product's rounding.  Both modes read the one
ordered walk `PrimeStream.segments()`, so they sieve the same blocks.
Every command forms the partials on one thread; ``parallel=True`` hands
the walk to a thread pool _IN_FLIGHT segments at a time and serves only
the `determinism` check and the benchmark's per-layer probe.  The merge
order never depends on the mode, so threaded runs are bit-identical to
sequential ones.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Collection, Iterable, Sequence

import numpy as np

from .sieve import DEFAULT_SEGMENT_SIZE, stream_segmented

EPS = 2.0 ** -52

#: segments a threaded pass hands the pool at a time
_IN_FLIGHT = 8

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


@dataclass(frozen=True)
class Runs:
    """A cut's terms in runs of one integer weight each: run j adds
    weights[j] times the terms edges[j]:edges[j + 1].  `terms` None counts
    each prime once."""

    terms: np.ndarray | None
    edges: Sequence[int]
    weights: Sequence[int]


#: What a segment worker returns: the cut-independent channels, as
#: (name, divisor, terms) triples, and a function giving the (name, terms)
#: pairs that depend on the cut (or None).
SegmentTerms = tuple[Iterable[tuple[str, int, np.ndarray | None]],
                     Callable[[int, int], Iterable[tuple[str, np.ndarray | Runs]]] | None]


def _partial(terms: np.ndarray, signed: bool) -> tuple[float, float, float]:
    """(value, mass, error) of one pairwise partial; mass is sum|terms|.

    Terms of one sign have the mass |value|: pairwise sums of t and of -t
    round alike, so that is sum|terms| bit for bit, and only a mixed-sign
    slice is summed a second time."""
    value = float(terms.sum())
    mass = value
    if signed:
        one_sign = terms.size == 0 or terms.min() >= 0 or terms.max() <= 0
        mass = abs(value) if one_sign else float(np.abs(terms).sum())
    return value, mass, pairwise_error_bound(mass, terms.size) + FORM_ULPS * EPS * mass


def _part(terms: np.ndarray | None, lo: int, hi: int, weight: int, signed: bool,
          integer: bool):
    """weight * sum(terms[lo:hi]): an int for an integer channel, else a
    (value, mass, error) partial whose error is the pairwise partial's times
    the weight plus the product's rounding.  `terms` None counts each prime
    once, exactly."""
    if terms is None:
        count = weight * (hi - lo)
        return count if integer else (float(count), float(count), 0.0)
    if integer:
        return weight * int(terms[lo:hi].sum())
    value, mass, err = _partial(terms[lo:hi], signed)
    if weight == 1:
        return value, mass, err
    value *= weight
    return value, weight * mass, weight * err + EPS * abs(value)


def _segment_partials(primes, segment_terms, cuts, limits, signed, integers):
    """Every cut's partials over one segment, as (cut index, {name: [partial, ...]})."""
    if len(primes) == 0:
        return []
    shared, at_cut = segment_terms(primes)
    out = [(i, {}) for i in range(bisect_left(limits, int(primes[0])), len(cuts))]
    for name, divisor, terms in shared:
        size = len(primes) if terms is None else terms.size
        flags = name in signed, name in integers
        memo = {}      # cuts whose limit covers the same primes share a partial
        for i, parts in out:
            count = int(np.searchsorted(primes[:size], limits[i] // divisor, side="right"))
            if count:
                if count not in memo:
                    memo[count] = _part(terms, 0, count, 1, *flags)
                parts.setdefault(name, []).append(memo[count])
        del terms       # freed before the generator forms the next array
    if at_cut is not None:
        for i, parts in out:
            count = int(np.searchsorted(primes, limits[i], side="right"))
            for name, terms in at_cut(count, cuts[i]):
                flags = name in signed, name in integers
                got = parts.setdefault(name, [])
                if isinstance(terms, Runs):
                    e = terms.edges
                    got.extend(_part(terms.terms, e[j], e[j + 1], w, *flags)
                               for j, w in enumerate(terms.weights) if e[j] < e[j + 1])
                else:
                    got.append(_part(terms, 0, terms.size, 1, *flags))
                del terms
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
    p <= limits[i] instead of p <= n.  [2, last limit] is walked once, in
    ascending segments of `segment_size` numbers (`PrimeStream.segments()`),
    and `segment_terms(primes)` is called once per nonempty segment with
    its primes as an ascending int64 array.  It
    returns ``(shared, at_cut)``:

    - `shared` yields (channel name, divisor m, terms) triples, the terms
      aligned with the first primes of the segment (None: each prime counts
      once); at cut n the triple contributes the terms of its primes
      p <= n // m (or the limit's), and every cut's partial is taken
      before the next triple is asked for;
    - `at_cut(count, n)`, if not None, yields (channel name, terms) pairs for
      cut n over the first `count` primes, the terms an array or `Runs`.

    A channel may get several parts at one cut; each is merged on its own.
    Each array is summed before the next is asked for, so a generator keeps
    only one alive.

    A channel named in `integers` has nonnegative integer-valued terms, int
    or float, and is summed exactly into a Python int (a float partial is
    exact while its total stays below 2^53: every pairwise partial is then
    an integer no larger than the total).  A channel named in `signed` takes
    its mass from sum|terms| (|sum| when they share one sign); any other
    channel must have nonnegative terms and takes its mass from their sum.
    With ``parallel=True`` a thread pool forms the partials of the same
    walk, _IN_FLIGHT segments at a time, and they are merged in segment
    order (see the module docstring for who asks for it).

    Returns, per channel, one entry per cut: a KahanSum, or a Python int for
    integer channels.
    """
    limits = cuts if limits is None else limits
    segments = stream_segmented(2, limits[-1], segment_size=segment_size).segments()
    sums: dict[str, list] = {}

    def merge(partials) -> None:
        for i, parts in partials:
            for name, got in parts.items():
                if name not in sums:
                    sums[name] = ([0] * len(cuts) if name in integers
                                  else [KahanSum() for _ in cuts])
                if name in integers:
                    sums[name][i] += sum(got)
                else:
                    for value, mass, err in got:
                        sums[name][i].add(value, abs_x=mass, err_in=err)

    work = partial(_segment_partials, segment_terms=segment_terms, cuts=cuts,
                   limits=limits, signed=signed, integers=integers)
    if parallel:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor() as pool:
            while chunk := list(islice(segments, _IN_FLIGHT)):
                for partials in pool.map(work, chunk):
                    merge(partials)
    else:
        # `primes` stays alive while the next segment is sieved: freeing it
        # first measured ~15% slower on the constants' 2e8 passes (an effect
        # of the allocator, not of the arithmetic).
        for primes in segments:
            merge(work(primes))
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
        return [("sum", 1, term_fn(pf, np.log(pf)))], None

    return reduce_primes(cuts, terms, signed=("sum",) if signed else ())["sum"]
