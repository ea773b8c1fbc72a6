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
the pairwise one plus the product's rounding.

The walk is `PrimeStream.tagged()`, whose segments carry their index in
the whole walk.  By default (``parallel=True``) a walk of two or more sieve
blocks is shared by `process_count` processes: this one forks a child per
further CPU, every process takes whole blocks from one queue (a pipe of
block indices, so a process that finishes early takes more) and forms
their segments' partials, the children send theirs back over a pipe
(pickled, so every float arrives bit for bit), and this process merges
every segment's partials in ascending segment order.  A split run is
therefore bit-identical to ``parallel=False``, which walks every block
here.  A child leaves through os._exit (no atexit handler, no stdout
flush), sends back any exception that stops it, which is raised here with
its type and message, and stops when its parent has gone; the parent kills
and reaps every child however it leaves, and walks alone when os.fork
fails.
"""

from __future__ import annotations

import math
import os
import pickle
import select
import signal
import struct
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Callable, Collection, Iterable, Iterator, Sequence

import numpy as np

from .errors import AccumulationError
from .sieve import DEFAULT_SEGMENT_SIZE, PrimeStream, stream_segmented

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
    parallel: bool = True,
) -> dict[str, list]:
    """Sum per-segment terms over the primes p <= n at every cut n.

    `cuts` must be strictly ascending, with cuts[0] >= 2.  With `limits`
    (one per cut, ascending, each at least 2) cut n sums the primes
    p <= limits[i] instead of p <= n.  [2, last limit] is walked once, in
    ascending segments of `segment_size` numbers (`PrimeStream.tagged()`),
    and `segment_terms(primes)` is called once per nonempty segment with
    its primes as an ascending int64 array, maybe in a forked child (where
    its side effects stay).  It returns ``(shared, at_cut)``:

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
    By default the walk's blocks are shared among `process_count` processes
    (see the module docstring); ``parallel=False`` walks them all in this
    one.  The partials are merged in segment order either way.

    Returns, per channel, one entry per cut: a KahanSum, or a Python int for
    integer channels.
    """
    limits = cuts if limits is None else limits
    stream = stream_segmented(2, limits[-1], segment_size=segment_size)
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
    processes = process_count(limits[-1], segment_size) if parallel else 1
    if processes == 1 or not _split_walk(stream, work, merge, processes):
        # `primes` stays alive while the next segment is sieved: freeing it
        # first measured ~15% slower on the constants' 2e8 passes (an effect
        # of the allocator, not of the arithmetic).
        for primes in stream.segments():
            merge(work(primes))
    return sums


def process_count(hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> int:
    """The processes a default `reduce_primes` walk of [2, hi] is shared by
    (one after a failed os.fork): one per CPU this process may run on, at
    most one per sieve block, and one where there is no os.fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    blocks = PrimeStream(2, hi, segment_size).block_count()
    return max(1, min(len(os.sched_getaffinity(0)), blocks))


_HEADER = struct.Struct("<Q")      # a message's length, in front of its pickle
_BLOCK = struct.Struct("<I")       # a block index in the queue of a split walk


def _split_walk(stream: PrimeStream, work, merge, processes: int) -> bool:
    """Walk `stream` in `processes` processes that take its blocks from one
    queue, and merge every segment's partials here in ascending order.
    False, with every child reaped, when os.fork fails.

    The children are forked, not spawned: `work` holds the caller's
    closures (a term function is often a lambda), which a fresh interpreter
    could not unpickle, and a spawned one would import numpy again."""
    queue, fill = os.pipe()
    # at most 477 blocks to DEFAULT_MAX_BOUND: 1.9 kB, within a pipe's buffer
    os.write(fill, b"".join(_BLOCK.pack(b) for b in range(stream.block_count())))
    os.close(fill)
    parent = os.getpid()
    children: list[_Child] = []
    try:
        for _ in range(1, processes):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                return False
            if pid == 0:
                os.close(read_fd)
                for child in children:
                    os.close(child.fd)
                _child_walk(stream.tagged(_claims(queue)), work, write_fd, parent)
            os.close(write_fd)
            children.append(_Child(pid, read_fd))
        ready = {}      # segment index -> partials not merged yet
        k = 0           # the next segment to merge
        segments = -(-(stream.hi + 1 - stream.lo) // stream.segment_size)
        own = stream.tagged(_claims(queue))
        while k < segments:
            got = next(own, None)
            if got is not None:
                ready[got[0]] = work(got[1])
            elif not any(child.open for child in children):
                raise AccumulationError(
                    f"a child of the split prime walk exited before segment {k}")
            _receive(children, ready, wait=got is None)
            while k in ready:
                merge(ready.pop(k))
                k += 1
        return True
    finally:
        os.close(queue)
        for child in children:
            child.close()


def _claims(queue: int) -> Iterator[int]:
    """The block indices this process takes from the queue, until it is empty."""
    while token := os.read(queue, _BLOCK.size):
        yield _BLOCK.unpack(token)[0]


def _child_walk(segments: Iterator[tuple[int, np.ndarray]], work, fd: int,
                parent: int):
    """A forked child's whole life: send (k, partials) for every segment k
    it walks, or the exception that stopped it, and leave through os._exit
    (no atexit handler, no stdout flush), also when the parent has gone.
    Nothing is re-raised: the child must never return into its caller's
    frames, which belong to the parent's pass."""
    code = 1
    try:
        for k, primes in segments:
            if os.getppid() != parent:
                break
            _send(fd, pickle.dumps((k, work(primes)), pickle.HIGHEST_PROTOCOL))
        else:
            code = 0
    except BaseException as exc:       # KeyboardInterrupt too
        try:
            blob = pickle.dumps(exc)
            pickle.loads(blob)
        except Exception:
            blob = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        _send(fd, blob)
    finally:
        os._exit(code)


def _send(fd: int, blob: bytes) -> None:
    data = memoryview(_HEADER.pack(len(blob)) + blob)
    while data:
        data = data[os.write(fd, data):]


def _receive(children: list[_Child], ready: dict, wait: bool) -> None:
    """Read what the children's pipes hold into `ready`; with `wait`, wait
    until one of them has something (or has closed)."""
    fds = {child.fd: child for child in children if child.open}
    if fds:
        for fd in select.select(list(fds), [], [], None if wait else 0)[0]:
            fds[fd].read(ready)


class _Child:
    """The parent's end of one child: its pid and pipe, and the bytes read
    of its next message."""

    def __init__(self, pid: int, fd: int):
        self.pid, self.fd, self.buf, self.open = pid, fd, bytearray(), True

    def read(self, ready: dict) -> None:
        """One read of the pipe; each whole message it completes goes into
        `ready`, and an exception the child sent is raised here."""
        chunk = os.read(self.fd, 1 << 20)
        self.open = bool(chunk)
        self.buf += chunk
        while len(self.buf) >= _HEADER.size:
            end = _HEADER.size + _HEADER.unpack_from(self.buf)[0]
            if len(self.buf) < end:
                break
            message = pickle.loads(self.buf[_HEADER.size:end])
            del self.buf[:end]
            if isinstance(message, BaseException):
                raise message
            ready[message[0]] = message[1]

    def close(self) -> None:
        """Kill and reap the child (it may have exited), and close the pipe."""
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(self.pid, 0)
        os.close(self.fd)


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
