"""Streaming, checkpointed evaluation of the prime sums behind log-geometric means.

The central identity: for a positive multiplicative f,

    n * log G_f(n) = sum_{k<=n} log f(k)
                   = sum_{p<=n} floor(n/p) * log f(p)
                     + sum_{p^a<=n, a>=2} floor(n/p^a) * log(f(p^a)/f(p^(a-1)))

(the second sum vanishes identically for strongly multiplicative f).  Call
the second sum PP: it is one more channel of the prime pass, over the prime
powers p^a <= n of each segment's primes p <= sqrt(n).  With
Q(p) = f(p) written against its growth profile alpha * p^d, the prime part
splits into three streaming accumulators

    sum floor(n/p) log f(p) = (log alpha) * S1(n) + d * S2(n) + S3(n),

    S1(n) = sum floor(n/p),          S2(n) = sum floor(n/p) log p,
    S3(n) = sum floor(n/p) log(Q(p) / (alpha p^d)),

alongside the companion sums F1 (fractional parts), F2 (fractional parts over
all prime powers), R(n) = sum {n/p} log p, M(x) = sum log p / p, and
U(x) = sum_{2<=k<=x} log kappa(k) / log k.  `sums_stream` evaluates all of
them at up to 64 checkpoints in one segmented pass; each prime serves every
checkpoint >= p, so the pass is O(#primes * #checkpoints-above), and the
work at each (segment, checkpoint) is kept small:

- at cut n the primes p > n / U_M0 fall into runs (n/(k+1), n/k] of one
  k = floor(n/p) < U_M0, whose edges are integer searches at n // k; S1
  takes k times each run's count (exact), and S2, S3 and the direct
  cross-check k times the run's pairwise partial of log p, log Q or
  log f(p) (`accum.Runs`).  The primes p <= n / U_M0 keep their own
  floor(n/p), and F1 and R take every prime's fraction (n - k p) / p, so R
  stays independent of M and S2 (the S2 = n M - R check compares them);
- U is a prime sum too, U(x) = sum_p log p * sum_{m<=x/p} 1/log(m p).  Its
  terms m < U_M0 are cut-independent channels sum_{p<=x/m} g_m(p),
  g_m(p) = log p / log(m p) (g_1 = 1 counts the primes), each g_m formed
  once per segment and summed up to x // m at every cut; the rest is
  Euler-Maclaurin, whose upper end Ei(log(q p)) is a Taylor step about
  log x.  `u_truncation_bound` bounds the truncation (below 1.1e-16 * x).

n log G_f(n) reads none of the companions.  The route decides what the pass
streams: the sieve route (``sublinear=False``) always streams the
companions, and the sublinear route never does.  `sums`, `fit --target
u-residual`, and the checks `exact-identities`, `determinism` and the sieve
side of `routes-agree` take the sieve route; `geomean`, `fit` on every other
target, `log_geomean_identity` and every other check that reads a report
take the sublinear route.

The sublinear route (``sublinear=True``) streams only the primes p <= y, a
split per checkpoint (`_split`: isqrt(n), raised to 8R where R bounds the
roots of f, and n itself when the C_Q series does not apply), through the
same `_prime_terms` hooks: S1, S2 and S3 over p <= y, PP, and the direct
cross-check over the same primes (no run appears where y <= n / U_M0, as
for every n >= 1024 whose y is isqrt(n)).  The rest needs only the primes
<= sqrt(n):

    S2(n) = log n! - LG(n),   LG(n) = sum_{p^a <= n, a >= 2} floor(n/p^a) log p,

by Legendre's formula, LG being one more channel of the prime pass and
log n! Stirling's series in decimal (`lucy.log_factorial`); and above y

    sum_{y<p<=n} floor(n/p) g(p) = sum_{m <= n/(y+1)} (G(floor(n/m)) - G(y)),

G(v) = sum_{p<=v} g(p), from Lucy's floor-value tables (`lucy.prime_tails`)
for g = 1 (S1, exact) and g = p^-j, j = 1..J.  For p > y >= 8R,
log(f(p)/(alpha p^d)) = sum_j c_j p^-j with the exact c_j of C_Q's series
(`constants._q_series_coeffs`), so S3's tail is sum_{j<=J} c_j times the
j-th row's.  J is the fewest rows whose cut (`_cut_bound`) stays below
eps n.  Its `err_bound` adds to the prime pass's bounds Stirling's
remainder and rounding, the tables' running bounds, the tails' rounding and
the cut: every term is certified, none measured.  A `CheckpointGrid`
reaches SUBLINEAR_MAX_BOUND = 1e12, which this route streams in full; the
sieve route refuses a checkpoint beyond DEFAULT_MAX_BOUND = 1e9.

Segment geometry: both routes cut the pass into the reducer's segments of
accum.SEGMENT_SIZE = 2^19 numbers, from sieve blocks of 2^21 numbers.  On
the sieve route a segment keeps about a dozen arrays of its primes alive
at once (the primes, p, log p, log f(p), U's lower end, a cut's quotients
and U's upper-end buffers, built in place), so the first segment, with
43,390 primes, sets the pass's working set.  The sublinear route's pass
ends at the largest split y, and a pass that ends inside the first segment
(y < 2^19: every n < 2.75e11 whose split is isqrt(n)) does not depend on
the segment length; a longer one (larger n, or a model whose C_Q series
does not apply, with y = n) moves within its bounds when the length does.
A segment worker never writes an array after yielding it: the reducer may
still hold it (a caller of `at_cut` may keep every part).

floor(n/p) is formed as floor(n / p) in float64 (or is the run's k), and
the remainder as n - floor(n/p) p.  Both are exact because every checkpoint is at most
1e12 < 2^52: n / p is then within half an ulp < 1/p of the true
quotient, so its floor is floor(n/p), and every product and difference is an
integer below 2^53.  The same holds with a prime power p^a <= n in place of p.

Determinism contract: every prime and prime-power sum here goes through
`accum.reduce_primes`, which forms per-segment partials by numpy's pairwise
reduction and merges them into Kahan accumulators in ascending segment
order.  A pass of two or more sieve blocks is shared by one process per
CPU (`accum.process_count`), whose partials are merged in the same order,
so its report is bit-identical to a one-process run
(``sums_stream(parallel=False)``, which the `determinism` check compares
with it).

`err_bound` certifies `n_log_g` from the reducer's own bounds: each Kahan
total, PP included, carries its pairwise, formation and merge rounding, and
the assembly adds the rounding of log alpha and its own.  No declared
profile constant (K) enters it.

Cache format v10 (binary, little-endian): header {magic b"PMSM", version u16,
model hash u64, checkpoint count u16, layout u8 (0: a sieve-route report;
1: a sublinear-route report; 2: a sieve-route report, then a
sublinear-route one)}, then a 16-byte blake2b digest of the header and the
records, then one block of records per report, one record per checkpoint
{n u64, s1 u64, one f64 each for s2, s3, n_log_g and err_bound, and on the
sieve route one f64 each for f1, f2, r_sum, m_of_x and u_of_x} (88 bytes on
the sieve route, 48 on the sublinear one).  A caller reads the report of its
route; a file without it is a miss.  A report is stored as streamed and
loaded as stored: a load runs no prime pass.  A file whose digest does not
match is rejected, and so is a file of an older version (v8's layout byte
also allowed a sieve-route report without the companions, in 48-byte
records; v9's sieve-route sums came from segments of 2^20 numbers and
differ from v10's in their last bits).
The model hash fingerprints the model itself (see `_model_hash`), not only
its name, so two models that share a name never share a cache file.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterator

import numpy as np

from .accum import EPS, KahanSum, Runs, SegmentTerms, prime_sums, reduce_primes
from .errors import AccumulationError, CacheFormatError, GridError
from .multfunc import (_VALIDATION_PRIMES, PrimeModel, log_ratio_prime_power,
                       value_at)
from .sieve import (
    DEFAULT_MAX_BOUND,
    SpfTable,
    distinct_prime_factors,
    primes_up_to,
)

MAX_CHECKPOINTS = 64
SUBLINEAR_MAX_BOUND = 10 ** 12      # the sublinear route's cap (the sieve's is 1e9)

# Ordering of the float-valued accumulators, as `sums` prints them.
COMPANION_FIELDS = ("f1", "f2", "r_sum", "m_of_x", "u_of_x")
FLOAT_FIELDS = ("s2", "s3") + COMPANION_FIELDS

CACHE_MAGIC = b"PMSM"
CACHE_VERSION = 10
_HEADER = struct.Struct("<4sHQHB")   # magic, version, model hash, count, layout
#: the layout byte indexes the routes of a file's reports (True: sublinear)
_LAYOUTS = ((False,), (True,), (False, True))
_DIGEST_SIZE = 16                    # blake2b of header + payload, after the header


# --------------------------------------------------------------------------
# checkpoint grid
# --------------------------------------------------------------------------


def _check_count(count: int) -> None:
    if count > MAX_CHECKPOINTS:
        raise GridError(f"{count} checkpoints exceed the cap of {MAX_CHECKPOINTS}")


@dataclass(frozen=True)
class CheckpointGrid:
    """Ascending evaluation points 2 <= n_1 < ... < n_m <= SUBLINEAR_MAX_BOUND,
    m <= 64; the sieve route (`sums_stream`) refuses n_m > DEFAULT_MAX_BOUND.
    """

    points: tuple[int, ...]

    def __post_init__(self):
        pts = self.points
        if not pts:
            raise GridError("checkpoint grid is empty")
        _check_count(len(pts))
        for n in pts:
            if not isinstance(n, int) or isinstance(n, bool):
                raise GridError(f"checkpoint {n!r} is not an integer")
        if pts[0] < 2:
            raise GridError(f"first checkpoint must be >= 2, got {pts[0]}")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise GridError("checkpoints must be strictly ascending")
        if pts[-1] > SUBLINEAR_MAX_BOUND:
            raise GridError(f"checkpoint {pts[-1]} exceeds the sublinear route's "
                            f"bound {SUBLINEAR_MAX_BOUND}")

    @classmethod
    def from_points(cls, points) -> "CheckpointGrid":
        pts = []
        for n in points:
            iv = int(n)
            if iv != n:
                raise GridError(f"checkpoint {n!r} is not an integer")
            pts.append(iv)
        return cls(tuple(pts))

    @classmethod
    def log_spaced(cls, lo: int, hi: int, count: int) -> "CheckpointGrid":
        """count geometrically spaced integers in [lo, hi] (deduplicated)."""
        if count < 1:
            raise GridError(f"need at least one checkpoint, got {count}")
        _check_count(count)
        if lo > hi:
            raise GridError(f"empty range [{lo}, {hi}]")
        raw = np.geomspace(lo, hi, count)
        pts = sorted({int(round(x)) for x in raw})
        return cls(tuple(pts))

    @property
    def n_max(self) -> int:
        return self.points[-1]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SumsReport:
    """All streaming sums at each checkpoint, with certified error bounds.

    `model_hash` fingerprints the model (the cache key; see `_model_hash`).
    `s1` entries are exact integers.  `sublinear` says which route
    streamed the report: the companion fields f1, f2, r_sum, m_of_x and
    u_of_x are all None on the sublinear route, which streams none of them.
    `n_log_g` is the assembled identity value
    (log alpha) * s1 + d * s2 + s3 + [prime-power correction]; `err_bound`
    bounds its accumulation error.  Both are assembled once, by
    `sums_stream`, and stored in the cache as they are.
    """

    model_name: str
    model_hash: int
    points: tuple[int, ...]
    s1: tuple[int, ...]
    s2: tuple[float, ...]
    s3: tuple[float, ...]
    f1: tuple[float, ...] | None
    f2: tuple[float, ...] | None
    r_sum: tuple[float, ...] | None
    m_of_x: tuple[float, ...] | None
    u_of_x: tuple[float, ...] | None
    n_log_g: tuple[float, ...]
    err_bound: tuple[float, ...]
    sublinear: bool = False

    def __len__(self) -> int:
        return len(self.points)


# --------------------------------------------------------------------------
# prime powers (a >= 2)
# --------------------------------------------------------------------------


def _prime_power_table(model: PrimeModel, primes: np.ndarray, n_max: int
                       ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """The prime powers p^a <= n_max, a >= 2, of the given ascending primes,
    sorted ascending as float64; beside each log(f(p^a)/f(p^(a-1)))
    (None for strongly multiplicative models, whose ratios are all 1) and p.

    The float values are exact, since n_max < 2^52 (see the module docstring).
    """
    strong = model.strongly_multiplicative
    pas, lrs, bases = [], [], []
    for p in primes[:np.searchsorted(primes, math.isqrt(n_max), side="right")].tolist():
        pa, a = p * p, 2
        while pa <= n_max:
            pas.append(pa)
            if not strong:
                lrs.append(log_ratio_prime_power(model, p, a))
            bases.append(p)
            pa *= p
            a += 1
    order = np.argsort(pas, kind="stable")
    lr = None if strong else np.array(lrs)[order]
    return (np.array(pas, dtype=np.float64)[order], lr,
            np.array(bases, dtype=np.float64)[order])


# --------------------------------------------------------------------------
# segment workers
# --------------------------------------------------------------------------


def _prime_terms(model: PrimeModel, need_s3: bool, n_max: int, sublinear: bool,
                 seg: np.ndarray) -> SegmentTerms:
    """One prime segment's terms of every prime and prime-power sum, for
    `reduce_primes`.

    `n_max` is the largest cut.  `direct` is the straight sum
    floor(n/p) log f(p) used for the internal cross-check; `s1` is an
    integer channel, summed exactly.  At cut n the primes p > n / U_M0 come
    in runs of one k = floor(n/p) < U_M0, and S1, S2, S3 and `direct` take
    each run as k times the sum of its count, log p, log Q or log f(p);
    the primes below keep their own floor(n/p).  F1 and R take every
    prime's fraction (n - floor(n/p) p) / p.  `pp` is the identity's a >= 2
    term floor(n/p^a) log(f(p^a)/f(p^(a-1))) over the prime powers p^a <= n
    of the segment's primes (never yielded for strongly multiplicative
    models).  On the sieve route the segment also yields the companions'
    terms, `f2` being F2's part on top of F1: the fractions {n/p^a},
    a >= 2, and U's (see below); on the `sublinear` one, `lg` is Legendre's
    a >= 2 term floor(n/p^a) log p.  A segment with no prime p <= sqrt(n_max)
    yields none of `pp`, `f2`, `lg`.  floor(n/p), floor(n/p^a) and the
    remainders are formed in float64, exactly because n < 2^52 (see the
    module docstring).
    """
    pa, lr, base = _prime_power_table(model, seg, n_max)
    pf = seg.astype(np.float64)
    lp = np.log(pf)
    lf = model.log_at_prime_vec(pf, lp)
    qr = model.log_q_ratio_vec(pf, lp) if need_s3 else None
    u_lo = None if sublinear else _u_lower_end(seg, lp, n_max)

    def at_cut(count: int, n: int) -> Iterator[tuple[str, np.ndarray | Runs]]:
        # run j holds the primes with floor(n/p) = _RUN_WEIGHTS[j]; the first
        # `head` primes, p <= n / U_M0, precede every run
        edges = np.searchsorted(seg[:count], n // _RUN_DIVISORS, side="right").tolist()
        head = edges[0]
        q = np.empty(head if sublinear else count)
        qh = np.floor(np.divide(n, pf[:head], out=q[:head]), out=q[:head])
        if not sublinear:   # the runs' quotients are their weights
            for j, k in enumerate(_RUN_WEIGHTS):
                q[edges[j]:edges[j + 1]] = k
        yield "s1", qh
        yield "s1", Runs(None, edges, _RUN_WEIGHTS)
        for name, t in (("s2", lp), ("s3", qr), ("direct", lf)):
            if t is not None:
                yield name, qh * t[:head]
                yield name, Runs(t, edges, _RUN_WEIGHTS)
        if not sublinear:
            pc = pf[:count]
            fr = np.multiply(q, pc)         # (n - q p) / p, every step exact but the last
            np.subtract(n, fr, out=fr)
            fr /= pc
            yield "f1", fr
            yield "r_sum", fr * lp[:count]
            del fr          # freed before U's buffers: a yielded array is never reused
            if head:
                yield "u_of_x", _u_em_terms(pf[:head], lp[:head], u_lo, qh, n)
        if pa.size:
            pac = pa[:np.searchsorted(pa, n, side="right")]
            qa = np.floor(n / pac)
            if lr is not None:
                yield "pp", qa * lr[:pac.size]
            if sublinear:
                yield "lg", qa * np.log(base[:pac.size])
            else:
                yield "f2", (n - qa * pac) / pac

    def shared() -> Iterator[tuple[str, int, np.ndarray | None]]:
        if not sublinear:
            yield "m_of_x", 1, _mertens_terms(pf, lp)
            yield from _u_direct_channels(seg, lp, n_max)

    return shared(), at_cut


# --------------------------------------------------------------------------
# U(x) from the prime pass
# --------------------------------------------------------------------------
#
# log kappa(k) = sum_{p | k} log p, so
#
#     U(x) = sum_{p<=x} log p * T_p(x // p),   T_p(q) = sum_{m=1}^{q} f_p(m),
#
# with f_p(t) = 1/log(t p).  The terms m < U_M0 are cut-independent
# channels: sum_{m<U_M0} sum_{p<=x/m} g_m(p), g_m(p) = log p / log(m p),
# g_1 = 1 (so m = 1 adds pi(x), exactly).  Each g_m is formed once per
# segment over its primes p <= n_max / m, and every cut sums a prefix of
# it.  The rest, for the primes p <= x / U_M0 (q >= U_M0), is Euler-Maclaurin:
#
#     sum_{m=M0}^{q} f_p(m) = (li(q p) - li(M0 p)) / p + (f_p(M0) + f_p(q)) / 2
#         + sum_{k=1}^{J} B_2k / (2k)! (f_p^(2k-1)(q) - f_p^(2k-1)(M0)) + R,
#
# li(t) = Ei(log t).  With u = log(t p), f_p^(k)(t) = t^-k h_k(1/u), where
# h_0(v) = v, h_{k+1} = -v^2 h_k'(v) - k h_k: a polynomial in v whose
# coefficients all have the sign (-1)^k.  So f_p^(2J) > 0, f_p^(2J-1) rises
# to 0, and |R| <= |B_2J| / (2J)! |f_p^(2J-1)(M0)| (the periodic Bernoulli
# bound 2 zeta(2J) / (2 pi)^(2J) is exactly |B_2J| / (2J)!).
#
# The lower end li(M0 p) is cut-independent and summed by Ei's power series.
# At the upper end q p = x - r with the exact integer r = x - q p < p
# <= x / U_M0, so log(q p) = L - delta with L = log x and
# 0 <= delta = -log1p(-r/x) < log(U_M0 / (U_M0 - 1)): Ei is a Taylor step
# about L, sum_{k<=K} Ei^(k)(L) (-delta)^k / k!, whose derivatives are
# scalars, Ei^(k)(L) = x sum_{j<k} C(k-1, j) (-1)^j j! / L^(j+1).  Its
# remainder is at most |Ei^(K+1)(xi)| delta^(K+1) / (K+1)! with
# xi in [L - delta, L].  `u_truncation_bound` sums these remainders and the
# Ei series truncation.

U_M0 = 32           # m < U_M0 summed term by term
U_EM_TERMS = 4      # J, the Bernoulli corrections

#: floor(n/p) = k < U_M0 on n/(k+1) < p <= n/k: the divisors k of the run
#: edges n // k and the run weights, both in ascending order of the primes
_RUN_DIVISORS = np.arange(U_M0, 0, -1)
_RUN_WEIGHTS = tuple(range(U_M0 - 1, 0, -1))


def _h_poly(k: int) -> tuple[int, ...]:
    """Coefficients of h_k(v), ascending from v^0: f_p^(k)(t) = t^-k h_k(1/log(t p))."""
    c = [0, 1]
    for i in range(k):
        nxt = [0] * (len(c) + 1)
        for j, a in enumerate(c):
            nxt[j + 1] -= j * a
            nxt[j] -= i * a
        c = nxt
    return tuple(c)


#: B_2k / (2k)! for k = 1..J
_EM_BERNOULLI = tuple(b / math.factorial(2 * k) for k, b in enumerate(
    (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30))[:U_EM_TERMS],
    start=1))

# (B_2k / (2k)!, h_{2k-1}) for k = 1..J
_EM_CORRECTIONS = tuple((float(b), _h_poly(2 * k - 1))
                        for k, b in enumerate(_EM_BERNOULLI, start=1))


def _em_lower_coeffs() -> tuple[float, ...]:
    """The lower end f_p(M0) / 2 - sum_k B_2k / (2k)! f_p^(2k-1)(M0) as one
    polynomial in v = 1/log(M0 p): its exact coefficients, rounded once,
    ascending from v^1 (f_p^(2k-1)(M0) = M0^(1-2k) h_{2k-1}(v))."""
    c = [Fraction(0)] * (2 * U_EM_TERMS + 1)
    c[1] = Fraction(1, 2)
    for k, b in enumerate(_EM_BERNOULLI, start=1):
        for j, h in enumerate(_h_poly(2 * k - 1)):
            c[j] -= b * h / Fraction(U_M0) ** (2 * k - 1)
    return tuple(map(float, c[1:]))


_EM_LOWER = _em_lower_coeffs()

#: Terms of the series Ei(x) = gamma + log x + sum_{k>=1} x^k / (k k!); the
#: truncation is bounded in `_ei_tail` for every x up to log of the sieve bound.
_EI_TERMS = 96
_EI_COEFFS = tuple(1.0 / (k * math.factorial(k)) for k in range(1, _EI_TERMS + 1))

#: K, the Taylor step's terms, and its largest delta, log(U_M0 / (U_M0 - 1))
_EI_TAYLOR_TERMS = 8
_TAYLOR_DELTA = math.log(U_M0 / (U_M0 - 1))


def _horner(coeffs, x, out=None):
    """sum_i coeffs[i] x^i (ascending from x^0) by Horner, in one array (`out`,
    not x, if given), or in floats for a float x."""
    if not isinstance(x, np.ndarray):
        s = coeffs[-1]
    elif out is None:
        s = np.full_like(x, coeffs[-1])
    else:
        s = out
        s.fill(coeffs[-1])
    for c in coeffs[-2::-1]:
        s *= x
        s += c
    return s


def _ei_series(x):
    """sum_{k=1}^{_EI_TERMS} x^k / (k k!) by Horner (all terms positive)."""
    s = _horner(_EI_COEFFS, x)
    s *= x
    return s


def _ei_tail(x: float) -> float:
    """Bound on the series terms past _EI_TERMS at 0 < x < _EI_TERMS + 2."""
    k = _EI_TERMS + 1       # the first term left out; each next is < x/(k+1) of the last
    first = math.exp(k * math.log(x) - math.lgamma(k + 1)) / k
    return first * (k + 1) / (k + 1 - x)


def _ei_derivative(k: int, x: float, ex: float, signs: int = -1) -> float:
    """Ei^(k)(x) = e^x sum_{j<k} C(k-1, j) (-1)^j j! / x^(j+1), with e^x = ex;
    `signs` 1 sums the absolute values of the terms instead."""
    return ex * math.fsum(math.comb(k - 1, j) * signs ** j * math.factorial(j) / x ** (j + 1)
                          for j in range(k))


def _ei_taylor(n: int, delta: np.ndarray) -> np.ndarray:
    """Ei(log n - delta) - gamma for 0 <= delta < _TAYLOR_DELTA: Ei's series
    at L = log n plus the Taylor step's K terms, by Horner in delta."""
    big_l = math.log(n)
    coeffs = [_ei_derivative(k, big_l, n) * (-1) ** k / math.factorial(k)
              for k in range(1, _EI_TAYLOR_TERMS + 1)]
    s = _horner(coeffs, delta)
    s *= delta
    s += _ei_series(big_l) + math.log(big_l)
    return s


def _em_corrections(t: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_k B_2k / (2k)! f_p^(2k-1)(t), with v = 1/log(t p), into `out`:
    v^2 / t times a Horner sum in 1/t^2 over the polynomials
    B_2k / (2k)! h_{2k-1}(v) / v^2 (every h_{2k-1} has the factor v^2)."""
    w = np.multiply(t, t)
    np.divide(1.0, w, out=w)
    (b, h), *rest = _EM_CORRECTIONS[::-1]
    _horner([b * c for c in h[2:]], v, out)
    term = None
    for b, h in rest:
        out *= w
        term = _horner([b * c for c in h[2:]], v, term)
        out += term
    out *= v
    out *= v
    out /= t
    return out


def _g_m(lp: np.ndarray, m: int) -> np.ndarray:
    """g_m(p) = log p / log(m p), from the primes' logs."""
    den = lp + math.log(m)
    return np.divide(lp, den, out=den)


def _u_direct_channels(seg: np.ndarray, lp: np.ndarray, u_max: int):
    """U's terms m < U_M0 as `reduce_primes` channels (name, m, g_m): g_1
    counts the primes, and each further g_m is formed over the segment's
    primes p <= u_max / m, one at a time."""
    yield "u_of_x", 1, None
    for m in range(2, U_M0):
        c = int(np.searchsorted(seg, u_max // m, side="right"))
        if c == 0:
            return
        yield "u_of_x", m, _g_m(lp[:c], m)


def _u_lower_end(seg: np.ndarray, lp: np.ndarray, u_max: int):
    """The cut-independent lower-end terms at m = U_M0, for the segment's
    primes p <= u_max / U_M0: (Ei(log(M0 p)) - gamma, the rest), in two
    buffers."""
    c = int(np.searchsorted(seg, u_max // U_M0, side="right"))
    if c == 0:      # no cut reaches the Euler-Maclaurin part in this segment
        return lp[:0], lp[:0]
    ua = math.log(U_M0) + lp[:c]
    ea = _ei_series(ua)
    lo = np.log(ua)
    ea += lo
    va = np.divide(1.0, ua, out=ua)
    _horner(_EM_LOWER, va, lo)
    lo *= va
    return ea, lo


def _u_em_terms(pf, lp, u_lo, q, n: int) -> np.ndarray:
    """log p * sum_{m=U_M0}^{q} 1/log(m p) at cut n for the segment's primes
    p <= n / U_M0, which q holds n // p of as floats.  Three buffers and
    `_em_corrections`' two: t holds delta, then 0.5 vb, then the corrections."""
    c = q.size
    ea, lo = u_lo
    t = np.multiply(q, pf)              # delta = -log1p(-(n - q p) / n)
    np.subtract(n, t, out=t)
    np.negative(t, out=t)
    t /= n
    np.log1p(t, out=t)
    np.negative(t, out=t)
    vb = np.subtract(math.log(n), t)
    np.divide(1.0, vb, out=vb)
    s = _ei_taylor(n, t)
    s -= ea[:c]
    s /= pf
    s += np.multiply(vb, 0.5, out=t)
    s += _em_corrections(q, vb, t)
    s += lo[:c]
    s *= lp
    return s


def u_truncation_bound(n: int) -> float:
    """Bound on the truncation error of the streamed U(n), rounding aside.

    It sums, over the primes p <= n / U_M0, log p times the Euler-Maclaurin
    remainder |B_2J| / (2J)! M0^(1-2J) |h_{2J-1}(1/log(M0 p))|, the Ei
    series truncation at both ends and the Taylor step's remainder, divided
    by p.  |h_{2J-1}(v)| grows with v, so v = 1/log(2 M0) majorizes it;
    theta(y) = sum_{p<=y} log p < 1.01624 y (Rosser and Schoenfeld 1962,
    Thm 9), log p / p < 1/2, and sum_{p<=y} log p / p < log y + 2 (Mertens).
    The Taylor remainder takes e^xi <= n and xi >= log n - _TAYLOR_DELTA.
    """
    y = n // U_M0
    if y < 2:
        return 0.0
    b, h = _EM_CORRECTIONS[-1]
    h_max = abs(float(np.polynomial.polynomial.polyval(1.0 / math.log(2 * U_M0), h)))
    em = 1.01624 * y * abs(b) * h_max / float(U_M0) ** (2 * U_EM_TERMS - 1)
    k = _EI_TAYLOR_TERMS + 1
    taylor = (_ei_derivative(k, math.log(n) - _TAYLOR_DELTA, n, signs=1)
              * _TAYLOR_DELTA ** k / math.factorial(k) * (math.log(y) + 2.0))
    return em + 2.0 * _ei_tail(math.log(n)) * y / 2.0 + taylor


# --------------------------------------------------------------------------
# the streaming engine
# --------------------------------------------------------------------------


def _assemble(la: float, d: float, s1: int, s2, s3, pp) -> tuple[float, float]:
    """(log alpha) S1 + d S2 + S3 + PP from (value, bound) pairs of S2, S3
    and PP, and its bound: theirs (S2's times |d|), log alpha's ulp on S1,
    and the assembly's own rounding."""
    s1f = float(s1)
    value = la * s1f + d * s2[0] + s3[0] + pp[0]
    bound = (abs(d) * s2[1] + s3[1] + pp[1] + abs(la) * EPS * s1f
             + 8.0 * EPS * (abs(la) * s1f + abs(d * s2[0]) + abs(s3[0]) + abs(pp[0])))
    return value, bound


def _split(n: int, root: float | None) -> int:
    """The sublinear route's split y at n: the prime pass sums p <= y, the
    floor-value tables the primes above.  isqrt(n), but at least 2 (the
    pass's first prime), raised to 8R where the s3 series needs it (R bounds
    the roots of f; `root` is 0 when s3 vanishes), and n when the series
    does not apply (`root` None)."""
    if root is None:
        return n
    return min(n, max(2, math.isqrt(n), math.ceil(8 * root)))


def _cut_bound(n: int, y: int, rows: int, width: int, root: float) -> float:
    """Bound on sum_{y<p<=n} floor(n/p) |sum_{k>J} c_k p^-k|, J = rows:
    with |c_k| <= B R^k / k (B = deg N + deg D) and R/y <= 1/8, it is below
    n B (R/y)^(J+1) / ((J+1)^2 (1 - R/y))."""
    x = root / y
    return n * width * x ** (rows + 1) / ((rows + 1) ** 2 * (1.0 - x))


def _beyond_split(model: PrimeModel, points, splits, s1, s3, lg, root: float):
    """S1, S2 and S3 over every prime p <= n from the prime pass's sums over
    p <= y: S2 by Legendre, S1 and S3 with the floor-value tables' tails
    (module docstring).  S2 and S3 come as (value, bound) pairs."""
    from .constants import _q_series_coeffs
    from .lucy import log_factorial, prime_tails

    need_s3 = model.delta != math.inf
    width = len(model.fp.num) + len(model.fp.den) - 2
    rows = []
    for n, y in zip(points, splits):
        j = 0
        if need_s3 and y < n:   # the fewest rows whose cut stays below eps n
            j = 1
            while _cut_bound(n, y, j, width, root) > EPS * n:
                j += 1
        rows.append(j)
    coeffs = [float(c) for c in _q_series_coeffs(model, max(rows))] if max(rows) else []
    primes = primes_up_to(max([math.isqrt(points[-1])]
                              + [y for n, y in zip(points, splits) if y < n]))
    out1, out2, out3 = [], [], []
    for i, (n, y) in enumerate(zip(points, splits)):
        fact, fact_err = log_factorial(n)
        s2 = fact - lg[i].value
        out2.append((s2, fact_err + lg[i].error_bound() + EPS * abs(s2)))
        if y == n:
            out1.append(s1[i])
            out3.append(s3[i])
            continue
        above, tails = prime_tails(n, y, primes, rows[i])
        terms = [c * a for c, (a, _) in zip(coeffs, tails)]
        tail = sum(terms)
        err = (sum(abs(c) * e for c, (_, e) in zip(coeffs, tails))
               + (len(terms) + 2) * EPS * sum(map(abs, terms)))
        if rows[i]:
            err += _cut_bound(n, y, rows[i], width, root)
        v3 = s3[i][0] + tail
        out1.append(s1[i] + above)
        out3.append((v3, s3[i][1] + err + EPS * abs(v3)))
    return out1, out2, out3


def check_sieve_route(grid: CheckpointGrid) -> None:
    """Refuse a grid past the sieve route's bound, DEFAULT_MAX_BOUND."""
    if grid.n_max > DEFAULT_MAX_BOUND:
        raise GridError(
            f"checkpoint {grid.n_max} exceeds the sieve bound {DEFAULT_MAX_BOUND}")


def sums_stream(
    model: PrimeModel,
    grid: CheckpointGrid,
    *,
    sublinear: bool = False,
    parallel: bool = True,
) -> SumsReport:
    """Evaluate every streaming sum at each checkpoint in one sieve pass.

    The route is the one switch.  The sieve route (the default) streams
    every prime up to the grid's last checkpoint, at most DEFAULT_MAX_BOUND,
    with the companions F1, F2, R, M and U.  With ``sublinear=True`` the pass
    stops at each checkpoint's split y and the rest comes from Legendre's
    formula and the floor-value tables (module docstring), so that the grid
    may reach SUBLINEAR_MAX_BOUND; the companion fields are None.  By
    default the blocks of a pass are shared by one process per CPU (see
    `accum.reduce_primes`); ``parallel=False`` walks them all in this one.
    The partials are merged in ascending segment order either way, so the
    result is bit-identical.
    """
    if not sublinear:
        check_sieve_route(grid)
    points = grid.points
    m = len(points)
    need_s3 = model.delta != math.inf
    if sublinear:
        from .constants import _c_q_root_bound

        root = _c_q_root_bound(model) if need_s3 else 0.0
        splits = [_split(n, root) for n in points]

    kah = reduce_primes(points, partial(_prime_terms, model, need_s3, grid.n_max,
                                        sublinear),
                        signed=("s3", "direct", "pp"), integers=("s1",),
                        limits=splits if sublinear else None, parallel=parallel)
    # a channel no segment yielded sums to zero: s3 when delta is infinite,
    # pp when f is strongly multiplicative, pp, f2 and lg when n_max < 4
    for name in ("s3", "pp", "lg" if sublinear else "f2"):
        kah.setdefault(name, [KahanSum() for _ in range(m)])
    s1 = kah.pop("s1")
    if not sublinear:   # F2 is F1 plus the prime-power fractions
        for f1, f2 in zip(kah["f1"], kah["f2"]):
            f2.add(f1.value, abs_x=f1.absmass, err_in=f1.error_bound())

    values = {name: tuple(acc.value for acc in kah[name]) if name in kah else None
              for name in FLOAT_FIELDS}
    s2, s3, pp = ([(acc.value, acc.error_bound()) for acc in kah[name]]
                  for name in ("s2", "s3", "pp"))
    la = math.log(model.alpha)
    head = [_assemble(la, model.d, *terms) for terms in zip(s1, s2, s3, pp)]

    # Internal cross-check: the decomposed assembly must agree with a direct
    # compensated sum of floor(n/p) log f(p) over the same primes within
    # both error budgets.  A non-finite sum fails it (a NaN compares False).
    for i, n in enumerate(points):
        direct = kah["direct"][i].value + pp[i][0]
        tol = (kah["direct"][i].error_bound() + pp[i][1]
               + head[i][1] + 16.0 * EPS * abs(head[i][0]))
        if not abs(direct - head[i][0]) <= tol:
            raise AccumulationError(
                f"identity cross-check failed at n={n} for model "
                f"{model.name!r}: assembled {head[i][0]!r} vs direct "
                f"{direct!r} (tolerance {tol:.3e})")

    total = head
    if sublinear:
        s1, s2, s3 = _beyond_split(model, points, splits, s1, s3, kah["lg"], root)
        total = [_assemble(la, model.d, *terms) for terms in zip(s1, s2, s3, pp)]
        values.update(s2=tuple(v for v, _ in s2), s3=tuple(v for v, _ in s3))

    return SumsReport(
        model_name=model.name,
        model_hash=_model_hash(model),
        points=points,
        s1=tuple(s1),
        n_log_g=tuple(v for v, _ in total),
        err_bound=tuple(b for _, b in total),
        sublinear=sublinear,
        **values,
    )


# --------------------------------------------------------------------------
# geometric-mean identities
# --------------------------------------------------------------------------


def log_geomean_identity(model: PrimeModel, n: int) -> float:
    """n * log G_f(n) via the prime-sum identity (exact floor sums).

    The accumulation error is certified to stay within
    1e-12 * |result| + 1e-12 * n.
    """
    if n < 1:
        raise GridError(f"log_geomean_identity needs n >= 1, got {n}")
    if n == 1:
        return 0.0
    report = sums_stream(model, CheckpointGrid((n,)), sublinear=True)
    result = report.n_log_g[0]
    if report.err_bound[0] > 1e-12 * abs(result) + 1e-12 * n:
        raise AccumulationError(
            f"accumulation bound {report.err_bound[0]:.3e} exceeds the "
            f"identity contract at n={n}")
    return result


def identity_prefix(model: PrimeModel, n_max: int) -> np.ndarray:
    """n * log G_f(n) for every n = 1..n_max (index n; entries 0, 1 are 0).

    Batch form of `log_geomean_identity` for dense sweeps: for each n the
    prime part sum floor(n/p) log f(p) is evaluated directly (one vector
    reduction over primes <= n), plus the a >= 2 correction.  Intended for
    moderate n_max (the work is O(n_max * pi(n_max))).
    """
    if n_max < 1:
        raise GridError(f"identity_prefix needs n_max >= 1, got {n_max}")
    out = np.zeros(n_max + 1)
    if n_max == 1:
        return out
    primes = primes_up_to(n_max)
    pf = primes.astype(np.float64)
    lp = np.log(pf)
    lf = model.log_at_prime_vec(pf, lp)

    pp_pa, pp_lr, _ = ((pf[:0], None, None) if model.strongly_multiplicative
                       else _prime_power_table(model, primes, n_max))

    cut = 0
    cut2 = 0
    for n in range(2, n_max + 1):
        while cut < primes.size and primes[cut] <= n:
            cut += 1
        q = n // primes[:cut]
        total = float(np.sum(q.astype(np.float64) * lf[:cut]))
        while cut2 < pp_pa.size and pp_pa[cut2] <= n:
            cut2 += 1
        if cut2:
            total += float(np.sum(np.floor(n / pp_pa[:cut2]) * pp_lr[:cut2]))
        out[n] = total
    return out


def log_geomean_bruteforce(model: PrimeModel, n: int, table: SpfTable) -> float:
    """n * log G_f(n) = sum_{k<=n} log f(k) by exact per-k factorization."""
    if n < 1:
        raise GridError(f"log_geomean_bruteforce needs n >= 1, got {n}")
    if n > table.limit:
        raise GridError(f"n={n} exceeds the factor table limit {table.limit}")
    return math.fsum(value_at(model, k, table).log_value for k in range(2, n + 1))


def bruteforce_prefix(model: PrimeModel, n_max: int, table: SpfTable) -> np.ndarray:
    """Prefix sums of log f(k): entry n is sum_{k<=n} log f(k) = n log G_f(n)."""
    if n_max < 1:
        raise GridError(f"bruteforce_prefix needs n_max >= 1, got {n_max}")
    if n_max > table.limit:
        raise GridError(f"n_max={n_max} exceeds the factor table limit {table.limit}")
    logs = np.zeros(n_max + 1)
    for k in range(2, n_max + 1):
        logs[k] = value_at(model, k, table).log_value
    return np.cumsum(logs)


# --------------------------------------------------------------------------
# scalar summatory operations
# --------------------------------------------------------------------------


def omega_summatory(n: int, table: SpfTable) -> int:
    """sum_{k<=n} omega(k), exact (omega = number of distinct prime factors)."""
    if n < 1:
        raise GridError(f"omega_summatory needs n >= 1, got {n}")
    if n > table.limit:
        raise GridError(f"n={n} exceeds the factor table limit {table.limit}")
    return sum(idx.size for idx, _ in
               distinct_prime_factors(np.arange(2, n + 1, dtype=np.int64), table))


def u_of_x(x: int, table: SpfTable) -> float:
    """U(x) = sum_{2<=k<=x} log kappa(k) / log k (k = 1 is excluded).

    kappa(k) is the product of the distinct primes dividing k; the summand
    is the reciprocal index of composition of k.
    """
    if x < 2:
        raise GridError(f"u_of_x needs x >= 2, got {x}")
    if x > table.limit:
        raise GridError(f"x={x} exceeds the factor table limit {table.limit}")
    k = np.arange(2, x + 1, dtype=np.int64)
    logkap = np.zeros(k.size)
    for idx, p in distinct_prime_factors(k, table):
        logkap[idx] += np.log(p.astype(np.float64))
    return float(np.sum(logkap / np.log(k.astype(np.float64))))


def _mertens_terms(pf: np.ndarray, lp: np.ndarray) -> np.ndarray:
    """Terms log p / p of M(x)."""
    return lp / pf


def rs_inequality_sweep(xs) -> list[bool]:
    """Check log x + E - 1/(2 log x) < M(x) < log x + E + 1/(2 log x) at each x.

    The right inequality is only asserted for x >= 319 (below that it is
    vacuously treated as satisfied, matching the two-sided validity range);
    the left is checked for every x >= 2.  The certified uncertainty of the
    E constant is folded into both margins, so a True verdict is conservative.

    All M(x) values come from one segmented pass with every x as a cut.
    """
    from .constants import mertens_e

    xs = [int(x) for x in xs]
    if any(x < 2 for x in xs):
        raise GridError("rs inequality checks need x >= 2")
    cuts = sorted(set(xs))
    m_at = {x: acc.value for x, acc in zip(cuts, prime_sums(cuts, _mertens_terms))}

    e = mertens_e()

    out = [False] * len(xs)
    for i, x in enumerate(xs):
        mx = m_at[x]
        lx = math.log(x)
        band = 1.0 / (2.0 * lx)
        unc = e.tail_bound + 1e-11 * max(1.0, mx)
        left_ok = mx - (lx + e.value - band) > unc
        right_ok = True
        if x >= 319:
            right_ok = (lx + e.value + band) - mx > unc
        out[i] = bool(left_ok and right_ok)
    return out


# --------------------------------------------------------------------------
# checkpoint cache
# --------------------------------------------------------------------------


def _model_hash(model: PrimeModel) -> int:
    """Fingerprint of the model facts a cached report depends on.

    Two models share it only if they agree on the name, the growth profile
    (d, alpha, delta, K), the strongly-multiplicative flag, and the exact
    values f(p) and f(p^a), a = 2..4, at the validation primes.
    """
    facts = [model.name, *map(repr, (model.d, model.alpha, model.delta,
                                     model.k_bound, model.strongly_multiplicative))]
    for p in _VALIDATION_PRIMES:
        facts.append(str(Fraction(model.value_at_prime(p))))
        facts += [str(Fraction(model.value_at_prime_power(p, a))) for a in (2, 3, 4)]
    digest = hashlib.blake2b("\n".join(facts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _record_layout(sublinear: bool) -> tuple[tuple[str, ...], struct.Struct]:
    """The float fields a record of the route stores, in order, and the
    record struct."""
    names = ("s2", "s3", "n_log_g", "err_bound")
    if not sublinear:
        names += COMPANION_FIELDS
    return names, struct.Struct(f"<QQ{len(names)}d")


def _digest(header: bytes, payload: bytes) -> bytes:
    h = hashlib.blake2b(header, digest_size=_DIGEST_SIZE)
    h.update(payload)
    return h.digest()


def _records(report: SumsReport) -> bytes:
    names, record = _record_layout(report.sublinear)
    columns = [getattr(report, name) for name in names]
    return b"".join(record.pack(n, report.s1[i], *(col[i] for col in columns))
                    for i, n in enumerate(report.points))


def save_report(path: str, report: SumsReport | tuple[SumsReport, SumsReport]) -> None:
    """Serialize a report, or a (sieve-route, sublinear-route) pair of
    reports on one grid (atomic replace; see module docstring for layout)."""
    reports = report if isinstance(report, tuple) else (report,)
    routes = tuple(rep.sublinear for rep in reports)
    if routes not in _LAYOUTS or any(rep.points != reports[0].points for rep in reports):
        raise ValueError("a pair is a sieve-route and a sublinear-route report of one grid")
    payload = b"".join(map(_records, reports))
    header = _HEADER.pack(CACHE_MAGIC, CACHE_VERSION, reports[0].model_hash,
                          len(reports[0]), _LAYOUTS.index(routes))
    data = header + _digest(header, payload) + payload

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".pmsm.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_report(path: str, model: PrimeModel, grid: CheckpointGrid | None = None,
                sublinear: bool | None = None) -> SumsReport:
    """Load a cached report for (model, grid), fields as stored: the file's
    first report, or with `sublinear` set the report of that route.

    Raises
    CacheFormatError on any mismatch: magic, version, unknown layout, invalid
    checkpoint count, payload size, digest, model-name hash, non-ascending
    checkpoints, (when `grid` is given) a different checkpoint set, or (when
    `sublinear` is given) no report of that route.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    start = _HEADER.size + _DIGEST_SIZE
    if len(data) < start:
        raise CacheFormatError(f"{path}: truncated header")
    magic, version, model_hash, count, layout = _HEADER.unpack_from(data)
    if magic != CACHE_MAGIC:
        raise CacheFormatError(f"{path}: bad magic {magic!r}")
    if version != CACHE_VERSION:
        raise CacheFormatError(
            f"{path}: cache version {version} != supported {CACHE_VERSION}")
    if layout >= len(_LAYOUTS):
        raise CacheFormatError(f"{path}: unknown layout {layout:#04x}")
    if not (1 <= count <= MAX_CHECKPOINTS):
        raise CacheFormatError(f"{path}: invalid checkpoint count {count}")
    blocks = [(*_record_layout(route), route) for route in _LAYOUTS[layout]]
    expected = start + count * sum(record.size for _, record, _ in blocks)
    if len(data) != expected:
        raise CacheFormatError(
            f"{path}: payload is {len(data)} bytes, expected {expected}")
    header, payload = data[:_HEADER.size], data[start:]
    if _digest(header, payload) != data[_HEADER.size:start]:
        raise CacheFormatError(f"{path}: digest mismatch (corrupt file)")
    if model_hash != _model_hash(model):
        raise CacheFormatError(
            f"{path}: cached model does not match {model.name!r}")

    offset = 0
    for names, record, route in blocks:
        if sublinear is None or route == sublinear:
            break
        offset += count * record.size
    else:
        raise CacheFormatError(
            f"{path}: holds no {'sublinear' if sublinear else 'sieve'}-route report")
    rows = list(record.iter_unpack(payload[offset:offset + count * record.size]))
    points = tuple(row[0] for row in rows)
    s1 = tuple(row[1] for row in rows)
    if any(b <= a for a, b in zip(points, points[1:])):
        raise CacheFormatError(f"{path}: checkpoints are not ascending")
    if grid is not None and grid.points != points:
        raise CacheFormatError(
            f"{path}: cached grid {points} does not match the requested grid")
    fields = dict.fromkeys(COMPANION_FIELDS)
    fields.update((name, tuple(row[2 + j] for row in rows))
                  for j, name in enumerate(names))
    return SumsReport(model_name=model.name, model_hash=model_hash,
                      points=points, s1=s1, sublinear=route, **fields)


def default_cache_path(root: str, model: PrimeModel, grid: CheckpointGrid) -> str:
    """Canonical cache file name for a (model, grid) pair under `root`."""
    h = hashlib.blake2b(_model_hash(model).to_bytes(8, "little"), digest_size=8)
    for n in grid.points:
        h.update(n.to_bytes(8, "little"))
    return os.path.join(root, f"{model.name}-{h.hexdigest()}.pmsm")
