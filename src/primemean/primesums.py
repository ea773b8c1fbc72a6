"""Streaming, checkpointed evaluation of the prime sums behind log-geometric means.

The central identity: for a positive multiplicative f,

    n * log G_f(n) = sum_{k<=n} log f(k)
                   = sum_{p<=n} floor(n/p) * log f(p)
                     + sum_{p^a<=n, a>=2} floor(n/p^a) * log(f(p^a)/f(p^(a-1)))

(the second sum vanishes identically for strongly multiplicative f).  With
Q(p) = f(p) written against its growth profile alpha * p^d, the prime part
splits into three streaming accumulators

    sum floor(n/p) log f(p) = (log alpha) * S1(n) + d * S2(n) + S3(n),

    S1(n) = sum floor(n/p),          S2(n) = sum floor(n/p) log p,
    S3(n) = sum floor(n/p) log(Q(p) / (alpha p^d)),

alongside the companion sums F1 (fractional parts), F2 (fractional parts over
all prime powers), R(n) = sum {n/p} log p, M(x) = sum log p / p, and
U(x) = sum_{2<=k<=x} log kappa(k) / log k.  `sums_stream` evaluates all of
them at up to 64 checkpoints in one segmented pass; each prime updates every
checkpoint >= p, so the pass is O(#primes * #checkpoints-above).  U is a
prime sum too, U(x) = sum_p log p * sum_{m<=x/p} 1/log(m p): the inner sum
is added term by term for m < U_M0 and by Euler-Maclaurin above, with the
truncation bounded by `u_truncation_bound` (below 1.1e-16 * x).

n log G_f(n) reads none of the companions.  Only `sums`, `fit --target
u-residual` and the S2 = n M - R check read them; every other command and
check streams with ``companions=False`` and skips their terms.

floor(n/p) is formed as floor(n / p) in float64, and the remainder as
n - floor(n/p) p.  Both are exact because every checkpoint is at most the
sieve bound 1e9 < 2^52: n / p is then within half an ulp < 1/p of the true
quotient, so its floor is floor(n/p), and every product and difference is an
integer below 2^53.

Determinism contract: every prime sum here goes through
`accum.reduce_primes`, which forms per-segment partials by numpy's pairwise
reduction and merges them into Kahan accumulators in ascending segment
order.  Every command streams on one thread; only the `determinism` check
and the benchmark's per-layer probe ask `sums_stream(parallel=True)` for the
thread pool, whose runs are bit-identical to sequential ones.

`err_bound` certifies `n_log_g` from the reducer's own bounds: each Kahan
total carries its pairwise, formation and merge rounding, and the assembly
adds the rounding of log alpha and its own.  No declared profile constant
(K) enters it.

Cache format v6 (binary, little-endian): header {magic b"PMSM", version u16,
model hash u64, checkpoint count u16, flags u8 (bit 0: the file holds the
companions)}, then a 16-byte blake2b digest of the header and the records,
then one record per checkpoint {n u64, s1 u64, one f64 each for s2, s3,
n_log_g and err_bound, and, when the file holds the companions, one f64 each
for f1, f2, r_sum, m_of_x and u_of_x} (48 or 88 bytes).  A file without the
companions is a miss for a caller that reads them.  A report is stored as
streamed and loaded as stored: a load runs no prime pass.  A file whose
digest does not match is rejected.
The model hash fingerprints the model itself (see `_model_hash`), not only
its name, so two models that share a name never share a cache file.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterator

import numpy as np

from .accum import (EPS, FORM_ULPS, KahanSum, SegmentTerms, prime_sums,
                    reduce_primes)
from .errors import AccumulationError, CacheFormatError, GridError
from .multfunc import (_VALIDATION_PRIMES, PrimeModel, log_ratio_prime_power,
                       value_at)
from .sieve import (
    DEFAULT_MAX_BOUND,
    DEFAULT_SEGMENT_SIZE,
    SpfTable,
    distinct_prime_factors,
    primes_up_to,
)

MAX_CHECKPOINTS = 64

# Ordering of the float-valued accumulators, as `sums` prints them.
COMPANION_FIELDS = ("f1", "f2", "r_sum", "m_of_x", "u_of_x")
FLOAT_FIELDS = ("s2", "s3") + COMPANION_FIELDS

CACHE_MAGIC = b"PMSM"
CACHE_VERSION = 6
_HEADER = struct.Struct("<4sHQHB")   # magic, version, model hash, count, flags
_HAS_COMPANIONS = 0x01               # flags bit: the records hold the companions
_DIGEST_SIZE = 16                    # blake2b of header + payload, after the header


# --------------------------------------------------------------------------
# checkpoint grid
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckpointGrid:
    """Ascending evaluation points 2 <= n_1 < ... < n_m, m <= 64."""

    points: tuple[int, ...]

    def __post_init__(self):
        pts = self.points
        if not pts:
            raise GridError("checkpoint grid is empty")
        if len(pts) > MAX_CHECKPOINTS:
            raise GridError(
                f"{len(pts)} checkpoints exceed the cap of {MAX_CHECKPOINTS}")
        for n in pts:
            if not isinstance(n, int) or isinstance(n, bool):
                raise GridError(f"checkpoint {n!r} is not an integer")
        if pts[0] < 2:
            raise GridError(f"first checkpoint must be >= 2, got {pts[0]}")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise GridError("checkpoints must be strictly ascending")
        if pts[-1] > DEFAULT_MAX_BOUND:
            raise GridError(
                f"checkpoint {pts[-1]} exceeds the sieve bound {DEFAULT_MAX_BOUND}")

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
    `s1` entries are exact integers.  The companion fields f1, f2, r_sum,
    m_of_x and u_of_x are all None when the report was streamed without
    them (`sums_stream(..., companions=False)`); every other field is the
    same, bit for bit, either way.
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
    f1: tuple[float, ...]
    f2: tuple[float, ...]
    r_sum: tuple[float, ...]
    m_of_x: tuple[float, ...]
    u_of_x: tuple[float, ...] | None
    n_log_g: tuple[float, ...]
    err_bound: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.points)

    @property
    def has_companions(self) -> bool:
        return self.f1 is not None


# --------------------------------------------------------------------------
# prime-power corrections (a >= 2)
# --------------------------------------------------------------------------


def _prime_powers(n_max: int) -> Iterator[tuple[int, int, int]]:
    """(p^a, p, a) for every prime power p^a <= n_max with a >= 2, in
    ascending p, then ascending a: a fixed order, hence deterministic."""
    for p in primes_up_to(math.isqrt(n_max)):
        p = int(p)
        pa, a = p * p, 2
        while pa <= n_max:
            yield pa, p, a
            pa *= p
            a += 1


def _prime_power_identity(model: PrimeModel, points: tuple[int, ...]) -> list[KahanSum]:
    """Per-checkpoint Kahan sums of floor(n/p^a) log(f(p^a)/f(p^(a-1))),
    a >= 2: the identity's prime-power term, exactly zero (and not summed)
    for strongly multiplicative models."""
    m = len(points)
    pp2 = [KahanSum() for _ in range(m)]
    if model.strongly_multiplicative:
        return pp2
    for pa, p, a in _prime_powers(points[-1]):
        lr = log_ratio_prime_power(model, p, a)
        if lr != 0.0:
            for i in range(bisect_left(points, pa), m):
                t = points[i] // pa * lr
                pp2[i].add(t, err_in=FORM_ULPS * EPS * abs(t))
    return pp2


def _prime_power_fractions(points: tuple[int, ...]) -> list[KahanSum]:
    """Per-checkpoint Kahan sums of {n/p^a}, a >= 2: F2's part on top of F1
    (model independent)."""
    m = len(points)
    frac = [KahanSum() for _ in range(m)]
    for pa, _, _ in _prime_powers(points[-1]):
        for i in range(bisect_left(points, pa), m):
            fr = points[i] % pa / pa
            frac[i].add(fr, err_in=EPS * fr)
    return frac


# --------------------------------------------------------------------------
# segment workers
# --------------------------------------------------------------------------


def _prime_terms(model: PrimeModel, need_s3: bool, u_max: int | None,
                 seg: np.ndarray) -> SegmentTerms:
    """One prime segment's terms of every prime sum, for `reduce_primes`.

    `direct` is the straight sum floor(n/p) log f(p) used for the internal
    cross-check; `s1` is an integer channel, summed exactly.  With `u_max`
    set (the largest cut) the segment also yields the companions' terms.
    floor(n/p) and the remainder n - floor(n/p) p are formed in float64,
    exactly because n < 2^52 (see the module docstring).
    """
    pf = seg.astype(np.float64)
    lp = np.log(pf)
    lf = model.log_at_prime_vec(pf, lp)
    qr = model.log_q_ratio_vec(pf, lp) if need_s3 else None
    u_lo = None if u_max is None else _u_lower_end(seg, lp, u_max)

    def at_cut(count: int, n: int) -> Iterator[tuple[str, np.ndarray]]:
        pc = pf[:count]
        q = np.floor(n / pc)
        yield "s1", q
        yield "s2", q * lp[:count]
        if need_s3:
            yield "s3", q * qr[:count]
        yield "direct", q * lf[:count]
        if u_lo is not None:
            fr = (n - q * pc) / pc
            yield "f1", fr
            yield "r_sum", fr * lp[:count]
            yield "u_of_x", _u_cut_terms(seg, pf, lp, u_lo, q, n)

    return ({} if u_lo is None else {"m_of_x": _mertens_terms(pf, lp)}), at_cut


# --------------------------------------------------------------------------
# U(x) from the prime pass
# --------------------------------------------------------------------------
#
# log kappa(k) = sum_{p | k} log p, so
#
#     U(x) = sum_{p<=x} log p * T_p(x // p),   T_p(q) = sum_{m=1}^{q} f_p(m),
#
# with f_p(t) = 1/log(t p).  The terms m < U_M0 are added one by one; the
# rest, for the primes with q >= U_M0, by Euler-Maclaurin:
#
#     sum_{m=M0}^{q} f_p(m) = (li(q p) - li(M0 p)) / p + (f_p(M0) + f_p(q)) / 2
#         + sum_{k=1}^{J} B_2k / (2k)! (f_p^(2k-1)(q) - f_p^(2k-1)(M0)) + R,
#
# li(t) = Ei(log t).  With u = log(t p), f_p^(k)(t) = t^-k h_k(1/u), where
# h_0(v) = v, h_{k+1} = -v^2 h_k'(v) - k h_k: a polynomial in v whose
# coefficients all have the sign (-1)^k.  So f_p^(2J) > 0, f_p^(2J-1) rises
# to 0, and |R| <= |B_2J| / (2J)! |f_p^(2J-1)(M0)| (the periodic Bernoulli
# bound 2 zeta(2J) / (2 pi)^(2J) is exactly |B_2J| / (2J)!).
# `u_truncation_bound` sums these remainders and the Ei series truncation.

U_M0 = 32           # m < U_M0 summed term by term
U_EM_TERMS = 4      # J, the Bernoulli corrections


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


# (B_2k / (2k)!, h_{2k-1}) for k = 1..J
_EM_CORRECTIONS = tuple(
    (float(b / math.factorial(2 * k)), _h_poly(2 * k - 1))
    for k, b in enumerate((Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
                           Fraction(-1, 30))[:U_EM_TERMS], start=1))

#: Terms of the series Ei(x) = gamma + log x + sum_{k>=1} x^k / (k k!); the
#: truncation is bounded in `_ei_tail` for every x up to log of the sieve bound.
_EI_TERMS = 96
_EI_COEFFS = tuple(1.0 / (k * math.factorial(k)) for k in range(1, _EI_TERMS + 1))


def _ei_series(x: np.ndarray) -> np.ndarray:
    """sum_{k=1}^{_EI_TERMS} x^k / (k k!) by Horner (all terms positive)."""
    s = np.full_like(x, _EI_COEFFS[-1])
    for c in _EI_COEFFS[-2::-1]:
        s *= x
        s += c
    s *= x
    return s


def _ei_tail(x: float) -> float:
    """Bound on the series terms past _EI_TERMS at 0 < x < _EI_TERMS + 2."""
    k = _EI_TERMS + 1       # the first term left out; each next is < x/(k+1) of the last
    first = math.exp(k * math.log(x) - math.lgamma(k + 1)) / k
    return first * (k + 1) / (k + 1 - x)


def _em_corrections(t, v: np.ndarray) -> np.ndarray:
    """sum_k B_2k / (2k)! f_p^(2k-1)(t), with v = 1/log(t p)."""
    out = np.zeros_like(v)
    for b, h in _EM_CORRECTIONS:
        out += (b * np.polynomial.polynomial.polyval(v, h)) / t ** (len(h) - 2)
    return out


def _u_lower_end(seg: np.ndarray, lp: np.ndarray, u_max: int):
    """The cut-independent lower-end terms at m = U_M0, for the segment's
    primes p <= u_max / U_M0: (log(M0 p), Ei series at it, the rest)."""
    c = int(np.searchsorted(seg, u_max // U_M0, side="right"))
    if c == 0:      # no cut reaches the Euler-Maclaurin part in this segment
        return lp[:0], lp[:0], lp[:0]
    ua = math.log(U_M0) + lp[:c]
    va = 1.0 / ua
    return ua, _ei_series(ua), 0.5 * va - _em_corrections(float(U_M0), va)


def _u_cut_terms(seg, pf, lp, u_lo, q, n: int) -> np.ndarray:
    """log p * T_p(n // p) for the first q.size primes of the segment;
    q holds n // p as floats."""
    count = q.size
    t = 1.0 / lp[:count]                                 # m = 1
    buf = np.empty(count)
    for m in range(2, U_M0):
        c = int(np.searchsorted(seg[:count], n // m, side="right"))   # q >= m
        if c == 0:
            break
        tm = np.add(lp[:c], math.log(m), out=buf[:c])
        t[:c] += np.reciprocal(tm, out=tm)
    ua, sa, lo = u_lo
    c = int(np.searchsorted(seg[:count], n // U_M0, side="right"))
    if c:
        qc = q[:c]
        ub = np.log(qc * pf[:c])
        vb = 1.0 / ub
        t[:c] += ((_ei_series(ub) - sa[:c] + np.log(ub / ua[:c])) / pf[:c]
                  + 0.5 * vb + _em_corrections(qc, vb) + lo[:c])
    t *= lp[:count]
    return t


def u_truncation_bound(n: int) -> float:
    """Bound on the truncation error of the streamed U(n), rounding aside.

    It sums, over the primes p <= n / U_M0, log p times the Euler-Maclaurin
    remainder |B_2J| / (2J)! M0^(1-2J) |h_{2J-1}(1/log(M0 p))| and the Ei
    series truncation at both ends, divided by p.  |h_{2J-1}(v)| grows with
    v, so v = 1/log(2 M0) majorizes it; theta(y) = sum_{p<=y} log p
    < 1.01624 y (Rosser and Schoenfeld 1962, Thm 9) and log p / p < 1/2.
    """
    y = n // U_M0
    if y < 2:
        return 0.0
    b, h = _EM_CORRECTIONS[-1]
    h_max = abs(float(np.polynomial.polynomial.polyval(1.0 / math.log(2 * U_M0), h)))
    em = 1.01624 * y * abs(b) * h_max / float(U_M0) ** (2 * U_EM_TERMS - 1)
    return em + 2.0 * _ei_tail(math.log(n)) * y / 2.0


# --------------------------------------------------------------------------
# the streaming engine
# --------------------------------------------------------------------------


def sums_stream(
    model: PrimeModel,
    grid: CheckpointGrid,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    parallel: bool = False,
    companions: bool = True,
) -> SumsReport:
    """Evaluate every streaming sum at each checkpoint in one sieve pass.

    With ``companions=False`` the terms of F1, F2, R, M and U are skipped and
    those fields of the report are None; s1, s2, s3, `n_log_g` and
    `err_bound` are bit-identical to the ``companions=True`` report.  Only
    `sums`, `fit --target u-residual` and the S2 = n M - R check read the
    companions.  With ``parallel=True`` the prime segments are processed by
    a thread pool (see the module docstring for who asks for it); partials
    are merged in ascending segment order either way, so the result is
    bit-identical to the sequential run.
    """
    points = grid.points
    m = len(points)
    need_s3 = model.delta != math.inf

    kah = reduce_primes(points, partial(_prime_terms, model, need_s3,
                                        grid.n_max if companions else None),
                        signed=("s3", "direct"), integers=("s1",),
                        segment_size=segment_size, parallel=parallel)
    if not need_s3:
        kah["s3"] = [KahanSum() for _ in range(m)]
    s1 = kah.pop("s1")

    # prime-power corrections: the a >= 2 identity term, and F2 on top of F1
    pp2 = _prime_power_identity(model, points)
    if companions:
        frac, f2 = _prime_power_fractions(points), []
        for i in range(m):
            acc = kah["f1"][i]
            tot = KahanSum(acc.value, acc.comp, acc.absmass, acc.inherited)
            src = frac[i]
            tot.add(src.value, abs_x=src.absmass, err_in=src.error_bound())
            f2.append(tot)
        kah["f2"] = f2

    values = {name: tuple(acc.value for acc in kah[name]) if name in kah else None
              for name in FLOAT_FIELDS}

    # n log G = (log alpha) S1 + d S2 + S3 + [prime powers]; its bound sums
    # the reducer's certified bounds of S2 (times |d|), S3 and the prime
    # powers, log alpha's ulp on S1, and the assembly's own rounding.
    la = math.log(model.alpha)
    n_log_g, err_bound = [], []
    for i in range(m):
        s1f, s2, s3, pp = float(s1[i]), kah["s2"][i], kah["s3"][i], pp2[i]
        n_log_g.append(la * s1f + model.d * s2.value + s3.value + pp.value)
        err_bound.append(
            abs(model.d) * s2.error_bound() + s3.error_bound() + pp.error_bound()
            + abs(la) * EPS * s1f
            + 8.0 * EPS * (abs(la) * s1f + abs(model.d * s2.value)
                           + abs(s3.value) + abs(pp.value)))

    # Internal cross-check: the decomposed assembly must agree with a direct
    # compensated sum of floor(n/p) log f(p) within both error budgets.  A
    # non-finite sum fails it (a NaN compares False).
    for i, n in enumerate(points):
        direct = kah["direct"][i].value + pp2[i].value
        tol = (kah["direct"][i].error_bound() + pp2[i].error_bound()
               + err_bound[i] + 16.0 * EPS * abs(n_log_g[i]))
        if not abs(direct - n_log_g[i]) <= tol:
            raise AccumulationError(
                f"identity cross-check failed at n={n} for model "
                f"{model.name!r}: assembled {n_log_g[i]!r} vs direct "
                f"{direct!r} (tolerance {tol:.3e})")

    return SumsReport(
        model_name=model.name,
        model_hash=_model_hash(model),
        points=points,
        s1=tuple(s1),
        n_log_g=tuple(n_log_g),
        err_bound=tuple(err_bound),
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
    report = sums_stream(model, CheckpointGrid((n,)), companions=False)
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

    pps = [] if model.strongly_multiplicative else sorted(
        (pa, log_ratio_prime_power(model, p, a)) for pa, p, a in _prime_powers(n_max))
    pp_pa = np.array([pa for pa, _ in pps], dtype=np.int64)
    pp_lr = np.array([lr for _, lr in pps])

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
            total += float(np.sum((n // pp_pa[:cut2]).astype(np.float64) * pp_lr[:cut2]))
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


def _record_layout(companions: bool) -> tuple[tuple[str, ...], struct.Struct]:
    """The float fields a record stores, in order, and the record struct."""
    names = ("s2", "s3", "n_log_g", "err_bound")
    if companions:
        names += COMPANION_FIELDS
    return names, struct.Struct(f"<QQ{len(names)}d")


def _digest(header: bytes, payload: bytes) -> bytes:
    h = hashlib.blake2b(header, digest_size=_DIGEST_SIZE)
    h.update(payload)
    return h.digest()


def save_report(path: str, report: SumsReport) -> None:
    """Serialize a report (atomic replace; see module docstring for layout)."""
    names, record = _record_layout(report.has_companions)
    columns = [getattr(report, name) for name in names]
    payload = b"".join(
        record.pack(n, report.s1[i], *(col[i] for col in columns))
        for i, n in enumerate(report.points))
    header = _HEADER.pack(CACHE_MAGIC, CACHE_VERSION,
                          report.model_hash, len(report),
                          _HAS_COMPANIONS if report.has_companions else 0)
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


def load_report(path: str, model: PrimeModel,
                grid: CheckpointGrid | None = None) -> SumsReport:
    """Load a cached report for (model, grid), fields as stored.

    The report's companion fields are None when the file does not hold
    them.  Raises
    CacheFormatError on any mismatch: magic, version, unknown flags, invalid
    checkpoint count, payload size, digest, model-name hash, non-ascending
    checkpoints, or (when `grid` is given) a different checkpoint set.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    start = _HEADER.size + _DIGEST_SIZE
    if len(data) < start:
        raise CacheFormatError(f"{path}: truncated header")
    magic, version, model_hash, count, flags = _HEADER.unpack_from(data)
    if magic != CACHE_MAGIC:
        raise CacheFormatError(f"{path}: bad magic {magic!r}")
    if version != CACHE_VERSION:
        raise CacheFormatError(
            f"{path}: cache version {version} != supported {CACHE_VERSION}")
    if flags & ~_HAS_COMPANIONS:
        raise CacheFormatError(f"{path}: unknown flags {flags:#04x}")
    if not (1 <= count <= MAX_CHECKPOINTS):
        raise CacheFormatError(f"{path}: invalid checkpoint count {count}")
    names, record = _record_layout(bool(flags & _HAS_COMPANIONS))
    expected = start + count * record.size
    if len(data) != expected:
        raise CacheFormatError(
            f"{path}: payload is {len(data)} bytes, expected {expected}")
    header, payload = data[:_HEADER.size], data[start:]
    if _digest(header, payload) != data[_HEADER.size:start]:
        raise CacheFormatError(f"{path}: digest mismatch (corrupt file)")
    if model_hash != _model_hash(model):
        raise CacheFormatError(
            f"{path}: cached model does not match {model.name!r}")

    rows = list(record.iter_unpack(payload))
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
                      points=points, s1=s1, **fields)


def default_cache_path(root: str, model: PrimeModel, grid: CheckpointGrid) -> str:
    """Canonical cache file name for a (model, grid) pair under `root`."""
    h = hashlib.blake2b(_model_hash(model).to_bytes(8, "little"), digest_size=8)
    for n in grid.points:
        h.update(n.to_bytes(8, "little"))
    return os.path.join(root, f"{model.name}-{h.hexdigest()}.pmsm")
