"""Prime sums at the floor values of n (Lucy's method), and log n! (Stirling).

These are the kernels of the sublinear route of `primesums.sums_stream`
(see its module docstring); they need only the primes p <= sqrt(n).

Floor values.  Every floor(n/k) is one of v = floor(n/m), m = 1..r, or
v = 0..r, r = isqrt(n), and floor(floor(n/m)/p) = floor(n/(m p)) is one again.
Column m - 1 of a table holds a sum at floor(n/m), column r + v the sum at
v.  For a completely multiplicative g, S(v) = sum_{2<=k<=v} g(k) becomes
sum_{p<=v} g(p) after one update per prime p <= r (Lucy Hedgehog's
recursion, a simple relative of the Meissel-Lehmer and
Lagarias-Miller-Odlyzko prime counts):

    S(v) -= g(p) (S(floor(v/p)) - S(p - 1))     for every v >= p^2,

each reading the values before the update.  Row 0 is pi (g = 1, exact
integers in float64 while n < 2^53); row j = 1..J is g = k^-j.  A prime
p > n^(1/3) reads only values below n^(2/3) < q^2 for every such prime q, so
those primes, whose targets are the columns m <= n/p^2, are applied in one
batch.

Blocks.  An update by p <= n^(1/3) runs over its targets in blocks of at
most BLOCK columns, so that nothing is written before it is read: first
the large targets m <= min(r, n/p^2) in ascending order, each reading
column m p - 1 (a strided slice while m p <= r) or r + floor(n/(m p)) (one
`np.take`), both right of every column written so far; then the small
targets v in [p^2, r] in descending order, v = q p + s reading r + q, so a
run of q's is a contiguous slice repeated p-fold, left of every column
written so far.  Each target still becomes old - (src - base) g, the
arithmetic of one full-width gather, so the table is bit-identical to it
(checked against that gather in the tests).  The initial values are filled
block by block too, and the batch forms its terms one row at a time, so the
memory is the table, plus O(BLOCK) temporaries, plus the batch's, which
BATCH fixes (~2 MB per array).

Initial values: sum_{2<=k<=v} k^-j is summed in exact fractions and
rounded once for v < EM_FROM, and above by Euler-Maclaurin to the v^(-j-5)
term,

    sum_{k<=v} k^-j = C_j + v^(1-j)/(1-j) + v^-j/2 - j v^(-j-1)/12
                      + (j)_3 v^(-j-3)/720 - (j)_5 v^(-j-5)/30240 + R,

C_j = zeta(j) (gamma and log v at j = 1), (j)_m the rising factorial;
x^-j has derivatives of alternating sign, so |R| is below the first
omitted term (j)_7 v^(-j-7)/1209600.

Error bounds: row J + 1 carries a running bound on the error of every row
j >= 1 at once, since p^-j <= 1/p and the exact sums fall with j.  An
initial value charges its rounding ((2j + 16) ulps of the mass of its
terms), the constants' own bounds and R.  An update charges 1/p times the
bounds it reads, plus (J + 2) ulps of the subtracted term (p^-j is 1/p,
rounded, times itself: j ulps) and one of the result, both below the
largest S_1; the batch adds, per target, one more such ulp per summed term.
Bounds are sums of nonnegative floats, rounded to nearest; `BOUND_SLACK`
covers their own rounding.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .accum import EPS, pairwise_error_bound

EM_FROM = 64                 # sum_{k<=v} k^-j directly below, Euler-Maclaurin above
BOUND_SLACK = 1.0 + 1e-6     # the running bounds' own rounding (< 1e-9 relative)
BATCH = 1 << 18              # (p, m) pairs per batch update: a few MB per row
BLOCK = 1 << 14              # table columns per block of a per-prime update

# log(2 pi) / 2 to 50 digits (checked against mpmath in the tests)
_HALF_LOG_2PI = Decimal("0.91893853320467274178032973640561763986139747363778")
_DIGITS = 40
_EXACT_FACTORIAL = 1000      # log n! from n! itself up to here, Stirling above
_STIRLING_K = 6              # Bernoulli terms; the remainder is < 1e-41 above 1000


def log_factorial(n: int) -> tuple[float, float]:
    """log n! rounded to double, and a bound on its error.

    Up to 1000 from the exact n!, above from Stirling's series in decimal,

        (n + 1/2) log n - n + log(2 pi)/2 + sum_{k<=6} B_2k / (2k (2k-1) n^(2k-1)),

    whose remainder is below the first omitted term.  The bound adds that
    term, the decimal rounding (a unit of the 40th digit per operation on
    quantities below the mass of the terms) and half an ulp of the result.
    """
    from .constants import _bernoulli

    with localcontext(Context(prec=_DIGITS)):
        if n <= _EXACT_FACTORIAL:
            value, err = Decimal(math.factorial(n)).ln(), 0.0
        else:
            x = Decimal(n)
            terms = [(x + Decimal("0.5")) * x.ln(), -x, _HALF_LOG_2PI]
            for k in range(1, _STIRLING_K + 1):
                b = _bernoulli(2 * k)
                terms.append(Decimal(b.numerator) / (b.denominator * 2 * k * (2 * k - 1))
                             / x ** (2 * k - 1))
            value = sum(terms, Decimal(0))
            k = _STIRLING_K + 1
            err = float(abs(_bernoulli(2 * k)) / (2 * k * (2 * k - 1))) / float(n) ** (2 * k - 1)
            err += 10.0 ** (2 - _DIGITS) * math.fsum(abs(float(t)) for t in terms)
    out = float(value)
    return out, err + 10.0 ** (1 - _DIGITS) * abs(out) + math.ulp(out) / 2


@lru_cache(maxsize=None)
def _power_sums_below(j: int) -> np.ndarray:
    """sum_{2<=k<=v} k^-j for v = 0..EM_FROM-1, each correctly rounded."""
    sums = [Fraction(0), Fraction(0)]
    for k in range(2, EM_FROM):
        sums.append(sums[-1] + Fraction(1, k ** j))
    return np.array([float(s) for s in sums])


def _initial_row(j: int, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_{2<=k<=v} k^-j at each v (float64, exact integers), and bounds."""
    from .constants import _em_sum, euler_gamma

    small = v < EM_FROM
    value = np.empty_like(v)
    value[small] = _power_sums_below(j)[v[small].astype(np.int64)]
    bound = EPS / 2 * value
    w = v[~small]
    x = 1.0 / w
    xj = x ** j
    if j == 1:
        gamma = euler_gamma()
        head, head_err = gamma.value - 1.0, gamma.tail_bound + EPS
        main = np.log(w)
    else:
        zeta, zeta_err = _em_sum(j, 0, 32)
        with localcontext(Context(prec=60)):
            head = float(zeta - 1)
        head_err = zeta_err + EPS * head
        main = -w * xj / (j - 1)
    rising = [math.prod(range(j, j + m)) for m in range(8)]
    x2 = x * x
    xk = xj * x                         # v^(-j-1), then v^(-j-3), v^(-j-5), v^(-j-7)
    corr = [xj / 2, -rising[1] / 12 * xk]
    for k, c in ((3, 720), (5, -30240)):
        xk *= x2
        corr.append(rising[k] / c * xk)
    value[~small] = head + main + corr[0] + corr[1] + corr[2] + corr[3]
    mass = abs(head) + np.abs(main) + sum(np.abs(c) for c in corr)
    bound[~small] = head_err + (2 * j + 16) * EPS * mass + rising[7] / 1209600 * xk * x2
    return value, bound


def _weights(p, base: np.ndarray, rows: int, slop: float):
    """Each row's factor and offset for the update W -= factor (W[src] - offset)
    by the prime(s) p: p^-j and S_j(p - 1) for the value rows j = 0..rows
    (p^-j is 1/p rounded, then multiplied by itself, so within j ulps), and
    -1/p and -(E(p - 1) + p slop) for the bound row, which then gains
    (E(src) + E(p - 1)) / p + slop."""
    g = np.full((rows + 1 + (rows > 0), *np.shape(p)), 1.0 / np.asarray(p, dtype=np.float64))
    g[0] = 1.0
    np.cumprod(g, axis=0, out=g)
    base = base.copy()
    if rows:
        g[-1] = -g[1]
        base[-1] = -base[-1] - slop / g[1]
    return g, base


def _values(n: int, r: int, lo: int, hi: int) -> np.ndarray:
    """The floor values v of columns lo..hi-1 (module docstring), as float64."""
    large = n // np.arange(lo + 1, min(hi, r) + 1)
    return np.concatenate((large, np.arange(max(lo, r), hi) - r)).astype(np.float64)


def floor_table(n: int, primes: np.ndarray, rows: int) -> np.ndarray:
    """Sums over the primes p <= v of p^-j, j = 0..rows, at the floor values.

    Returns W of shape (rows + 2, 2r + 1), r = isqrt(n) (rows + 1 when rows
    is 0): W[0, c] = pi(v) and W[j, c] = sum_{p<=v} p^-j at the value v of
    column c (module docstring), and W[rows + 1, c] a bound on the error of
    every W[j, c], j >= 1.  `primes` must hold every prime <= r, ascending.
    """
    r = math.isqrt(n)
    nv = rows + 1                       # value rows; row nv is the bound
    w = np.zeros((nv + (rows > 0), 2 * r + 1))
    for lo in range(0, 2 * r + 1, BLOCK):
        hi = min(lo + BLOCK, 2 * r + 1)
        v = _values(n, r, lo, hi)
        w[0, lo:hi] = np.maximum(v - 1.0, 0.0)
        for j in range(1, nv):
            w[j, lo:hi], bound = _initial_row(j, v)
            np.maximum(w[nv, lo:hi], bound, out=w[nv, lo:hi])
    # each update's rounding: (rows + 2) ulps of |t_1| and one of the result,
    # both below S_1's largest value, which the updates only lower
    slop = (rows + 3) * EPS * float(w[1].max()) * BOUND_SLACK if rows else 0.0
    base_primes = primes[:np.searchsorted(primes, r, side="right")]
    split = int(np.count_nonzero(base_primes ** 3 <= n))     # p^3 <= 1e18 < 2^63

    for p in base_primes[:split].tolist():
        g, base = _weights(p, w[:, r + p - 1], rows, slop)
        g, base = g[:, None], base[:, None]
        # large targets, column m - 1 for m <= top, ascending: each reads a
        # column right of every column written so far
        top = min(r, n // (p * p))
        inner = min(top, r // p)
        for lo in range(0, inner, BLOCK):           # m p <= r: column m p - 1
            hi = min(lo + BLOCK, inner)
            t = w[:, (lo + 1) * p - 1:hi * p:p] - base
            t *= g
            w[:, lo:hi] -= t
        for lo in range(inner, top, BLOCK):         # m p > r: column r + n // (m p)
            hi = min(lo + BLOCK, top)
            t = np.take(w, r + n // (np.arange(lo + 1, hi + 1) * p), axis=1)
            t -= base
            t *= g
            w[:, lo:hi] -= t
        # small targets v = q p + s in [p^2, r], descending: each reads r + q,
        # left of every column written so far; the run of q = r // p ends at r
        step = max(1, BLOCK // p)                   # q's per block
        for hi in range(r // p + 1, p, -step):
            lo = max(p, hi - step)
            t = w[:, r + lo:r + hi] - base
            t *= g
            target = w[:, r + lo * p:r + hi * p]
            target -= np.repeat(t, p, axis=1)[:, :target.shape[1]]

    # every p > n^(1/3) reads only final values and writes columns m <= n/p^2:
    # these primes go in batches of about BATCH (p, m) pairs
    batch = base_primes[split:]
    reach = np.cumsum(n // (batch * batch))
    cuts = np.searchsorted(reach, np.arange(BATCH, reach[-1], BATCH)) if batch.size else []
    extra = EPS * float(w[1].max()) if rows else 0.0
    for part in np.split(batch, cuts):
        count = n // (part * part)
        p = np.repeat(part, count)
        m = np.arange(p.size) - np.repeat(np.cumsum(count) - count, count)
        mp = (m + 1) * p
        src = np.where(mp <= r, mp - 1, r + n // mp)
        g, base = _weights(part, w[:, r + part - 1], rows, slop)
        top = int(count[0]) if count.size else 0
        for j in range(len(w)):         # a row at a time: temporaries of one row
            t = w[j, src] - np.repeat(base[j], count)
            t *= np.repeat(g[j], count)
            w[j, :top] -= np.bincount(m, weights=t, minlength=top)
        if rows:    # and the sum of a target's k terms: k ulps of S_1
            w[nv, :top] += np.bincount(m, minlength=top) * extra
    if rows:
        w[nv] *= BOUND_SLACK
    return w


def prime_tails(n: int, y: int, primes: np.ndarray, rows: int
                ) -> tuple[int, list[tuple[float, float]]]:
    """sum_{y<p<=n} floor(n/p), exact, and sum_{y<p<=n} floor(n/p) p^-j for
    j = 1..rows as (value, error bound).

    isqrt(n) <= y < n, and `primes` holds every prime <= max(isqrt(n), y).
    By the hyperbola method each sum is sum_{m<=M} (S(floor(n/m)) - S(y)),
    M = floor(n/(y+1)), with S the table's prime sums: floor(n/m) > y
    exactly when m <= M.  S(y) is the table's when y <= isqrt(n), and
    otherwise summed from the primes <= y, each row correctly rounded.
    """
    r = math.isqrt(n)
    w = floor_table(n, primes, rows)
    top = n // (y + 1)
    if y <= r:
        at_y = w[:, r + y]
    else:
        ps = primes[:np.searchsorted(primes, y, side="right")].tolist()
        at_y = [len(ps)] + [float(sum(Fraction(1, p ** j) for p in ps))
                            for j in range(1, rows + 1)]
        at_y += [EPS / 2 * at_y[1]] if rows else []
    s1 = int(w[0, :top].astype(np.int64).sum()) - top * int(at_y[0])
    if rows:
        err_in = float(w[rows + 1, :top].sum()) + top * float(at_y[rows + 1])
    out = []
    for j in range(1, rows + 1):
        diff = w[j, :top] - at_y[j]
        mass = float(np.abs(diff).sum())
        err = err_in + EPS * mass + pairwise_error_bound(mass, top)
        out.append((float(diff.sum()), err * BOUND_SLACK))
    return s1, out
