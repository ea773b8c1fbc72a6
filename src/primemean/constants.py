"""High-precision, tail-bounded constants for the geometric-mean expansions.

Every value ships as a ConstantValue carrying a certified truncation bound
derived from a stated inequality — never an eyeballed guess.  gamma, M, E
and the a_j take no target: each is certified to ~1e-16 (relative, for
the a_j).  A target sizes work only where there is work to size, the
prime-sum fallback of C_Q; the CLI checks every printed bound against
`--precision` in one place.  Everything but C_Q's prime-sum fallback and
the limit oracles runs in stdlib decimal and fractions, so `constants` never
imports numpy; those two import it (and the prime stream) when they run.

- gamma_k, the Stieltjes constants: sum_{n<N} (log n)^k / n
  - (log N)^(k+1)/(k+1) plus the Euler-Maclaurin corrections of
  f = (log x)^k / x at N = 32, in decimal (`_em_sum` at s = 1); the
  remainder is bounded by a closed-form majorant of Int_N^oo |f^(2J+2)|
  that needs no sign.  gamma (`euler_gamma`) is gamma_0.
- a_j = -Int_1^oo {t} (log t)^(j-1) t^-2 dt = (j-1)! (sum_{i<j} gamma_i / i!
  - 1) (`saffari_a`), from zeta(s) = s/(s-1) - s Int_1^oo {t} t^(-s-1) dt.

M, E and C_Q come from the prime zeta function (Flajolet and
Vardi, "Zeta function expansions of classical constants", 1996; H. Cohen,
"High precision computation of Hardy-Littlewood constants", 1998).  The
primes p <= P (P = ZETA_P = 100, more for C_Q models with large roots) are
summed directly; the tail over p > P comes from, at integers t >= 2,

    H(t) = log zeta_{>P}(t) = log(zeta(t) prod_{p<=P} (1 - p^-t)),
    G(t) = (-zeta'/zeta)_{>P}(t) = -zeta'(t)/zeta(t) - sum_{p<=P} log p p^-t / (1 - p^-t),

with zeta(t) and -zeta'(t) from the same Euler-Maclaurin sum as gamma_k
(`_em_sum` at s = t, k = 0 and 1): the terms n < N summed directly,
N = max(32, P/4).  Each constant's term at a prime p > P expands
as sum_{s>=2} b_s p^-s (times log p for G), and Moebius inversion gives
sum_{p>P} p^-s = sum_n mu(n)/n H(ns) and sum_{p>P} log p p^-s =
sum_n mu(n) G(ns), so the tail is sum_{t>=2} w_t X(t) with

    w_t = sum_{s|t, s>=2} b_s mu(t/s) s/t  (X = H),  or without s/t  (X = G):

- M = gamma + sum_{p<=P} [log(1 - 1/p) + 1/p] + tail, b_s = -1/s, X = H;
- E = -gamma - sum_{p<=P} log p / (p (p-1)) + tail, b_s = -1, X = G;
- C_Q = sum_{p<=P} (1/p) log(f(p) / (alpha p^d)) + tail, b_s = c_{s-1},
  X = H, for f(p) = N(p)/D(p) with leading coefficient exactly alpha:
  above every root, log(f(p) / (alpha p^d)) = sum_k c_k p^-k with c_k =
  (S_k(D) - S_k(N))/k, S_k the power sums of the roots (Newton's
  identities on the integer coefficients, exact).

This runs in stdlib decimal at 40 digits (more when the weights are
large), and each tail_bound adds five parts:

1. the bounds `_em_sum` certifies for zeta(t) and -zeta'(t): the
   remainder by the one sign-free majorant, for f = x^-t and x^-t log x
   alike, plus their decimal rounding, bounded from the summands' mass;
   each remainder is ~N^-t, so with N >= 2R it falls faster than the C_Q
   weights grow (like R^t);
2. the truncation of the t-sum after T: |b_s| <= B R^(s-1) (M: B = 1/2,
   E: B = 1, both with R = 1; C_Q: B = deg N + deg D and R >= 1 a Fujiwara
   root bound with P >= 8R), so |w_t| <= tau(t) B R^(t-1) <= 2(t-1) B
   R^(t-1); with |H(t)| <= 1.01 P^(1-t)/(t-1) and |G(t)| <= 1.01 P^(1-t)
   (log P + 1)/(t-1) the terms past T add up to at most
   2.02 B c (R/P)^T / (1 - R/P), c = log P + 1 for G and 1 for H;
3. the rest of the decimal rounding: every decimal operation lands within
   one unit in its last digit.  H(t) is one log of the product
   zeta(t) prod_{p<=P} (1 - p^-t), whose partials lie in [1, 2), and G(t)
   takes the terms of the primes p <= P off -zeta'(t)/zeta(t) one at a
   time; `_value_ulps` bounds what either gathers;
4. gamma's bound from the same sum (`_em_sum` at s = 1);
5. the final rounding to double, half an ulp.

When the series does not apply to C_Q (a root bound above
`_MAX_ROOT_BOUND`, or a leading coefficient that is not exactly alpha), its
prime-sum fallback sums every prime to a cut P through `accum.prime_sums`
(pairwise per-segment partials merged in ascending order by Kahan
summation, so the value is deterministic, and the tail bound includes the
reducer's certified accumulation error).  With |f(p) - alpha p^d| <=
K p^(d-delta) and (K/alpha) P^-delta <= 1/2, |log(1+u)| <= 2|u| bounds the
tail over p > P by 2(K/alpha) P^-delta/delta.

The limit definitions of M and E converge like 1/log x — useless directly —
but they make honest *validation oracles* once the known secondary structure
of the prime counts is subtracted.  `meissel_mertens_limit` and
`mertens_e_limit` average the limit expression continuously against a Hann
window in u = log x (every prime enters through the closed-form Hann mass
above log p, so there is no sampling grid and nothing to alias) and subtract
the window average of an explicit correction: Moebius-weighted power terms
x^((1-k)/k) (transfer of the smooth x^(1/k) components of the prime counts)
plus the contribution of the first ten nontrivial zeta-zero ordinates.  The
zeros appear only here, in the oracle; measured accuracy of the oracles is
a few parts in 1e9 (M) and 1e8..1e9 (E) on decade windows ending at 1e7-1e9,
orders of magnitude below the 1e-6 agreement they are used to certify.  The
windows are decades (ratio 10), and both oracles read one memoised prime
walk per anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from .errors import GridError, ModelSpecError, PrecisionError
from .multfunc import PrimeModel, small_primes

if TYPE_CHECKING:
    import numpy as np

    from .accum import SegmentTerms

#: Default truncation-error target: the prime-sum fallback of C_Q sizes its
#: cut to it.
DEFAULT_CQ_PRECISION = 1e-8

#: The largest j that `saffari_a` certifies.
SAFFARI_MAX_J = 8

#: Primes up to ZETA_P are summed directly on the prime-zeta route.
ZETA_P = 100
_EM_N = 32              # Euler-Maclaurin: n < N term by term, corrections at N (see _em_n)
_EM_J = 12              # Bernoulli corrections B_2 .. B_2J
_SERIES_EPS = 1e-30     # each t-sum stops once its tail bound is below this
_DIGITS = 40            # decimal working precision (more for large weights)
_MAX_ROOT_BOUND = 128   # above it C_Q takes the prime-sum route (P = 8R would be > 1024)


@dataclass(frozen=True)
class ConstantValue:
    """A numeric constant with a certified truncation bound.

    ``tail_bound`` bounds |value - exact| from the inequality stated in
    the producing routine's docstring (plus an explicit floating-point
    accumulation allowance where prime sums are involved).  ``params``
    records the truncation points actually used.
    """

    value: float
    tail_bound: float
    method: str
    params: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not (self.tail_bound >= 0 and math.isfinite(self.tail_bound)):
            raise PrecisionError(
                f"tail bound must be finite and nonnegative, got {self.tail_bound}")

    def param(self, key: str) -> float:
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)


# --------------------------------------------------------------------------
# Euler's constant
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def euler_gamma() -> ConstantValue:
    """Euler's constant gamma_0, in decimal (`_em_sum` at s = 1), certified to ~6e-17."""
    gamma, err = _em_sum(1, 0, _EM_N)
    return _to_double(gamma, [err], "euler-maclaurin-decimal", (("n", float(_EM_N)),))


# --------------------------------------------------------------------------
# the prime-zeta route, in decimal
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    """B_m exactly, from sum_{k<=m} C(m+1, k) B_k = 0 (B_1 = -1/2)."""
    if m == 0:
        return Fraction(1)
    return -sum(math.comb(m + 1, k) * _bernoulli(k) for k in range(m)) / (m + 1)


def _mobius(n: int) -> int:
    sign, q = 1, 2
    while q * q <= n:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return 0
            sign = -sign
        q += 1
    return -sign if n > 1 else sign


def _dec(q: Fraction) -> Decimal:
    """q rounded to the current decimal context."""
    return Decimal(q.numerator) / q.denominator


@lru_cache(maxsize=None)
def _ln(n: int, digits: int) -> Decimal:
    with localcontext(Context(prec=digits)):
        return Decimal(n).ln()


def _em_n(p_cut: int) -> int:
    """The Euler-Maclaurin N for a direct-sum cut P: max(32, P/4).

    Each zeta(t) keeps an absolute remainder ~ N^-t; a C_Q weight w_t grows
    like R^t with P >= 8R, so N >= 2R makes every w_t-weighted remainder
    shrink like 2^-t.
    """
    return max(_EM_N, p_cut // 4)


def _log_power_derivatives(s: int, k: int, order: int) -> List[Tuple[int, ...]]:
    """P_0 .. P_order, with f^(m)(x) = x^(-s-m) P_m(log x) for f = x^-s (log x)^k.

    P_0 = L^k and P_(m+1) = P_m' - (s+m) P_m: exact integer coefficients,
    ascending in L = log x, of degree k.
    """
    polys = [(0,) * k + (1,)]
    for m in range(order):
        c = polys[-1] + (0,)
        polys.append(tuple((i + 1) * c[i + 1] - (s + m) * c[i] for i in range(k + 1)))
    return polys


def _log_moment(i: int, a: int, big_n: int) -> float:
    """Int_N^oo x^-a (log x)^i dx = N^(1-a) sum_{l<=i} i!/(i-l)! (log N)^(i-l) / (a-1)^(l+1)."""
    log_n = math.log(big_n)
    return float(big_n) ** (1 - a) * math.fsum(
        math.perm(i, l) * log_n ** (i - l) / (a - 1) ** (l + 1) for l in range(i + 1))


@lru_cache(maxsize=None)
def _em_sum(s: int, k: int, big_n: int, digits: int = _DIGITS) -> Tuple[Decimal, float]:
    """sum_n n^-s (log n)^k for s >= 2, gamma_k for s = 1, and its bound.

    So zeta(s) at k = 0 and -zeta'(s) at k = 1; the Stieltjes constant
    gamma_k = lim_M [sum_{n<=M} (log n)^k / n - (log M)^(k+1)/(k+1)].
    Euler-Maclaurin at N = big_n for f(x) = x^-s (log x)^k, in decimal:

        sum_{n<N} f(n) + I + f(N)/2 - sum_{j<=J} B_2j/(2j)! f^(2j-1)(N) + R,

    with I = -(log N)^(k+1)/(k+1) at s = 1, and I = Int_N^oo f =
    N^(1-s) sum_{l<=k} k!/(k-l)! (log N)^(k-l) / (s-1)^(l+1) for s >= 2.
    f^(m)(x) = x^(-s-m) P_m(log x) (`_log_power_derivatives`).  With the
    periodic Bernoulli function, |R| <= 2 |B_2J+2|/(2J+2)! Int_N^oo |f^(2J+2)|,
    and |f^(2J+2)(x)| <= x^(-s-2J-2) sum_i |c_i| (log x)^i for c = P_2J+2,
    integrated in closed form (`_log_moment`): a majorant that needs no
    sign of f's derivatives.  Rounding: each summand is formed by at most
    2k + 16 correctly rounded decimal operations, each within one unit in
    the last digit relative, and each addition adds one unit of a partial
    sum below `mass`, the sum of the summands' magnitudes.
    """
    polys = _log_power_derivatives(s, k, 2 * _EM_J + 2)
    with localcontext(Context(prec=digits)):
        log_n, n = _ln(big_n, digits), Decimal(big_n)
        terms = [Decimal(1 if k == 0 else 0)]                 # n = 1
        terms += [_ln(m, digits) ** k / m ** s for m in range(2, big_n)]
        if s == 1:
            terms.append(-log_n ** (k + 1) / (k + 1))
        else:
            terms += [math.perm(k, l) * log_n ** (k - l) / (s - 1) ** (l + 1) * n ** (1 - s)
                      for l in range(k + 1)]
        terms.append(log_n ** k / big_n ** s / 2)
        for j in range(1, _EM_J + 1):   # B_2j c / (2j)!, rounded once
            b, x = _bernoulli(2 * j), n ** (1 - s - 2 * j)
            den = b.denominator * math.factorial(2 * j)
            terms += [Decimal(-b.numerator * c) / den * log_n ** i * x
                      for i, c in enumerate(polys[2 * j - 1]) if c]
        total = sum(terms, Decimal(0))
    top = 2 * _EM_J + 2
    rem = (2.0 * float(abs(_bernoulli(top)) / math.factorial(top))
           * math.fsum(abs(c) * _log_moment(i, s + top, big_n) for i, c in enumerate(polys[top])))
    mass = math.fsum(abs(float(t)) for t in terms)
    rounding = 10.0 ** (1 - digits) * mass * (2 * k + 16 + len(terms))
    return total, rem + rounding


@lru_cache(maxsize=None)
def _small_primes(p_cut: int) -> Tuple[int, ...]:
    return tuple(small_primes(p_cut))


def _value_ulps(p_cut: int) -> float:
    """Rounding bound, in units of 10^(1-digits), of one H(t) or G(t) beyond
    zeta's own (which `_em_sum` bounds): 32 per prime p <= P, plus 256.

    Each decimal operation lands within one unit in its last digit.  H(t)
    takes three per prime, x = p^-t <= 1/4, 1 - x >= 3/4 and the product
    with the partial zeta_{>p}(t) in [1, 2), so the product gains at most 3
    units relative, 6 absolute, per prime; the one log at the end is
    1-Lipschitz above 1 and adds a unit of a value below 1.  G(t) takes,
    per prime, log p, its product with x, the division by 1 - x and the
    subtraction from a partial below 4: a term below 1 with at most 5 units
    relative, plus 4 units.  Both stay well inside the bound.
    """
    return 2 * 4 * 4 * (len(_small_primes(p_cut)) + 8)


@lru_cache(maxsize=None)
def _rough(t: int, p_cut: int, digits: int) -> Tuple[Decimal, Decimal, float, float]:
    """H(t), G(t) over the primes above p_cut, and the bounds zeta carries in.

    log is 1-Lipschitz on [1, oo) and |zeta'/zeta| < 1 there, so the bounds
    carry over from zeta and zeta' with a 1.01 allowance for the divisions.
    """
    zeta, err = _em_sum(t, 0, _em_n(p_cut), digits)
    dzeta, derr = _em_sum(t, 1, _em_n(p_cut), digits)
    with localcontext(Context(prec=digits)):
        rough, g = zeta, dzeta / zeta
        for p in _small_primes(p_cut):
            x = Decimal(p) ** -t
            rough *= 1 - x
            g -= _ln(p, digits) * x / (1 - x)
        h = rough.ln()
    return h, g, 1.01 * err, 1.01 * (derr + err)


def _to_double(x: Decimal, bounds: Sequence[float], method: str,
               params: Tuple[Tuple[str, float], ...]) -> ConstantValue:
    """x rounded to double; the tail adds its half ulp to `bounds`, rounded up."""
    value = float(x)
    tail = math.nextafter(math.fsum([*bounds, math.ulp(value) / 2]), math.inf)
    return ConstantValue(value=value, tail_bound=tail, method=method, params=params)


def _prime_zeta(head: Callable[[int], Tuple[Decimal, float]],
                coeffs: Callable[[int], Sequence[Fraction]], big_b: float, r: float,
                use_g: bool, p_cut: int) -> ConstantValue:
    """head + sum_{p>P} sum_{s>=2} b_s p^-s (times log p for G), certified.

    `coeffs(T)` gives b_2 .. b_T, with |b_s| <= big_b r^(s-1) and r >= 1;
    the t-sum stops at the first T whose truncation bound (module docstring)
    is below _SERIES_EPS.  The working precision grows with sum |w_t|, and
    `head(digits)` gives the direct part over p <= P in that precision with
    its own error bound.  Each product and sum adds one unit in the last
    digit of a partial sum, all of them below `mass`.
    """
    rho = r / p_cut
    c = math.log(p_cut) + 1 if use_g else 1.0

    def truncation(t: int) -> float:
        return 2.02 * big_b * c * rho ** t / (1 - rho)

    last = 1
    while truncation(last) > _SERIES_EPS:
        last += 1
    b = coeffs(last)
    weights = {}
    for t in range(2, last + 1):
        w = sum(b[s - 2] * _mobius(t // s) * (1 if use_g else Fraction(s, t))
                for s in range(2, t + 1) if t % s == 0)
        if w:
            weights[t] = w
    # 40 digits keep the rounding below ~1e-33 while sum |w_t| <= 1e3
    weight = sum(abs(float(w)) for w in weights.values())
    digits = _DIGITS + max(0, math.ceil(math.log10(max(weight, 1e3) / 1e3)))

    total, head_err = head(digits)
    per_value = _value_ulps(p_cut)
    em, rounding, mass = 0.0, 0.0, abs(float(total))
    with localcontext(Context(prec=digits)):
        for t, w in weights.items():
            h, g, em_h, em_g = _rough(t, p_cut, digits)
            x, em_x = (g, em_g) if use_g else (h, em_h)
            total += _dec(w) * x
            size = abs(float(w))
            em += size * em_x
            rounding += size * (per_value + 8)
            mass += size * abs(float(x))
    rounding = 10.0 ** (1 - digits) * (rounding + 2 * (len(weights) + 1) * mass)
    return _to_double(total, [head_err, em, truncation(last), rounding], "prime-zeta",
                      (("p_cut", float(p_cut)),))


def _root_bound(coeffs: Sequence[int]) -> float:
    """Fujiwara's bound on the roots of sum_i coeffs[i] p^i (0 for a constant):
    2 max(|a_{n-1}/a_n|, |a_{n-2}/a_n|^(1/2), ..., |a_0/(2 a_n)|^(1/n))."""
    n = len(coeffs) - 1
    log_lead = math.log(abs(int(coeffs[n])))
    logs = [(math.log(abs(int(coeffs[n - i]))) - log_lead - (math.log(2) if i == n else 0.0)) / i
            for i in range(1, n + 1) if coeffs[n - i]]
    return 2.0 * math.exp(max(logs)) * (1 + 1e-9) if logs else 0.0


def _root_power_sums(coeffs: Sequence[int], count: int) -> List[Fraction]:
    """S_1 .. S_count of the roots of sum_i coeffs[i] p^i, by Newton's identities."""
    n = len(coeffs) - 1
    e = [Fraction(int(coeffs[n - i]), int(coeffs[n])) for i in range(n + 1)]
    s = [Fraction(0)] * (count + 1)
    for k in range(1, count + 1):
        s[k] = (-sum(e[i] * s[k - i] for i in range(1, min(k - 1, n) + 1))
                - (k * e[k] if k <= n else 0))
    return s[1:]


def _c_q_root_bound(model: PrimeModel) -> Optional[float]:
    """A bound R >= 1 on the roots of N and D, or None if the series does not apply."""
    if model.fp.leading() != model.alpha:
        return None
    bound = max(1.0, _root_bound(model.fp.num), _root_bound(model.fp.den))
    return bound if bound <= _MAX_ROOT_BOUND else None


def _q_series_coeffs(model: PrimeModel, count: int) -> List[Fraction]:
    """c_1 .. c_count: log(f(p) / (alpha p^d)) = sum_k c_k p^-k above every root."""
    s_n, s_d = (_root_power_sums(c, count) for c in (model.fp.num, model.fp.den))
    return [(sd - sn) / k for k, (sn, sd) in enumerate(zip(s_n, s_d), start=1)]


def _c_q_series(model: PrimeModel, p_cut: int) -> ConstantValue:
    num, den = model.fp.num, model.fp.den
    lead, d = model.fp.leading(), int(model.d)

    def head(digits: int) -> Tuple[Decimal, float]:
        terms, err = [], 0.0
        with localcontext(Context(prec=digits)):
            for p in _small_primes(p_cut):
                q = Fraction(model.value_at_prime(p)) / (lead * Fraction(p) ** d)
                if q <= 0:
                    raise ModelSpecError(f"model {model.name!r} is not positive at p={p}")
                log_q = _dec(q).ln()
                terms.append(log_q / p)
                err += (3 + 2 * abs(float(log_q))) / p
            total = sum(terms, Decimal(0))
        return total, 10.0 ** (1 - digits) * (err + len(terms) * sum(abs(float(x)) for x in terms))

    return _prime_zeta(head, lambda last: _q_series_coeffs(model, last - 1),
                       len(num) + len(den) - 2, _c_q_root_bound(model), False, p_cut)


# --------------------------------------------------------------------------
# M and E
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def meissel_mertens() -> ConstantValue:
    """M = gamma + sum_p [log(1 - 1/p) + 1/p], from the prime zeta function
    (module docstring), certified to ~3e-17."""
    primes = _small_primes(ZETA_P)

    def head(digits: int) -> Tuple[Decimal, float]:
        gamma, err = _em_sum(1, 0, _EM_N, digits)
        with localcontext(Context(prec=digits)):
            total = gamma + sum((1 - Decimal(1) / p).ln() + Decimal(1) / p for p in primes)
        return total, err + 12 * len(primes) * 10.0 ** (1 - digits)

    return _prime_zeta(head, lambda last: [Fraction(-1, s) for s in range(2, last + 1)],
                       0.5, 1.0, False, ZETA_P)


@lru_cache(maxsize=None)
def mertens_e() -> ConstantValue:
    """E = -gamma - sum_p log p / (p (p-1)), from the prime zeta function
    (module docstring), certified to ~1.1e-16."""
    primes = _small_primes(ZETA_P)

    def head(digits: int) -> Tuple[Decimal, float]:
        gamma, err = _em_sum(1, 0, _EM_N, digits)
        with localcontext(Context(prec=digits)):
            total = -gamma - sum(_ln(p, digits) / (p * (p - 1)) for p in primes)
        return total, err + 6 * len(primes) * 10.0 ** (1 - digits)

    return _prime_zeta(head, lambda last: [Fraction(-1)] * (last - 1), 1.0, 1.0, True, ZETA_P)


# --------------------------------------------------------------------------
# model-dependent constants
# --------------------------------------------------------------------------

def c_q(model: PrimeModel, target_precision: float = DEFAULT_CQ_PRECISION) -> ConstantValue:
    """C_Q = sum_p (1/p) log(f(p) / (alpha p^d)), absolutely convergent.

    Models with delta = inf declare f(p) = alpha p^d identically (validated
    by their growth-profile check), so C_Q = 0 exactly.  Otherwise the
    prime-zeta series (module docstring) certifies it to ~1e-16, whatever
    the target; f(p) <= 0 at a prime p <= P raises ModelSpecError.  The
    prime-sum fallback runs when the series does not apply (a root bound
    above _MAX_ROOT_BOUND, or a leading coefficient that is not exactly
    alpha).  Only there does the target size the work: the cut P makes the
    tail bound 2 (K/alpha) P^-delta / delta at most 99% of it, leaving 1% to
    the float accumulation, and (K/alpha) P^-delta <= 1/2 so that
    |log(1+u)| <= 2|u| applies.  A cut beyond the sieve bound raises
    PrecisionError.
    """
    if model.delta == math.inf:
        return ConstantValue(0.0, 0.0, method="identically-zero")
    bound = _c_q_root_bound(model)
    if bound is not None:
        return _c_q_at(model, max(ZETA_P, math.ceil(8 * bound)), True)
    from .sieve import DEFAULT_MAX_BOUND

    k_rel = model.k_bound / model.alpha
    needed = max(
        (2.0 * k_rel) ** (1.0 / model.delta),           # (K/alpha) P^-delta <= 1/2
        (2.0 * k_rel / (model.delta * 0.99 * target_precision)) ** (1.0 / model.delta),
    )
    p_cut = max(100, math.ceil(needed))
    if p_cut > DEFAULT_MAX_BOUND:
        raise PrecisionError(
            f"C_Q[{model.name}]: model {model.name!r} (delta={model.delta:g}) "
            f"needs primes to {p_cut:.3g}, beyond the sieve bound {DEFAULT_MAX_BOUND:g}",
            achievable=_c_q_tail(model, DEFAULT_MAX_BOUND))
    return _c_q_at(model, p_cut, False)


def _c_q_tail(model: PrimeModel, p: float) -> float:
    return 2.0 * (model.k_bound / model.alpha) * p ** (-model.delta) / model.delta


@lru_cache(maxsize=None)
def _c_q_at(model: PrimeModel, p_cut: int, series: bool) -> ConstantValue:
    """C_Q at the cut P, by the prime-zeta series or by the prime-sum
    fallback: every prime p <= P summed, its bound the tail over p > P plus
    the reducer's accumulation error."""
    if series:
        return _c_q_series(model, p_cut)
    from .accum import prime_sums

    [total] = prime_sums([p_cut], lambda p, logp: model.log_q_ratio_vec(p, logp) / p,
                         signed=True)
    return ConstantValue(value=total.value,
                         tail_bound=_c_q_tail(model, p_cut) + total.error_bound(),
                         method="prime-sum", params=(("p_cut", float(p_cut)),))


# C_Q is memoised on its route and cut, so every target that leads to one cut
# shares one computation; like M's and E's, its cache_info counts computations.
c_q.cache_info, c_q.cache_clear = _c_q_at.cache_info, _c_q_at.cache_clear


@lru_cache(maxsize=None)
def rho_f(model: PrimeModel, target_precision: float = DEFAULT_CQ_PRECISION) -> ConstantValue:
    """rho_f = prod_p (f(p)/(alpha p^d))^(1/p) = exp(C_Q), bound propagated."""
    return _exp_of(c_q(model, target_precision), "exp-of-c_q")


def _exp_of(base: ConstantValue, method: str) -> ConstantValue:
    """exp(base), its bound propagated plus an ulp for exp's own rounding
    (exp(0) = 1 is exact)."""
    value = math.exp(base.value)
    rounding = math.ulp(value) if base.value else 0.0
    return ConstantValue(
        value=value, tail_bound=value * math.expm1(base.tail_bound) + rounding,
        method=method, params=base.params)


# --------------------------------------------------------------------------
# the remainder-integral coefficients a_j
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def saffari_a(j: int) -> ConstantValue:
    """a_j = -Int_1^oo {t} (log t)^(j-1) t^-2 dt for 1 <= j <= 8, certified to ~1e-16 relative.

    zeta(s) = s/(s-1) - s I(s) with I(s) = Int_1^oo {t} t^(-s-1) dt, and the
    Laurent series zeta(s) = 1/(s-1) + sum_k (-1)^k gamma_k (s-1)^k / k! give
    s I(s) = 1 - sum_k (-1)^k gamma_k (s-1)^k / k!.  So a_(k+1) =
    -(-1)^k I^(k)(1) = k! (sum_{i<=k} gamma_i / i! - 1), an exact integer
    combination of the Stieltjes constants (`_em_sum` at s = 1, Euler-Maclaurin at
    N = 32): a_1 = gamma - 1, a_2 = gamma_1 + gamma - 1.  The bound adds
    sum_i k!/i! |d gamma_i|, the decimal rounding of the combination and
    half an ulp for the final rounding to double; it takes no target.
    """
    if not 1 <= j <= SAFFARI_MAX_J:
        raise GridError(f"saffari_a supports 1 <= j <= {SAFFARI_MAX_J}, got {j}")
    return _saffari_at(j, _EM_N)


def _saffari_at(j: int, big_n: int) -> ConstantValue:
    """a_j from the Stieltjes constants at the Euler-Maclaurin point N = big_n."""
    k = j - 1
    weights = [math.factorial(k) // math.factorial(i) for i in range(j)]
    gammas = [_em_sum(1, i, big_n) for i in range(j)]
    with localcontext(Context(prec=_DIGITS)):
        total = sum((w * g for w, (g, _) in zip(weights, gammas)), Decimal(0)) - weights[0]
    mass = math.fsum(w * abs(float(g)) for w, (g, _) in zip(weights, gammas)) + weights[0]
    bounds = [w * err for w, (_, err) in zip(weights, gammas)]
    bounds.append(10.0 ** (1 - _DIGITS) * mass * (j + 2))
    return _to_double(total, bounds, "stieltjes-euler-maclaurin", (("n", float(big_n)),))


# --------------------------------------------------------------------------
# assembled constants
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def eta0(model: PrimeModel, target_precision: float = DEFAULT_CQ_PRECISION) -> ConstantValue:
    """eta_0 = M log alpha + d (gamma + E - 1) + C_Q, tail bounds summed.

    The target reaches only C_Q (`c_q`); the float assembly adds at most 4
    ulps of the summed magnitudes (log alpha, products, sums), so the bound
    can exceed every part's bound.
    """
    m = meissel_mertens()
    gamma = euler_gamma()
    e = mertens_e()
    cq = c_q(model, target_precision)
    log_alpha = math.log(model.alpha)
    value = m.value * log_alpha + model.d * (gamma.value + e.value - 1.0) + cq.value
    mass = (abs(m.value * log_alpha)
            + abs(model.d) * (gamma.value + abs(e.value) + 1.0) + abs(cq.value))
    tail = (abs(log_alpha) * m.tail_bound
            + abs(model.d) * (gamma.tail_bound + e.tail_bound) + cq.tail_bound
            + 4 * math.ulp(1.0) * mass)
    params = (("m_p_cut", m.param("p_cut")), ("e_p_cut", e.param("p_cut")))
    if cq.params:
        params += (("cq_p_cut", cq.param("p_cut")),)
    return ConstantValue(value=value, tail_bound=tail, method="assembled",
                         params=params)


@lru_cache(maxsize=None)
def leading_constant(model: PrimeModel,
                     target_precision: float = DEFAULT_CQ_PRECISION) -> ConstantValue:
    """alpha^M e^(d(gamma+E-1)) rho_f, computed as exp(eta0) exactly."""
    return _exp_of(eta0(model, target_precision), "exp-of-eta0")


# --------------------------------------------------------------------------
# limit-definition validation oracles
# --------------------------------------------------------------------------

#: Ordinates of the first ten nontrivial zeta zeros, refined to ~1e-12 by
#: bisection on sign changes of Z(t) = Re(e^(i theta(t)) zeta(1/2 + it))
#: (Euler-Maclaurin zeta; the test suite re-derives and checks each one).
ZETA_ZERO_ORDINATES = (
    14.134725141735, 21.022039638772, 25.010857580146, 30.424876125860,
    32.935061587739, 37.586178158826, 40.918719012148, 43.327073280915,
    48.005150881167, 49.773832477672,
)

#: Moebius values on the squarefree k in [2, 15]: the smooth components
#: x^(1/k) of the prime counts that feed the limit-oracle corrections.
_MOEBIUS_K = ((2, -1), (3, -1), (5, -1), (6, 1), (7, -1),
              (10, 1), (11, -1), (13, -1), (14, 1), (15, 1))


def _e1_continued_fraction(x: float) -> float:
    """Exponential integral E1(x) for real x >= 4 (modified Lentz)."""
    b = x + 1.0
    c = 1e308
    d = 1.0 / b
    h = d
    for i in range(1, 80):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x)


def _e1_asymptotic(z: complex) -> complex:
    """E1(z) ~ e^-z/z (1 - 1/z + 2/z^2 - ...) for |z| >> 1 (6 terms)."""
    import numpy as np

    s = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(1, 7):
        term *= -k / z
        s += term
    return np.exp(-z) / z * s


def _limit_correction_e(u: np.ndarray) -> np.ndarray:
    """Secondary terms of sum_{p<=x} log p/p - log x - E at x = e^u."""
    import numpy as np

    x = np.exp(u)
    c = np.zeros_like(u)
    for k, mu in _MOEBIUS_K:
        c += (-mu / (k - 1.0)) * x ** ((1.0 - k) / k)
    for g in ZETA_ZERO_ORDINATES:
        c -= 2.0 * x ** -0.5 * (np.exp(1j * g * u) / complex(-0.5, g)).real
    return c


def _limit_correction_m(u: np.ndarray) -> np.ndarray:
    """Secondary terms of sum_{p<=x} 1/p - loglog x - M at x = e^u."""
    import numpy as np

    c = np.array([math.fsum((-mu / k) * _e1_continued_fraction(v * (k - 1.0) / k)
                            for k, mu in _MOEBIUS_K)
                  for v in np.atleast_1d(u)])
    for g in ZETA_ZERO_ORDINATES:
        z = complex(0.5, g) * np.atleast_1d(u)
        c += 2.0 * np.array([_e1_asymptotic(zi) for zi in z]).real
    return c


def _hann_average(fn: Callable[[np.ndarray], np.ndarray], u0: float, u1: float) -> float:
    """Hann-weighted average of fn over [u0, u1], Gauss-Legendre on 64 panels."""
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(12)
    du = u1 - u0
    edges = np.linspace(u0, u1, 64 + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        uu = mid + half * nodes
        w = 0.5 * (1.0 - np.cos(2.0 * np.pi * (uu - u0) / du))
        total += half * float(np.sum(weights * w * fn(uu)))
    return total / (du / 2.0)


#: Each limit-oracle window is a factor _WINDOW_RATIO wide.
_WINDOW_RATIO = 10.0


def _windows(x_hi: float) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """The limit oracles' windows [x_hi/r^2, x_hi/r] and [x_hi/r, x_hi] in u = log x."""
    mid = math.log(x_hi / _WINDOW_RATIO)
    return (math.log(x_hi / _WINDOW_RATIO ** 2), mid), (mid, math.log(x_hi))


@lru_cache(maxsize=None)
def _window_sums(x_hi: float) -> Tuple[float, float, float]:
    """Hann-weighted averages of sum_{p<=x} 1/p over both `_windows(x_hi)`
    and of sum_{p<=x} log p/p over the upper one: the three sums the limit
    oracles read.

    One streaming pass to x_hi, memoised so that both oracles at one anchor
    share it; each prime contributes its term times the closed-form Hann
    mass above log p.
    """
    import numpy as np

    from .accum import reduce_primes

    lower, upper = _windows(x_hi)

    def mass(v: np.ndarray, u0: float, u1: float) -> np.ndarray:
        du = u1 - u0
        return np.where(
            v <= u0, 1.0,
            np.where(v >= u1, 0.0,
                     ((u1 - v) / 2.0
                      + (du / (4.0 * np.pi)) * np.sin(2.0 * np.pi * (v - u0) / du))
                     / (du / 2.0)))

    def terms(seg: np.ndarray) -> SegmentTerms:
        pf = seg.astype(np.float64)
        v = np.log(pf)
        inv = 1.0 / pf
        upper_mass = mass(v, *upper)
        return [("m_lower", 1, mass(v, *lower) * inv), ("m_upper", 1, upper_mass * inv),
                ("e_upper", 1, upper_mass * (v * inv))], None

    sums = reduce_primes([int(x_hi)], terms)
    return tuple(sums[name][0].value for name in ("m_lower", "m_upper", "e_upper"))


def _check_window(x_hi: float, windows: int) -> None:
    """Check `windows` adjacent windows, each a factor _WINDOW_RATIO wide, ending at x_hi."""
    from .sieve import DEFAULT_MAX_BOUND

    if x_hi / _WINDOW_RATIO ** windows < 1e5:
        raise GridError("limit oracle windows must start at 1e5 or above")
    if x_hi > DEFAULT_MAX_BOUND:
        raise GridError(f"limit oracle cannot stream past {DEFAULT_MAX_BOUND:g}")


def meissel_mertens_limit(x_hi: float = 1e8) -> float:
    """Limit-definition estimate of M with a Richardson step.

    Corrected Hann-window averages over [x_hi/r^2, x_hi/r] and
    [x_hi/r, x_hi]; the modeled leading residual scales like the window's
    mean x^(-1/2), a factor sqrt(r) between the two, and the Richardson
    step eliminates it.  Measured accuracy ~1e-8 at the default anchor.
    """
    import numpy as np

    _check_window(x_hi, 2)
    ests = [a - _hann_average(np.log, u0, u1) - _hann_average(_limit_correction_m, u0, u1)
            for (u0, u1), a in zip(_windows(x_hi), _window_sums(x_hi))]
    r = math.sqrt(_WINDOW_RATIO)
    return (r * ests[1] - ests[0]) / (r - 1.0)


def mertens_e_limit(x_hi: float = 1e8) -> float:
    """Limit-definition estimate of E over the Hann window [x_hi/r, x_hi].

    Measured accuracy a few 1e-9 at the default anchor — the corrected
    continuous average sidesteps the 1/log x convergence of raw sampling.
    """
    _check_window(x_hi, 1)
    u0, u1 = _windows(x_hi)[1]
    return (_window_sums(x_hi)[2] - 0.5 * (u0 + u1)
            - _hann_average(_limit_correction_e, u0, u1))
