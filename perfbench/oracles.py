"""Reference values the benchmark checks the program's outputs against.

Everything here is computed once per run, before any timed command.  The
analytic constants come from mpmath (independent of the program); the
checkpoint sums come from the program's own per-integer oracles on a
smallest-prime-factor table, which share no code with the streamed sums.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from primemean import primesums, sieve
from primemean.multfunc import builtin

_DPS = 40
_HEAD_PRIMES = (2, 3, 5, 7)  # summed exactly before the 1/p power series


def _mobius(n: int) -> int:
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def _prime_zeta_tail(s: int):
    """sum_{p > 7} p^-s."""
    return mpmath.primezeta(s) - mpmath.fsum(mpmath.mpf(p) ** -s for p in _HEAD_PRIMES)


def mertens_e():
    """E = -gamma - sum_p log p / (p (p-1)) = -gamma - sum_{k>=2} A(k),

    with A(s) = sum_p log p p^-s = sum_m mu(m) L(ms) and L = -zeta'/zeta.
    """
    total = mpmath.mpf(0)
    for k in range(2, 130):
        for m in range(1, 130 // k + 1):
            mu = _mobius(m)
            if mu:
                s = m * k
                total += mu * -mpmath.zeta(s, derivative=1) / mpmath.zeta(s)
    return -mpmath.euler - total


def c_q(shifts):
    """sum_p (1/p) sum_i sign_i log(1 + r_i/p) for shifts [(r_i, sign_i)].

    Primes up to 7 are summed directly; beyond them |r_i/p| <= 3/11 and
    log(1 + r/p) expands into prime-zeta values with geometric decay.
    """
    head = mpmath.fsum(sign * mpmath.log(1 + mpmath.mpf(r) / p) / p
                       for p in _HEAD_PRIMES for r, sign in shifts)
    tail = mpmath.mpf(0)
    for k in range(1, 80):
        coef = sum(sign * mpmath.mpf(r) ** k for r, sign in shifts)
        if coef:
            tail += (-1) ** (k + 1) * coef / k * _prime_zeta_tail(k + 1)
    return head + tail


def saffari_a(j: int):
    """a_j = (j-1)! (sum_{k<j} gamma_k / k! - 1), gamma_k Stieltjes constants."""
    return math.factorial(j - 1) * (mpmath.fsum(
        mpmath.stieltjes(k) / math.factorial(k) for k in range(j)) - 1)


def constant_table(models: dict, max_aj: int) -> dict:
    """Reference value of every row `primemean constants` can print.

    `models` maps a model name to (d, alpha, shifts) with f(p) = alpha p^d
    prod_i (1 + r_i/p)^sign_i.
    """
    with mpmath.workdps(_DPS):
        gamma = mpmath.euler
        m = mpmath.mertens
        e = mertens_e()
        out = {"gamma": float(gamma), "meissel_mertens_M": float(m),
               "mertens_E": float(e)}
        for j in range(1, max_aj + 1):
            out[f"a_{j}"] = float(saffari_a(j))
        for name, (d, alpha, shifts) in models.items():
            cq = c_q(shifts)
            eta0 = m * mpmath.log(alpha) + d * (gamma + e - 1) + cq
            out[f"C_Q[{name}]"] = float(cq)
            out[f"rho_f[{name}]"] = float(mpmath.exp(cq))
            out[f"eta0[{name}]"] = float(eta0)
            out[f"leading_constant[{name}]"] = float(mpmath.exp(eta0))
    return out


BUILTIN_SHIFTS = {
    "euler_phi": (1, 1, ((-1, 1),)),
    "sigma": (1, 1, ((1, 1),)),
}


def checkpoint(model_name: str, n: int, table=None) -> dict:
    """Per-integer values at one checkpoint n: n log G_f(n), S1(n), U(n)."""
    table = table or sieve.spf_build(n)
    return {
        "n_log_g": primesums.log_geomean_bruteforce(builtin(model_name), n, table),
        "s1": primesums.omega_summatory(n, table),
        "u_of_x": primesums.u_of_x(n, table),
    }


def fit(samples, order: int, with_constant: bool) -> list:
    """Least squares of y(n) on {1, 1/log^j n} by SVD (the program uses QR)."""
    ns = np.array([n for n, _ in samples], dtype=np.float64)
    ys = np.array([y for _, y in samples])
    u = np.log(ns)
    cols = ([np.ones_like(u)] if with_constant else []) + [u ** -j for j in range(1, order + 1)]
    beta, *_ = np.linalg.lstsq(np.column_stack(cols), ys, rcond=None)
    return [float(b) for b in beta]
