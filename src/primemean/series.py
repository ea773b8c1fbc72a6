"""Truncated asymptotic-expansion algebra in the variable 1/log n.

Everything here is coefficient bookkeeping for expansions of the form

    t_logn * log n + t_loglogn * loglog n + sum_j e_j / log^j n,

plus the two generators behind them: the logarithmic-integral tail
li(t) ~ sum (i-1)! t/log^i t and its shifted family

    L_j(t) = sum_{i=j..r} (i-1)!/(j-1)! * t / log^i t,

which satisfies (j-1) L_j = L_{j-1} - t/log^(j-1) t.  Coefficient routines
work in exact integer/rational arithmetic whenever the inputs allow it;
only the data-driven fitting is floating point.

Maximum order is 12 throughout: beyond that the factorial growth of the
coefficients makes double-precision evaluation meaningless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import GridError, IllConditionedFitError

MAX_ORDER = 12

Number = Union[int, float, Fraction]


@dataclass(frozen=True)
class FitResult:
    """Least-squares coefficients over the basis {1/log^j n, j = 1..order}.

    ``constant`` is the fitted constant term when one was requested, else
    None.  ``window`` records (n_min, n_max, point count) of the samples.
    """

    coefficients: tuple
    constant: Optional[float]
    residual_norm: float
    condition_estimate: float
    window: tuple


def _check_order(r: int) -> None:
    if not 1 <= r <= MAX_ORDER:
        raise GridError(f"order must be in 1..{MAX_ORDER}, got {r}")


def lj_coeffs(j: int, r: int) -> list:
    """[(i-1)!/(j-1)! for i = j..r] — exact integers."""
    _check_order(r)
    if not 1 <= j <= r:
        raise GridError(f"need 1 <= j <= r, got j={j}, r={r}")
    fj = math.factorial(j - 1)
    return [math.factorial(i - 1) // fj for i in range(j, r + 1)]


def lj_recurrence_check(j: int, r: int) -> bool:
    """Verify (j-1) L_j = L_{j-1} - t/log^(j-1) t at coefficient level.

    Works in exact rational arithmetic over orders i = j-1 .. r.
    """
    _check_order(r)
    if not 2 <= j <= r:
        raise GridError(f"need 2 <= j <= r, got j={j}, r={r}")
    lhs = {i: Fraction(c) * (j - 1)
           for i, c in zip(range(j, r + 1), lj_coeffs(j, r))}
    rhs = {i: Fraction(c)
           for i, c in zip(range(j - 1, r + 1), lj_coeffs(j - 1, r))}
    rhs[j - 1] = rhs.get(j - 1, Fraction(0)) - 1  # the -t/log^(j-1) t term
    for i in range(j - 1, r + 1):
        if lhs.get(i, Fraction(0)) != rhs.get(i, Fraction(0)):
            return False
    return True


def _exact_inputs(coeffs: Sequence[Number]) -> bool:
    return all(isinstance(c, (int, Fraction)) for c in coeffs)


def series_exp(e: Sequence[Number]) -> list:
    """Formal exponential of sum_{j>=1} e_j x^j, truncated at r = len(e).

    Returns g_0..g_r with g_0 = 1, via the convolution recurrence
    n*g_n = sum_{k=1..n} k*e_k*g_{n-k}.  Exact (Fractions) when every
    input is an int or Fraction, float64 otherwise.
    """
    r = len(e)
    if r > MAX_ORDER:
        raise GridError(f"series order {r} exceeds {MAX_ORDER}")
    exact = _exact_inputs(e)
    one = Fraction(1) if exact else 1.0
    g = [one]
    for n in range(1, r + 1):
        acc = Fraction(0) if exact else 0.0
        for k in range(1, n + 1):
            acc += k * (Fraction(e[k - 1]) if exact else float(e[k - 1])) * g[n - k]
        g.append(acc / n if exact else acc / n)
    return g


def s2_coeffs_from_d(d_coeffs: Sequence[Number]) -> list:
    """Transform sum-side coefficients d_1..d_{r+1} to c_1..c_r.

    Collecting the 1/log^i n terms of sum_j d_{j+1} n/log^j n after the
    L_j substitutions gives c_i = d_{i+1} - sum_{j=1..i} d_j (i-1)!/(j-1)!.
    Exact on exact inputs.
    """
    if len(d_coeffs) < 2:
        raise GridError("need at least d_1, d_2")
    r = len(d_coeffs) - 1
    if r > MAX_ORDER:
        raise GridError(f"order {r} exceeds {MAX_ORDER}")
    exact = _exact_inputs(d_coeffs)
    out = []
    for i in range(1, r + 1):
        fi = math.factorial(i - 1)
        acc = Fraction(d_coeffs[i]) if exact else float(d_coeffs[i])
        for j in range(1, i + 1):
            w = fi // math.factorial(j - 1)
            acc -= w * (Fraction(d_coeffs[j - 1]) if exact else float(d_coeffs[j - 1]))
        out.append(acc)
    return out


def fit_coefficients(samples: Sequence[tuple], order: int,
                     include_constant: bool = False) -> FitResult:
    """Least squares of residual(n) against {1/log^j n, j = 1..order}.

    ``include_constant`` adds a constant column (for extracting constant
    terms empirically); otherwise the caller is expected to have removed
    the analytic constant already.  Solved by QR; the ratio of extreme
    |R| diagonal entries is the condition estimate, and anything beyond
    1e12 is refused — this basis goes collinear very quickly.
    """
    if order < 0 or order > MAX_ORDER:
        raise GridError(f"fit order must be in 0..{MAX_ORDER}, got {order}")
    if order == 0 and not include_constant:
        raise GridError("order 0 only makes sense with a constant term")
    if len(samples) < order + 2:
        raise GridError(
            f"need at least {order + 2} samples for order {order}, got {len(samples)}")
    ns = np.array([float(n) for n, _ in samples])
    ys = np.array([float(v) for _, v in samples])
    if np.any(ns < 100):
        raise GridError("fit window must satisfy n >= 100")
    if len(np.unique(ns)) != len(ns):
        raise GridError("sample n values must be distinct")
    u = np.log(ns)
    cols = []
    if include_constant:
        cols.append(np.ones_like(u))
    cols.extend(u ** -j for j in range(1, order + 1))
    design = np.column_stack(cols)
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    cond = float(np.max(diag) / np.min(diag)) if np.min(diag) > 0 else math.inf
    if cond > 1e12:
        raise IllConditionedFitError(
            f"fit basis is numerically collinear (condition ~ {cond:.3g}); "
            "reduce the order or widen the window", condition=cond)
    beta = np.linalg.solve(r, q.T @ ys)
    resid = ys - design @ beta
    constant = float(beta[0]) if include_constant else None
    coeffs = tuple(float(b) for b in beta[1 if include_constant else 0:])
    return FitResult(
        coefficients=coeffs,
        constant=constant,
        residual_norm=float(np.linalg.norm(resid)),
        condition_estimate=cond,
        window=(float(ns.min()), float(ns.max()), len(ns)),
    )
