"""Formal-series helpers: exact algebra, hand-checked coefficients, fits."""

from __future__ import annotations

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primemean import series
from primemean.errors import GridError, IllConditionedFitError


def series_log_oracle(g):
    """Inverse of series_exp by the standard derivative recurrence.

    n g_n = sum_{k=1}^{n} k e_k g_{n-k} solved for e_n; exact rationals.
    """
    r = len(g) - 1
    e = [F(0)] * (r + 1)
    for n in range(1, r + 1):
        acc = n * g[n]
        for k in range(1, n):
            acc -= k * e[k] * g[n - k]
        e[n] = F(acc, n)
    return e[1:]


def test_series_exp_hand_case():
    # exp(u) truncated: g_k = 1/k!
    g = series.series_exp([F(1), F(0), F(0), F(0)])
    assert list(g) == [F(1), F(1), F(1, 2), F(1, 6), F(1, 24)]


def test_series_exp_quadratic_hand_case():
    # exp(u + u^2) = 1 + u + 3/2 u^2 + 7/6 u^3 + ...
    g = series.series_exp([F(1), F(1), F(0)])
    assert list(g) == [F(1), F(1), F(3, 2), F(7, 6)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-5, max_value=5,
                             max_denominator=9), min_size=1, max_size=12))
def test_series_exp_log_roundtrip(coeffs):
    g = series.series_exp(coeffs)
    assert list(g)[0] == 1
    assert series_log_oracle(list(g)) == coeffs


def test_lj_coeffs_hand_values():
    # L_j(x) = Int_2^x dt/log^j t expands with weights (i-1)!/(j-1)!
    assert list(series.lj_coeffs(1, 4)) == [1, 1, 2, 6]
    assert list(series.lj_coeffs(2, 4)) == [1, 2, 6]
    assert list(series.lj_coeffs(3, 5)) == [1, 3, 12]
    assert list(series.lj_coeffs(4, 4)) == [1]


def test_lj_recurrence_full_range():
    for r in range(2, 13):
        for j in range(2, r + 1):
            assert series.lj_recurrence_check(j, r)


def test_s2_coeffs_vanish_for_factorial_pattern():
    # d_j = B (j-1)! makes every correction coefficient cancel exactly;
    # this is the pattern the integer data actually follows.
    B = F(7, 10)
    for order in range(1, 9):
        d = [B * math.factorial(j) for j in range(order + 1)]
        got = series.s2_coeffs_from_d(d)
        assert list(got) == [F(0)] * order


def test_s2_coeffs_closed_form_small():
    # order 1: c_1 = d_2 - d_1 (only L_1's leading weight contributes)
    d1, d2 = F(3), F(5)
    assert list(series.s2_coeffs_from_d([d1, d2])) == [d2 - d1]
    # order 2: c_2 = d_3 - d_1 * 1! - d_2 * 1
    d3 = F(11)
    assert list(series.s2_coeffs_from_d([d1, d2, d3])) == \
        [d2 - d1, d3 - d1 - d2]
    with pytest.raises(GridError):
        series.s2_coeffs_from_d([F(1)])


def test_fit_recovers_synthetic_coefficients():
    ns = [int(10 ** (4 + 0.3 * i)) for i in range(10)]
    samples = [(n, 0.25 + 0.7 / math.log(n) - 0.2 / math.log(n) ** 2)
               for n in ns]
    fit = series.fit_coefficients(samples, order=2, include_constant=True)
    assert fit.constant == pytest.approx(0.25, abs=1e-9)
    assert fit.coefficients[0] == pytest.approx(0.7, abs=1e-8)
    assert fit.coefficients[1] == pytest.approx(-0.2, abs=1e-7)
    assert fit.window[2] == len(ns)

    no_const = [(n, 0.7 / math.log(n)) for n in ns]
    fit2 = series.fit_coefficients(no_const, order=1)
    assert fit2.constant is None
    assert fit2.coefficients[0] == pytest.approx(0.7, abs=1e-12)


def test_fit_validation_errors():
    good = [(10 ** (4 + i), 1.0 / (4 + i)) for i in range(6)]
    with pytest.raises(GridError):
        series.fit_coefficients(good, order=13)
    with pytest.raises(GridError):
        series.fit_coefficients(good, order=0)  # constant-free order 0
    with pytest.raises(GridError):
        series.fit_coefficients(good[:3], order=4)
    with pytest.raises(GridError):
        series.fit_coefficients([(50, 1.0)] + good, order=1)
    with pytest.raises(GridError):
        series.fit_coefficients(good + good[:1], order=1)


def test_fit_refuses_collinear_basis():
    # ten points crammed into a hair-thin window at high order
    ns = [10 ** 6 + 97 * i for i in range(10)]
    samples = [(n, 1.0 / math.log(n)) for n in ns]
    with pytest.raises(IllConditionedFitError) as exc:
        series.fit_coefficients(samples, order=8)
    assert exc.value.condition is None or exc.value.condition > 1e12
