"""Streaming prime-sum engine: frozen hand values, oracles, cache format.

The hand-derived spot values below were computed from the definitions (the
commented products and floor sums), not from the implementation, and the
batch sweeps are cross-checked against per-integer factorization oracles.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import os
import select
import struct
import time
import tracemalloc
from bisect import bisect_left
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primemean import accum, checks, primesums, sieve
from primemean.errors import AccumulationError, CacheFormatError, GridError
from primemean.multfunc import builtin, load_model_file, log_ratio_prime_power
from primemean.primesums import (CheckpointGrid, SumsReport,
                                 bruteforce_prefix, default_cache_path,
                                 identity_prefix, load_report,
                                 log_geomean_bruteforce, log_geomean_identity,
                                 omega_summatory, rs_inequality_sweep,
                                 save_report, sums_stream, u_of_x,
                                 u_truncation_bound)
from primemean.sieve import (DEFAULT_MAX_BOUND, factorize, primes_up_to,
                             spf_build, stream_segmented)

# ---------------------------------------------------------------------------
# per-integer oracles
# ---------------------------------------------------------------------------


def omega_oracle(n: int, table) -> int:
    return sum(len(factorize(k, table)) for k in range(2, n + 1))


def log_kappa_oracle(n: int, table) -> float:
    return math.fsum(math.log(p) for k in range(2, n + 1)
                     for p, _ in factorize(k, table))


def u_oracle(x: int, table) -> float:
    return math.fsum(
        math.fsum(math.log(p) for p, _ in factorize(k, table)) / math.log(k)
        for k in range(2, x + 1))


# ---------------------------------------------------------------------------
# checkpoint grids
# ---------------------------------------------------------------------------


def test_grid_from_points_validates():
    good = CheckpointGrid.from_points([2, 10, 100])
    assert good.points == (2, 10, 100) and good.n_max == 100 and len(good) == 3
    for bad in ([], [1, 5], [10, 10], [100, 10], [2.5, 10], [True, 10],
                list(range(2, 100))[:70], [2, 10 ** 12 + 1]):
        with pytest.raises(GridError):
            CheckpointGrid.from_points(bad)


def test_grid_log_spaced_dedups():
    grid = CheckpointGrid.log_spaced(10, 1000, 7)
    assert grid.points[0] == 10 and grid.points[-1] == 1000
    assert all(a < b for a, b in zip(grid.points, grid.points[1:]))
    tiny = CheckpointGrid.log_spaced(10, 12, 30)  # collapses to 3 integers
    assert tiny.points == (10, 11, 12)
    with pytest.raises(GridError):
        CheckpointGrid.log_spaced(100, 10, 5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-5, 10 ** 6), min_size=1, max_size=10))
def test_grid_property_accepts_iff_valid(pts):
    valid = (all(isinstance(p, int) for p in pts) and pts[0] >= 2
             and all(a < b for a, b in zip(pts, pts[1:])))
    if valid:
        assert CheckpointGrid.from_points(pts).points == tuple(pts)
    else:
        with pytest.raises(GridError):
            CheckpointGrid.from_points(pts)


# ---------------------------------------------------------------------------
# frozen spot values at n = 10 (kappa) and friends
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def kappa10():
    return sums_stream(builtin("kappa"), CheckpointGrid.from_points([10]))


def test_s1_at_ten(kappa10):
    # floor(10/2) + floor(10/3) + floor(10/5) + floor(10/7) = 5 + 3 + 2 + 1
    assert kappa10.s1 == (11,)


def test_s2_at_ten(kappa10):
    # product of radicals kappa(2..10) = 2*3*2*5*6*7*2*3*10 = 151200
    assert kappa10.s2[0] == pytest.approx(math.log(151200), abs=1e-12)


def test_s3_vanishes_for_exact_growth(kappa10):
    assert kappa10.s3[0] == 0.0


def test_f1_f2_at_ten(kappa10):
    # F1 = sum_{p<=10} {10/p}: only p=3 (1/3) and p=7 (3/7) contribute
    assert Fraction(1, 3) + Fraction(3, 7) == Fraction(16, 21)
    assert kappa10.f1[0] == pytest.approx(16 / 21, abs=1e-14)
    # F2 extends F1 over all prime powers: adds {10/4}, {10/8}, {10/9}
    extra = Fraction(1, 2) + Fraction(1, 4) + Fraction(1, 9)
    assert Fraction(16, 21) + extra == Fraction(409, 252)
    assert kappa10.f2[0] == pytest.approx(409 / 252, abs=1e-14)


def test_r_and_m_at_ten(kappa10):
    want_r = math.log(3) / 3 + 3 * math.log(7) / 7
    want_m = (math.log(2) / 2 + math.log(3) / 3
              + math.log(5) / 5 + math.log(7) / 7)
    assert kappa10.r_sum[0] == pytest.approx(want_r, abs=1e-14)
    assert kappa10.m_of_x[0] == pytest.approx(want_m, abs=1e-14)


def test_u_at_small_points(kappa10, table5k):
    assert kappa10.u_of_x[0] == pytest.approx(22 / 3, abs=1e-13)
    assert u_of_x(2, table5k) == 1.0
    assert u_of_x(4, table5k) == pytest.approx(2.5, abs=1e-14)
    with pytest.raises(GridError):
        u_of_x(1, table5k)


def test_u_matches_oracle(table5k):
    for x in (2, 3, 17, 100, 1234, 5000):
        assert u_of_x(x, table5k) == pytest.approx(u_oracle(x, table5k),
                                                   abs=1e-10)


# U from the prime pass: at 62 and 63 the prime 2 reaches the last direct
# term, m = U_M0 - 1; at 64 and 65 it gets an Euler-Maclaurin part starting
# and ending at m = U_M0, and at 96 so does 3; then a log grid to 2e6
_U_GRID = CheckpointGrid.from_points(sorted(
    {62, 63, 64, 65, 96} | set(CheckpointGrid.log_spaced(2, 2 * 10 ** 6, 9).points)))


@pytest.fixture(scope="module")
def u_spf_oracle():
    table = spf_build(_U_GRID.n_max)
    return [u_of_x(n, table) for n in _U_GRID.points]


@pytest.mark.parametrize("name", ["kappa", "euler_phi"])
@pytest.mark.parametrize("parallel", [False, True])
def test_streamed_u_matches_spf_oracle(monkeypatch, u_spf_oracle, name, parallel):
    monkeypatch.setattr(accum, "SEGMENT_SIZE", 1 << 14)  # Euler-Maclaurin primes span segments
    rep = sums_stream(builtin(name), _U_GRID, parallel=parallel)
    for n, got, want in zip(_U_GRID.points, rep.u_of_x, u_spf_oracle):
        assert abs(got - want) <= 1e-12 * n, n


def test_streamed_u_with_one_euler_maclaurin_prime_in_a_segment(monkeypatch):
    # segments of 1 << 14 numbers put the third segment at [32770, 49154); with
    # u_max // U_M0 = 32771 only its first prime (the next is 32779) gets an
    # Euler-Maclaurin part
    u_max = primesums.U_M0 * 32771 + 5
    grid = CheckpointGrid.from_points([10 ** 5, u_max])
    monkeypatch.setattr(accum, "SEGMENT_SIZE", 1 << 14)
    rep = sums_stream(builtin("kappa"), grid)
    table = spf_build(u_max)
    for n, got in zip(grid.points, rep.u_of_x):
        assert abs(got - u_of_x(n, table)) <= 1e-12 * n, n


def test_streamed_u_does_not_depend_on_the_model():
    grid = CheckpointGrid.log_spaced(10, 10 ** 6, 6)
    want = sums_stream(builtin("kappa"), grid).u_of_x
    for name in ("sigma", "jordan_2"):
        assert sums_stream(builtin(name), grid).u_of_x == want


def test_u_truncation_bound_on_the_default_grid():
    for n in CheckpointGrid.log_spaced(10 ** 4, 10 ** 8, 12):
        assert 0.0 < u_truncation_bound(n) <= 1e-13 * n
    assert u_truncation_bound(10 ** 9) <= 1e-13 * 10 ** 9
    # below 2 U_M0 no prime has an Euler-Maclaurin part
    assert u_truncation_bound(2 * primesums.U_M0 - 1) == 0.0


def test_omega_summatory_values(table5k):
    assert omega_summatory(10, table5k) == 11
    assert omega_summatory(1, table5k) == 0
    for n in (2, 30, 127, 1000, 4999):
        assert omega_summatory(n, table5k) == omega_oracle(n, table5k)


# ---------------------------------------------------------------------------
# the identity against brute force
# ---------------------------------------------------------------------------


def test_identity_examples(table5k):
    kappa = builtin("kappa")
    assert log_geomean_identity(kappa, 10) == pytest.approx(
        math.log(151200), abs=1e-12)
    assert log_geomean_bruteforce(kappa, 10, table5k) == pytest.approx(
        math.log(151200), abs=1e-12)
    # 2^omega over 1..6: product = 2*2*2*2*4 = 64
    assert log_geomean_identity(builtin("two_omega"), 6) == pytest.approx(
        6 * math.log(2), abs=1e-12)
    # divisor counts 1,2,2,3: product 12
    assert log_geomean_identity(builtin("divisor_d"), 4) == pytest.approx(
        math.log(12), abs=1e-12)
    # phi over 1..4: 1*1*2*2
    assert log_geomean_identity(builtin("euler_phi"), 4) == pytest.approx(
        math.log(4), abs=1e-12)


def test_identity_trivial_points():
    assert log_geomean_identity(builtin("sigma"), 1) == 0.0
    with pytest.raises(GridError):
        log_geomean_identity(builtin("sigma"), 0)


def test_prefix_sweeps_match_bruteforce(table5k):
    for name in ("kappa", "two_omega", "euler_phi", "sigma", "divisor_d",
                 "jordan_2", "jordan_3"):
        model = builtin(name)
        ident = identity_prefix(model, 600)
        brute = bruteforce_prefix(model, 600, table5k)
        dev = np.max(np.abs(ident - brute) / np.maximum(1, np.arange(601)))
        assert dev <= 1e-9, name
        assert ident[0] == ident[1] == 0.0


def test_prime_power_corrections_kick_in(table5k):
    # sigma is not strongly multiplicative: crossing 4 = 2^2 must add
    # log(sigma(4)/sigma(2)) = log(7/3) to the prime-only part
    sigma = builtin("sigma")
    ident = identity_prefix(sigma, 16)
    brute = bruteforce_prefix(sigma, 16, table5k)
    for n in (4, 8, 9, 16):
        assert ident[n] == pytest.approx(brute[n], abs=1e-12)


def test_error_bound_certifies_identity(table5k):
    grid = CheckpointGrid.from_points([10, 100, 617, 4999])
    for name in ("kappa", "sigma", "jordan_2", "two_omega"):
        model = builtin(name)
        rep = sums_stream(model, grid)
        for i, n in enumerate(grid.points):
            brute = log_geomean_bruteforce(model, n, table5k)
            assert abs(rep.n_log_g[i] - brute) <= rep.err_bound[i] + 1e-11 * n


# ---------------------------------------------------------------------------
# err_bound against a 40-digit reference
# ---------------------------------------------------------------------------

_REF_GRID = CheckpointGrid.from_points([10, 97, 1000, 9973, 10 ** 5])

# model files by test id: (d, alpha, delta, K, fp, fpa or None when strongly
# multiplicative)
_REF_FILES = {
    # the benchmark's seeded file at one seed
    "bench": (2, 1, 1, 9, "(2 * p + 3) * (2 * p + 5) / 4", None),
    # f(p) tends to 101 p while the declared K is 2 (see ROADMAP item 1)
    "hole2": (1, 1, 1, 2, "p + 1 + 100*p^2/(p^2 + 1000000000000)", None),
    "shift8": (8, 1, 1, 3050, "(p + 3)^8", None),
    "shift8_loose_k": (8, 1, 1, 1e30, "(p + 3)^8", None),
    # f(2) = 1/10000 is 1/40000 of its growth profile 2^2
    "dip": (2, 1, 1, 4, "((p - 2)^2 * 10000 + 1) / 10000",
            "((p - 2)^2 * 10000 + 1) / 10000 * p^(2*(a - 1))"),
}


def _ref_model(name: str, tmp_path):
    if name not in _REF_FILES:
        return builtin(name)
    d, alpha, delta, k, fp, fpa = _REF_FILES[name]
    tail = "strongly_multiplicative = true" if fpa is None else f"fpa = {fpa}"
    path = tmp_path / f"{name}.model"
    path.write_text(f"name = {name}\nd = {d}\nalpha = {alpha}\ndelta = {delta}\n"
                    f"K = {k:g}\nfp = {fp}\n{tail}\n")
    return load_model_file(str(path))


def _mp_n_log_g(model, points) -> list:
    """sum_{p^a <= n} floor(n/p^a) log(f(p^a) / f(p^(a-1))) at 40 digits,
    from the model's exact values."""
    with mpmath.workdps(40):
        out = [mpmath.mpf(0)] * len(points)
        for p in primes_up_to(points[-1]).tolist():
            prev, pa, a = Fraction(1), p, 1
            while pa <= points[-1]:
                cur = Fraction(model.value_at_prime(p) if a == 1
                               else model.value_at_prime_power(p, a))
                ratio = cur / prev
                lr = mpmath.log(mpmath.mpf(ratio.numerator) / ratio.denominator)
                for i in range(bisect_left(points, pa), len(points)):
                    out[i] += points[i] // pa * lr
                prev, pa, a = cur, pa * p, a + 1
    return out


def _assert_bound_holds(model, sublinear=False):
    rep = sums_stream(model, _REF_GRID, sublinear=sublinear)
    for n, got, ref, bound in zip(_REF_GRID.points, rep.n_log_g,
                                  _mp_n_log_g(model, _REF_GRID.points),
                                  rep.err_bound):
        assert abs(got - ref) <= bound, (n, float(got - ref), bound)
    return rep


_REF_CASES = [
    "kappa", "two_omega", "euler_phi", "sigma", "divisor_d", "jordan_2",
    "jordan_5", "bench", "hole2",
    pytest.param("dip", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="log1p(u) at u = -0.999975 (p = 2) amplifies the rounding of u "
               "4e4-fold, which FORM_ULPS does not cover: the error at n = 10 "
               "is 1.2e-11 against a bound of 4.0e-13")),
]


@pytest.mark.parametrize("name", _REF_CASES)
def test_err_bound_holds_against_a_40_digit_reference(name, tmp_path):
    _assert_bound_holds(_ref_model(name, tmp_path))


@pytest.mark.parametrize("name", _REF_CASES)
def test_sublinear_err_bound_holds_against_a_40_digit_reference(name, tmp_path):
    # the prime pass stops at each split y; Legendre, the floor-value tables
    # and the s3 series' cut carry the rest (dip fails at n = 10 as above:
    # there y = n)
    rep = _assert_bound_holds(_ref_model(name, tmp_path), sublinear=True)
    assert rep.sublinear


@pytest.mark.parametrize("n", [10 ** 9, 10 ** 10])
def test_kappa_matches_stirling_and_legendre(n):
    # n log G_kappa = S2 = log n! - sum_{p^a <= n, a >= 2} floor(n/p^a) log p
    rep = sums_stream(builtin("kappa"), CheckpointGrid((n,)), sublinear=True)
    with mpmath.workdps(40):
        ref = mpmath.loggamma(n + 1)
        for p in primes_up_to(math.isqrt(n)).tolist():
            pa, total = p * p, 0
            while pa <= n:
                total += n // pa
                pa *= p
            ref -= total * mpmath.log(p)
        assert abs(rep.n_log_g[0] - ref) <= rep.err_bound[0]


@pytest.mark.parametrize("name", ["bench", "hole2"])
def test_routes_agree_on_the_default_grid(name, tmp_path):
    # bench's roots need y >= 8 * 8 = 64; hole2's root bound is ~2e6, so
    # its sublinear route streams every prime, like the sieve route
    model = _ref_model(name, tmp_path)
    grid = CheckpointGrid.log_spaced(10 ** 4, 10 ** 8, 12)
    sieve = sums_stream(model, grid)
    fast = sums_stream(model, grid, sublinear=True)
    assert fast.s1 == sieve.s1
    for a, b, ea, eb in zip(sieve.n_log_g, fast.n_log_g, sieve.err_bound, fast.err_bound):
        assert abs(a - b) <= ea + eb


def test_err_bound_does_not_read_k(tmp_path):
    tight = _assert_bound_holds(_ref_model("shift8", tmp_path))
    loose = _assert_bound_holds(_ref_model("shift8_loose_k", tmp_path))
    assert _bits(loose.n_log_g) == _bits(tight.n_log_g)
    assert _bits(loose.err_bound) == _bits(tight.err_bound)


@pytest.mark.parametrize("name", ["sigma", "euler_phi", "divisor_d", "jordan_2"])
def test_prime_powers_past_the_first_segment(monkeypatch, name):
    # at 64 numbers a segment, the prime powers of 2 <= p <= 316 fall in
    # five segments' tables; the reduction must agree with one table
    model = builtin(name)
    ref = sums_stream(model, _REF_GRID)
    monkeypatch.setattr(accum, "SEGMENT_SIZE", 64)
    small = sums_stream(model, _REF_GRID)
    assert small.s1 == ref.s1
    for n, a, b, ea, eb in zip(_REF_GRID.points, small.n_log_g, ref.n_log_g,
                               small.err_bound, ref.err_bound):
        assert abs(a - b) <= ea + eb, (n, a - b, ea + eb)
    for n, got in zip(_REF_GRID.points, small.f2):
        pas = [p ** a for p in primes_up_to(n).tolist()
               for a in range(1, n.bit_length()) if p ** a <= n]
        want = sum(Fraction(n % x, x) for x in pas)
        # each term's formation (4 ulps), the pairwise partials
        # (ceil(log2 count) + 4), the Kahan merge (2) and F1's merge into
        # F2 (2), all in ulps of the nonnegative total
        bound = (math.ceil(math.log2(len(pas))) + 12) * 2.0 ** -52 * got
        assert abs(Fraction(got) - want) <= bound, (n, float(Fraction(got) - want), bound)


# ---------------------------------------------------------------------------
# the segment kernel's float quotients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lo,hi", [(DEFAULT_MAX_BOUND - 20000, DEFAULT_MAX_BOUND),
                                   (30000, 33000), (2, 2000)])
def test_float_quotients_are_exact_near_the_sieve_bound(lo, hi):
    # the kernel forms floor(n/p) and n - floor(n/p) p in float64, exact
    # for every n below 2^52; n runs up to the sieve bound, and p over
    # windows where floor(n/p) is ~1, ~3e4 and up to 5e8.  The primes
    # p <= n / U_M0 keep their own floor(n/p) in s1; the rest come as runs
    # of one floor(n/p) < U_M0, whose edges and weights must give the same
    # quotients.  The two lower windows hold primes <= sqrt(1e9), whose
    # prime powers p^a <= 1e9 give the pp and f2 channels floor(n/p^a) and
    # n - floor(n/p^a) p^a the same way
    assert DEFAULT_MAX_BOUND < 2 ** 52
    top = DEFAULT_MAX_BOUND
    seg, = stream_segmented(lo, hi, segment_size=1 << 15).segments()
    assert seg.size > 250
    model = builtin("euler_phi")
    _, at_cut = primesums._prime_terms(model, True, top, False, seg)
    pf = seg.astype(np.float64)
    pps = sorted((p ** a, log_ratio_prime_power(model, p, a))
                 for p in seg.tolist() if p * p <= top
                 for a in range(2, 64) if p ** a <= top)
    assert bool(pps) == (lo < math.isqrt(top))
    pa = np.array([x for x, _ in pps], dtype=np.int64)
    lr = np.array([x for _, x in pps])
    cuts = {top}
    for p in seg.tolist():
        k = top // p
        cuts |= {k * p, k * p - 1}
    for x in pa.tolist():
        k = top // x
        cuts |= {k * x, k * x - 1, x, x - 1}
    layouts = set()
    for n in sorted(cuts):
        count = int(np.searchsorted(seg, n, side="right"))
        terms = {}
        for name, part in at_cut(count, n):
            terms.setdefault(name, []).append(part)
        q = n // seg[:count]
        head, runs = terms["s1"]
        edges = np.asarray(runs.edges)
        assert runs.terms is None and edges[0] == head.size and edges[-1] == count, n
        assert np.all(np.diff(edges) >= 0), n
        got_q = np.concatenate([head, np.repeat(runs.weights, np.diff(edges))])
        assert got_q.tolist() == q.tolist(), n
        if count:
            layouts.add((head.size > 0, head.size < count))
        [f1] = terms["f1"]
        want_f1 = (n - q * seg[:count]).astype(np.float64) / pf[:count]
        assert _bits(f1) == _bits(want_f1), n
        if not pps:
            assert "pp" not in terms and "f2" not in terms
            continue
        c = int(np.searchsorted(pa, n, side="right"))
        qa = n // pa[:c]
        [pp], [f2] = terms["pp"], terms["f2"]
        assert _bits(pp) == _bits(qa.astype(np.float64) * lr[:c]), n
        want_f2 = (n - qa * pa[:c]).astype(np.float64) / pa[:c].astype(np.float64)
        assert _bits(f2) == _bits(want_f2), n
    # the top window is all runs, the middle one all per-prime quotients,
    # and the low one's small cuts mix both
    assert layouts == {(False, True) if lo > 10 ** 8 else (True, False),
                       *([(True, True), (False, True)] if lo == 2 else [])}


# ---------------------------------------------------------------------------
# decomposition structure
# ---------------------------------------------------------------------------


def test_kappa_n_log_g_is_exactly_s2():
    grid = CheckpointGrid.log_spaced(10, 10 ** 5, 12)
    rep = sums_stream(builtin("kappa"), grid)
    assert rep.n_log_g == rep.s2  # log alpha = 0, d = 1, S3 = 0, no pp terms


def test_n_log_g_monotone_for_f_ge_one():
    grid = CheckpointGrid.log_spaced(10, 10 ** 4, 10)
    for name in ("kappa", "sigma", "euler_phi", "jordan_2"):
        rep = sums_stream(builtin(name), grid)
        diffs = np.diff(rep.n_log_g)
        assert np.all(diffs >= 0), name


def test_f2_dominates_f1():
    grid = CheckpointGrid.log_spaced(10, 10 ** 5, 10)
    rep = sums_stream(builtin("kappa"), grid)
    f1 = np.array(rep.f1)
    f2 = np.array(rep.f2)
    assert np.all(f2 >= f1) and np.all(f1 >= 0)


def test_smr_identity_small_grid(table5k):
    grid = CheckpointGrid.log_spaced(10, 5000, 10)
    rep = sums_stream(builtin("kappa"), grid)
    for i, n in enumerate(grid.points):
        left = rep.s2[i]
        right = n * rep.m_of_x[i] - rep.r_sum[i]
        assert abs(left - right) <= 1e-9 * n
        assert left == pytest.approx(log_kappa_oracle(n, table5k), abs=1e-9 * n)


def test_a_spoiled_r_fraction_fails_exact_identities(monkeypatch):
    # R is summed from its own fractions {n/p} log p, not derived from
    # n M - S2: spoil one prime's fraction (by + 1) in one segment and the
    # S2 = n M - R identity, and with it exact-identities, must fail
    assert checks.run_check("exact-identities", hi=10 ** 5).passed
    prime_terms, spoiled = primesums._prime_terms, 7919

    def spoiling(*args, **kwargs):
        shared, at_cut = prime_terms(*args, **kwargs)
        [hit] = np.flatnonzero(args[-1] == spoiled).tolist() or [None]

        def spoiled_at_cut(count, n):
            for name, terms in at_cut(count, n):
                if name == "r_sum" and hit is not None and hit < count:
                    terms = terms.copy()
                    terms[hit] += math.log(spoiled)
                yield name, terms
        return shared, spoiled_at_cut

    monkeypatch.setattr(primesums, "_prime_terms", spoiling)
    result = checks.run_check("exact-identities", hi=10 ** 5)
    assert not result.passed
    assert "omega: " in result.detail and "max deviation 0;" in result.detail


@pytest.mark.parametrize("points", [1, 12])
def test_each_g_m_is_formed_once_per_segment(monkeypatch, points):
    # U's terms m < U_M0 are prefix channels: g_m is formed once per
    # (segment, m) over the segment's primes p <= n_max / m, whatever the
    # number of checkpoints
    formed = collections.Counter()
    g_m = primesums._g_m

    def counted(lp, m):
        formed[int(round(math.exp(lp[0]))), m, lp.size] += 1
        return g_m(lp, m)

    monkeypatch.setattr(primesums, "_g_m", counted)
    n_max, size = 10 ** 6, 1 << 16
    grid = (CheckpointGrid.log_spaced(10 ** 4, n_max, points) if points > 1
            else CheckpointGrid((n_max,)))
    assert len(grid) == points and grid.n_max == n_max
    monkeypatch.setattr(accum, "SEGMENT_SIZE", size)
    rep = sums_stream(builtin("kappa"), grid)
    want = collections.Counter()
    for seg in stream_segmented(2, n_max, segment_size=size).segments():
        for m in range(2, primesums.U_M0):
            c = int(np.searchsorted(seg, n_max // m, side="right"))
            if c:
                want[int(seg[0]), m, c] += 1
    assert formed == want
    table = spf_build(grid.points[0])
    assert abs(rep.u_of_x[0] - u_of_x(grid.points[0], table)) <= 1e-12 * grid.points[0]


def test_ei_taylor_step_matches_a_30_digit_reference():
    # Ei(log n - delta) - gamma for every delta the Euler-Maclaurin primes
    # can give, 0 <= delta < log(U_M0 / (U_M0 - 1))
    deltas = np.linspace(0.0, primesums._TAYLOR_DELTA, 9)
    with mpmath.workdps(30):
        for n in (2 * primesums.U_M0, 10 ** 4, 10 ** 8, 10 ** 9):
            got = primesums._ei_taylor(n, deltas)
            for d, g in zip(deltas.tolist(), got.tolist()):
                want = mpmath.ei(mpmath.log(n) - d) - mpmath.euler
                assert abs(g - want) <= 1e-14 * want, (n, d)


def test_runs_sum_like_their_terms(monkeypatch):
    # a Runs part is k times the pairwise partial of each run: it must agree
    # with the per-term products floor(n/p) log p within both error bounds,
    # and count floor(n/p) exactly in an integer channel
    monkeypatch.setattr(accum, "SEGMENT_SIZE", 1 << 15)
    cuts = [1000, 77777, 10 ** 6]

    def terms(seg):
        lp = np.log(seg.astype(np.float64))

        def at_cut(count, n):
            s = seg[:count]
            edges = np.searchsorted(s, n // np.arange(40, 0, -1), side="right").tolist()
            q = (n // s[:edges[0]]).astype(np.float64)
            weights = list(range(39, 0, -1))
            yield "s1", q
            yield "s1", accum.Runs(None, edges, weights)
            yield "s2", q * lp[:edges[0]]
            yield "s2", accum.Runs(lp, edges, weights)
            yield "ref1", (n // s).astype(np.float64)
            yield "ref2", (n // s) * lp[:count]
        return [], at_cut

    sums = accum.reduce_primes(cuts, terms, integers=("s1", "ref1"))
    assert sums["s1"] == sums["ref1"]
    for got, ref in zip(sums["s2"], sums["ref2"]):
        assert abs(got.value - ref.value) <= got.error_bound() + ref.error_bound()
        assert got.error_bound() <= ref.error_bound()


@pytest.mark.parametrize("terms", [
    [3.0, 1e-300, 0.0, 7.5e15], [-2.0, -0.0, -1e-17], [1.5, -2.25, 1e-16, -0.0],
    [-0.0], [-0.0, -0.0], [0.0, -0.0], [],
], ids=["positive", "negative", "mixed", "minus-zero", "minus-zeros", "zeros", "empty"])
def test_signed_partial_takes_the_abs_sums_bits(terms):
    # a signed partial whose terms share one sign takes its mass from its
    # value; (value, mass, error) must be the bits of the mass sum|terms|
    x = np.array(terms * 37)
    value = float(x.sum())
    mass = float(np.abs(x).sum())
    err = accum.pairwise_error_bound(mass, x.size) + accum.FORM_ULPS * accum.EPS * mass
    got = accum._partial(x, True)
    assert _bits(got) == _bits((value, mass, err))
    assert math.copysign(1.0, got[1]) == 1.0
    if x.size and x.min() >= 0:     # an unsigned channel's mass is its value
        assert _bits(accum._partial(x, False)) == _bits((value, value, err))


def test_sieve_route_working_set():
    # the sieve route's traced peak on 12 checkpoints to 1e7 stays below 11
    # float64 arrays of the first segment's primes (43,390 below 2^19).  It
    # falls in U's Euler-Maclaurin terms at the first segment's last cut,
    # with live: the segment's primes, p, log p and log f(p) (4) and the
    # cut's quotients (1); the sieve block's packed flags (0.4); U's lower
    # end (2) and five buffers of its upper end, each over the primes
    # p <= 1e7 / 32 (7 x 0.62): ~9.7, the rest is bookkeeping
    model = builtin("kappa")
    sums_stream(model, CheckpointGrid((1 << 20,)))  # lazy state: the wheel pattern
    grid = CheckpointGrid.log_spaced(10 ** 4, 10 ** 7, 12)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        sums_stream(model, grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    first = int(np.searchsorted(primes_up_to(accum.SEGMENT_SIZE), accum.SEGMENT_SIZE))
    assert first == 43390
    assert peak < 11 * 8 * first, peak


def test_report_field_access(kappa10):
    assert kappa10.points == (10,) and len(kappa10) == 1


# ---------------------------------------------------------------------------
# inequality sweep
# ---------------------------------------------------------------------------


def test_rs_inequality_spot_points():
    # 10: left side only below the threshold 319
    assert rs_inequality_sweep([319, 10 ** 6, 10]) == [True, True, True]


def test_rs_sweep_matches_scalar():
    xs = [2, 10, 318, 319, 1000, 12345]
    sweep = rs_inequality_sweep(xs)
    assert sweep == [rs_inequality_sweep([x])[0] for x in xs]
    with pytest.raises(GridError):
        rs_inequality_sweep([1, 10])


# ---------------------------------------------------------------------------
# determinism and the cache format
# ---------------------------------------------------------------------------


def _small_blocks(monkeypatch, segment_size: int) -> None:
    """Sieve blocks of two segments of `segment_size` numbers each, so that
    a cheap pass spans several blocks, and three CPUs to share it."""
    monkeypatch.setattr(accum, "SEGMENT_SIZE", segment_size)
    monkeypatch.setattr(sieve, "BLOCK_SIZE", 2 * segment_size)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)


def test_parallel_matches_sequential_exactly(monkeypatch, tmp_path):
    # a walk shared by three processes and the one-process walk give the
    # same bits on both routes, for built-ins and a model file; each pass
    # spans an odd number of blocks, three or more
    models = [builtin(name) for name in ("sigma", "kappa", "euler_phi")]
    models.append(_ref_model("bench", tmp_path))
    for sublinear, size, n_max in ((False, 1 << 15, 3 * 10 ** 5), (True, 1 << 8, 10 ** 7)):
        _small_blocks(monkeypatch, size)
        grid = CheckpointGrid.log_spaced(100, n_max, 9)
        y = math.isqrt(n_max) if sublinear else n_max      # the last split, or n_max
        blocks = stream_segmented(2, y, size).block_count()
        assert blocks >= 3 and blocks % 2 == 1, blocks
        for model in models:
            one = sums_stream(model, grid, sublinear=sublinear, parallel=False)
            split = sums_stream(model, grid, sublinear=sublinear)
            assert repr(split) == repr(one), (model.name, sublinear)


def test_split_prime_sums_match_one_process(monkeypatch):
    # five blocks of the plain prime sums' segments, shared by three processes
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    cuts = [1000, 10 ** 6, 10 ** 7]
    assert accum.process_count(cuts[-1]) == 3
    assert stream_segmented(2, cuts[-1]).block_count() == 5
    split = accum.prime_sums(cuts, lambda p, logp: logp / p)
    monkeypatch.setattr(accum, "process_count", lambda *args: 1)
    assert repr(accum.prime_sums(cuts, lambda p, logp: logp / p)) == repr(split)


def test_a_split_pass_sieves_each_block_once(monkeypatch, tmp_path):
    # the processes of a split pass share out the blocks of the one walk:
    # together they sieve the blocks a one-process pass sieves, each once
    log = tmp_path / "windows"
    sieve_window = sieve._sieve

    def logged(lo, hi, base_odd):
        with open(log, "a") as fh:
            fh.write(f"{lo} {hi}\n")
        return sieve_window(lo, hi, base_odd)

    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    _small_blocks(monkeypatch, 1 << 16)
    monkeypatch.setattr(sieve, "_sieve", logged)
    monkeypatch.setattr(os, "fork", counted_fork)
    cuts = [10 ** 4, 3 * 10 ** 5, 5 * 10 ** 5]

    def terms(seg):
        return [("s1", 1, None)], None

    seen = {}
    for parallel in (False, True):
        log.unlink(missing_ok=True)
        sums = accum.reduce_primes(cuts, terms, integers=("s1",), parallel=parallel)
        seen[parallel] = collections.Counter(log.read_text().splitlines())
        assert sums["s1"] == [int(primes_up_to(n).size) for n in cuts]
    assert len(seen[False]) == 4 and set(seen[False].values()) == {1}
    assert seen[True] == seen[False]
    assert len(forks) == 2


class _WorkerFailure(Exception):
    pass


@pytest.mark.parametrize("failure", ["raises", "dies"])
def test_a_childs_failure_reaches_the_parent(monkeypatch, tmp_path, failure):
    # the segment worker fails only in a child: the parent raises the
    # exception it sent, with its type and message, or names the child that
    # died without one (and the autouse fixture sees every child reaped)
    _small_blocks(monkeypatch, 1 << 15)
    parent = os.getpid()
    started = tmp_path / "child-started"

    def terms(seg):
        if os.getpid() != parent:
            started.touch()
            if failure == "dies":
                os._exit(3)
            raise _WorkerFailure("no terms past 0")
        deadline = time.monotonic() + 30     # until a child has taken a block
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        return [("s1", 1, None)], None

    expected = (_WorkerFailure, "^no terms past 0$") if failure == "raises" else (
        AccumulationError, "^a child of the split prime walk exited before segment ")
    with pytest.raises(expected[0], match=expected[1]) as exc:
        accum.reduce_primes([3 * 10 ** 5], terms, integers=("s1",))
    assert exc.type is expected[0]


def test_an_interrupted_parent_reaps_its_children(monkeypatch):
    # Ctrl-C reaches the parent while it waits on its children's pipes
    _small_blocks(monkeypatch, 1 << 15)

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(accum, "_receive", interrupted)
    with pytest.raises(KeyboardInterrupt):
        accum.reduce_primes([3 * 10 ** 5], lambda seg: ([("s1", 1, None)], None),
                            integers=("s1",))


def test_a_child_stops_when_its_parent_has_gone():
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        accum._child_walk(iter([(0, np.array([2, 3]))]), None, write_fd, parent=-1)
    os.close(write_fd)
    try:
        assert select.select([read_fd], [], [], 30)[0], "the child did not exit"
        assert os.read(read_fd, 64) == b""      # it sent nothing
    finally:
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 1


def test_a_one_block_walk_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("a one-block walk forked")

    monkeypatch.setattr(os, "fork", no_fork)
    grid = CheckpointGrid.log_spaced(100, sieve.BLOCK_SIZE - 10, 5)
    assert accum.process_count(grid.n_max) == 1
    sums_stream(builtin("kappa"), grid)
    accum.prime_sums([sieve.BLOCK_SIZE - 2], lambda p, logp: logp)


def test_a_one_process_walk_takes_every_block_from_the_queue(monkeypatch):
    # parallel=False runs the one walk loop: it forks nothing and
    # claims every block itself, in order
    def no_fork():
        raise AssertionError("a one-process walk forked")

    claimed = []
    claims = accum._claims

    def logged(queue):
        for b in claims(queue):
            claimed.append(b)
            yield b

    _small_blocks(monkeypatch, 1 << 15)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(accum, "_claims", logged)
    sums = accum.reduce_primes([3 * 10 ** 5], lambda seg: ([("s1", 1, None)], None),
                               integers=("s1",), parallel=False)
    assert sums["s1"] == [int(primes_up_to(3 * 10 ** 5).size)]
    assert claimed == list(range(stream_segmented(2, 3 * 10 ** 5, 1 << 15).block_count()))


def test_a_second_failed_fork_walks_on_with_the_first_child(monkeypatch, tmp_path):
    # three CPUs and the second fork fails: the parent and the child it did
    # fork share the walk, each block sieved once, and the child is reaped
    _small_blocks(monkeypatch, 1 << 15)
    grid = CheckpointGrid.log_spaced(100, 3 * 10 ** 5, 9)
    one = sums_stream(builtin("sigma"), grid, parallel=False)
    log = tmp_path / "windows"
    sieve_window = sieve._sieve

    def logged(lo, hi, base_odd):
        with open(log, "a") as fh:
            fh.write(f"{lo}\n")
        return sieve_window(lo, hi, base_odd)

    monkeypatch.setattr(sieve, "_sieve", logged)
    forks = []
    fork = os.fork

    def second_fails():
        forks.append(1)
        if len(forks) == 2:
            raise OSError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    assert repr(sums_stream(builtin("sigma"), grid)) == repr(one)
    assert len(forks) == 2
    windows = log.read_text().split()
    blocks = stream_segmented(2, grid.n_max, 1 << 15).block_count()
    assert len(windows) == len(set(windows)) == blocks


def test_a_failed_fork_walks_in_one_process(monkeypatch):
    _small_blocks(monkeypatch, 1 << 15)
    grid = CheckpointGrid.log_spaced(100, 3 * 10 ** 5, 9)
    one = sums_stream(builtin("sigma"), grid, parallel=False)

    def failing_fork():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing_fork)
    assert repr(sums_stream(builtin("sigma"), grid)) == repr(one)


def _bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def test_report_roundtrip_bitwise(tmp_path):
    grid = CheckpointGrid.log_spaced(10, 10 ** 4, 6)
    model = builtin("jordan_2")
    rep = sums_stream(model, grid)
    path = tmp_path / "jordan.pmsm"
    save_report(str(path), rep)
    back = load_report(str(path), model, grid)
    assert back == rep
    assert back.n_log_g == rep.n_log_g and back.err_bound == rep.err_bound
    # grid optional on load; mismatched grid must refuse
    assert load_report(str(path), model) == rep
    with pytest.raises(CacheFormatError):
        load_report(str(path), model, CheckpointGrid.from_points([10, 100]))
    with pytest.raises(CacheFormatError):
        load_report(str(path), builtin("kappa"), grid)

    lazy = sums_stream(model, grid, sublinear=True)
    lazy_path = tmp_path / "jordan-lazy.pmsm"
    save_report(str(lazy_path), lazy)
    assert load_report(str(lazy_path), model, grid) == lazy
    # records of 88 and 48 bytes: n, s1, s2, s3, n_log_g, err_bound (then,
    # on the sieve route, the companions)
    start = primesums._HEADER.size + primesums._DIGEST_SIZE
    assert path.stat().st_size == start + 88 * len(grid)
    assert lazy_path.stat().st_size == start + 48 * len(grid)
    for blob, rec in ((path.read_bytes(), rep), (lazy_path.read_bytes(), lazy)):
        assert struct.unpack_from("<QQ4d", blob, start) == (
            rec.points[0], rec.s1[0], rec.s2[0], rec.s3[0], rec.n_log_g[0],
            rec.err_bound[0])


def test_cache_rejects_corruption(tmp_path):
    grid = CheckpointGrid.from_points([10, 100])
    model = builtin("kappa")
    rep = sums_stream(model, grid)
    path = tmp_path / "k.pmsm"
    save_report(str(path), rep)
    blob = path.read_bytes()

    for mutant in (blob[:10], b"XXXX" + blob[4:], blob + b"\0" * 8,
                   blob[:4] + b"\xff\xff" + blob[6:]):
        bad = tmp_path / "bad.pmsm"
        bad.write_bytes(mutant)
        with pytest.raises(CacheFormatError):
            load_report(str(bad), model, grid)

    missing = tmp_path / "absent.pmsm"
    with pytest.raises((CacheFormatError, OSError)):
        load_report(str(missing), model, grid)


def test_a_sieve_and_a_sublinear_report_share_one_file(tmp_path):
    # `sums --cache` stores the sieve-route report and the sublinear one;
    # each loads bit for bit, and any flipped byte is refused or harmless
    grid = CheckpointGrid.from_points([10, 100, 1000])
    model = builtin("sigma")
    sieve = sums_stream(model, grid)
    fast = sums_stream(model, grid, sublinear=True)
    path = tmp_path / "pair.pmsm"
    save_report(str(path), (sieve, fast))
    start = primesums._HEADER.size + primesums._DIGEST_SIZE
    assert path.stat().st_size == start + (88 + 48) * len(grid)
    assert load_report(str(path), model, grid) == sieve
    assert load_report(str(path), model, grid, sublinear=False) == sieve
    assert load_report(str(path), model, grid, sublinear=True) == fast
    for pair in ((fast, sieve), (sieve, sieve)):
        with pytest.raises(ValueError):
            save_report(str(tmp_path / "bad.pmsm"), pair)
    blob = path.read_bytes()
    for at in range(len(blob)):
        mutant = bytearray(blob)
        mutant[at] ^= 0x04
        path.write_bytes(bytes(mutant))
        for route, rep in ((False, sieve), (True, fast)):
            try:
                back = load_report(str(path), model, grid, sublinear=route)
            except CacheFormatError:
                continue
            assert back == rep and _bits(back.n_log_g) == _bits(rep.n_log_g)


def test_only_the_three_layouts_load(tmp_path):
    # every layout byte, re-signed with a valid digest: 0 (sieve), 1
    # (sublinear) and 2 (sieve, then sublinear) load, and nothing else does
    grid = CheckpointGrid.from_points([10, 100, 1000])
    model = builtin("sigma")
    sieve = sums_stream(model, grid)
    fast = sums_stream(model, grid, sublinear=True)
    files = {0: sieve, 1: fast, 2: (sieve, fast)}
    head, size = primesums._HEADER.size, primesums._DIGEST_SIZE
    for layout, stored in files.items():
        path = tmp_path / f"layout{layout}.pmsm"
        save_report(str(path), stored)
        blob = path.read_bytes()
        assert blob[head - 1] == layout
        for flags in range(256):
            mutant = bytearray(blob)
            mutant[head - 1] = flags
            mutant[head:head + size] = primesums._digest(bytes(mutant[:head]),
                                                         bytes(mutant[head + size:]))
            path.write_bytes(bytes(mutant))
            if flags != layout:
                with pytest.raises(CacheFormatError):
                    load_report(str(path), model, grid)
                continue
            for rep in (stored if isinstance(stored, tuple) else (stored,)):
                assert load_report(str(path), model, grid, sublinear=rep.sublinear) == rep


@pytest.fixture(scope="module")
def saved_sigma(tmp_path_factory):
    """sigma's report on each route: both record layouts."""
    grid = CheckpointGrid.from_points([10, 100, 1000])
    model = builtin("sigma")
    path = tmp_path_factory.mktemp("cache") / "sigma.pmsm"
    return model, grid, path, {sublinear: sums_stream(model, grid, sublinear=sublinear)
                               for sublinear in (False, True)}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cache_single_byte_mutation_is_caught(saved_sigma, data):
    model, grid, path, reports = saved_sigma
    rep = reports[data.draw(st.booleans(), label="sublinear")]
    save_report(str(path), rep)
    mutant = bytearray(path.read_bytes())
    at = data.draw(st.integers(0, len(mutant) - 1), label="offset")
    mutant[at] ^= data.draw(st.integers(1, 255), label="xor")
    path.write_bytes(bytes(mutant))
    try:
        back = load_report(str(path), model, grid)
    except CacheFormatError:
        return
    assert back.s1 == rep.s1 and back.points == rep.points
    assert back.sublinear == rep.sublinear
    for field in primesums.FLOAT_FIELDS + ("n_log_g", "err_bound"):
        if getattr(rep, field) is not None:
            assert _bits(getattr(back, field)) == _bits(getattr(rep, field)), field


def test_default_cache_path_keys(tmp_path):
    g1 = CheckpointGrid.from_points([10, 100])
    g2 = CheckpointGrid.from_points([10, 101])
    p_a = default_cache_path(str(tmp_path), builtin("kappa"), g1)
    p_b = default_cache_path(str(tmp_path), builtin("kappa"), g2)
    p_c = default_cache_path(str(tmp_path), builtin("sigma"), g1)
    assert p_a == default_cache_path(str(tmp_path), builtin("kappa"), g1)
    assert len({p_a, p_b, p_c}) == 3
    assert os.path.dirname(p_a) == str(tmp_path)
    assert os.path.basename(p_a).startswith("kappa-")


# _model_hash of every built-in as the built-ins were first shipped: cache
# files written by earlier versions stay valid
FROZEN_MODEL_HASHES = {
    "kappa": 0xf3bac9eb0f6fcac2,
    "two_omega": 0x46581dbc46079760,
    "euler_phi": 0x90a5889f5ee93e5e,
    "sigma": 0xeedc8a1558815a93,
    "divisor_d": 0x8344481592c0b626,
    "jordan_2": 0xd777e739d475657e,
    "jordan_3": 0x962185669a67ce17,
    "jordan_5": 0xc05e1b61413ba9b2,
}


def test_builtin_model_hashes_are_frozen():
    for name, want in FROZEN_MODEL_HASHES.items():
        assert primesums._model_hash(builtin(name)) == want, name


def test_model_file_spelling_out_euler_phi_sums_bitwise(tmp_path):
    path = tmp_path / "phi.model"
    path.write_text("name = phi\nd = 1\nalpha = 1\ndelta = 1\nK = 1\n"
                    "fp = p - 1\nfpa = p^(a - 1) * (p - 1)\n")
    grid = CheckpointGrid.log_spaced(10, 10 ** 6, 8)
    got = sums_stream(load_model_file(str(path)), grid)
    want = sums_stream(builtin("euler_phi"), grid)
    for f in dataclasses.fields(SumsReport):
        if f.name not in ("model_name", "model_hash"):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
