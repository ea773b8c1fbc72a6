"""Certified constants against independent high-precision oracles.

Every constant the package certifies is recomputed here through a different
route (mpmath reference constants, Stieltjes-constant closed forms, prime-
zeta series) and must agree within the certified tail bound plus a small
float allowance.  The oracle algebra:

* the tail-integral coefficients satisfy
      a_j = (j-1)! (sum_{k=0}^{j-1} gamma_k / k! - 1)
  with gamma_k the Stieltjes constants (integrate {t} = t - floor t against
  (log t)^(j-1) t^-2 per unit interval and Abel-sum the floor part);
* E = -gamma - sum_{k>=2} sum_p log p / p^k, where the inner sums are
  derivatives of the prime zeta function, summed with geometric decay;
* sum_p log(1 - 1/p)/p = -sum_{k>=1} P(k+1)/k and
  sum_p log(1 + 1/p)/p = sum_{k>=1} (-1)^(k+1) P(k+1)/k.
"""

from __future__ import annotations

import functools
import json
import math

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mpmath import mp

from primemean import checks, constants
from primemean.accum import EPS, FORM_ULPS
from primemean.errors import GridError, ModelSpecError, PrecisionError
from primemean.multfunc import builtin, load_model_file

mp.dps = 30


@pytest.fixture(scope="module")
def gamma_ref():
    return float(+mp.euler)


@pytest.fixture(scope="module")
def m_ref():
    return float(+mpmath.mertens)


# 40-digit references: the prime-zeta values are certified to ~1e-16, below
# the rounding of a reference to double, so they are compared in mpmath.
@pytest.fixture(scope="module")
def m_ref40():
    with mpmath.workdps(40):
        return +mpmath.mertens


@pytest.fixture(scope="module")
def e_ref40():
    # the terms beyond k = 100 add up to less than 1e-30
    with mpmath.workdps(40):
        return -mp.euler - mpmath.fsum(-mpmath.diff(mpmath.primezeta, k)
                                       for k in range(2, 100))


@pytest.fixture(scope="module")
def e_ref(e_ref40):
    return float(e_ref40)


def _within(cv, ref) -> bool:
    with mpmath.workdps(40):
        return abs(mpmath.mpf(cv.value) - ref) <= cv.tail_bound


def test_euler_gamma_certified(gamma_ref):
    g = constants.euler_gamma()
    assert abs(g.value - gamma_ref) <= g.tail_bound + 1e-15
    assert g.tail_bound <= 1e-16
    with mpmath.workdps(40):
        assert _within(g, +mp.euler)
    assert round(g.value, 6) == 0.577216
    # eta0 assembles the same gamma that `constants` prints
    kappa = constants.eta0(builtin("kappa"))
    assert kappa.value == g.value + constants.mertens_e().value - 1.0


def test_meissel_mertens_certified(m_ref40):
    m = constants.meissel_mertens()
    assert m.method == "prime-zeta" and m.param("p_cut") == constants.ZETA_P
    assert m.tail_bound <= 1e-14
    assert _within(m, m_ref40)
    assert round(m.value, 6) == 0.261497


def test_mertens_e_certified(e_ref40):
    e = constants.mertens_e()
    assert e.method == "prime-zeta" and e.param("p_cut") == constants.ZETA_P
    assert e.tail_bound <= 1e-14
    assert _within(e, e_ref40)
    assert round(e.value, 6) == -1.332582


def _mertens_prime_sum(index: int, cut: int):
    """M (index 0) or E (index 1) summed to `cut`, from the memoised pass of
    the constants-stability check when the cut is one of its own."""
    cuts = checks._MERTENS_CUTS if cut in checks._MERTENS_CUTS else (cut,)
    return checks._mertens_prime_sums(cuts)[cuts.index(cut)][index]


def test_doubling_moves_less_than_tail():
    # the prime-sum references at the cuts of the constants-stability check
    for index, cut in ((0, 5 * 10 ** 7), (1, 2 * 10 ** 8)):
        base = _mertens_prime_sum(index, cut)
        doubled = _mertens_prime_sum(index, 2 * cut)
        assert base.method == doubled.method == "prime-sum"
        assert abs(doubled.value - base.value) < base.tail_bound


def test_saffari_a_matches_stieltjes_formula():
    for j in range(1, 9):
        want = float(math.factorial(j - 1) * (mpmath.fsum(
            mpmath.stieltjes(k) / math.factorial(k) for k in range(j)) - 1))
        got = constants.saffari_a(j)
        assert abs(got.value - want) <= got.tail_bound + 1e-12, f"a_{j}"


def test_saffari_a1_is_gamma_minus_one(gamma_ref):
    a1 = constants.saffari_a(1)
    assert abs(a1.value + 1.0 - gamma_ref) <= 1e-8
    assert abs(a1.value + 1.0 - constants.euler_gamma().value) <= 1e-8


def test_saffari_a_certified_against_stieltjes_oracle():
    # 40-digit reference; each bound is the double rounding plus a remainder
    # far below it: within one ulp, and within 1e-15 while |a_j| < 16
    with mpmath.workdps(40):
        gammas = [mpmath.stieltjes(k) for k in range(8)]
        for j in range(1, 9):
            ref = math.factorial(j - 1) * (mpmath.fsum(
                g / math.factorial(k) for k, g in enumerate(gammas[:j])) - 1)
            got = constants.saffari_a(j)
            assert got.method == "stieltjes-euler-maclaurin", j
            assert got.param("n") == constants._EM_N
            assert abs(mpmath.mpf(got.value) - ref) <= got.tail_bound, f"a_{j}"
            assert got.tail_bound <= math.ulp(float(ref)), f"a_{j}"
            if abs(ref) < 16:
                assert got.tail_bound <= 1e-15, f"a_{j}"


def test_saffari_a_doubling_stability():
    # doubling the Euler-Maclaurin N moves every Stieltjes constant less than
    # the two bounds together, and no a_j by more than its bound
    for k in range(8):
        base, base_err = constants._em_sum(1, k, constants._EM_N)
        doubled, doubled_err = constants._em_sum(1, k, 2 * constants._EM_N)
        assert abs(float(doubled - base)) <= base_err + doubled_err, k
    for j in (1, 4, 8):
        base = constants.saffari_a(j)
        doubled = constants._saffari_at(j, 2 * int(base.param("n")))
        assert doubled.param("n") == 2 * constants._EM_N
        assert abs(doubled.value - base.value) < base.tail_bound

    with pytest.raises(GridError):
        constants.saffari_a(0)
    with pytest.raises(GridError):
        constants.saffari_a(9)


def test_em_sum_certifies_zeta_and_its_derivative():
    # s >= 2: zeta(s) at k = 0 and -zeta'(s) at k = 1, within the certified
    # bound of a 50-digit reference, at N = 32 and at N = 256 (the N of the
    # C_Q cut P = 1024); doubling N moves no value by more than both bounds
    with mpmath.workdps(50):
        for s in range(2, 41):
            refs = (mpmath.zeta(s), -mpmath.zeta(s, derivative=1))
            for k, ref in enumerate(refs):
                for big_n in (32, 256):
                    value, bound = constants._em_sum(s, k, big_n)
                    doubled, doubled_bound = constants._em_sum(s, k, 2 * big_n)
                    value, doubled = mpmath.mpf(str(value)), mpmath.mpf(str(doubled))
                    assert abs(value - ref) <= bound, (s, k, big_n)
                    assert abs(doubled - value) < bound + doubled_bound, (s, k, big_n)
                    assert bound <= 1e-30, (s, k, big_n)


def test_a1_quadrature_doubling_and_gamma(gamma_ref):
    # the a1-gamma check's own route: Gauss-Legendre panels and a
    # Bernoulli tail beyond T, stable when T doubles
    value, bound = checks._a1_quadrature()
    doubled, _ = checks._a1_quadrature(2 * 1024)
    assert abs(doubled - value) < bound
    assert abs(value + 1.0 - gamma_ref) <= bound + 1e-15
    assert bound <= 1e-10


def test_cq_zero_for_exact_growth_models():
    for name in ("kappa", "two_omega", "divisor_d"):
        cv = constants.c_q(builtin(name))
        assert cv.value == 0.0 and cv.tail_bound == 0.0


def test_cq_phi_matches_prime_zeta_series():
    # sum_p log(1 - 1/p)/p = -sum_{k>=1} P(k+1)/k, geometric decay
    want = float(-mpmath.fsum(
        mpmath.primezeta(k + 1) / k for k in range(1, 90)))
    got = constants.c_q(builtin("euler_phi"))
    assert abs(got.value - want) <= got.tail_bound + 1e-12
    rho = constants.rho_f(builtin("euler_phi"))
    assert abs(rho.value - math.exp(want)) <= rho.tail_bound + 1e-12


def test_cq_sigma_matches_prime_zeta_series():
    want = float(mpmath.fsum(
        (-1) ** (k + 1) * mpmath.primezeta(k + 1) / k for k in range(1, 90)))
    got = constants.c_q(builtin("sigma"))
    assert abs(got.value - want) <= got.tail_bound + 1e-12


def test_eta0_assemblies(gamma_ref, e_ref, m_ref):
    kappa = constants.eta0(builtin("kappa"))
    want_kappa = gamma_ref + e_ref - 1.0
    assert abs(kappa.value - want_kappa) <= kappa.tail_bound + 1e-12

    two = constants.eta0(builtin("two_omega"))
    want_two = m_ref * math.log(2.0)
    assert abs(two.value - want_two) <= two.tail_bound + 1e-12

    lead = constants.leading_constant(builtin("kappa"))
    assert abs(lead.value - math.exp(want_kappa)) <= lead.tail_bound + 1e-12


def test_precision_floors_raise(capsys):
    # `constants --precision` checks every printed row, the assembled ones
    # included: just below one row's bound, and at or above the bound of
    # every row before it, the command exits 3 naming that row
    from primemean.cli import main
    argv = ["constants", "--model", "euler_phi", "--aj", "0", "--format", "json"]
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)
    bounds = {r["constant"]: r["tail_bound"] for r in rows}
    for name in ("gamma", "mertens_E", "rho_f[euler_phi]", "eta0[euler_phi]"):
        floor = bounds[name]
        below = math.nextafter(floor, 0.0)
        before = [r["tail_bound"] for r in rows[:list(bounds).index(name)]]
        assert all(b <= below for b in before), name
        assert main([*argv, "--precision", repr(below)]) == 3, name
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} has tail bound"), captured.err
        assert f"(achievable: {floor:.3g})" in captured.err
    assert main([*argv, "--precision", repr(max(bounds.values()))]) == 0
    assert json.loads(capsys.readouterr().out) == rows
    # the library's gamma, M and E take no target; C_Q's reaches only its
    # prime-sum fallback, so the series value is the same at any target
    cq = constants.c_q(builtin("euler_phi"))
    assert constants.c_q(builtin("euler_phi"), cq.tail_bound / 2) == cq


def test_zeta_zero_ordinates_rederived():
    for i, frozen in enumerate(constants.ZETA_ZERO_ORDINATES, start=1):
        assert abs(float(mpmath.zetazero(i).imag) - frozen) < 1e-11


def test_limit_oracles_agree_with_closed_forms(m_ref, e_ref):
    # the M oracle Richardson-steps across two decade windows, so its anchor
    # must leave x_hi / 100 >= 1e5
    m_est = constants.meissel_mertens_limit(1e7)
    assert abs(m_est - m_ref) <= 1e-6
    e_est = constants.mertens_e_limit(1e6)
    assert abs(e_est - e_ref) <= 1e-5
    with pytest.raises(GridError):
        constants.meissel_mertens_limit(1e4)


# Values computed before the prime sums moved to the shared reducer in
# accum: the move must leave each value bit-identical, and a tail bound may
# only grow, by the per-term formation allowance (every mass here is < 1).
# The cuts are the ones the prime-sum route used by default.  M and E were
# frozen again when their prime-sum route took the decimal gamma in place
# of a float harmonic sum: each value moved by 8.35e-13, inside the old
# bound (1.0e-8 and 1.0e-7), and each bound shrank by that sum's 8.4e-13.
# M and E were frozen again when every prime walk took segments of 2^19
# numbers (was 2^20): M's value moved by one ulp (5.6e-17), E's not at all,
# and their bounds shrank by 7.0e-17 and 1.7e-16 (fewer terms per pairwise
# partial).  C_Q's bounds shrank too, and stay above the older values here.
# The prime sums of M and E are the constants-stability check's references
# (`checks._mertens_prime_sums`); C_Q's is its prime-sum fallback.
_FROZEN_PRIME_SUMS = {
    "M": (lambda cut: _mertens_prime_sum(0, cut), constants.meissel_mertens,
          "0x1.0bc5ecede6604p-2", "0x1.5798f25dbec82p-27", 50_000_000),
    "E": (lambda cut: _mertens_prime_sum(1, cut), constants.mertens_e,
          "-0x1.55241c9828278p+0", "0x1.ad7f2addbfcfap-24", 201_198_002),
    "C_Q[euler_phi]": (lambda cut: constants._c_q_at(builtin("euler_phi"), cut, False),
                       lambda: constants.c_q(builtin("euler_phi")),
                       "-0x1.28fd6d474160dp-1", "0x1.5798f4ceb9f7fp-27", 200_000_000),
    "C_Q[sigma]": (lambda cut: constants._c_q_at(builtin("sigma"), cut, False),
                   lambda: constants.c_q(builtin("sigma")),
                   "0x1.893f73c97255dp-2", "0x1.5798f28d9f307p-27", 200_000_000),
}


@pytest.mark.parametrize("name", sorted(_FROZEN_PRIME_SUMS))
def test_prime_sum_constants_frozen(name):
    prime_sum, prime_zeta, value, tail, cut = _FROZEN_PRIME_SUMS[name]
    cv = prime_sum(cut)
    assert cv.method == "prime-sum" and cv.param("p_cut") == cut
    assert cv.value == float.fromhex(value)
    growth = cv.tail_bound - float.fromhex(tail)
    assert 0.0 <= growth <= FORM_ULPS * EPS
    # the prime-zeta value moves only within the prime-sum bound
    new = prime_zeta()
    assert new.method == "prime-zeta"
    assert abs(new.value - cv.value) <= cv.tail_bound


def test_limit_oracles_frozen():
    assert constants.meissel_mertens_limit(1e7) == float.fromhex("0x1.0bc5e5ade4e63p-2")
    assert constants.mertens_e_limit(1e6) == float.fromhex("-0x1.5523fb403e968p+0")


def test_limit_oracles_share_one_walk_per_anchor(monkeypatch):
    # E's upper-window sum is a channel of M's walk at the same anchor
    from primemean import accum

    calls = []
    stream_segmented = accum.stream_segmented

    def counted(lo, hi, *args, **kwargs):
        calls.append(hi)
        return stream_segmented(lo, hi, *args, **kwargs)

    monkeypatch.setattr(accum, "stream_segmented", counted)
    constants._window_sums.cache_clear()
    constants.meissel_mertens_limit(1e7)
    e_shared = constants.mertens_e_limit(1e7)
    assert calls == [10 ** 7]
    constants._window_sums.cache_clear()
    assert constants.mertens_e_limit(1e7) == e_shared


def test_cq_model_file_is_bitwise_builtin(tmp_path):
    path = tmp_path / "shifted.model"
    path.write_text("name = shifted\nd = 1\nalpha = 1\ndelta = 1\nK = 1\n"
                    "fp = p + 1\nstrongly_multiplicative = true\n")
    assert constants.c_q(load_model_file(str(path))) == constants.c_q(builtin("sigma"))


def test_cq_model_file_matches_prime_zeta_series(tmp_path):
    # f(p) = (2p + 3)(2p - 1)/4 = p^2 (1 + 3/(2p)) (1 - 1/(2p)), and
    # sum_p log(1 + c/p)/p = sum_{k>=1} (-1)^(k+1) c^k P(k+1)/k
    path = tmp_path / "custom.model"
    path.write_text("name = custom\nd = 2\nalpha = 1\ndelta = 1\nK = 9\n"
                    "fp = (2 * p + 3) * (2 * p - 1) / 4\n"
                    "strongly_multiplicative = true\n")
    model = load_model_file(str(path))
    with mpmath.workdps(30):
        want = float(mpmath.fsum(
            (-1) ** (k + 1) * c ** k * mpmath.primezeta(k + 1) / k
            for c in (mpmath.mpf(3) / 2, -mpmath.mpf(1) / 2)
            for k in range(1, 300)))
    got = constants.c_q(model, target_precision=1.2e-5)
    assert abs(got.value - want) <= got.tail_bound + 1e-12
    rho = constants.rho_f(model, target_precision=1.2e-5)
    assert abs(rho.value - math.exp(want)) <= rho.tail_bound + 1e-12


# --------------------------------------------------------------------------
# C_Q of rational models against an mpmath prime-zeta oracle
# --------------------------------------------------------------------------

_ORACLE_P0 = 64
_ORACLE_PRIMES = [p for p in range(2, _ORACLE_P0 + 1)
                  if all(p % q for q in range(2, int(p ** 0.5) + 1))]


@functools.lru_cache(maxsize=None)
def _prime_zeta_above(s: int):
    """sum_{p > 64} p^-s from mpmath's prime zeta function, at 50 digits."""
    with mpmath.workdps(50):
        return mpmath.primezeta(s) - mpmath.fsum(mpmath.mpf(p) ** -s for p in _ORACLE_PRIMES)


def _cq_oracle(num, den):
    """C_Q of f(p) = prod_num (c p + b) / prod_den (c p + b), alpha = prod c.

    Primes up to 64 directly; above them each factor contributes
    (1/p) log(1 + r/p) = sum_k (-1)^(k+1) r^k/k p^-(k+1), r = b/c, |r| < 8.
    A factor may be negative at a small prime while f(p) > 0, so the direct
    part sums log|1 + r/p|.
    """
    with mpmath.workdps(50):
        factors = [(c, b, 1) for c, b in num] + [(c, b, -1) for c, b in den]
        direct = mpmath.fsum(
            sign * mpmath.log(abs(1 + mpmath.mpf(b) / (c * p))) / p
            for p in _ORACLE_PRIMES for c, b, sign in factors)
        tail = mpmath.fsum(
            sign * (-1) ** (k + 1) * (mpmath.mpf(b) / c) ** k / k * _prime_zeta_above(k + 1)
            for c, b, sign in factors for k in range(1, 60))
        return direct + tail


def _factor_text(c: int, b: int) -> str:
    lead = "p" if c == 1 else f"{c} * p"
    return f"({lead} {'+' if b >= 0 else '-'} {abs(b)})"


def _write_model(path, num, den, k_bound=1e6):
    alpha = math.prod(c for c, _ in num) / math.prod(c for c, _ in den)
    fp = " * ".join(_factor_text(c, b) for c, b in num)
    if den:
        fp = f"{fp} / ({' * '.join(_factor_text(c, b) for c, b in den)})"
    path.write_text(f"name = drawn\nd = {len(num) - len(den)}\nalpha = {alpha!r}\n"
                    f"delta = 1\nK = {k_bound:g}\nfp = {fp}\n"
                    "strongly_multiplicative = true\n")
    return str(path)


def _phi_sigma_jordan2_refs():
    with mpmath.workdps(40):
        pz = [None, None] + [mpmath.primezeta(s) for s in range(2, 200)]
        return {
            "euler_phi": -mpmath.fsum(pz[k + 1] / k for k in range(1, 130)),
            "sigma": mpmath.fsum((-1) ** (k + 1) * pz[k + 1] / k for k in range(1, 130)),
            "jordan_2": -mpmath.fsum(pz[2 * k + 1] / k for k in range(1, 90)),
        }


def test_cq_builtins_certified_to_40_digits():
    for name, ref in _phi_sigma_jordan2_refs().items():
        cv = constants.c_q(builtin(name))
        assert cv.method == "prime-zeta", name
        assert cv.tail_bound <= 1e-14, name
        assert _within(cv, ref), name


@pytest.mark.parametrize("a,b", [(5, 5), (-3, 5), (-3, -3), (1, -1), (3, -1)])
def test_cq_benchmark_model_certified(tmp_path, a, b):
    # the benchmark's (2p + a)(2p + b)/4
    model = load_model_file(_write_model(tmp_path / "bench.model",
                                         [(2, a), (2, b)], [(4, 0)], k_bound=9))
    cv = constants.c_q(model)
    assert cv.method == "prime-zeta" and cv.tail_bound <= 1e-14
    assert _within(cv, _cq_oracle([(2, a), (2, b)], [(4, 0)]))


_FACTOR = st.one_of(st.tuples(st.just(1), st.integers(-3, 6)),
                    st.tuples(st.sampled_from([2, 4]), st.integers(-5, 7)))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(num=st.lists(_FACTOR, min_size=1, max_size=3),
       den=st.lists(_FACTOR, max_size=2))
def test_cq_drawn_model_files_match_prime_zeta_oracle(tmp_path, num, den):
    # repeated and negative roots come from repeated draws and negative b
    try:
        model = load_model_file(_write_model(tmp_path / "drawn.model", num, den))
    except ModelSpecError:
        return                                  # exit 2 at load
    cv = constants.c_q(model)
    assert cv.method == "prime-zeta"
    assert _within(cv, _cq_oracle(num, den)), (num, den, cv)


def _cq_oracle_far(log_ratio, coeff, kmax):
    """C_Q = sum_{p<=1024} log_ratio(p)/p + sum_{k<=kmax} coeff(k) P_{>1024}(k+1).

    For roots of N and D up to 128: coeff(k) p^-k is the expansion of
    log_ratio(p) above them, and its terms fall like 8^-k at p > 1024.
    """
    with mpmath.workdps(120):
        primes = [p for p in range(2, 1025) if all(p % q for q in range(2, int(p ** .5) + 1))]
        direct = mpmath.fsum(log_ratio(mpmath.mpf(p)) / p for p in primes)
        tail = mpmath.fsum(
            coeff(k) * (mpmath.primezeta(k + 1)
                        - mpmath.fsum(mpmath.mpf(p) ** -(k + 1) for p in primes))
            for k in range(1, kmax + 1))
        return direct + tail


_FAR_ROOTS = {
    # name: (d, delta, K, fp, log(f(p)/p^d), its k-th coefficient)
    "p+13": (1, 1, 13, "p + 13", lambda p: mpmath.log(1 + 13 / p),
             lambda k: (-1) ** (k + 1) * mpmath.mpf(13) ** k / k),
    "p+100": (1, 1, 100, "p + 100", lambda p: mpmath.log(1 + 100 / p),
              lambda k: (-1) ** (k + 1) * mpmath.mpf(100) ** k / k),
    "p+127": (1, 1, 127, "p + 127", lambda p: mpmath.log(1 + 127 / p),
              lambda k: (-1) ** (k + 1) * mpmath.mpf(127) ** k / k),
    "(p+15)^4": (4, 1, 2e5, "(p + 15)^4", lambda p: 4 * mpmath.log(1 + 15 / p),
                 lambda k: 4 * (-1) ** (k + 1) * mpmath.mpf(15) ** k / k),
    # Fujiwara bound 126.5: the largest root bound of a model taking the series
    "p^2+8000": (2, 2, 8000, "p^2 + 8000", lambda p: mpmath.log(1 + 8000 / p ** 2),
                 lambda k: 0 if k % 2 else (-1) ** (k // 2 + 1) * mpmath.mpf(8000) ** (k // 2)
                 / (k // 2)),
}


@pytest.mark.parametrize("name", sorted(_FAR_ROOTS))
def test_cq_large_roots_certified(tmp_path, name):
    # root bounds from 13 to 126.5 take the series with P = 8R up to 1012;
    # each zeta(t) then sums n < P/4 directly, so its Euler-Maclaurin
    # remainder, weighted by w_t ~ R^t, still falls like 2^-t
    d, delta, k_bound, fp, log_ratio, coeff = _FAR_ROOTS[name]
    path = tmp_path / "far.model"
    path.write_text(f"name = far\nd = {d}\nalpha = 1\ndelta = {delta}\nK = {k_bound:g}\n"
                    f"fp = {fp}\nstrongly_multiplicative = true\n")
    model = load_model_file(str(path))
    cv = constants.c_q(model)
    assert cv.method == "prime-zeta" and cv.param("p_cut") > constants.ZETA_P
    assert cv.tail_bound <= 1e-14
    assert _within(cv, _cq_oracle_far(log_ratio, coeff, 60))


def test_cq_falls_back_to_prime_sums(tmp_path):
    # a leading coefficient that is not a double: alpha is only its rounding
    third = tmp_path / "third.model"
    third.write_text("name = third\nd = 1\nalpha = 0.3333333333333333\ndelta = 1\n"
                     "K = 1\nfp = p / 3\nstrongly_multiplicative = true\n")
    cv = constants.c_q(load_model_file(str(third)), 1e-3)
    assert cv.method == "prime-sum" and cv.tail_bound <= 1e-3
    # roots far out: Fujiwara's bound 2000 is above _MAX_ROOT_BOUND; the cut
    # makes the tail 2K/P at most 99% of the target
    far = load_model_file(_write_model(tmp_path / "far.model", [(1, 1000)], [], 1000))
    cv = constants.c_q(far, 1e-2)
    assert cv.method == "prime-sum" and cv.param("p_cut") == 202_021
    assert cv.tail_bound <= 1e-2
    # a cut beyond the sieve bound raises before any prime is summed
    with pytest.raises(PrecisionError, match="beyond the sieve bound") as err:
        constants.c_q(far, 1e-9)
    assert err.value.achievable == pytest.approx(2e-6)


def test_cq_rejects_a_model_negative_at_a_small_prime(tmp_path, capsys):
    # (p - 16)(p - 18) < 0 at p = 17, positive at every prime the loader checks
    path = _write_model(tmp_path / "dip.model", [(1, -16), (1, -18)], [], 200)
    with pytest.raises(ModelSpecError, match="not positive at p=17"):
        constants.c_q(load_model_file(path))
    from primemean.cli import main
    assert main(["constants", "--model", path]) == 2
    assert "not positive at p=17" in capsys.readouterr().err
