"""Built-in multiplicative functions against per-integer brute oracles."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primemean.accum import FORM_ULPS
from primemean.errors import GridError, ModelSpecError
from primemean.multfunc import (BUILTIN_NAMES, MAX_EXPONENT, _log_exact, builtin,
                                error_profile_check, load_model_file,
                                log_ratio_prime_power, parse_expression,
                                value_at)
from primemean.sieve import factorize, primes_up_to

# ---------------------------------------------------------------------------
# oracles: definitions straight from the divisor/coprimality definitions,
# no shared code with the package implementations
# ---------------------------------------------------------------------------


def phi_oracle(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def sigma_oracle(n: int) -> int:
    return sum(divisors(n))


def tau_oracle(n: int) -> int:
    return len(divisors(n))


def prime_divisors(n: int) -> list[int]:
    out = []
    for p in range(2, n + 1):
        if n % p == 0:
            is_p = all(p % q for q in range(2, p))
            if is_p:
                out.append(p)
    return out


def kappa_oracle(n: int) -> int:
    prod = 1
    for p in prime_divisors(n):
        prod *= p
    return prod


def two_omega_oracle(n: int) -> int:
    return 2 ** len(prime_divisors(n))


def jordan2_oracle(n: int) -> int:
    # J_2(n) = #{(a,b) in [1,n]^2 : gcd(a,b,n) = 1}
    return sum(1 for a in range(1, n + 1) for b in range(1, n + 1)
               if math.gcd(math.gcd(a, b), n) == 1)


ORACLES = {
    "kappa": kappa_oracle,
    "two_omega": two_omega_oracle,
    "euler_phi": phi_oracle,
    "sigma": sigma_oracle,
    "divisor_d": tau_oracle,
}


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_value_at_matches_oracle(name, table5k):
    model = builtin(name)
    oracle = ORACLES[name]
    for n in range(1, 401):
        want = oracle(n)
        got = value_at(model, n, table5k)
        assert got.value == want
        assert got.log_value == pytest.approx(math.log(want), abs=1e-12)


def test_jordan2_matches_counting_oracle(table5k):
    model = builtin("jordan_2")
    for n in range(1, 61):
        want = jordan2_oracle(n)
        got = value_at(model, n, table5k)
        assert got.value == want


def test_value_at_one_is_empty_product(table5k):
    for name in ("kappa", "sigma", "jordan_3"):
        v = value_at(builtin(name), 1, table5k)
        assert v.value == 1.0 and v.log_value == 0.0
    with pytest.raises(GridError):
        value_at(builtin("kappa"), 0, table5k)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 80), n=st.integers(2, 60),
       name=st.sampled_from(sorted(ORACLES) + ["jordan_2"]))
def test_multiplicative_on_coprime_pairs(m, n, name, table5k):
    if math.gcd(m, n) != 1:
        return
    model = builtin(name)
    fm = value_at(model, m, table5k)
    fn = value_at(model, n, table5k)
    fmn = value_at(model, m * n, table5k)
    assert fmn.value == fm.value * fn.value
    assert fmn.log_value == pytest.approx(fm.log_value + fn.log_value,
                                          abs=1e-12)


def test_builtin_profiles():
    # (d, alpha, delta, K, strongly) as advertised per model
    profiles = {
        "kappa": (1.0, 1.0, math.inf, 0.0, True),
        "two_omega": (0.0, 2.0, math.inf, 0.0, True),
        "euler_phi": (1.0, 1.0, 1.0, 1.0, False),
        "sigma": (1.0, 1.0, 1.0, 1.0, False),
        "divisor_d": (0.0, 2.0, math.inf, 0.0, False),
        "jordan_2": (2.0, 1.0, 2.0, 1.0, False),
        "jordan_5": (5.0, 1.0, 5.0, 1.0, False),
    }
    for name, (d, alpha, delta, k, strong) in profiles.items():
        m = builtin(name)
        assert (m.d, m.alpha, m.delta, m.k_bound,
                m.strongly_multiplicative) == (d, alpha, delta, k, strong)
        k_hat, ok = error_profile_check(m, 10 ** 4)
        assert ok, f"{name}: measured K_hat {k_hat} exceeds bound {k}"


def test_builtin_rejects_unknown():
    with pytest.raises(ModelSpecError):
        builtin("mobius")
    with pytest.raises(ModelSpecError):
        builtin("jordan_0")


def test_log_ratio_prime_power_rules():
    kappa = builtin("kappa")
    sigma = builtin("sigma")
    assert log_ratio_prime_power(kappa, 3, 5) == 0.0  # strongly multiplicative
    # sigma(3^3)/sigma(3^2) = 40/13
    assert log_ratio_prime_power(sigma, 3, 3) == pytest.approx(
        math.log(40 / 13), abs=1e-12)
    with pytest.raises(GridError):
        log_ratio_prime_power(sigma, 3, 1)


def test_prime_power_values_consistent(table5k):
    # f(p^a) from the model's prime-power rule equals value_at's factor route
    for name in ("sigma", "divisor_d", "jordan_2", "euler_phi"):
        model = builtin(name)
        for p in (2, 3, 5, 13):
            for a in (1, 2, 3, 4):
                if p ** a > table5k.limit:
                    continue
                direct = model.value_at_prime_power(p, a)
                via_table = value_at(model, p ** a, table5k).value
                assert float(direct) == via_table
                assert math.prod(
                    q ** e for q, e in factorize(p ** a, table5k)) == p ** a


# ---------------------------------------------------------------------------
# declarative model files
# ---------------------------------------------------------------------------


SHIFTED = """\
# strongly multiplicative: f(p^a) = p + 1 for every a
name = shifted
d = 1
alpha = 1
delta = 1
K = 1
fp = p + 1
strongly_multiplicative = true
"""


def test_load_model_file_roundtrip(tmp_path, table5k):
    path = tmp_path / "shifted.model"
    path.write_text(SHIFTED)
    model = load_model_file(str(path))
    assert model.name == "shifted"
    assert model.strongly_multiplicative
    # f(12) = f(4) f(3) = f(2) f(3) = 3 * 4
    assert value_at(model, 12, table5k).value == 12.0
    assert value_at(model, 8, table5k).value == 3.0


def test_load_model_file_with_prime_power_rule(tmp_path, table5k):
    path = tmp_path / "custom.model"
    path.write_text(
        "name = sigma_like\nd = 1\nalpha = 1\ndelta = 1\nK = 1\n"
        "fp = p + 1\nfpa = (p^(a+1) - 1) / (p - 1)\n")
    model = load_model_file(str(path))
    assert value_at(model, 9, table5k).value == 13.0  # 1 + 3 + 9


@pytest.mark.parametrize("body,fragment", [
    ("name = x\nd = 1\nalpha = 1\ndelta = 1\nK = 1\n", "missing"),
    ("name = 7x\nd = 1\nalpha = 1\ndelta = 1\nK = 1\nfp = p\n"
     "strongly_multiplicative = true\n", "identifier"),
    ("name = x\nd = 1\nalpha = 1\ndelta = 1\nK = 1\nfp = p - 3\n"
     "strongly_multiplicative = true\n", "not positive"),
    ("name = x\nd = 1\nalpha = 1\ndelta = 1\nK = 1\nfp = p +\n"
     "strongly_multiplicative = true\n", "expression"),
    ("name = x\nd = 1\nalpha = 1\ndelta = 1\nK = 1\nfp = a * p\n"
     "strongly_multiplicative = true\n", "'a' is not allowed"),
    ("name = x\nd = 1\nalpha = 1\ndelta = 1\nK = 1\nfp = p\nfp = p\n"
     "strongly_multiplicative = true\n", "duplicate"),
    ("name = x\nd = 1\nalpha = 1\ndelta = inf\nK = 0\nfp = p + 1\n"
     "strongly_multiplicative = true\n", "growth profile"),
    # alpha is 1/3 rounded to a double, so K_hat exceeds K = 1 by 1.85e-12:
    # both numbers are printed in full
    ("name = x\nd = 1\nalpha = 0.3333333333333333\ndelta = 1\nK = 1\nfp = p/3 + 1\n"
     "strongly_multiplicative = true\n",
     r"measured K_hat = 1\.0000000000018503 exceeds declared K = 1\.0$"),
])
def test_load_model_file_rejects(tmp_path, body, fragment):
    path = tmp_path / "bad.model"
    path.write_text(body)
    with pytest.raises(ModelSpecError, match=fragment):
        load_model_file(str(path))


def test_expression_grammar_exact():
    expr = parse_expression("(p^2 - 1) / (p - 1)")
    assert expr.rational(None)(7) == Fraction(48, 6) == 8
    assert parse_expression("2^3^2").rational(None)(2) == 2 ** 9  # right-assoc
    assert parse_expression("-p + 10").rational(None)(3) == 7
    with pytest.raises(ModelSpecError):
        parse_expression("p ** 2")
    with pytest.raises(ModelSpecError):
        parse_expression("(p + 1")


def test_builtin_names_exported():
    for name in BUILTIN_NAMES:
        if "<" in name:  # the jordan_<k> family placeholder
            continue
        assert builtin(name).name == name


SIGMA_LIKE = ("name = sigma_like\nd = 1\nalpha = 1\ndelta = 1\nK = 1\n"
              "fp = p + 1\nfpa = (p^(a+1) - 1) / (p - 1)\n")
DIVISOR_LIKE = ("name = divisor_like\nd = 0\nalpha = 2\ndelta = inf\nK = 0\n"
                "fp = 2\nfpa = a + 1\n")


def test_prime_power_log_ratios_within_form_ulps(tmp_path):
    # every p^a <= 1e8 with a >= 2, against mpmath; the engine charges each
    # term FORM_ULPS ulps of formation rounding
    models = [builtin(name) for name in (
        "kappa", "two_omega", "euler_phi", "sigma", "divisor_d",
        "jordan_2", "jordan_3", "jordan_5")]
    for i, body in enumerate((SIGMA_LIKE, DIVISOR_LIKE)):
        path = tmp_path / f"m{i}.model"
        path.write_text(body)
        models.append(load_model_file(str(path)))
    powers = [(p, a) for p in primes_up_to(10 ** 4).tolist()
              for a in range(2, 28) if p ** a <= 10 ** 8]
    assert len(powers) == 1404
    with mpmath.workdps(40):
        for model in models:
            worst = 0.0
            for p, a in powers:
                got = log_ratio_prime_power(model, p, a)
                q = (Fraction(model.value_at_prime_power(p, a))
                     / model.value_at_prime_power(p, a - 1))
                want = mpmath.log(mpmath.mpf(q.numerator) / q.denominator)
                if want == 0:
                    assert got == 0.0
                    continue
                worst = max(worst, float(abs(got - want)) / math.ulp(float(want)))
            assert worst <= FORM_ULPS, (model.name, worst)


# f(p^a) = (a + 2) (p + 1) / 3: ratios (a + 2) / (a + 1) near 1, never integers
SLOW_POWERS = ("name = slow_powers\nd = 1\nalpha = 1\ndelta = 1\nK = 1\n"
               "fp = p + 1\nfpa = (a + 2) * (p + 1) / 3\n")
# f(p^a) = p^(60 a) a / (a + 1): ratios p^60 a^2 / (a^2 - 1) of ~1000 bits
# and more once p > 2^16.6
STEEP_POWERS = ("name = steep_powers\nd = 60\nalpha = 0.5\ndelta = 1\nK = 0\n"
                "fp = p^60 / 2\nfpa = p^(60 * a) * a / (a + 1)\n")


def test_prime_power_log_ratios_match_the_fraction_formula(tmp_path):
    # the ratio from unreduced integers takes the log the exact Fraction
    # would, bit for bit: every built-in, jordan_5, and files whose ratios
    # are not integers (SIGMA_LIKE, SLOW_POWERS) or whose reduced bit
    # lengths straddle the last branch's 1000 (STEEP_POWERS)
    models = [builtin(name) for name in (
        "kappa", "two_omega", "euler_phi", "sigma", "divisor_d", "jordan_2", "jordan_5")]
    for i, body in enumerate((SIGMA_LIKE, SLOW_POWERS, STEEP_POWERS)):
        path = tmp_path / f"m{i}.model"
        path.write_text(body)
        models.append(load_model_file(str(path)))
    powers = [(p, a) for p in primes_up_to(10 ** 4).tolist()
              for a in range(2, 40) if p ** a <= 10 ** 12]
    assert len(powers) == 2801
    # the steep model's degree 60 a stays within MAX_EXPONENT for a <= 4
    steep = [(p, a) for p in primes_up_to(120000).tolist() for a in (2, 3, 4)
             if p < 100 or 98000 < p < 110000]
    widths = set()
    for model in models:
        for p, a in steep if model.name == "steep_powers" else powers:
            got = log_ratio_prime_power(model, p, a)
            q = Fraction(model._rat(a)(p)) / model._rat(a - 1)(p)
            want = 0.0 if model.strongly_multiplicative else _log_exact(q)
            assert got.hex() == want.hex(), (model.name, p, a)
            widths.add(q.numerator.bit_length() - q.denominator.bit_length())
    assert {999, 1000, 1001} <= widths


@pytest.mark.parametrize("body,fragment", [
    ("d = 2\nalpha = 1\ndelta = 1\nK = 1\nfp = p + 1", "expected d = 1"),
    ("d = 1\nalpha = 2\ndelta = 1\nK = 1\nfp = p + 1", "expected alpha = 1.0"),
    ("d = 0\nalpha = 0.333\ndelta = 1\nK = 1\nfp = (p + 1) / (3 * p)",
     "expected alpha = 0.3333333333333333"),
    ("d = 1\nalpha = 1\ndelta = inf\nK = 0\nfp = p + 1", "expected a finite delta"),
    ("d = 1000000\nalpha = 1\ndelta = 1\nK = 1\nfp = p^1000000", "MAX_EXPONENT"),
    ("d = 300\nalpha = 1\ndelta = 1\nK = 1\nfp = (p^150)^2", "MAX_EXPONENT"),
    ("d = 1\nalpha = 1\ndelta = 1\nK = 1\nfp = 2^p", "must not depend on p"),
    ("d = 0\nalpha = 1\ndelta = 1\nK = 1\nfp = 1 + 1 / (p - 99991)", "pole"),
])
def test_load_model_file_rejects_unmeetable_profiles(tmp_path, body, fragment):
    path = tmp_path / "bad.model"
    path.write_text(f"name = x\n{body}\nstrongly_multiplicative = true\n")
    with pytest.raises(ModelSpecError, match=fragment):
        load_model_file(str(path))


def test_exponent_cap_applies_to_builtins():
    assert builtin(f"jordan_{MAX_EXPONENT}").d == MAX_EXPONENT
    with pytest.raises(ModelSpecError, match="MAX_EXPONENT"):
        builtin(f"jordan_{MAX_EXPONENT + 1}")
    # jordan_5's f(p^a) at the largest power of 2 below the sieve bound
    assert builtin("jordan_5").value_at_prime_power(2, 29) == 2 ** 140 * 31


def test_hooks_finite_at_degree_cap():
    # p^256 overflows float64 at every p > 16, so only the 1/p form is finite
    model = builtin(f"jordan_{MAX_EXPONENT}")
    p = np.array([2.0, 3.0, 999_999_937.0])
    logp = np.log(p)
    q = model.log_q_ratio_vec(p, logp)
    lf = model.log_at_prime_vec(p, logp)
    assert np.isfinite(q).all() and np.isfinite(lf).all()
    assert q[0] == math.log1p(-2.0 ** -MAX_EXPONENT)
    assert lf[2] == pytest.approx(MAX_EXPONENT * logp[2], rel=1e-15)


def test_model_file_with_negative_degree(tmp_path):
    path = tmp_path / "neg.model"
    path.write_text("name = neg\nd = -1\nalpha = 1\ndelta = 1\nK = 1\n"
                    "fp = (p + 1) / p^2\nstrongly_multiplicative = true\n")
    model = load_model_file(str(path))
    assert model.value_at_prime(3) == Fraction(4, 9)
    p = np.array([2.0, 3.0, 1e6 + 3])
    logp = np.log(p)
    assert model.log_q_ratio_vec(p, logp).tolist() == np.log1p(1.0 / p).tolist()
    assert model.log_at_prime_vec(p, logp) == pytest.approx(np.log((p + 1) / p ** 2), rel=1e-15)


def test_hooks_reject_a_pole_beyond_the_load_checks(tmp_path):
    # D(p) vanishes at the prime 100003, above every prime checked at load
    path = tmp_path / "pole.model"
    path.write_text("name = pole\nd = 0\nalpha = 1\ndelta = 1\nK = 1e13\n"
                    "fp = p^2 / (p - 100003)^2\nstrongly_multiplicative = true\n")
    model = load_model_file(str(path))
    p = np.array([99991.0, 100003.0])
    for hook in (model.log_q_ratio_vec, model.log_at_prime_vec):
        with pytest.raises(ModelSpecError, match="pole at the prime 100003"):
            hook(p, np.log(p))


def test_cancelled_leading_terms_leave_the_degree(tmp_path):
    # the exact polynomials drop the zero coefficients a cancellation leaves
    path = tmp_path / "c.model"
    path.write_text("name = c\nd = 1\nalpha = 2\ndelta = 1\nK = 1\n"
                    "fp = (p + 1)^2 - p^2\nstrongly_multiplicative = true\n")
    model = load_model_file(str(path))
    assert model.fp.num == (1, 2) and model.fp.den == (1,)
    assert model.value_at_prime(7) == 15 and error_profile_check(model, 1000) == (1.0, True)


def _k_hat_by_fractions(model, p_max: int) -> float:
    """max |f(p) - alpha p^d| / p^(d - delta) over p <= p_max, in Fractions."""
    alpha = Fraction(model.alpha)
    return float(max(
        abs(Fraction(model.value_at_prime(p)) - alpha * Fraction(p) ** int(model.d))
        / Fraction(p) ** int(model.d - model.delta)
        for p in map(int, primes_up_to(p_max))))


@pytest.mark.parametrize("fp, d, delta, k", [
    ("p - 1", 1, 1, 1),                     # euler_phi
    ("p^2 - 1", 2, 2, 1),                   # jordan_2
    ("(2 * p + 3) * (2 * p - 1) / 4", 2, 1, 9),
    ("(p + 1) / p^2", -1, 1, 1),            # negative degree
    ("(p + 1)^256", 256, 1, 1e46),          # the degree cap
])
def test_k_hat_matches_exact_fractions(tmp_path, fp, d, delta, k):
    path = tmp_path / "m.model"
    path.write_text(f"name = m\nd = {d}\nalpha = 1\ndelta = {delta}\nK = {k}\n"
                    f"fp = {fp}\nstrongly_multiplicative = true\n")
    model = load_model_file(str(path))
    for p_max in (2, 1000):
        k_hat, ok = error_profile_check(model, p_max)
        assert k_hat == _k_hat_by_fractions(model, p_max) and ok


@pytest.mark.parametrize("fp, d", [
    ("p + 1000 * p / (p^2 + 5000)", 1),     # p joins the denominator; the max is at p = 41
    ("2 + 1 / (p + 1)", 0),                 # no integer power
    ("(p + 1) / p^2", -1),                  # p joins the numerator
])
def test_k_hat_at_half_integer_delta_matches_mpmath(tmp_path, fp, d):
    path = tmp_path / "m.model"
    alpha = 2 if d == 0 else 1
    path.write_text(f"name = m\nd = {d}\nalpha = {alpha}\ndelta = 0.5\nK = 1\n"
                    f"fp = {fp}\nstrongly_multiplicative = true\n")
    model = load_model_file(str(path))
    for p_max in (2, 1000):
        k_hat, ok = error_profile_check(model, p_max)
        with mpmath.workdps(40):
            ref = max(abs(mpmath.mpf(dev.numerator) / dev.denominator)
                      * mpmath.mpf(p) ** (mpmath.mpf(0.5) - d)
                      for p in map(int, primes_up_to(p_max))
                      for dev in [Fraction(model.value_at_prime(p)) - alpha * Fraction(p) ** d])
        assert ok and abs(k_hat - ref) <= 4 * math.ulp(float(ref)), (p_max, k_hat, ref)


@pytest.mark.parametrize("delta", ["2000", "2000.5", "1e9", "1000000000.5"])
def test_a_delta_past_the_double_range_fails_the_profile(tmp_path, delta):
    # |f(p) - p| p^(delta - 1) exceeds every double: K_hat = inf, with no
    # overflow escaping and no power p^(delta - 1) formed at delta = 1e9
    path = tmp_path / "m.model"
    path.write_text(f"name = m\nd = 1\nalpha = 1\ndelta = {delta}\nK = 1\n"
                    "fp = p + 1\nstrongly_multiplicative = true\n")
    with pytest.raises(ModelSpecError, match="measured K_hat = inf"):
        load_model_file(str(path))


@pytest.mark.parametrize("name", ["sigma", "euler_phi", "jordan_5"])
def test_the_prime_power_table_memoises_no_value(name):
    # the prime pass asks for f(p^a) once per prime power: nothing it
    # evaluates may stay in the model's memo
    from primemean.primesums import _prime_power_table
    from primemean.sieve import primes_up_to

    model = builtin(name)
    before = dict(model._values)
    pa, lr, _ = _prime_power_table(model, primes_up_to(10 ** 5), 10 ** 10)
    assert pa.size == lr.size > 9000
    assert model._values == before
