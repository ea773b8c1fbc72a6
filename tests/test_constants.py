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

import math

import mpmath
import pytest
from mpmath import mp

from primemean import constants
from primemean.accum import EPS, FORM_ULPS
from primemean.errors import GridError, PrecisionError
from primemean.multfunc import builtin, load_model_file

mp.dps = 30


@pytest.fixture(scope="module")
def gamma_ref():
    return float(+mp.euler)


@pytest.fixture(scope="module")
def m_ref():
    return float(+mpmath.mertens)


@pytest.fixture(scope="module")
def e_ref(gamma_ref):
    b = mpmath.fsum(-mpmath.diff(mpmath.primezeta, k) for k in range(2, 90))
    return float(-mp.euler - b)


def test_euler_gamma_certified(gamma_ref):
    g = constants.euler_gamma()
    assert abs(g.value - gamma_ref) <= g.tail_bound + 1e-15
    assert g.tail_bound <= 1e-12
    assert round(g.value, 6) == 0.577216


def test_meissel_mertens_certified(m_ref):
    m = constants.meissel_mertens()
    assert abs(m.value - m_ref) <= m.tail_bound + 1e-13
    assert m.tail_bound <= 1.1e-8
    assert round(m.value, 6) == 0.261497


def test_mertens_e_certified(e_ref):
    e = constants.mertens_e()
    assert abs(e.value - e_ref) <= e.tail_bound + 1e-13
    assert e.tail_bound <= 1.1e-7
    assert round(e.value, 6) == -1.332582


def test_tighter_precision_tightens_m(m_ref):
    loose = constants.meissel_mertens(1e-6)
    tight = constants.meissel_mertens(1e-8)
    # the certified bound adds a float-accumulation allowance on top of the
    # requested analytic tail, so compare against a whisker above the target
    assert loose.tail_bound <= 1.01e-6 and tight.tail_bound <= 1.01e-8
    assert tight.param("p_cut") > loose.param("p_cut")
    assert abs(tight.value - m_ref) <= tight.tail_bound


def test_doubling_moves_less_than_tail():
    for make in (constants.euler_gamma, constants.meissel_mertens,
                 constants.mertens_e):
        base = make()
        doubled = make(truncation_override=2 * int(base.param(
            "n" if "harmonic" in base.method else "p_cut")))
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


def test_saffari_a_doubling_stability():
    for j in (1, 4, 8):
        base = constants.saffari_a(j)
        doubled = constants.saffari_a(
            j, truncation_override=2 * int(base.param("t_cut")))
        assert abs(doubled.value - base.value) < base.tail_bound

    with pytest.raises(GridError):
        constants.saffari_a(0)
    with pytest.raises(GridError):
        constants.saffari_a(9)


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


def test_precision_floors_raise():
    with pytest.raises(PrecisionError) as err:
        constants.euler_gamma(1e-14)
    assert err.value.achievable is not None
    with pytest.raises(PrecisionError, match="meissel_mertens"):
        constants.meissel_mertens(1e-11)
    with pytest.raises(PrecisionError, match="mertens_e"):
        constants.mertens_e(1e-9)


def test_zeta_zero_ordinates_rederived():
    for i, frozen in enumerate(constants.ZETA_ZERO_ORDINATES, start=1):
        assert abs(float(mpmath.zetazero(i).imag) - frozen) < 1e-11


def test_limit_oracles_agree_with_closed_forms(m_ref, e_ref):
    # the M oracle Richardson-steps across two windows, so its anchor must
    # leave x_hi / ratio^2 >= 1e5
    m_est = constants.meissel_mertens_limit(1e7, 10.0)
    assert abs(m_est - m_ref) <= 1e-6
    e_est = constants.mertens_e_limit(1e6, 10.0)
    assert abs(e_est - e_ref) <= 1e-5
    with pytest.raises(GridError):
        constants.meissel_mertens_limit(1e4)
    with pytest.raises(GridError):
        constants.mertens_e_limit(1e6, 1.5)


# Values computed before the prime sums moved to the shared reducer in
# accum: the move must leave each value bit-identical, and a tail bound may
# only grow, by the per-term formation allowance (every mass here is < 1).
_FROZEN_PRIME_SUMS = {
    "M": (constants.meissel_mertens, (),
          "0x1.0bc5ecede2b41p-2", "0x1.57a04eeddef94p-27"),
    "E": (constants.mertens_e, (),
          "-0x1.55241c98273c8p+0", "0x1.ad80165aa9703p-24"),
    "C_Q[euler_phi]": (constants.c_q, ("euler_phi",),
                       "-0x1.28fd6d474160dp-1", "0x1.5798f4ceb9f7fp-27"),
    "C_Q[sigma]": (constants.c_q, ("sigma",),
                   "0x1.893f73c97255dp-2", "0x1.5798f28d9f307p-27"),
}


@pytest.mark.parametrize("name", sorted(_FROZEN_PRIME_SUMS))
def test_prime_sum_constants_frozen(name):
    fn, models, value, tail = _FROZEN_PRIME_SUMS[name]
    cv = fn(*map(builtin, models))
    assert cv.value == float.fromhex(value)
    growth = cv.tail_bound - float.fromhex(tail)
    assert 0.0 <= growth <= FORM_ULPS * EPS


def test_limit_oracles_frozen():
    assert constants.meissel_mertens_limit(1e7) == float.fromhex("0x1.0bc5e5ade4e4ep-2")
    assert constants.mertens_e_limit(1e6) == float.fromhex("-0x1.5523fb403e970p+0")


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
