"""Positive multiplicative functions described by their prime-power values.

A model couples exact prime-power evaluation with the asymptotic profile
(d, alpha, delta) of its values at primes,

    f(p) = alpha * p**d + O(p**(d - delta)),

which is what the downstream prime-sum expansions consume.

Every model, built-in or file, is a spec in the model-file format below,
built by `_compile`.  The grammar only yields rational functions of p, so
``fp`` is evaluated once at a symbolic p to integer-coefficient N(p)/D(p),
every hook derives from them, and a spec must declare d = deg N - deg D
and alpha = lc(N)/lc(D) rounded to double.  `error_profile_check` measures
max |f(p) - alpha*p**d| / p**(d-delta) over an initial prime range against
the declared K (files are checked at load; the built-ins are trusted).
Exact values are Python integers / fractions, memoised per model.

The polynomials are tuples of Python ints, so compiling a model, and
loading a file, needs no numpy.  It is imported only by the float hooks,
which receive numpy arrays of primes from the prime pass, and by `value_at`.
"""

from __future__ import annotations

import ast
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Union

from .errors import GridError, ModelSpecError

if TYPE_CHECKING:
    import numpy as np

    from .sieve import SpfTable

Exact = Union[int, Fraction]

#: Names accepted by `builtin` (jordan_k for any integer k >= 1).
BUILTIN_NAMES = ("kappa", "two_omega", "euler_phi", "sigma", "divisor_d", "jordan_<k>")

#: Largest exponent a model expression may use, and largest degree in p its
#: numerator and denominator may reach.  jordan_5's f(p^a) has degree 145 at
#: p^a = 2^29, the largest power of 2 below the 1e9 sieve bound.
MAX_EXPONENT = 256

_M31 = 2 ** 31 - 1   # a prime; residues mod it of values at p < 2^30 stay in int64


def _log_exact(q: Exact) -> float:
    """log q within ~1 ulp (log1p of the exact q - 1 near 1), never overflowing."""
    if isinstance(q, int):
        return math.log(q)
    return _log_ratio(q.numerator, q.denominator)


def _log_ratio(num: int, den: int) -> float:
    """log(num / den) for den > 0, the same bits whether or not num / den is
    reduced: every branch reads the correctly rounded num / den, but for
    bit lengths 999 or more apart, where the reduced ones (within one of
    these) decide between it and log num - log den."""
    if num % den == 0:
        return math.log(num // den)
    if den < 2 * num and num < 2 * den:
        return math.log1p((num - den) / den)
    if abs(num.bit_length() - den.bit_length()) >= 999:
        g = math.gcd(num, den)
        num, den = num // g, den // g
        if abs(num.bit_length() - den.bit_length()) >= 1000:
            return math.log(num) - math.log(den)
    return math.log(num / den)


# --------------------------------------------------------------------------
# rational functions of p
# --------------------------------------------------------------------------

def _horner(coeffs, x):
    """coeffs[0] * x^k + ... + coeffs[k]; one coefficient comes back as is, no temporary."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


Poly = tuple  # integer coefficients, ascending, no trailing zeros (at least one)


def _poly(*coeffs: int) -> Poly:
    """Integer polynomial coefficients, ascending, trailing zeros dropped."""
    n = len(coeffs)
    while n > 1 and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    return _poly(*(x + y for x, y in zip(a, b)), *a[len(b):])


def _mul(a: Poly, b: Poly) -> Poly:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly(*out)


def _pow(a: Poly, e: int) -> Poly:
    out = (1,)
    for _ in range(e):
        out = _mul(out, a)
    return out


def _eval(c: Poly, x: int) -> int:
    """c(x) exactly, for an integer x."""
    return _horner(c[::-1], x)


def _check_degree(degree: int) -> None:
    if degree > MAX_EXPONENT:
        raise ModelSpecError(f"model expression reaches degree {degree} in p, "
                             f"above MAX_EXPONENT = {MAX_EXPONENT}")


class _Rat:
    """N(p)/D(p) with exact integer coefficients (`_poly`); degrees <= MAX_EXPONENT."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = _poly(1)):
        _check_degree(max(len(num), len(den)) - 1)
        self.num, self.den = num, den

    def __bool__(self) -> bool:
        return any(self.num)

    def __neg__(self) -> _Rat:
        return _Rat(tuple(-c for c in self.num), self.den)

    def __add__(self, other: _Rat) -> _Rat:
        return _Rat(_add(_mul(self.num, other.den), _mul(other.num, self.den)),
                    _mul(self.den, other.den))

    def __sub__(self, other: _Rat) -> _Rat:
        return self + -other

    def __mul__(self, other: _Rat) -> _Rat:
        return _Rat(_mul(self.num, other.num), _mul(self.den, other.den))

    def __truediv__(self, other: _Rat) -> _Rat:
        if not other:
            raise ModelSpecError("division by zero in model expression")
        return _Rat(_mul(self.num, other.den), _mul(self.den, other.num))

    def __pow__(self, exponent: _Rat) -> _Rat:
        if len(exponent.num) > 1 or len(exponent.den) > 1:
            raise ModelSpecError("exponents must not depend on p")
        e = Fraction(exponent.num[0], exponent.den[0])
        if e.denominator != 1:
            raise ModelSpecError("exponents must be integers")
        if abs(e) > MAX_EXPONENT:
            raise ModelSpecError(f"exponent {e} exceeds MAX_EXPONENT = {MAX_EXPONENT}")
        base = self if e >= 0 else _Rat(_poly(1)) / self
        _check_degree(abs(e) * (max(len(base.num), len(base.den)) - 1))
        return _Rat(*(_pow(c, abs(e.numerator)) for c in (base.num, base.den)))

    def degree(self) -> int:
        return len(self.num) - len(self.den)

    def leading(self) -> Fraction:
        return Fraction(self.num[-1], self.den[-1])

    def __call__(self, p: int) -> Exact:
        """The exact value at the integer p."""
        num, den = _eval(self.num, p), _eval(self.den, p)
        if den == 0:
            raise ModelSpecError("division by zero in model expression")
        q = Fraction(num, den)
        return q.numerator if q.denominator == 1 else q

    def log1p_vec(self, p: np.ndarray) -> np.ndarray:
        """log1p of this function, which must vanish as p -> inf, at float64 primes.

        Evaluated as p^-k hn(x) / hd(x), Horner forms in x = 1/p: no positive
        power of p is formed, so it is finite at every p >= 2 whatever the degree.
        """
        import numpy as np

        hn, hd = (_x_form(c, self.den[-1]) for c in (self.num, self.den))
        x = 1.0 / p
        k = -self.degree()
        u = x if k == 1 else p ** -float(k)
        u *= _horner(hn, x) / _horner(hd, x)
        return np.log1p(u, out=u)  # in place: a segment-sized temporary costs page faults


def _x_form(c: Poly, scale: int) -> list[float]:
    """Horner coefficients in x = 1/p of p^-deg c(p) / scale, zeros in front dropped."""
    try:
        x = [float(Fraction(ci, scale)) for ci in c]
    except OverflowError:
        raise ModelSpecError("model coefficients overflow float64") from None
    first = next(i for i, xi in enumerate(x) if xi)
    return x[first:]


_P = _Rat(_poly(0, 1))


def _relative_to_leading(c: Poly) -> _Rat:
    """c(p) / (c_n p^n) - 1 for the polynomial c of degree n."""
    lead = _Rat(_poly(*[0] * (len(c) - 1), c[-1]))
    return (_Rat(c) - lead) / lead


# --------------------------------------------------------------------------
# models
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PrimeModel:
    """A positive multiplicative function plus its growth profile.

    ``fp`` is f(p) as N(p)/D(p) and ``fpa`` the expression for f(p^a); the
    exact ``value_at_prime(p)`` and ``value_at_prime_power(p, a)`` must agree
    at a = 1 and stay positive.  ``delta = math.inf`` is the sentinel for an
    identically vanishing error term (f(p) == alpha * p**d exactly).

    The vectorised hooks sum log1p of exact rational functions that vanish
    at large p (`_Rat.log1p_vec`), so they are finite at every p >= 2:

    - ``log_at_prime_vec(p, logp)``: log f(p) = log c + d log p
      + log1p(N/(c_N p^deg N) - 1) - log1p(D/(c_D p^deg D) - 1), from N and
      D directly, so the ``direct`` cross-check of `sums_stream` stays an
      independent route;
    - ``log_q_ratio_vec(p, logp)``: log(f(p) / (alpha * p**d)) =
      log1p(R(p) / (alpha p^d D(p))) with R = N - alpha p^d D formed
      exactly, so the near-cancellation at large p costs a few ulps per term.
    """

    name: str
    d: float
    alpha: float
    delta: float
    k_bound: float
    strongly_multiplicative: bool
    fp: _Rat
    fpa: _Expr
    _rats: dict = field(init=False, repr=False)        # a -> f(p^a), None -> fp
    _values: dict = field(default_factory=dict, init=False, repr=False)
    _deviation: _Rat = field(init=False, repr=False)   # f(p) - alpha p^d, exact
    _q: _Rat = field(init=False, repr=False)           # f(p) / (alpha p^d) - 1, exact
    _log_c: float = field(init=False, repr=False)
    _log_terms: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (self.alpha > 0):
            raise ModelSpecError(f"model {self.name!r}: alpha must be positive")
        if not (self.delta > 0):
            raise ModelSpecError(f"model {self.name!r}: delta must be positive")
        if self.k_bound < 0:
            raise ModelSpecError(f"model {self.name!r}: k_bound must be >= 0")
        alpha_pd = _Rat(*map(_poly, self.alpha.as_integer_ratio())) * _P ** _Rat(_poly(int(self.d)))
        set_ = object.__setattr__
        set_(self, "_rats", {None: self.fp})
        set_(self, "_deviation", self.fp - alpha_pd)
        set_(self, "_q", self._deviation / alpha_pd)
        set_(self, "_log_c", _log_exact(self.fp.leading()))
        set_(self, "_log_terms", tuple(
            (op, _relative_to_leading(c))
            for op, c in ((operator.iadd, self.fp.num), (operator.isub, self.fp.den))
            if any(c[:-1])))

    def __repr__(self) -> str:  # keep float spam out of tracebacks
        return f"PrimeModel({self.name!r}, d={self.d:g}, alpha={self.alpha:g})"

    def value_at_prime(self, p: int) -> Exact:
        return self._value(p, None)

    def value_at_prime_power(self, p: int, a: int) -> Exact:
        return self._value(p, a)

    def _rat(self, a: Optional[int]) -> _Rat:
        """p -> f(p^a) as a rational function, built once per a; a = None is fp."""
        if a not in self._rats:
            self._rats[a] = self.fpa.rational(a)
        return self._rats[a]

    def _value(self, p: int, a: Optional[int]) -> Exact:
        """Exact f(p^a) from fpa, memoised; a = None evaluates fp."""
        v = self._values.get((p, a))
        if v is None:
            v = self._values[(p, a)] = self._rat(a)(int(p))
        return v

    def _check_no_pole(self, p: np.ndarray) -> None:
        """Raise if D vanishes at a prime of p: an exact test, residues mod 2^31 - 1 first."""
        if any(self.fp.den[:-1]):
            import numpy as np

            q, acc = p.astype(np.int64), 0
            for c in self.fp.den[::-1]:
                acc = (acc * q + c % _M31) % _M31
            for pole in q[acc == 0].tolist():
                if _eval(self.fp.den, pole) == 0:
                    raise ModelSpecError(f"model {self.name!r} has a pole at the prime {pole}")

    def log_at_prime_vec(self, p: np.ndarray, logp: np.ndarray) -> np.ndarray:
        self._check_no_pole(p)
        out = self.d * logp
        for op, rel in self._log_terms:
            out = op(out, rel.log1p_vec(p))   # in place
        out += self._log_c
        return out

    def log_q_ratio_vec(self, p: np.ndarray, logp: np.ndarray) -> np.ndarray:
        self._check_no_pole(p)
        if self._q:
            return self._q.log1p_vec(p)
        import numpy as np

        return np.zeros_like(logp)


@dataclass(frozen=True)
class FunctionValue:
    """A function value carried with its natural log (log survives overflow)."""

    value: float
    log_value: float


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def value_at(model: PrimeModel, k: int, table: SpfTable) -> FunctionValue:
    """Evaluate f(k) multiplicatively via the factor table.

    Returns the value as a float (``inf`` if it exceeds float range; the
    log is always finite) together with a compensated log.
    """
    from .sieve import factorize

    if k < 1:
        raise GridError(f"value_at needs k >= 1, got {k}")
    exact: Exact = 1
    logs = []
    for p, a in factorize(k, table):
        v = model.value_at_prime_power(p, a)
        if v <= 0:
            raise ModelSpecError(
                f"model {model.name!r} is not positive at {p}^{a}")
        exact *= v
        logs.append(_log_exact(v))
    log_value = math.fsum(logs)
    try:
        value = float(exact)
    except OverflowError:
        value = math.inf
    return FunctionValue(value=value, log_value=log_value)


def log_ratio_prime_power(model: PrimeModel, p: int, a: int) -> float:
    """log(f(p^a)/f(p^(a-1))) for a >= 2 from the exact ratio, within ~1 ulp
    (exactly 0 for strongly multiplicative f).  Neither value is memoised:
    the prime pass asks for every prime p <= sqrt(n) once.  The ratio is
    N/D with N = f_a.num f_(a-1).den and D = f_a.den f_(a-1).num from the
    polynomials' values, not reduced (see `_log_ratio`)."""
    if a < 2:
        raise GridError(f"log_ratio_prime_power needs a >= 2, got {a}")
    if model.strongly_multiplicative:
        return 0.0
    p = int(p)
    hi, lo = model._rat(a), model._rat(a - 1)
    hn, hd, ln, ld = (_eval(c, p) for c in (hi.num, hi.den, lo.num, lo.den))
    if hd == 0 or ld == 0:
        raise ModelSpecError("division by zero in model expression")
    num, den = hn * ld, hd * ln
    return _log_ratio(-num, -den) if den < 0 else _log_ratio(num, den)


# --------------------------------------------------------------------------
# growth-profile verification
# --------------------------------------------------------------------------

def small_primes(limit: int) -> list[int]:
    """All primes p <= limit, ascending: a stdlib sieve for the load check and
    the decimal constants (the prime pass streams with `sieve`)."""
    if limit < 2:
        return []
    mask = bytearray([1]) * (limit + 1)
    mask[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return list(itertools.compress(range(limit + 1), mask))


def _eval_at(c: Poly, xs: list[int]) -> list[int]:
    """c(x) exactly at every x of xs: Horner with the coefficients outside."""
    acc = [c[-1]] * len(xs)
    for ci in c[-2::-1]:
        acc = [a * x + ci for a, x in zip(acc, xs)]
    return acc


def _scaled_ratio(n: int, q: int, p: int, e: int) -> float:
    """|n / q| p^e, correctly rounded to double; inf past the double range."""
    if e > 0 and n and e * (p.bit_length() - 1) + n.bit_length() - q.bit_length() > 1024:
        return math.inf     # the ratio exceeds 2^1024: skip the giant power
    try:
        return abs(n * p ** e / q) if e >= 0 else abs(n / (q * p ** -e))
    except OverflowError:
        return math.inf


def error_profile_check(model: PrimeModel, p_max: int) -> tuple[float, bool]:
    """Measure K_hat = max_{p <= p_max} |f(p) - alpha p^d| / p^(d-delta).

    Returns (K_hat, pass) with pass meaning K_hat <= model.k_bound.  With
    delta - d = e + f, e an integer and 0 <= f < 1, p^e joins the exact
    deviation at every prime, one int / int division rounds the ratio, and
    p^f multiplies it: exact but for that division at an integer delta
    (f = 0), within a few ulps otherwise.  delta = inf claims a vanishing
    error term: K_hat = inf unless the deviation is identically 0.
    """
    if p_max < 2:
        raise GridError(f"error_profile_check needs p_max >= 2, got {p_max}")
    dev = model._deviation
    if model.delta == math.inf or not dev:
        k_hat = math.inf if dev else 0.0
    else:
        ps = small_primes(p_max)
        num, den = _eval_at(dev.num, ps), _eval_at(dev.den, ps)
        if not all(den):
            raise ModelSpecError(f"model {model.name!r} has a pole at a prime <= {p_max}")
        e = math.floor(model.delta) - int(model.d)
        f = model.delta - math.floor(model.delta)
        k_hat = max(_scaled_ratio(n, q, p, e) * p ** f for n, q, p in zip(num, den, ps))
    return k_hat, k_hat <= model.k_bound


# --------------------------------------------------------------------------
# model specs: the file format, the built-ins, and the one compile step
# --------------------------------------------------------------------------
#
# File format: `key = value` lines, '#' comments.  Required keys: name, d,
# alpha, delta, K, fp; fpa is required unless strongly_multiplicative is
# true.  fp/fpa are expressions in p (and, in fpa only, a) built from
# integers, + - * / (also unicode × ÷), unary minus, parentheses and ^ with
# a constant integer exponent, with the usual precedence (^ binds tightest
# and groups to the right).  They are evaluated in exact rational
# arithmetic; no exponent, and no degree in p, may exceed MAX_EXPONENT.

_EXPR_CHARS = re.compile(r"[0-9pa()^*/+\-×÷\s]*")
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}


class _Expr:
    """A parsed model expression."""

    def __init__(self, node: ast.expr):
        self.node = node

    def rational(self, a: Optional[int]) -> _Rat:
        """The expression as N(p)/D(p), with 'a' bound to `a`."""
        return _rational(self.node, a)


def _rational(node: ast.expr, a: Optional[int]) -> _Rat:
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_rational(node.left, a), _rational(node.right, a))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_rational(node.operand, a)
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return _Rat(_poly(node.value))
    if isinstance(node, ast.Name) and node.id == "p":
        return _P
    if isinstance(node, ast.Name) and node.id == "a":
        if a is None:
            raise ModelSpecError("'a' is not allowed in the fp expression")
        return _Rat(_poly(a))
    raise ModelSpecError(f"unexpected {ast.unparse(node)!r} in model expression")


def parse_expression(text: str) -> _Expr:
    """Parse a model expression (documented grammar) to an evaluable AST."""
    if not _EXPR_CHARS.fullmatch(text) or "**" in re.sub(r"\s", "", text):
        raise ModelSpecError(f"bad character in expression {text!r}")
    source = text.replace("^", "**").replace("×", "*").replace("÷", "/").strip()
    source = re.sub(r"(?<![0-9])0+(?=[0-9])", "", source)  # Python rejects 007
    try:
        return _Expr(ast.parse(source, mode="eval").body)
    except (SyntaxError, ValueError, RecursionError):
        raise ModelSpecError(f"cannot parse expression {text!r}") from None


_NUM_KEYS = ("d", "alpha", "delta", "K")
_VALIDATION_PRIMES = (2, 3, 5, 7, 11, 13, 31, 97, 1009, 10007)

_BUILTIN_SPECS = {
    # squarefree kernel: f(p^a) = p
    "kappa": "d = 1\nalpha = 1\ndelta = inf\nK = 0\nfp = p\nstrongly_multiplicative = true",
    # 2**omega(n): f(p^a) = 2
    "two_omega": "d = 0\nalpha = 2\ndelta = inf\nK = 0\nfp = 2\nstrongly_multiplicative = true",
    "euler_phi": "d = 1\nalpha = 1\ndelta = 1\nK = 1\nfp = p - 1\nfpa = p^(a - 1) * (p - 1)",
    "sigma": "d = 1\nalpha = 1\ndelta = 1\nK = 1\nfp = p + 1\nfpa = (p^(a + 1) - 1) / (p - 1)",
    # number of divisors: f(p^a) = a + 1; at primes f(p) = 2 = alpha*p^0 exactly
    "divisor_d": "d = 0\nalpha = 2\ndelta = inf\nK = 0\nfp = 2\nfpa = a + 1",
}
_JORDAN_SPEC = ("d = {k}\nalpha = 1\ndelta = {k}\nK = 1\nfp = p^{k} - 1\n"
                "fpa = p^({k} * (a - 1)) * (p^{k} - 1)")


def _parse_scalar(key: str, raw: str) -> float:
    try:
        return math.inf if raw.strip().lower() in ("inf", "infinity") else float(raw)
    except ValueError:
        raise ModelSpecError(f"field {key!r}: cannot parse number from {raw!r}") from None


def _parse_fields(lines: list[str], where: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ModelSpecError(f"{where}:{lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key in fields:
            raise ModelSpecError(f"{where}:{lineno}: duplicate field {key!r}")
        fields[key] = raw.strip()
    return fields


def _compile(fields: dict[str, str], where: str) -> PrimeModel:
    """Compile a parsed spec to a model: the one constructor of every model.

    Rejects a (d, alpha, delta) that no rational f(p) can meet: d must be
    deg N - deg D, alpha the leading coefficient rounded to double, and
    delta = inf needs f(p) == alpha p^d identically.
    """
    strongly = fields.pop("strongly_multiplicative", "false").lower() in ("true", "yes", "1")
    required = {"name", "fp", *(_NUM_KEYS)}
    if not strongly:
        required.add("fpa")
    missing = sorted(required - fields.keys())
    if missing:
        raise ModelSpecError(f"{where}: missing fields: {', '.join(missing)}")
    unknown = sorted(fields.keys() - required - {"fpa"})
    if unknown:
        raise ModelSpecError(f"{where}: unknown fields: {', '.join(unknown)}")

    name = fields["name"]
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        raise ModelSpecError(f"{where}: name {name!r} is not an identifier")
    nums = {k: _parse_scalar(k, fields[k]) for k in _NUM_KEYS}

    fp_ast = parse_expression(fields["fp"])
    fp = fp_ast.rational(None)
    fpa_ast = parse_expression(fields["fpa"]) if "fpa" in fields else fp_ast
    if not fp:
        raise ModelSpecError(f"{where}: fp is identically 0, so the model is not positive")
    if nums["d"] != fp.degree():
        raise ModelSpecError(
            f"{where}: d = {nums['d']:g}, but f(p) grows like p^{fp.degree()} "
            f"(deg N - deg D); expected d = {fp.degree()}")
    expected_alpha = float(fp.leading()) if abs(fp.leading()) < 2 ** 1023 else math.inf
    if nums["alpha"] != expected_alpha:
        raise ModelSpecError(
            f"{where}: alpha = {nums['alpha']!r}, but the leading coefficient of "
            f"f(p) is {fp.leading()}; expected alpha = {expected_alpha!r}")
    model = PrimeModel(
        name=name, d=nums["d"], alpha=nums["alpha"], delta=nums["delta"],
        k_bound=nums["K"], strongly_multiplicative=strongly, fp=fp, fpa=fpa_ast)
    if model.delta == math.inf and model._deviation:
        order = model._deviation.degree()
        raise ModelSpecError(
            f"{where}: growth profile violated: delta = inf, but f(p) - alpha p^d "
            f"does not vanish (it grows like p^{order}); expected a finite "
            f"delta <= {fp.degree() - order}")
    return model


@lru_cache(maxsize=None)
def builtin(name: str) -> PrimeModel:
    """Return a built-in model by name.

    Accepted names: kappa, two_omega, euler_phi, sigma, divisor_d and
    jordan_<k> for an integer k >= 1 (e.g. ``jordan_2``).
    """
    spec = _BUILTIN_SPECS.get(name)
    if spec is None:
        m = re.fullmatch(r"jordan_(-?\d+)", name)
        if m is None:
            raise ModelSpecError(
                f"unknown model {name!r}; built-ins: {', '.join(BUILTIN_NAMES)}")
        k = int(m.group(1))
        if k < 1:
            raise ModelSpecError(f"jordan totient needs k >= 1, got {k}")
        name, spec = f"jordan_{k}", _JORDAN_SPEC.format(k=k)
    return _compile(_parse_fields([f"name = {name}", *spec.splitlines()], name), name)


def load_model_file(path: str) -> PrimeModel:
    """Load and validate a custom model from a declarative text file.

    Raises ModelSpecError on syntax errors, missing fields, an exponent or
    degree above MAX_EXPONENT, a (d, alpha, delta) no rational f(p) can
    meet, non-positive values, fp/fpa disagreement at a=1, or a failed
    growth-profile check against the declared (d, alpha, delta, K) on
    primes up to 10^5.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelSpecError(f"{path}: cannot read model file: {exc}") from None
    model = _compile(_parse_fields(lines, path), path)

    fp, fpa = model.value_at_prime, model.value_at_prime_power
    for p in _VALIDATION_PRIMES:
        for a in (1, 2, 3, 4):
            v = fpa(p, a) if a > 1 else fp(p)
            if v <= 0:
                raise ModelSpecError(
                    f"{path}: model is not positive at p={p}, a={a} (value {v})")
        if fpa(p, 1) != fp(p):
            raise ModelSpecError(
                f"{path}: fp and fpa disagree at a=1 for p={p}")
        if model.strongly_multiplicative and any(fpa(p, a) != fp(p) for a in (2, 3, 4)):
            raise ModelSpecError(
                f"{path}: declared strongly multiplicative but fpa varies with a")

    k_hat, ok = error_profile_check(model, p_max=10 ** 5)
    if not ok:
        raise ModelSpecError(
            f"{path}: growth profile violated: measured K_hat = {k_hat!r} "
            f"exceeds declared K = {model.k_bound!r}")
    return model
