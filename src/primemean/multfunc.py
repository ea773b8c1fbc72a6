"""Positive multiplicative functions described by their prime-power values.

A model couples exact prime-power evaluation with the asymptotic profile
(d, alpha, delta) of its values at primes,

    f(p) = alpha * p**d + O(p**(d - delta)),

which is what the downstream prime-sum expansions consume.  The error term
is not taken on faith: every model records a constant ``k_bound`` and
`error_profile_check` measures max |f(p) - alpha*p**d| / p**(d-delta) over
an initial prime range against it.

Models are immutable and cheap; all operations are pure.  Exact values are
kept as Python integers / fractions (no overflow), while the vectorised
``log``-space hooks are what the streaming accumulators call per segment.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

from .errors import GridError, ModelSpecError
from .sieve import SpfTable, factorize, primes_up_to

__all__ = [
    "PrimeModel",
    "FunctionValue",
    "BUILTIN_NAMES",
    "builtin",
    "value_at",
    "log_ratio_prime_power",
    "error_profile_check",
    "load_model_file",
    "parse_expression",
]

Exact = Union[int, Fraction]

#: Names accepted by `builtin` (jordan_k for any integer k >= 1).
BUILTIN_NAMES = ("kappa", "two_omega", "euler_phi", "sigma", "divisor_d", "jordan_<k>")


def _log_exact(q: Exact) -> float:
    """Natural log of a positive int or Fraction without float overflow."""
    if isinstance(q, Fraction):
        return math.log(q.numerator) - math.log(q.denominator)
    return math.log(q)


@dataclass(frozen=True, eq=False)
class PrimeModel:
    """A positive multiplicative function plus its growth profile.

    ``value_at_prime(p)`` and ``value_at_prime_power(p, a)`` return exact
    ints/fractions; they must agree at a = 1 and stay positive.  ``delta``
    may be ``math.inf`` as a sentinel for an identically vanishing error
    term (then ``k_bound`` must be 0 and the profile check demands
    f(p) == alpha * p**d exactly).

    The three vectorised hooks serve the segmented accumulators:

    - ``log_at_prime_vec(p, logp)``: log f(p) for a float64 prime array,
    - ``log_q_ratio_vec(p, logp)``: log(f(p) / (alpha * p**d)), written in
      ``log1p`` form per model so the near-cancellation at large p costs
      only an absolute error of order eps per term,
    - ``prime_power_log_ratio(p, a)``: log(f(p^a)/f(p^(a-1))) for a >= 2.
    """

    name: str
    d: float
    alpha: float
    delta: float
    k_bound: float
    strongly_multiplicative: bool
    value_at_prime: Callable[[int], Exact]
    value_at_prime_power: Callable[[int, int], Exact]
    log_at_prime_vec: Callable[[np.ndarray, np.ndarray], np.ndarray]
    log_q_ratio_vec: Callable[[np.ndarray, np.ndarray], np.ndarray]
    prime_power_log_ratio: Optional[Callable[[int, int], float]] = None

    def __post_init__(self) -> None:
        if not (self.alpha > 0):
            raise ModelSpecError(f"model {self.name!r}: alpha must be positive")
        if not (self.delta > 0):
            raise ModelSpecError(f"model {self.name!r}: delta must be positive")
        if self.k_bound < 0:
            raise ModelSpecError(f"model {self.name!r}: k_bound must be >= 0")

    def __repr__(self) -> str:  # keep float spam out of tracebacks
        return f"PrimeModel({self.name!r}, d={self.d:g}, alpha={self.alpha:g})"


@dataclass(frozen=True)
class FunctionValue:
    """A function value carried with its natural log (log survives overflow)."""

    value: float
    log_value: float


# --------------------------------------------------------------------------
# built-in models
# --------------------------------------------------------------------------

def _strongly(name: str, d: float, alpha: float, fp: Callable[[int], Exact],
              log_vec: Callable) -> PrimeModel:
    zero = lambda p, logp: np.zeros_like(logp)
    return PrimeModel(
        name=name, d=d, alpha=alpha, delta=math.inf, k_bound=0.0,
        strongly_multiplicative=True,
        value_at_prime=fp,
        value_at_prime_power=lambda p, a: fp(p),
        log_at_prime_vec=log_vec,
        log_q_ratio_vec=zero,
        prime_power_log_ratio=lambda p, a: 0.0,
    )


def _make_kappa() -> PrimeModel:
    # square-free kernel: f(p^a) = p
    return _strongly("kappa", 1.0, 1.0, lambda p: p, lambda p, logp: logp.copy())


def _make_two_omega() -> PrimeModel:
    # 2**omega(n): f(p^a) = 2
    return _strongly("two_omega", 0.0, 2.0, lambda p: 2,
                     lambda p, logp: np.full_like(logp, math.log(2.0)))


def _make_euler_phi() -> PrimeModel:
    return PrimeModel(
        name="euler_phi", d=1.0, alpha=1.0, delta=1.0, k_bound=1.0,
        strongly_multiplicative=False,
        value_at_prime=lambda p: p - 1,
        value_at_prime_power=lambda p, a: p ** (a - 1) * (p - 1),
        log_at_prime_vec=lambda p, logp: logp + np.log1p(-1.0 / p),
        log_q_ratio_vec=lambda p, logp: np.log1p(-1.0 / p),
        # f(p^a)/f(p^(a-1)) = p for a >= 2
        prime_power_log_ratio=lambda p, a: math.log(p),
    )


def _make_sigma() -> PrimeModel:
    def ratio(p: int, a: int) -> float:
        # (p^(a+1)-1)/(p^a-1) = p * (1-p^-(a+1))/(1-p^-a)
        return math.log(p) + math.log1p(-p ** -(a + 1.0)) - math.log1p(-p ** -float(a))

    return PrimeModel(
        name="sigma", d=1.0, alpha=1.0, delta=1.0, k_bound=1.0,
        strongly_multiplicative=False,
        value_at_prime=lambda p: p + 1,
        value_at_prime_power=lambda p, a: (p ** (a + 1) - 1) // (p - 1),
        log_at_prime_vec=lambda p, logp: logp + np.log1p(1.0 / p),
        log_q_ratio_vec=lambda p, logp: np.log1p(1.0 / p),
        prime_power_log_ratio=ratio,
    )


def _make_divisor_d() -> PrimeModel:
    # number-of-divisors: f(p^a) = a + 1; at primes f(p) = 2 = alpha*p^0 exactly
    return PrimeModel(
        name="divisor_d", d=0.0, alpha=2.0, delta=math.inf, k_bound=0.0,
        strongly_multiplicative=False,
        value_at_prime=lambda p: 2,
        value_at_prime_power=lambda p, a: a + 1,
        log_at_prime_vec=lambda p, logp: np.full_like(logp, math.log(2.0)),
        log_q_ratio_vec=lambda p, logp: np.zeros_like(logp),
        prime_power_log_ratio=lambda p, a: math.log((a + 1.0) / a),
    )


def _make_jordan(k: int) -> PrimeModel:
    return PrimeModel(
        name=f"jordan_{k}", d=float(k), alpha=1.0, delta=float(k), k_bound=1.0,
        strongly_multiplicative=False,
        value_at_prime=lambda p: p ** k - 1,
        value_at_prime_power=lambda p, a: p ** (k * (a - 1)) * (p ** k - 1),
        log_at_prime_vec=lambda p, logp: k * logp + np.log1p(-p ** (-float(k))),
        log_q_ratio_vec=lambda p, logp: np.log1p(-p ** (-float(k))),
        # f(p^a)/f(p^(a-1)) = p^k for a >= 2
        prime_power_log_ratio=lambda p, a: k * math.log(p),
    )


@lru_cache(maxsize=None)
def builtin(name: str) -> PrimeModel:
    """Return a built-in model by name.

    Accepted names: kappa, two_omega, euler_phi, sigma, divisor_d and
    jordan_<k> for an integer k >= 1 (e.g. ``jordan_2``).
    """
    simple = {
        "kappa": _make_kappa,
        "two_omega": _make_two_omega,
        "euler_phi": _make_euler_phi,
        "sigma": _make_sigma,
        "divisor_d": _make_divisor_d,
    }
    if name in simple:
        return simple[name]()
    m = re.fullmatch(r"jordan_(-?\d+)", name)
    if m:
        k = int(m.group(1))
        if k < 1:
            raise ModelSpecError(f"jordan totient needs k >= 1, got {k}")
        return _make_jordan(k)
    raise ModelSpecError(
        f"unknown model {name!r}; built-ins: {', '.join(BUILTIN_NAMES)}")


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def value_at(model: PrimeModel, k: int, table: SpfTable) -> FunctionValue:
    """Evaluate f(k) multiplicatively via the factor table.

    Returns the value as a float (``inf`` if it exceeds float range; the
    log is always finite) together with a compensated log.
    """
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
    if isinstance(exact, Fraction) and exact.denominator == 1:
        exact = exact.numerator
    try:
        value = float(exact)
    except OverflowError:
        value = math.inf
    return FunctionValue(value=value, log_value=log_value)


def log_ratio_prime_power(model: PrimeModel, p: int, a: int) -> float:
    """log(f(p^a)/f(p^(a-1))) for a >= 2; exactly 0 for strongly multiplicative f."""
    if a < 2:
        raise GridError(f"log_ratio_prime_power needs a >= 2, got {a}")
    if model.strongly_multiplicative:
        return 0.0
    if model.prime_power_log_ratio is not None:
        return model.prime_power_log_ratio(p, a)
    hi = Fraction(model.value_at_prime_power(p, a))
    lo = Fraction(model.value_at_prime_power(p, a - 1))
    return _log_exact(hi / lo)


# --------------------------------------------------------------------------
# growth-profile verification
# --------------------------------------------------------------------------

def _is_small_int(x: float) -> bool:
    return math.isfinite(x) and float(x).is_integer() and abs(x) <= 2 ** 40


def error_profile_check(model: PrimeModel, p_max: int) -> tuple[float, bool]:
    """Measure K_hat = max_{p <= p_max} |f(p) - alpha p^d| / p^(d-delta).

    Returns (K_hat, pass) with pass meaning K_hat <= model.k_bound.  When
    d, alpha and delta are all integers (every built-in) the ratio is
    formed in exact rational arithmetic; otherwise in float64.  A model
    with delta = inf claims a vanishing error term, so any nonzero
    deviation yields K_hat = inf.
    """
    if p_max < 2:
        raise GridError(f"error_profile_check needs p_max >= 2, got {p_max}")
    primes = primes_up_to(p_max)
    exact_ok = (_is_small_int(model.d) and _is_small_int(model.alpha)
                and (model.delta == math.inf or _is_small_int(model.delta)))
    if exact_ok:
        d = int(model.d)
        alpha = int(model.alpha)
        k_hat_fr = Fraction(0)
        any_dev = False
        for p in primes.tolist():
            dev = Fraction(model.value_at_prime(p)) - alpha * Fraction(p) ** d
            if dev == 0:
                continue
            any_dev = True
            if model.delta == math.inf:
                break
            ratio = abs(dev) / Fraction(p) ** (d - int(model.delta))
            if ratio > k_hat_fr:
                k_hat_fr = ratio
        if model.delta == math.inf:
            k_hat = math.inf if any_dev else 0.0
        else:
            k_hat = float(k_hat_fr)
        return k_hat, k_hat <= model.k_bound
    pf = primes.astype(np.float64)
    logp = np.log(pf)
    dev = np.abs(np.exp(model.log_at_prime_vec(pf, logp)) - model.alpha * pf ** model.d)
    if model.delta == math.inf:
        k_hat = 0.0 if not np.any(dev) else math.inf
    else:
        k_hat = float(np.max(dev / pf ** (model.d - model.delta)))
    return k_hat, k_hat <= model.k_bound


# --------------------------------------------------------------------------
# declarative custom models
# --------------------------------------------------------------------------
#
# File format: `key = value` lines, '#' comments.  Required keys: name, d,
# alpha, delta, K, fp; fpa is required unless strongly_multiplicative is
# true.  fp/fpa are expressions over the grammar
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*             (also unicode ×, ÷)
#   factor := '-' factor | power
#   power  := atom ('^' factor)?                      (integer exponents)
#   atom   := 'p' | 'a' | integer | '(' expr ')'
#
# evaluated in exact rational arithmetic ('a' is only legal inside fpa).

_TOKEN_RE = re.compile(r"\s*(\d+|[pa()^]|\*|×|÷|[+\-/])")


class _Expr:
    __slots__ = ("op", "args")

    def __init__(self, op: str, *args):
        self.op = op
        self.args = args

    def eval(self, p: Exact, a: Optional[int]) -> Exact:
        op = self.op
        if op == "num":
            return self.args[0]
        if op == "p":
            return p
        if op == "a":
            if a is None:
                raise ModelSpecError("'a' is not allowed in the fp expression")
            return a
        vals = [arg.eval(p, a) for arg in self.args]
        if op == "+":
            return vals[0] + vals[1]
        if op == "-":
            return vals[0] - vals[1]
        if op == "*":
            return vals[0] * vals[1]
        if op == "/":
            if vals[1] == 0:
                raise ModelSpecError("division by zero in model expression")
            return Fraction(vals[0], 1) / Fraction(vals[1], 1)
        if op == "neg":
            return -vals[0]
        if op == "^":
            e = vals[1]
            if isinstance(e, Fraction):
                if e.denominator != 1:
                    raise ModelSpecError("exponents must be integers")
                e = e.numerator
            if e < 0:
                base = vals[0]
                if base == 0:
                    raise ModelSpecError("0 raised to a negative power")
                return Fraction(1, 1) / Fraction(base, 1) ** (-e)
            return vals[0] ** e
        raise AssertionError(op)


class _Parser:
    def __init__(self, text: str):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise ModelSpecError(
                        f"bad character {text[pos:].strip()[0]!r} in expression {text!r}")
                break
            tok = m.group(1)
            self.tokens.append("*" if tok == "×" else "/" if tok == "÷" else tok)
            pos = m.end()
        self.i = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ModelSpecError("unexpected end of expression")
        self.i += 1
        return tok

    def parse(self) -> _Expr:
        e = self.expr()
        if self.peek() is not None:
            raise ModelSpecError(f"trailing tokens near {self.peek()!r}")
        return e

    def expr(self) -> _Expr:
        e = self.term()
        while self.peek() in ("+", "-"):
            e = _Expr(self.take(), e, self.term())
        return e

    def term(self) -> _Expr:
        e = self.factor()
        while self.peek() in ("*", "/"):
            e = _Expr(self.take(), e, self.factor())
        return e

    def factor(self) -> _Expr:
        if self.peek() == "-":
            self.take()
            return _Expr("neg", self.factor())
        return self.power()

    def power(self) -> _Expr:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            return _Expr("^", base, self.factor())
        return base

    def atom(self) -> _Expr:
        tok = self.take()
        if tok == "(":
            e = self.expr()
            if self.take() != ")":
                raise ModelSpecError("missing ')' in expression")
            return e
        if tok == "p":
            return _Expr("p")
        if tok == "a":
            return _Expr("a")
        if tok.isdigit():
            return _Expr("num", int(tok))
        raise ModelSpecError(f"unexpected token {tok!r} in expression")


def parse_expression(text: str) -> _Expr:
    """Parse a model expression (documented grammar) to an evaluable AST."""
    return _Parser(text).parse()


_NUM_KEYS = ("d", "alpha", "delta", "K")
_VALIDATION_PRIMES = (2, 3, 5, 7, 11, 13, 31, 97, 1009, 10007)


def _parse_scalar(key: str, raw: str) -> float:
    try:
        return math.inf if raw.strip().lower() in ("inf", "infinity") else float(raw)
    except ValueError:
        raise ModelSpecError(f"field {key!r}: cannot parse number from {raw!r}") from None


def load_model_file(path: str) -> PrimeModel:
    """Load and validate a custom model from a declarative text file.

    Raises ModelSpecError on syntax errors, missing fields, non-positive
    values, fp/fpa disagreement at a=1, or a failed growth-profile check
    against the declared (d, alpha, delta, K) on primes up to 10^5.
    """
    fields: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelSpecError(f"{path}: cannot read model file: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ModelSpecError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key in fields:
            raise ModelSpecError(f"{path}:{lineno}: duplicate field {key!r}")
        fields[key] = raw.strip()

    strongly = fields.pop("strongly_multiplicative", "false").lower() in ("true", "yes", "1")
    required = {"name", "fp", *(_NUM_KEYS)}
    if not strongly:
        required.add("fpa")
    missing = sorted(required - fields.keys())
    if missing:
        raise ModelSpecError(f"{path}: missing fields: {', '.join(missing)}")
    unknown = sorted(fields.keys() - required - {"fpa"})
    if unknown:
        raise ModelSpecError(f"{path}: unknown fields: {', '.join(unknown)}")

    name = fields["name"]
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        raise ModelSpecError(f"{path}: name {name!r} is not an identifier")
    nums = {k: _parse_scalar(k, fields[k]) for k in _NUM_KEYS}

    fp_ast = parse_expression(fields["fp"])
    fp_ast.eval(2, None)  # reject 'a' inside fp early
    fpa_ast = parse_expression(fields["fpa"]) if "fpa" in fields else fp_ast

    def fp(p: int) -> Exact:
        return fp_ast.eval(p, None)

    def fpa(p: int, a: int) -> Exact:
        return fpa_ast.eval(p, a)

    for p in _VALIDATION_PRIMES:
        for a in (1, 2, 3, 4):
            v = fpa(p, a) if a > 1 else fp(p)
            if v <= 0:
                raise ModelSpecError(
                    f"{path}: model is not positive at p={p}, a={a} (value {v})")
        if fpa(p, 1) != fp(p):
            raise ModelSpecError(
                f"{path}: fp and fpa disagree at a=1 for p={p}")
        if strongly and any(fpa(p, a) != fp(p) for a in (2, 3, 4)):
            raise ModelSpecError(
                f"{path}: declared strongly multiplicative but fpa varies with a")

    def log_fp_vec(pf: np.ndarray, logp: np.ndarray) -> np.ndarray:
        return np.log(np.array([float(fp(int(p))) for p in pf]))

    def log_q_ratio(pf: np.ndarray, logp: np.ndarray) -> np.ndarray:
        vals = np.array([float(fp(int(p))) for p in pf])
        return np.log(vals / (nums["alpha"] * pf ** nums["d"]))

    model = PrimeModel(
        name=name, d=nums["d"], alpha=nums["alpha"], delta=nums["delta"],
        k_bound=nums["K"], strongly_multiplicative=strongly,
        value_at_prime=fp, value_at_prime_power=fpa,
        log_at_prime_vec=log_fp_vec,
        log_q_ratio_vec=(lambda pf, logp: np.zeros_like(logp)) if strongly and nums["delta"] == math.inf else log_q_ratio,
        prime_power_log_ratio=(lambda p, a: 0.0) if strongly else None,
    )
    k_hat, ok = error_profile_check(model, p_max=10 ** 5)
    if not ok:
        raise ModelSpecError(
            f"{path}: growth profile violated: measured K_hat = {k_hat:g} "
            f"exceeds declared K = {nums['K']:g}")
    return model
