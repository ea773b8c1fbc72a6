"""primemean: exact geometric means of multiplicative functions.

For a positive multiplicative f, the geometric mean G_f(n) of f(1)..f(n)
satisfies an exact prime-sum identity:

    n log G_f(n) = sum_{p <= n} floor(n/p) log f(p)
                 + sum_{p^a <= n, a >= 2} floor(n/p^a) log(f(p^a)/f(p^(a-1)))

This package evaluates that identity at scale with compensated streaming
accumulation, computes the constants appearing in the classical asymptotic
expansions of such means (Euler's gamma, the Meissel-Mertens constant, the
Mertens log-sum constant, model-dependent prime series) with certified tail
bounds, and verifies the expansions numerically at desk scale.
"""

import importlib as _importlib

# The public surface, listed once: module -> the names it exports.  Each is
# imported on first use (PEP 562), so `constants` and a model load need no
# numpy; the prime pass, the checks and the fits import it when they run.
_SURFACE = {
    "constants": ("ConstantValue", "c_q", "eta0", "euler_gamma", "leading_constant",
                  "meissel_mertens", "meissel_mertens_limit", "mertens_e",
                  "mertens_e_limit", "rho_f", "saffari_a"),
    "checks": ("ACCEPTANCE_CHECKS", "CHECK_NAMES", "CheckContext", "CheckResult",
               "run_all", "run_check"),
    "errors": ("AccumulationError", "CacheFormatError", "GridError",
               "IllConditionedFitError", "ModelSpecError", "PrecisionError",
               "PrimemeanError", "UnknownCheckError"),
    "multfunc": ("BUILTIN_NAMES", "FunctionValue", "PrimeModel", "builtin",
                 "error_profile_check", "load_model_file", "log_ratio_prime_power",
                 "value_at"),
    "primesums": ("CheckpointGrid", "SumsReport", "bruteforce_prefix",
                  "default_cache_path", "identity_prefix", "load_report",
                  "log_geomean_bruteforce", "log_geomean_identity", "mertens_m_of_x",
                  "omega_summatory", "r_sum", "rs_inequality_sweep", "save_report",
                  "sums_stream", "u_of_x", "u_truncation_bound"),
    "series": ("MAX_ORDER", "FitResult", "fit_coefficients", "lj_coeffs",
               "lj_recurrence_check", "s2_coeffs_from_d", "series_exp"),
    "sieve": ("DEFAULT_MAX_BOUND", "DEFAULT_SEGMENT_SIZE", "SPF_CAP", "PrimeStream",
              "SpfTable", "factorize", "primes_up_to", "spf_build", "stream_segmented"),
}
_HOME = {name: module for module, names in _SURFACE.items() for name in names}

__version__ = "0.1.0"
__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
