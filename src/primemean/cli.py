"""Command-line interface.

Subcommands
-----------
constants   certified constants (gamma, M, E, tail-integral a_j), plus the
            per-model constants C_Q, rho_f, eta_0 and the leading constant
geomean     exact log-geometric-means over a checkpoint grid, with the
            scaled ratio G/(n^d (log n)^log alpha) against its predicted limit
sums        the full streamed checkpoint report (S1, S2, S3, F1, F2, R, M, U)
verify      named verification checks (the acceptance criteria registry)
fit         least-squares extraction of expansion coefficients from residuals

Each command accepts exactly the flags it reads: `constants` takes --model,
--format, --precision and --aj; `geomean`, `sums` and `fit` take --model,
--format, --cache and the grid flags --from, --to, --points and --spacing
(`geomean` adds --n, a single checkpoint that excludes the grid flags, and
--oracle; `fit` adds --target and --order); `verify` takes --format, --check
and --to, one cap for every check of the run.

Exit codes: 0 success; 1 failed check or cross-check, or output that could
not be written; 2 malformed grid, model, or arguments; 3 unreachable
precision target (the message names the constant); 4 unknown check name;
5 ill-conditioned fit basis (the message carries the condition estimate).

All floats print as %.15g and every certified constant is accompanied by its
tail bound.  CSV output follows RFC 4180 (CRLF records).  Checkpoint reports
of `geomean`, `sums` and `fit` persist to the directory named by --cache or
the PRIMEMEAN_CACHE environment variable; with neither set, nothing is
written to disk.  A cached report is reused only when its model fingerprint
and grid hash match, its integrity digest checks out, and it was streamed on
the command's route, which fixes the fields it holds; reloading one is
bit-identical to recomputation.  A corrupt, truncated or outdated file is
detected and silently recomputed.

`geomean` and `fit` on every target but u-residual take the sublinear route
(checkpoints up to 1e12); `sums` and `fit --target u-residual` read the
companion sums and take the sieve route (up to 1e9).  `verify` runs each
check on the route it names (see `checks`).  See the `primesums` module
docstring.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import io
import json
import math
import os
import sys
from typing import TYPE_CHECKING, NoReturn

# numpy's bundled OpenBLAS reads this when it loads: one thread spares the
# ~0.07 s of starting its pool, and the CLI's only BLAS call is `fit`'s QR of
# a design of at most 64 x 13.  A value the caller has set wins.  The library
# leaves its caller's environment alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import constants
from .errors import (AccumulationError, CacheFormatError, GridError,
                     IllConditionedFitError, ModelSpecError, PrecisionError,
                     PrimemeanError, UnknownCheckError)
from .multfunc import BUILTIN_NAMES, PrimeModel, builtin, load_model_file

if TYPE_CHECKING:
    from .primesums import CheckpointGrid, SumsReport

# Brute-force oracle columns need a per-integer factor table.
ORACLE_TABLE_CAP = 10 ** 7

FIT_TARGETS = ("s1-residual", "s2-residual", "qsum-residual", "u-residual")

_DEFAULT_GRID = (10 ** 4, 10 ** 8, 12)


# --------------------------------------------------------------------------
# argument handling
# --------------------------------------------------------------------------


def _int_arg(text: str) -> int:
    """Checkpoint bound: accepts 50000 or 5e4, refuses 10.9."""
    try:
        number = float(text)
        value = int(number)
    except (ValueError, OverflowError):   # not a number, NaN, or infinite
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}") from None
    if value != number:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _precision_arg(text: str) -> float:
    """Target tail bound: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _add_model_format_flags(sp: argparse.ArgumentParser, *, model_help: str) -> None:
    sp.add_argument("--model", default=None, metavar="NAME|FILE",
                    help=model_help + f" (built-ins: {', '.join(BUILTIN_NAMES)};"
                    " or a path to a model file)")
    _add_format_flag(sp)


def _add_format_flag(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", dest="fmt", choices=("table", "csv", "json"),
                    default="table", help="output format (default table)")


def _add_report_flags(sp: argparse.ArgumentParser) -> None:
    """--cache and the checkpoint grid: the flags of the commands that read a
    checkpoint report."""
    sp.add_argument("--cache", default=None, metavar="DIR",
                    help="checkpoint-report cache directory "
                    "(default: $PRIMEMEAN_CACHE; unset means no persistence)")
    sp.add_argument("--from", dest="lo", type=_int_arg, default=None,
                    metavar="N", help="first checkpoint (accepts 1e4 forms)")
    sp.add_argument("--to", dest="hi", type=_int_arg, default=None,
                    metavar="N", help="last checkpoint")
    sp.add_argument("--points", type=int, default=None, metavar="K",
                    help="number of checkpoints")
    sp.add_argument("--spacing", choices=("log", "linear"), default=None,
                    help="checkpoint spacing (default log)")


class _CheckNamesHelp(argparse.HelpFormatter):
    """Lists the check names in `verify --help`, importing `checks` only then."""

    def _get_help_string(self, action: argparse.Action) -> str:
        if action.dest != "check":
            return action.help
        from .checks import CHECK_NAMES
        return action.help + ", ".join(CHECK_NAMES)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="primemean",
        description="Geometric means of multiplicative functions via exact "
                    "prime sums, with certified constants.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", help="print certified constants")
    _add_model_format_flags(sp, model_help="also print this model's constants")
    sp.add_argument("--precision", type=_precision_arg, default=None, metavar="EPS",
                    help="bound every printed tail bound must meet (exit 3 otherwise)")
    sp.add_argument("--aj", type=int, default=2, metavar="R",
                    help="print tail-integral coefficients a_1..a_R (default 2)")
    sp.set_defaults(run=cmd_constants)

    sp = sub.add_parser("geomean", help="log G_f(n) over a checkpoint grid")
    _add_model_format_flags(sp, model_help="multiplicative function (required)")
    _add_report_flags(sp)
    sp.add_argument("--n", type=_int_arg, default=None,
                    help="single checkpoint instead of a grid (takes no grid flags)")
    sp.add_argument("--oracle", action="store_true",
                    help="add a per-integer brute-force column and require "
                    f"agreement (grids up to {ORACLE_TABLE_CAP:.0e})")
    sp.set_defaults(run=cmd_geomean)

    sp = sub.add_parser("sums", help="streamed checkpoint report")
    _add_model_format_flags(sp, model_help="multiplicative function (required)")
    _add_report_flags(sp)
    sp.set_defaults(run=cmd_sums)

    sp = sub.add_parser("verify", help="run named verification checks",
                        formatter_class=_CheckNamesHelp)
    _add_format_flag(sp)
    sp.add_argument("--check", action="append", default=None,
                    metavar="NAME", help="check to run (repeatable; default: "
                    "all acceptance checks). Names: ")
    sp.add_argument("--to", dest="hi", type=_int_arg, default=None, metavar="N",
                    help="cap on every check's sweep (a1-gamma, "
                    "constants-stability and series-algebra sweep nothing)")
    sp.set_defaults(run=cmd_verify)

    sp = sub.add_parser("fit", help="fit expansion coefficients to residuals")
    _add_model_format_flags(sp, model_help="model for qsum-residual (default kappa)")
    _add_report_flags(sp)
    sp.add_argument("--target", required=True, choices=FIT_TARGETS,
                    help="which residual series to fit")
    sp.add_argument("--order", type=int, default=1,
                    help="number of 1/log^j basis terms (default 1)")
    sp.set_defaults(run=cmd_fit)

    return p


def _cache_dir(args: argparse.Namespace) -> str | None:
    """--cache, else $PRIMEMEAN_CACHE; a path that names, or lies under, an
    existing non-directory is refused.

    The path is walked up as written, not normalised, so the OS resolves
    every `..` as `os.makedirs` will (`<file>/../new` fails at `<file>`).
    """
    cache_dir = args.cache if args.cache is not None \
        else os.environ.get("PRIMEMEAN_CACHE") or None
    if cache_dir is None:
        return None
    path = cache_dir
    while path and not os.path.exists(path):
        path = os.path.dirname(path)
    if path == cache_dir and not os.path.isdir(path):
        raise GridError(f"cache directory {cache_dir!r} is not a directory")
    if not os.path.isdir(path or os.curdir):
        raise GridError(f"cache directory {cache_dir!r} cannot be created: "
                        f"{path!r} is not a directory")
    return cache_dir


def _model(args: argparse.Namespace) -> PrimeModel | None:
    spec = args.model
    if spec is None:
        return None
    if os.path.exists(spec) or os.sep in spec or spec.endswith(".model"):
        return load_model_file(spec)
    return builtin(spec)


def _require_model(args: argparse.Namespace) -> PrimeModel:
    model = _model(args)
    if model is None:
        raise GridError("this command needs --model")
    return model


def _grid(args: argparse.Namespace) -> CheckpointGrid:
    """The grid flags' checkpoints, up to the sublinear route's bound; the
    sieve route refuses a grid beyond its own (see `cached_report`)."""
    from .primesums import CheckpointGrid, _check_count

    lo_def, hi_def, pts_def = _DEFAULT_GRID
    hi = args.hi or max(hi_def, args.lo or 0)
    lo = args.lo or (lo_def if lo_def <= hi else max(2, hi // 100))
    points = pts_def if args.points is None else args.points
    if lo > hi:
        raise GridError(f"grid needs lo <= hi, got [{lo}, {hi}]")
    if args.spacing in (None, "log"):
        return CheckpointGrid.log_spaced(lo, hi, points)
    if points < 1:
        raise GridError(f"need at least one checkpoint, got {points}")
    _check_count(points)
    import numpy as np

    return CheckpointGrid.from_points(
        sorted({int(round(x)) for x in np.linspace(lo, hi, points)}))


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------


def _fmt_cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def _json_cell(x):
    """A cell as JSON has it: a NaN or an infinity has no JSON number, so it
    is null."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


def emit_rows(fmt: str, header: tuple, rows: list, out=None) -> None:
    """Write one rectangular result set as table, CSV (RFC 4180) or JSON."""
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\r\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt_cell(c) for c in row])
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps([dict(zip(header, map(_json_cell, row))) for row in rows],
                          indent=2, allow_nan=False) + "\n"
    else:
        cells = [list(map(_fmt_cell, row)) for row in rows]
        widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
                  for i, h in enumerate(header)]
        text = "".join("  ".join(c.rjust(w) for c, w in zip(line, widths)).rstrip() + "\n"
                       for line in (header, *cells))
    _write(text, out)


def _write(text: str, out=None) -> None:
    """Write `text` to `out`, stdout by default; a failed write, or a closed
    stdout, raises PrimemeanError."""
    out = sys.stdout if out is None else out
    if out is None:
        raise PrimemeanError("cannot write output: stdout is closed")
    try:
        out.write(text)
    except OSError as exc:
        raise PrimemeanError(f"cannot write output: {exc}") from exc


# --------------------------------------------------------------------------
# cached checkpoint reports
# --------------------------------------------------------------------------


def cached_report(model: PrimeModel, grid: CheckpointGrid,
                  cache_dir: str | None, *, sublinear: bool) -> SumsReport:
    """Compute or reload a checkpoint report, persisting when caching is on.

    `sublinear` picks the route: the sieve route for the callers that read
    F1, F2, R, M or U, the sublinear route (`primesums` module docstring) for
    the rest.  A cache file records the route of each report it holds: the
    sublinear report alone, or the sieve report followed by the sublinear
    one.  A malformed, mismatched or unreadable cache file, or one without a
    report of the caller's route, is a miss: the report is recomputed and
    the file overwritten, reusing the file's sublinear report when it holds
    one.  Reloads are bit-identical to fresh runs by construction.
    """
    from . import primesums

    if cache_dir is None:
        return primesums.sums_stream(model, grid, sublinear=sublinear)
    path = primesums.default_cache_path(cache_dir, model, grid)
    try:
        return primesums.load_report(path, model, grid, sublinear)
    except (CacheFormatError, OSError):    # no file, a bad one, or a directory
        pass
    report = stored = primesums.sums_stream(model, grid, sublinear=sublinear)
    if not sublinear:
        # a sieve-route file also stores the sublinear report, so that one
        # file serves every command on the model and grid; a file that
        # `geomean` wrote holds it already
        try:
            stored = report, primesums.load_report(path, model, grid, True)
        except (CacheFormatError, OSError):
            stored = report, primesums.sums_stream(model, grid, sublinear=True)
    try:
        os.makedirs(cache_dir, exist_ok=True)
        primesums.save_report(path, stored)
    except OSError as exc:
        raise GridError(f"cache directory {cache_dir!r} cannot be written: {exc}") from exc
    return report


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_constants(args: argparse.Namespace) -> int:
    """Print the constants; with --precision, every row's bound must meet it."""
    if not 0 <= args.aj <= constants.SAFFARI_MAX_J:
        raise GridError(f"--aj must be in 0..{constants.SAFFARI_MAX_J}, got {args.aj}")
    model, precision = _model(args), args.precision
    kw = {} if precision is None else {"target_precision": precision}
    rows = []

    def put(name: str, cv: constants.ConstantValue) -> None:
        if precision is not None and cv.tail_bound > precision:
            raise PrecisionError(
                f"{name} has tail bound {cv.tail_bound:.3g}, above --precision "
                f"{precision:.3g}", achievable=cv.tail_bound)
        rows.append((name, cv.value, cv.tail_bound, cv.method))

    put("gamma", constants.euler_gamma())
    put("meissel_mertens_M", constants.meissel_mertens())
    put("mertens_E", constants.mertens_e())
    for j in range(1, args.aj + 1):
        put(f"a_{j}", constants.saffari_a(j))
    if model is not None:
        put(f"C_Q[{model.name}]", constants.c_q(model, **kw))
        put(f"rho_f[{model.name}]", constants.rho_f(model, **kw))
        put(f"eta0[{model.name}]", constants.eta0(model, **kw))
        put(f"leading_constant[{model.name}]",
            constants.leading_constant(model, **kw))
    emit_rows(args.fmt, ("constant", "value", "tail_bound", "method"), rows)
    return 0


def _scaled_ratio(model: PrimeModel, n: int, log_gmean: float) -> float:
    """G_f(n) / (n^d (log n)^log alpha); the quantity that tends to a limit."""
    la = math.log(model.alpha)
    if n == 1:
        return 1.0 if la == 0.0 else math.nan
    return math.exp(log_gmean - model.d * math.log(n)
                    - la * math.log(math.log(n)))


def cmd_geomean(args: argparse.Namespace) -> int:
    from . import primesums

    cache_dir, model, n = _cache_dir(args), _require_model(args), args.n
    if n is None:
        grid = _grid(args)
    else:
        given = [flag for flag, value in (("--from", args.lo), ("--to", args.hi),
                                          ("--points", args.points),
                                          ("--spacing", args.spacing))
                 if value is not None]
        if given:
            raise GridError(f"--n is a single checkpoint; it takes no {', '.join(given)}")
        grid = primesums.CheckpointGrid.from_points([n]) if n > 1 else None
    if args.oracle and grid is not None and grid.n_max > ORACLE_TABLE_CAP:
        raise GridError(f"--oracle builds a factor table; grid must stay <= "
                        f"{ORACLE_TABLE_CAP:.0e}, got {grid.n_max}")
    predicted = constants.leading_constant(model)

    if grid is None:   # the trivial n = 1 point: empty product, G = 1
        points, log_means = [1], [0.0]
    else:
        report = cached_report(model, grid, cache_dir, sublinear=True)
        points = list(grid.points)
        log_means = [report.n_log_g[i] / p for i, p in enumerate(points)]

    oracle_means = None
    if args.oracle:
        from .sieve import spf_build
        table = spf_build(points[-1])
        oracle_means = [
            primesums.log_geomean_bruteforce(model, p, table) / p
            for p in points]
        for p, a, b in zip(points, log_means, oracle_means):
            if abs(a - b) * p > 1e-9 * max(1, p):
                raise AccumulationError(
                    f"identity and brute-force geometric means disagree at "
                    f"n={p}: {a!r} vs {b!r}")

    header = ["n", "log_geomean", "scaled_ratio", "predicted", "abs_diff",
              "predicted_tail"]
    if args.oracle:
        header.insert(2, "log_geomean_bruteforce")
    rows = []
    for i, p in enumerate(points):
        ratio = _scaled_ratio(model, p, log_means[i])
        row = [p, log_means[i], ratio, predicted.value,
               abs(ratio - predicted.value), predicted.tail_bound]
        if args.oracle:
            row.insert(2, oracle_means[i])
        rows.append(tuple(row))
    emit_rows(args.fmt, tuple(header), rows)
    return 0


def cmd_sums(args: argparse.Namespace) -> int:
    from . import primesums

    cache_dir, model, grid = _cache_dir(args), _require_model(args), _grid(args)
    report = cached_report(model, grid, cache_dir, sublinear=False)
    header = ("n", "s1") + primesums.FLOAT_FIELDS + ("n_log_g", "err_bound")
    rows = []
    for i, n in enumerate(grid.points):
        rows.append((n, report.s1[i])
                    + tuple(getattr(report, f)[i] for f in primesums.FLOAT_FIELDS)
                    + (report.n_log_g[i], report.err_bound[i]))
    emit_rows(args.fmt, header, rows)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import checks

    results = checks.run_all(names=args.check, hi=args.hi)
    if args.fmt == "table":
        _write("".join(r.line() + "\n" for r in results))
    else:
        header = ("check", "passed", "elapsed_s", "detail")
        rows = [(r.name, r.passed, r.elapsed, r.detail) for r in results]
        emit_rows(args.fmt, header, rows)
    return 0 if all(r.passed for r in results) else 1


def _fit_samples(target: str, model: PrimeModel, report: SumsReport, points) -> list:
    m_const = constants.meissel_mertens().value
    la = math.log(model.alpha)
    samples = []
    for i, n in enumerate(points):
        ln = math.log(n)
        if target == "s1-residual":
            y = report.s1[i] / n - math.log(ln) - m_const
        elif target == "s2-residual":
            y = report.s2[i] / n - ln
        elif target == "u-residual":
            y = report.u_of_x[i] / n - 1.0
        else:  # qsum-residual: the prime part of the decomposition only
            qsum = la * report.s1[i] + model.d * report.s2[i] + report.s3[i]
            y = qsum / n - model.d * ln - la * math.log(ln)
        samples.append((n, y))
    return samples


def cmd_fit(args: argparse.Namespace) -> int:
    from . import series

    # s1/s2/u residuals are model-independent facts about the integers, so
    # any model's report carries them; qsum-residual uses the chosen model.
    cache_dir = _cache_dir(args)
    model = builtin("kappa") if args.model is None else _model(args)
    target = args.target
    grid = _grid(args)
    report = cached_report(model, grid, cache_dir, sublinear=target != "u-residual")
    samples = _fit_samples(target, model, report, grid.points)
    with_constant = target in ("s2-residual", "qsum-residual")
    fit = series.fit_coefficients(samples, order=args.order,
                                  include_constant=with_constant)
    rows = []
    if fit.constant is not None:
        rows.append(("constant", fit.constant))
    for j, c in enumerate(fit.coefficients, start=1):
        rows.append((f"coef[1/log^{j}]", c))
    rows.append(("residual_norm", fit.residual_norm))
    rows.append(("condition_estimate", fit.condition_estimate))
    rows.append(("window_lo", fit.window[0]))
    rows.append(("window_hi", fit.window[1]))
    rows.append(("window_points", float(fit.window[2])))
    emit_rows(args.fmt, ("term", "value"), rows)
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (GridError, ModelSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        extra = "" if exc.achievable is None \
            else f" (achievable: {exc.achievable:.3g})"
        print(f"error: {exc}{extra}", file=sys.stderr)
        return 3
    except UnknownCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except IllConditionedFitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except PrimemeanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(argv=None) -> NoReturn:
    """`main`, then the end of the process, without the interpreter's teardown.

    The `atexit` handlers run and stdout and stderr are flushed; the modules
    and objects are left as they are, since freeing them one by one took
    10-35 ms of a 0.08-0.4 s command.  A stdout that cannot be written ends
    the run with exit code 1.  An exception out of `main`, argparse's exit
    for --help or a usage error among them, takes the interpreter's normal
    exit.  This is the entry point of the `primemean` script and of
    `python -m primemean.cli`; `main` runs a command in-process.
    """
    code = main(argv)
    atexit._run_exitfuncs()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if code == 0:   # a failed run has printed its own message
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            code = 1
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
