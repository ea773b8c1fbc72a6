"""Argument fuzzing: every argument vector ends in a documented exit code.

Sizes stay small: every grid command gets a `--to` of at most 1e4 (or an
invalid one), and `verify` runs only checks that are cheap at that size.
"""

from __future__ import annotations

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from primemean.cli import FIT_TARGETS, main

BOUNDS = ["1", "2", "10", "97", "1000", "5e3", "1e4"]
BAD_NUMBERS = ["0", "-5", "nan", "inf", "1e400", "x", ""]
CHEAP_CHECKS = ["identity-oracle", "exact-identities", "omega-identity",
                "logkappa-identity", "smr-identity", "a1-gamma", "rs-inequality",
                "omega-mean-trend", "s2-constant", "kappa-corollary",
                "series-algebra", "determinism", "bogus"]


def _opt(flag: str, values) -> st.SearchStrategy:
    return st.sampled_from(values).map(lambda v: [flag, v])


COMMON = [
    _opt("--model", ["kappa", "euler_phi", "two_omega", "nope", "jordan_0",
                     "missing.model", ""]),
    _opt("--format", ["table", "csv", "json", "xml"]),
    st.just(["--no-parallel"]),
]
GRID = [
    _opt("--from", BOUNDS + BAD_NUMBERS),
    _opt("--points", ["1", "3", "12", "64", "65", "0", "-1", "x"]),
    _opt("--spacing", ["log", "linear", "cubic"]),
]
PRECISIONS = ["1e-3", "0.5", "10", "1e-12", "1e-15", "nan", "inf", "-inf", "0",
              "-1", "x"]
PER_COMMAND = {
    "constants": [_opt("--aj", ["0", "1", "3", "8", "9", "-1", "x"])],
    "geomean": GRID + [_opt("--n", BOUNDS + BAD_NUMBERS), st.just(["--oracle"])],
    "sums": GRID,
    "verify": GRID + [_opt("--check", CHEAP_CHECKS)],
    "fit": GRID + [_opt("--target", list(FIT_TARGETS) + ["bogus"]),
                   _opt("--order", ["1", "2", "3", "0", "9", "x"])],
}


@st.composite
def argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(PER_COMMAND)))
    if command == "constants":
        args = [command, "--precision", draw(st.sampled_from(PRECISIONS))]
    else:                        # the default grid runs to 1e8
        args = [command, "--to", draw(st.sampled_from(BOUNDS + BAD_NUMBERS))]
    if command == "verify":      # no --check runs every acceptance check
        args += ["--check", draw(st.sampled_from(CHEAP_CHECKS))]
    if command == "fit" and draw(st.booleans()):
        args += ["--target", draw(st.sampled_from(FIT_TARGETS))]
    for extra in draw(st.lists(st.one_of(COMMON + PER_COMMAND[command]), max_size=4)):
        args += extra
    return args


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(args=argv())
def test_every_argument_vector_ends_in_a_documented_exit_code(args, monkeypatch):
    monkeypatch.delenv("PRIMEMEAN_CACHE", raising=False)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            rc = main(args)
        except SystemExit as exc:   # argparse: usage errors end in 2
            rc = exc.code
    assert rc in range(6), (args, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
