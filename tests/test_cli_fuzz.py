"""Argument fuzzing: every argument vector ends in a documented exit code.

Sizes stay small: every grid command gets a `--to` of at most 1e4 (or an
invalid one), and `verify` runs only checks that are cheap at that size.
Each command draws the flags it takes and one that it refuses.  Cache paths
(`--cache` and PRIMEMEAN_CACHE) are drawn from a directory, a regular file,
and paths below or through that file.  A second property
draws `constants --precision` runs: exit 0 means every printed bound meets
the target.
"""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from primemean.cli import FIT_TARGETS, main

BOUNDS = ["1", "2", "10", "97", "1000", "5e3", "1e4"]
BAD_NUMBERS = ["0", "-5", "nan", "inf", "1e400", "x", ""]
CHEAP_CHECKS = ["identity-oracle", "exact-identities", "omega-identity",
                "logkappa-identity", "smr-identity", "a1-gamma", "rs-inequality",
                "omega-mean-trend", "s2-constant", "kappa-corollary",
                "series-algebra", "determinism", "routes-agree", "bogus"]


def _opt(flag: str, values) -> st.SearchStrategy:
    return st.sampled_from(values).map(lambda v: [flag, v])


MODEL_FORMAT = [
    _opt("--model", ["kappa", "euler_phi", "two_omega", "nope", "jordan_0",
                     "missing.model", ""]),
    _opt("--format", ["table", "csv", "json", "xml"]),
]
# {dir} and {file} are filled in per test with a directory and a regular file
CACHE_PATHS = ["{dir}", "{dir}/new/sub", "{file}", "{file}/sub", "{file}/sub/deeper",
               "{file}/../new"]
REPORT = [
    _opt("--cache", CACHE_PATHS),
    _opt("--from", BOUNDS + BAD_NUMBERS),
    _opt("--points", ["1", "3", "12", "64", "65", "0", "-1", "x"]),
    _opt("--spacing", ["log", "linear", "cubic"]),
]
PRECISIONS = ["1e-3", "0.5", "10", "1e-12", "1e-15", "nan", "inf", "-inf", "0",
              "-1", "x"]
# each command's own flags, plus the last entry: one flag it refuses
PER_COMMAND = {
    "constants": MODEL_FORMAT + [_opt("--aj", ["0", "1", "3", "8", "9", "-1", "x"]),
                                 _opt("--cache", CACHE_PATHS)],
    "geomean": MODEL_FORMAT + REPORT + [_opt("--n", BOUNDS + BAD_NUMBERS),
                                        st.just(["--oracle"]), _opt("--aj", ["2"])],
    "sums": MODEL_FORMAT + REPORT + [_opt("--n", ["10"])],
    "verify": [MODEL_FORMAT[1], _opt("--check", CHEAP_CHECKS),
               _opt("--from", BOUNDS)],
    "fit": MODEL_FORMAT + REPORT + [_opt("--target", list(FIT_TARGETS) + ["bogus"]),
                                    _opt("--order", ["1", "2", "3", "0", "9", "x"]),
                                    st.just(["--oracle"])],
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
    for extra in draw(st.lists(st.one_of(PER_COMMAND[command]), max_size=4)):
        args += extra
    return args


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(args=argv(), env_cache=st.sampled_from([None] + CACHE_PATHS))
@example(args=["sums", "--to", "1000", "--cache", "{file}/sub"], env_cache=None)
@example(args=["geomean", "--to", "1000"], env_cache="{file}/sub/deeper")
@example(args=["sums", "--to", "1000", "--cache", "{file}/../new"], env_cache=None)
@example(args=["geomean", "--model", "kappa", "--points", "1000000000000000"],
         env_cache=None)
@example(args=["geomean", "--model", "kappa", "--points", "1000000000000000",
               "--spacing", "linear"], env_cache=None)
@example(args=["geomean", "--model", "kappa", "--n", "1e13"], env_cache=None)
def test_every_argument_vector_ends_in_a_documented_exit_code(args, env_cache, monkeypatch,
                                                             tmp_path):
    paths = {"dir": str(tmp_path / "cache"), "file": str(tmp_path / "regular")}
    (tmp_path / "regular").write_text("")
    args = [a.format(**paths) if a in CACHE_PATHS else a for a in args]
    if env_cache is None:
        monkeypatch.delenv("PRIMEMEAN_CACHE", raising=False)
    else:
        monkeypatch.setenv("PRIMEMEAN_CACHE", env_cache.format(**paths))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            rc = main(args)
        except SystemExit as exc:   # argparse: usage errors end in 2
            rc = exc.code
    assert rc in range(6), (args, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(["kappa", "euler_phi", "sigma", "two_omega", "jordan_2"]),
       aj=st.sampled_from(["0", "1", "2"]),
       exponent=st.floats(-16.0, -3.0))
@example(model="euler_phi", aj="0", exponent=-15.0)
def test_constants_exit_zero_means_every_bound_meets_the_precision(model, aj, exponent):
    precision = 10.0 ** exponent
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        rc = main(["constants", "--model", model, "--aj", aj,
                   "--precision", repr(precision), "--format", "json"])
    assert rc in (0, 3), err.getvalue()
    if rc == 0:
        rows = json.loads(out.getvalue())
        assert len(rows) == 7 + int(aj)
        assert all(r["tail_bound"] <= precision for r in rows), (precision, rows)
    else:
        assert out.getvalue() == "" and "(achievable: " in err.getvalue()
