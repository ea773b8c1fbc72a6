"""End-to-end CLI behavior: formats, exit codes, cache persistence."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import struct
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from primemean import accum, checks, constants, primesums
from primemean.cli import FIT_TARGETS, main
from primemean.errors import CacheFormatError, GridError
from primemean.multfunc import builtin
from primemean.primesums import CheckpointGrid

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_constants_json(capsys):
    rc, out, _ = run(capsys, "constants", "--model", "kappa",
                     "--format", "json", "--aj", "3")
    assert rc == 0
    rows = {r["constant"]: r for r in json.loads(out)}
    assert rows["gamma"]["value"] == pytest.approx(0.5772156649015329,
                                                   abs=1e-12)
    assert rows["meissel_mertens_M"]["value"] == pytest.approx(
        0.2614972128476428, abs=1e-7)
    assert rows["mertens_E"]["value"] == pytest.approx(-1.3325822757332,
                                                       abs=1e-6)
    assert rows["eta0[kappa]"]["value"] == pytest.approx(-1.7553666, abs=1e-6)
    assert {"a_1", "a_2", "a_3"} <= rows.keys()
    assert all(r["tail_bound"] >= 0 for r in rows.values())


def test_constants_table_has_tail_bounds(capsys):
    rc, out, _ = run(capsys, "constants")
    assert rc == 0
    head = out.splitlines()[0]
    assert "tail_bound" in head and "value" in head


def test_geomean_oracle_example(capsys):
    rc, out, _ = run(capsys, "geomean", "--model", "kappa", "--n", "10",
                     "--oracle", "--format", "json")
    assert rc == 0
    row = json.loads(out)[0]
    assert row["n"] == 10
    assert row["log_geomean"] == pytest.approx(math.log(151200) / 10,
                                               abs=1e-12)
    assert row["log_geomean_bruteforce"] == pytest.approx(
        row["log_geomean"], abs=1e-12)


def test_oracle_past_its_table_refuses_before_streaming(monkeypatch, capsys):
    calls = []
    sums_stream = primesums.sums_stream

    def spy(*args, **kwargs):
        calls.append(args)
        return sums_stream(*args, **kwargs)

    monkeypatch.setattr(primesums, "sums_stream", spy)
    rc, out, err = run(capsys, "geomean", "--model", "euler_phi", "--n", "1e10", "--oracle")
    assert rc == 2 and out == "" and calls == []
    assert "--oracle builds a factor table; grid must stay <= 1e+07, got 10000000000" in err


def _no_series_model(tmp_path) -> str:
    """A model whose C_Q series does not apply: its root bound is above 128."""
    path = tmp_path / "big.model"
    path.write_text("name = big\nd = 1\nalpha = 1\ndelta = 1\nK = 1000\n"
                    "fp = p + 1000\nstrongly_multiplicative = true\n")
    return str(path)


def test_sublinear_route_without_a_series_refuses_past_the_sieve(tmp_path, monkeypatch,
                                                                  capsys):
    # with no C_Q series the split is n, so the pass would stream every prime
    calls = []
    reduce_primes = primesums.reduce_primes

    def spy(*args, **kwargs):
        calls.append(args)
        return reduce_primes(*args, **kwargs)

    monkeypatch.setattr(primesums, "reduce_primes", spy)
    rc, out, err = run(capsys, "fit", "--model", _no_series_model(tmp_path),
                       "--target", "qsum-residual", "--to", "2e9")
    assert rc == 2 and out == "" and calls == []
    assert ("checkpoint 2000000000 exceeds the sieve bound 1000000000: model 'big' "
            "has no C_Q series") in err


@pytest.mark.parametrize("argv", [("constants",), ("geomean", "--n", "1000")])
def test_unreachable_c_q_names_the_constant(tmp_path, capsys, argv):
    rc, out, err = run(capsys, *argv, "--model", _no_series_model(tmp_path))
    assert rc == 3 and out == ""
    assert "C_Q[big]: " in err and "beyond the sieve bound" in err


def test_oracle_disagreement_exits_1(monkeypatch, capsys):
    bruteforce = primesums.log_geomean_bruteforce
    monkeypatch.setattr(primesums, "log_geomean_bruteforce",
                        lambda *args: bruteforce(*args) + 1.0)
    rc, out, err = run(capsys, "geomean", "--model", "kappa", "--n", "1000", "--oracle")
    assert rc == 1 and out == ""
    assert "identity and brute-force geometric means disagree at n=1000" in err


def test_geomean_trivial_point(capsys):
    rc, out, _ = run(capsys, "geomean", "--model", "euler_phi", "--n", "1",
                     "--format", "json")
    assert rc == 0
    assert json.loads(out)[0]["log_geomean"] == 0.0


def test_sums_csv_is_rfc4180(capsys):
    rc, out, _ = run(capsys, "sums", "--model", "kappa", "--to", "100",
                     "--points", "2", "--format", "csv")
    assert rc == 0
    assert "\r\n" in out
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:3] == ["n", "s1", "s2"]
    last = lines[-1].split(",")
    # S1(100) = 50+33+20+14+9+7+5+5+4+3+3+2+2+2+2 + 10*1 = 171
    assert last[0] == "100" and last[1] == "171"


def test_verify_table_and_exit_zero(capsys):
    rc, out, _ = run(capsys, "verify", "--check", "a1-gamma",
                     "--check", "series-algebra")
    assert rc == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 2 and all(l.startswith("PASS") for l in lines)


def test_verify_grid_override(capsys):
    rc, out, _ = run(capsys, "verify", "--check", "omega-identity",
                     "--to", "20000", "--format", "json")
    assert rc == 0
    assert json.loads(out)[0]["passed"] is True


def test_verify_failing_check_exits_one(capsys):
    # at desk scale the S2 stabilization probe fails (the scaled residual
    # decays like 1/sqrt(n) rather than settling on a constant)
    rc, out, _ = run(capsys, "verify", "--check", "s2-constant",
                     "--to", str(10 ** 6))
    assert rc == 1
    assert "FAIL s2-constant" in out


@pytest.mark.parametrize("hi", ["1", "2", "5", "150"])
def test_identity_oracle_spots_stay_in_range(capsys, hi):
    rc, out, err = run(capsys, "verify", "--check", "identity-oracle", "--to", hi)
    assert rc == 0 and out.startswith("PASS identity-oracle"), err
    assert f"n <= {hi} " in out
    assert "(model , n=0;" not in out   # no location when nothing deviates


# --to below a check's smallest range: the grid checks' first default point,
# or too narrow a span for the four-point trend ladder
CAPS_BELOW_RANGE = {
    "exact-identities": ("50", "grid needs lo <= hi, got [100, 50]"),
    "determinism": ("50", "grid needs lo <= hi, got [100, 50]"),
    "rs-inequality": ("100", "grid needs lo <= hi, got [319, 100]"),
    "qsum-eta0": ("1e5", "grid needs lo <= hi, got [1000000, 100000]"),
    "omega-mean-trend": ("1000", "trend checks need a range above 1e4, got hi=1000"),
    "s2-constant": ("1000", "trend checks need a range above 1e4, got hi=1000"),
    "kappa-corollary": ("1000", "trend checks need a range above 1e4, got hi=1000"),
}


@pytest.mark.parametrize("check", sorted(CAPS_BELOW_RANGE))
def test_verify_inverted_range_exits_2(capsys, check):
    to, message = CAPS_BELOW_RANGE[check]
    rc, out, err = run(capsys, "verify", "--check", check, "--to", to)
    assert rc == 2 and out == ""
    assert message in err


def test_verify_cap_past_a_checks_reach_names_the_check(capsys):
    # the default list starts with identity-oracle, whose factor table stops at 1e7
    rc, out, err = run(capsys, "verify", "--to", "1e10")
    assert rc == 2 and out == ""
    assert "identity-oracle: SPF table limit 10000000000 exceeds cap 10000000" in err


def test_factor_peel_past_the_table_refuses_before_allocating(monkeypatch):
    # the peel holds every k <= n_max as int64: 8 GB at the sieve bound 1e9
    def no_array(*args, **kwargs):
        raise AssertionError("the peel allocated before the table refused")

    monkeypatch.setattr(checks.np, "arange", no_array)
    with pytest.raises(GridError, match="exceeds cap 10000000"):
        checks.CheckContext().factor_sums(CheckpointGrid.log_spaced(100, 2 * 10 ** 7, 3))


# caps the four-point trend ladder cannot serve: a point below 100 (150,
# 500, 9999) or two equal points (10000)
@pytest.mark.parametrize("to", ["150", "500", "9999", "10000"])
def test_trend_ladder_refuses_caps_below_its_range(capsys, to):
    rc, out, err = run(capsys, "verify", "--check", "omega-mean-trend", "--to", to)
    assert rc == 2 and out == ""
    assert f"trend checks need a range above 1e4, got hi={to}" in err


def test_every_accepted_trend_cap_gives_four_points_from_100():
    accepted = []
    for hi in [*range(2, 20001), 10 ** 5, 10 ** 6 + 7, 10 ** 7, 10 ** 8 - 1, 10 ** 8,
               10 ** 10, 10 ** 12]:
        try:
            points = checks._trend_points(hi)
        except GridError:
            continue
        assert len(points) == 4 and list(points) == sorted(set(points)), hi
        assert points[0] >= 100 and points[-1] == hi, hi
        accepted.append(hi)
    assert accepted[0] == 10100


def test_omega_mean_trend_follows_the_cap_past_the_sieve():
    # the default cap gives the ladder 1e4, 1e6, 1e7, 1e8; at 1e10 the ladder
    # is 1e6, 1e8, 1e9, 1e10, on the sublinear route
    assert checks._trend_points(None) == (10 ** 4, 10 ** 6, 10 ** 7, 10 ** 8)
    result = checks.run_check("omega-mean-trend", hi=10 ** 10)
    assert result.passed, result.detail
    assert "|eps(1e+10) - (gamma-1)|" in result.detail


def test_trend_cap_beyond_the_sublinear_bound_exits_2(capsys):
    rc, out, err = run(capsys, "verify", "--check", "omega-mean-trend", "--to", "2e12")
    assert rc == 2 and out == ""
    assert "exceeds the sublinear route's bound 1000000000000" in err


def test_verify_refuses_unknown_check_before_any_check_runs(capsys, monkeypatch):
    def must_not_run(ctx, hi):
        raise AssertionError("a check ran before the unknown name was refused")

    monkeypatch.setitem(checks._REGISTRY, "series-algebra", must_not_run)
    rc, out, err = run(capsys, "verify", "--check", "series-algebra",
                       "--check", "bogus")
    assert rc == 4 and out == ""
    assert "unknown check 'bogus'" in err


# the flags each command reads, and nothing else
COMMAND_FLAGS = {
    "constants": ["--model", "--format", "--precision", "--aj"],
    "geomean": ["--model", "--format", "--cache", "--from", "--to", "--points",
                "--spacing", "--n", "--oracle"],
    "sums": ["--model", "--format", "--cache", "--from", "--to", "--points",
             "--spacing"],
    "fit": ["--model", "--format", "--cache", "--from", "--to", "--points",
            "--spacing", "--target", "--order"],
    "verify": ["--format", "--check", "--to"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_exactly_the_flags_a_command_reads(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = re.findall(r"^  (--?[a-z]+)", capsys.readouterr().out, re.M)
    assert listed == ["-h"] + COMMAND_FLAGS[command]


@pytest.mark.parametrize("argv", [
    ("constants", "--cache", "."),
    ("verify", "--check", "a1-gamma", "--model", "kappa"),
    ("verify", "--check", "a1-gamma", "--cache", "."),
    ("verify", "--check", "a1-gamma", "--spacing", "log"),
    ("verify", "--check", "a1-gamma", "--from", "5"),
    ("verify", "--check", "a1-gamma", "--points", "3"),
])
def test_removed_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [("--from", "5"), ("--to", "10"), ("--points", "3"),
                                  ("--spacing", "log")])
def test_n_takes_no_grid_flags(capsys, flag):
    rc, out, err = run(capsys, "geomean", "--model", "kappa", "--n", "10", *flag)
    assert rc == 2 and out == ""
    assert f"--n is a single checkpoint; it takes no {flag[0]}" in err


def test_constants_reads_no_cache(tmp_path, monkeypatch, capsys):
    regular = tmp_path / "regular"
    regular.write_text("")
    monkeypatch.setenv("PRIMEMEAN_CACHE", str(regular))
    rc, out, _ = run(capsys, "constants", "--format", "json")
    assert rc == 0 and json.loads(out)[0]["constant"] == "gamma"


def test_verify_cap_serves_checks_that_sweep_nothing(capsys):
    # the verify-oracles benchmark workload runs exactly this
    rc, out, _ = run(capsys, "verify", "--to", "20000", "--format", "json",
                     "--check", "a1-gamma")
    assert rc == 0 and json.loads(out)[0]["passed"] is True


def test_exit_code_grid(capsys):
    rc, _, err = run(capsys, "sums", "--model", "kappa",
                     "--from", "100", "--to", "10")
    assert rc == 2 and "error:" in err


def test_exit_code_model(capsys):
    rc, _, err = run(capsys, "sums", "--model", "nope", "--to", "100")
    assert rc == 2 and "unknown model" in err


def test_exit_code_precision(capsys):
    rc, _, err = run(capsys, "constants", "--precision", "1e-17")
    assert rc == 3 and err.startswith("error: gamma has tail bound")


def test_aj_certify_below_the_old_1e_11_floor(capsys):
    rc, out, err = run(capsys, "constants", "--model", "euler_phi",
                       "--precision", "1e-13", "--format", "json")
    assert rc == 0, err
    rows = {r["constant"]: r for r in json.loads(out)}
    assert rows["a_2"]["tail_bound"] <= 1e-16
    # the loosest row is still eta0's float assembly
    rc, out, err = run(capsys, "constants", "--model", "euler_phi", "--aj", "0",
                       "--precision", "1e-15")
    assert rc == 3 and out == ""
    assert err.startswith("error: eta0[euler_phi] has tail bound")


@pytest.mark.parametrize("aj", ["-1", "9"])
def test_aj_outside_its_range_exits_2_before_any_constant(capsys, monkeypatch, aj):
    def must_not_run():
        raise AssertionError("a constant was computed before --aj was refused")

    monkeypatch.setattr(constants, "euler_gamma", must_not_run)
    rc, out, err = run(capsys, "constants", "--aj", aj)
    assert rc == 2 and out == ""
    assert f"--aj must be in 0..8, got {aj}" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "0", "-1e-3", "x"])
def test_bad_precision_is_exit_two_naming_the_flag(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main(["constants", f"--precision={bad}"])
    assert exc.value.code == 2
    assert "--precision" in capsys.readouterr().err


@pytest.mark.parametrize("loose", ["0.5", "10"])
def test_loose_precision_still_certifies(capsys, loose):
    rc, out, _ = run(capsys, "constants", "--precision", loose, "--format", "json")
    assert rc == 0
    rows = {r["constant"]: r for r in json.loads(out)}
    m = rows["meissel_mertens_M"]
    exact = Fraction("0.26149721284764278375542683860869585905156664826120")
    assert abs(Fraction(m["value"]) - exact) <= m["tail_bound"]
    assert all(math.isfinite(r["tail_bound"]) for r in rows.values())


def test_constants_sum_each_prime_pass_once(monkeypatch, capsys):
    for fn in vars(constants).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    passes = []
    reduce_primes = accum.reduce_primes

    def counted(cuts, *args, **kwargs):
        passes.append(list(cuts))
        return reduce_primes(cuts, *args, **kwargs)

    monkeypatch.setattr(accum, "reduce_primes", counted)
    rc, out, _ = run(capsys, "constants", "--model", "euler_phi", "--format", "json")
    assert rc == 0
    # M, E and C_Q come from the prime zeta function: no prime pass at all,
    # and each is computed once, whether asked for directly or through
    # rho_f and eta0
    assert passes == []
    assert constants.meissel_mertens.cache_info().misses == 1
    assert constants.mertens_e.cache_info().misses == 1
    assert constants.c_q.cache_info().misses == 1
    rc, again, _ = run(capsys, "constants", "--model", "euler_phi", "--format", "json")
    assert rc == 0 and again == out and passes == []


def test_exit_code_unknown_check(capsys):
    rc, _, err = run(capsys, "verify", "--check", "bogus")
    assert rc == 4 and "bogus" in err


def test_exit_code_ill_conditioned_fit(capsys):
    rc, _, err = run(capsys, "fit", "--target", "s1-residual", "--order", "8",
                     "--from", "1000000", "--to", "1000900", "--points", "10")
    assert rc == 5 and "condition" in err


@pytest.mark.parametrize("bad", [("--to", "inf"), ("--from", "inf"),
                                 ("--to=-inf",), ("--to", "nan"),
                                 ("--to", "1e400")])
def test_non_finite_bound_is_exit_two(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main(["geomean", "--model", "euler_phi", *bad])
    assert exc.value.code == 2
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [("geomean", "--n", "10.9"), ("geomean", "--n", "12345.5"),
                                 ("geomean", "--to", "1e4", "--from", "12.5"),
                                 ("sums", "--to", "1000.5"), ("verify", "--to", "25000.25")],
                         ids=["n-10.9", "n-12345.5", "from-12.5", "to-1000.5", "verify-to"])
def test_fractional_integer_flag_is_exit_two(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main([bad[0], *(("--model", "kappa") if bad[0] != "verify" else ()), *bad[1:]])
    assert exc.value.code == 2
    assert "not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("text,n", [("5e4", 50000), ("1e4", 10000), ("10.0", 10)])
def test_integral_float_forms_are_accepted(capsys, text, n):
    rc, out, _ = run(capsys, "geomean", "--model", "kappa", "--n", text, "--format", "json")
    assert rc == 0 and [row["n"] for row in json.loads(out)] == [n]


def test_missing_model_file_is_exit_two(tmp_path, capsys):
    path = tmp_path / "no-such.model"
    rc, _, err = run(capsys, "geomean", "--model", str(path), "--n", "10")
    assert rc == 2 and str(path) in err


@pytest.mark.parametrize("spacing", ["log", "linear"])
@pytest.mark.parametrize("points", ["0", "-3"])
def test_points_below_one_is_exit_two(capsys, spacing, points):
    rc, _, err = run(capsys, "geomean", "--model", "kappa", "--to", "1000",
                     "--points", points, "--spacing", spacing)
    assert rc == 2 and "at least one checkpoint" in err


@pytest.mark.parametrize("flag", ["--parallel", "--no-parallel"])
def test_thread_flags_are_usage_errors(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["sums", "--model", "kappa", "--to", "100", flag])
    assert exc.value.code == 2


def test_usage_error_is_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--to", "100000"])  # --target is required
    assert exc.value.code == 2


def test_fit_s1_residual_small_window(capsys):
    rc, out, _ = run(capsys, "fit", "--target", "s1-residual", "--order", "1",
                     "--from", "10000", "--to", "1000000", "--points", "8",
                     "--format", "json")
    assert rc == 0
    rows = {r["term"]: r["value"] for r in json.loads(out)}
    # leading coefficient approximates gamma - 1 even at desk scale
    assert rows["coef[1/log^1]"] == pytest.approx(0.5772156649 - 1.0, abs=0.1)
    assert "constant" not in rows


@pytest.mark.parametrize("spacing", ["log", "linear"])
def test_an_inverted_grid_has_one_message(capsys, spacing):
    rc, out, err = run(capsys, "geomean", "--model", "kappa", "--from", "1e6",
                       "--to", "1e4", "--spacing", spacing)
    assert rc == 2 and out == ""
    assert "grid needs lo <= hi, got [1000000, 10000]" in err


def test_sums_on_a_linear_grid(capsys):
    rc, out, _ = run(capsys, "sums", "--model", "kappa", "--from", "100", "--to", "1000",
                     "--points", "5", "--spacing", "linear", "--format", "json")
    assert rc == 0
    assert [row["n"] for row in json.loads(out)] == [100, 325, 550, 775, 1000]


def test_fit_qsum_residual_matches_least_squares(capsys):
    # euler_phi has alpha = d = 1: the prime part's residual is
    # (S2 + S3)/n - log n, fitted with a constant and 1/log n, 1/log^2 n
    rc, out, _ = run(capsys, "fit", "--target", "qsum-residual", "--model", "euler_phi",
                     "--order", "2", "--from", "1e4", "--to", "1e7", "--points", "8",
                     "--format", "json")
    assert rc == 0
    rows = {r["term"]: r["value"] for r in json.loads(out)}
    grid = CheckpointGrid.log_spaced(10 ** 4, 10 ** 7, 8)
    report = primesums.sums_stream(builtin("euler_phi"), grid, sublinear=True)
    n = np.array(grid.points, dtype=float)
    y = (np.array(report.s2) + np.array(report.s3)) / n - np.log(n)
    design = np.column_stack([np.ones_like(n), 1 / np.log(n), 1 / np.log(n) ** 2])
    want = np.linalg.lstsq(design, y, rcond=None)[0]
    got = [rows["constant"], rows["coef[1/log^1]"], rows["coef[1/log^2]"]]
    assert got == pytest.approx(want.tolist(), rel=1e-9)
    assert (rows["window_lo"], rows["window_hi"], rows["window_points"]) == (1e4, 1e7, 8)


def test_fit_s2_residual_has_constant(capsys):
    rc, out, _ = run(capsys, "fit", "--target", "s2-residual", "--order", "0",
                     "--from", "10000", "--to", "1000000", "--points", "8",
                     "--format", "json")
    assert rc == 0
    rows = {r["term"]: r["value"] for r in json.loads(out)}
    # gamma + E - 1
    assert rows["constant"] == pytest.approx(-1.7553666, abs=0.05)


def test_cache_roundtrip(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PRIMEMEAN_CACHE", str(tmp_path))
    args = ("sums", "--model", "kappa", "--to", "20000", "--points", "3",
            "--format", "csv")
    rc1, out1, _ = run(capsys, *args)
    cached = list(tmp_path.glob("*.pmsm"))
    assert rc1 == 0 and len(cached) == 1
    rc2, out2, _ = run(capsys, *args)
    assert rc2 == 0 and out2 == out1

    # a corrupted cache entry heals itself
    cached[0].write_bytes(b"garbage")
    rc3, out3, _ = run(capsys, *args)
    assert rc3 == 0 and out3 == out1
    assert cached[0].read_bytes() != b"garbage"


def test_cache_without_u_is_refilled_for_sums(tmp_path, monkeypatch, capsys):
    # a geomean-written file holds no companions: it serves fit --target
    # s2-residual as it is, and sums refills it
    grid = ("--to", "20000", "--points", "3")
    fit = ("fit", "--model", "sigma", "--target", "s2-residual", "--order", "1",
           *grid, "--format", "json")
    monkeypatch.delenv("PRIMEMEAN_CACHE", raising=False)
    rc, cold, _ = run(capsys, "sums", "--model", "sigma", *grid, "--format", "json")
    assert rc == 0
    rc, cold_fit, _ = run(capsys, *fit)
    assert rc == 0

    monkeypatch.setenv("PRIMEMEAN_CACHE", str(tmp_path))
    rc, _, _ = run(capsys, "geomean", "--model", "sigma", *grid)
    assert rc == 0
    [path] = tmp_path.glob("*.pmsm")
    model = builtin("sigma")
    assert primesums.load_report(str(path), model).sublinear
    written = path.read_bytes()

    def no_stream(*args, **kwargs):
        raise AssertionError("the cached report was not served")

    with monkeypatch.context() as patch:
        patch.setattr(primesums, "sums_stream", no_stream)
        rc, warm_fit, _ = run(capsys, *fit)
    assert rc == 0 and warm_fit == cold_fit
    assert path.read_bytes() == written

    rc, warm, _ = run(capsys, "sums", "--model", "sigma", *grid, "--format", "json")
    assert rc == 0 and warm == cold
    assert not primesums.load_report(str(path), model).sublinear


def test_sums_pairs_the_sublinear_report_a_geomean_file_holds(tmp_path, monkeypatch, capsys):
    # sums streams only its own route, and leaves the file a cold sums writes
    grid = ("--model", "sigma", "--to", "20000", "--points", "3")
    monkeypatch.delenv("PRIMEMEAN_CACHE", raising=False)
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    assert run(capsys, "sums", *grid, "--cache", str(cold))[0] == 0
    assert run(capsys, "geomean", *grid, "--cache", str(warm))[0] == 0

    routes = []
    sums_stream = primesums.sums_stream

    def recorded(model, grid, **kwargs):
        routes.append(kwargs.get("sublinear", False))
        return sums_stream(model, grid, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(primesums, "sums_stream", recorded)
        assert run(capsys, "sums", *grid, "--cache", str(warm))[0] == 0
    assert routes == [False]
    [cold_file], [warm_file] = cold.glob("*.pmsm"), warm.glob("*.pmsm")
    assert warm_file.read_bytes() == cold_file.read_bytes()


def test_determinism_reuses_the_exact_identities_report(monkeypatch):
    # exact-identities leaves the default (split) report in the context, on
    # the same grid, so determinism streams only the one-process one
    ctx = checks.CheckContext()
    assert checks.run_check("exact-identities", ctx, hi=10 ** 5).passed
    calls = []
    sums_stream = checks.sums_stream

    def recorded(model, grid, **kwargs):
        calls.append(kwargs)
        return sums_stream(model, grid, **kwargs)

    monkeypatch.setattr(checks, "sums_stream", recorded)
    result = checks.run_check("determinism", ctx, hi=10 ** 5)
    assert result.passed and calls == [{"parallel": False}]
    assert result.detail.startswith("a 1-process and a 1-process sweep over 20 ")


def test_determinism_names_each_runs_process_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    result = checks.run_check("determinism", checks.CheckContext(), hi=3 * 10 ** 6)
    assert result.passed, result.detail
    assert result.detail == ("a 1-process and a 2-process sweep over 20 checkpoints "
                             "<= 3000000: byte-identical report files")


def test_identity_checks_refuse_past_the_table_before_streaming(monkeypatch, capsys):
    def no_stream(*args, **kwargs):
        raise AssertionError("streamed before the factor table refused")

    monkeypatch.setattr(checks, "sums_stream", no_stream)
    rc, out, err = run(capsys, "verify", "--check", "omega-identity", "--to", "3e8")
    assert rc == 2 and out == ""
    assert "SPF table limit 300000000 exceeds cap 10000000" in err


def test_fit_u_residual_after_geomean(tmp_path, monkeypatch, capsys):
    grid = ("--from", "1000", "--to", "100000", "--points", "5")
    fit = ("fit", "--model", "kappa", "--target", "u-residual", *grid,
           "--format", "json")
    monkeypatch.delenv("PRIMEMEAN_CACHE", raising=False)
    rc, cold, _ = run(capsys, *fit)
    assert rc == 0
    monkeypatch.setenv("PRIMEMEAN_CACHE", str(tmp_path))
    rc, _, _ = run(capsys, "geomean", "--model", "kappa", *grid)
    assert rc == 0
    rc, warm, _ = run(capsys, *fit)
    assert rc == 0 and warm == cold


def _write_v1_cache(path, report):
    """The version-1 layout: 16-byte header, then (value, compensation)
    pairs for all seven float fields in every record."""
    blob = [struct.pack("<4sHQH", b"PMSM", 1, report.model_hash, len(report))]
    for i, n in enumerate(report.points):
        pairs = []
        for name in primesums.FLOAT_FIELDS:
            pairs += [getattr(report, name)[i], 0.0]
        blob.append(struct.pack("<QQ14d", n, report.s1[i], *pairs))
    path.write_bytes(b"".join(blob))


def test_geomean_cache_never_reads_the_other_route(tmp_path, monkeypatch, capsys):
    # geomean streams on the sublinear route and sums on the sieve route;
    # sums writes both reports to the one file, and each command reads its own
    monkeypatch.delenv("PRIMEMEAN_CACHE", raising=False)
    model = builtin("euler_phi")
    grid = ("--model", "euler_phi", "--to", "30000", "--points", "4", "--cache", str(tmp_path))
    rc, cold, _ = run(capsys, "geomean", *grid, "--format", "json")
    assert rc == 0
    [path] = tmp_path.glob("*.pmsm")
    assert primesums.load_report(str(path), model).sublinear
    with pytest.raises(CacheFormatError, match="no sieve-route report"):
        primesums.load_report(str(path), model, sublinear=False)

    def no_stream(*args, **kwargs):
        raise AssertionError("the cached report was not served")

    with monkeypatch.context() as patch:
        patch.setattr(primesums, "sums_stream", no_stream)
        rc, warm, _ = run(capsys, "geomean", *grid, "--format", "json")
    assert rc == 0 and warm == cold

    rc, _, _ = run(capsys, "sums", *grid)
    report = primesums.load_report(str(path), model)
    assert rc == 0 and report.u_of_x is not None and not report.sublinear
    written = path.read_bytes()
    with monkeypatch.context() as patch:
        patch.setattr(primesums, "sums_stream", no_stream)
        rc, after, _ = run(capsys, "geomean", *grid, "--format", "json")
        assert rc == 0 and after == cold
        rc, again, _ = run(capsys, "sums", *grid)
        assert rc == 0
    assert path.read_bytes() == written


@pytest.mark.parametrize("argv", [
    ("sums", "--model", "kappa", "--to", "2e9"),
    ("fit", "--target", "u-residual", "--to", "2e9"),
    ("verify", "--check", "exact-identities", "--to", "2e9"),
    ("verify", "--check", "routes-agree", "--to", "2e9"),
])
def test_the_sieve_route_keeps_its_bound(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert "checkpoint 2000000000 exceeds the sieve bound 1000000000" in err


def test_the_sublinear_route_reaches_1e12(capsys):
    rc, out, _ = run(capsys, "geomean", "--model", "kappa", "--n", "2e9", "--format", "json")
    assert rc == 0 and json.loads(out)[0]["n"] == 2 * 10 ** 9
    for argv in (("geomean", "--model", "kappa", "--n", "1000000000001"),
                 ("fit", "--target", "s1-residual", "--to", "1e13")):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert "exceeds the sublinear route's bound 1000000000000" in err


@pytest.mark.parametrize("model", ["kappa", "two_omega"])
@pytest.mark.parametrize("argv", [("--n", "2"), ("--n", "3"), ("--to", "3")])
def test_geomean_at_the_smallest_checkpoints(capsys, model, argv):
    # below 4 the split isqrt(n) = 1 is raised to 2, the first prime
    rc, out, _ = run(capsys, "geomean", "--model", model, *argv, "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    grid = CheckpointGrid.from_points([row["n"] for row in rows])
    sieve = primesums.sums_stream(builtin(model), grid)
    fast = primesums.sums_stream(builtin(model), grid, sublinear=True)
    for row, n, a, b, ea, eb in zip(rows, grid.points, sieve.n_log_g, fast.n_log_g,
                                    sieve.err_bound, fast.err_bound):
        assert row["log_geomean"] == b / n
        assert abs(a - b) <= ea + eb


@pytest.mark.parametrize("names, route", [
    (["omega-mean-trend", "s2-constant", "kappa-corollary"], True),
    (["exact-identities"], False),
])
def test_checks_share_one_stream_per_route(monkeypatch, names, route):
    # the trend checks read one sublinear-route report of kappa's ladder, and
    # exact-identities' three identities one sieve-route report
    calls = []
    sums_stream = checks.sums_stream

    def counted(model, grid, **kwargs):
        calls.append(kwargs.get("sublinear", False))
        return sums_stream(model, grid, **kwargs)

    monkeypatch.setattr(checks, "sums_stream", counted)
    checks.run_all(names=names)
    assert calls == [route]


def test_one_factor_peel_matches_per_checkpoint_oracles():
    # omega's prefix exactly as omega_summatory's peel of [2, n]; log kappa's
    # within a few pairwise-summation ulps of an exact fsum per integer
    from primemean.sieve import factorize

    grid = CheckpointGrid.log_spaced(100, 30000, 9)
    ctx = checks.CheckContext()
    omega, log_kappa = ctx.factor_sums(grid)
    table = ctx.table(grid.n_max)
    assert omega == [primesums.omega_summatory(n, table) for n in grid]
    per_k = [math.fsum(math.log(p) for p, _ in factorize(k, table))
             for k in range(2, grid.n_max + 1)]
    for n, got in zip(grid, log_kappa):
        assert abs(got - math.fsum(per_k[:n - 1])) <= 1e-12 * n, n


@pytest.mark.parametrize("field", ["n_log_g", "err_bound"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_routes_agree_fails_on_a_non_finite_value(monkeypatch, field, bad):
    sums_stream = checks.sums_stream

    def spoiled(model, grid, **kwargs):
        rep = sums_stream(model, grid, **kwargs)
        if not kwargs.get("sublinear"):
            return rep
        values = getattr(rep, field)
        return dataclasses.replace(rep, **{field: (bad,) + values[1:]})

    monkeypatch.setattr(checks, "sums_stream", spoiled)
    result = checks.run_check("routes-agree", hi=10 ** 4)
    assert not result.passed and "= inf" in result.detail


def test_geomean_sieves_no_prime_above_the_split(monkeypatch, capsys):
    # the default grid ends at 1e8, whose split is isqrt(1e8): the prime
    # pass must stop there, and the floor-value tables take the rest
    asked = []
    stream_segmented = accum.stream_segmented

    def recorded(lo, hi, *args, **kwargs):
        asked.append(hi)
        return stream_segmented(lo, hi, *args, **kwargs)

    monkeypatch.setattr(accum, "stream_segmented", recorded)
    monkeypatch.delenv("PRIMEMEAN_CACHE", raising=False)
    rc, _, _ = run(capsys, "geomean", "--model", "euler_phi")
    assert rc == 0 and asked == [10 ** 4]


def test_v1_cache_file_is_recomputed(tmp_path, monkeypatch, capsys):
    model = builtin("kappa")
    grid = CheckpointGrid.log_spaced(100, 20000, 3)
    report = primesums.sums_stream(model, grid)
    path = primesums.default_cache_path(str(tmp_path), model, grid)
    _write_v1_cache(Path(path), report)
    with pytest.raises(CacheFormatError, match="version 1"):
        primesums.load_report(path, model, grid)

    args = ("sums", "--model", "kappa", "--from", "100", "--to", "20000",
            "--points", "3", "--format", "csv")
    monkeypatch.delenv("PRIMEMEAN_CACHE", raising=False)
    rc, cold, _ = run(capsys, *args)
    assert rc == 0
    monkeypatch.setenv("PRIMEMEAN_CACHE", str(tmp_path))
    rc, warm, _ = run(capsys, *args)
    assert rc == 0 and warm == cold
    assert primesums.load_report(path, model, grid) == report


def _rewrite_version(path: Path, version: int) -> None:
    """Stamp `version` into a cache file's header and re-sign it."""
    blob = bytearray(path.read_bytes())
    struct.pack_into("<H", blob, 4, version)
    head, size = primesums._HEADER.size, primesums._DIGEST_SIZE
    blob[head:head + size] = primesums._digest(bytes(blob[:head]),
                                               bytes(blob[head + size:]))
    path.write_bytes(bytes(blob))


def _assert_recomputed(path: Path, tmp_path, monkeypatch, capsys) -> None:
    """`sums` treats the file at `path` as a miss and rewrites it as current."""
    args = ("sums", "--model", "kappa", "--from", "100", "--to", "20000",
            "--points", "3", "--format", "csv")
    monkeypatch.delenv("PRIMEMEAN_CACHE", raising=False)
    rc, cold, _ = run(capsys, *args)
    assert rc == 0
    rc, warm, _ = run(capsys, *args, "--cache", str(tmp_path))
    assert rc == 0 and warm == cold
    assert struct.unpack_from("<H", path.read_bytes(), 4) == (primesums.CACHE_VERSION,)


@pytest.mark.parametrize("version", [3, 5, 6, 7, 8, 9])
def test_v3_cache_file_is_recomputed(version, tmp_path, monkeypatch, capsys):
    # a current file stamped with an older version is refused on the version
    # alone: a v3 file differs from v4 only in U's last bits, a v5 record
    # lacks n_log_g and err_bound, a v6 file's n_log_g, err_bound and f2
    # differ from v7 in their last bits when f is not strongly multiplicative,
    # a v7 sieve-route report's s2, s3, n_log_g, err_bound and U differ
    # from v8 in their last bits (per-prime quotients at every cut), v8
    # read layout byte 0 as a sieve-route report without the companions, and
    # a v9 sieve-route report's sums differ from v10 in their last bits
    # (segments of 2^20 numbers, U's lower end as four polynomials)
    model = builtin("kappa")
    grid = CheckpointGrid.log_spaced(100, 20000, 3)
    path = Path(primesums.default_cache_path(str(tmp_path), model, grid))
    primesums.save_report(str(path), primesums.sums_stream(model, grid))
    _rewrite_version(path, version)
    with pytest.raises(CacheFormatError, match=f"version {version}"):
        primesums.load_report(str(path), model, grid)
    _assert_recomputed(path, tmp_path, monkeypatch, capsys)


def test_non_finite_sum_fails_the_cross_check(tmp_path, capsys):
    # the Horner x-form of f(p) cancels at p = 2 and 3, so log1p returns -inf
    # on both routes and assembled - direct is NaN
    path = tmp_path / "m64.model"
    path.write_text("name = m64\nd = 64\nalpha = 1\ndelta = 1\nK = 8256\n"
                    "fp = (p - 1)^64 + 1\nstrongly_multiplicative = true\n")
    for argv in (("sums", "--to", "1000", "--points", "2"),
                 ("fit", "--target", "qsum-residual", "--to", "100000")):
        with pytest.warns(RuntimeWarning, match="log1p"):
            rc, out, err = run(capsys, *argv, "--model", str(path))
        assert rc == 1 and out == "", argv
        assert "identity cross-check failed" in err, argv


def test_v4_cache_file_is_recomputed(tmp_path, monkeypatch, capsys):
    # a v4 file without U: flags 0, records of n, s1 and six floats (64
    # bytes), where the current format reads layout 0 as records of 88 bytes
    model = builtin("kappa")
    grid = CheckpointGrid.log_spaced(100, 20000, 3)
    report = primesums.sums_stream(model, grid)
    names = primesums.FLOAT_FIELDS[:-1]
    payload = b"".join(
        struct.pack("<QQ6d", n, report.s1[i], *(getattr(report, f)[i] for f in names))
        for i, n in enumerate(report.points))
    header = primesums._HEADER.pack(b"PMSM", 4, report.model_hash, len(report), 0)
    path = Path(primesums.default_cache_path(str(tmp_path), model, grid))
    path.write_bytes(header + primesums._digest(header, payload) + payload)
    with pytest.raises(CacheFormatError, match="version 4"):
        primesums.load_report(str(path), model, grid)
    _assert_recomputed(path, tmp_path, monkeypatch, capsys)


def _shifted_model(path, shift: int) -> str:
    path.write_text(
        f"name = shifted\nd = 1\nalpha = 1\ndelta = 1\nK = {shift}\n"
        f"fp = p + {shift}\nstrongly_multiplicative = true\n")
    return str(path)


def test_cache_keys_on_model_not_name(tmp_path, monkeypatch, capsys):
    # two different models that share a name must not share a cache entry
    first = _shifted_model(tmp_path / "one.model", 1)
    second = _shifted_model(tmp_path / "two.model", 2)
    args = ("sums", "--from", "10", "--to", "100", "--points", "2",
            "--format", "json")
    monkeypatch.delenv("PRIMEMEAN_CACHE", raising=False)
    rc, cold, _ = run(capsys, *args, "--model", second)
    assert rc == 0
    cache = tmp_path / "cache"
    rc, other, _ = run(capsys, *args, "--model", first, "--cache", str(cache))
    assert rc == 0 and other != cold
    rc, warm, _ = run(capsys, *args, "--model", second, "--cache", str(cache))
    assert rc == 0 and warm == cold
    assert len(list(cache.glob("shifted-*.pmsm"))) == 2


def test_cache_path_naming_a_file_exits_2(tmp_path, monkeypatch, capsys):
    target = tmp_path / "not-a-dir"
    target.write_text("")
    args = ("sums", "--model", "kappa", "--to", "1000", "--points", "2")
    rc, out, err = run(capsys, *args, "--cache", str(target))
    assert rc == 2 and str(target) in err and out == ""
    monkeypatch.setenv("PRIMEMEAN_CACHE", str(target))
    rc, out, err = run(capsys, *args)
    assert rc == 2 and str(target) in err and out == ""


@pytest.mark.parametrize("below", ["sub", "sub/deeper", "../new"])
def test_cache_path_under_a_file_exits_2(tmp_path, monkeypatch, capsys, below):
    # `<file>/../new` names no directory: the OS resolves `..` after `<file>`
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    target = f"{blocker}/{below}"
    args = ("sums", "--model", "kappa", "--to", "1000", "--points", "2")
    rc, out, err = run(capsys, *args, "--cache", str(target))
    assert rc == 2 and str(target) in err and str(blocker) in err and out == ""
    assert "Traceback" not in err
    monkeypatch.setenv("PRIMEMEAN_CACHE", str(target))
    rc, out, err = run(capsys, *args)
    assert rc == 2 and str(target) in err and out == ""
    assert blocker.read_text() == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["not-a-dir"]


def test_directory_at_the_report_path_exits_2(tmp_path, capsys):
    # the load's IsADirectoryError is a miss; the rewrite cannot replace
    # the directory, which is the documented "cannot be written"
    cache = tmp_path / "cache"
    args = ("geomean", "--model", "kappa", "--to", "1000", "--points", "2",
            "--cache", str(cache))
    assert run(capsys, *args)[0] == 0
    report, = cache.iterdir()
    report.unlink()
    report.mkdir()
    rc, out, err = run(capsys, *args)
    assert rc == 2 and "cannot be written" in err and out == ""
    assert "Traceback" not in err
    assert [p.name for p in cache.iterdir()] == [report.name] and report.is_dir()


def test_cache_write_failure_exits_2(tmp_path, monkeypatch, capsys):
    def full(path, report):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(primesums, "save_report", full)
    rc, out, err = run(capsys, "sums", "--model", "kappa", "--to", "1000", "--points", "2",
                       "--cache", str(tmp_path / "cache"))
    assert rc == 2 and "cannot be written" in err and "No space left" in err
    assert "Traceback" not in err


def test_no_cache_without_configuration(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("PRIMEMEAN_CACHE", raising=False)
    monkeypatch.chdir(tmp_path)
    rc, _, _ = run(capsys, "sums", "--model", "kappa", "--to", "5000",
                   "--points", "2")
    assert rc == 0
    assert not list(tmp_path.rglob("*.pmsm"))


def test_custom_model_file(tmp_path, capsys):
    path = tmp_path / "shifted.model"
    path.write_text(
        "name = shifted\nd = 1\nalpha = 1\ndelta = 1\nK = 1\n"
        "fp = p + 1\nstrongly_multiplicative = true\n")
    rc, out, _ = run(capsys, "geomean", "--model", str(path), "--n", "4",
                     "--oracle", "--format", "json")
    assert rc == 0
    # product over 1..4: 1 * 3 * 4 * 3 = 36 (f(4) = f(2) = 3)
    assert json.loads(out)[0]["log_geomean"] == pytest.approx(
        math.log(36) / 4, abs=1e-12)


@pytest.mark.parametrize("body", [
    "d = 2\nalpha = 1\ndelta = 1\nK = 1\nfp = p + 1",        # d is deg N - deg D
    "d = 1\nalpha = 2\ndelta = 1\nK = 1\nfp = p + 1",        # alpha is the leading coefficient
    "d = 1\nalpha = 1\ndelta = inf\nK = 0\nfp = p + 1",      # the deviation does not vanish
    "d = 1000000\nalpha = 1\ndelta = 1\nK = 1\nfp = p^1000000",
])
def test_unmeetable_model_file_exits_2_fast(tmp_path, capsys, body):
    path = tmp_path / "bad.model"
    path.write_text(f"name = bad\n{body}\nstrongly_multiplicative = true\n")
    start = time.perf_counter()
    rc, out, err = run(capsys, "geomean", "--model", str(path), "--n", "10")
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and out == ""
    assert "expected" in err or "MAX_EXPONENT" in err


def _fresh(code: str, **env: str) -> str:
    """stdout of `code` in a fresh interpreter on this source tree, with no
    OPENBLAS_NUM_THREADS unless `env` sets it."""
    base = {k: v for k, v in os.environ.items()
            if not k.startswith("PYTHON") and k != "OPENBLAS_NUM_THREADS"}
    res = subprocess.run([sys.executable, "-c", code], env={**base, "PYTHONPATH": SRC, **env},
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout


@pytest.mark.parametrize("preset", [None, "2"])
def test_cli_runs_openblas_on_one_thread_unless_told_otherwise(preset):
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    out = _fresh("import os, primemean.cli\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))", **env)
    assert out.strip() == (preset or "1")


@pytest.mark.parametrize("module", ["primemean", "primemean.primesums"])
def test_library_imports_leave_the_environment_and_the_thread_pool_alone(module):
    out = _fresh(f"import os, sys, {module}\n"
                 "print(os.environ.get('OPENBLAS_NUM_THREADS'), 'concurrent.futures' in sys.modules)")
    assert out.strip() == "None False"


def test_fit_prints_the_same_bytes_on_one_blas_thread_as_on_several():
    code = ("from primemean import cli\n"
            f"for target in {FIT_TARGETS!r}:\n"
            "    cli.main(['fit', '--target', target, '--from', '10000', '--to', '1000000',\n"
            "              '--points', '64', '--order', '3'])\n")
    # several: what numpy's OpenBLAS starts when nothing is set (one per CPU)
    several = _fresh(code, OPENBLAS_NUM_THREADS=str(max(2, os.cpu_count() or 1)))
    assert several.count("residual_norm") == 4
    assert _fresh(code) == several
