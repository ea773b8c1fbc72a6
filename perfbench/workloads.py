"""The benchmark's workloads: inputs made from a seed, commands, output checks.

A workload is a fixed sequence of `primemean` commands (one iteration) that
the harness repeats.  Each command feeds one of two end-to-end timings,
role "a" or role "b" (`cmd_a_s`, `cmd_b_s`); `labels` gives the name each
role has in the benchmark's documentation (`geomean_s`, `sums_s`, ...).

The seed only chooses inputs: interior checkpoints, the custom model, the
sequence of cache reads and the order of checks.  The largest checkpoint,
the checkpoint count and the declared growth constant K stay fixed, so the
amount of work does not depend on the seed.

`tiny=True` shrinks every size for the harness self-test; it is never used
for a measurement.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from primemean import sieve

import oracles
from harness import summarize

EPS = 2.0 ** -52
CONSTANT_SLACK = 1e-12  # the test suite's allowance on top of a tail bound


@dataclass
class Step:
    """One CLI command of an iteration."""

    key: str                                 # repeats of a key must print the same
    args: list[str]                          # arguments after `primemean`
    role: str                                # "a" or "b"
    check: Callable[[bytes], list[str]]      # problems found in stdout
    comparable: Callable[[bytes], object] = lambda out: out


def _rows(out: bytes) -> list[dict]:
    return json.loads(out.decode("utf-8"))


def _grid_problems(rows: list[dict], lo: int, hi: int, points: int) -> list[str]:
    ns = [r["n"] for r in rows]
    if len(ns) != points or ns[0] != lo or ns[-1] != hi:
        return [f"grid {ns[:1]}..{ns[-1:]} ({len(ns)} points), "
                f"expected {lo}..{hi} ({points} points)"]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        return ["checkpoints are not ascending"]
    return []


def _identity_tol(ref: float, n: int) -> float:
    # log_geomean_identity's documented accuracy contract
    return 1e-12 * (abs(ref) + n)


def _sums_problems(rows: list[dict], ref: dict, model: str) -> list[str]:
    """Lowest checkpoint against per-integer oracles; S2 = nM - R throughout."""
    bad = []
    low = rows[0]
    n = low["n"]
    if abs(low["n_log_g"] - ref["n_log_g"]) > _identity_tol(ref["n_log_g"], n):
        bad.append(f"n_log_g({n}) = {low['n_log_g']!r}, oracle {ref['n_log_g']!r}")
    if low["s1"] != ref["s1"]:
        bad.append(f"s1({n}) = {low['s1']}, oracle {ref['s1']}")
    if abs(low["u_of_x"] - ref["u_of_x"]) > 1e-9 * n:
        bad.append(f"u_of_x({n}) = {low['u_of_x']!r}, oracle {ref['u_of_x']!r}")
    for r in rows:
        if abs(r["s2"] - (r["n"] * r["m_of_x"] - r["r_sum"])) > 1e-9 * r["n"]:
            bad.append(f"S2 != n M - R at n={r['n']}")
        if model == "kappa" and abs(r["n_log_g"] - r["s2"]) > r["err_bound"]:
            bad.append(f"kappa n_log_g != S2 at n={r['n']}")
    return bad


def _constant_problems(rows: list[dict], ref: dict, expected: int) -> list[str]:
    bad = [] if len(rows) == expected else [f"{len(rows)} constants, expected {expected}"]
    for r in rows:
        want = ref.get(r["constant"])
        if want is None:
            bad.append(f"no oracle for {r['constant']}")
        elif abs(r["value"] - want) > r["tail_bound"] + CONSTANT_SLACK:
            bad.append(f"{r['constant']} = {r['value']!r} is {abs(r['value'] - want):.3g} "
                       f"from the oracle {want!r}, beyond its tail bound {r['tail_bound']:.3g}")
    return bad


def _log_spaced_from(rng: random.Random, lo_exp: float, hi_exp: float) -> int:
    return int(round(10 ** rng.uniform(lo_exp, hi_exp)))


class Workload:
    name = ""
    labels: dict = {}                 # role -> the timing's documented name
    sieve_bound: int | None = None    # None: the largest constant cut-off used

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.workdir = workdir

    def models(self) -> list[str]:
        """Model specs the commands resolve (built-in names or file paths)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Write input files and compute oracle values; never timed."""

    def iteration(self) -> list[Step]:
        raise NotImplementedError

    def traced_steps(self) -> list[Step]:
        """The commands a traced run runs and replays: one iteration."""
        return self.iteration()

    def after(self, step: Step) -> list[str]:
        """Problems found in files the step left behind."""
        return []

    def extra_report(self, stats: dict, samples: dict) -> dict:
        """Workload-specific figures for the report, from a timed run."""
        return {}


class Sweep(Workload):
    """Cold geomean and sums on a 12-point log grid ending at 1e8, no cache."""

    name = "sweep"
    labels = {"a": "geomean_s", "b": "sums_s"}
    points = 12

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        rng = random.Random(seed)
        self.n_max = 10 ** 6 if tiny else 10 ** 8
        self.lo = _log_spaced_from(rng, 3.7, 4.3)
        self.sieve_bound = self.n_max
        self.grid = ["--from", str(self.lo), "--to", str(self.n_max),
                     "--points", str(self.points)]

    def models(self):
        return ["euler_phi", "kappa"]

    def prepare(self):
        table = sieve.spf_build(self.lo)
        self.ref = {m: oracles.checkpoint(m, self.lo, table) for m in self.models()}
        self.consts = oracles.constant_table(
            {"euler_phi": oracles.BUILTIN_SHIFTS["euler_phi"]}, 0)

    def iteration(self):
        return [
            Step("geomean", ["geomean", "--model", "euler_phi", *self.grid,
                             "--format", "json"], "a", self.check_geomean),
            Step("sums", ["sums", "--model", "kappa", *self.grid,
                          "--format", "json"], "b", self.check_sums),
        ]

    def check_geomean(self, out):
        rows = _rows(out)
        bad = _grid_problems(rows, self.lo, self.n_max, self.points)
        ref = self.ref["euler_phi"]["n_log_g"]
        got = rows[0]["log_geomean"] * self.lo
        if abs(got - ref) > _identity_tol(ref, self.lo) + 4 * EPS * abs(ref):
            bad.append(f"log_geomean({self.lo}) * n = {got!r}, oracle {ref!r}")
        want = self.consts["leading_constant[euler_phi]"]
        for r in rows:
            if abs(r["predicted"] - want) > r["predicted_tail"] + CONSTANT_SLACK:
                bad.append(f"predicted {r['predicted']!r} vs oracle {want!r}")
                break
        return bad

    def check_sums(self, out):
        rows = _rows(out)
        return (_grid_problems(rows, self.lo, self.n_max, self.points)
                or _sums_problems(rows, self.ref["kappa"], "kappa"))

    def extra_report(self, stats, samples):
        # integers swept per second by `sums` at n_max
        return {"sweep_mn_per_s": self.n_max / stats["sums_s"]["median"] / 1e6}


class Constants(Workload):
    """`constants` for two built-in delta=1 models and a seeded model file.

    The model file is f(p) = (2p + a)(2p + b)/4 with odd a, b in [-3, 5]:
    d = 2, alpha = 1, delta = 1 and |f(p) - p^2| <= 8.125 p for every prime,
    so the declared K = 9 holds for every seed and fixes the C_Q cut-off at
    2K/precision.  The numerator is odd, so every seed's exact evaluation
    takes the same path through Fraction (a cancelling factor would make
    some seeds cheaper).
    """

    name = "constants"
    labels = {"a": "constants_custom_s", "b": "constants_builtin_s"}
    K = 9

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        rng = random.Random(seed)
        a, b = (rng.choice((-3, -1, 1, 3, 5)) for _ in range(2))
        self.shifts = ((a / 2, 1), (b / 2, 1))
        term = lambda c: f"(2 * p {'+' if c >= 0 else '-'} {abs(c)})"
        self.fp = f"{term(a)} * {term(b)} / 4"
        self.model_path = str(workdir / "custom.model")
        self.precision = "1e-3" if tiny else "1.2e-5"
        self.builtin_extra = ["--precision", "1e-4"] if tiny else []
        self.aj = 4
        self.round = 0

    def models(self):
        return ["euler_phi", "sigma", self.model_path]

    def prepare(self):
        Path(self.model_path).write_text(
            "# generated by the benchmark\nname = custom\nd = 2\nalpha = 1\n"
            f"delta = 1\nK = {self.K}\nfp = {self.fp}\n"
            "strongly_multiplicative = true\n", encoding="utf-8")
        shifts = {"euler_phi": oracles.BUILTIN_SHIFTS["euler_phi"],
                  "sigma": oracles.BUILTIN_SHIFTS["sigma"],
                  "custom": (2, 1, self.shifts)}
        self.ref = oracles.constant_table(shifts, self.aj)

    def _steps(self) -> list[Step]:
        def check(aj):
            return lambda out: _constant_problems(_rows(out), self.ref, 3 + aj + 4)
        return [
            Step("euler_phi", ["constants", "--model", "euler_phi", *self.builtin_extra,
                               "--format", "json"], "b", check(2)),
            Step("sigma", ["constants", "--model", "sigma", "--aj", str(self.aj),
                           *self.builtin_extra, "--format", "json"], "b", check(self.aj)),
            Step("custom", ["constants", "--model", self.model_path,
                            "--precision", self.precision, "--format", "json"],
                 "a", check(2)),
        ]

    def iteration(self):
        # one built-in model per iteration, euler_phi and sigma in turn, so
        # that the custom model gets as much of the run as the built-ins
        euler_phi, sigma, custom = self._steps()
        self.round += 1
        return [sigma if self.round % 2 == 0 else euler_phi, custom]

    def traced_steps(self):
        return self._steps()


class CacheReuse(Workload):
    """A cold `sums --cache` that writes, then seeded warm sums/fit reads.

    Every iteration starts from a fresh, empty cache directory.
    """

    name = "cache-reuse"
    labels = {"a": "cache_read_s", "b": "cache_write_s"}
    model = "euler_phi"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        rng = random.Random(seed)
        self.n_max = 10 ** 5 if tiny else 10 ** 7
        self.points = 16 if tiny else 64
        self.lo = _log_spaced_from(rng, 3.3, 4.3)
        self.sieve_bound = self.n_max
        self.grid = ["--model", self.model, "--from", str(self.lo), "--to",
                     str(self.n_max), "--points", str(self.points)]
        # a fixed mix (two sums, each fit target twice) in a seeded order,
        # with seeded fit orders: the reads' work does not depend on the seed
        plan = [("sums",)] * 2 + [("fit", t, rng.randint(1, 3)) for t in
                                  ("s2-residual", "u-residual", "qsum-residual") * 2]
        rng.shuffle(plan)
        self.read_plan = plan
        self.round = 0
        self.cold_rows = None

    def models(self):
        return [self.model]

    def prepare(self):
        self.ref = oracles.checkpoint(self.model, self.lo)

    def iteration(self):
        self.round += 1
        self.cache_dir = self.workdir / f"cache-{self.round}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        cache = ["--cache", str(self.cache_dir)]
        steps = [Step("cold", ["sums", *self.grid, *cache, "--format", "json"],
                      "b", self.check_cold)]
        for read in self.read_plan:
            if read[0] == "sums":
                steps.append(Step("warm-sums", ["sums", *self.grid, *cache,
                                                "--format", "json"],
                                  "a", self.check_warm_sums))
            else:
                _, target, order = read
                steps.append(Step(
                    f"fit-{target}-{order}",
                    ["fit", *self.grid, *cache, "--target", target,
                     "--order", str(order), "--format", "json"],
                    "a", lambda out, t=target, r=order: self.check_fit(out, t, r)))
        return steps

    def _cache_files(self) -> list[Path]:
        return sorted(self.cache_dir.glob("*.pmsm")) if self.cache_dir.is_dir() else []

    def check_cold(self, out):
        self.cold_out = out
        rows = _rows(out)
        if self.cold_rows is None:
            self.cold_rows = rows
        return (_grid_problems(rows, self.lo, self.n_max, self.points)
                or _sums_problems(rows, self.ref, self.model))

    def after(self, step):
        files = self._cache_files()
        if len(files) != 1:
            return [f"cache holds {len(files)} report files after {step.key}, expected 1"]
        st = files[0].stat()
        stamp = (st.st_ino, st.st_mtime_ns, st.st_size)
        if step.key == "cold":
            self.stamp = stamp
            self.cache_bytes = st.st_size
            return []
        return [] if stamp == self.stamp else [f"{step.key} rewrote the cache file"]

    def extra_report(self, stats, samples):
        return {"cache_bytes": self.cache_bytes}

    def check_warm_sums(self, out):
        return [] if out == self.cold_out else ["warm sums differs from the cold sums"]

    def check_fit(self, out, target, order):
        got = {r["term"]: r["value"] for r in _rows(out)}
        samples = []
        for r in self.cold_rows:
            n, ln = r["n"], math.log(r["n"])
            if target == "s2-residual":
                y = r["s2"] / n - ln
            elif target == "u-residual":
                y = r["u_of_x"] / n - 1.0
            else:  # euler_phi: log alpha = 0 and d = 1
                y = (r["s2"] + r["s3"]) / n - ln
            samples.append((n, y))
        with_constant = target != "u-residual"
        want = oracles.fit(samples, order, with_constant)
        names = (["constant"] if with_constant else []) + \
            [f"coef[1/log^{j}]" for j in range(1, order + 1)]
        bad = []
        for name, w in zip(names, want):
            if name not in got or abs(got[name] - w) > 1e-6 * max(1.0, abs(w)):
                bad.append(f"fit {target} order {order}: {name} = {got.get(name)!r}, "
                           f"oracle {w!r}")
        return bad


class VerifyOracles(Workload):
    """`verify` on the acceptance checks that pass and do not sweep to 1e8.

    Two commands per iteration: the checks built on the certified constants
    and their limit oracles (role a), and the sieve, factor-table and
    brute-force checks (role b).
    """

    name = "verify-oracles"
    labels = {"a": "verify_constants_s", "b": "verify_sieve_s"}
    sieve_bound = 10 ** 8  # the limit oracles' anchor
    constants_checks = ("a1-gamma", "constants-stability", "phi-geomean")
    sieve_checks = ("identity-oracle", "exact-identities", "rs-inequality",
                    "series-algebra", "determinism")

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        rng = random.Random(seed)
        if tiny:
            self.constants_checks = ("a1-gamma",)
            self.sieve_checks = ("series-algebra", "determinism")
        # the seed orders the constant checks; the sieve checks keep their
        # order, which decides which factor tables are alive together and so
        # the peak memory
        self.groups = [rng.sample(self.constants_checks, len(self.constants_checks)),
                       list(self.sieve_checks)]
        self.extra = ["--to", "20000"] if tiny else []

    def models(self):
        return ["kappa", "two_omega", "euler_phi", "sigma", "divisor_d", "jordan_2"]

    def iteration(self):
        steps = []
        for role, names in zip("ab", self.groups):
            args = ["verify", *self.extra, "--format", "json"]
            for name in names:
                args += ["--check", name]
            steps.append(Step(f"verify-{role}", args, role,
                              lambda out, names=names: self.check(out, names),
                              self.comparable))
        return steps

    def extra_report(self, stats, samples):
        # one verify of all eight checks, as the two commands of an iteration
        return {"verify_s": summarize([a + b for a, b in zip(samples["a"], samples["b"])])}

    @staticmethod
    def comparable(out):
        return [(r["check"], r["passed"], r["detail"]) for r in _rows(out)]

    def check(self, out, names):
        rows = _rows(out)
        bad = [] if [r["check"] for r in rows] == list(names) else \
            [f"ran {[r['check'] for r in rows]}, asked for {list(names)}"]
        bad += [f"{r['check']}: FAIL ({r['detail']})" for r in rows if not r["passed"]]
        return bad


WORKLOADS = {w.name: w for w in (Sweep, Constants, CacheReuse, VerifyOracles)}


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, workdir, tiny)
