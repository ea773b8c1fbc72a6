"""Process runner, failure tally and the timed (end-to-end) run."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A child still running after this long is taken to hang and is killed: it
# is ~13x the longest command (sweep's geomean, ~7 s), so a kill does not
# stand for a slowdown.  The run stops at the first hung command.
CHILD_TIMEOUT_S = 90.0
SETUP_SAMPLES = 15  # spread over the run; 11 or more give a tail percentile

# name -> unit, for the metrics a --trace 0 run reports
END_TO_END = {"setup_s": "s", "cmd_a_s": "s", "cmd_b_s": "s", "peak_rss_mb": "MB"}


@dataclass
class ChildResult:
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: bytes
    stderr: str
    hung: bool = False


class Runner:
    """Starts `python -m primemean.cli` children isolated from the caller.

    Children see the checkout's `src` on PYTHONPATH, a TMPDIR inside the
    checkout, and no PRIMEMEAN_* (the CLI reads PRIMEMEAN_CACHE silently) or
    other PYTHON* variables.  Each child's peak RSS comes from its own
    rusage (os.wait4); RUSAGE_CHILDREN would be a maximum over all of them.
    A child still running after `timeout` seconds is killed as hung.
    """

    def __init__(self, workdir: Path, timeout: float = CHILD_TIMEOUT_S):
        self.workdir = workdir
        self.timeout = timeout
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith(("PRIMEMEAN_", "PYTHON"))}
        self.env.update(PYTHONPATH=str(SRC), TMPDIR=str(workdir))
        self.peak_rss_mb = 0.0
        self.started = 0

    def run(self, argv: list[str]) -> ChildResult:
        self.started += 1
        err_path = self.workdir / f"stderr-{self.started}"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT)
            killed = threading.Event()
            killer = threading.Timer(self.timeout, lambda: (killed.set(), proc.kill()))
            killer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                proc.stdout.close()
        stderr = err_path.read_text(errors="replace")[-2000:]
        err_path.unlink()
        rss_mb = usage.ru_maxrss / 1024.0  # Linux reports kilobytes
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        return ChildResult(wall, rss_mb, proc.returncode, out, stderr, killed.is_set())

    def cli(self, args: list[str]) -> ChildResult:
        return self.run([sys.executable, "-m", "primemean.cli", *args])

    def python(self, code: str) -> ChildResult:
        return self.run([sys.executable, "-c", code])


def setup_code(models: list[str]) -> str:
    """A fresh interpreter importing primemean and resolving the models."""
    lines = ["import primemean",
             "from primemean.multfunc import builtin, load_model_file"]
    for spec in models:
        fn = "load_model_file" if spec.endswith(".model") else "builtin"
        lines.append(f"{fn}({spec!r})")
    return "\n".join(lines)


def summarize(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    out = {"n": len(xs), "median": statistics.median(xs) if xs else None,
           "tail": None}
    if len(xs) > 10:
        out["tail"] = {"percentile": 100 * (len(xs) - 10) // len(xs),
                       "value": xs[len(xs) - 11]}
    return out


class Tally:
    """Commands attempted and failed, with the reason for every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_output: dict = {}

    def record(self, what: str, result: ChildResult, problems=()) -> None:
        self.attempted += 1
        if result.hung:
            problems = [f"killed as hung: still running after {result.wall_s:.0f} s"]
        elif result.returncode != 0:
            problems = [f"exit code {result.returncode}: {result.stderr.strip()[-300:]}"]
        if problems:
            self.failed += 1
            self.failures += [f"{what}: {p}" for p in problems]

    def command(self, step, result: ChildResult, extra=()) -> None:
        """Check a workload command: exit code, output, and repeatability."""
        problems = list(extra)
        if result.returncode == 0:
            try:
                problems += step.check(result.stdout)
                seen = step.comparable(result.stdout)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"unreadable output ({type(exc).__name__}: {exc})")
            else:
                first = self.first_output.setdefault(step.key, seen)
                if seen != first:
                    problems.append("output differs from an earlier identical command")
        self.record(step.key, result, problems)


def provenance(seed: int) -> dict:
    from concurrent.futures import ThreadPoolExecutor

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    digest = hashlib.blake2b(digest_size=12)
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    pool = ThreadPoolExecutor()
    workers = pool._max_workers  # what sums_stream's default pool gets
    pool.shutdown()
    return {"seed": seed, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": commit, "src_digest": digest.hexdigest(),
            "default_pool_workers": workers}


def timed_run(workload, runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Closed loop over the workload's iterations until `seconds` have passed.

    The first iteration always runs whole; after it, no command starts once
    `seconds` have passed, so a run overshoots by at most one command.  A
    role's iteration mean counts only when all of that role's commands in
    the iteration ran (every command's wall time is a sample either way).

    The SETUP_SAMPLES set-up interpreters are spread evenly over the run:
    the k-th starts between two commands once k/SETUP_SAMPLES of `seconds`
    has passed (the rest after the last iteration), so that a drift in the
    host's speed reaches them as it reaches the commands.
    """
    tally = Tally()
    runner.python("import primemean.cli")  # untimed: fills the bytecode cache
    setup = []
    code = setup_code(workload.models())
    hung = False

    def set_up_due(elapsed: float) -> None:
        nonlocal hung
        while (not hung and len(setup) < SETUP_SAMPLES
               and len(setup) * seconds <= elapsed * SETUP_SAMPLES):
            res = runner.python(code)
            tally.record("setup", res)
            setup.append(res.wall_s)
            hung = res.hung

    samples = {"a": [], "b": []}
    means = {"a": [], "b": []}  # per iteration: mean over the role's commands
    rss: dict[str, list[float]] = {}  # per command: each process's peak RSS
    iterations = 0
    t0 = time.perf_counter()
    while not hung and (iterations == 0 or time.perf_counter() - t0 < seconds):
        steps = workload.iteration()
        walls = {"a": [], "b": []}
        for step in steps:
            if iterations and time.perf_counter() - t0 >= seconds:
                break
            set_up_due(time.perf_counter() - t0)
            if hung:
                break
            res = runner.cli(step.args)
            tally.command(step, res, workload.after(step) if res.returncode == 0 else ())
            walls[step.role].append(res.wall_s)
            rss.setdefault(step.key, []).append(res.rss_mb)
            if res.hung:
                hung = True
                break
        for role, ws in walls.items():
            samples[role] += ws
            if ws and len(ws) == sum(step.role == role for step in steps):
                means[role].append(statistics.fmean(ws))
        iterations += 1
    measured_s = time.perf_counter() - t0
    set_up_due(math.inf)

    stats = {"setup_s": summarize(setup)}
    for role, label in workload.labels.items():
        stats[label] = {**summarize(samples[role]), "iteration_means": means[role]}
    # after a hang a role may have no sample: it reads as the kill time
    metrics = {
        "setup_s": stats["setup_s"]["median"],
        "cmd_a_s": statistics.median(means["a"] or [runner.timeout]),
        "cmd_b_s": statistics.median(means["b"] or [runner.timeout]),
        # the most memory-hungry command's median peak: the maximum over all
        # processes (kept in the report) is an extreme value, and noisier
        "peak_rss_mb": max((statistics.median(v) for v in rss.values()), default=0.0),
    }
    detail = {"iterations": iterations, "measured_s": measured_s, "hung": hung,
              "max_rss_mb": runner.peak_rss_mb, "rss_mb": rss,
              "timings": stats, "samples": samples,
              **workload.extra_report(stats, samples)}
    return metrics, {"tally": tally, **detail}
