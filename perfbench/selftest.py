"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit by
each workload, timed and traced; that the traced counts repeat; that a
corrupted output is counted as a failure; that a hung child is killed and
counted as a failure; and that the harness refuses a directory without the
program.  Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".perfbench-work" / "selftest"
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B")]


def _units(entries) -> dict:
    return {m["name"]: m["unit"] for m in entries}


class CorruptingRunner(harness.Runner):
    """Applies `corrupt` to the stdout of the `nth` CLI command."""

    def __init__(self, workdir, nth, corrupt):
        super().__init__(workdir)
        self.calls, self.nth, self.corrupt = 0, nth, corrupt

    def cli(self, args):
        res = super().cli(args)
        self.calls += 1
        if self.calls == self.nth:
            res.stdout = self.corrupt(res.stdout)
        return res


def _workload(name):
    wl = workloads.build(name, 3, WORK / name, tiny=True)
    tempfile.tempdir = str(wl.workdir)
    wl.prepare()
    return wl


def test_metrics_emitted():
    assert harness.END_TO_END == _units(SPEC["end_to_end"])
    assert layers.PER_LAYER == _units(SPEC["per_layer"])
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    counts = {}
    for name in workloads.WORKLOADS:
        wl = _workload(name)
        metrics, detail = harness.timed_run(wl, harness.Runner(wl.workdir), 0)
        tally = detail["tally"]
        assert tally.failed == 0, tally.failures
        assert set(metrics) == set(harness.END_TO_END)
        assert all(v > 0 for v in metrics.values()), metrics
        metrics, detail = layers.traced_run(wl, harness.Runner(wl.workdir))
        tally = detail["tally"]
        assert tally.failed == 0, tally.failures
        assert set(metrics) == set(layers.PER_LAYER)
        counts[name] = {k: metrics[k] for k in COUNTS}
    wl = _workload("cache-reuse")
    metrics, _ = layers.traced_run(wl, harness.Runner(wl.workdir))
    assert {k: metrics[k] for k in COUNTS} == counts["cache-reuse"]


def _perturb_first_row(out: bytes) -> bytes:
    rows = json.loads(out)
    rows[0]["n_log_g"] *= 1 + 1e-9
    return json.dumps(rows, indent=2).encode() + b"\n"


def test_corrupt_output_fails():
    for name, nth, corrupt in (
            ("sweep", 2, _perturb_first_row),          # a wrong value
            ("constants", 1, lambda out: out[:-20]),   # a truncated output
            ("verify-oracles", 1, lambda out: out.replace(b"true", b"false"))):
        wl = _workload(name)
        runner = CorruptingRunner(wl.workdir, nth, corrupt)
        _, detail = harness.timed_run(wl, runner, 0)
        tally = detail["tally"]
        assert tally.failed == 1 and tally.attempted > 1, (name, tally.failures)


def test_hung_child_killed():
    WORK.mkdir(parents=True)
    runner = harness.Runner(WORK, timeout=0.5)
    res = runner.python("import time; time.sleep(30)")
    assert res.hung and res.wall_s < 10, res
    tally = harness.Tally()
    tally.record("sleep", res)
    assert tally.failed == 1 and "hung" in tally.failures[0], tally.failures


def test_refuses_without_program():
    bare = WORK / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    res = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "sweep",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, timeout=60)
    assert res.returncode != 0 and res.stdout == b"", res


def main() -> int:
    failed = 0
    for test in (test_refuses_without_program, test_hung_child_killed,
                 test_corrupt_output_fails, test_metrics_emitted):
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            test()
            print(f"PASS {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
    try:
        WORK.parent.rmdir()
    except OSError:
        pass
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
