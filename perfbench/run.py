"""primemean benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout (it needs `src/primemean`).  With `--trace 0`
one client runs the workload's `primemean` commands as fresh processes, one
at a time (a closed loop), for S seconds, checks every output, and reports
the end-to-end metrics.  With `--trace 1` it runs one iteration as
processes, replays the same commands in-process with a timing span around
each call into a layer, and reports the per-layer metrics (see layers.py).

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it is the full report (provenance, samples, tails, every
failure).  The exit code is 0 when the run completed, even if outputs were
wrong (that is what `correct` and `failed` say), and 2 when the checkout
has no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "primemean" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'primemean'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        tempfile.tempdir = str(workdir)  # in-process checks write temporaries
        workload.prepare()
        runner = harness.Runner(workdir)
        if args.trace:
            import layers
            metrics, detail = layers.traced_run(workload, runner)
            units = layers.PER_LAYER
        else:
            metrics, detail = harness.timed_run(workload, runner, args.seconds)
            units = harness.END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    tally = detail.pop("tally")
    report = {
        "workload": workload.name, "trace": args.trace, "seconds": args.seconds,
        "provenance": harness.provenance(args.seed), "labels": workload.labels,
        "fail_ratio": tally.failed / tally.attempted,
        "failures": tally.failures, **detail,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
