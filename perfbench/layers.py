"""The traced run: per-layer metrics, measured from the benchmark's side.

The program has no tracing of its own, so this module wraps the public
functions of each layer (module attributes of `primemean.*`) in timing
spans, replays one iteration of the workload's commands in-process through
`primemean.cli.main`, and then times a few layer calls on their own:

- spans: every call the commands make into a layer, with its inclusive
  time; a memoized constant that the command really reuses reads as a
  cache hit, as it does in the process that ran the command.  Every
  `lru_cache` in the package is cleared before each replayed command,
  because each real command starts in a fresh process.
- standalone: the sieve streamed to the workload's largest bound, the
  smallest-prime-factor table, the models' log_q_ratio_vec per prime, and
  the sequential baseline of every sums_stream call the commands made.
- probes: a metric whose layer the workload's commands never reach is
  timed on a fixed probe input (the same for every workload and seed; see
  README.md), so that every workload reports every metric.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from harness import ChildResult, Tally
from primemean import checks, cli, constants, multfunc, primesums, series, sieve
from primemean.primesums import CheckpointGrid

CHECKS = ("identity-oracle", "exact-identities", "a1-gamma", "constants-stability",
          "rs-inequality", "phi-geomean", "series-algebra", "determinism")
IMPORT_SAMPLES = 3
SPF_SIZE = 10 ** 6  # sieve.spf_build_s: fixed, the largest table verify builds

# name -> unit, for the metrics a --trace 1 run reports
PER_LAYER = {
    "sieve.sweep_s": "s", "sieve.primes": "count", "sieve.segments": "count",
    "sieve.spf_build_s": "s",
    "multfunc.load_model_s": "s", "multfunc.qratio_ns_per_prime": "ns",
    "primesums.sums_stream_s": "s", "primesums.sums_stream_seq_s": "s",
    "primesums.parallel_speedup": "x", "primesums.checkpoints": "count",
    "primesums.save_report_s": "s", "primesums.load_report_s": "s",
    "primesums.cache_bytes": "B",
    "constants.M_s": "s", "constants.E_s": "s", "constants.cq_s": "s",
    "constants.aj_s": "s", "constants.leading_s": "s",
    "constants.limit_oracles_s": "s",
    "constants.M.p_cut": "count", "constants.E.p_cut": "count",
    "constants.cq.p_cut": "count", "constants.primes_summed": "count",
    "series.fit_s": "s",
    **{f"checks.{name}_s": "s" for name in CHECKS},
    "cli.import_s": "s", "unattributed_s": "s",
}

# span name -> the metric its inclusive time adds to
_TIMED = {
    "multfunc.load_model": "multfunc.load_model_s",
    "primesums.sums_stream": "primesums.sums_stream_s",
    "primesums.save_report": "primesums.save_report_s",
    "primesums.load_report": "primesums.load_report_s",
    "constants.meissel_mertens": "constants.M_s",
    "constants.mertens_e": "constants.E_s",
    "constants.c_q": "constants.cq_s",
    "constants.saffari_a": "constants.aj_s",
    "constants.eta0": "constants.leading_s",
    "constants.leading_constant": "constants.leading_s",
    "constants.meissel_mertens_limit": "constants.limit_oracles_s",
    "constants.mertens_e_limit": "constants.limit_oracles_s",
    "series.fit_coefficients": "series.fit_s",
    **{f"checks.{name}": f"checks.{name}_s" for name in CHECKS},
}
_P_CUT = {"constants.meissel_mertens": "constants.M.p_cut",
          "constants.mertens_e": "constants.E.p_cut",
          "constants.c_q": "constants.cq.p_cut"}

# (module, attribute, span name); modules that imported a name bind it
# separately, so each binding is wrapped
_PATCHES = (
    [(cli, "builtin", "multfunc.load_model"),
     (cli, "load_model_file", "multfunc.load_model"),
     (checks, "builtin", "multfunc.load_model"),
     (primesums, "sums_stream", "primesums.sums_stream"),
     (checks, "sums_stream", "primesums.sums_stream"),
     (primesums, "save_report", "primesums.save_report"),
     (primesums, "load_report", "primesums.load_report"),
     (series, "fit_coefficients", "series.fit_coefficients"),
     (checks, "run_check", None)]
    + [(constants, fn, f"constants.{fn}") for fn in (
        "euler_gamma", "meissel_mertens", "mertens_e", "c_q", "rho_f", "saffari_a",
        "eta0", "leading_constant", "meissel_mertens_limit", "mertens_e_limit")]
)

# every lru_cache in the package, found before anything is wrapped
_CACHED = {id(obj): obj for mod in (constants, multfunc, primesums, sieve, series, checks)
           for obj in vars(mod).values() if hasattr(obj, "cache_clear")}


def clear_caches() -> None:
    for fn in _CACHED.values():
        fn.cache_clear()


@dataclass
class Span:
    name: str
    ancestors: tuple[str, ...]         # names of the enclosing spans
    seconds: float
    computed: bool = True              # False: served from an lru_cache
    info: dict = field(default_factory=dict)


class Spans:
    """Wraps layer functions while installed and records one Span per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[str] = []
        self.last_report = None

    def _wrap(self, fn, name):
        def wrapper(*args, **kwargs):
            span_name = name or f"checks.{args[0]}"
            misses = fn.cache_info().misses if hasattr(fn, "cache_info") else None
            ancestors = tuple(self.stack)
            self.stack.append(span_name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - t0
                self.stack.pop()
            span = Span(span_name, ancestors, seconds)
            if misses is not None:
                span.computed = fn.cache_info().misses > misses
            self._annotate(span, args, kwargs, result)
            self.spans.append(span)
            return result
        return wrapper

    def _annotate(self, span, args, kwargs, result):
        if span.name == "primesums.sums_stream":
            self.last_report = result
            span.info = {"call": (args, kwargs), "checkpoints": len(args[1].points)}
        elif span.name == "primesums.save_report":
            span.info = {"bytes": os.path.getsize(args[0])}
        elif span.name in _P_CUT and result.params:
            span.info = {"p_cut": int(result.param("p_cut"))}
        elif span.name.startswith("checks."):
            span.info = {"passed": result.passed, "detail": result.detail}

    @contextlib.contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in _PATCHES]
        try:
            for (mod, attr, name), (_, _, fn) in zip(_PATCHES, saved):
                setattr(mod, attr, self._wrap(fn, name))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def _replay(step) -> ChildResult:
    """Run one CLI command in-process; returns a result shaped like a child's."""
    clear_caches()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(step.args))
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this command, not the run
            traceback.print_exc()
            rc = 1
    return ChildResult(time.perf_counter() - t0, 0.0, rc,
                       out.getvalue().encode("utf-8"), err.getvalue())


def _import_seconds(runner) -> float:
    code = ("import time\nt0 = time.perf_counter()\nimport primemean.cli\n"
            "print(time.perf_counter() - t0)")
    times = []
    for _ in range(IMPORT_SAMPLES):
        res = runner.python(code)
        if res.returncode != 0:
            raise RuntimeError(f"importing primemean.cli failed: {res.stderr}")
        times.append(float(res.stdout))
    return statistics.median(times)


def _resolve(spec: str):
    return multfunc.load_model_file(spec) if spec.endswith(".model") else multfunc.builtin(spec)


def _prime_counts(cuts) -> dict:
    """pi(x) for every x in cuts, from one segmented pass."""
    cuts = sorted(set(cuts))
    if not cuts:
        return {}
    counts = dict.fromkeys(cuts, 0)
    for seg in sieve.stream_segmented(2, cuts[-1]).segments():
        for x in cuts:
            counts[x] += int(np.searchsorted(seg, x, side="right"))
    return counts


def _probe(replay: Spans, workdir, tally) -> dict[str, Spans]:
    """Time, on fixed inputs, each metric's layer the commands never reached.

    Returns metric name -> the spans of its probe.  Only the spans whose
    names feed that metric count toward it, so a constant computed inside
    a probed check does not leak into the constant's own metric.
    """
    probes: dict[str, Spans] = {}

    def probe(metrics, call):
        missing = [m for m in metrics if not _feeding(replay.spans, m)]
        if not missing:
            return None
        spans = Spans()
        probes.update(dict.fromkeys(missing, spans))
        clear_caches()
        with spans.installed():
            return call()

    report = probe(["primesums.sums_stream_s"], lambda: primesums.sums_stream(
        multfunc.builtin("kappa"), CheckpointGrid.log_spaced(100, 10 ** 6, 20),
        parallel=True)) or replay.last_report
    path = str(workdir / "probe.pmsm")
    primesums.save_report(path, report)
    probe(["primesums.save_report_s"], lambda: primesums.save_report(path, report))
    probe(["primesums.load_report_s"], lambda: primesums.load_report(
        path, multfunc.builtin(report.model_name)))
    probe(["series.fit_s"], lambda: series.fit_coefficients(
        [(n, s2 / n - np.log(n)) for n, s2 in zip(report.points, report.s2)],
        order=2, include_constant=True))
    for metrics, call in (
            (["constants.M_s", "constants.M.p_cut"], lambda: constants.meissel_mertens()),
            (["constants.E_s", "constants.E.p_cut"], lambda: constants.mertens_e()),
            (["constants.cq_s", "constants.cq.p_cut"],
             lambda: constants.c_q(multfunc.builtin("euler_phi"))),
            (["constants.aj_s"], lambda: constants.saffari_a(1)),
            (["constants.leading_s"],
             lambda: constants.leading_constant(multfunc.builtin("kappa"))),
            (["constants.limit_oracles_s"],
             lambda: (constants.meissel_mertens_limit(1e7),
                      constants.mertens_e_limit(1e6)))):
        probe(metrics, call)
    for name in CHECKS:
        result = probe([f"checks.{name}_s"],
                       lambda: checks.run_check(name, checks.CheckContext()))
        if result is not None:
            tally.attempted += 1
            if not result.passed:
                tally.failed += 1
                tally.failures.append(f"probe {name}: FAIL ({result.detail})")
    return probes


def _feeding(spans, metric: str) -> list[Span]:
    """The spans that feed `metric`: its cut-off spans, or its timed spans
    that no other span of the same metric encloses (inclusive times)."""
    if metric in _P_CUT.values():
        return [s for s in spans if _P_CUT.get(s.name) == metric and s.info]
    return [s for s in spans if _TIMED.get(s.name) == metric
            and not any(_TIMED.get(a) == metric for a in s.ancestors)]


def traced_run(workload, runner) -> tuple[dict, dict]:
    tally = Tally()
    import_s = _import_seconds(runner)

    # one iteration as processes: the command wall times
    steps = workload.traced_steps()
    walls = []
    for step in steps:
        res = runner.cli(step.args)
        tally.command(step, res, workload.after(step) if res.returncode == 0 else ())
        walls.append(res.wall_s)
        if res.hung:  # an in-process replay of it could not be stopped
            return dict.fromkeys(PER_LAYER, 0.0), {"tally": tally, "command_walls_s": walls}

    # the same commands in-process, with spans around every layer call;
    # outputs must match the processes' byte for byte
    replay = Spans()
    commands = []  # per command: its wall time and where it went
    with replay.installed():
        for step, wall in zip(workload.traced_steps(), walls):
            first = len(replay.spans)
            res = _replay(step)
            tally.command(step, res, workload.after(step) if res.returncode == 0 else ())
            own = replay.spans[first:]
            layer_s = {metric: sum(s.seconds for s in _feeding(own, metric))
                       for metric in sorted(set(_TIMED.values()))}
            commands.append({"key": step.key, "role": step.role, "wall_s": wall,
                             "replay_s": res.wall_s,
                             "layers_s": {k: v for k, v in layer_s.items() if v}})
    probes = _probe(replay, workload.workdir, tally)

    def source(metric: str) -> list[Span]:
        return _feeding(replay.spans, metric) or _feeding(probes[metric].spans, metric)

    m = dict.fromkeys(PER_LAYER, 0.0)
    for metric in set(_TIMED.values()):
        m[metric] = sum(s.seconds for s in source(metric))
    for metric in _P_CUT.values():
        m[metric] = max(s.info["p_cut"] for s in source(metric))

    cuts = [s.info["p_cut"] for s in replay.spans
            if s.name in _P_CUT and s.computed and s.info]
    pi = _prime_counts(cuts)
    m["constants.primes_summed"] = sum(pi[c] for c in cuts)

    sums_calls = source("primesums.sums_stream_s")
    m["primesums.checkpoints"] = sum(s.info["checkpoints"] for s in sums_calls)
    m["primesums.cache_bytes"] = sum(s.info["bytes"] for s in source("primesums.save_report_s"))
    seq = 0.0
    for s in sums_calls:
        args, kwargs = s.info["call"]
        t0 = time.perf_counter()
        primesums.sums_stream(*args, **{**kwargs, "parallel": False})
        seq += time.perf_counter() - t0
    m["primesums.sums_stream_seq_s"] = seq
    m["primesums.parallel_speedup"] = seq / m["primesums.sums_stream_s"]

    bound = workload.sieve_bound or max(
        m["constants.M.p_cut"], m["constants.E.p_cut"], m["constants.cq.p_cut"])
    t0 = time.perf_counter()
    primes = segments = 0
    for seg in sieve.stream_segmented(2, bound).segments():
        primes += seg.size
        segments += 1
    m["sieve.sweep_s"] = time.perf_counter() - t0
    m["sieve.primes"], m["sieve.segments"] = primes, segments

    t0 = time.perf_counter()
    sieve.spf_build(SPF_SIZE)
    m["sieve.spf_build_s"] = time.perf_counter() - t0

    models = [_resolve(spec) for spec in workload.models()]
    pf = sieve.primes_up_to(sieve.DEFAULT_SEGMENT_SIZE).astype(np.float64)
    logp = np.log(pf)
    t0 = time.perf_counter()
    for model in models:
        model.log_q_ratio_vec(pf, logp)
    m["multfunc.qratio_ns_per_prime"] = (time.perf_counter() - t0) / (len(models) * pf.size) * 1e9

    m["cli.import_s"] = import_s
    top = sum(s.seconds for s in replay.spans if not s.ancestors)
    m["unattributed_s"] = sum(walls) - top - len(steps) * import_s

    detail = {
        "command_walls_s": walls,
        "commands": commands,
        "sieve_bound": bound,
        "probed": sorted(probes),
        "spans": [{"name": s.name, "depth": len(s.ancestors), "seconds": s.seconds,
                   "computed": s.computed, **{k: v for k, v in s.info.items()
                                              if k != "call"}}
                  for s in replay.spans],
    }
    return m, {"tally": tally, **detail}
