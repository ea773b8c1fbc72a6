"""Named verification checks shared by the CLI and the acceptance suite.

Each check is a self-contained pass/fail probe of one advertised property:
exact combinatorial identities, independent-route agreement on constants,
inequality sweeps, convergence trends of the asymptotic expansions, and
bit-level determinism of the streaming engine.  The CLI `verify` command and
the test suite both dispatch through `run_check`, so a property can never
pass in one harness and silently rot in the other.

Heavy intermediates (factor tables, checkpoint reports, the factor peel of
`exact-identities`) are memoized on a `CheckContext`, letting related checks
share one prime pass per model, grid and route.  The checks that read only
s1, s2, s3 or `n_log_g` take the sublinear route, the one `geomean` prints;
`exact-identities`, which reads the companion sums, and `determinism` take
the sieve route, and `routes-agree` compares the two.  Checks that sweep a
range take an optional cap `hi` on it (the `--to` of `verify`), and the
trend checks' ladder ends at it; with no cap every check runs at its
registered acceptance scale.

Two independent routes belong to the checks: the quadrature of a_1, and
the prime sums of M and E from one memoised pass (`_mertens_prime_sums`).
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import constants, primesums, series
from .accum import EPS, KahanSum, SegmentTerms, process_count, reduce_primes
from .errors import GridError, UnknownCheckError
from .multfunc import builtin
from .primesums import CheckpointGrid, sums_stream
from .sieve import SpfTable, distinct_prime_factors, spf_build

ACCEPTANCE_MODELS = ("kappa", "two_omega", "euler_phi", "sigma",
                     "divisor_d", "jordan_2")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.elapsed:.1f}s): {self.detail}"


@dataclass
class CheckContext:
    """Memo of expensive intermediates shared between checks."""

    _tables: dict = field(default_factory=dict)
    _reports: dict = field(default_factory=dict)
    _peels: dict = field(default_factory=dict)

    def table(self, limit: int) -> SpfTable:
        for have in sorted(self._tables):
            if have >= limit:
                return self._tables[have]
        self._tables[limit] = spf_build(limit)
        return self._tables[limit]

    def report(self, model_name: str, grid: CheckpointGrid, *,
               sublinear: bool = False) -> primesums.SumsReport:
        """The model's checkpoint report on `grid`, streamed once per route:
        the sieve route's holds F1, F2, R, M and U too, and the sublinear
        route's reaches 1e12 (see `primesums.sums_stream`)."""
        key = (model_name, grid.points, sublinear)
        if key not in self._reports:
            self._reports[key] = sums_stream(builtin(model_name), grid,
                                             sublinear=sublinear)
        return self._reports[key]

    def factor_sums(self, grid: CheckpointGrid) -> tuple[list[int], list[float]]:
        """sum_{k<=n} omega(k) (exact) and sum_{k<=n} log kappa(k) at each
        checkpoint n, from one peel of [2, n_max] by the factor table: an
        oracle independent of the prime pass."""
        if grid.points not in self._peels:
            table = self.table(grid.n_max)      # refuses a grid past its cap first
            ks = np.arange(2, grid.n_max + 1, dtype=np.int64)
            ends = np.array(grid.points) - 1     # ks[i] = i + 2 <= n for i < n - 1
            omega, log_kappa = [0] * len(grid), [0.0] * len(grid)
            for idx, p in distinct_prime_factors(ks, table):
                # a round's entries with k <= n are a prefix of it
                counts = np.searchsorted(idx, ends).tolist()
                logs = np.log(p.astype(np.float64))
                omega = [w + c for w, c in zip(omega, counts)]
                log_kappa = [s + float(np.sum(logs[:c])) for s, c in zip(log_kappa, counts)]
                del logs        # freed before the next round is peeled
            self._peels[grid.points] = omega, log_kappa
        return self._peels[grid.points]


def _grid(hi: int | None, lo: int, default_hi: int, points: int) -> CheckpointGrid:
    """`points` log-spaced checkpoints from `lo` to the cap (default `default_hi`)."""
    return CheckpointGrid.log_spaced(lo, hi or default_hi, points)


def _trend_points(hi: int | None) -> tuple[int, ...]:
    """The four-point convergence ladder ending at the cap (default 1e8:
    1e4, 1e6, 1e7, 1e8).  The last three points drive the stabilization
    probes, the first supplies the "improves since" baseline."""
    hi = hi or 10 ** 8
    pts = sorted({max(100, hi // 10 ** 4), hi // 100, hi // 10, hi})
    if len(pts) < 4 or pts[0] < 100:
        raise GridError(f"trend checks need a range above 1e4, got hi={hi}")
    return tuple(pts)


# --------------------------------------------------------------------------
# individual checks
# --------------------------------------------------------------------------


def _check_identity_oracle(ctx: CheckContext, hi: int | None):
    """Prime-sum identity vs. per-integer factorization, all n <= 5000."""
    n_max = hi or 5000
    table = ctx.table(n_max)
    tol = 1e-9
    worst = 0.0
    worst_at = None     # (model, n) of the largest deviation, if any is nonzero
    spots = sorted({n for n in (1, 2, 3, 10, 100, n_max - 1, n_max) if 1 <= n <= n_max})
    for name in ACCEPTANCE_MODELS:
        model = builtin(name)
        ident = primesums.identity_prefix(model, n_max)
        brute = primesums.bruteforce_prefix(model, n_max, table)
        ns = np.arange(n_max + 1)
        dev = np.abs(ident - brute) / np.maximum(1, ns)
        i = int(np.argmax(dev))
        if dev[i] > worst:
            worst, worst_at = float(dev[i]), (name, i)
        # tie the scalar operations to the batch sweep
        for n in spots:
            a = primesums.log_geomean_identity(model, n)
            b = primesums.log_geomean_bruteforce(model, n, table)
            if abs(a - ident[n]) > 1e-10 * max(1, n) or \
               abs(b - brute[n]) > 1e-10 * max(1, n):
                return False, f"scalar op disagrees with sweep at {name}, n={n}"
    ok = worst <= tol
    where = "" if worst_at is None else f"model {worst_at[0]}, n={worst_at[1]}; "
    detail = (f"max |identity - bruteforce| / max(1,n) = {worst:.2e} over "
              f"{len(ACCEPTANCE_MODELS)} models, n <= {n_max} "
              f"({where}tolerance {tol:.0e})")
    return ok, detail


def _identity_deviations(ctx: CheckContext, hi: int | None) -> tuple[str, dict]:
    """The three at-scale identities on one grid, from its sieve-route report
    (S2 = n M - R reads the companions) and the factor peel: the grid's
    description, and per identity (passed, its worst deviation).  omega = S1
    holds exactly, sum log kappa = S2 and S2 = n M - R within 1e-9 n."""
    grid = _grid(hi, 100, 10 ** 6, 20)
    primesums.check_sieve_route(grid)       # then the peel's table refuses, before any stream
    omega, log_kappa = ctx.factor_sums(grid)
    rep = ctx.report("kappa", grid)
    d_omega = max(abs(w - s1) for w, s1 in zip(omega, rep.s1))
    d_kappa = max(abs(lk - s2) / n for n, lk, s2 in zip(grid, log_kappa, rep.s2))
    d_smr = max(abs(rep.s2[i] - (n * rep.m_of_x[i] - rep.r_sum[i])) / n
                for i, n in enumerate(grid.points))
    return f"{len(grid)} checkpoints <= {grid.n_max}", {
        "omega": (d_omega == 0, f"max deviation {d_omega}"),
        "log-kappa": (d_kappa <= 1e-9, f"max deviation {d_kappa:.2e}/n"),
        "S2=nM-R": (d_smr <= 1e-9, f"max deviation {d_smr:.2e}/n"),
    }


def _identity_check(identity: str):
    def check(ctx: CheckContext, hi: int | None):
        where, deviations = _identity_deviations(ctx, hi)
        ok, worst = deviations[identity]
        return ok, f"{where}: {worst}"
    return check


def _check_exact_identities(ctx: CheckContext, hi: int | None):
    """All three at-scale identities: omega = S1, sum log kappa = S2, SMR."""
    _, deviations = _identity_deviations(ctx, hi)
    ok = all(passed for passed, _ in deviations.values())
    return ok, "; ".join(f"{name}: {worst}" for name, (_, worst) in deviations.items())


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _a1_panels(m_lo: int, m_hi: int, panels: int) -> float:
    """Integral of (t - m)/t^2 over [m, m+1) for m in [m_lo, m_hi), by
    `panels` Gauss-Legendre (12-node) panels per unit interval."""
    ms = np.arange(m_lo, m_hi, dtype=np.float64)
    total = 0.0
    for k in range(panels):
        lo, hi = ms + k / panels, ms + (k + 1) / panels
        half = 0.5 * (hi - lo)[:, None]
        t = 0.5 * (lo + hi)[:, None] + half * _GL_NODES[None, :]
        total += float(np.sum(half * _GL_WEIGHTS[None, :] * ((t - np.floor(t)) / t ** 2)))
    return total


def _a1_quadrature(t_cut: int = 1024) -> tuple[float, float]:
    """a_1 = -Int_1^oo {t} t^-2 dt by quadrature, and its bound: a route to
    gamma - 1 that shares nothing with the Euler-Maclaurin sums of `constants`.

    The integrand is analytic on every [m, m+1), so per-unit-interval
    Gauss-Legendre panels (denser near t = 1) integrate [1, T] essentially
    exactly.  Beyond the integer T >= 1024, {t} = 1/2 + P1(t) and two
    integrations by parts against periodized Bernoulli polynomials give
    1/(2T) - 1/(12 T^2) + err, |err| <= 0.00802 Int_T^oo |g''| = 0.01604/T^3
    for g = t^-2.  The bound adds that to an a-posteriori estimate of the
    quadrature: the move when the head's panels are doubled.
    """
    head = _a1_panels(1, 8, 32) + _a1_panels(8, 64, 8)
    main = head + _a1_panels(64, 1024, 2) + _a1_panels(1024, t_cut, 1)
    refined_head = _a1_panels(1, 8, 64) + _a1_panels(8, 64, 16)
    tail = 0.5 / t_cut - 1.0 / (12.0 * float(t_cut) ** 2)
    bound = 0.01604 / float(t_cut) ** 3 + abs(refined_head - head) + 64 * EPS
    return -(main + tail), bound


def _check_a1_gamma(ctx: CheckContext, hi: int | None):
    """First tail-integral coefficient: a_1 = gamma - 1, independent routes
    (the quadrature here against the decimal Euler-Maclaurin gamma)."""
    a1, a1_bound = _a1_quadrature()
    gam = constants.euler_gamma()
    dev = abs(a1 + 1.0 - gam.value)
    ok = dev <= 1e-8
    detail = (f"|a_1 + 1 - gamma| = {dev:.2e} (tolerance 1e-8; "
              f"tail bounds {a1_bound:.1e}, {gam.tail_bound:.1e})")
    return ok, detail


#: The prime-sum references' cuts: M at 5e7 against 1e8, E at 2e8 against 4e8.
_MERTENS_CUTS = (5 * 10 ** 7, 10 ** 8, 2 * 10 ** 8, 4 * 10 ** 8)


@lru_cache(maxsize=None)
def _mertens_prime_sums(cuts: tuple[int, ...]
                        ) -> tuple[tuple[constants.ConstantValue, constants.ConstantValue], ...]:
    """(M, E) summed over every prime to each cut P in one prime pass, a
    route that shares only gamma with the prime-zeta series of `constants`:
    M = gamma + sum_{p<=P} [log(1 - 1/p) + 1/p], E = -gamma - sum_{p<=P}
    log p / (p (p-1)).  Each bound adds gamma's, the reducer's accumulation
    error and the tail over p > P:

    - M: each term is -sum_{k>=2} 1/(k p^k), so the tail is below
      sum_{n>P} 1/(2n(n-1)) = 1/(2P) (only primes contribute);
    - E: log n/(n(n-1)) = (1 + 1/(n-1)) log n / n^2, and sum_{n>P} log n/n^2
      <= Int_P^oo log t/t^2 dt = (log P + 1)/P for P >= 3, giving
      (1 + 1/P)(log P + 1)/P.
    """
    def terms(seg: np.ndarray) -> SegmentTerms:
        pf = seg.astype(np.float64)
        return [("M", 1, np.log1p(-1.0 / pf) + 1.0 / pf),
                ("E", 1, -np.log(pf) / (pf * (pf - 1.0)))], None

    sums = reduce_primes(cuts, terms, signed=("M", "E"))
    gamma = constants.euler_gamma()

    def value(sign: float, total: KahanSum, tail: float, p_cut: int) -> constants.ConstantValue:
        return constants.ConstantValue(sign * gamma.value + total.value,
                                       tail + gamma.tail_bound + total.error_bound(),
                                       "prime-sum", (("p_cut", float(p_cut)),))

    return tuple((value(1.0, m, 1.0 / (2.0 * p), p),
                  value(-1.0, e, (1.0 + 1.0 / p) * (math.log(p) + 1.0) / p, p))
                 for p, m, e in zip(cuts, sums["M"], sums["E"]))


def _check_constants_stability(ctx: CheckContext, hi: int | None):
    """M and E: prime-zeta vs limit definition, prime-sum doubling, cross-route.

    The doubling clause reads the prime-sum references (`_mertens_prime_sums`,
    M at 5e7 against 1e8, E at 2e8 against 4e8): each move must stay below
    the smaller cut's tail bound.  The cross-route clause asks the
    prime-zeta and prime-sum values to agree within the sum of their tail
    bounds; both routes add the same gamma, so it tests the prime-zeta tail
    against direct prime sums (gamma has its own checks: a1-gamma, and the
    40-digit reference in the tests).
    """
    refs = dict(zip(_MERTENS_CUTS, _mertens_prime_sums(_MERTENS_CUTS)))
    ok, details = True, []
    for index, name, fn, limit, cut in (
            (0, "M", constants.meissel_mertens, constants.meissel_mertens_limit, 5 * 10 ** 7),
            (1, "E", constants.mertens_e, constants.mertens_e_limit, 2 * 10 ** 8)):
        closed = fn()
        base, doubled = refs[cut][index], refs[2 * cut][index]
        dev = abs(closed.value - limit())
        move = abs(doubled.value - base.value)
        cross = abs(closed.value - base.value)
        both = closed.tail_bound + base.tail_bound
        ok = ok and dev <= 1e-6 and move < base.tail_bound and cross <= both
        details.append(f"{name}: prime-zeta vs limit {dev:.1e}, doubling {cut:.0e} "
                       f"moved {move:.1e} (tail {base.tail_bound:.1e}), prime-zeta vs "
                       f"prime-sum {cross:.1e} (bounds {both:.1e})")
    return ok, "; ".join(details)


def _check_rs_inequality(ctx: CheckContext, hi: int | None):
    """Two-sided Mertens-sum inequality sweep (left side only below 319)."""
    hi = hi or 10 ** 7
    if hi < 319:
        raise GridError(f"grid needs lo <= hi, got [319, {hi}]")
    xs = list(range(2, 319)) + sorted({int(round(x)) for x in np.geomspace(319, hi, 1000)})
    verdicts = primesums.rs_inequality_sweep(xs)
    bad = [x for x, v in zip(xs, verdicts) if not v]
    two_sided = sum(1 for x in xs if x >= 319)
    ok = not bad
    detail = (f"{two_sided} two-sided points up to {hi} and "
              f"{len(xs) - two_sided} left-side points: "
              + ("all hold" if ok else f"failures at {bad[:5]}"))
    return ok, detail


def _check_omega_mean_trend(ctx: CheckContext, hi: int | None):
    """(S1/n - log log n - M) log n approaches gamma - 1."""
    points = _trend_points(hi)
    rep = ctx.report("kappa", CheckpointGrid.from_points(points), sublinear=True)
    gam = constants.euler_gamma().value
    m_const = constants.meissel_mertens().value
    eps = {n: (rep.s1[i] / n - math.log(math.log(n)) - m_const) * math.log(n)
           for i, n in enumerate(points)}
    d_hi = abs(eps[points[-1]] - (gam - 1.0))
    d_lo = abs(eps[points[0]] - (gam - 1.0))
    ok = d_hi <= 0.1 and d_hi < d_lo
    detail = (f"|eps({points[-1]:.0e}) - (gamma-1)| = {d_hi:.4f} (<= 0.1), "
              f"improving from {d_lo:.4f} at {points[0]:.0e}")
    return ok, detail


def _scaled_residual_stabilization(resid_by_n: dict, points):
    """Relative variation of (residual * log n) across the last three points.

    The probe treats the scaled residual as an estimate of the first
    correction coefficient; stabilization = total variation below 25% of the
    largest magnitude.  A residual shrinking strictly faster than 1/log n
    drives the scaled values toward 0, and this ratio toward 100%.
    """
    scaled = [resid_by_n[n] * math.log(n) for n in points[-3:]]
    top = max(abs(s) for s in scaled)
    var = (max(scaled) - min(scaled)) / top if top else 0.0
    return var < 0.25, var, scaled


def _check_s2_constant(ctx: CheckContext, hi: int | None):
    """S2(n)/n - log n approaches gamma + E - 1, with c_1 stabilization probe."""
    points = _trend_points(hi)
    rep = ctx.report("kappa", CheckpointGrid.from_points(points), sublinear=True)
    c = constants.euler_gamma().value + constants.mertens_e().value - 1.0
    resid = {n: rep.s2[i] / n - math.log(n) - c for i, n in enumerate(points)}
    d_hi = abs(resid[points[-1]])
    d_lo = abs(resid[points[0]])
    stable, var, scaled = _scaled_residual_stabilization(resid, points)
    sqrt_scaled = [resid[n] * math.sqrt(n) for n in points[-3:]]
    ok = d_hi <= 0.1 and d_hi < d_lo and stable
    detail = (f"|r({points[-1]:.0e}) - (gamma+E-1)| = {d_hi:.2e} "
              f"(<= 0.1, improving from {d_lo:.2e}); scaled residuals "
              f"(x log n) = [" + ", ".join(f"{s:.4f}" for s in scaled) + "]"
              f", relative variation {var:.0%} (< 25% required); "
              f"sqrt(n)-scaled = ["
              + ", ".join(f"{s:.2f}" for s in sqrt_scaled) + "]")
    return ok, detail


def _check_kappa_corollary(ctx: CheckContext, hi: int | None):
    """G_kappa(n)/n converges to e^(gamma+E-1); same stabilization probe."""
    points = _trend_points(hi)
    rep = ctx.report("kappa", CheckpointGrid.from_points(points), sublinear=True)
    target = constants.leading_constant(builtin("kappa"))
    resid = {n: math.exp(rep.n_log_g[i] / n) / n - target.value
             for i, n in enumerate(points)}
    d_hi = abs(resid[points[-1]])
    d_lo = abs(resid[points[0]])
    stable, var, scaled = _scaled_residual_stabilization(resid, points)
    ok = d_hi < d_lo and stable
    detail = (f"G/n at {points[-1]:.0e} within {d_hi:.2e} of "
              f"{target.value:.10f} (tail {target.tail_bound:.1e}); scaled "
              f"residuals = [" + ", ".join(f"{s:.2e}" for s in scaled) + "]"
              f", relative variation {var:.0%} (< 25% required)")
    return ok, detail


def _check_phi_geomean(ctx: CheckContext, hi: int | None):
    """log G_phi(1e6) - log 1e6 agrees with log(e^-1 rho_phi) to 1e-4."""
    n = hi or 10 ** 6
    model = builtin("euler_phi")
    lg = primesums.log_geomean_identity(model, n) / n
    rho = constants.rho_f(model)
    dev = abs(lg - math.log(n) - (math.log(rho.value) - 1.0))
    ok = dev <= 1e-4
    detail = (f"|log G_phi({n:.0e}) - log {n:.0e} - log C| = {dev:.2e} "
              f"(tolerance 1e-4; rho_phi = {rho.value:.12f})")
    return ok, detail


def _check_qsum_eta0(ctx: CheckContext, hi: int | None):
    """Fitted constant of the jordan_2 prime Q-sum matches eta0(jordan_2)."""
    model = builtin("jordan_2")
    grid = _grid(hi, 10 ** 6, 10 ** 8, 12)
    rep = ctx.report("jordan_2", grid, sublinear=True)
    la = math.log(model.alpha)
    samples = []
    for i, n in enumerate(grid.points):
        qsum = la * rep.s1[i] + model.d * rep.s2[i] + rep.s3[i]
        samples.append((n, qsum / n - model.d * math.log(n)))
    fit = series.fit_coefficients(samples, order=1, include_constant=True)
    e0 = constants.eta0(model)
    dev = abs(fit.constant - e0.value)
    ok = dev <= 0.1
    detail = (f"fitted constant {fit.constant:.6f} vs eta0 {e0.value:.6f} "
              f"(|diff| = {dev:.2e} <= 0.1; fit residual "
              f"{fit.residual_norm:.1e})")
    return ok, detail


def _series_log(g: list) -> list:
    """Formal log of a series with constant term 1 (exact rationals)."""
    r = len(g) - 1
    e = [Fraction(0)] * (r + 1)
    for n in range(1, r + 1):
        acc = n * g[n]
        for k in range(1, n):
            acc -= k * e[k] * g[n - k]
        e[n] = Fraction(acc, n)
    return e


def _check_series_algebra(ctx: CheckContext, hi: int | None):
    """Exact round-trips for the truncated-series helpers to order 12."""
    import random

    rng = random.Random(20250814)
    for trial in range(6):
        e = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(12)]
        g = series.series_exp(e)
        back = _series_log(list(g))
        if back[1:] != e:
            return False, f"exp/log round-trip failed on trial {trial}"

    for r in range(2, 13):
        for j in range(2, r + 1):
            if not series.lj_recurrence_check(j, r):
                return False, f"L_j recurrence failed at j={j}, r={r}"

    # s2 coefficients vs independent reassembly: collect the 1/log^i terms
    # of sum_j (d_{j+1} x^j - d_j L_j) using the L_j expansion coefficients
    for trial in range(6):
        order = rng.randint(1, 6)
        d = [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
             for _ in range(order + 1)]
        got = series.s2_coeffs_from_d(d)
        want = [d[i] for i in range(1, order + 1)]
        for j in range(1, order + 1):
            for idx, a in enumerate(series.lj_coeffs(j, order)):
                want[j + idx - 1] -= a * d[j - 1]
        if list(got) != want:
            return False, f"s2 coefficient reassembly failed on trial {trial}"

    return True, ("exp/log round-trip (order 12), L_j recurrences "
                  "(2 <= j <= r <= 12), and S2-coefficient reassembly all "
                  "exact")


def _check_determinism(ctx: CheckContext, hi: int | None):
    """One-process and split sweeps serialize to byte-identical files."""
    grid = _grid(hi, 100, 10 ** 7, 20)      # with a cap, exact-identities' grid and report
    rep_split = ctx.report("kappa", grid)
    rep_one = sums_stream(builtin("kappa"), grid, parallel=False)
    with tempfile.TemporaryDirectory() as tmp:
        p_one = os.path.join(tmp, "one.pmsm")
        p_split = os.path.join(tmp, "split.pmsm")
        primesums.save_report(p_one, rep_one)
        primesums.save_report(p_split, rep_split)
        with open(p_one, "rb") as fh:
            b_one = fh.read()
        with open(p_split, "rb") as fh:
            b_split = fh.read()
    ok = b_one == b_split and rep_one == rep_split
    split = process_count(grid.n_max)
    detail = (f"a 1-process and a {split}-process sweep over "
              f"{len(grid)} checkpoints <= {grid.n_max}: "
              + ("byte-identical report files" if ok else "files differ"))
    return ok, detail


def _check_routes_agree(ctx: CheckContext, hi: int | None):
    """The sieve and sublinear routes agree within their summed err_bounds."""
    grid = _grid(hi, 100, 10 ** 7, 12)
    names = ACCEPTANCE_MODELS + ("jordan_5",)
    worst, worst_at = 0.0, None
    for name in names:
        sieve = ctx.report(name, grid)
        fast = ctx.report(name, grid, sublinear=True)
        for n, a, b, ea, eb in zip(grid.points, sieve.n_log_g, fast.n_log_g,
                                   sieve.err_bound, fast.err_bound):
            # a NaN or infinite value or bound certifies nothing: it fails
            finite = all(map(math.isfinite, (a, b, ea, eb)))
            ratio = abs(a - b) / (ea + eb) if finite else math.inf
            if ratio > worst:
                worst, worst_at = ratio, (name, n)
    ok = worst <= 1.0
    where = "" if worst_at is None else f" (model {worst_at[0]}, n={worst_at[1]})"
    detail = (f"max |sieve - sublinear| / (sum of err_bounds) = {worst:.3g}{where} "
              f"over {len(names)} models, {len(grid)} checkpoints <= {grid.n_max}")
    return ok, detail


_REGISTRY = {
    "identity-oracle": _check_identity_oracle,
    "exact-identities": _check_exact_identities,
    "a1-gamma": _check_a1_gamma,
    "constants-stability": _check_constants_stability,
    "rs-inequality": _check_rs_inequality,
    "omega-mean-trend": _check_omega_mean_trend,
    "s2-constant": _check_s2_constant,
    "kappa-corollary": _check_kappa_corollary,
    "phi-geomean": _check_phi_geomean,
    "qsum-eta0": _check_qsum_eta0,
    "series-algebra": _check_series_algebra,
    "determinism": _check_determinism,
    "routes-agree": _check_routes_agree,
    # finer-grained views of exact-identities, for targeted CLI runs
    "omega-identity": _identity_check("omega"),
    "logkappa-identity": _identity_check("log-kappa"),
    "smr-identity": _identity_check("S2=nM-R"),
}

# The acceptance registry proper: one check per acceptance criterion.
ACCEPTANCE_CHECKS = (
    "identity-oracle", "exact-identities", "a1-gamma", "constants-stability",
    "rs-inequality", "omega-mean-trend", "s2-constant", "kappa-corollary",
    "phi-geomean", "qsum-eta0", "series-algebra", "determinism", "routes-agree",
)

CHECK_NAMES = tuple(_REGISTRY)

def _lookup(name: str):
    if name not in _REGISTRY:
        raise UnknownCheckError(
            f"unknown check {name!r}; available: {', '.join(CHECK_NAMES)}")
    return _REGISTRY[name]


def run_check(name: str, ctx: CheckContext | None = None,
              hi: int | None = None) -> CheckResult:
    """Run one check; `hi` caps its sweep.  a1-gamma, constants-stability and
    series-algebra sweep nothing and ignore it.  A cap past the check's reach
    raises its GridError with the check's name in front."""
    check = _lookup(name)
    if ctx is None:
        ctx = CheckContext()
    start = time.perf_counter()
    try:
        passed, detail = check(ctx, hi)
    except GridError as exc:
        raise GridError(f"{name}: {exc}") from exc
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def run_all(ctx: CheckContext | None = None, names=None,
            hi: int | None = None) -> list[CheckResult]:
    """Run the named checks (default: the acceptance registry) on one context;
    without `ctx` a fresh one is built, which the checks of this run share."""
    names = names or ACCEPTANCE_CHECKS
    for name in names:      # refuse a bad name before any check runs
        _lookup(name)
    if ctx is None:
        ctx = CheckContext()
    return [run_check(name, ctx, hi) for name in names]
