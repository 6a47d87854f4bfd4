"""Built-in verification battery.

Each release check is registered once, by ``@_check(name, budget=...,
seeded=...)`` above a body that returns ``(passed, detail)``; the
detail carries the measured values as text, so failures are
diagnosable from the report alone.  ``run_check`` owns the timing, the
budgets and the seed echo of randomized checks.  The ``partlab
selfcheck`` subcommand and the acceptance test suite both call it, so
there is exactly one definition of what passing means.

Budgets are generous (the typical margin is 5-10x) so they only trip
on real regressions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import counting, gaussian, sampling, walks
from .partitions import PartitionBatch, is_graphical_hh
from .rng import RandomStream
from .stats import Z95

__all__ = [
    "CHECK_NAMES",
    "DEFAULT_SEED",
    "CheckResult",
    "format_result",
    "run_check",
]

DEFAULT_SEED = 20260816


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    seed: int | None = None


_CHECKS = {}


def _check(name, budget=None, seeded=False):
    """Register a check body under ``name``, in declaration order."""
    def register(func):
        _CHECKS[name] = (func, budget, seeded)
        return func
    return register


@_check("constants-pipeline", budget=1.0)
def check_constants_pipeline():
    """rho*, beta, delta, gamma, exponent against their published values."""
    sol = gaussian.solve_exponent_pipeline()
    checks = [
        abs(sol.rho_star - 1528.691213) / 1528.691213 <= 1e-6,
        abs(sol.beta - 0.01363853235) <= 1e-9,
        abs(sol.delta - 0.006594420627) <= 1e-8,
        abs(sol.gamma - 0.2483513948) <= 1e-8,
        abs(sol.exponent - 0.003297210314) <= 1e-9,
    ]
    detail = (
        f"rho*={sol.rho_star:.9f} beta={sol.beta:.11f} "
        f"delta={sol.delta:.12f} gamma={sol.gamma:.10f} "
        f"exponent={sol.exponent:.12f}"
    )
    return all(checks), detail


@_check("graphicality-oracles", budget=300.0)
def check_graphicality_oracles():
    """The Erdos-Gallai batch kernel agrees with Havel-Hakimi on every
    partition, n <= 26."""
    table = counting.build_table(26)
    total = 0
    mismatches = 0
    for n in range(27):
        count = table.count(n)
        row, part = counting.unrank_pairs(table, n, np.arange(count))
        batch = PartitionBatch.from_parts(n, count, row, part).graphical()
        for r, kernel in enumerate(batch):
            total += 1
            if kernel != is_graphical_hh(part[row == r].tolist()):
                mismatches += 1
    detail = f"{total} partitions over n<=26, {mismatches} mismatches"
    return mismatches == 0, detail


@_check("exact-small-values")
def check_exact_small_values():
    """Hand-derivable exact values of p(n) and r(n)."""
    got = {
        "p(1)": counting.exact_p(1),
        "p(2)": counting.exact_p(2),
        "p(4)": counting.exact_p(4),
        "r(1)": counting.exact_r(1),
        "r(2)": counting.exact_r(2),
        "r(3)": counting.exact_r(3),
    }
    want = {
        "p(1)": Fraction(0),
        "p(2)": Fraction(1, 2),
        "p(4)": Fraction(2, 5),
        "r(1)": Fraction(1),
        "r(2)": Fraction(3, 4),
        "r(3)": Fraction(2, 3),
    }
    bad = [k for k in want if got[k] != want[k]]
    detail = ", ".join(f"{k}={got[k]}" for k in got)
    if bad:
        detail += f"; WRONG: {bad}"
    return not bad, detail


@_check("probability-envelope", budget=600.0)
def check_probability_envelope():
    """1 - pi(n-1)/pi(n) <= p(n) for even n in [4,60]; p(n) <= 0.4258 for
    even n in [20,60].  Exact rational arithmetic end to end."""
    table = counting.build_table(60)
    upper = Fraction(4258, 10000)
    bad = []
    last = None
    for n in range(4, 61, 2):
        p = counting.exact_p(n)
        last = p
        lower = 1 - Fraction(table.count(n - 1), table.count(n))
        if p < lower:
            bad.append(f"p({n})={p} < lower {lower}")
        if n >= 20 and p > upper:
            bad.append(f"p({n})={p} > 0.4258")
    detail = f"29 even weights checked; p(60)={last} ~ {float(last):.4f}"
    if bad:
        detail += "; violations: " + "; ".join(bad[:3])
    return not bad, detail


@_check("counting-oracle", budget=10.0)
def check_counting_oracle():
    """DP table vs pentagonal recurrence for n <= 500, and pi(100)."""
    table = counting.build_table(500)
    oracle = counting.pentagonal_counts(500)
    diffs = [n for n in range(501) if table.count(n) != oracle[n]]
    pi100 = table.count(100)
    ok = not diffs and pi100 == 190569292
    detail = f"pi agreement n<=500: {501 - len(diffs)}/501; pi(100)={pi100}"
    return ok, detail


def _rank_counts(table, batch):
    return np.bincount(counting.rank_batch(table, batch),
                       minlength=table.count(batch.n))


@_check("sampler-uniformity", budget=60.0, seeded=True)
def check_sampler_uniformity(seed):
    """Exact-unrank sampler chi-square at n=8; plain-rejection sampler
    vs exact sampler two-sample chi-square at n=20."""
    # scipy.stats takes most of a second to import, so only the checks
    # that use it load it
    from scipy.stats import chi2, chisquare

    table = counting.build_table(20)

    samples, _ = sampling.sample_uniform_batch(8, 10**5, RandomStream(seed, 61))
    p_one = float(chisquare(_rank_counts(table, samples)).pvalue)

    fr, attempts = sampling.sample_fristedt_batch(20, 10**4, RandomStream(seed, 62))
    ex, _ = sampling.sample_uniform_batch(20, 10**4, RandomStream(seed, 63))
    c1 = _rank_counts(table, fr)
    c2 = _rank_counts(table, ex)
    used = (c1 + c2) > 0
    stat = float((((c1 - c2) ** 2)[used] / (c1 + c2)[used]).sum())
    dof = int(used.sum()) - 1
    p_two = float(chi2.sf(stat, dof))

    ok = p_one > 0.001 and p_two > 0.001
    detail = (
        f"n=8 exact chi-square p={p_one:.4f}; n=20 two-sample p={p_two:.4f} "
        f"(rejection acceptance ~1/{attempts / 10**4:.1f})"
    )
    return ok, detail


def _within_4se(est, exact):
    """Two-sided test of a Monte Carlo estimate against an exact value."""
    se = est.ci_halfwidth / Z95
    gap = abs(est.estimate - exact)
    detail = (
        f"estimate={est.estimate:.5f} exact={exact:.5f} "
        f"|gap|={gap:.5f} vs 4se={4 * se:.5f}"
    )
    return gap <= 4 * se, detail


@_check("mc-vs-exact", budget=60.0, seeded=True)
def check_mc_vs_exact(seed):
    """estimate_p at n=40 vs the exact value, within 4 standard errors."""
    est = sampling.estimate_p_mc(40, 10**5, RandomStream(seed, 7))
    return _within_4se(est, float(counting.exact_p(40)))


#: counting.exact_p(100), which takes about 0.4 s to recompute
_EXACT_P_100 = Fraction(69065657, 190569292)


@_check("pdc-vs-exact", budget=60.0, seeded=True)
def check_pdc_vs_exact(seed):
    """fristedt-pdc estimate of p(100) vs the exact value, within 4
    standard errors."""
    est = sampling.estimate_p_mc(100, 10**5, RandomStream(seed, 150),
                                 method="fristedt-pdc")
    return _within_4se(est, float(_EXACT_P_100))


@_check("covariance-law", budget=60.0, seeded=True)
def check_covariance_law(seed):
    """Closed-form covariance vs the brute-force double sum, spot values,
    and the empirical covariance of (Z_5, Z_10)."""
    size = 200
    idx = np.arange(1, size + 1)
    grid = np.minimum.outer(idx, idx).astype(np.longdouble) / np.outer(idx, idx)
    brute = grid.cumsum(axis=0).cumsum(axis=1).astype(np.float64)
    closed = gaussian.cov_matrix(size)
    maxerr = float(np.abs(brute - closed).max())
    ok_brute = maxerr <= 1e-10
    ok_spot = (
        gaussian.gp_cov(1, 1) == 1.0
        and gaussian.gp_cov(1, 2) == 1.5
        and gaussian.gp_cov(2, 2) == 2.5
    )

    trials = 10**5
    z = gaussian.sample_gp_incremental(10, trials, RandomStream(seed, 8))
    z5, z10 = z[:, 4], z[:, 9]
    prods = (z5 - z5.mean()) * (z10 - z10.mean())
    emp = float(prods.mean())
    se = float(prods.std(ddof=1) / math.sqrt(trials))
    target = gaussian.gp_cov(5, 10)
    ok_emp = abs(emp - target) <= 5 * se
    detail = (
        f"max |closed-brute| = {maxerr:.2e} (<=1e-10); spot values exact: {ok_spot}; "
        f"emp cov(Z5,Z10)={emp:.4f} vs {target:.4f} (5se={5 * se:.4f})"
    )
    return ok_brute and ok_spot and ok_emp, detail


@_check("gp-law-equivalence", budget=60.0, seeded=True)
def check_gp_law_equivalence(seed):
    """Two-sample KS on max_{k<=50} Z_k: Cholesky vs incremental sampler."""
    from scipy.stats import ks_2samp

    paths = 10**4
    z_inc = gaussian.sample_gp_incremental(50, paths, RandomStream(seed, 91))
    z_cho = gaussian.sample_gp_cholesky(50, paths, RandomStream(seed, 92))
    p = float(ks_2samp(z_inc.max(axis=1), z_cho.max(axis=1)).pvalue)
    detail = f"KS two-sample p={p:.4f} on {paths} paths per sampler"
    return p > 0.001, detail


@_check("event-containment", budget=120.0, seeded=True)
def check_event_containment(seed):
    """Path-by-path inequality chain eg => log(0) => log(-1), zero
    violations allowed."""
    rep = walks.check_containment(10**4, 0.24, 10**4, RandomStream(seed, 10))
    detail = (
        f"eg {rep.eg_hits}, log(0) {rep.log0_hits}, log(-1) {rep.logneg1_hits} "
        f"of {rep.trials}; violations {rep.violations}"
    )
    return rep.violations == 0, detail


def _ratio_tail_verdict(diag):
    """Pass rule of ratio-tail-envelope: the Monte Carlo total stays under
    the finite-n Chernoff envelope (up to its CI) and within 4 standard
    errors of the exact mean, in either direction.  Returns (ok, z)."""
    se = diag.ci_halfwidth / Z95
    gap = diag.total - diag.exact_mean
    z = gap / se if se > 0 else (0.0 if gap == 0 else math.inf)
    ok = diag.total <= diag.finite_bound + diag.ci_halfwidth and abs(z) <= 4.0
    return ok, z


@_check("ratio-tail-envelope", budget=300.0, seeded=True)
def check_ratio_tail_envelope(seed):
    """Summed ratio exceedance frequencies at n = 10^4 vs the finite-n
    Chernoff envelope and the exact Beta-law mean.

    The asymptotic envelope 8 n^(-delta/2) is a large-n limit: with
    delta ~ 0.0066 the exact sum first drops below it between log n =
    600 and 650, so at any reachable n it is printed for reference
    only.  The envelope checked is its finite-n form, the sum of the
    Chernoff bounds it rests on (walks.ratio_tail_bound).  A bound about
    3x the mean cannot catch a wrong diagnostic, so the total must also
    lie within 4 standard errors of the exact mean (walks.ratio_tail_exact).
    """
    diag = walks.ratio_tail_diagnostic(
        10**4, 0.006594420627, 10**5, RandomStream(seed, 11)
    )
    ok, z = _ratio_tail_verdict(diag)
    detail = (
        f"sum over {diag.indices} indices = {diag.total:.2f} "
        f"(ci {diag.ci_halfwidth:.4f}) vs exact {diag.exact_mean:.2f}, "
        f"z={z:+.2f} (|z|<=4); finite-n envelope {diag.finite_bound:.2f}; "
        f"asymptotic 8n^(-delta/2)={diag.bound:.3f} (reference)"
    )
    return ok, detail


@_check("surrogate-fidelity", budget=300.0, seeded=True)
def check_surrogate_fidelity(seed):
    """Largest part of uniform partitions of n=10^4 vs the surrogate
    first-row value, total variation over width-10 bins <= 0.1."""
    n = 10**4
    draws = 10**4
    batch, _ = sampling.sample_fristedt_batch(
        n, draws, RandomStream(seed, 121), pdc=True
    )
    largest = batch.leading_parts(1)[:, 0]
    x1 = RandomStream(seed, 122).exponential(draws)
    row1 = walks._row_values(n, x1)
    lo = int(min(largest.min(), row1.min())) // 10 * 10
    hi = int(max(largest.max(), row1.max())) + 10
    bins = np.arange(lo, hi + 10, 10)
    f1, _ = np.histogram(largest, bins=bins)
    f2, _ = np.histogram(row1, bins=bins)
    tv = 0.5 * float(np.abs(f1 - f2).sum()) / draws
    detail = (
        f"TV={tv:.4f} over {len(bins) - 1} width-10 bins "
        f"(largest-part mean {largest.mean():.1f}, surrogate mean {row1.mean():.1f})"
    )
    return tv <= 0.1, detail


@_check("persistence-monotonicity", budget=300.0, seeded=True)
def check_persistence_monotonicity(seed):
    """persistence_prob at alpha=0 non-increasing over N in {100,400,1600}
    up to CI slack, with strict decay across the endpoints."""
    ests = [
        gaussian.persistence_prob(n, 0.0, 10**4, RandomStream(seed, 130 + i))
        for i, n in enumerate((100, 400, 1600))
    ]
    e1, e2, e3 = ests
    mono = (
        e2.estimate <= e1.estimate + e1.ci_halfwidth + e2.ci_halfwidth
        and e3.estimate <= e2.estimate + e2.ci_halfwidth + e3.ci_halfwidth
    )
    decay = e3.ci_hi < e1.ci_lo
    detail = "; ".join(
        f"N={n}: {e.estimate:.4f} [{e.ci_lo:.4f},{e.ci_hi:.4f}]"
        for n, e in zip((100, 400, 1600), ests)
    )
    return mono and decay, detail


@_check("determinism", seeded=True)
def check_determinism(seed):
    """Equal seeds give identical estimates, identical samples, and
    byte-identical CLI result files."""
    reruns = {
        "estimate_p_mc": lambda: sampling.estimate_p_mc(
            12, 2000, RandomStream(seed, 141)),
        "estimate_event": lambda: walks.estimate_event(
            "eg", 1000, 0.2, None, 500, RandomStream(seed, 142)),
        "persistence_prob": lambda: gaussian.persistence_prob(
            100, 0.0, 2000, RandomStream(seed, 143)),
        "sample_fristedt_batch": lambda: sampling.sample_fristedt_batch(
            100, 50, RandomStream(seed, 144), pdc=True),
    }
    bad = [name for name, rerun in reruns.items() if rerun() != rerun()]
    bad.extend(_cli_determinism(seed))

    detail = "library and CLI reruns byte-identical" if not bad else (
        "non-deterministic: " + ", ".join(bad)
    )
    return not bad, detail


def _cli_determinism(seed):
    # imported lazily: cli imports this module for its selfcheck command
    import tempfile
    from pathlib import Path

    from click.testing import CliRunner

    from .cli import main

    jobs = [
        ("estimate-p", ["estimate-p", "--n", "12", "--trials", "2000"]),
        (
            "surrogate",
            ["surrogate", "--event", "eg", "--n", "1000", "--gamma", "0.2",
             "--trials", "500"],
        ),
        (
            "gp-persist",
            ["gp", "persist", "--N", "100", "--alpha", "0", "--trials", "2000"],
        ),
    ]
    bad = []
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in jobs:
            outputs = []
            for run in (0, 1):
                out = Path(tmp) / f"{name}-{run}.csv"
                res = runner.invoke(
                    main,
                    args + ["--seed", str(seed), "--out", str(out)],
                    catch_exceptions=False,
                )
                if res.exit_code != 0:
                    bad.append(f"cli:{name}:exit{res.exit_code}")
                    break
                outputs.append(out.read_bytes())
            if len(outputs) == 2 and outputs[0] != outputs[1]:
                bad.append(f"cli:{name}")
    return bad


CHECK_NAMES = list(_CHECKS)


def run_check(name, seed=DEFAULT_SEED):
    """Run one named check, timed and judged against its budget, and
    return its CheckResult; the seed is echoed only for seeded checks."""
    if name not in _CHECKS:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    func, budget, seeded = _CHECKS[name]
    t0 = time.perf_counter()
    passed, detail = func(seed) if seeded else func()
    elapsed = time.perf_counter() - t0
    if budget is not None:
        detail += f"; time {elapsed:.1f}s (budget {budget:.0f}s)"
        passed = passed and elapsed < budget
    return CheckResult(name=name, passed=passed, detail=detail, seconds=elapsed,
                       seed=seed if seeded else None)


def format_result(result):
    """One report line: [PASS|FAIL] name (time, seed): detail."""
    status = "PASS" if result.passed else "FAIL"
    seed_part = f", seed={result.seed}" if result.seed is not None else ""
    return f"[{status}] {result.name} ({result.seconds:.1f}s{seed_part}): {result.detail}"
