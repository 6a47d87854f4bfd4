"""Output checks for the benchmark operations.

Each check returns None when the value is right and a one-line reason
when it is wrong.  Checks compare against values computed apart from
partlab (reference.json, closed forms, scipy.special.betainc) or against
properties the method must have; none compares against saved partlab
output.
"""

from __future__ import annotations

import math
from fractions import Fraction

from scipy.special import betainc

#: Statistical checks accept a Monte Carlo value within this many
#: standard errors of its target.
Z_LIMIT = 4.0


def equal(got, want, what):
    if got != want:
        return f"{what}: got {got!r}, want {want!r}"
    return None


def at_least(got, floor, what):
    if not got >= floor:
        return f"{what}: {got} below {floor}"
    return None


def partitions_of(parts_list, n):
    """Every partition has positive, non-increasing parts summing to n."""
    for lam in parts_list:
        parts = tuple(getattr(lam, "parts", lam))
        if sum(parts) != n:
            return f"partition {parts[:8]}... sums to {sum(parts)}, want {n}"
        if any(p < 1 for p in parts):
            return f"partition of {n} has a part below 1"
        if any(a < b for a, b in zip(parts, parts[1:])):
            return f"partition of {n} has increasing parts"
    return None


def attempts(count, attempted, exact):
    """attempts >= samples, with equality for the table sampler."""
    if attempted < count:
        return f"{attempted} attempts for {count} samples"
    if exact and attempted != count:
        return f"table sampler reports {attempted} attempts for {count} samples"
    return None


def within_se(value, target, se, what):
    """|value - target| <= Z_LIMIT standard errors."""
    if se <= 0 or not math.isfinite(value):
        return f"{what}: value {value}, se {se}"
    z = (value - target) / se
    if abs(z) > Z_LIMIT:
        return f"{what}: {value:.6g} vs {target:.6g} is {z:+.2f} se"
    return None


def multiplicity_mean(parts_list, part, mean, var, what):
    """Sample mean of the multiplicity of ``part`` within Z_LIMIT se of
    the exact mean E[m_part], se from the exact variance."""
    counts = [sum(1 for p in getattr(lam, "parts", lam) if p == part)
              for lam in parts_list]
    if not counts:
        return f"{what}: no samples"
    return within_se(sum(counts) / len(counts), mean, math.sqrt(var / len(counts)), what)


def estimate_consistent(est, trials, n, event):
    """Fields of an EventEstimate agree with each other and the request."""
    if est.trials != trials or est.n != n or est.event != event:
        return (f"estimate labelled ({est.event}, n={est.n}, trials={est.trials}),"
                f" want ({event}, n={n}, trials={trials})")
    if not 0 <= est.hits <= trials:
        return f"{est.hits} hits of {trials}"
    if est.estimate != est.hits / trials:
        return f"estimate {est.estimate} != hits/trials {est.hits}/{trials}"
    if not est.ci_lo <= est.estimate <= est.ci_hi:
        return f"estimate {est.estimate} outside its CI [{est.ci_lo}, {est.ci_hi}]"
    return None


def proportion(est, p, what):
    """Binomial estimate within Z_LIMIT se of the exact probability p."""
    return within_se(est.estimate, p, math.sqrt(p * (1 - p) / est.trials), what)


def same_proportion(hits_a, trials_a, hits_b, trials_b, what):
    """Two-sample z test: two estimators of the same probability agree."""
    pooled = (hits_a + hits_b) / (trials_a + trials_b)
    se = math.sqrt(pooled * (1 - pooled) * (1 / trials_a + 1 / trials_b))
    return within_se(hits_a / trials_a - hits_b / trials_b, 0.0, se, what)


def ordered(values, what):
    """Non-decreasing sequence, e.g. hits of nested events on common paths."""
    if any(a > b for a, b in zip(values, values[1:])):
        return f"{what}: {values} not non-decreasing"
    return None


def not_above(upper_est, lower_est, what):
    """upper_est.estimate <= lower_est.estimate up to both CI half-widths."""
    slack = ((upper_est.ci_hi - upper_est.ci_lo) + (lower_est.ci_hi - lower_est.ci_lo)) / 2
    if upper_est.estimate > lower_est.estimate + slack:
        return (f"{what}: {upper_est.estimate:.4f} exceeds {lower_est.estimate:.4f}"
                f" + slack {slack:.4f}")
    return None


def ratio_tail_targets(n, delta):
    """(exact mean, finite-n Chernoff sum) of the ratio-tail exceedance
    count over j = 1..ceil(log^3 n), from the Beta(j, j) law of
    S_j/(S_j + S'_j) and the optimised Chernoff bound."""
    count = math.ceil(math.log(n) ** 3)
    exact = []
    chernoff = []
    for j in range(1, count + 1):
        x = n ** (delta / 2) / math.sqrt(j)
        exact.append(float(betainc(j, j, 1 / (2 + x))))
        chernoff.append((4 * (1 + x) / (2 + x) ** 2) ** j)
    return count, math.fsum(exact), math.fsum(chernoff)


def ratio_tail(diag, count, exact_mean, chernoff):
    """Monte Carlo total within Z_LIMIT se of the exact mean, at or under
    the Chernoff sum plus its CI, and equal to the sum of its per-index
    frequencies."""
    if diag.indices != count or len(diag.per_j) != count:
        return f"{diag.indices} indices, want {count}"
    if not math.isclose(float(diag.per_j.sum()), diag.total, rel_tol=1e-9, abs_tol=1e-12):
        return f"total {diag.total} != sum of per-index frequencies {diag.per_j.sum()}"
    if diag.total > chernoff + diag.ci_halfwidth:
        return f"total {diag.total} above Chernoff sum {chernoff} + ci"
    return within_se(diag.total, exact_mean, diag.ci_halfwidth / 1.959963984540054,
                     "ratio-tail total vs exact Beta-law mean")


def phi(x):
    """Standard normal distribution function."""
    return 0.5 * (1 + math.erf(x / math.sqrt(2)))


def exact_p_bounds(value, n, pi_n, pi_prev):
    """p(odd) = 0; p(n) >= 1 - pi(n-1)/pi(n) for even n."""
    if n % 2:
        return equal(value, Fraction(0), f"p({n})")
    return at_least(value, 1 - Fraction(pi_prev, pi_n), f"p({n}) vs 1 - pi(n-1)/pi(n)")
