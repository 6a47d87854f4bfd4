"""Shared numerical plumbing: the partition scaling constant, Wilson
intervals, Monte Carlo estimate records, and compensated summation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "C_SCALE",
    "Z95",
    "EventEstimate",
    "MC_BLOCK_ELEMENTS",
    "kahan_cumsum",
    "kahan_cumsum_rows",
    "kahan_sum",
    "make_estimate",
    "wilson_interval",
]

#: c = pi/sqrt(6), the scaling constant of uniform-partition asymptotics.
#: The Boltzmann sampler uses q = exp(-c/sqrt(n)) and the surrogate row
#: map rescales by sqrt(n)/c; both must share the same c.
C_SCALE = math.pi / math.sqrt(6.0)

#: Two-sided 95% standard normal quantile.
Z95 = 1.959963984540054

#: Most float64 variates a Monte Carlo estimator draws in one block
#: (32 MB); the walk and Gaussian-process estimators size their blocks
#: of paths by it.
MC_BLOCK_ELEMENTS = 4 * 10**6


def wilson_interval(hits, trials, z=Z95):
    """Wilson score interval for a binomial proportion, as (lo, hi).

    Stays sane at observed proportions 0 and 1, where the Wald
    interval collapses.  There the interval's own end is exactly 0 or
    1; it is returned as such, so lo <= hits/trials <= hi always holds
    (the float formula can miss it by one rounding step).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= hits <= trials:
        raise ValueError("hits must lie in [0, trials]")
    phat = hits / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class EventEstimate:
    """Monte Carlo estimate of an event probability with a 95% CI.

    ``n``, ``gamma``, ``delta`` record the experiment parameters when
    they apply and stay None otherwise.
    """

    event: str
    n: int | None
    gamma: float | None
    delta: float | None
    trials: int
    hits: int
    estimate: float
    ci_lo: float
    ci_hi: float

    @property
    def ci_halfwidth(self):
        return (self.ci_hi - self.ci_lo) / 2.0


def make_estimate(event, hits, trials, n=None, gamma=None, delta=None):
    """Package hits/trials into an EventEstimate with a Wilson CI."""
    hits = int(hits)
    lo, hi = wilson_interval(hits, trials)
    return EventEstimate(
        event=event,
        n=n,
        gamma=gamma,
        delta=delta,
        trials=trials,
        hits=hits,
        estimate=hits / trials,
        ci_lo=lo,
        ci_hi=hi,
    )


# Stays only because perfbench/layers.py wraps it; ROADMAP item 1 step 2 deletes it.
def kahan_sum(values):
    """Kahan compensated sum of a 1-D sequence: the last prefix of
    kahan_cumsum, 0.0 when empty."""
    prefixes = kahan_cumsum(values)
    return float(prefixes[-1]) if len(prefixes) else 0.0


def kahan_cumsum(values):
    """Compensated running prefix sums as a float64 array."""
    out = np.empty(len(values))
    s = 0.0
    comp = 0.0
    for i, v in enumerate(values):
        y = float(v) - comp
        t = s + y
        comp = (t - s) - y
        s = t
        out[i] = s
    return out


# Stays only because perfbench/layers.py wraps it; ROADMAP item 1 step 2 deletes it.
def kahan_cumsum_rows(a):
    """Compensated prefix sums along axis 1 of a 2-D array.

    Vectorized over rows; the loop runs over the (short) column axis.
    """
    a = np.asarray(a, dtype=np.float64)
    out = np.empty_like(a)
    s = np.zeros(a.shape[0])
    comp = np.zeros(a.shape[0])
    for col in range(a.shape[1]):
        y = a[:, col] - comp
        t = s + y
        comp = (t - s) - y
        s = t
        out[:, col] = s
    return out
