"""Shared numerical plumbing: the partition scaling constant, Wilson
intervals, Monte Carlo estimate records, compensated summation, and
path_blocks, the one block loop of the walk and Gaussian-process
estimators."""

from __future__ import annotations

import collections
import math
import os
from concurrent import futures
from dataclasses import dataclass

import numpy as np

__all__ = [
    "C_SCALE",
    "Z95",
    "EventEstimate",
    "MC_BLOCK_ELEMENTS",
    "PATH_BLOCK_ELEMENTS",
    "kahan_cumsum",
    "kahan_cumsum_rows",
    "kahan_sum",
    "make_estimate",
    "path_blocks",
    "wilson_interval",
]

#: c = pi/sqrt(6), the scaling constant of uniform-partition asymptotics.
#: The Boltzmann sampler uses q = exp(-c/sqrt(n)) and the surrogate row
#: map rescales by sqrt(n)/c; both must share the same c.
C_SCALE = math.pi / math.sqrt(6.0)

#: Two-sided 95% standard normal quantile.
Z95 = 1.959963984540054

#: Most float64 variates a Monte Carlo estimator over partitions draws
#: in one block (32 MB); it also sets the longest Gaussian-process path.
MC_BLOCK_ELEMENTS = 4 * 10**6

#: Most float64 variates in one block of walk or Gaussian-process paths
#: (2 MB, which one core's L2 cache holds), unless a single path is
#: longer: the block's temporaries then stay in cache, and two blocks in
#: flight with theirs take about 10 MB.
PATH_BLOCK_ELEMENTS = 2**18

#: Threads that evaluate path blocks at once, and the most drawn blocks
#: that wait for them: two where this process may run on two cores, else
#: one.  numpy's ufuncs release the interpreter lock, so the caller draws
#: the next block while the pool evaluates the last ones.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


def _new_pool():
    """Make the path blocks' thread pool, which is then kept.

    A new thread starts on its parent's core, and Linux was seen to take
    about half a second of load to move one, so a pool made per call
    would run both blocks on one core.  The pool starts its threads on
    first use, and a forked child, which has none of its parent's
    threads, makes a pool of its own.
    """
    global _pool
    _pool = futures.ThreadPoolExecutor(_WORKERS, thread_name_prefix="partlab-paths")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def path_blocks(trials, per_block, draw, evaluate):
    """Yield evaluate(draw(paths)) for consecutive blocks of at most
    ``per_block`` of ``trials`` paths, in block order.

    draw(paths) runs on the caller's thread, block after block, so the
    blocks take their variates in the order of one serial loop; evaluate
    runs on the pool, with at most _WORKERS drawn blocks waiting for it.
    trials < 1 raises ValueError before any draw.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    flight = collections.deque()
    try:
        for done in range(0, trials, per_block):
            if len(flight) == _WORKERS:
                yield flight.popleft().result()
            flight.append(_pool.submit(evaluate, draw(min(per_block, trials - done))))
        while flight:
            yield flight.popleft().result()
    finally:
        for future in flight:
            future.cancel()
        futures.wait(flight)


def wilson_interval(hits, trials):
    """95% Wilson score interval for a binomial proportion, as (lo, hi).

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
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = (
        Z95
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
