"""Random partition generation and Monte Carlo probability estimates.

Two sampling families share the RandomStream plumbing:

* exact uniform sampling by unranking a uniform index into the
  enumeration order (needs a counting table, cost polynomial in n);

* Boltzmann sampling: part multiplicities drawn independently
  geometric, P(m_k = j) = (1 - q^k) q^(kj) with q = exp(-c/sqrt(n)),
  accepted when the total weight hits n.  Conditioned on acceptance
  the output is exactly uniform.  The plain sampler accepts with
  probability of order n^(-3/4); the divide-and-conquer variant
  (``pdc=True``) never draws the multiplicity of part 1 but instead
  sets it to the residual weight and accepts with the matching
  Boltzmann factor q^(residual), which preserves exact uniformity and
  boosts the acceptance rate by roughly sqrt(n).

Internally each attempt draws dense multiplicities only for parts up
to K ~ 12 sqrt(n)/c; parts above K appear with probability at most
e^-12 each, so their joint outcome is sampled by inverting the
first-success law along precomputed log-survival prefix sums.  This is
distributionally identical to drawing every geometric separately and
keeps one attempt at O(sqrt n) instead of O(n).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .counting import build_table, unrank
from .partitions import Partition, dominates, is_graphical_eg
from .stats import C_SCALE, make_estimate

__all__ = [
    "EXACT_TABLE_CAP",
    "RejectionLimitError",
    "estimate_p_mc",
    "estimate_r_mc",
    "fristedt_q",
    "sample_exact_uniform",
    "sample_fristedt",
    "sample_fristedt_batch",
    "sample_uniform_batch",
]

_BATCH = 512
#: Largest n for which method 'exact' builds its own counting table:
#: (n+1)^2 big-integer cells, about 1 s and 210 MB at n = 2000.
EXACT_TABLE_CAP = 2000


class RejectionLimitError(RuntimeError):
    """The rejection sampler used up its attempt budget."""

    def __init__(self, n, rejections):
        super().__init__(
            f"no accepted sample at n={n} after {rejections} rejected attempts"
        )
        self.n = n
        self.rejections = rejections


def fristedt_q(n):
    """Boltzmann parameter q = exp(-c/sqrt(n)), c = pi/sqrt(6)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.exp(-C_SCALE / math.sqrt(n))


def sample_exact_uniform(table, n, rng):
    """Exactly uniform partition of n, by unranking a uniform index."""
    return unrank(table, n, rng.integer_below(table.count(n)))


@lru_cache(maxsize=16)
def _boltzmann_plan(n):
    """Per-n precomputation: q, head cutoff K, tail log-survival sums.

    The tail array holds -log P(no part in (K, j]) for j = K+1..n,
    strictly increasing, so a single uniform locates the first part
    size above K by searchsorted, and the law restarts after a hit.
    """
    q = fristedt_q(n)
    K = min(n, math.ceil(12.0 * math.sqrt(n) / C_SCALE))
    ks = np.arange(K + 1, n + 1, dtype=np.float64)
    neg_prefix = -np.cumsum(np.log1p(-np.exp(ks * math.log(q))))
    return q, K, neg_prefix


def _draw_tail(rng, q, K, neg_prefix, first_target):
    """Multiplicities above the dense head for one attempt.

    ``first_target`` is the (precomputed) exponential variate locating
    the first hit; further hits draw fresh variates.  Returns a list of
    (part, multiplicity) with parts increasing.
    """
    out = []
    logq = math.log(q)
    target = first_target
    base = 0.0
    while True:
        idx = int(np.searchsorted(neg_prefix, base + target, side="left"))
        if idx >= len(neg_prefix):
            return out
        part = K + 1 + idx
        mult = 1 + int(math.log(rng.uniform_open()) // (part * logq))
        out.append((part, mult))
        base = neg_prefix[idx]
        target = -math.log1p(-rng.uniform_open())


def sample_fristedt_batch(n, count, rng, *, max_rejections=10**7, pdc=False):
    """Draw ``count`` uniform partitions of n; returns (partitions, attempts).

    ``attempts`` counts every candidate generated, accepted ones
    included, so attempts/count estimates the inverse acceptance rate.
    Raises RejectionLimitError once the number of rejected attempts
    exceeds ``max_rejections``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if count < 0:
        raise ValueError("count must be nonnegative")
    q, K, neg_prefix = _boltzmann_plan(n)
    logq = math.log(q)
    first_k = 2 if pdc else 1
    ks = np.arange(first_k, K + 1, dtype=np.int64)
    denom = ks.astype(np.float64) * logq
    have_tail = len(neg_prefix) > 0

    out = []
    attempts = 0
    rejections = 0
    while len(out) < count:
        u = rng.uniform_open((_BATCH, len(ks)))
        mults = np.floor(np.log(u) / denom).astype(np.int64)
        weights = mults @ ks
        if have_tail:
            first_targets = -np.log1p(-rng.uniform_open(_BATCH))
            tail_hit = first_targets <= neg_prefix[-1]
        else:
            tail_hit = np.zeros(_BATCH, dtype=bool)
        tails = [None] * _BATCH
        for i in np.nonzero(tail_hit)[0]:
            t = _draw_tail(rng, q, K, neg_prefix, float(first_targets[i]))
            tails[i] = t
            weights[i] += sum(p * m for p, m in t)
        if pdc:
            residual = n - weights
            accept_u = rng.uniform(_BATCH)
            ok = (residual >= 0) & (
                accept_u < np.exp(np.clip(residual, 0, None) * logq)
            )
        else:
            residual = np.zeros(_BATCH, dtype=np.int64)
            ok = weights == n

        for i in range(_BATCH):
            attempts += 1
            if ok[i]:
                out.append(_materialize(ks, mults[i], tails[i], int(residual[i])))
                if len(out) == count:
                    break
            else:
                rejections += 1
                if rejections > max_rejections:
                    raise RejectionLimitError(n, rejections)
    return out, attempts


def _materialize(ks, mult_row, tail, ones):
    parts = []
    if tail:
        for part, mult in reversed(tail):
            parts.extend([part] * mult)
    head = np.repeat(ks, mult_row)[::-1].tolist()
    parts.extend(head)
    if ones:
        parts.extend([1] * ones)
    return Partition(parts)


def sample_fristedt(n, rng, max_rejections=10**7, *, pdc=False):
    """One uniform partition of n by geometric-multiplicity rejection."""
    parts, _ = sample_fristedt_batch(
        n, 1, rng, max_rejections=max_rejections, pdc=pdc
    )
    return parts[0]


def sample_uniform_batch(n, count, rng, *, method="exact", table=None,
                         max_rejections=10**7):
    """Draw ``count`` uniform partitions of n with the named method.

    method: 'exact' (unranking; builds a table up to n when none is
    passed, for n up to EXACT_TABLE_CAP), 'fristedt' (plain rejection),
    or 'fristedt-pdc'.  Returns (partitions, attempts); for 'exact',
    attempts == count.
    """
    if method == "exact":
        if table is None:
            if n > EXACT_TABLE_CAP:
                raise ValueError(
                    f"n = {n} above the exact sampler's table cap "
                    f"{EXACT_TABLE_CAP}; use method 'fristedt-pdc'"
                )
            table = build_table(n)
        return [sample_exact_uniform(table, n, rng) for _ in range(count)], count
    if method == "fristedt":
        return sample_fristedt_batch(n, count, rng, max_rejections=max_rejections)
    if method == "fristedt-pdc":
        return sample_fristedt_batch(
            n, count, rng, max_rejections=max_rejections, pdc=True
        )
    raise ValueError(f"unknown sampling method {method!r}")


def estimate_p_mc(n, trials, rng, *, method="exact", table=None,
                  max_rejections=10**7):
    """Monte Carlo estimate of the probability that a uniform partition
    of n is graphical."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    samples, _ = sample_uniform_batch(
        n, trials, rng, method=method, table=table, max_rejections=max_rejections
    )
    hits = sum(1 for lam in samples if is_graphical_eg(lam))
    return make_estimate("p-graphical", hits, trials, n=n)


def estimate_r_mc(n, trials, rng, *, method="exact", table=None,
                  max_rejections=10**7):
    """Monte Carlo estimate of the probability that lam <= mu in
    dominance for an independent uniform pair (lam, mu) of weight n."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    samples, _ = sample_uniform_batch(
        n, 2 * trials, rng, method=method, table=table,
        max_rejections=max_rejections,
    )
    hits = sum(
        1 for a, b in zip(samples[0::2], samples[1::2]) if dominates(a, b)
    )
    return make_estimate("r-dominance", hits, trials, n=n)
