"""Random partition generation and Monte Carlo probability estimates.

Two sampling families share the RandomStream plumbing:

* exact uniform sampling by unranking a uniform index into the
  enumeration order.  It needs a counting table, cost polynomial in n:
  at n = 2000 the table takes about 0.2 s and 125 MB and 200 draws
  about 0.05 s more (2 x86-64 cores).  A batch takes all its indices
  from the stream in one call and unranks them together, one part of
  every draw per step;

* Boltzmann sampling: part multiplicities drawn independently
  geometric, P(m_k = j) = (1 - q^k) q^(kj) with q = exp(-c/sqrt(n)),
  accepted when the total weight hits n.  Conditioned on acceptance
  the output is exactly uniform.  The plain sampler accepts with
  probability of order n^(-3/4).  The probabilistic divide-and-conquer
  variant (``pdc=True``; Arratia & DeSalvo, CPC 25 (2016)) draws only
  the parts >= 3 and leaves parts 1 and 2 to the residual weight
  r = n - (weight of parts >= 3).  It accepts with probability
  p_2(r) q^r / M, where p_2(r) = floor(r/2) + 1 counts the partitions
  of r into parts <= 2 and M = max_r p_2(r) q^r, then draws m_2
  uniform on {0..floor(r/2)} and sets m_1 = r - 2 m_2: the uniform
  partition of r into parts <= 2, so the sample stays exactly
  uniform.  The acceptance rate is P(N = n) / max_r P(m_1 + 2 m_2 = r),
  about 1 in 4.1 attempts at n = 24, 8.6 at n = 1000 and 14.9 at
  n = 10^4, where a residual block of part 1 alone needs 22.4 and 40.  At
  n = 1 the block is {1}, with p_1 = 1 and M = 1.

Boltzmann attempts are drawn ``_BATCH`` at a time.  Parts up to the
head cutoff K = min(n, ceil(3 sqrt(n)/c)) get dense multiplicities,
floor(log u / (k log q)), computed in place on one block of uniforms.
A part k > K appears with probability q^k <= e^-3, so the parts above
K are drawn sparsely, in rounds over every attempt of the block still
in play: each round draws one exponential target per attempt, finds by
``searchsorted`` on the log-survival sums -log P(no part in (K, j])
its next part with a positive multiplicity (or that it has none left),
and draws that multiplicity conditioned to be positive.  This inverts
the first-success law exactly, so the samples are uniform for any K.

Accepted samples come back as a ``partitions.PartitionBatch``: one
(row, part, multiplicity) triple per distinct part, sorted by row and
then by part.  K stays inside the sampler, which turns each block's
accepted heads and tails into triples; the exact sampler's (row, part)
pairs are packed alike.  ``sample_uniform_batch`` is the one draw
entry point for every method and returns that batch.  This module only
draws and estimates: the estimators draw through that entry point and
count with the batch's own Erdos-Gallai and dominance kernels, and
``Partition`` objects are built only when a batch is indexed or
iterated.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .counting import build_table, unrank_pairs
from .partitions import PartitionBatch
from .stats import C_SCALE, MC_BLOCK_ELEMENTS, make_estimate

__all__ = [
    "BOLTZMANN_MAX_N",
    "EXACT_TABLE_CAP",
    "RejectionLimitError",
    "estimate_p_mc",
    "estimate_r_mc",
    "fristedt_q",
    "sample_fristedt_batch",
    "sample_uniform_batch",
]

_BATCH = 512
#: Largest n for which method 'exact' builds its own counting table:
#: (n+1)^2 cells, int64 up to n = 405 and Python integers above, about
#: 0.2 s and 125 MB at n = 2000.
EXACT_TABLE_CAP = 2000
#: Largest n the Boltzmann samplers accept.  One block of attempts
#: holds _BATCH * 3 sqrt(n)/c doubles, 30 MB at n = 10^7, and each
#: accepted sample needs of order sqrt(n) log(n) parts.
BOLTZMANN_MAX_N = 10**7


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


def _head_size(n):
    """Dense head cutoff K = min(n, ceil(3 sqrt(n)/c)) of the Boltzmann
    sampler; a part above K has probability at most e^-3."""
    return min(n, math.ceil(3.0 * math.sqrt(n) / C_SCALE))


@lru_cache(maxsize=16)
def _boltzmann_plan(n):
    """Per-n precomputation: q, head cutoff K, tail log-survival sums.

    The tail array holds -log P(no part in (K, j]) for j = K+1, K+2, ...,
    strictly increasing, so a single exponential target locates the
    first part size above K by searchsorted, and the law restarts after
    a hit.  The array ends where its float64 sum stops changing (about
    25 sqrt(n) entries): the full array would only repeat the last
    value, so every searchsorted decision is the same.
    """
    q = fristedt_q(n)
    K = _head_size(n)
    # beyond 60 sqrt(n)/c terms, q^k < e^-60, far under half an ulp of the sum
    span = min(n - K, math.ceil(60.0 * math.sqrt(n) / C_SCALE))
    ks = np.arange(K + 1, K + span + 1, dtype=np.float64)
    neg_prefix = -np.cumsum(np.log1p(-np.exp(ks * math.log(q))))
    grows = np.flatnonzero(np.diff(neg_prefix))
    stop = grows[-1] + 2 if len(grows) else min(span, 1)
    return q, K, neg_prefix[:stop]


def _tail_rounds(rng, rows, logq, K, neg_prefix):
    """Parts above K for the attempts ``rows`` of a block, as arrays
    (row, part, multiplicity).  Each round draws one exponential target
    per attempt still in play; an attempt whose target passes the last
    log-survival sum has no further part."""
    found = [(rows[:0], rows[:0], rows[:0])]
    base = 0.0
    while len(rows) and len(neg_prefix):
        idx = np.searchsorted(neg_prefix, base + rng.exponential(len(rows)))
        hit = idx < len(neg_prefix)
        if not hit.any():
            break
        rows, idx = rows[hit], idx[hit]
        part = K + 1 + idx
        mult = 1 + np.floor(np.log(rng.uniform_open(len(rows))) / (part * logq))
        found.append((rows, part, mult.astype(np.int64)))
        base = neg_prefix[idx]
    return tuple(np.concatenate(column) for column in zip(*found))


def sample_fristedt_batch(n, count, rng, *, max_rejections=10**7, pdc=False):
    """Draw ``count`` uniform partitions of n; returns (PartitionBatch,
    attempts).

    ``pdc=True`` draws the parts >= 3 only and accepts with probability
    p_2(r) q^r / max_r p_2(r) q^r on the residual r, p_2(r) =
    floor(r/2) + 1, then splits r uniformly into m_1 + 2 m_2; see the
    module docstring.  That takes about 8.6 attempts per sample at
    n = 1000 and 14.9 at n = 10^4, against 22.4 and 40 for a residual
    block of part 1 alone.

    ``attempts`` counts the candidates up to and including the
    ``count``-th acceptance, so attempts/count estimates the inverse
    acceptance rate.  Raises RejectionLimitError at the rejection, in
    attempt order, that takes the rejected attempts past
    ``max_rejections``.  n above BOLTZMANN_MAX_N is refused before
    anything is allocated.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if n > BOLTZMANN_MAX_N:
        raise ValueError(
            f"n = {n} above the Boltzmann sampler limit {BOLTZMANN_MAX_N}"
        )
    q, K, neg_prefix = _boltzmann_plan(n)
    logq = math.log(q)
    # pdc leaves parts 1..block to the residual; block = 1 only at n = 1
    block = min(2, K) if pdc else 0
    ks = np.arange(block + 1, K + 1, dtype=np.float64)
    denom = ks * logq
    log_peak = 0.0
    if block == 2:
        # max_r p_2(r) q^r lies at an even r = 2j, and (j + 1) q^(2j) is
        # log-concave in j with its real maximum at j = -1/(2 log q) - 1
        top = max(0.0, -0.5 / logq - 1.0)
        log_peak = max(math.log(j + 1) + 2 * j * logq
                       for j in (math.floor(top), math.ceil(top)))

    empty = np.zeros(0, dtype=np.int64)
    triples = [(empty, empty, empty)]
    accepted = attempts = 0
    while accepted < count:
        mults = rng.uniform_open((_BATCH, len(ks)))
        np.log(mults, out=mults)
        mults /= denom
        np.floor(mults, out=mults)
        weight = mults @ ks
        # the tail only adds weight, so attempts already over n skip it
        row, part, mult = _tail_rounds(
            rng, np.flatnonzero(weight <= n), logq, K, neg_prefix)
        weight += np.bincount(row, weights=part * mult, minlength=_BATCH)
        residual = n - weight
        if pdc:
            # accept with p_block(r) q^r / max_r p_block(r) q^r, where
            # p_block(r) counts the partitions of r into parts <= block
            r = np.clip(residual, 0, None)
            law = np.exp(r * logq - log_peak)
            if block == 2:
                law *= np.floor(r / 2) + 1
            ok = (residual >= 0) & (rng.uniform(_BATCH) < law)
        else:
            ok = residual == 0

        need = count - accepted
        took = np.flatnonzero(ok)[:need]
        seen = int(took[-1]) + 1 if len(took) == need else _BATCH
        # rejections so far are attempts - accepted
        if attempts + seen - accepted - len(took) > max_rejections:
            raise RejectionLimitError(n, max_rejections + 1)
        attempts += seen

        head = np.empty((len(took), K), dtype=np.int64)
        head[:, block:] = mults[took]
        if block:
            # given r, (m_1, m_2) is uniform over the p_block(r) ways to
            # write r = m_1 + 2 m_2
            ones = residual[took].astype(np.int64)
            if block == 2:
                head[:, 1] = np.floor(rng.uniform(len(took)) * (ones // 2 + 1))
                ones -= 2 * head[:, 1]
            head[:, 0] = ones
        index = np.full(_BATCH, -1, dtype=np.int64)
        index[took] = np.arange(accepted, accepted + len(took))
        keep = index[row] >= 0
        at = np.flatnonzero(head)
        hit, col = np.divmod(at, K)
        row, part, mult = (np.concatenate(column) for column in zip(
            (accepted + hit, col + 1, head.ravel()[at]),
            (index[row[keep]], part[keep], mult[keep])))
        # in each row the head parts come in order, then the tail parts in
        # the order of the rounds that drew them: a stable row sort keeps it
        order = np.argsort(row, kind="stable")
        triples.append((row[order], part[order], mult[order]))
        accepted += len(took)
        # free this block before the next one is drawn
        del mults, weight, residual, ok

    row, part, mult = (np.concatenate(column) for column in zip(*triples))
    return PartitionBatch(n, count, row, part, mult), attempts


def sample_uniform_batch(n, count, rng, *, method="exact", max_rejections=10**7):
    """Draw ``count`` uniform partitions of n with the named method;
    returns (PartitionBatch, attempts).

    method: 'exact' (``count`` indices drawn at once and unranked
    together through a counting table built for n, up to
    EXACT_TABLE_CAP), 'fristedt' (plain rejection), or
    'fristedt-pdc'.  For 'exact', attempts == count.  The batch is in
    multiplicity form; ``Partition`` objects are built only when it is
    indexed or iterated.
    """
    if method == "exact":
        if count < 0:
            raise ValueError("count must be nonnegative")
        if n > EXACT_TABLE_CAP:
            raise ValueError(
                f"n = {n} above the exact sampler's table cap "
                f"{EXACT_TABLE_CAP}; use method 'fristedt-pdc'"
            )
        table = build_table(n)
        row, part = unrank_pairs(table, n, rng.integers_below(table.count(n), count))
        return PartitionBatch.from_parts(n, count, row, part), count
    if method in ("fristedt", "fristedt-pdc"):
        return sample_fristedt_batch(n, count, rng, max_rejections=max_rejections,
                                     pdc=method == "fristedt-pdc")
    raise ValueError(f"unknown sampling method {method!r}")


def _estimate(event, n, trials, draws, rng, method, max_rejections, test):
    """Estimate of ``event`` from ``trials`` trials of ``draws`` uniform
    partitions each.  ``test(batch, rows)``, the row-wise boolean test of
    the trials ``rows``, runs on blocks of at most MC_BLOCK_ELEMENTS //
    (floor(sqrt(n)) + 1) trials, so its temporaries stay bounded."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    batch, _ = sample_uniform_batch(n, draws * trials, rng, method=method,
                                    max_rejections=max_rejections)
    step = max(1, MC_BLOCK_ELEMENTS // (math.isqrt(n) + 1))
    hits = sum(int(test(batch, np.arange(lo, min(lo + step, trials))).sum())
               for lo in range(0, trials, step))
    return make_estimate(event, hits, trials, n=n)


def estimate_p_mc(n, trials, rng, *, method="exact", max_rejections=10**7):
    """Monte Carlo estimate of the probability that a uniform partition
    of n is graphical."""
    return _estimate("p-graphical", n, trials, 1, rng, method, max_rejections,
                     lambda batch, rows: (batch if len(rows) == trials
                                          else batch._select(rows)).graphical())


def estimate_r_mc(n, trials, rng, *, method="exact", max_rejections=10**7):
    """Monte Carlo estimate of the probability that lam <= mu in
    dominance for an independent uniform pair (lam, mu) of weight n;
    draw 2i is lam and draw 2i+1 is mu of trial i."""
    return _estimate("r-dominance", n, trials, 2, rng, method, max_rejections,
                     lambda batch, rows: batch._select(2 * rows).dominated_by(
                         batch._select(2 * rows + 1)))
