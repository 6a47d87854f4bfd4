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
  probability of order n^(-3/4); the divide-and-conquer variant
  (``pdc=True``) never draws the multiplicity of part 1 but instead
  sets it to the residual weight and accepts with the matching
  Boltzmann factor q^(residual), which preserves exact uniformity and
  boosts the acceptance rate by roughly sqrt(n).

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

Accepted samples come back as a :class:`PartitionBatch` in
multiplicity form: an integer matrix of the multiplicities of parts
1..K (for ``pdc`` the count of part 1 is the residual) and sparse
(row, part, multiplicity) triples for the parts above K; the exact
sampler's (row, part) pairs are packed into the same form.
``sample_uniform_batch`` is the one draw entry point for every method
and returns that batch.
The estimators draw through it and run the Erdos-Gallai and dominance
tests on the batch with array code; ``Partition`` objects are built
only when a batch is indexed or iterated.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .counting import build_table, rank_multiplicities, unrank_pairs
from .partitions import Partition
from .stats import C_SCALE, MC_BLOCK_ELEMENTS, make_estimate

__all__ = [
    "BOLTZMANN_MAX_N",
    "EXACT_TABLE_CAP",
    "PartitionBatch",
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
    """Dense head cutoff K = min(n, ceil(3 sqrt(n)/c)).  It is at least
    floor(sqrt(n)), which bounds the Durfee square."""
    return min(n, math.ceil(3.0 * math.sqrt(n) / C_SCALE))


class PartitionBatch:
    """Partitions of one weight n in multiplicity form.

    ``head[r, k-1]`` is the multiplicity of part k in row r for
    k = 1..K, K = min(n, ceil(3 sqrt(n)/c)).  Parts above K are the
    sparse triples ``tail_row``, ``tail_part``, ``tail_mult``, kept
    sorted by row and then part.  Indexing with an int, or iterating,
    builds :class:`Partition` objects; indexing with a slice selects
    rows.
    """

    def __init__(self, n, head, tail_row, tail_part, tail_mult):
        order = np.lexsort((tail_part, tail_row))
        self.n = n
        self.head = np.asarray(head, dtype=np.int64)
        self.tail_row = np.asarray(tail_row, dtype=np.int64)[order]
        self.tail_part = np.asarray(tail_part, dtype=np.int64)[order]
        self.tail_mult = np.asarray(tail_mult, dtype=np.int64)[order]

    @classmethod
    def from_parts(cls, n, rows, row, part):
        """Pack ``rows`` partitions of weight n, given as one (row, part)
        pair per part, into multiplicity form."""
        K = _head_size(n)
        small = part <= K
        head = np.bincount(row[small] * K + part[small] - 1,
                           minlength=rows * K).reshape(rows, K)
        key, mult = np.unique(row[~small] * (n + 1) + part[~small],
                              return_counts=True)
        return cls(n, head, key // (n + 1), key % (n + 1), mult)

    @classmethod
    def from_partitions(cls, n, partitions):
        """Pack partitions of weight n into multiplicity form."""
        lengths = [len(lam) for lam in partitions]
        row = np.repeat(np.arange(len(partitions)), lengths)
        part = np.fromiter(itertools.chain.from_iterable(partitions),
                           dtype=np.int64, count=sum(lengths))
        return cls.from_parts(n, len(partitions), row, part)

    def __len__(self):
        return len(self.head)

    def _partition(self, r, lo, hi):
        tail = np.repeat(self.tail_part[lo:hi][::-1], self.tail_mult[lo:hi][::-1])
        head = np.repeat(np.arange(self.head.shape[1], 0, -1), self.head[r, ::-1])
        return Partition.from_sorted(tail.tolist() + head.tolist())

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._select(np.arange(len(self))[key])
        r = range(len(self))[key]
        lo, hi = np.searchsorted(self.tail_row, [r, r + 1])
        return self._partition(r, lo, hi)

    def __iter__(self):
        bounds = np.searchsorted(self.tail_row, np.arange(len(self) + 1))
        return (self._partition(r, bounds[r], bounds[r + 1])
                for r in range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, PartitionBatch):
            return NotImplemented
        return self.n == other.n and all(
            np.array_equal(a, b) for a, b in (
                (self.head, other.head), (self.tail_row, other.tail_row),
                (self.tail_part, other.tail_part), (self.tail_mult, other.tail_mult)))

    def ranks(self, table):
        """Enumeration index of every row, by ``table``; agrees with
        ``counting.rank``."""
        row, col = np.nonzero(self.head)
        mult = self.head[row, col]
        row = np.concatenate((row, self.tail_row))
        # stable, so in each row the head parts stay before the tail
        order = np.argsort(row, kind="stable")
        return rank_multiplicities(
            table, self.n, len(self), row[order],
            np.concatenate((col + 1, self.tail_part))[order],
            np.concatenate((mult, self.tail_mult))[order])

    def _select(self, rows):
        index = np.full(len(self), -1, dtype=np.int64)
        index[rows] = np.arange(len(rows))
        keep = index[self.tail_row] >= 0
        return PartitionBatch(self.n, self.head[rows], index[self.tail_row[keep]],
                              self.tail_part[keep], self.tail_mult[keep])

    def _conj(self):
        """conj_i, the number of parts >= i, for i = 1..K."""
        above = np.bincount(self.tail_row, weights=self.tail_mult, minlength=len(self))
        suffix = np.cumsum(self.head[:, ::-1], axis=1)[:, ::-1]
        return suffix + above.astype(np.int64)[:, None]

    def _leading(self, conj, count):
        # lam_j = #{i : conj_i >= j}; the i <= K share comes from a
        # histogram of conj capped at count, the i > K share from the
        # j-th largest tail part t_j as t_j - K
        rows, K = self.head.shape
        capped = np.minimum(conj, count) + (count + 1) * np.arange(rows)[:, None]
        hist = np.bincount(capped.ravel(), minlength=rows * (count + 1))
        lead = np.cumsum(hist.reshape(rows, count + 1)[:, ::-1], axis=1)[:, -2::-1]
        row = np.repeat(self.tail_row, self.tail_mult)
        part = np.repeat(self.tail_part, self.tail_mult)
        rank = np.searchsorted(row, row, side="right") - 1 - np.arange(len(row))
        keep = rank < count
        lead[row[keep], rank[keep]] += part[keep] - K
        return lead

    def leading_parts(self, count):
        """Matrix of the ``count`` largest parts of each row, padded
        with zeros."""
        return self._leading(self._conj(), count)

    def graphical(self):
        """Erdos-Gallai test of every row; agrees with
        ``partitions.is_graphical_eg``.  Only i up to the Durfee size,
        at most floor(sqrt(n)) <= K, is tested."""
        if self.n % 2:
            return np.zeros(len(self), dtype=bool)
        top = math.isqrt(self.n)
        i = np.arange(1, top + 1)
        conj = self._conj()
        lam = self._leading(conj, top)
        slack = np.cumsum(conj[:, :top] - lam, axis=1) - i
        durfee = (lam >= i).sum(axis=1)
        return ((slack >= 0) | (i > durfee[:, None])).all(axis=1)

    def _excess_tail(self, row, k):
        """E_k = sum_{p > k} (p - k) m_p of the given rows at k >= K,
        where only tail parts count."""
        n1 = self.n + 1
        key = self.tail_row * n1 + self.tail_part
        mass = np.append(np.cumsum((self.tail_part * self.tail_mult)[::-1])[::-1], 0)
        size = np.append(np.cumsum(self.tail_mult[::-1])[::-1], 0)
        lo = np.searchsorted(key, row * n1 + k, side="right")
        hi = np.searchsorted(key, (row + 1) * n1)
        return (mass[lo] - mass[hi]) - k * (size[lo] - size[hi])

    def _excess_head(self):
        """E_k for k = 0..K, one row per partition: E_K from the tail
        plus the sum of conj_i over i = k+1..K."""
        rows, K = self.head.shape
        out = np.empty((rows, K + 1), dtype=np.int64)
        out[:, K] = self._excess_tail(np.arange(rows), np.full(rows, K))
        out[:, :K] = np.cumsum(self._conj()[:, ::-1], axis=1)[:, ::-1] + out[:, K:]
        return out

    def dominated_by(self, other):
        """Row-wise dominance self[r] <= other[r]; agrees with
        ``partitions.dominates``.

        lam <= mu iff E_k(lam) <= E_k(mu) for every k >= 0, where E_k
        counts the cells right of column k.  E_k is linear in k between
        part sizes, so k = 0..K and every tail part size of either row
        suffice.
        """
        if other.n != self.n or len(other) != len(self):
            raise ValueError("dominance needs two batches of one weight and size")
        ok = (self._excess_head() <= other._excess_head()).all(axis=1)
        row = np.concatenate((self.tail_row, other.tail_row))
        k = np.concatenate((self.tail_part, other.tail_part))
        ok[row[self._excess_tail(row, k) > other._excess_tail(row, k)]] = False
        return ok


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
    ks = np.arange(2 if pdc else 1, K + 1, dtype=np.float64)
    denom = ks * logq

    empty = np.zeros(0, dtype=np.int64)
    heads, tails = [np.zeros((0, K), dtype=np.int64)], [(empty, empty, empty)]
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
            ok = (residual >= 0) & (
                rng.uniform(_BATCH) < np.exp(np.clip(residual, 0, None) * logq))
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
        head[:, K - len(ks):] = mults[took]
        if pdc:
            head[:, 0] = residual[took]
        index = np.full(_BATCH, -1, dtype=np.int64)
        index[took] = np.arange(accepted, accepted + len(took))
        keep = index[row] >= 0
        heads.append(head)
        tails.append((index[row[keep]], part[keep], mult[keep]))
        accepted += len(took)
        # free this block before the next one is drawn
        del mults, weight, residual, ok

    row, part, mult = (np.concatenate(column) for column in zip(*tails))
    return PartitionBatch(n, np.concatenate(heads), row, part, mult), attempts


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
    the trials ``rows``, runs on blocks of at most MC_BLOCK_ELEMENTS // K
    trials, so its temporaries stay bounded by the block."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    batch, _ = sample_uniform_batch(n, draws * trials, rng, method=method,
                                    max_rejections=max_rejections)
    step = max(1, MC_BLOCK_ELEMENTS // max(1, batch.head.shape[1]))
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
