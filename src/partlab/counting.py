"""Exact counting, ranking and unranking, and exact probabilities.

The workhorse is a table of restricted counts c(m, k) = number of
partitions of m whose largest part is at most k, one numpy array built
a column at a time.  The table powers pi(n) = c(n, n), and ranking and
unranking in reverse-lexicographic order, a whole batch of indices at
once (which in turn powers exact uniform sampling).  An
independently implemented pentagonal-number recurrence cross-checks
the table.  Graphical partitions are counted without listing them, by
a numpy frontier over the Durfee-square decomposition: the states of
every Durfee size advance one level at a time, their children expanded
in chunks of bounded size and equal states merged by a sort; dominance-
comparable pairs by a pair DP that chooses the parts of both partitions
in step.  Probabilities are exact rationals throughout.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .partitions import Partition, PartitionBatch, _as_partition

__all__ = [
    "PartitionTable",
    "build_table",
    "comparable_count",
    "exact_p",
    "exact_r",
    "graphical_count",
    "pentagonal_counts",
    "rank",
    "rank_batch",
    "unrank",
    "unrank_pairs",
]

#: Largest max_n whose table fits int64: pi(405) < 2^63 <= pi(406).
_INT64_MAX_N = 405


class PartitionTable:
    """Restricted partition counts c(m, k) for 0 <= m, k <= max_n.

    c(m, k) counts partitions of m with every part at most k.  Column k
    comes from column k-1 by

        c(m, k) = sum_{t >= 0} c(m - tk, k-1),

    one cumsum down each residue class of m mod k, starting from
    c(0, 0) = 1 and c(m, 0) = 0 for m >= 1; c(m, k) is constant in k
    beyond k = m.  ``counts[m, k]`` is one read-only numpy array, int64
    while pi(max_n) < 2^63 (max_n <= 405) and Python integers (dtype
    object) above, so nothing overflows.  Instances are immutable once
    built and safe to share.
    """

    def __init__(self, max_n):
        max_n = int(max_n)
        if max_n < 0:
            raise ValueError("max_n must be nonnegative")
        self.max_n = max_n
        size = max_n + 1
        # built as columns[k, m], so each column is contiguous
        columns = np.zeros((size, size),
                           dtype=np.int64 if max_n <= _INT64_MAX_N else object)
        columns[0, 0] = 1
        for k in range(1, size):
            q, rem = divmod(size, k)
            blocks = columns[k, : q * k].reshape(q, k)
            np.cumsum(columns[k - 1, : q * k].reshape(q, k), axis=0, out=blocks)
            columns[k, q * k:] = blocks[-1, :rem] + columns[k - 1, q * k:]
        columns.flags.writeable = False
        self.counts = columns.T

    def count(self, n):
        """pi(n), the number of partitions of n."""
        if not 0 <= n <= self.max_n:
            raise ValueError(f"n={n} outside table range 0..{self.max_n}")
        return int(self.counts[n, n])


def build_table(max_n):
    """Build a PartitionTable covering weights 0..max_n."""
    return PartitionTable(max_n)


def pentagonal_counts(max_n):
    """pi(0..max_n) by Euler's pentagonal-number recurrence.

    Shares no code with PartitionTable, so the two can vouch for each
    other.  Returns a list indexed by n.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    pi = [0] * (max_n + 1)
    pi[0] = 1
    for n in range(1, max_n + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            if g1 > n:
                break
            sign = 1 if j % 2 else -1
            total += sign * pi[n - g1]
            g2 = j * (3 * j + 1) // 2
            if g2 <= n:
                total += sign * pi[n - g2]
            j += 1
        pi[n] = total
    return pi


def unrank_pairs(table, n, indices):
    """The partitions of n at enumeration ``indices`` (0-based), as
    arrays (row, part): one pair per part, row r for ``indices[r]``.

    Partitions of m with every part at most k are the last c(m, k) in
    the order, so if s counts the partitions from the sought one to the
    end, its first part is the least j with c(m, j) >= s, and the rest
    is the partition of m - j that lies s - c(m, j-1) from the end.
    Every index steps at once from s = pi(n) - idx and m = n, one part
    per step, j found by a binary search in row m of the table.  The
    parts of a row come out in non-increasing order.  The indices must
    be integers, int64 or (above 2^63) Python integers in an object
    array; a float raises TypeError rather than being truncated.
    """
    counts = table.counts
    total = table.count(n)
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        for i in idx.flat:
            operator.index(i)
    out = (idx < 0) | (idx >= total)
    if out.any():
        raise ValueError(
            f"index {idx[out][0]} out of range for pi({n}) = {total}")
    s = total - idx.astype(counts.dtype)
    rows = np.arange(len(idx)) if n else np.arange(0)
    m = np.full(len(rows), n)
    bound = m.copy()
    found = [(rows[:0], rows[:0])]
    while len(rows):
        # below = j - 1, the largest k with c(m, k) < s; c(m, 0) = 0 < s
        # and s <= c(m, min(m, bound))
        top = np.minimum(m, bound) - 1
        below = np.zeros_like(m)
        step = 1 << int(top.max()).bit_length()
        while step > 1:
            step >>= 1
            probe = np.minimum(below + step, top)
            below = np.where(counts[m, probe] < s, probe, below)
        s -= counts[m, below]
        part = below + 1
        m -= part
        found.append((rows, part))
        left = m > 0
        rows, m, bound, s = rows[left], m[left], part[left], s[left]
    return tuple(np.concatenate(column) for column in zip(*found))


def unrank(table, n, idx):
    """The idx-th partition of n in enumeration order (0-based); the
    one-index case of :func:`unrank_pairs`."""
    _, parts = unrank_pairs(table, n, [idx])
    return Partition.from_sorted(parts.tolist())


def rank_batch(table, batch):
    """Enumeration index of every row of the PartitionBatch ``batch``;
    the inverse of :func:`unrank_pairs`.

    Unranking takes from s the count c(m, j-1) for each part j it
    chooses at weight m left, and ends at s = 1, so the index is
    pi(n) - 1 - sum_t c(m_t, j_t - 1).  The copies of part j are chosen
    at m = W, W - j, ..., W - (mult-1) j, W the weight in parts <= j,
    and by the column recurrence they take c(W, j) - c(W - mult j, j)
    in all.
    """
    n, row, part = batch.n, batch.row, batch.part
    if n > table.max_n:
        raise ValueError(f"weight {n} outside table range 0..{table.max_n}")
    weight = part * batch.mult
    # every row weighs n, so the running sum is n per earlier row plus
    # the weight in parts <= j of this one
    upto = np.cumsum(weight) - n * row
    counts = table.counts
    taken = np.zeros(len(batch), dtype=counts.dtype)
    np.add.at(taken, row, counts[upto, part] - counts[upto - weight, part])
    return table.count(n) - 1 - taken


def rank(table, lam):
    """Position of ``lam`` in the enumeration order of its weight.

    Inverse of :func:`unrank`; the one-row call of :func:`rank_batch`.
    """
    lam = _as_partition(lam)
    return int(rank_batch(table, PartitionBatch.from_partitions(lam.weight, [lam]))[0])


def _ragged(sizes):
    """Position of every element within its row, for rows of ``sizes``
    laid end to end; np.repeat(values, sizes) spreads a per-row value
    over the same elements."""
    return np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def _runs(sizes, step):
    """Consecutive (i, j) slices of ``sizes``, each summing to at most
    ``step`` unless one element alone exceeds it."""
    ends = np.cumsum(sizes)
    i = 0
    while i < len(sizes):
        j = int(np.searchsorted(ends, (ends[i - 1] if i else 0) + step, "right"))
        j = max(j, i + 1)
        yield i, j
        i = j


def _merge(keys, counts):
    """Sum ``counts`` over equal ``keys`` (at least one); returns both
    sorted by key."""
    order = np.argsort(keys)
    keys, counts = keys[order], counts[order]
    start = np.concatenate(([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1))
    return keys[start], np.add.reduceat(counts, start)


#: Bytes that one chunk of the Durfee DP's rows or children may occupy
#: while it is expanded and merged; each holds at most 16 int64 words
#: then (about 10 measured).
_EXPAND_BYTES = 4 * 2**20


def _rows(part, counts, per, k, bits):
    """The (state, a2) rows of the parent states ``part`` that have a
    child: each row's number of children, least g2 and count, and the
    parts of its children's keys (see _durfee_graphical_hits)."""
    mask = (1 << bits) - 1
    d, left = part >> 4 * bits, part >> 3 * bits & mask
    gap, g = part >> 2 * bits & mask, part & mask
    spread = -(-left // (d - k))
    src = np.repeat(np.arange(len(part)), per)
    a2 = _ragged(per)
    lo = np.maximum(np.maximum(a2 + (k + 1) - gap[src], spread[src] - a2), 0)
    kids = np.minimum(g[src], left[src] - a2) - lo + 1
    ok = kids > 0
    src, a2 = src[ok], a2[ok]
    d = d[src]
    # a child's key less its gap and g2 fields, at g2 = 0; its gap before
    # the clamp, less g2; and the clamp
    head = (d << 4 * bits) + ((left[src] - a2) << 3 * bits) + (a2 << bits)
    return (kids[ok], lo[ok], counts[src], head, gap[src] - a2,
            d + (d - k - 1) * a2)


def _child_keys(per, lo, head, low, clamp, bits):
    """The keys of the children g2 = lo, lo + 1, ... of rows with
    ``per`` children each."""
    g2 = _ragged(per) + np.repeat(lo, per)
    gap2 = np.minimum(np.repeat(low, per) + g2, np.repeat(clamp, per))
    return np.repeat(head, per) + (gap2 << 2 * bits) + g2 * (1 - (1 << 3 * bits))


def _durfee_graphical_hits(n):
    """Graphical partitions of an even n >= 2, by Durfee size d.

    Such a partition is the d x d square plus alpha to its right and
    gamma' below it, where alpha_k = lam_k - d and gamma_k = lam'_k - d
    are partitions with at most d parts and |alpha| + |gamma| =
    n - d^2.  Conjugate Erdos-Gallai reads Gamma_k - A_k >= k for
    k = 1..d, on the prefix sums A, Gamma of alpha, gamma.  Level k of
    the DP holds every reachable state (d, a, g, gap, left) with its
    multiplicity: a = alpha_k, g = gamma_k, gap = Gamma_k - A_k and
    left = n - d^2 - A_k - Gamma_k, one sorted frontier for every d at
    once.  A state's children choose a2 <= min(a, left) and
    g2 <= min(g, left - a2) with gap + g2 - a2 >= k + 1; levels k+2..d
    take at most a2 + g2 each, so a2 + g2 >= ceil(left / (d - k)) (the
    spread), and a state with d = k + 1 has left = 0 after its last
    level.  Once gap >= d + (d-k-1) a2 no later level can fail, so every
    larger gap counts alike: the gap is clamped there to merge states.

    The spread keeps only prefixes that extend to a whole pair (alpha,
    gamma), so a state counts distinct partitions of n and its count is
    at most pi(n) < 2^63 (n <= 405): int64 is exact.  States are packed
    into one int64 key (d, left, gap, a, g), n.bit_length() bits a field
    (41 bits in all at n <= 405), and children with equal keys are
    summed by a sort.  Children are expanded in chunks of at most
    _EXPAND_BYTES, parents in key order, so children that merge mostly
    meet within a chunk.
    """
    bits = n.bit_length()
    mask = (1 << bits) - 1
    step = _EXPAND_BYTES // (16 * 8)
    dmax = math.isqrt(n)
    d = np.arange(1, dmax + 1, dtype=np.int64)
    weight = n - d * d
    keys = ((d << bits | weight) << 2 * bits | weight) << bits | weight
    counts = np.ones_like(d)
    hits = 0
    for k in range(dmax):
        # states with d = k took their last level at k - 1
        live = keys >> 4 * bits > k
        hits += int(counts[~live].sum())
        keys, counts = keys[live], counts[live]
        # one row per (state, a2), then one per child (state, a2, g2); the
        # temporaries of _rows and _child_keys die on return, so a chunk
        # holds no more than step rows or children at once
        nrows = np.minimum(keys >> bits & mask, keys >> 3 * bits & mask) + 1
        found = []
        for i, j in _runs(nrows, step):
            kids, lo, cnt, head, low, clamp = _rows(keys[i:j], counts[i:j],
                                                  nrows[i:j], k, bits)
            for p, q in _runs(kids, step):
                per = kids[p:q]
                found.append(_merge(
                    _child_keys(per, lo[p:q], head[p:q], low[p:q], clamp[p:q], bits),
                    np.repeat(cnt[p:q], per)))
        if not found:
            return hits
        keys, counts = (found[0] if len(found) == 1 else
                        _merge(*(np.concatenate(x) for x in zip(*found))))
    # every state left has d = dmax and took its last level
    return hits + int(counts.sum())


#: Largest n whose Durfee-square count finishes within a minute.  Its
#: time grows about like n^6.5: on 2 x86-64 cores it took 0.44 s at
#: n = 100, 3.7 s at 138 and 48-50 s (835-844 MB peak RSS) at 200.
_DURFEE_DP_MAX_N = 200


def graphical_count(n):
    """(graphical partitions of n, pi(n)), counted without enumeration.

    The count is _durfee_graphical_hits, over every Durfee size at once;
    odd n has no graphical partition.  pi(n) comes from the pentagonal
    recurrence.  Nothing is kept between calls.  n above
    _DURFEE_DP_MAX_N is refused.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > _DURFEE_DP_MAX_N:
        raise ValueError(
            f"n = {n} above {_DURFEE_DP_MAX_N}, the largest n whose "
            "Durfee-square count finishes within a minute"
        )
    total = pentagonal_counts(n)[n]
    if n % 2:
        return 0, total
    return (_durfee_graphical_hits(n) if n else 1), total


def exact_p(n):
    """Exact probability that a uniform random partition of n is graphical."""
    hits, total = graphical_count(n)
    return Fraction(hits, total)


def _dominance_pairs(n, table):
    """Ordered pairs (lam, mu) of partitions of n >= 1 with lam <= mu.

    The parts of lam and mu are chosen in step.  After some steps lam's
    prefix sum is L, its last part a, mu's last part b, and mu leads by
    D = M - L >= 0, M being mu's prefix sum; ``R[L][a, b, D]`` counts
    the ways to finish both.  Once M = n (D = n - L) every later prefix
    condition holds, so R is c(n - L, a).  Otherwise lam's next part is
    some a2 in 1..a and mu's some b2 in 1..b with D + b2 - a2 >= 0, so

        R[L][a, b, D] = sum_{a2 <= a, b2 <= b} R[L+a2][a2, b2, D+b2-a2],

    a rectangle sum, taken by two cumsums, of one sheared gather.
    R[L] depends on a and b only through min(a, n - L) and
    min(b, n - L), and a <= L since a is a part of lam, so level L
    stores a <= min(L, n - L) and b, D <= n - L: about 0.073 n^4 int64
    cells in all.  Level 0 is the single state (a, b, D) = (n, n, 0).
    Every count is at most pi(n)^2, which the caller keeps below 2^63.
    """
    rows = [min(L, n - L) for L in range(n + 1)]
    sizes = [(rows[L] + 1) * (n - L + 1) ** 2 for L in range(n + 1)]
    # levels are stored flat from L = n down; cell 0 is a zero that
    # stands in for every out-of-range read
    offset = np.zeros(n + 1, dtype=np.int64)
    end = 1
    for L in range(n, 0, -1):
        offset[L] = end
        end += sizes[L]
    store = np.zeros(end, dtype=np.int64)
    store[offset[n]] = 1

    def gather(L, top, depth):
        # R[L+a2][a2, b2, D+b2-a2] for a2 in 1..top, b2 in 1..n-L and
        # D in 0..depth-1, zero where mu's lead would go negative or
        # its prefix past n
        B = n - L
        a2 = np.arange(1, top + 1)[:, None]
        b2 = np.arange(1, B + 1)
        rest = B - a2
        cell = (offset[L + a2]
                + (np.minimum(a2, rest) * (rest + 1) + np.minimum(b2, rest)) * (rest + 1)
                + b2 - a2)
        D = np.arange(depth)
        index = cell[:, :, None] + D
        index[(D < (a2 - b2)[:, :, None]) | (D > (B - b2)[:, None])] = 0
        return store[index]

    for L in range(n - 1, 0, -1):
        A, B = rows[L], n - L
        level = store[offset[L]: offset[L] + sizes[L]].reshape(A + 1, B + 1, B + 1)
        inner = gather(L, A, B)
        np.cumsum(inner, axis=0, out=inner)
        np.cumsum(inner, axis=1, out=inner)
        level[1:, 1:, :B] = inner
        level[:, :, B] = table.counts[B, : A + 1, None]
    return int(gather(0, n, 1).sum())


#: Largest n whose pi(n)^2 ordered pairs fit the pair DP's int64 cells.
_PAIR_DP_MAX_N = max(
    n for n, pi_n in enumerate(pentagonal_counts(150)) if pi_n * pi_n < 2**63
)


def comparable_count(n, *, two_sided=False):
    """(comparable ordered pairs of partitions of n, pi(n)) by a pair DP.

    A pair (lam, mu) counts when lam <= mu in dominance; ties count.
    With ``two_sided=True`` pairs comparable in either direction count
    instead, which by antisymmetry is 2*one_sided - pi(n) pairs.  The
    DP (see _dominance_pairs) takes O(n^4) numpy work and about
    0.6 n^4 bytes, and keeps nothing between calls.  Above n = 124 the
    pair count no longer fits int64, and such n is refused.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > _PAIR_DP_MAX_N:
        raise ValueError(
            f"n = {n} above {_PAIR_DP_MAX_N}, the largest n whose pi(n)^2 "
            "pairs fit the pair DP's int64 counts"
        )
    table = PartitionTable(n)
    count = table.count(n)
    one_sided = _dominance_pairs(n, table) if n else 1
    pairs = 2 * one_sided - count if two_sided else one_sided
    return pairs, count


def exact_r(n, *, two_sided=False):
    """Exact probability that lam <= mu in dominance, for an ordered pair
    of independent uniform partitions of n (either direction when
    ``two_sided``)."""
    pairs, count = comparable_count(n, two_sided=two_sided)
    return Fraction(pairs, count * count)
