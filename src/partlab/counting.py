"""Exact counting, ranking and unranking, and exact probabilities.

The workhorse is a table of restricted counts c(m, k) = number of
partitions of m whose largest part is at most k, one numpy array built
a column at a time.  The table powers pi(n) = c(n, n), and ranking and
unranking in reverse-lexicographic order, a whole batch of indices at
once (which in turn powers exact uniform sampling).  An
independently implemented pentagonal-number recurrence cross-checks
the table.  Graphical partitions are counted without listing them, by
a dynamic program over the Durfee-square decomposition; dominance-
comparable pairs by a pair DP that chooses the parts of both partitions
in step.  Probabilities are exact rationals throughout.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .partitions import Partition, _parts_of

__all__ = [
    "PartitionTable",
    "build_table",
    "comparable_count",
    "exact_p",
    "exact_r",
    "graphical_count",
    "pentagonal_counts",
    "rank",
    "rank_multiplicities",
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

    def count_restricted(self, m, k):
        """c(m, k): partitions of m with largest part at most k."""
        if not (0 <= m <= self.max_n and 0 <= k <= self.max_n):
            raise ValueError(
                f"(m={m}, k={k}) outside table range 0..{self.max_n}"
            )
        return int(self.counts[m, k])

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
    parts of a row come out in non-increasing order.
    """
    counts = table.counts
    total = table.count(n)
    idx = np.asarray(indices)
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


def rank_multiplicities(table, n, rows, row, part, mult):
    """Enumeration indices of ``rows`` partitions of n given as
    triples (row, part, multiplicity), sorted by row and then by
    increasing part; the inverse of :func:`unrank_pairs`.

    Unranking takes from s the count c(m, j-1) for each part j it
    chooses at weight m left, and ends at s = 1, so the index is
    pi(n) - 1 - sum_t c(m_t, j_t - 1).  The copies of part j are chosen
    at m = W, W - j, ..., W - (mult-1) j, W the weight in parts <= j,
    and by the column recurrence they take c(W, j) - c(W - mult j, j)
    in all.
    """
    if n > table.max_n:
        raise ValueError(f"weight {n} outside table range 0..{table.max_n}")
    weight = part * mult
    # every row weighs n, so the running sum is n per earlier row plus
    # the weight in parts <= j of this one
    upto = np.cumsum(weight) - n * row
    counts = table.counts
    taken = np.zeros(rows, dtype=counts.dtype)
    np.add.at(taken, row, counts[upto, part] - counts[upto - weight, part])
    return table.count(n) - 1 - taken


def rank(table, lam):
    """Position of ``lam`` in the enumeration order of its weight.

    Inverse of :func:`unrank`; the one-row case of
    :func:`rank_multiplicities`.
    """
    parts = _parts_of(lam)
    part, mult = np.unique(np.asarray(parts, dtype=np.int64), return_counts=True)
    return int(rank_multiplicities(table, sum(parts), 1, np.zeros_like(part), part,
                                   mult)[0])


def _durfee_graphical_count(d, weight):
    """Graphical partitions of an even n = d^2 + weight with Durfee size d.

    Such a partition is the d x d square plus alpha to its right and
    gamma' below it, where alpha_k = lam_k - d and gamma_k = lam'_k - d
    are partitions with at most d parts and |alpha| + |gamma| = weight.
    Conjugate Erdos-Gallai reads Gamma_k - A_k >= k for k = 1..d, on the
    prefix sums A, Gamma of alpha, gamma.  ``rest(k, a, g, gap, left)``
    counts the ways to choose levels k+1..d given alpha_k = a,
    gamma_k = g, gap = Gamma_k - A_k and left = weight - A_k - Gamma_k.
    """

    @lru_cache(maxsize=None)
    def rest(k, a, g, gap, left):
        if k == d:
            return 1  # level d took all that was left: spread = left there
        # levels k+1..d take at most a2 + g2 each, so a2 + g2 >= spread
        spread = -(-left // (d - k))
        total = 0
        for a2 in range(min(a, left) + 1):
            lo = max(0, a2 + k + 1 - gap, spread - a2)
            for g2 in range(lo, min(g, left - a2) + 1):
                # once gap >= d + (d-k-1) a2, no later level can fail,
                # so every larger gap counts alike: clamp to merge states
                gap2 = min(gap + g2 - a2, d + (d - k - 1) * a2)
                total += rest(k + 1, a2, g2, gap2, left - a2 - g2)
        return total

    try:
        return rest(0, weight, weight, 0, weight)
    finally:
        # rest refers to itself, so without this its memo would outlive
        # the call until the cyclic garbage collector ran
        rest.cache_clear()


#: Largest n whose Durfee-square count finishes within a minute.  Its
#: time grows about like n^7: on 2 x86-64 cores it took 22 s at
#: n = 120, 56 s at 138 and 68 s at 140.
_DURFEE_DP_MAX_N = 138


def graphical_count(n):
    """(graphical partitions of n, pi(n)), counted without enumeration.

    Sums _durfee_graphical_count over the Durfee size d; odd n has no
    graphical partition.  pi(n) comes from the pentagonal recurrence.
    The memo lives for one call.  n above _DURFEE_DP_MAX_N is refused.
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
    hits = 1 if n == 0 else 0
    d = 1
    while d * d <= n:
        hits += _durfee_graphical_count(d, n - d * d)
        d += 1
    return hits, total


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
