"""Exact counting, enumeration, unranking, and exact probabilities.

The workhorse is a dynamic-programming table of restricted counts
c(m, k) = number of partitions of m whose largest part is at most k.
The table powers pi(n) = c(n, n), reverse-lexicographic enumeration,
and unranking (which in turn powers exact uniform sampling).  An
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
    "enumerate_partitions",
    "exact_p",
    "exact_r",
    "graphical_count",
    "pentagonal_counts",
    "rank",
    "unrank",
]

class PartitionTable:
    """Restricted partition counts c(m, k) for 0 <= m, k <= max_n.

    c(m, k) counts partitions of m with every part at most k and obeys

        c(0, k) = 1,  c(m, 0) = 0 for m >= 1,
        c(m, k) = c(m, k-1) + c(m-k, k) for 1 <= k <= m,

    with c(m, k) constant in k beyond k = m.  Entries are Python
    integers, so nothing overflows.  Instances are immutable once
    built and safe to share.
    """

    def __init__(self, max_n):
        max_n = int(max_n)
        if max_n < 0:
            raise ValueError("max_n must be nonnegative")
        self.max_n = max_n
        table = [[0] * (max_n + 1) for _ in range(max_n + 1)]
        table[0] = [1] * (max_n + 1)
        for m in range(1, max_n + 1):
            row = table[m]
            for k in range(1, max_n + 1):
                row[k] = row[k - 1] + (table[m - k][k] if k <= m else 0)
        self._table = table

    def count_restricted(self, m, k):
        """c(m, k): partitions of m with largest part at most k."""
        if not (0 <= m <= self.max_n and 0 <= k <= self.max_n):
            raise ValueError(
                f"(m={m}, k={k}) outside table range 0..{self.max_n}"
            )
        return self._table[m][k]

    def count(self, n):
        """pi(n), the number of partitions of n."""
        if not 0 <= n <= self.max_n:
            raise ValueError(f"n={n} outside table range 0..{self.max_n}")
        return self._table[n][n]


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


def _part_tuples(n):
    # reverse-lexicographic enumeration, in-place successor stepping
    if n == 0:
        yield ()
        return
    parts = [n]
    while True:
        yield tuple(parts)
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        rem = len(parts) - i  # trailing ones plus the freed unit
        new = parts[i] - 1
        del parts[i + 1:]
        parts[i] = new
        while rem > new:
            parts.append(new)
            rem -= new
        if rem:
            parts.append(rem)


def enumerate_partitions(n):
    """Yield every partition of n once, in reverse-lexicographic order.

    The stream starts at (n) and ends at (1,...,1); its length is
    pi(n).  n = 0 yields exactly the empty partition.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    for parts in _part_tuples(n):
        yield Partition(parts)


def unrank(table, n, idx):
    """The idx-th partition of n in enumeration order (0-based).

    Walks down the table by first-part blocks: partitions of n whose
    first part is exactly j occupy a block of size c(n-j, j).
    """
    total = table.count(n)
    if not 0 <= idx < total:
        raise ValueError(f"index {idx} out of range for pi({n}) = {total}")
    parts = []
    m, bound = n, n
    while m:
        for j in range(min(m, bound), 0, -1):
            block = table.count_restricted(m - j, j)
            if idx < block:
                parts.append(j)
                m -= j
                bound = j
                break
            idx -= block
    return Partition(parts)


def rank(table, lam):
    """Position of ``lam`` in the enumeration order of its weight.

    Inverse of :func:`unrank`.
    """
    parts = _parts_of(lam)
    n = sum(parts)
    if n > table.max_n:
        raise ValueError(f"weight {n} outside table range 0..{table.max_n}")
    idx = 0
    m, bound = n, n
    for p in parts:
        for j in range(min(m, bound), p, -1):
            idx += table.count_restricted(m - j, j)
        m -= p
        bound = p
    return idx


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
    restricted = np.array(table._table, dtype=np.int64)

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
        level[:, :, B] = restricted[B, : A + 1, None]
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
