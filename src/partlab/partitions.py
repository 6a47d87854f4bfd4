"""Exact combinatorial predicates on integer partitions.

A partition is a weakly decreasing sequence of positive integers; its
weight is the sum of its parts.  :class:`PartitionBatch` holds many
partitions of one weight as sorted (row, part, multiplicity) triples,
and its array kernels are the package's one implementation of the
Erdos-Gallai graphicality test and of the dominance partial order;
``is_graphical_eg`` and ``dominates`` are their one-row calls.
Havel-Hakimi stays a scalar loop: it is the independent graphicality
oracle the kernel is checked against.  The scalar Erdos-Gallai and
dominance loops, conjugation, the Durfee square size, the Gale-Ryser
criterion and Kostka numbers live in tests/oracles.py, as the
references for the kernels.

Every public function accepts either a :class:`Partition`, used as it
is, or a bare sequence of parts, which goes through ``Partition(...)``
first: its parts are sorted, and non-positive or non-integer parts are
refused.  All results are exact.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "Partition",
    "PartitionBatch",
    "dominates",
    "is_graphical_eg",
    "is_graphical_hh",
]


class Partition:
    """An integer partition: weakly decreasing positive integer parts.

    Parts are canonicalized (sorted in non-increasing order) at
    construction, so two partitions built from the same multiset of
    parts compare equal and hash alike.  The empty partition is valid
    and has weight 0.
    """

    __slots__ = ("_parts", "_weight")

    def __init__(self, parts=()):
        canon = []
        for p in parts:
            q = int(p)
            if q != p or q < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")
            canon.append(q)
        canon.sort(reverse=True)
        self._parts = tuple(canon)
        self._weight = sum(canon)

    @property
    def parts(self):
        return self._parts

    @property
    def weight(self):
        return self._weight

    @classmethod
    def from_sorted(cls, parts):
        """Trusted constructor: ``parts`` must already be positive ints
        in non-increasing order, as a sampler produces them; nothing is
        checked."""
        lam = cls.__new__(cls)
        lam._parts = tuple(parts)
        lam._weight = sum(lam._parts)
        return lam

    def to_text(self):
        """Comma-separated parts; the empty partition renders as ''."""
        return ",".join(str(p) for p in self._parts)

    def __len__(self):
        return len(self._parts)

    def __iter__(self):
        return iter(self._parts)

    def __getitem__(self, i):
        return self._parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self._parts == other._parts
        return NotImplemented

    def __hash__(self):
        return hash(self._parts)

    def __repr__(self):
        return f"Partition({self._parts!r})"


def _as_partition(lam):
    """``lam`` itself if it is a Partition, else ``Partition(lam)``."""
    return lam if isinstance(lam, Partition) else Partition(lam)


class PartitionBatch:
    """Partitions of one weight n in sparse multiplicity form.

    Row r of ``rows`` holds part ``part[t]`` with multiplicity
    ``mult[t]`` >= 1 for every t with ``row[t]`` = r: one triple per
    distinct part.  The constructor does not sort or check: the triples
    must come sorted by row and then by increasing part, and every row
    must weigh n.  Indexing with an int, or iterating, builds
    :class:`Partition` objects; indexing with a slice selects rows.
    """

    def __init__(self, n, rows, row, part, mult):
        self.n = n
        self.rows = rows
        self.row = np.asarray(row, dtype=np.int64)
        self.part = np.asarray(part, dtype=np.int64)
        self.mult = np.asarray(mult, dtype=np.int64)

    @classmethod
    def from_parts(cls, n, rows, row, part):
        """Pack ``rows`` partitions of weight n, given as one (row, part)
        pair per part, into multiplicity form."""
        key, mult = np.unique(row * (n + 1) + part, return_counts=True)
        return cls(n, rows, key // (n + 1), key % (n + 1), mult)

    @classmethod
    def from_partitions(cls, n, partitions):
        """Pack partitions of weight n into multiplicity form."""
        lengths = [len(lam) for lam in partitions]
        row = np.repeat(np.arange(len(partitions)), lengths)
        part = np.fromiter(itertools.chain.from_iterable(partitions),
                           dtype=np.int64, count=sum(lengths))
        return cls.from_parts(n, len(partitions), row, part)

    def __len__(self):
        return self.rows

    def _partition(self, lo, hi):
        return Partition.from_sorted(
            np.repeat(self.part[lo:hi][::-1], self.mult[lo:hi][::-1]).tolist())

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._select(np.arange(len(self))[key])
        r = range(len(self))[key]
        return self._partition(*np.searchsorted(self.row, [r, r + 1]))

    def __iter__(self):
        bounds = np.searchsorted(self.row, np.arange(len(self) + 1))
        return (self._partition(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]))

    def __eq__(self, other):
        if not isinstance(other, PartitionBatch):
            return NotImplemented
        return (self.n, self.rows) == (other.n, other.rows) and all(
            np.array_equal(getattr(self, k), getattr(other, k))
            for k in ("row", "part", "mult"))

    def _select(self, rows):
        """The batch of rows ``rows``, in that order."""
        count = np.bincount(self.row, minlength=len(self))
        size = count[rows]
        lo = (np.cumsum(count) - count)[rows]
        # triple j of the output is triple j - start + lo of its source row
        start = np.cumsum(size) - size
        take = np.arange(size.sum()) + np.repeat(lo - start, size)
        return PartitionBatch(self.n, len(rows), np.repeat(np.arange(len(rows)), size),
                              self.part[take], self.mult[take])

    def _at_least(self, key, weight, count):
        """Per row, the sum of ``weight`` over the triples whose ``key``
        is >= i, for i = 1..count."""
        width = count + 1
        hist = np.bincount(self.row * width + np.minimum(key, count), weights=weight,
                           minlength=len(self) * width).reshape(-1, width)
        return np.cumsum(hist[:, ::-1], axis=1)[:, -2::-1].astype(np.int64)

    def _profile(self, count):
        """conj_i, the number of parts >= i, and lam_i, the i-th largest
        part or 0 past the last, of every row for i = 1..count."""
        length = np.bincount(self.row, self.mult, len(self)).astype(np.int64)
        # by conjugation lam_i sums, over the parts p with at least i parts
        # >= p, the gap from p down to the next smaller part of its row
        above = np.cumsum(length)[self.row] - np.cumsum(self.mult) + self.mult
        gap = np.where(np.diff(self.row, prepend=-1) != 0, self.part,
                       np.diff(self.part, prepend=0))
        return (self._at_least(self.part, self.mult, count),
                self._at_least(above, gap, count))

    def leading_parts(self, count):
        """Matrix of the ``count`` largest parts of each row, padded
        with zeros."""
        return self._profile(count)[1]

    def graphical(self):
        """Erdos-Gallai test of every row, in conjugate form.

        A partition is the degree sequence of a simple graph iff its
        weight is even and, for every i up to its Durfee square size,
        sum_{j<=i} conj_j >= sum_{j<=i} lam_j + i.  The plain inequality
        does not rule out odd weight (e.g. (1,1,1) satisfies it), so the
        even-weight guard comes first.  The empty partition counts as
        graphical: it is the degree sequence of the empty graph.  The
        Durfee size is at most floor(sqrt(n)), so no larger i is tested.
        """
        if self.n % 2:
            return np.zeros(len(self), dtype=bool)
        top = math.isqrt(self.n)
        i = np.arange(1, top + 1)
        conj, lam = self._profile(top)
        slack = np.cumsum(conj - lam, axis=1) - i
        durfee = (lam >= i).sum(axis=1)
        return ((slack >= 0) | (i > durfee[:, None])).all(axis=1)

    def dominated_by(self, other):
        """Row-wise dominance self[r] <= other[r]: every prefix sum of
        self[r] is at most the matching prefix sum of other[r], the
        shorter part list padded with zeros.

        lam <= mu iff D_k = E_k(lam) - E_k(mu) <= 0 for every k >= 0,
        where E_k counts the cells right of column k.  D_0 = 0, and D_k
        is linear in k between part sizes of either row, so those sizes
        suffice.
        """
        if other.n != self.n or len(other) != len(self):
            raise ValueError("dominance needs two batches of one weight and size")
        row, part, diff = (np.concatenate(column) for column in zip(
            (self.row, self.part, self.mult), (other.row, other.part, -other.mult)))
        # a stable sort merges the two sorted runs in one pass
        order = np.argsort(row * (self.n + 1) + part, kind="stable")
        row, part, diff = row[order], part[order], diff[order]
        # D_k at k = part[t] sums (p - k) diff_p from t to the row's end;
        # the p diff_p of a row sum to n - n = 0, so only the diff_p sums
        # need the later rows taken off
        mass = np.cumsum((part * diff)[::-1])[::-1]
        size = np.append(np.cumsum(diff[::-1])[::-1], 0)
        count = np.bincount(row, minlength=len(self))
        end = np.repeat(np.cumsum(count), count)
        excess = mass - part * (size[:-1] - size[end])
        return np.bincount(row[excess > 0], minlength=len(self)) == 0


def dominates(alpha, beta):
    """Test alpha <= beta in the dominance order: the one-row call of
    :meth:`PartitionBatch.dominated_by`.  Only defined when the weights
    agree.
    """
    a, b = _as_partition(alpha), _as_partition(beta)
    if a.weight != b.weight:
        raise ValueError(
            "dominance undefined across different n: "
            f"weights {a.weight} and {b.weight}"
        )
    one = PartitionBatch.from_partitions
    return bool(one(a.weight, [a]).dominated_by(one(b.weight, [b]))[0])


def is_graphical_eg(lam):
    """Erdos-Gallai graphicality test: the one-row call of
    :meth:`PartitionBatch.graphical`."""
    lam = _as_partition(lam)
    return bool(PartitionBatch.from_partitions(lam.weight, [lam]).graphical()[0])


def is_graphical_hh(lam):
    """Havel-Hakimi reduction; an independent graphicality oracle.

    Repeatedly remove the largest remaining degree d and decrement the
    next d largest degrees.  Graphical iff the process reaches all
    zeros without running out of degrees or going negative.
    """
    degs = list(_as_partition(lam).parts)
    while degs and degs[0] > 0:
        d = degs.pop(0)
        if d > len(degs):
            return False
        for i in range(d):
            degs[i] -= 1
            if degs[i] < 0:
                return False
        degs.sort(reverse=True)
    return True
