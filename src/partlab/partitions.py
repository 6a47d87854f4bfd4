"""Exact combinatorial predicates on integer partitions.

A partition is a weakly decreasing sequence of positive integers; its
weight is the sum of its parts.  This module holds the structural
machinery the rest of the package leans on: conjugation, Durfee square
size, the dominance partial order and two independent graphicality
tests (Erdos-Gallai and Havel-Hakimi).  The Gale-Ryser criterion and
Kostka numbers, which the tests use as oracles for dominance, live in
tests/oracles.py.

Every public function accepts either a :class:`Partition` or a bare
sequence of parts already sorted in non-increasing order.  All results
are exact; nothing here uses floating point.
"""

from __future__ import annotations

__all__ = [
    "Partition",
    "conjugate",
    "dominates",
    "durfee",
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


def _parts_of(lam):
    """Tuple of parts from a Partition or a bare part sequence."""
    p = getattr(lam, "parts", None)
    return p if p is not None else tuple(lam)


def _conjugate_parts(parts):
    # column count lookup via part-size tallies and a suffix sum
    if not parts:
        return ()
    width = parts[0]
    tally = [0] * (width + 1)
    for p in parts:
        tally[p] += 1
    out = [0] * width
    running = 0
    for size in range(width, 0, -1):
        running += tally[size]
        out[size - 1] = running
    return tuple(out)


def conjugate(lam):
    """Transpose the Young diagram: entry i is the count of parts >= i+1.

    Involutive and weight preserving.
    """
    return Partition(_conjugate_parts(_parts_of(lam)))


def durfee(lam):
    """Side length of the largest square inside the Young diagram.

    Equals max{k : parts[k-1] >= k}, and 0 for the empty partition.
    """
    parts = _parts_of(lam)
    d = 0
    while d < len(parts) and parts[d] >= d + 1:
        d += 1
    return d


def dominates(alpha, beta):
    """Test alpha <= beta in the dominance order.

    True iff every prefix sum of ``alpha`` is at most the matching
    prefix sum of ``beta``, the shorter part list padded with zeros.
    Only defined when the weights agree.
    """
    a = _parts_of(alpha)
    b = _parts_of(beta)
    if sum(a) != sum(b):
        raise ValueError(
            "dominance undefined across different n: "
            f"weights {sum(a)} and {sum(b)}"
        )
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        if i < len(a):
            sa += a[i]
        if i < len(b):
            sb += b[i]
        if sa > sb:
            return False
    return True


def is_graphical_eg(lam):
    """Erdos-Gallai graphicality test in conjugate form.

    A partition is the degree sequence of a simple graph iff its
    weight is even and, for every i up to the Durfee square size,
    sum_{j<=i} conj_j >= sum_{j<=i} parts_j + i.  The plain inequality
    does not rule out odd weight (e.g. (1,1,1) satisfies it), so the
    even-weight guard is applied first.  The empty partition counts as
    graphical: it is the degree sequence of the empty graph.
    """
    parts = _parts_of(lam)
    if sum(parts) % 2:
        return False
    if not parts:
        return True
    conj = _conjugate_parts(parts)
    lhs = rhs = 0
    for i in range(len(parts)):
        if parts[i] < i + 1:
            break
        lhs += conj[i]
        rhs += parts[i] + 1
        if lhs < rhs:
            return False
    return True


def is_graphical_hh(lam):
    """Havel-Hakimi reduction; an independent graphicality oracle.

    Repeatedly remove the largest remaining degree d and decrement the
    next d largest degrees.  Graphical iff the process reaches all
    zeros without running out of degrees or going negative.
    """
    degs = sorted(_parts_of(lam), reverse=True)
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
