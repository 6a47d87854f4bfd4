"""Reference values for the benchmark checks, computed without partlab.

Everything here is written from the definitions and shares no code with
``partlab``: its own partition enumeration, Havel-Hakimi reduction (with
the original Erdos-Gallai inequalities as a second opinion), pairwise
prefix-sum dominance, and Euler's pentagonal recurrence for pi(n).

Regenerate the committed table with

    python3 perfbench/reference.py            # rewrites perfbench/reference.json
    python3 perfbench/reference.py --check    # recomputes, compares, writes nothing

The benchmark only reads ``reference.json``; it never compares against
saved partlab output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

#: Weights whose graphical-partition counts the exact-oracles and
#: sampling-mc checks need.
GRAPHICAL_WEIGHTS = tuple(range(0, 47))
#: Weights whose one-sided comparable-pair counts the checks need.
COMPARABLE_WEIGHTS = tuple(range(0, 27))
#: Weights at which the exact multiplicity moments of m_k are tabulated.
MULTIPLICITY_WEIGHTS = (1000, 10000)
MULTIPLICITY_PARTS = (1,)


def partitions_of(n, largest=None):
    """Yield partitions of n (parts <= largest) as tuples, first part
    descending; this is reverse-lexicographic order."""
    if largest is None or largest > n:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(largest, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def havel_hakimi(degrees):
    """True iff the degree sequence is realised by a simple graph."""
    seq = sorted(degrees, reverse=True)
    while seq:
        d = seq[0]
        seq = seq[1:]
        if d == 0:
            return True
        if d > len(seq):
            return False
        seq = [x - 1 for x in seq[:d]] + seq[d:]
        if seq and min(seq[:d]) < 0:
            return False
        seq.sort(reverse=True)
    return True


def erdos_gallai_original(degrees):
    """The original inequalities: even sum and, for every k,
    sum_{i<=k} d_i <= k(k-1) + sum_{i>k} min(d_i, k)."""
    d = sorted(degrees, reverse=True)
    if sum(d) % 2:
        return False
    left = 0
    for k in range(1, len(d) + 1):
        left += d[k - 1]
        right = k * (k - 1) + sum(min(x, k) for x in d[k:])
        if left > right:
            return False
    return True


def prefix_sums(parts, width):
    out = []
    s = 0
    for i in range(width):
        if i < len(parts):
            s += parts[i]
        out.append(s)
    return out


def one_sided_comparable(n):
    """Ordered pairs (lam, mu) of partitions of n with lam <= mu in
    dominance (every prefix sum of lam at most mu's), ties included."""
    parts = list(partitions_of(n))
    pref = [prefix_sums(p, n) for p in parts]
    count = 0
    for a in pref:
        for b in pref:
            for x, y in zip(a, b):
                if x > y:
                    break
            else:
                count += 1
    return count


def pentagonal_pi(max_n):
    """pi(0..max_n) from Euler's pentagonal-number theorem."""
    pi = [1] + [0] * max_n
    for n in range(1, max_n + 1):
        total = 0
        k = 1
        while True:
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g <= n:
                    total += pi[n - g] if k % 2 else -pi[n - g]
            if k * (3 * k - 1) // 2 > n:
                break
            k += 1
        pi[n] = total
    return pi


def multiplicity_moments(pi, n, k):
    """(E[m_k], Var[m_k]) for the multiplicity m_k of part k in a uniform
    partition of n.  Removing j copies of k maps the partitions of n with
    m_k >= j one-to-one onto those of n - jk, so
    P(m_k >= j) = pi(n - jk)/pi(n), E[m_k] = sum_j P(m_k >= j) and
    E[m_k^2] = sum_j (2j - 1) P(m_k >= j)."""
    tail = [Fraction(pi[n - j * k], pi[n]) for j in range(1, n // k + 1)]
    mean = sum(tail)
    second = sum((2 * j - 1) * t for j, t in enumerate(tail, start=1))
    return mean, second - mean * mean


def compute():
    pi = pentagonal_pi(max(MULTIPLICITY_WEIGHTS))
    graphical = {}
    for n in GRAPHICAL_WEIGHTS:
        total = hits = 0
        for lam in partitions_of(n):
            total += 1
            ok = havel_hakimi(lam)
            if ok != erdos_gallai_original(lam):
                raise RuntimeError(f"reference graphicality tests disagree on {lam}")
            hits += ok
        if total != pi[n]:
            raise RuntimeError(f"enumeration gives {total} partitions of {n}, "
                               f"pentagonal recurrence {pi[n]}")
        graphical[str(n)] = hits
    comparable = {str(n): one_sided_comparable(n) for n in COMPARABLE_WEIGHTS}
    multiplicity = {}
    for n in MULTIPLICITY_WEIGHTS:
        multiplicity[str(n)] = {}
        for k in MULTIPLICITY_PARTS:
            mean, var = multiplicity_moments(pi, n, k)
            multiplicity[str(n)][str(k)] = {"mean": float(mean), "var": float(var)}
    return {
        "pi": {str(n): pi[n] for n in sorted(set(GRAPHICAL_WEIGHTS)
                                             | set(COMPARABLE_WEIGHTS))},
        "graphical": graphical,
        "comparable_one_sided": comparable,
        "multiplicity": multiplicity,
    }


def load():
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="recompute and compare with reference.json")
    args = ap.parse_args(argv)
    data = compute()
    if args.check:
        same = data == load()
        print("reference.json matches" if same else "reference.json differs")
        return 0 if same else 1
    REFERENCE_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"wrote {REFERENCE_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
