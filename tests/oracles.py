"""Reference implementations the tests check partlab's kernels against.

Each function computes its answer directly, by the plainest method
(one walk path or one partition at a time, or a search), and shares no
code with the kernel it checks:

* the surrogate walk events on a single gen_walk path, and the
  per-path proof-step diagnostics (burn-in log-sum bound, drift gap,
  early minimum drop), against the block kernel of partlab.walks;
* the scalar Erdos-Gallai and dominance loops, conjugation and the
  Durfee square size, one partition at a time, against the batch
  kernels PartitionBatch.graphical and dominated_by of
  partlab.partitions;
* the Gale-Ryser criterion and Kostka numbers by tableau enumeration,
  against the dominance order;
* the one-draw exact sampler, against the batch unranking of
  sampling.sample_uniform_batch, and the count of words a stream has
  drawn, against the estimators' draws;
* the reverse-lexicographic enumeration of the partitions of n, the
  p(n) oracle for n <= 40, against counting's unranking and DPs;
* the memoised Durfee-square recursion for the graphical count, one
  transition at a time, against the frontier DP of
  counting.graphical_count;
* a nested ternary search for the maximin exponents, against the
  closed form of gaussian.optimize_exponents.

tests/test_walks.py::test_oracles_do_not_use_the_block_kernel keeps the
walk events off the block kernel, so that the replay tests never
compare the kernel with itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from partlab import walks
from partlab.counting import unrank
from partlab.partitions import Partition
from partlab.stats import kahan_cumsum
from partlab.walks import _require_delta, _row_values, floor_power, headline_threshold

# ---------------------------------------------------------------- walks


@dataclass(frozen=True)
class SurrogateRowsCols:
    """Surrogate row/column lengths for the first floor(n**gamma) indices."""

    n: int
    gamma: float
    rows: np.ndarray
    cols: np.ndarray


def _require_length(n, gamma, walk):
    if not 0.0 < gamma < 0.25:
        raise ValueError("gamma must lie in (0, 1/4)")
    length = floor_power(n, gamma)
    if walk.length < length:
        raise ValueError(
            f"walk length {walk.length} shorter than floor(n**gamma) = {length}"
        )
    return length


def surrogate_rows_cols(n, gamma, walk):
    """Row values from S and column values from S', as signed integers.

    rows[i] = ceil((sqrt(n)/c) log((sqrt(n)/c)/S_{i+1})) for the first
    floor(n**gamma) indices; cols likewise from S'.  Values are not
    clamped at zero.
    """
    length = _require_length(n, gamma, walk)
    return SurrogateRowsCols(
        n=n,
        gamma=gamma,
        rows=_row_values(n, walk.s[:length]),
        cols=_row_values(n, walk.s_prime[:length]),
    )


def event_eg_surrogate(n, gamma, walk):
    """Ceiled-sum graphicality inequality on the surrogate diagram.

    True iff for every i <= floor(n**gamma),
    sum_{j<=i} rows_j >= sum_{j<=i} cols_j + i, in exact integer
    arithmetic.
    """
    rc = surrogate_rows_cols(n, gamma, walk)
    lhs = np.cumsum(rc.rows)
    rhs = np.cumsum(rc.cols) + np.arange(1, len(rc.cols) + 1)
    return bool(np.all(lhs >= rhs))


def event_log(n, gamma, walk, threshold=-1.0):
    """Prefix log-ratio sums staying at or above ``threshold``.

    True iff sum_{j<=i} log(S'_j/S_j) >= threshold for every
    i <= floor(n**gamma).  Each term is computed as
    log(S'_j) - log(S_j); prefixes accumulate with compensated
    summation so hundreds of terms cannot drift.
    """
    length = _require_length(n, gamma, walk)
    diffs = np.log(walk.s_prime[:length]) - np.log(walk.s[:length])
    return bool(np.all(kahan_cumsum(diffs) >= threshold))


def min_weighted_stat(walk, length):
    """min over 1 <= l <= length of sum_{j<=l} (R'_j - R_j)/j."""
    if not 1 <= length <= walk.length:
        raise ValueError(f"length must lie in [1, {walk.length}]")
    j = np.arange(1, length + 1, dtype=np.float64)
    terms = (walk.r_prime[:length] - walk.r[:length]) / j
    return float(kahan_cumsum(terms).min())


def _burnin_count(n, delta, walk):
    """ceil(log^3 n), once delta is checked and ``walk`` is that long."""
    _require_delta(delta)
    count = walks.log_cube(n)
    if walk.length < count:
        raise ValueError(f"walk length {walk.length} < ceil(log^3 n) = {count}")
    return count


def log_prefix_bound_check(n, delta, walk):
    """Deterministic per-path check of the burn-in log-sum bound.

    On any path where S'_j/S_j < 1 + n^(delta/2)/sqrt(j) for every
    j <= ceil(log^3 n), the prefix sum of log(S'_j/S_j) over that
    range must stay at or below 2 n^(delta/2) ceil(log^(3/2) n),
    because log(1+t) <= t and sum 1/sqrt(j) <= 2 sqrt(count).  Returns
    (applicable, holds, value, cap); ``holds`` is None when the ratio
    condition fails, since then the bound promises nothing.
    """
    count = _burnin_count(n, delta, walk)
    jj = np.arange(1, count + 1, dtype=np.float64)
    ratios = walk.s_prime[:count] / walk.s[:count]
    applicable = bool(np.all(ratios < 1.0 + n ** (delta / 2.0) / np.sqrt(jj)))
    value = float(
        kahan_cumsum(np.log(walk.s_prime[:count]) - np.log(walk.s[:count]))[-1]
    )
    cap = -headline_threshold(n, delta, 2.0)
    holds = (value <= cap) if applicable else None
    return applicable, holds, value, cap


def event_log_drift_gap(n, gamma, walk):
    """Per-path diagnostic: beyond the burn-in range, do the prefix
    log-ratio sums ever exceed the centered-drift sums by more than
    log^3 n?

    The event is a union over l in (ceil(log^3 n), floor(n**gamma)] of

        sum_{j=burnin+1..l} log(S'_j/S_j)
            > sum_{j=burnin+1..l} (R'_j - R_j)/j + log^3 n.

    When floor(n**gamma) <= ceil(log^3 n) the index range is empty and
    the event is False by convention; that is the usual situation at
    desk-scale n, where this stays a large-n diagnostic.
    """
    length = _require_length(n, gamma, walk)
    burnin = walks.log_cube(n)
    if length <= burnin:
        return False
    lo, hi = burnin, length
    logs = np.log(walk.s_prime[lo:hi]) - np.log(walk.s[lo:hi])
    jj = np.arange(lo + 1, hi + 1, dtype=np.float64)
    drift = (walk.r_prime[lo:hi] - walk.r[lo:hi]) / jj
    gap = kahan_cumsum(logs) - kahan_cumsum(drift)
    return bool(np.any(gap > math.log(n) ** 3))


def log_drift_gap_bound(n):
    """Asymptotic envelope 4 n^(1/4) exp(-log^2(n)/6) for the drift-gap event."""
    return 4.0 * n**0.25 * math.exp(-math.log(n) ** 2 / 6.0)


def event_early_min_drop(n, delta, walk):
    """Per-path diagnostic: does the weighted drift min over the burn-in
    range drop to -n^(delta/2) ceil(log^(3/2) n) or below?

    This event's probability is asymptotically O(n^(-delta/2)); no
    finite-n target exists, so it is reported as a raw diagnostic.
    """
    count = _burnin_count(n, delta, walk)
    return min_weighted_stat(walk, count) <= headline_threshold(n, delta, 1.0)


# ----------------------------------------------------------- partitions

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


#: Weight cap for `kostka`; tableau enumeration is exponential.
KOSTKA_WEIGHT_CAP = 20


def gale_ryser(alpha, beta):
    """Bipartite realizability of the degree-sequence pair (alpha, beta).

    A bipartite simple graph with these side degree sequences exists
    iff alpha <= conjugate(beta) in dominance; weights must agree.
    """
    a = _parts_of(alpha)
    b = _parts_of(beta)
    if sum(a) != sum(b):
        raise ValueError(
            f"bipartite degree sums must agree, got {sum(a)} and {sum(b)}"
        )
    return dominates(a, _conjugate_parts(b))


def kostka(lam, mu):
    """Number of semistandard Young tableaux of shape lam and content mu.

    Counts fillings of the diagram of ``lam`` that use mu_i copies of
    the letter i+1, weakly increasing along rows and strictly
    increasing down columns.  Exhaustive depth-first enumeration with
    column pruning, so the weight is capped at KOSTKA_WEIGHT_CAP (20).

    Returns an exact (arbitrary precision) count.
    """
    shape = _parts_of(lam)
    content = _parts_of(mu)
    w = sum(shape)
    if w != sum(content):
        raise ValueError(
            f"kostka undefined: shape weight {w} != content weight {sum(content)}"
        )
    if w > KOSTKA_WEIGHT_CAP:
        raise ValueError(f"weight {w} above enumeration cap {KOSTKA_WEIGHT_CAP}")
    if not shape:
        return 1

    ncolors = len(content)
    colheight = _conjugate_parts(shape)
    remaining = list(content)
    grid = [[0] * r for r in shape]
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]

    def fill(idx):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        lo = grid[r][c - 1] if c else 1
        if r and grid[r - 1][c] + 1 > lo:
            lo = grid[r - 1][c] + 1
        # cells below (r,c) in its column need strictly larger letters
        hi = ncolors - (colheight[c] - r - 1)
        found = 0
        for v in range(lo, hi + 1):
            if remaining[v - 1]:
                remaining[v - 1] -= 1
                grid[r][c] = v
                found += fill(idx + 1)
                remaining[v - 1] += 1
        return found

    return fill(0)


# ------------------------------------------------------------- sampling


def sample_exact_uniform(table, n, rng):
    """Exactly uniform partition of n, by unranking a uniform index; the
    one-draw case of method 'exact' in ``sample_uniform_batch``."""
    return unrank(table, n, rng.integer_below(table.count(n)))


#: The 64-bit multiplier of numpy's PCG64DXSM state step,
#: state <- state * M + inc (mod 2**128).
_PCG64DXSM_MULTIPLIER = 0xDA942042E4DD58B5


def words_drawn(rng):
    """64-bit words drawn from ``rng`` so far, read off its PCG64DXSM state.

    Generator.random takes one word per double, so after k uniforms (and
    no other draws) k words are gone.  Every word steps the LCG state
    once, so the words drawn are the LCG distance from the state of a
    fresh stream with the same key to the current one.  The distance is
    found a bit at a time (O'Neill's pcg ``distance``): bit i of k is set
    when the two states still differ in bit i after the lower bits'
    steps, and the step is squared to a 2**(i+1)-step jump as i rises.
    A half word kept for the next uint32 counts as drawn.
    """
    mask = (1 << 128) - 1
    state = rng._gen.bit_generator.state["state"]
    target, plus = state["state"], state["inc"]
    current = type(rng)(rng.seed, rng.stream_id)._gen.bit_generator.state["state"]["state"]
    mult, bit, distance = _PCG64DXSM_MULTIPLIER, 1, 0
    while current != target:
        if (current ^ target) & bit:
            current = (current * mult + plus) & mask
            distance |= bit
        plus = (mult + 1) * plus & mask
        mult = mult * mult & mask
        bit <<= 1
    return distance


# ---------------------------------------------------------- enumeration


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


def durfee_graphical_hits(n):
    """Graphical partitions of n, by one memoised recursion per Durfee
    size d; the reference for counting.graphical_count's frontier DP."""
    if n % 2:
        return 0
    hits = 1 if n == 0 else 0
    d = 1
    while d * d <= n:
        hits += _durfee_graphical_count(d, n - d * d)
        d += 1
    return hits


# ------------------------------------------------------------- exponents

#: Ternary-search steps per level in search_exponents: (2/3)^120 ~ 1e-21.
SEARCH_ITERS = 120


def search_exponents(beta):
    # nested ternary search of max_{delta,gamma} min(...) over
    # 0 < delta < gamma < 1/4; the objective is jointly concave
    def value(delta, gamma):
        return min(0.5 - 2.0 * gamma, delta / 2.0, beta * (gamma - delta))

    def best_gamma(delta):
        a, b = delta, 0.25
        for _ in range(SEARCH_ITERS):
            m1 = a + (b - a) / 3.0
            m2 = b - (b - a) / 3.0
            if value(delta, m1) < value(delta, m2):
                a = m1
            else:
                b = m2
        g = 0.5 * (a + b)
        return g, value(delta, g)

    a, b = 0.0, 0.25
    for _ in range(SEARCH_ITERS):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if best_gamma(m1)[1] < best_gamma(m2)[1]:
            a = m1
        else:
            b = m2
    d = 0.5 * (a + b)
    return d, best_gamma(d)[0]
