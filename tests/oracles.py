"""Reference implementations the tests check partlab's kernels against.

Each function computes its answer directly, on one walk path or one
partition, and shares no code with the kernel it checks:

* the surrogate walk events on a single gen_walk path, and the
  per-path proof-step diagnostics (burn-in log-sum bound, drift gap,
  early minimum drop), against the block kernel of partlab.walks;
* the Gale-Ryser criterion and Kostka numbers by tableau enumeration,
  against the dominance order of partlab.partitions;
* the one-draw exact sampler, against the batch unranking of
  sampling.sample_uniform_batch.

tests/test_walks.py::test_oracles_do_not_use_the_block_kernel keeps the
walk events off the block kernel, so that the replay tests never
compare the kernel with itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from partlab import walks
from partlab.counting import unrank
from partlab.partitions import _conjugate_parts, _parts_of, dominates
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
