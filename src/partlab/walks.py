"""The paired exponential surrogate walk and its event estimators.

Two independent sequences of mean-1 exponentials X, X' drive prefix
sums S, S' and centered walks R_j = S_j - j, R'_j = S'_j - j.  The map

    ceil((sqrt(n)/c) * log((sqrt(n)/c) / S_j)),   c = pi/sqrt(6),

turns prefix sums into surrogate row (from S) and column (from S')
lengths of a size-n random partition's diagram.  The estimators here
measure the probability of the inequality events tying the surrogate
to graphicality and the exceedance frequencies of the ratios
S'_j/S_j over the burn-in range.  Per-path diagnostics check the
burn-in log-sum bound, the drift gap beyond the burn-in and the early
minimum drop on single gen_walk paths.

Every estimator here (estimate_event, check_containment,
ratio_tail_diagnostic) draws its paths path-major and evaluates them
step-major.  Each path takes 2m consecutive exponentials from the
stream, X_1..X_m and then X'_1..X'_m, the order gen_walk uses.  Memory
is bounded by drawing a block of paths at a time, and a block is the
same variates in the same order as its paths drawn one by one, so these
estimates depend on the seed and stream only, not on the block size.
A block is evaluated as (steps, paths) arrays whose column p is path p:
each step is one vector operation across the block's paths, and each
per-path reduction is an elementwise minimum or sum across steps, with
the additions of the per-path functions in their order.
(RandomStream.uniform_open redraws an exact 0.0 at the end of each
rng.exponential call, a sub-draw of at most _SUBDRAW_ELEMENTS variates
within a block; that has probability 2^-53 per variate.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .stats import (
    C_SCALE,
    MC_BLOCK_ELEMENTS,
    Z95,
    kahan_cumsum,
    kahan_cumsum_rows,
    make_estimate,
)

__all__ = [
    "ContainmentReport",
    "RATIO_TAIL_MAX_INDICES",
    "RatioTailDiagnostic",
    "SurrogateRowsCols",
    "WALK_MAX_LENGTH",
    "WalkPath",
    "check_containment",
    "estimate_event",
    "event_early_min_drop",
    "event_eg_surrogate",
    "event_log",
    "event_log_drift_gap",
    "floor_power",
    "gen_walk",
    "headline_threshold",
    "log_cube",
    "log_drift_gap_bound",
    "log_prefix_bound_check",
    "min_weighted_stat",
    "ratio_tail_bound",
    "ratio_tail_bound_terms",
    "ratio_tail_diagnostic",
    "ratio_tail_exact",
    "ratio_tail_exact_terms",
    "surrogate_rows_cols",
]

#: Most paths drawn in one block by the estimators.
_CHUNK = 4096
#: Most variates in one rng.exponential call filling a step-major block:
#: 1 MB, which a 2 MB L2 cache holds while the call is transposed into
#: the block; at 758 steps that is 86 paths, whose 86-long contiguous
#: runs the transpose writes.
_SUBDRAW_ELEMENTS = 2**17
#: Most indices j <= ceil(log^3 n) the ratio-tail functions will hold in
#: memory: 8 MB per float64 array, against 782 indices at n = 10^4.
RATIO_TAIL_MAX_INDICES = 10**6
#: Longest path floor(n**gamma) the event estimators accept: 1.6 MB per
#: path pair, against 9 steps at n = 10^4 and 758 at n = 10^12.
WALK_MAX_LENGTH = 10**5
#: Above this, one more step moves log(floor(n**gamma)) by less than
#: floor_power's slack, so its boundary correction is not applied.
_FLOOR_POWER_EXACT = 10**9


@dataclass(frozen=True)
class WalkPath:
    """One realization of the paired exponential walk.

    Fields are aligned 1-based in spirit: index j of each array holds
    the values at time j+1.  r and r_prime are redundant with s and
    s_prime (r_j = s_j - j) and kept for direct use.
    """

    x: np.ndarray
    x_prime: np.ndarray
    s: np.ndarray
    s_prime: np.ndarray
    r: np.ndarray
    r_prime: np.ndarray

    @property
    def length(self):
        return len(self.x)


def gen_walk(m, rng):
    """Paired exponential walk of length m; draws X then X'."""
    if m < 1:
        raise ValueError("walk length must be >= 1")
    x = rng.exponential(m)
    xp = rng.exponential(m)
    s = np.cumsum(x)
    sp = np.cumsum(xp)
    j = np.arange(1, m + 1, dtype=np.float64)
    return WalkPath(x=x, x_prime=xp, s=s, s_prime=sp, r=s - j, r_prime=sp - j)


def floor_power(n, gamma):
    """floor(n**gamma) guarded against floating error at integer boundaries.

    Everything runs in log space, so an integer n of any size works.
    Comparisons use 1e-12 slack so that, e.g., floor((10**4)**0.25)
    comes out 10 even though the float power evaluates just below 10.
    Exact boundaries within the slack round up, which matches the
    mathematically exact value.  Results above 10^9 are the floor of
    the float exp(gamma log n), since the slack cannot resolve one step
    there.  Raises ValueError when n**gamma exceeds the float range.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    target = gamma * math.log(n)
    try:
        out = max(int(math.exp(target)), 1)
    except OverflowError:
        raise ValueError(
            f"n**gamma = exp({target:.6g}) is beyond the float range"
        ) from None
    if out > _FLOOR_POWER_EXACT:
        return out
    while math.log(out + 1) <= target + 1e-12:
        out += 1
    while out > 1 and math.log(out) > target + 1e-12:
        out -= 1
    return out


@dataclass(frozen=True)
class SurrogateRowsCols:
    """Surrogate row/column lengths for the first floor(n**gamma) indices."""

    n: int
    gamma: float
    rows: np.ndarray
    cols: np.ndarray


def _row_values(n, prefix_sums):
    # unclamped: values can go <= 0 on atypical paths and are kept as is
    scale = math.sqrt(n) / C_SCALE
    vals = np.ceil(scale * (math.log(scale) - np.log(prefix_sums)))
    return vals.astype(np.int64)


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


def headline_threshold(n, delta, multiplier=5.0):
    """-multiplier * n^(delta/2) * ceil(log^(3/2) n).

    The canonical multiplier is 5; it is exposed because it is a
    proof-shaped constant, not a tuned one.
    """
    return -multiplier * n ** (delta / 2.0) * math.ceil(math.log(n) ** 1.5)


def log_cube(n):
    """ceil(log^3 n), the burn-in index range of the ratio diagnostics."""
    return math.ceil(math.log(n) ** 3)


def _require_delta(delta):
    """Raise ValueError unless delta is finite and positive."""
    if not 0 < delta < math.inf:
        raise ValueError("delta must be finite and positive")


def _burnin_count(n, delta, walk):
    """ceil(log^3 n), once delta is checked and ``walk`` is that long."""
    _require_delta(delta)
    count = log_cube(n)
    if walk.length < count:
        raise ValueError(f"walk length {walk.length} < ceil(log^3 n) = {count}")
    return count


def _walk_length(n, gamma):
    """floor(n**gamma) for an estimator about to draw paths that long.

    Raises ValueError, before anything is allocated, for gamma outside
    (0, 1/4) and for lengths above WALK_MAX_LENGTH.
    """
    if not 0.0 < gamma < 0.25:
        raise ValueError("gamma must lie in (0, 1/4)")
    length = floor_power(n, gamma)
    if length > WALK_MAX_LENGTH:
        raise ValueError(
            f"floor(n**gamma) = {length} steps, above the limit of {WALK_MAX_LENGTH}"
        )
    return length


def _walk_blocks(length, trials, rng):
    """Prefix sums S, S' of ``trials`` paths, one block of paths at a time.

    Variates are drawn path-major: each path takes 2*length consecutive
    exponentials, X then X' (the order of gen_walk), and a block holds
    at most MC_BLOCK_ELEMENTS of them, so the paths do not depend on the
    block size.  They are evaluated step-major: yields (s, sp), two
    (length, paths) views of one block whose column p is path p.

    A block with at least as many paths as steps is drawn in path-major
    sub-draws of at most _SUBDRAW_ELEMENTS variates, each transposed into
    a (length, 2, paths) buffer, so that every step is one contiguous row
    across the paths.  A block with fewer paths than steps (long paths)
    keeps the path-major memory of one draw and is only viewed step-major.
    Either way the prefix sums add the same terms in the same order.
    """
    cap = max(1, min(_CHUNK, MC_BLOCK_ELEMENTS // (2 * length)))
    per_draw = max(1, _SUBDRAW_ELEMENTS // (2 * length))
    done = 0
    while done < trials:
        paths = min(cap, trials - done)
        if paths < length:
            walk = rng.exponential((paths, 2 * length)).reshape(paths, 2, length).T
        else:
            walk = np.empty((length, 2, paths))
            for p in range(0, paths, per_draw):
                k = min(per_draw, paths - p)
                sub = rng.exponential((k, 2 * length)).reshape(k, 2, length)
                walk[:, :, p:p + k] = sub.T
        _cumsum_steps(walk)
        yield walk[:, 0], walk[:, 1]
        done += paths


def _cumsum_steps(a):
    """Prefix sums along axis 0 (the steps) of a step-major array, in place.

    A wide array (at least as many paths as steps, laid out step-major)
    takes one contiguous add per step; a narrow one (path-major memory)
    takes np.cumsum down each path's own contiguous memory.
    """
    if a.shape[-1] >= a.shape[0]:
        for j in range(1, a.shape[0]):
            np.add(a[j - 1], a[j], out=a[j])
    else:
        np.cumsum(a, axis=0, out=a)
    return a


def _eg_rows(n, s, sp):
    """event_eg_surrogate on every path (column) of a step-major block.

    sum_{j<=i} rows_j >= sum_{j<=i} cols_j + i, as the exact integer
    prefix sums of rows_j - cols_j against i.
    """
    gap = _cumsum_steps(_row_values(n, s) - _row_values(n, sp))
    return np.all(gap >= np.arange(1, s.shape[0] + 1)[:, None], axis=0)


def _kahan_prefix_min(terms):
    """Per path, the least compensated prefix sum of step-major terms.

    terms.T is (paths, steps); on a step-major block it is column
    contiguous, so kahan_cumsum_rows steps along contiguous columns.
    """
    return kahan_cumsum_rows(terms.T).min(axis=1)


def _log_ratio_min_rows(s, sp):
    """Per path, the least prefix sum of log(S'_j) - log(S_j): the path
    meets event_log at threshold t iff this is >= t."""
    return _kahan_prefix_min(np.log(sp) - np.log(s))


def estimate_event(kind, n, gamma, delta, trials, rng, *,
                   threshold=-1.0, multiplier=5.0):
    """Monte Carlo probability of a named surrogate event.

    kind 'eg': the ceiled-sum inequality event; 'log': prefix
    log-ratio sums staying above ``threshold``; 'headline':
    min_weighted_stat over floor(n**gamma) indices staying at or above
    -multiplier * n^(delta/2) * ceil(log^(3/2) n) (requires delta).
    Paths are drawn path-major in blocks and evaluated step-major (see
    the module docstring), so the result does not depend on the block
    size; per-path evaluation matches the single-path event functions
    on gen_walk's paths.
    """
    if kind not in ("eg", "log", "headline"):
        raise ValueError(f"unknown event kind {kind!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    length = _walk_length(n, gamma)
    if delta is not None:
        _require_delta(delta)
    if math.isnan(threshold) or math.isnan(multiplier):
        raise ValueError("threshold and multiplier must not be NaN")
    if kind == "headline":
        if delta is None:
            raise ValueError("headline event needs delta > 0")
        cut = headline_threshold(n, delta, multiplier)
        jj = np.arange(1, length + 1, dtype=np.float64)[:, None]

    hits = 0
    for s, sp in _walk_blocks(length, trials, rng):
        if kind == "eg":
            ok = _eg_rows(n, s, sp)
        elif kind == "log":
            ok = _log_ratio_min_rows(s, sp) >= threshold
        else:
            ok = _kahan_prefix_min((sp - s) / jj) >= cut
        hits += int(np.count_nonzero(ok))
    return make_estimate(kind, hits, trials, n=n, gamma=gamma, delta=delta)


@dataclass(frozen=True)
class ContainmentReport:
    """Path-by-path tally of the inequality chain eg => log(0) => log(-1).

    log(0) => log(-1) holds by arithmetic, as both read one prefix
    minimum, so only eg => log(0) can be violated.
    """

    trials: int
    eg_hits: int
    log0_hits: int
    logneg1_hits: int
    eg_without_log0: int

    @property
    def violations(self):
        return self.eg_without_log0


def check_containment(n, gamma, trials, rng):
    """Evaluate all three chained events on common paths.

    The ceiling inequalities give eg => log(0) => log(-1) on every
    single path (not merely in distribution); the report counts any
    violations, which should be zero.  Paths are those of gen_walk
    called ``trials`` times on ``rng``, drawn in blocks as in
    estimate_event; one log-ratio prefix minimum per path serves both
    log thresholds.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    length = _walk_length(n, gamma)
    eg_hits = log0 = logneg1 = bad01 = 0
    for s, sp in _walk_blocks(length, trials, rng):
        a = _eg_rows(n, s, sp)
        low = _log_ratio_min_rows(s, sp)
        b = low >= 0.0
        eg_hits += int(np.count_nonzero(a))
        log0 += int(np.count_nonzero(b))
        logneg1 += int(np.count_nonzero(low >= -1.0))
        bad01 += int(np.count_nonzero(a & ~b))
    return ContainmentReport(
        trials=trials,
        eg_hits=eg_hits,
        log0_hits=log0,
        logneg1_hits=logneg1,
        eg_without_log0=bad01,
    )


def _ratio_tail_excess(n, delta):
    """Indices j = 1..ceil(log^3 n) and the excess x_j = n^(delta/2)/sqrt(j).

    Raises ValueError, before allocating, unless delta is finite and
    positive and there are at most RATIO_TAIL_MAX_INDICES indices.
    """
    _require_delta(delta)
    count = log_cube(n)
    if count > RATIO_TAIL_MAX_INDICES:
        raise ValueError(
            f"ceil(log^3 n) = {count} indices, above the limit of "
            f"{RATIO_TAIL_MAX_INDICES}"
        )
    jj = np.arange(1, count + 1, dtype=np.float64)
    return jj, n ** (delta / 2.0) / np.sqrt(jj)


def ratio_tail_bound_terms(n, delta):
    """Chernoff bounds (1 - x_j^2/(2+x_j)^2)^j on P(S'_j/S_j >= 1 + x_j).

    S_j and S'_j are independent Gamma(j, 1), so for 0 < theta < 1

        E exp(theta (S'_j - (1+x) S_j)) = [(1-theta)(1+(1+x) theta)]^(-j).

    Markov's inequality bounds the tail by this for every such theta.
    The product (1-theta)(1+(1+x)theta) peaks at theta = x/(2(1+x)),
    where it equals (2+x)^2/(4(1+x)); the tail is therefore at most
    (4(1+x)/(2+x)^2)^j = (1 - x^2/(2+x)^2)^j, at every n and j.
    """
    jj, x = _ratio_tail_excess(n, delta)
    return (4.0 * (1.0 + x) / (2.0 + x) ** 2) ** jj


def ratio_tail_bound(n, delta):
    """Finite-n envelope B_n = sum_{j <= ceil(log^3 n)} (1 - x_j^2/(2+x_j)^2)^j.

    A rigorous upper bound on the expected exceedance count that
    ratio_tail_diagnostic estimates, at every n (see
    ratio_tail_bound_terms for the Chernoff step).  Its j = 1 term
    tends to 4 n^(-delta/2) and its j = 2 term to 32 n^(-delta), so B_n
    drops under the asymptotic envelope 8 n^(-delta/2) once n^(delta/2)
    is large; with delta ~ 0.0066 that happens near log n ~ 700, far
    beyond desk scale.  The exact sum is smaller still, about a third
    of B_n at n = 10^4.
    """
    return math.fsum(ratio_tail_bound_terms(n, delta))


def ratio_tail_exact_terms(n, delta):
    """Exact P(S'_j/S_j >= 1 + x_j) = I_{1/(2+x_j)}(j, j) for each index.

    S_j/(S_j + S'_j) ~ Beta(j, j), and S'_j >= (1+x) S_j exactly when
    that ratio is at most 1/(2+x); I is the regularized incomplete beta.
    """
    jj, x = _ratio_tail_excess(n, delta)
    return betainc(jj, jj, 1.0 / (2.0 + x))


def ratio_tail_exact(n, delta):
    """Exact expected exceedance count sum_j I_{1/(2+x_j)}(j, j): the
    mean that ratio_tail_diagnostic's Monte Carlo total estimates."""
    return math.fsum(ratio_tail_exact_terms(n, delta))


@dataclass(frozen=True)
class RatioTailDiagnostic:
    """Summed exceedance frequencies of S'_j/S_j over the burn-in range.

    per_j[i] estimates P(S'_j/S_j >= 1 + n^(delta/2)/sqrt(j)) at
    j = i+1; ``total`` is their sum.  ``exact_mean`` is the exact value
    that ``total`` estimates and ``finite_bound`` its finite-n Chernoff
    envelope (ratio_tail_exact, ratio_tail_bound).  ``bound`` is the
    asymptotic envelope 8 n^(-delta/2), which the exact sum exceeds
    until log n ~ 600-650 when delta ~ 0.0066, so it is a reference
    value only at any reachable n.  All indices share common paths, so
    ``ci_halfwidth`` comes from the per-path exceedance counts, which is
    the correct CI for the dependent sum.
    """

    n: int
    delta: float
    trials: int
    indices: int
    per_j: np.ndarray
    total: float
    bound: float
    ci_halfwidth: float
    finite_bound: float
    exact_mean: float


def ratio_tail_diagnostic(n, delta, trials, rng):
    """Estimate sum_{j <= ceil(log^3 n)} P(S'_j/S_j >= 1 + n^(delta/2)/sqrt(j)).

    One set of paths of length ceil(log^3 n) serves every j; they are
    drawn path-major in blocks and evaluated step-major (see the module
    docstring), so the result does not depend on the block size.  The
    per-path exceedance count across indices feeds a CLT interval for
    the total.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _, x = _ratio_tail_excess(n, delta)
    count = len(x)
    cuts = (1.0 + x)[:, None]
    hits_per_j = np.zeros(count, dtype=np.int64)
    path_sum = 0.0
    path_sumsq = 0.0
    for s, sp in _walk_blocks(count, trials, rng):
        exceed = sp / s >= cuts
        hits_per_j += exceed.sum(axis=1)
        per_path = exceed.sum(axis=0).astype(np.float64)
        path_sum += float(per_path.sum())
        path_sumsq += float((per_path**2).sum())
    per_j = hits_per_j / trials
    total = float(path_sum / trials)
    var = max(path_sumsq / trials - total**2, 0.0)
    ci = Z95 * math.sqrt(var / trials)
    return RatioTailDiagnostic(
        n=n,
        delta=delta,
        trials=trials,
        indices=count,
        per_j=per_j,
        total=total,
        bound=8.0 * n ** (-delta / 2.0),
        ci_halfwidth=ci,
        finite_bound=ratio_tail_bound(n, delta),
        exact_mean=ratio_tail_exact(n, delta),
    )


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
    burnin = log_cube(n)
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
