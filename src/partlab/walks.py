"""The paired exponential surrogate walk and its event estimators.

Two independent sequences of mean-1 exponentials X, X' drive prefix
sums S, S' and centered walks R_j = S_j - j, R'_j = S'_j - j.  The map

    ceil((sqrt(n)/c) * log((sqrt(n)/c) / S_j)),   c = pi/sqrt(6),

turns prefix sums into surrogate row (from S) and column (from S')
lengths of a size-n random partition's diagram.  The estimators here
measure the probability of the inequality events tying the surrogate
to graphicality and the exceedance frequencies of the ratios
S'_j/S_j over the burn-in range.  Each event has one implementation
here, the block kernel below; the per-path references the tests replay
it against live in tests/oracles.py.

Every estimator here (estimate_event, check_containment,
ratio_tail_diagnostic) draws its paths path-major and evaluates them
step-major.  Each path takes 2m consecutive exponentials from the
stream, X_1..X_m and then X'_1..X'_m, the order gen_walk uses.  Memory
is bounded by drawing a cache-sized block of paths at a time, and a
block is the same variates in the same order as its paths drawn one by
one, so these estimates depend on the seed and stream only, not on the
block size.  A block is evaluated as (steps, paths) arrays whose column
p is path p: each step is one vector operation across the block's
paths, and each per-path reduction is an elementwise minimum or sum
across steps, with the additions of a path evaluated on its own, in
their order; each prefix-sum verdict is exact for the stored float64
terms.

The caller's thread draws the blocks' uniforms in turn, by the
uniform_open calls rng.exponential would make, and stats.path_blocks
evaluates them on its pool, so the estimates and the stream's later
draws do not depend on the worker count either.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import betainc

from .stats import (
    C_SCALE,
    PATH_BLOCK_ELEMENTS,
    Z95,
    make_estimate,
    path_blocks,
)

__all__ = [
    "ContainmentReport",
    "RATIO_TAIL_MAX_INDICES",
    "RatioTailDiagnostic",
    "WALK_MAX_LENGTH",
    "WalkPath",
    "check_containment",
    "estimate_event",
    "floor_power",
    "gen_walk",
    "headline_threshold",
    "log_cube",
    "ratio_tail_bound",
    "ratio_tail_bound_terms",
    "ratio_tail_diagnostic",
    "ratio_tail_exact",
    "ratio_tail_exact_terms",
]

#: Most paths in one block; it bounds the blocks of short paths (4096
#: paths of 9 steps are 73,728 variates).  At 9 steps and 2*10^5 paths
#: on two threads (2-core x86-64), blocks of 1024 paths took 1.8 times
#: as long, for the Python work per block, and blocks of
#: PATH_BLOCK_ELEMENTS (14,563 paths) 1.2 times.
_CHUNK = 4096
#: Most variates in one uniform_open call filling a step-major block
#: (a block with at least as many paths as steps, so at most 362 steps):
#: 1 MB, which the cache holds while the call is transposed into the
#: block; a block of PATH_BLOCK_ELEMENTS takes two such calls.
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


# Stays only because perfbench/layers.py wraps it; ROADMAP item 1 step 2 deletes it.
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


def _row_scale(n):
    """sqrt(n)/c, the scale of the surrogate row map.  Raises ValueError
    when sqrt(n) overflows a float."""
    try:
        return math.sqrt(n) / C_SCALE
    except OverflowError:
        raise ValueError(
            "sqrt(n) overflows a float: n must be below about 1.8e308") from None


def _row_values(n, prefix_sums):
    # unclamped: values can go <= 0 on atypical paths and are kept as is
    scale = _row_scale(n)
    vals = np.ceil(scale * (math.log(scale) - np.log(prefix_sums)))
    return vals.astype(np.int64)


def _half_delta_power(n, delta):
    """n^(delta/2); raises ValueError when it overflows a float."""
    try:
        return n ** (delta / 2.0)
    except OverflowError:
        raise ValueError(
            f"n^(delta/2) overflows a float at delta = {delta!r}") from None


def headline_threshold(n, delta, multiplier=5.0):
    """-multiplier * n^(delta/2) * ceil(log^(3/2) n).

    The canonical multiplier is 5; it is exposed because it is a
    proof-shaped constant, not a tuned one.  Raises ValueError when
    n^(delta/2) overflows a float.
    """
    return -multiplier * _half_delta_power(n, delta) * math.ceil(math.log(n) ** 1.5)


def log_cube(n):
    """ceil(log^3 n), the burn-in index range of the ratio diagnostics."""
    return math.ceil(math.log(n) ** 3)


def _require_delta(delta):
    """Raise ValueError unless delta is finite and positive."""
    if not 0 < delta < math.inf:
        raise ValueError("delta must be finite and positive")


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


def _walk_blocks(length, trials, rng, evaluate):
    """evaluate(s, sp) on the prefix sums S, S' of ``trials`` paths, one
    block of paths at a time; yields the results in block order.

    Variates are drawn path-major: each path takes 2*length consecutive
    exponentials, X then X' (the order of gen_walk), and a block holds
    at most PATH_BLOCK_ELEMENTS of them (one path if a path is longer),
    so the paths do not depend on the block size.  The caller's thread
    draws each block's uniforms (_draw_uniforms); the pool turns them
    into exponentials and prefix sums in place and runs evaluate.
    """
    per_block = max(1, min(_CHUNK, PATH_BLOCK_ELEMENTS // (2 * length)))

    def prefix_sums(walk):
        np.log(walk, out=walk)
        np.negative(walk, out=walk)
        _cumsum_steps(walk)
        return evaluate(walk[:, 0], walk[:, 1])

    return path_blocks(trials, per_block, lambda paths: _draw_uniforms(length, paths, rng),
                       prefix_sums)


def _draw_uniforms(length, paths, rng):
    """The open-interval uniforms behind the next ``paths`` paths on
    ``rng``, as a (length, 2, paths) block whose column p is path p,
    drawn by the uniform_open calls rng.exponential would make.

    A block with at least as many paths as steps is drawn in path-major
    sub-draws of at most _SUBDRAW_ELEMENTS variates, each transposed into
    a step-major buffer, so that every step is one contiguous row across
    the paths.  A block with fewer paths than steps (long paths) keeps
    the path-major memory of one draw and is only viewed step-major.
    Either way the prefix sums add the same terms in the same order.
    """
    if paths < length:
        return rng.uniform_open((paths, 2 * length)).reshape(paths, 2, length).T
    per_draw = max(1, _SUBDRAW_ELEMENTS // (2 * length))
    walk = np.empty((length, 2, paths))
    for p in range(0, paths, per_draw):
        k = min(per_draw, paths - p)
        sub = rng.uniform_open((k, 2 * length)).reshape(k, 2, length)
        walk[:, :, p:p + k] = sub.T
    return walk


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
    """The ceiled-sum graphicality inequality on every path (column) of
    a step-major block.

    sum_{j<=i} rows_j >= sum_{j<=i} cols_j + i, as the exact integer
    prefix sums of rows_j - cols_j against i.
    """
    gap = _cumsum_steps(_row_values(n, s) - _row_values(n, sp))
    return np.all(gap >= np.arange(1, s.shape[0] + 1)[:, None], axis=0)


def _prefix_min_at_least(terms, *cuts):
    """Per cut, whether each path's least prefix sum of the step-major
    terms is >= cut, exactly for the stored floats: a float prefix sum
    lies within steps * 2^-52 * sum|terms| of the real one (twice the
    bound of Higham, Accuracy and Stability of Numerical Algorithms,
    sec. 4.2), and a path that close to a cut is decided on Fractions."""
    bound = terms.shape[0] * 2.0**-52 * np.abs(terms).sum(axis=0)
    low = _cumsum_steps(terms.copy(order="K")).min(axis=0)
    verdicts = []
    for cut in cuts:
        ok = low >= cut
        for p in np.flatnonzero(np.abs(low - cut) <= bound):
            ok[p] = min(itertools.accumulate(map(Fraction, terms[:, p].tolist()))) >= cut
        verdicts.append(ok)
    return verdicts


def estimate_event(kind, n, gamma, delta, trials, rng, *,
                   threshold=-1.0, multiplier=5.0):
    """Monte Carlo probability of a named surrogate event.

    kind 'eg': the ceiled-sum inequality event; 'log': prefix
    log-ratio sums staying above ``threshold``; 'headline': the least
    prefix sum of (R'_j - R_j)/j over floor(n**gamma) indices staying
    at or above -multiplier * n^(delta/2) * ceil(log^(3/2) n) (requires
    delta).
    Paths are drawn path-major in blocks and evaluated step-major (see
    the module docstring), so the result does not depend on the block
    size; each path's verdict is that of the event evaluated exactly on
    the float64 terms of its own gen_walk path.  Raises ValueError,
    before any path is drawn, when sqrt(n) ('eg') or n^(delta/2)
    ('headline') overflows a float; 'log' never takes n as a float.
    """
    if kind not in ("eg", "log", "headline"):
        raise ValueError(f"unknown event kind {kind!r}")
    length = _walk_length(n, gamma)
    if delta is not None:
        _require_delta(delta)
    if math.isnan(threshold) or math.isnan(multiplier):
        raise ValueError("threshold and multiplier must not be NaN")
    if kind == "eg":
        _row_scale(n)  # refuse an n too large for the row map up front
    if kind == "headline":
        if delta is None:
            raise ValueError("headline event needs delta > 0")
        cut = headline_threshold(n, delta, multiplier)
        jj = np.arange(1, length + 1, dtype=np.float64)[:, None]

    def hits(s, sp):
        if kind == "eg":
            ok = _eg_rows(n, s, sp)
        elif kind == "log":
            ok, = _prefix_min_at_least(np.log(sp) - np.log(s), threshold)
        else:
            ok, = _prefix_min_at_least((sp - s) / jj, cut)
        return int(np.count_nonzero(ok))

    hits = sum(_walk_blocks(length, trials, rng, hits))
    return make_estimate(kind, hits, trials, n=n, gamma=gamma, delta=delta)


@dataclass(frozen=True)
class ContainmentReport:
    """Path-by-path tally of the inequality chain eg => log(0) => log(-1).

    log(0) => log(-1) holds by arithmetic, as both verdicts are exact
    for one set of stored terms, so only eg => log(0) can be violated.
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
    estimate_event; one pass of log-ratio prefix sums serves both log
    thresholds.  Raises ValueError, before any path is drawn, when
    sqrt(n) overflows a float.
    """
    length = _walk_length(n, gamma)
    _row_scale(n)  # refuse an n too large for the row map up front

    def tallies(s, sp):
        a = _eg_rows(n, s, sp)
        b, c = _prefix_min_at_least(np.log(sp) - np.log(s), 0.0, -1.0)
        return [int(np.count_nonzero(v)) for v in (a, b, c, a & ~b)]

    eg_hits, log0, logneg1, bad01 = map(
        sum, zip(*_walk_blocks(length, trials, rng, tallies)))
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
    positive, there are 1 to RATIO_TAIL_MAX_INDICES indices (n >= 2)
    and n^(delta/2) fits a float.
    """
    _require_delta(delta)
    if n < 2:
        raise ValueError(f"n = {n} leaves the burn-in range j <= ceil(log^3 n) empty")
    count = log_cube(n)
    if count > RATIO_TAIL_MAX_INDICES:
        raise ValueError(
            f"ceil(log^3 n) = {count} indices, above the limit of "
            f"{RATIO_TAIL_MAX_INDICES}"
        )
    jj = np.arange(1, count + 1, dtype=np.float64)
    return jj, _half_delta_power(n, delta) / np.sqrt(jj)


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
    _, x = _ratio_tail_excess(n, delta)
    count = len(x)
    cuts = (1.0 + x)[:, None]

    def exceedances(s, sp):
        exceed = sp / s >= cuts
        per_path = exceed.sum(axis=0).astype(np.float64)
        return exceed.sum(axis=1), float(per_path.sum()), float((per_path**2).sum())

    hits_per_j = np.zeros(count, dtype=np.int64)
    path_sum = 0.0
    path_sumsq = 0.0
    for per_j, total, sumsq in _walk_blocks(count, trials, rng, exceedances):
        hits_per_j += per_j
        path_sum += total
        path_sumsq += sumsq
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
