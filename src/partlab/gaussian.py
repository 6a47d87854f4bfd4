"""The harmonic-weighted Gaussian process and the decay-exponent solver.

The process is Z_n = sum_{k<=n} B_k/k with B a standard Brownian
motion observed at integer times, so B_k is a sum of k iid standard
normals.  Its covariance has the closed form

    Cov(Z_m, Z_n) = 2m - (m+1) H_m + m H_n   for m <= n,

with H_k the k-th harmonic number.  The module offers two exact
samplers (linear-cost incremental, and dense Cholesky as an
independent check on the law), persistence-probability estimation,
and the constant pipeline: the root of g(rho) = 5/4, the rate
beta = 1/(10 log rho), and the maximin exponent solution.

Both samplers are batch-first: they return a (paths, n) array of Z,
one path per row, from a (paths, n) block of standard normals drawn
row after row.  A block of rows is the same variates in the same
order as its paths drawn one by one, so persistence_prob, which draws
one block of rows at a time (at most PATH_BLOCK_ELEMENTS variates, or
one path), does not depend on the block size.  It draws every block on
the caller's thread and integrates and tests the drawn blocks on the
pool of stats.path_blocks, so it does not depend on the worker count
either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats import MC_BLOCK_ELEMENTS, PATH_BLOCK_ELEMENTS, make_estimate, path_blocks

__all__ = [
    "CHOLESKY_CAP",
    "DecayFit",
    "ExponentSolution",
    "beta_from_rho",
    "cov_matrix",
    "decay_fit",
    "g_rho",
    "gp_cov",
    "harmonic",
    "harmonic_prefix",
    "optimize_exponents",
    "persistence_prob",
    "sample_gp_cholesky",
    "sample_gp_incremental",
    "solve_exponent_pipeline",
    "solve_rho_star",
]

#: Largest N for which the dense covariance factorization is offered.
CHOLESKY_CAP = 2000
#: Largest process index: one path of Z_1..Z_n fills at most one Monte
#: Carlo block.  At this index harmonic takes 0.41-0.44 s and
#: harmonic_prefix 0.16 s after a first call of 0.31 s (2-core x86-64,
#: Python 3.11, numpy 2.4).
_MAX_INDEX = MC_BLOCK_ELEMENTS
#: The interval (lo, hi) that solve_rho_star scans and bisects.
_RHO_BRACKET = (1.000001, 1e6)


def _require_index(n):
    if n > _MAX_INDEX:
        raise ValueError(
            f"index {n} above {_MAX_INDEX}, the largest Gaussian-process "
            "index (one path per Monte Carlo block)"
        )


def harmonic(k):
    """H_k = sum_{j<=k} 1/j by exact compensated summation; H_0 = 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    _require_index(k)
    return math.fsum(1.0 / j for j in range(1, k + 1))


def harmonic_prefix(n):
    """Array of H_1..H_n, each within (2^-53 + g_(k-1)^2) H_k of the sum
    of the float terms 1/j, where g_m = m 2^-53 / (1 - m 2^-53).

    That is the bound of Sum2 (Ogita, Rump and Oishi, SIAM J. Sci.
    Comput. 26 (2005), Prop. 4.5), applied to every prefix: the float
    prefix sums, plus the prefix sums of the exact rounding error of
    each addition (Knuth's TwoSum).  At k = 4*10^6 the second term is
    below 2^-61 H_k, so each H_k is within about one ulp.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_index(n)
    x = 1.0 / np.arange(1.0, n + 1.0)
    s = np.cumsum(x)
    prev = np.concatenate(([0.0], s[:-1]))
    kept = s - prev
    err = (prev - (s - kept)) + (x - kept)  # s + err == prev + x exactly
    return s + np.cumsum(err)


def gp_cov(m, n):
    """Cov(Z_m, Z_n) = 2m - (m+1) H_m + m H_n for m <= n.

    Arguments in either order; both must be >= 1.
    """
    if m < 1 or n < 1:
        raise ValueError("indices must be >= 1")
    if m > n:
        m, n = n, m
    h_n = harmonic(n)  # refuses an index above the limit before any sum
    return 2.0 * m - (m + 1.0) * harmonic(m) + m * h_n


def cov_matrix(n):
    """Dense covariance matrix of (Z_1, ..., Z_n).

    Symmetric positive definite; entry (i, j) equals
    gp_cov(min(i,j)+1, max(i,j)+1) up to accumulation error ~1 ulp.
    It holds several n x n arrays at once, so n is capped at
    CHOLESKY_CAP, the largest size the dense sampler factors.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > CHOLESKY_CAP:
        raise ValueError(f"n = {n} above dense factorization cap {CHOLESKY_CAP}")
    h = np.concatenate(([0.0], harmonic_prefix(n)))
    idx = np.arange(1, n + 1)
    lo = np.minimum.outer(idx, idx)
    hi = np.maximum.outer(idx, idx)
    return 2.0 * lo - (lo + 1.0) * h[lo] + lo * h[hi]


def sample_gp_incremental(n, paths, rng):
    """Exact paths of Z via Brownian increments; O(n) per path.

    Returns a (paths, n) array: per row, the cumulative sum of B_k/k
    with B the cumulative sum of standard normals.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _integrate(rng.standard_normal((paths, n)))


def _integrate(z):
    """Z from a (paths, n) block of standard normals, in place: per row,
    the cumulative sum of B_k/k with B the cumulative sum of the row."""
    np.cumsum(z, axis=1, out=z)
    z *= 1.0 / np.arange(1, z.shape[1] + 1)
    return np.cumsum(z, axis=1, out=z)


def sample_gp_cholesky(n, paths, rng):
    """Exact paths of Z (marginal law only) via dense Cholesky.

    Factors the covariance once and returns a (paths, n) array.  Cost
    is O(n^3), so n is capped at CHOLESKY_CAP, where the covariance
    still factors without help; ``cov_matrix`` refuses a larger n.
    """
    chol = np.linalg.cholesky(cov_matrix(n))
    return rng.standard_normal((paths, n)) @ chol.T


def persistence_prob(n, alpha, trials, rng):
    """Monte Carlo estimate of P(max_{k<=n} Z_k <= n**alpha).

    Draws blocks of paths as the incremental sampler does, so the result
    does not depend on the block size; alpha must lie in [0, 1/2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_index(n)
    if not 0.0 <= alpha < 0.5:
        raise ValueError("alpha must lie in [0, 1/2)")
    cut = float(n) ** alpha

    def hits(z):
        return int(np.count_nonzero(_integrate(z).max(axis=1) <= cut))

    hits = sum(path_blocks(trials, max(1, PATH_BLOCK_ELEMENTS // n),
                           lambda paths: rng.standard_normal((paths, n)), hits))
    return make_estimate("gp-persistence", hits, trials, n=n)


def g_rho(rho):
    """g(rho) = 1 + 2(x/(1-x) + (log(rho)/2) x/(1-x)^2), x = rho^(-1/2).

    Strictly decreasing from +inf (pole at rho = 1) to 1 as rho grows.
    """
    if rho <= 1.0:
        raise ValueError("rho must exceed 1")
    x = rho**-0.5
    return 1.0 + 2.0 * (x / (1.0 - x) + 0.5 * math.log(rho) * x / (1.0 - x) ** 2)


def solve_rho_star(tolerance=1e-12):
    """Root of g(rho) = 5/4 by bisection.

    An 80-point log-spaced scan first verifies g decreases over
    _RHO_BRACKET = (lo, hi) and that it straddles 5/4; bisection then
    runs until the residual |g(mid) - 5/4| drops to ``tolerance``.
    """
    if not 0 < tolerance < math.inf:
        raise ValueError("tolerance must be finite and positive")
    target = 1.25
    lo, hi = _RHO_BRACKET
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), 80))
    vals = [g_rho(float(r)) for r in grid]
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise RuntimeError("g(rho) is not decreasing on the scan grid")
    if not (vals[0] > target > vals[-1]):
        raise RuntimeError(
            f"bracket failure: g({lo}) = {vals[0]:.6g}, g({hi}) = {vals[-1]:.6g}"
        )
    a, b = lo, hi
    for _ in range(500):
        mid = 0.5 * (a + b)
        val = g_rho(mid)
        if abs(val - target) <= tolerance:
            return mid
        if val > target:
            a = mid
        else:
            b = mid
    raise RuntimeError("bisection did not reach the requested tolerance")


def beta_from_rho(rho):
    """The per-log rate beta = 1/(10 log rho), natural log."""
    if rho <= 1.0:
        raise ValueError("rho must exceed 1")
    return 1.0 / (10.0 * math.log(rho))


@dataclass(frozen=True)
class ExponentSolution:
    """The solved constants: rho*, beta, and the maximin triple.

    ``exponent`` is the common value of the three objective terms,
    which equals delta/2.  ``rho_star`` is None when beta was supplied
    directly instead of derived from the g-equation root.
    """

    rho_star: float | None
    beta: float
    delta: float
    gamma: float
    exponent: float


def optimize_exponents(beta, *, rho_star=None):
    """Maximin solution of min(1/2 - 2 gamma, delta/2, beta (gamma - delta)).

    At the optimum all three terms are equal, which gives the closed
    form delta = beta/(2 + 5 beta), gamma = 1/4 - delta/4, and
    exponent = delta/2.  The tests check it against a nested ternary
    search over the feasible region.
    """
    if not 0 < beta < math.inf:
        raise ValueError("beta must be finite and positive")
    delta = beta / (2.0 + 5.0 * beta)
    gamma = 0.25 - delta / 4.0
    return ExponentSolution(
        rho_star=rho_star,
        beta=beta,
        delta=delta,
        gamma=gamma,
        exponent=delta / 2.0,
    )


def solve_exponent_pipeline(tolerance=1e-12, beta_override=None):
    """End-to-end constants: rho* from g(rho) = 5/4, beta = 1/(10 log rho*),
    then the maximin exponents.  ``beta_override`` skips the root step."""
    if beta_override is not None:
        return optimize_exponents(beta_override)
    rho = solve_rho_star(tolerance)
    return optimize_exponents(beta_from_rho(rho), rho_star=rho)


@dataclass(frozen=True)
class DecayFit:
    """OLS slope of log(estimate) against log(n), with standard error."""

    slope: float
    stderr: float


def decay_fit(points):
    """Fit log(estimate) = a + slope * log(n) by least squares.

    ``points`` is a sequence of (n, estimate) pairs with at least three
    entries, every n positive, estimates strictly inside (0, 1), and at
    least two distinct n.  Returns DecayFit(slope, stderr).
    """
    pts = [(float(n), float(p)) for n, p in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    if any(n <= 0.0 for n, _ in pts):
        raise ValueError("every n must be positive")
    if any(not 0.0 < p < 1.0 for _, p in pts):
        raise ValueError("estimates must lie strictly inside (0, 1)")
    x = np.log([n for n, _ in pts])
    y = np.log([p for _, p in pts])
    if np.ptp(x) == 0.0:
        raise ValueError("points must span more than one n")
    sxx, sxy, _, syy = np.cov(x, y, bias=True).flat
    # the residuals hold the share 1 - r^2 of syy; r is clipped against
    # rounding, and a constant estimate is fitted exactly
    r = min(max(sxy / math.sqrt(sxx * syy), -1.0), 1.0) if syy else 0.0
    stderr = math.sqrt((1.0 - r**2) * syy / sxx / (len(pts) - 2))
    return DecayFit(slope=float(sxy / sxx), stderr=stderr)
