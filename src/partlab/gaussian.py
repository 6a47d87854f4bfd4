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
one block of rows at a time, does not depend on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats import MC_BLOCK_ELEMENTS, kahan_cumsum, make_estimate

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
#: Carlo block.  At this index harmonic takes 0.44 s and harmonic_prefix
#: 1.5 s (2-core x86-64, Python 3.11).
_MAX_INDEX = MC_BLOCK_ELEMENTS


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
    """Array of H_1..H_n, accumulated with compensated summation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_index(n)
    return kahan_cumsum(1.0 / np.arange(1.0, n + 1.0))


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
    z = rng.standard_normal((paths, n))
    np.cumsum(z, axis=1, out=z)
    z *= 1.0 / np.arange(1, n + 1)
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

    Draws blocks of paths with the incremental sampler, so the result
    does not depend on the block size; alpha must lie in [0, 1/2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_index(n)
    if not 0.0 <= alpha < 0.5:
        raise ValueError("alpha must lie in [0, 1/2)")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cut = float(n) ** alpha
    cap = max(1, MC_BLOCK_ELEMENTS // n)
    hits = 0
    for done in range(0, trials, cap):
        z = sample_gp_incremental(n, min(cap, trials - done), rng)
        hits += int(np.count_nonzero(z.max(axis=1) <= cut))
    return make_estimate("gp-persistence", hits, trials, n=n)


def g_rho(rho):
    """g(rho) = 1 + 2(x/(1-x) + (log(rho)/2) x/(1-x)^2), x = rho^(-1/2).

    Strictly decreasing from +inf (pole at rho = 1) to 1 as rho grows.
    """
    if rho <= 1.0:
        raise ValueError("rho must exceed 1")
    x = rho**-0.5
    return 1.0 + 2.0 * (x / (1.0 - x) + 0.5 * math.log(rho) * x / (1.0 - x) ** 2)


def solve_rho_star(tolerance=1e-12, *, lo=1.000001, hi=1e6):
    """Root of g(rho) = 5/4 by bisection.

    An 80-point log-spaced scan first verifies g decreases over (lo, hi)
    and that the bracket straddles 5/4; bisection then runs until the
    residual |g(mid) - 5/4| drops to ``tolerance``.
    """
    if not 0 < tolerance < math.inf:
        raise ValueError("tolerance must be finite and positive")
    target = 1.25
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

    def residuals(self):
        """Pairwise gaps of the three objective terms; ~0 at a solution."""
        t1 = 0.5 - 2.0 * self.gamma
        t2 = self.delta / 2.0
        t3 = self.beta * (self.gamma - self.delta)
        return (t1 - t2, t2 - t3, t1 - t3)

    def as_dict(self):
        return {
            "rho_star": self.rho_star,
            "beta": self.beta,
            "delta": self.delta,
            "gamma": self.gamma,
            "exponent": self.exponent,
        }


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
    entries, estimates strictly inside (0, 1), and at least two
    distinct n.  Returns DecayFit(slope, stderr).
    """
    pts = [(float(n), float(p)) for n, p in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    if any(not 0.0 < p < 1.0 for _, p in pts):
        raise ValueError("estimates must lie strictly inside (0, 1)")
    x = np.log([n for n, _ in pts])
    y = np.log([p for _, p in pts])
    if np.ptp(x) == 0.0:
        raise ValueError("points must span more than one n")
    # scipy.stats takes most of a second to import; only fits load it
    from scipy.stats import linregress

    fit = linregress(x, y)
    return DecayFit(slope=float(fit.slope), stderr=float(fit.stderr))
