"""Permutation-test engine for the association between one transformed
covariate and a score vector.

For an n x p design g, scores a and case weights w, the linear statistic is

    T = sum_i w_i * g_i * a_i            (a p-vector; scores are scalar)

and its conditional expectation and covariance under random permutation of
the scores given the weights are

    E_hat  = (1/w.) sum_i w_i a_i
    V_hat  = (1/w.) sum_i w_i (a_i - E_hat)^2
    mu     = E_hat * sum_i w_i g_i
    sigma  = w./(w.-1) * V_hat * sum_i w_i g_i g_i^T
             - 1/(w.-1) * V_hat * (sum_i w_i g_i)(sum_i w_i g_i)^T

with w. = sum_i w_i. The test statistic is the maximum absolute standardized
coordinate c_max = max_k |T_k - mu_k| / sqrt(sigma_kk); p-values come from an
asymptotic normal approximation, seeded Monte-Carlo resampling, or exact
enumeration over all permutations.

Determinism: Monte-Carlo replicate b draws from a numpy Philox stream keyed
by key = seed + (b+1) * 2^64, so the returned p-value depends only on
(inputs, seed, B), never on evaluation order. Replicate comparisons use
c >= c_obs - 1e-8*max(1, c_obs): permutation ties are counted as "at least as
extreme" without float-rounding fragility, which can only enlarge p-values.

The standard normal CDF is evaluated with the Abramowitz & Stegun 26.2.17
rational approximation (absolute error < 7.5e-8); no statistics library is
involved anywhere in this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

# sigma_kk at or below this is treated as a degenerate coordinate
VAR_TOL = 1e-10
# relative slack for counting tied permutation statistics
TIE_RTOL = 1e-8
# exact enumeration bound: at most this many (expanded) observations
EXACT_MAX_N = 10

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class LinearStatistic:
    """Observed statistic with its conditional moments (p-vector T and mu,
    p x p covariance sigma)."""

    T: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True)
class SplitTest:
    """Result of one covariate's permutation test inside variable selection."""

    covariate: str
    c_max: float
    p_raw: float
    p_adjusted: float
    method: str


def _as_design(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.ndim == 1:
        g = g.reshape(-1, 1)
    if g.ndim != 2:
        raise DataError("design must be an n x p matrix")
    return g


def linear_statistic(g: np.ndarray, a: np.ndarray, w: np.ndarray) -> LinearStatistic:
    """T, mu and sigma for the design g, scores a and case weights w.

    Requires total weight w. >= 2 (the permutation variance has a w.-1
    denominator). Zero-weight observations contribute nothing, so dropping
    them leaves the result unchanged exactly.
    """
    g = _as_design(g)
    a = np.asarray(a, dtype=float)
    w = np.asarray(w, dtype=float)
    n, p = g.shape
    if a.shape != (n,) or w.shape != (n,):
        raise DataError("design, scores and weights disagree in length")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise DataError("case weights must be finite and non-negative")
    wsum = w.sum()
    if wsum < 2:
        raise DataError(f"total case weight {wsum} < 2: nothing to test")

    wg = g * w[:, None]            # n x p
    T = wg.T @ a                   # p
    g_sum = wg.sum(axis=0)         # p
    e_hat = float(w @ a) / wsum
    centered = a - e_hat
    v_hat = float(w @ (centered * centered)) / wsum
    mu = e_hat * g_sum
    gram = wg.T @ g                # sum_i w_i g_i g_i^T
    sigma = (wsum / (wsum - 1.0)) * v_hat * gram - (1.0 / (wsum - 1.0)) * v_hat * np.outer(
        g_sum, g_sum
    )
    return LinearStatistic(T=T, mu=mu, sigma=sigma)


def standardize_max(ls: LinearStatistic) -> float:
    """c_max = max_k |T_k - mu_k| / sqrt(sigma_kk), skipping coordinates with
    sigma_kk <= 1e-10; 0.0 if every coordinate is skipped."""
    diag = np.diagonal(ls.sigma)
    keep = diag > VAR_TOL
    if not np.any(keep):
        return 0.0
    z = np.abs(ls.T[keep] - ls.mu[keep]) / np.sqrt(diag[keep])
    return float(z.max())


def effective_dof(ls: LinearStatistic) -> int:
    """Number of non-degenerate coordinates entering c_max."""
    return int(np.sum(np.diagonal(ls.sigma) > VAR_TOL))


def _normal_upper_tail(x: float) -> float:
    """Q(x) = 1 - Phi(x) for x >= 0, via Abramowitz & Stegun 26.2.17
    (|err| < 7.5e-8). Evaluated directly so tiny tails keep full precision."""
    t = 1.0 / (1.0 + 0.2316419 * x)
    poly = t * (
        0.319381530
        + t * (-0.356563782 + t * (1.781477937 + t * (-1.821255978 + t * 1.330274429)))
    )
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * poly


def normal_cdf(x: float) -> float:
    """Standard normal CDF via Abramowitz & Stegun 26.2.17 (|err| < 7.5e-8)."""
    q = _normal_upper_tail(abs(x))
    return 1.0 - q if x >= 0 else q


def pvalue_asymptotic(c_max: float, dof: int) -> float:
    """p = 1 - (2*Phi(c_max) - 1)^dof.

    Treats the dof retained coordinates as independent standard normals,
    which is conservative when they are correlated. Evaluated in log space
    (-expm1(dof * log1p(-2Q))) so strong associations yield tiny but distinct
    p-values instead of flushing to zero, which would turn variable selection
    into an arbitrary tie-break.
    """
    if c_max < 0:
        raise DataError("c_max must be >= 0")
    if dof < 1 or c_max == 0.0:
        return 1.0
    q = min(0.5, _normal_upper_tail(c_max))
    if q <= 0.0:
        return 0.0  # beyond float range (c_max > 38); ties fall back to order
    return -math.expm1(dof * math.log1p(-2.0 * q))


def _expand_indices(w: np.ndarray) -> np.ndarray:
    """Index multiset with each observation repeated by its integer weight."""
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise DataError("case weights must be non-negative")
    if not np.all(w == np.rint(w)):
        raise DataError("resampling requires integer case weights")
    counts = w.astype(np.int64)
    return np.repeat(np.arange(w.shape[0]), counts)


def _replicate_cmax(
    a_perm: np.ndarray, g_exp: np.ndarray, mu: np.ndarray, sd: np.ndarray, keep: np.ndarray
) -> np.ndarray:
    """c_max for a batch of permuted score rows (B x n_exp)."""
    T = a_perm @ g_exp  # B x p
    z = np.abs(T[:, keep] - mu[keep]) / sd[keep]
    if z.shape[1] == 0:
        return np.zeros(T.shape[0])
    return z.max(axis=1)


def _moments_for_resampling(g, a, w):
    ls = linear_statistic(g, a, w)
    diag = np.diagonal(ls.sigma)
    keep = diag > VAR_TOL
    sd = np.sqrt(np.where(keep, diag, 1.0))
    return ls, keep, sd, standardize_max(ls)


def pvalue_montecarlo(g: np.ndarray, a: np.ndarray, w: np.ndarray, B: int, seed: int) -> float:
    """Monte-Carlo permutation p-value, p = (1 + #{c_b >= c_obs}) / (B + 1).

    Replicate b permutes the scores over the weight-expanded index multiset
    using Philox stream (seed, b); integer weights required.
    """
    if B < 1:
        raise DataError("need at least one Monte-Carlo replicate")
    g = _as_design(g)
    a = np.asarray(a, dtype=float)
    w = np.asarray(w, dtype=float)
    ls, keep, sd, c_obs = _moments_for_resampling(g, a, w)

    slots = _expand_indices(w)
    g_exp = g[slots]
    a_exp = a[slots]
    n_exp = slots.shape[0]

    seed = int(seed) & _MASK64
    threshold = c_obs - TIE_RTOL * max(1.0, c_obs)
    hits = 0
    batch = max(1, 2_000_000 // max(1, n_exp))
    for start in range(0, B, batch):
        stop = min(B, start + batch)
        perms = np.empty((stop - start, n_exp), dtype=np.int64)
        for b in range(start, stop):
            rng = np.random.Generator(np.random.Philox(key=seed + ((b + 1) << 64)))
            perms[b - start] = rng.permutation(n_exp)
        c_rep = _replicate_cmax(a_exp[perms], g_exp, ls.mu, sd, keep)
        hits += int(np.sum(c_rep >= threshold))
    return (1.0 + hits) / (B + 1.0)


def pvalue_exact(g: np.ndarray, a: np.ndarray, w: np.ndarray) -> float:
    """Exact permutation p-value by full enumeration.

    Enumerates every permutation of the scores over the weight-expanded index
    multiset (unit weights: all n! score permutations) and returns the
    proportion with c_max at least the observed value, ties counted as >=.
    Integer weights only; the expanded size is capped at 10 observations.
    """
    g = _as_design(g)
    a = np.asarray(a, dtype=float)
    w = np.asarray(w, dtype=float)
    ls, keep, sd, c_obs = _moments_for_resampling(g, a, w)

    slots = _expand_indices(w)
    n_exp = slots.shape[0]
    if n_exp > EXACT_MAX_N:
        raise DataError(f"exact enumeration needs <= {EXACT_MAX_N} observations, got {n_exp}")
    g_exp = g[slots]
    a_exp = a[slots]

    threshold = c_obs - TIE_RTOL * max(1.0, c_obs)
    total = math.factorial(n_exp)
    hits = 0
    perm_iter = itertools.permutations(range(n_exp))
    chunk_size = 40320
    while True:
        chunk = list(itertools.islice(perm_iter, chunk_size))
        if not chunk:
            break
        P = np.array(chunk, dtype=np.int64)
        c_rep = _replicate_cmax(a_exp[P], g_exp, ls.mu, sd, keep)
        hits += int(np.sum(c_rep >= threshold))
    return hits / total


def adjust_pvalues(p_raw: np.ndarray) -> np.ndarray:
    """Bonferroni over the m covariates: p_adj_j = min(1, m * p_raw_j)."""
    p = np.asarray(p_raw, dtype=float)
    if np.any(p < 0) or np.any(p > 1):
        raise DataError("raw p-values must lie in [0, 1]")
    return np.minimum(1.0, p.shape[0] * p)


def test_statistic(
    g: np.ndarray,
    a: np.ndarray,
    w: np.ndarray,
    method: str = "asymptotic",
    replicates: int = 9999,
    seed: int = 0,
) -> tuple[float, float]:
    """(c_max, raw p-value) for one covariate under the chosen method."""
    ls = linear_statistic(g, a, w)
    c_max = standardize_max(ls)
    if method == "asymptotic":
        return c_max, pvalue_asymptotic(c_max, effective_dof(ls))
    if method == "montecarlo":
        return c_max, pvalue_montecarlo(g, a, w, replicates, seed)
    if method == "exact":
        return c_max, pvalue_exact(g, a, w)
    raise DataError(f"unknown test method {method!r}")
