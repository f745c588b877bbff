"""Permutation-test engine for the association between transformed
covariates and a score vector.

For an n x p design g, scores a and case weights w, the linear statistic is

    T = sum_i w_i * g_i * a_i            (a p-vector; scores are scalar)

and its conditional expectation and the variances sigma_kk of its
coordinates under random permutation of the scores given the weights are

    E_hat    = (1/w.) sum_i w_i a_i
    V_hat    = (1/w.) sum_i w_i (a_i - E_hat)^2
    mu       = E_hat * sum_i w_i g_i
    sigma_kk = w./(w.-1) * V_hat * sum_i w_i g_ik^2
               - 1/(w.-1) * V_hat * (sum_i w_i g_ik)^2

with w. = sum_i w_i. The test statistic is the maximum absolute standardized
coordinate c_max = max_k |T_k - mu_k| / sqrt(sigma_kk). A TestMethod says
how p-values are computed: by an asymptotic normal approximation, seeded
Monte-Carlo resampling, or exact enumeration over all permutations.
test_statistic is the one entry point: it checks the TestMethod (the rule a
fit's config and a tree file's config are checked by) and tests every
design of a node.

Determinism: the weighted sums over a node's rows (T, the moments of the
scores and the Gram diagonal) go through dot_by_blocks, which sums blocks of
at most DOT_BLOCK rows in row order, so they do not depend on the BLAS
thread count. Monte-Carlo replicate b draws from a numpy Philox stream keyed
by key = seed + (b+1) * 2^64, with seed in [0, 2^64), so the returned
p-value depends only on (inputs, seed, B), never on evaluation order.
Because replicate b depends only on (seed, b, n_exp), it is the same
permutation for every covariate of a node: test_statistic draws one
permutation set (Monte-Carlo replicates or, for exact, every permutation)
and scores each design on it in one resampling loop. Replicate comparisons
use c >= c_obs - 1e-8*max(1, c_obs): permutation ties are counted as "at
least as extreme" without float-rounding fragility, which can only enlarge
p-values.

The standard normal upper tail is evaluated with the Abramowitz & Stegun
26.2.17 rational approximation (absolute error < 7.5e-8); no statistics
library is involved anywhere in this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FitError

# a variance sigma_kk at or below this is treated as a degenerate coordinate
VAR_TOL = 1e-10
# relative slack for counting tied permutation statistics
TIE_RTOL = 1e-8
# exact enumeration bound: at most this many (expanded) observations
EXACT_MAX_N = 10
# rows per BLAS call in dot_by_blocks: OpenBLAS splits a dot product of more
# than 10,000 terms across its threads, and each thread count sums in its own
# order, while a call of this many rows gives the same bits at any count
DOT_BLOCK = 8192


@dataclass(frozen=True)
class SplitTest:
    """Result of one covariate's permutation test inside variable selection."""

    covariate: str
    c_max: float
    p_raw: float
    p_adjusted: float
    method: str


@dataclass(frozen=True)
class TestMethod:
    """How per-covariate p-values are computed: "asymptotic", "montecarlo"
    (with replicate count and seed), or "exact"."""

    __test__ = False  # keep pytest from collecting this as a test class

    name: str = "asymptotic"
    replicates: int = 9999
    seed: int = 0

    def validate(self) -> None:
        if self.name not in ("asymptotic", "montecarlo", "exact"):
            raise FitError(f"unknown test method {self.name!r}")
        for name, value in (("replicates", self.replicates), ("seed", self.seed)):
            if type(value) is not int:  # as a tree file stores it: not a bool, float or numpy int
                raise FitError(f"{name} must be an int, got {value!r}")
        if not 0 <= self.seed < 2**64:  # the low word of every replicate's Philox key
            raise FitError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.name == "montecarlo" and self.replicates < 1:
            raise FitError("montecarlo needs at least 1 replicate")


def _as_design(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.ndim == 1:
        g = g.reshape(-1, 1)
    if g.ndim != 2 or g.shape[1] == 0:
        raise DataError("design must be an n x p matrix with p >= 1")
    return g


def dot_by_blocks(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x.T @ y, for x and y of n rows (vectors or matrices), summed over
    blocks of at most DOT_BLOCK rows in row order, so that the result does
    not depend on the BLAS thread count. Up to DOT_BLOCK rows it is the one
    BLAS call x.T @ y, on views of the whole of x and y."""
    total = x[:DOT_BLOCK].T @ y[:DOT_BLOCK]
    for start in range(DOT_BLOCK, x.shape[0], DOT_BLOCK):
        total = total + x[start:start + DOT_BLOCK].T @ y[start:start + DOT_BLOCK]
    return total


def node_moments(a: np.ndarray, w: np.ndarray) -> tuple[float, float, float]:
    """(w., E_hat, V_hat) of a node's scores a under its non-negative case
    weights w, as the module docstring defines them, summed by dot_by_blocks.
    A node of no weight has no moments: its E_hat and V_hat read 0.0."""
    wsum = np.add.reduce(w)
    if not wsum:
        return wsum, 0.0, 0.0
    e_hat = float(dot_by_blocks(w, a)) / wsum
    centered = a - e_hat
    return wsum, e_hat, float(dot_by_blocks(w, centered * centered)) / wsum


def indicator_statistics(T: np.ndarray, w_left: np.ndarray, wsum: float, e_hat: float, v_hat: float) -> np.ndarray:
    """c_max of each of a batch of 0/1 designs (candidate splits) from its
    statistic T, its weight w_left = sum_i w_i g_i and the node's moments.
    For an indicator design, sum w g = sum w g^2 = w_left, so the
    permutation variance collapses to v_hat * w_left * (w. - w_left) / (w. - 1);
    a design whose variance is at or below VAR_TOL gets 0.0."""
    var = v_hat * w_left * (wsum - w_left) / (wsum - 1.0)
    stat = np.zeros_like(T)
    ok = var > VAR_TOL
    stat[ok] = np.abs(T[ok] - e_hat * w_left[ok]) / np.sqrt(var[ok])
    return stat


def _linear_statistics(designs: list[np.ndarray], a: np.ndarray, w: np.ndarray) -> tuple:
    """(T, mu, var): the observed statistic and its conditional moments
    (var holds the variances sigma_kk) over the coordinates of every n x p
    design, concatenated in design order. The float arrays a and w are
    checked once (every design's n, weights finite and non-negative, w. >= 2:
    the permutation variance has a w.-1 denominator) and their moments taken
    once; each design adds only its own sums, and the variances of all the
    designs' coordinates are taken in one step."""
    if a.ndim != 1 or w.shape != a.shape or any(g.shape[0] != a.shape[0] for g in designs):
        raise DataError("design, scores and weights disagree in length")
    if not np.isfinite(w).all() or (w < 0).any():
        raise DataError("case weights must be finite and non-negative")
    wsum, e_hat, v_hat = node_moments(a, w)
    if wsum < 2:
        raise DataError(f"total case weight {wsum} < 2: nothing to test")
    if not designs:
        return np.empty(0), np.empty(0), np.empty(0)

    T, g_sum, gram_diag = [], [], []
    w_col = w[:, None]
    for g in designs:
        wg = g * w_col                 # n x p
        g_sum.append(np.add.reduce(wg, axis=0))  # p: wg.sum(axis=0), without its Python wrapper
        # exactly this product and grouping: up to DOT_BLOCK rows they match the
        # diagonal of the full covariance (tests/mc_oracle.py) bit for bit, and
        # row sums of wg * g do not
        gram_diag.append(dot_by_blocks(wg, g).diagonal())  # sum_i w_i g_ik^2
        T.append(dot_by_blocks(wg, a))
    g_sum, gram_diag = np.concatenate(g_sum), np.concatenate(gram_diag)
    var = (wsum / (wsum - 1.0)) * v_hat * gram_diag - (1.0 / (wsum - 1.0)) * v_hat * (g_sum * g_sum)
    return np.concatenate(T), e_hat * g_sum, var


def _tail_poly(x: float) -> float:
    """The rational factor of Abramowitz & Stegun 26.2.17 at x >= 0."""
    t = 1.0 / (1.0 + 0.2316419 * x)
    return t * (
        0.319381530
        + t * (-0.356563782 + t * (1.781477937 + t * (-1.821255978 + t * 1.330274429)))
    )


def _normal_upper_tail(x: float) -> float:
    """Q(x) = 1 - Phi(x) for x >= 0, via Abramowitz & Stegun 26.2.17
    (|err| < 7.5e-8). Evaluated directly so tiny tails keep full precision."""
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * _tail_poly(x)


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
        return 0.0  # beyond float range (c_max > 38); fit ranks these by log p
    return -math.expm1(dof * math.log1p(-2.0 * q))


def log_pvalue_asymptotic(c_max: float, dof: int) -> float:
    """log of pvalue_asymptotic's p for large c_max, where p ~ 2*dof*Q(c_max):
    log(2 dof) - c_max^2/2 - log(2 pi)/2 + log poly(t), the same A&S 26.2.17
    expression in log space. It stays finite and ordered long after p
    underflows to 0.0. Requires c_max > 0 and dof >= 1."""
    return (
        math.log(2.0 * dof)
        - 0.5 * c_max * c_max
        - 0.5 * math.log(2.0 * math.pi)
        + math.log(_tail_poly(c_max))
    )


def _philox_permutations(a_exp: np.ndarray, B: int, seed: int):
    """Monte-Carlo replicates in batches: row b is the expanded scores a_exp
    shuffled by the Philox stream keyed seed + (b+1) * 2^64, which for 8-byte
    items makes the swaps permutation(n_exp) makes, so it is
    a_exp[permutation(n_exp)] bit for bit. One Philox is reset to each key
    and one buffer is refilled in place, so a batch is valid until the next."""
    bit_generator = np.random.Philox(key=int(seed))
    state = bit_generator.state  # key (seed, 0), counter and buffer as built
    key = state["state"]["key"]
    rng = np.random.Generator(bit_generator)
    # not a tuning knob: it fixes the rows of each BLAS product a_perm @ g_exp,
    # and a product of another row count can give a replicate other bits
    batch = max(1, 2_000_000 // a_exp.size)
    rows = np.empty((min(batch, B), a_exp.size))
    for start in range(0, B, batch):
        stop = min(B, start + batch)
        for b in range(start, stop):
            key[1] = b + 1
            bit_generator.state = state
            rows[b - start] = a_exp
            rng.shuffle(rows[b - start])
        yield rows[: stop - start]


def _all_permutations(a_exp: np.ndarray):
    """a_exp permuted every way, in batches of at most 8! rows."""
    perm_iter = itertools.permutations(range(a_exp.shape[0]))
    while chunk := list(itertools.islice(perm_iter, 40320)):
        yield a_exp[np.array(chunk, dtype=np.int64)]


def _count_hits(designs, kept, c_obs, slots, batches) -> list[int]:
    """Per design, how many permuted score rows (batches of rows over the
    expanded multiset `slots`) reach its observed c_max, ties counted with
    TIE_RTOL slack. `kept` holds each design's (keep, mu, sd) over its
    non-degenerate coordinates. Each batch is scored against every design."""
    prepared = [
        (g[slots], keep, mu, sd, c - TIE_RTOL * max(1.0, c))
        for g, (keep, mu, sd), c in zip(designs, kept, c_obs)
    ]
    hits = [0] * len(prepared)
    for a_perm in batches:
        for j, (g_exp, keep, mu, sd, threshold) in enumerate(prepared):
            z = np.abs((a_perm @ g_exp)[:, keep] - mu) / sd
            hits[j] += int(np.sum(z.max(axis=1, initial=0.0) >= threshold))
    return hits


def test_statistic(
    designs: list[np.ndarray], a: np.ndarray, w: np.ndarray, method: TestMethod = TestMethod()
) -> list[tuple[float, float, int]]:
    """(c_max, raw p-value, dof) for each of a node's selection designs
    (n x p, or n-vectors for p = 1) against scores a under case weights w,
    with p-values by `method` (FitError where `TestMethod.validate` refuses
    it). c_max = max_k |T_k - mu_k| / sqrt(var_k) over the coordinates with
    var_k > VAR_TOL, and dof counts them; with none, c_max is 0.0 and p 1.

    Resampling permutes the scores over the weight-expanded index multiset
    (unit weights: the n! score permutations), draws one permutation set for
    the node and scores every design on it: "montecarlo" gives
    (1 + #{c_b >= c_max}) / (B + 1) over its B replicates, "exact" the
    share of all permutations with c_b >= c_max, ties counted as >=. Both
    need integer weights, and "exact" at most EXACT_MAX_N expanded
    observations (DataError otherwise).
    """
    method.validate()
    designs = [_as_design(g) for g in designs]
    a = np.asarray(a, dtype=float)
    w = np.asarray(w, dtype=float)
    T, mu, var = _linear_statistics(designs, a, w)
    if not designs:
        return []
    # each design's coordinates start at `starts`; every design has at least one
    starts = list(itertools.accumulate((g.shape[1] for g in designs[:-1]), initial=0))
    keep = var > VAR_TOL
    sd = np.sqrt(var, where=keep, out=np.ones_like(var))
    z = np.abs(T - mu) / sd
    z[~keep] = 0.0  # c_max is the largest z over the kept coordinates, or 0.0
    c_max = np.maximum.reduceat(z, starts).tolist()
    dof = np.add.reduceat(keep, starts, dtype=np.int64).tolist()
    if method.name == "asymptotic":
        p_raw = [pvalue_asymptotic(c, k) for c, k in zip(c_max, dof)]
        return list(zip(c_max, p_raw, dof))

    if not np.all(w == np.rint(w)):
        raise DataError("resampling requires integer case weights")
    kept = []  # per design, (keep, mu, sd) over its non-degenerate coordinates
    for start, stop in zip(starts, starts[1:] + [len(var)]):
        k = keep[start:stop]
        kept.append((k, mu[start:stop][k], sd[start:stop][k]))
    slots = np.repeat(np.arange(w.shape[0]), w.astype(np.int64))  # weight-expanded
    a_exp = a[slots]
    n_exp = slots.shape[0]
    if method.name == "montecarlo":
        batches = _philox_permutations(a_exp, method.replicates, method.seed)
        hits = _count_hits(designs, kept, c_max, slots, batches)
        p_raw = [(1.0 + h) / (method.replicates + 1.0) for h in hits]
    else:
        if n_exp > EXACT_MAX_N:
            raise DataError(f"exact enumeration needs <= {EXACT_MAX_N} observations, got {n_exp}")
        hits = _count_hits(designs, kept, c_max, slots, _all_permutations(a_exp))
        p_raw = [h / math.factorial(n_exp) for h in hits]
    return list(zip(c_max, p_raw, dof))


def adjust_pvalues(p_raw: np.ndarray) -> np.ndarray:
    """Bonferroni over the m covariates: p_adj_j = min(1, m * p_raw_j)."""
    p = np.asarray(p_raw, dtype=float)
    if (p < 0).any() or (p > 1).any():
        raise DataError("raw p-values must lie in [0, 1]")
    return np.minimum(1.0, p.shape[0] * p)
