"""Influence functions and covariate transformations.

The association machinery works on per-observation score vectors. For a
right-censored response the scores are log-rank scores

    a_i = event_i - cumhazard(t_i)

where cumhazard is the weighted Nelson-Aalen estimator: at each distinct
event time s, it jumps by d(s)/R(s) with d(s) the weighted events at s and
R(s) the weighted at-risk count (t_i >= s). Ties follow the
events-before-censoring convention: observations censored at s still count as
at risk for the events at s. With unit weights these scores sum to zero and
their two-group linear statistic reproduces the classical log-rank test.

All score dimensions here are 1 (scalar scores per observation).
"""

from __future__ import annotations

import numpy as np

from .data import CATEGORICAL, NUMERIC, Covariate
from .errors import DataError


def _checked(time, event, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """time, event and weights as arrays; DataError unless they have equal
    length and the weights are finite, non-negative and not all zero."""
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=bool)
    weights = np.asarray(weights, dtype=float)
    if time.shape != event.shape or time.shape != weights.shape:
        raise DataError("time, event and weights must have equal length")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise DataError("case weights must be finite and non-negative")
    if weights.sum() <= 0:
        raise DataError("all case weights are zero")
    return time, event, weights


def tie_blocks(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For sorted values `xs`: where each run of equal values starts, and the
    run each value belongs to (0, 1, ...)."""
    starts = np.empty(xs.size, dtype=bool)
    starts[:1] = True
    np.not_equal(xs[1:], xs[:-1], out=starts[1:])
    block = starts.cumsum()
    block -= 1
    return starts, block


def event_table(
    time: np.ndarray, event: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted risk table over distinct event times.

    Returns (times, d, r): the sorted distinct times at which at least one
    weighted event occurs, the weighted event mass d(s) at each, and the
    weighted at-risk count R(s) = sum of w_i over t_i >= s. Raises DataError
    unless time, event and weights have equal length and the weights are
    finite, non-negative and not all zero.
    """
    time, event, weights = _checked(time, event, weights)
    return risk_table(time, event, weights, time.argsort())[:3]


def risk_table(
    time: np.ndarray, event: np.ndarray, weights: np.ndarray, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`event_table`'s (times, d, r) from `order`, an argsort of `time`, and
    each row's number of event times at or before its own time.

    d and the weight at each time are summed over the rows in row order, so
    the table does not depend on how `order` breaks ties. Each time is the
    tie's first in `order`, except that a tie of -0.0 and 0.0 is the signed
    zero `np.unique` reports for it (`np.unique` sorts with `np.argsort`'s
    default quicksort, so from that order every time is `np.unique`'s).
    """
    ts = time[order]
    starts, block = tie_blocks(ts)
    tie = np.empty_like(block)  # each row's tie (0, 1, ... in time order), in row order
    tie[order] = block
    d = np.bincount(tie, weights=np.where(event, weights, 0.0))
    w_at = np.bincount(tie, weights=weights)
    # R(s) = total weight minus weight at strictly earlier times
    r = weights.sum() - np.concatenate(([0.0], w_at.cumsum()[:-1]))
    has_event = d > 0
    times = ts[starts]
    if ts.size and ts[0] <= 0.0 <= ts[-1]:
        zero_signs = np.signbit(ts[ts == 0.0])
        if zero_signs.any() and not zero_signs.all():
            times = np.unique(time, return_inverse=True)[0]
    return times[has_event], d[has_event], r[has_event], has_event.cumsum()[tie]


def logrank_scores(
    time: np.ndarray, event: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """Log-rank influence scores a_i = event_i - cumhazard(t_i).

    `weights` are case weights for the Nelson-Aalen estimate; scores are
    still returned for zero-weight observations (they are annihilated by the
    weights downstream anyway). Raises DataError if all weights are zero.
    """
    time = np.asarray(time, dtype=float)
    time, event, weights = _checked(time, event, np.ones_like(time) if weights is None else weights)
    _, d, r, passed = risk_table(time, event, weights, time.argsort())
    return table_scores(event, d, r, passed)


def table_scores(event: np.ndarray, d: np.ndarray, r: np.ndarray, passed: np.ndarray) -> np.ndarray:
    """Log-rank scores of the rows with flags `event` from their risk table:
    d and r as `risk_table` returns them, and `passed`, each row's number of
    event times at or before its own time."""
    if d.size == 0:
        return np.zeros(event.shape)
    # cumhazard evaluated at t_i includes the jump at s == t_i
    lam = np.concatenate(([0.0], np.cumsum(d / r)))[passed]
    return np.where(event, 1.0, 0.0) - lam


def encode_covariate(cov: Covariate) -> np.ndarray:
    """Transform a covariate into its n x p design matrix.

    numeric -> the raw column (p = 1); ordered categorical -> level indices
    as a numeric column (p = 1); unordered categorical with K levels ->
    one-hot matrix with columns in declared level order (p = K).
    """
    if cov.kind == NUMERIC:
        return np.asarray(cov.values, dtype=float).reshape(-1, 1)
    if cov.kind == CATEGORICAL and cov.ordered:
        return np.asarray(cov.values, dtype=float).reshape(-1, 1)
    g = np.zeros((cov.values.shape[0], cov.n_levels))
    g[np.arange(cov.values.shape[0]), cov.values] = 1.0
    return g
