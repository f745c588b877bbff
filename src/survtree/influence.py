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
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=bool)
    weights = np.asarray(weights, dtype=float)
    if time.shape != event.shape or time.shape != weights.shape:
        raise DataError("time, event and weights must have equal length")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise DataError("case weights must be finite and non-negative")
    total = weights.sum()
    if total <= 0:
        raise DataError("all case weights are zero")

    uniq, inverse = np.unique(time, return_inverse=True)
    d = np.bincount(inverse, weights=np.where(event, weights, 0.0), minlength=uniq.size)
    w_at = np.bincount(inverse, weights=weights, minlength=uniq.size)
    # R(s) = total weight minus weight at strictly earlier times
    r = total - np.concatenate(([0.0], np.cumsum(w_at)[:-1]))
    has_event = d > 0
    return uniq[has_event], d[has_event], r[has_event]


def logrank_scores(
    time: np.ndarray, event: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """Log-rank influence scores a_i = event_i - cumhazard(t_i).

    `weights` are case weights for the Nelson-Aalen estimate; scores are
    still returned for zero-weight observations (they are annihilated by the
    weights downstream anyway). Raises DataError if all weights are zero.
    """
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=bool)
    if weights is None:
        weights = np.ones_like(time)
    return table_scores(time, event, *event_table(time, event, weights))


def table_scores(
    time: np.ndarray, event: np.ndarray, ev_times: np.ndarray, d: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """Log-rank scores of the rows (time, event) from their risk table
    (ev_times, d, r), as `event_table` returns it."""
    if ev_times.size == 0:
        return np.zeros_like(time)
    cumhaz = np.cumsum(d / r)
    # cumhazard evaluated at t_i includes the jump at s == t_i
    pos = np.searchsorted(ev_times, time, side="right")
    lam = np.concatenate(([0.0], cumhaz))[pos]
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
