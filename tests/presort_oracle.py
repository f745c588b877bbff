"""The node computations as they were when every node sorted its own rows:
a stable `argsort` per call, the midrank tie index from `searchsorted`, the
risk table from `np.unique`, and each row's cumulative hazard found with
`searchsorted`. Weights are positive. Tests compare the presorted code that
replaced them with these, bit for bit.
"""

import numpy as np


def weighted_midranks(x, w):
    order = np.argsort(x, kind="stable")
    xs, ws = x[order], w[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(xs)) + 1))
    cum = np.concatenate(([0.0], np.cumsum(ws)))
    block = np.searchsorted(starts, np.arange(xs.size), side="right") - 1
    ends = np.concatenate((starts[1:], [xs.size]))
    w_below = cum[starts]
    w_at = cum[ends] - cum[starts]
    out = np.empty_like(x)
    out[order] = w_below[block] + (w_at[block] + 1.0) / 2.0
    return out


def numeric_scan(x, w, scores):
    """(cut-offs, left-child weights, left-child score sums) of every
    candidate split of a numeric covariate."""
    order = np.argsort(x, kind="stable")
    xs, ws, sc = x[order], w[order], scores[order]
    boundary = np.nonzero(np.diff(xs))[0]
    return xs[boundary], np.cumsum(ws)[boundary], np.cumsum(ws * sc)[boundary]


def event_table(time, event, weights):
    uniq, inverse = np.unique(time, return_inverse=True)
    d = np.bincount(inverse, weights=np.where(event, weights, 0.0), minlength=uniq.size)
    w_at = np.bincount(inverse, weights=weights, minlength=uniq.size)
    r = weights.sum() - np.concatenate(([0.0], np.cumsum(w_at)[:-1]))
    has_event = d > 0
    return uniq[has_event], d[has_event], r[has_event]


def logrank_scores(time, event, weights):
    ev_times, d, r = event_table(time, event, weights)
    if ev_times.size == 0:
        return np.zeros_like(time)
    pos = np.searchsorted(ev_times, time, side="right")
    lam = np.concatenate(([0.0], np.cumsum(d / r)))[pos]
    return np.where(event, 1.0, 0.0) - lam
