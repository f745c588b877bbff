"""Reference computations the benchmark checks survtree's outputs against.

Numpy only, and written from the formulas in the package README rather than
from survtree's code: nothing here imports survtree. Every function takes
plain arrays (or a parsed tree document), so the checks compare two
independent computations of the same quantity.
"""

from __future__ import annotations

import numpy as np

# coordinates whose permutation variance is at or below this are skipped
VAR_TOL = 1e-10
# relative slack under which permutation statistics count as ties
TIE_RTOL = 1e-8


def logrank_scores(time, event, weights=None):
    """a_i = event_i - Lambda(t_i), Lambda the weighted Nelson-Aalen
    cumulative hazard. Ties: rows censored at an event time s are still at
    risk for the events at s (events before censoring)."""
    t = np.asarray(time, dtype=float)
    d = np.asarray(event, dtype=bool)
    w = np.ones_like(t) if weights is None else np.asarray(weights, dtype=float)
    has_event = d & (w > 0)
    event_times = np.unique(t[has_event])
    if event_times.size == 0:
        return np.zeros_like(t)
    deaths = np.zeros(event_times.size)
    np.add.at(deaths, np.searchsorted(event_times, t[has_event]), w[has_event])
    # at risk at s: total weight of rows with t >= s
    order = np.argsort(t, kind="stable")
    t_sorted = t[order]
    weight_from = np.cumsum(w[order][::-1])[::-1]
    at_risk = weight_from[np.searchsorted(t_sorted, event_times, side="left")]
    cumhaz = np.concatenate(([0.0], np.cumsum(deaths / at_risk)))
    # Lambda(t_i) counts every event time s <= t_i
    return d.astype(float) - cumhaz[np.searchsorted(event_times, t, side="right")]


def twosample_scan(x, scores, minbucket):
    """Standardized two-sample statistic of every cut-off `x <= c` (unit
    weights), c running over the distinct values of x except the largest.

    stat(c) = |T - n_l * E| / sqrt(V * n_l * (n - n_l) / (n - 1)), with T the
    score sum left of the cut, E and V the mean and (1/n) variance of all
    scores. Cut-offs leaving fewer than `minbucket` rows on a side get -inf.
    Returns (cutoffs, stats).
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(scores, dtype=float)
    n = x.size
    values, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    n_left = np.cumsum(counts)[:-1].astype(float)
    t_left = np.cumsum(np.bincount(inverse, weights=a, minlength=values.size))[:-1]
    e = a.mean()
    v = np.mean((a - e) ** 2)
    var = v * n_left * (n - n_left) / (n - 1.0)
    stats = np.full(n_left.size, -np.inf)
    ok = (n_left >= minbucket) & (n - n_left >= minbucket) & (var > VAR_TOL)
    stats[ok] = np.abs(t_left[ok] - n_left[ok] * e) / np.sqrt(var[ok])
    return values[:-1], stats


def midranks(x, weights=None):
    """Rank of each row over the weight-expanded multiset: weight strictly
    below x_i plus (weight at x_i + 1) / 2."""
    x = np.asarray(x, dtype=float)
    w = np.ones_like(x) if weights is None else np.asarray(weights, dtype=float)
    values, inverse = np.unique(x, return_inverse=True)
    at = np.bincount(inverse, weights=w, minlength=values.size)
    below = np.concatenate(([0.0], np.cumsum(at)[:-1]))
    return below[inverse] + (at[inverse] + 1.0) / 2.0


def onehot(codes, n_levels):
    """n x K indicator design of level indices."""
    codes = np.asarray(codes, dtype=np.int64)
    return (codes[:, None] == np.arange(n_levels)[None, :]).astype(float)


def _moments(g, a, w):
    """(mu, sd, keep) of the linear statistic T = sum_i w_i g_i a_i under
    permutation of the scores, per coordinate."""
    wsum = w.sum()
    e = (w @ a) / wsum
    v = (w @ (a - e) ** 2) / wsum
    g_sum = w @ g
    g_sq = w @ (g * g)
    var = wsum / (wsum - 1.0) * v * g_sq - v * g_sum * g_sum / (wsum - 1.0)
    keep = var > VAR_TOL
    return e * g_sum, np.sqrt(np.where(keep, var, 1.0)), keep


def c_max(design, scores, weights=None):
    """max_k |T_k - mu_k| / sqrt(sigma_kk) over coordinates with
    sigma_kk > 1e-10, 0.0 if there are none."""
    g = np.asarray(design, dtype=float)
    g = g.reshape(-1, 1) if g.ndim == 1 else g
    a = np.asarray(scores, dtype=float)
    w = np.ones_like(a) if weights is None else np.asarray(weights, dtype=float)
    mu, sd, keep = _moments(g, a, w)
    if not keep.any():
        return 0.0
    T = (w * a) @ g
    return float(np.max(np.abs(T - mu)[keep] / sd[keep]))


def permutation_pvalues(designs, scores, replicates, rng, batch=1000):
    """Monte-Carlo permutation p-value of c_max for each design, unit
    weights: (1 + #{c_b >= c_obs}) / (B + 1), ties within TIE_RTOL counted
    as hits. All designs share the B permutations drawn from `rng`."""
    a = np.asarray(scores, dtype=float)
    tests = []
    for design in designs:
        g = np.asarray(design, dtype=float)
        g = g.reshape(-1, 1) if g.ndim == 1 else g
        mu, sd, keep = _moments(g, a, np.ones_like(a))
        observed = c_max(g, a)
        tests.append((g, mu, sd, keep, observed - TIE_RTOL * max(1.0, observed)))
    hits = np.zeros(len(tests), dtype=np.int64)
    for start in range(0, replicates, batch):
        size = min(batch, replicates - start)
        permuted = a[rng.permuted(np.tile(np.arange(a.size), (size, 1)), axis=1)]
        for j, (g, mu, sd, keep, threshold) in enumerate(tests):
            if keep.any():
                z = np.abs(permuted @ g - mu)[:, keep] / sd[keep]
                hits[j] += int(np.sum(z.max(axis=1) >= threshold))
            else:  # c_max is 0 for every permutation, so every one ties
                hits[j] += size
    return (1.0 + hits) / (replicates + 1.0)


def kaplan_meier(time, event):
    """Product-limit curve with unit weights: (event times, S just after
    each). S(s) = prod over event times u <= s of (1 - d(u) / R(u))."""
    t = np.asarray(time, dtype=float)
    d = np.asarray(event, dtype=bool)
    event_times, deaths = np.unique(t[d], return_counts=True)
    t_sorted = np.sort(t)
    at_risk = t.size - np.searchsorted(t_sorted, event_times, side="left")
    return event_times, np.cumprod(1.0 - deaths / at_risk)


def route_columns(doc, columns):
    """Leaf id of every row, routing whole columns through a parsed tree
    document. `columns` maps covariate name to an array of raw CSV cells.
    A missing or unparseable value at a split, or an unseen level, routes
    the row to leaf id -1."""
    covariates = {c["name"]: c for c in doc["config"]["covariates"]}
    nodes = {node["id"]: node for node in doc["nodes"]}
    n = len(next(iter(columns.values())))
    leaf = np.full(n, -1, dtype=np.int64)
    pending = [(1, np.ones(n, dtype=bool))]
    while pending:
        node_id, rows = pending.pop()
        node = nodes[node_id]
        if node["kind"] == "leaf":
            leaf[rows] = node_id
            continue
        meta = covariates[node["covariate"]]
        cells = np.char.strip(np.asarray(columns[node["covariate"]], dtype=str))
        split = node["split"]
        if meta["kind"] == "numeric":
            values = np.full(n, np.nan)
            filled = cells != ""
            values[filled] = cells[filled].astype(float)
            valid = np.isfinite(values)
            left = valid & (values <= split["cutoff"])
        else:
            levels = meta["levels"]
            valid = np.isin(cells, levels)
            if "cutoff" in split:  # ordered categorical: cut on the level index
                position = {level: i for i, level in enumerate(levels)}
                rank = np.array([position.get(c, -1) for c in cells])
                left = valid & (rank <= split["cutoff"])
            else:
                left = valid & np.isin(cells, split["subset"])
        left_id, right_id = node["children"]
        pending.append((left_id, rows & left))
        pending.append((right_id, rows & valid & ~left))
    return leaf
