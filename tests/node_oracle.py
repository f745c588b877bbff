"""Full-n node oracle: `fit`'s node loop as it was when every node carried a
case-weight vector over all n rows, zeros outside the node.

Children are split off with `subset_weights`, and midranks, scores, the
Kaplan-Meier median, the moments (with the full p x p sigma) and the split
search all run over every row, filtering to positive weights where they
must. It reuses only what that change left alone: the tree types, the
asymptotic p-value formulas, Bonferroni, and `mc_oracle` for Monte-Carlo
p-values (which the shared permutation engine matches bit for bit). Tests
compare it with `fit` to bound what computing on the node's rows alone
moves.
"""

from collections import deque

import numpy as np

from mc_oracle import VAR_TOL, _moments, montecarlo_test
from survtree import NUMERIC, SplitRule, Tree, TreeNode
from survtree.permstat import SplitTest, adjust_pvalues, log_pvalue_asymptotic, pvalue_asymptotic


def _event_table(time, event, w):
    uniq, inverse = np.unique(time, return_inverse=True)
    d = np.bincount(inverse, weights=np.where(event, w, 0.0), minlength=uniq.size)
    w_at = np.bincount(inverse, weights=w, minlength=uniq.size)
    r = w.sum() - np.concatenate(([0.0], np.cumsum(w_at)[:-1]))
    has_event = d > 0
    return uniq[has_event], d[has_event], r[has_event]


def _logrank_scores(time, event, w):
    ev_times, d, r = _event_table(time, event, w)
    if ev_times.size == 0:
        return np.zeros_like(time)
    lam = np.concatenate(([0.0], np.cumsum(d / r)))[np.searchsorted(ev_times, time, side="right")]
    return np.where(event, 1.0, 0.0) - lam


def _km_median(time, event, w):
    ev_times, d, r = _event_table(time, event, w)
    for t, s in zip(ev_times, np.cumprod(1.0 - d / r)):
        if s <= 0.5:
            return float(t)
    return None


def _weighted_midranks(x, w):
    out = np.zeros_like(x)
    active = np.flatnonzero(w > 0)
    xa, wa = x[active], w[active]
    order = np.argsort(xa, kind="stable")
    xs, ws = xa[order], wa[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(xs)) + 1))
    cum = np.concatenate(([0.0], np.cumsum(ws)))
    block = np.searchsorted(starts, np.arange(xs.size), side="right") - 1
    ends = np.concatenate((starts[1:], [xs.size]))
    out[active[order]] = cum[starts][block] + ((cum[ends] - cum[starts])[block] + 1.0) / 2.0
    return out


def _asymptotic_test(g, a, w):
    T, mu, sigma = _moments(g, a, w)
    diag = np.diagonal(sigma)
    keep = diag > VAR_TOL
    c_max = float((np.abs(T[keep] - mu[keep]) / np.sqrt(diag[keep])).max()) if keep.any() else 0.0
    dof = int(keep.sum())
    return c_max, pvalue_asymptotic(c_max, dof), dof


def _best_split(w, cov, scores, cfg):
    active = w > 0
    w_a, a_a = w[active], scores[active]
    wsum = float(w_a.sum())
    e_hat = float(w_a @ a_a) / wsum
    v_hat = float(w_a @ ((a_a - e_hat) ** 2)) / wsum
    numeric = cov.kind == NUMERIC or cov.ordered
    if numeric:
        x_a = np.asarray(cov.values, dtype=float)[active]
        order = np.argsort(x_a, kind="stable")
        xs, ws, sc = x_a[order], w_a[order], a_a[order]
        boundary = np.nonzero(np.diff(xs))[0]
        if boundary.size == 0:
            return None
        w_left = np.cumsum(ws)[boundary]
        T = np.cumsum(ws * sc)[boundary]
    else:
        K = cov.n_levels
        vals = cov.values[active]
        w_level = np.bincount(vals, weights=w_a, minlength=K)
        s_level = np.bincount(vals, weights=w_a * a_a, minlength=K)
        subsets = [[0] + [k for k in range(1, K) if mask & (1 << (k - 1))] for mask in range(2 ** (K - 1) - 1)]
        w_left = np.array([w_level[members].sum() for members in subsets])
        T = np.array([s_level[members].sum() for members in subsets])
    var = v_hat * w_left * (wsum - w_left) / (wsum - 1.0)
    stat = np.zeros_like(T)
    ok = var > VAR_TOL
    stat[ok] = np.abs(T[ok] - e_hat * w_left[ok]) / np.sqrt(var[ok])
    feasible = (w_left >= cfg.minbucket) & (wsum - w_left >= cfg.minbucket)
    if not np.any(feasible):
        return None
    stat = np.where(feasible, stat, -np.inf)
    top = stat.max()
    best = int(np.flatnonzero(stat >= top - 1e-12 * max(1.0, abs(top)))[0])
    if numeric:
        return SplitRule(cov.name, cutoff=float(xs[boundary[best]]))
    return SplitRule(cov.name, subset=tuple(cov.levels[k] for k in subsets[best]))


def _subset_weights(ds, w, rule):
    cov = ds.covariate(rule.covariate)
    left = np.where(rule.holds(cov.values, cov.levels), w, 0.0)
    return left, w - left


def oracle_fit(ds, cfg, weights=None):
    """The tree `fit(ds, cfg, weights)` grew with full-n weight vectors.
    Asymptotic and Monte-Carlo tests only; inputs are assumed valid."""
    time, event = ds.response.time, ds.response.event
    w0 = np.ones(ds.n) if weights is None else np.asarray(weights, dtype=float)
    onehot = {}
    for c in ds.covariates:
        if c.kind != NUMERIC and not c.ordered:
            onehot[c.name] = np.zeros((ds.n, c.n_levels))
            onehot[c.name][np.arange(ds.n), c.values] = 1.0

    def design(cov, w):
        if cov.name in onehot:
            return onehot[cov.name]
        return _weighted_midranks(np.asarray(cov.values, dtype=float), w).reshape(-1, 1)

    def test(g, a, w):
        if cfg.test.name == "asymptotic":
            return _asymptotic_test(g, a, w)
        c_max, p = montecarlo_test(g, a, w, cfg.test.replicates, cfg.test.seed)
        return c_max, p, _asymptotic_test(g, a, w)[2]

    nodes = {}
    next_id = 2
    queue = deque([(1, w0, 0)])
    while queue:
        nid, w, depth = queue.popleft()
        n_eff = float(w.sum())
        base = dict(
            id=nid, depth=depth, n_effective=n_eff, events=float(w[event].sum()),
            km_median=_km_median(time, event, w),
        )
        if cfg.max_depth is not None and depth >= cfg.max_depth:
            nodes[nid] = TreeNode(**base, stop_reason="max_depth")
            continue
        if n_eff < cfg.minsplit:
            nodes[nid] = TreeNode(**base, stop_reason="minsplit")
            continue
        scores = _logrank_scores(time, event, w)
        raw = [test(design(c, w), scores, w) for c in ds.covariates]
        p_adj = adjust_pvalues(np.array([p for _, p, _ in raw]))
        tests = tuple(
            SplitTest(c.name, cm, pr, float(pa), cfg.test.name)
            for c, (cm, pr, _), pa in zip(ds.covariates, raw, p_adj)
        )
        tied = np.flatnonzero(p_adj <= p_adj.min() * (1.0 + 1e-10))
        j = int(tied[0])
        if p_adj[j] == 0.0 and tied.size > 1:
            j = int(min(tied, key=lambda k: log_pvalue_asymptotic(raw[k][0], raw[k][2])))
        p_min = float(p_adj[j])
        if p_min > cfg.alpha:
            nodes[nid] = TreeNode(**base, tests=tests, p_adjusted=p_min, stop_reason="alpha")
            continue
        rule = _best_split(w, ds.covariates[j], scores, cfg)
        if rule is None:
            nodes[nid] = TreeNode(**base, tests=tests, p_adjusted=p_min, stop_reason="minbucket")
            continue
        w_left, w_right = _subset_weights(ds, w, rule)
        children = (next_id, next_id + 1)
        next_id += 2
        nodes[nid] = TreeNode(**base, tests=tests, p_adjusted=p_min, split=rule, children=children)
        queue.append((children[0], w_left, depth + 1))
        queue.append((children[1], w_right, depth + 1))
    return Tree(nodes=nodes, config=cfg, covariate_info=tuple(c.info for c in ds.covariates))
