"""Recursive binary partitioning driven by permutation tests.

At each node (the learning-sample rows it holds, in row order, with their
case weights, all positive; the root drops zero-weight rows once, and sorts
the times and each numeric or ordered covariate once, for every node to
inherit its share of those orders):

1. recompute log-rank scores from the node's rows alone and test every
   covariate's association with them;
2. stop if the smallest Bonferroni-adjusted p-value exceeds alpha (or the
   node is too light, or the depth bound is hit);
3. otherwise split the selected covariate at the cut-off maximizing the
   standardized two-sample statistic, subject to minbucket, and recurse.

Numeric and ordered covariates enter the selection tests as within-node
weighted midranks rather than raw values. Ranks carry the same ordering
information, make selection invariant under strictly increasing transforms
of a covariate (so tree topology cannot depend on whether, say, a lab value
is logged), and equal the expanded-multiset ranks under integer case
weights. Split cut-offs are still searched over the raw observed values.

Node ids are assigned in level order with the root at 1. Every leaf records
why it stopped: "alpha", "minsplit", "minbucket" or "max_depth".
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .data import CATEGORICAL, NUMERIC, Covariate, CovariateInfo, Dataset, SplitRule, typed_value, usable
from .errors import DataError, FitError
from .influence import encode_covariate, risk_table, run_bounds, table_scores
from .km import KMCurve
from .permstat import (
    SplitTest, TestMethod, adjust_pvalues, indicator_statistics, log_pvalue_asymptotic, node_moments, test_statistic,
)

MAX_CATEGORICAL_LEVELS = 10


@dataclass(frozen=True)
class FitConfig:
    alpha: float = 0.05
    minsplit: float = 20.0
    minbucket: float = 7.0
    max_depth: int | None = None
    test: TestMethod = field(default_factory=TestMethod)

    def validate(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise FitError(f"alpha must be in (0, 1), got {self.alpha}")
        if not math.isfinite(self.minbucket) or self.minbucket < 1:
            raise FitError(f"minbucket must be finite and >= 1, got {self.minbucket}")
        if not math.isfinite(self.minsplit):
            raise FitError(f"minsplit must be finite, got {self.minsplit}")
        if self.minsplit < 2 * self.minbucket:
            raise FitError(
                f"minsplit ({self.minsplit}) must be >= 2 * minbucket ({self.minbucket})"
            )
        if self.max_depth is not None and (type(self.max_depth) is not int or self.max_depth < 0):
            raise FitError(f"max_depth must be None or an int >= 0, got {self.max_depth!r}")
        self.test.validate()


@dataclass(frozen=True)
class TreeNode:
    """One cell of the partition. Internal nodes carry the split rule and the
    selected adjusted p-value; leaves carry the stop reason. Both summarize
    their observations with effective size, weighted event count and the
    Kaplan-Meier median (None if the curve never reaches 0.5). `tests` holds
    every covariate's selection test on a fitted tree and is None on a tree
    loaded from its document, which does not store them."""

    id: int
    depth: int
    n_effective: float
    events: float
    km_median: float | None
    tests: tuple[SplitTest, ...] | None = None
    p_adjusted: float | None = None
    split: SplitRule | None = None
    children: tuple[int, int] | None = None
    stop_reason: str | None = None

    @property
    def is_leaf(self) -> bool:
        return self.split is None


@dataclass(frozen=True)
class Tree:
    """A fitted or loaded tree. `nodes` maps id to node in level order, so
    every parent comes before its children; the root is node 1."""

    nodes: dict[int, TreeNode]
    config: FitConfig
    covariate_info: tuple[CovariateInfo, ...]

    @property
    def root(self) -> TreeNode:
        return self.nodes[1]

    def leaves(self) -> list[TreeNode]:
        return [self.nodes[i] for i in sorted(self.nodes) if self.nodes[i].is_leaf]

    def depth(self) -> int:
        return max(n.depth for n in self.nodes.values())

    def info(self, name: str) -> CovariateInfo:
        for ci in self.covariate_info:
            if ci.name == name:
                return ci
        raise DataError(f"tree uses unknown covariate {name!r}")

    @functools.cached_property
    def routes(self) -> dict[int, tuple]:
        """What `predict_node` needs at each internal node, by id: the split
        covariate, its cut-off (None for a categorical), the child each of a
        categorical's levels goes to (None for a numeric), and the left and
        right children. Built once per tree."""
        routes = {}
        for node in self.nodes.values():
            if not node.is_leaf:
                rule, (left, right) = node.split, node.children
                levels = self.info(rule.covariate).levels
                child_of = None if levels is None else {
                    level: left if rule.holds(i, levels) else right for i, level in enumerate(levels)
                }
                routes[node.id] = (rule.covariate, rule.cutoff, child_of, left, right)
        return routes


def stable_argsort(x: np.ndarray) -> np.ndarray:
    """`np.argsort(x, kind="stable")`, bit for bit, from numpy's default
    sort: each run of equal values (NaNs, which sort last, count as equal)
    is put back in row order by sorting the keys run * n + row, which are
    distinct int64s. Without ties the default order is the stable one."""
    order = np.argsort(x)
    n = order.size
    xs = x[order]
    bounds = run_bounds(xs)
    if n and xs[-1] != xs[-1]:  # NaN != NaN: the run of NaNs at the end is one run
        bounds = np.append(bounds[bounds <= np.argmax(xs != xs)], n)
    if bounds.size > n:  # n runs of one value each
        return order
    run = (np.arange(bounds.size - 1) * n).repeat(np.diff(bounds))  # each sorted value's run, times n
    key = run + order
    key.sort()  # a run keeps its place, its rows come in row order
    key -= run
    return key


def weighted_midranks(x: np.ndarray, w: np.ndarray, order: np.ndarray | None = None) -> np.ndarray:
    """Midranks of x over the weight-expanded multiset: for observation i,
    (weight below x_i) + (weight at x_i + 1) / 2. Weights are positive.
    `order` is a stable argsort of x, if the caller holds one."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if order is None:
        order = stable_argsort(x)
    bounds = run_bounds(x[order])
    cum = np.zeros(x.size + 1)  # weight below each sorted position
    w[order].cumsum(out=cum[1:])
    w_below = cum[bounds[:-1]]
    w_at = cum[bounds[1:]] - w_below
    out = np.empty_like(x)
    out[order] = (w_below + (w_at + 1.0) / 2.0).repeat(bounds[1:] - bounds[:-1])
    return out


def _cutoff_scan(x: np.ndarray, w: np.ndarray, scores: np.ndarray, order: np.ndarray):
    """Every candidate cut-off of x (each distinct value but the largest), with
    the weight and the weighted score sum of the rows at or below it, from
    `order`, a stable argsort of x."""
    xs, ws, sc = x[order], w[order], scores[order]
    boundary = run_bounds(xs)[1:-1] - 1  # the last value of each run but the last
    return xs[boundary], np.cumsum(ws)[boundary], np.cumsum(ws * sc)[boundary]


def best_split(
    w: np.ndarray, cov: Covariate, scores: np.ndarray, cfg: FitConfig, order: np.ndarray | None = None
) -> SplitRule | None:
    """Best binary split of `cov` for a node: `cov.values`, `scores` and the
    case weights `w` hold the node's rows, and every weight is positive
    (DataError otherwise). `order` is a stable argsort of a numeric or
    ordered covariate's values, if the caller holds one.

    Numeric / ordered: scans every distinct observed value except the largest
    as a candidate cut-off, maximizing the standardized two-sample statistic;
    ties go to the smaller cut-off. Categorical: scans all 2^(K-1) - 1
    nontrivial level subsets, each represented by the side containing the
    first declared level, in ascending bitmask order. Candidates leaving a
    child below minbucket are discarded; None if nothing is feasible.

    Tie-breaking treats statistics within 1e-12 (relative) of the maximum as
    tied and keeps the earliest candidate: genuinely tied candidates (mirror
    subsets around an unobserved level, symmetric score patterns) must not
    be decided by floating-point summation order.
    """
    w = np.asarray(w, dtype=float)
    scores = np.asarray(scores, dtype=float)
    if not np.all(w > 0):
        raise DataError("best_split needs positive case weights")
    wsum, e_hat, v_hat = node_moments(scores, w)

    numeric = cov.kind == NUMERIC or cov.ordered
    if numeric:
        x = np.asarray(cov.values, dtype=float)
        cutoffs, w_left, T = _cutoff_scan(x, w, scores, stable_argsort(x) if order is None else order)
        if cutoffs.size == 0:
            return None
    else:
        K = cov.n_levels
        w_level = np.bincount(cov.values, weights=w, minlength=K)
        s_level = np.bincount(cov.values, weights=w * scores, minlength=K)
        subsets = [  # level 0 always in; full set excluded
            [0] + [k for k in range(1, K) if mask & (1 << (k - 1))] for mask in range(2 ** (K - 1) - 1)
        ]
        w_left = np.array([w_level[members].sum() for members in subsets])
        T = np.array([s_level[members].sum() for members in subsets])
    # with a feasible split, wsum >= 2 * minbucket >= 2, so the variance's wsum - 1 is positive
    feasible = (w_left >= cfg.minbucket) & (wsum - w_left >= cfg.minbucket)
    if not np.any(feasible):
        return None
    stat = np.where(feasible, indicator_statistics(T, w_left, wsum, e_hat, v_hat), -np.inf)
    top = stat.max()
    best = int(np.flatnonzero(stat >= top - 1e-12 * max(1.0, abs(top)))[0])
    if numeric:
        return SplitRule(cov.name, cutoff=float(cutoffs[best]))
    return SplitRule(cov.name, subset=tuple(cov.levels[k] for k in subsets[best]))


def _split_orders(orders: list[np.ndarray | None], left: np.ndarray) -> tuple[tuple, tuple]:
    """Each order of a node's rows split into its children's: the left and
    the right rows, each in the order they had, renumbered within their
    child. An argsort of the node's values split so is an argsort of each
    child's, and a stable one stays stable."""
    position = np.where(left, np.cumsum(left), np.cumsum(~left)) - 1  # a row's index within its child

    def halves(order):
        goes_left = left[order]
        return position[order[goes_left]], position[order[~goes_left]]

    return tuple(zip(*((None, None) if order is None else halves(order) for order in orders)))


def fit(ds: Dataset, cfg: FitConfig, weights: np.ndarray | None = None) -> Tree:
    """Grow a conditional-inference survival tree on `ds`.

    `weights` are optional root case weights (default all ones); integer
    weights grow the same tree as physically replicating rows, and rows of
    weight 0 are dropped before the root, so the tree is the one grown
    without them, bit for bit. Requires at least one positively weighted
    event.
    """
    cfg.validate()
    if weights is None:
        w0 = np.ones(ds.n)
    else:
        w0 = np.asarray(weights, dtype=float)
        if w0.shape != (ds.n,):
            raise FitError(f"weights have shape {w0.shape}, expected ({ds.n},)")
        if not np.all(np.isfinite(w0)) or np.any(w0 < 0):
            raise FitError("case weights must be finite and non-negative")
    if float(w0[ds.response.event].sum()) <= 0:
        raise FitError("dataset has no (positively weighted) events")
    if not ds.covariates:
        raise FitError("dataset has no covariates to split on")
    for cov in ds.covariates:
        if cov.kind == CATEGORICAL and not cov.ordered and cov.n_levels > MAX_CATEGORICAL_LEVELS:
            raise FitError(
                f"covariate {cov.name!r} has {cov.n_levels} levels; subset search is "
                f"capped at {MAX_CATEGORICAL_LEVELS} (declare it ordinal or regroup)"
            )

    # per covariate, what a node takes its selection design's rows from: the
    # one-hot matrix (2-d), or the values it ranks within the node (1-d)
    sources = [
        encode_covariate(c) if c.kind == CATEGORICAL and not c.ordered else np.asarray(c.values, dtype=float)
        for c in ds.covariates
    ]

    nodes: dict[int, TreeNode] = {}
    next_id = 2
    root_rows = np.flatnonzero(w0 > 0)
    # orders of the times and of each ranked covariate, sorted once at the
    # root: a node's are its parent's restricted to its rows. Midranks and
    # cut-off scans sum in sorted order, so their orders are stable; the risk
    # table sums in row order, so any order of the times will do.
    root_orders = [np.argsort(ds.response.time[root_rows])] + [
        None if s.ndim == 2 else stable_argsort(s[root_rows]) for s in sources
    ]
    queue = deque([(1, root_rows, w0[root_rows], root_orders, 0)])

    while queue:
        nid, rows, w, orders, depth = queue.popleft()
        time_order, *cov_orders = orders
        time, event = ds.response.time[rows], ds.response.event[rows]
        n_eff = float(w.sum())
        ev_times, d, r, passed = risk_table(time, event, w, time_order)  # feeds the KM median and the scores
        # the node's fields, collected as its steps run; the first stop reason ends them
        node = dict(
            id=nid, depth=depth, n_effective=n_eff, events=float(w[event].sum()),
            km_median=KMCurve(ev_times, np.cumprod(1.0 - d / r)).median,
        )
        stop = None
        if cfg.max_depth is not None and depth >= cfg.max_depth:
            stop = "max_depth"
        elif n_eff < cfg.minsplit:
            stop = "minsplit"

        if stop is None:
            scores = table_scores(event, d, r, passed)
            try:
                designs = [
                    s.take(rows, axis=0) if s.ndim == 2 else weighted_midranks(s[rows], w, order).reshape(-1, 1)
                    for s, order in zip(sources, cov_orders)
                ]
                raw = test_statistic(designs, scores, w, cfg.test)
            except DataError as exc:
                raise FitError(f"node {nid}: {exc}") from exc
            p_adj = adjust_pvalues(np.array([p for _, p, _ in raw]))
            # ties go to declaration order; p-values within 1e-10 relative count
            # as tied so that two covariates inducing the same partition are not
            # ranked by floating-point summation noise. Asymptotic p-values that
            # underflowed to 0.0 are ranked by their log instead.
            tied = np.flatnonzero(p_adj <= p_adj.min() * (1.0 + 1e-10))
            j = int(tied[0])
            if p_adj[j] == 0.0 and tied.size > 1:
                j = int(min(tied, key=lambda k: log_pvalue_asymptotic(raw[k][0], raw[k][2])))
            node["tests"] = tuple(
                SplitTest(c.name, cm, pr, float(pa), cfg.test.name)
                for c, (cm, pr, _), pa in zip(ds.covariates, raw, p_adj)
            )
            node["p_adjusted"] = float(p_adj[j])
            stop = "alpha" if node["p_adjusted"] > cfg.alpha else None

        if stop is None:
            cov = replace(ds.covariates[j], values=ds.covariates[j].values[rows])
            rule = best_split(w, cov, scores, cfg, cov_orders[j])
            stop = "minbucket" if rule is None else None

        if stop is None:
            left = rule.holds(cov.values, cov.levels)
            node["split"], node["children"] = rule, (next_id, next_id + 1)
            next_id += 2
            for child, side, child_orders in zip(node["children"], (left, ~left), _split_orders(orders, left)):
                queue.append((child, rows[side], w[side], child_orders, depth + 1))
        nodes[nid] = TreeNode(**node, stop_reason=stop)

    return Tree(nodes=nodes, config=cfg, covariate_info=tuple(c.info for c in ds.covariates))


def predict_node(tree: Tree, observation: dict) -> int:
    """The leaf id one observation (mapping covariate name -> value) reaches:
    the leaf `route` gives the same row, each value typed as a CSV cell (a
    missing name reads as a blank cell). DataError "no usable value for
    split covariate 'c': <value>" where `route` would stop."""
    nid, routes = 1, tree.routes
    while nid in routes:
        name, cutoff, child_of, left, right = routes[nid]
        value = observation.get(name, "")
        if child_of is None:
            x = typed_value(value)
            child = (left if x <= cutoff else right) if usable(x, None) else None
        else:
            child = child_of.get(str(value).strip())  # typed_value's level lookup
        if child is None:
            raise DataError(f"no usable value for split covariate {name!r}: {value!r}")
        nid = child
    return nid


def route(tree: Tree, columns: dict[str, np.ndarray], n: int) -> np.ndarray:
    """The deepest node each of `n` rows reaches, from the split rules `fit`
    partitions by applied to whole columns. `columns` maps every covariate
    the tree splits on to its typed column (`data.typed_column`, with the
    levels the tree declares). A row stops at the first split where its value
    is not `usable`, so it ends at an internal node exactly when it cannot be
    routed."""
    node_of = np.ones(n, dtype=np.int64)
    for node in tree.nodes.values():  # parents first: a node's rows are settled
        if not node.is_leaf:
            x = columns[node.split.covariate]
            levels = tree.info(node.split.covariate).levels
            rows = np.flatnonzero((node_of == node.id) & usable(x, levels))
            left = node.split.holds(x[rows], levels)
            node_of[rows] = np.where(left, *node.children)
    return node_of
