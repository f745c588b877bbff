"""Recursive binary partitioning driven by permutation tests.

At each node (a case-weight vector over the learning sample):

1. recompute log-rank scores from the node's positively weighted
   observations and test every covariate's association with them;
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

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .data import CATEGORICAL, NUMERIC, Covariate, Dataset, SplitRule, subset_weights
from .errors import DataError, FitError
from .influence import encode_covariate, logrank_scores
from .km import km_estimate
from .permstat import VAR_TOL, SplitTest, adjust_pvalues, log_pvalue_asymptotic, test_statistic

MAX_CATEGORICAL_LEVELS = 10


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
        if self.name == "montecarlo" and self.replicates < 1:
            raise FitError("montecarlo needs at least 1 replicate")


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
        if self.max_depth is not None and self.max_depth < 0:
            raise FitError(f"max_depth must be >= 0, got {self.max_depth}")
        self.test.validate()


@dataclass(frozen=True)
class CovariateInfo:
    """Covariate metadata a fitted tree keeps for routing new observations."""

    name: str
    kind: str
    levels: tuple[str, ...] | None = None
    ordered: bool = False


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


def _node_moments(w: np.ndarray, a: np.ndarray) -> tuple[float, float, float]:
    wsum = float(w.sum())
    e_hat = float(w @ a) / wsum
    v_hat = float(w @ ((a - e_hat) ** 2)) / wsum
    return wsum, e_hat, v_hat


def weighted_midranks(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Midranks of x over the weight-expanded multiset: for observation i,
    (weight below x_i) + (weight at x_i + 1) / 2. Zero-weight rows get rank 0
    (they are annihilated by the weights downstream anyway)."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    out = np.zeros_like(x)
    active = np.flatnonzero(w > 0)
    if active.size == 0:
        return out
    xa, wa = x[active], w[active]
    order = np.argsort(xa, kind="stable")
    xs, ws = xa[order], wa[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(xs)) + 1))
    cum = np.concatenate(([0.0], np.cumsum(ws)))
    block = np.searchsorted(starts, np.arange(xs.size), side="right") - 1
    ends = np.concatenate((starts[1:], [xs.size]))
    w_below = cum[starts]
    w_at = cum[ends] - cum[starts]
    ranks_sorted = w_below[block] + (w_at[block] + 1.0) / 2.0
    out[active[order]] = ranks_sorted
    return out


def _tie_tol(top: float) -> float:
    """Relative slack under which candidate split statistics count as tied."""
    return 1e-12 * max(1.0, abs(top))


def _indicator_stats(
    T: np.ndarray, w_left: np.ndarray, wsum: float, e_hat: float, v_hat: float
) -> np.ndarray:
    """Standardized two-sample statistics for a batch of candidate splits.

    For an indicator design, sum w g = sum w g^2 = left-child weight, so the
    permutation variance collapses to v_hat * W_l * (w. - W_l) / (w. - 1).
    """
    var = v_hat * w_left * (wsum - w_left) / (wsum - 1.0)
    stat = np.zeros_like(T)
    ok = var > VAR_TOL
    stat[ok] = np.abs(T[ok] - e_hat * w_left[ok]) / np.sqrt(var[ok])
    return stat


def best_split(
    w: np.ndarray, cov: Covariate, scores: np.ndarray, cfg: FitConfig
) -> SplitRule | None:
    """Best binary split of `cov` for the node defined by weights `w`.

    Numeric / ordered: scans every distinct observed value except the largest
    as a candidate cut-off, maximizing the standardized two-sample statistic;
    ties go to the smaller cut-off. Categorical: scans all 2^(K-1) - 1
    nontrivial level subsets, each represented by the side containing the
    first declared level, in ascending bitmask order. Candidates leaving a
    child below minbucket are discarded; None if nothing is feasible.

    Tie-breaking treats statistics within 1e-12 (relative) of the maximum as
    tied and keeps the earliest candidate: genuinely tied candidates (mirror
    subsets around a zero-weight level, symmetric score patterns) must not
    be decided by floating-point summation order.
    """
    w = np.asarray(w, dtype=float)
    scores = np.asarray(scores, dtype=float)
    active = w > 0
    w_a = w[active]
    a_a = scores[active]
    wsum, e_hat, v_hat = _node_moments(w_a, a_a)
    minbucket = cfg.minbucket

    if cov.kind == NUMERIC or cov.ordered:
        x_a = np.asarray(cov.values, dtype=float)[active]
        order = np.argsort(x_a, kind="stable")
        xs, ws, sc = x_a[order], w_a[order], a_a[order]
        boundary = np.nonzero(np.diff(xs))[0]  # cut at xs[i] for xs[i] != xs[i+1]
        if boundary.size == 0:
            return None
        w_left = np.cumsum(ws)[boundary]
        T = np.cumsum(ws * sc)[boundary]
        stat = _indicator_stats(T, w_left, wsum, e_hat, v_hat)
        feasible = (w_left >= minbucket) & (wsum - w_left >= minbucket)
        if not np.any(feasible):
            return None
        stat = np.where(feasible, stat, -np.inf)
        best = int(np.flatnonzero(stat >= stat.max() - _tie_tol(stat.max()))[0])
        return SplitRule(cov.name, cutoff=float(xs[boundary[best]]))

    K = cov.n_levels
    vals = cov.values[active]
    w_level = np.bincount(vals, weights=w_a, minlength=K)
    s_level = np.bincount(vals, weights=w_a * a_a, minlength=K)
    candidates = []  # (stat, enumeration order, members)
    for mask in range(2 ** (K - 1) - 1):  # level 0 always in; full set excluded
        members = [0] + [k for k in range(1, K) if mask & (1 << (k - 1))]
        w_left = float(w_level[members].sum())
        if w_left < minbucket or wsum - w_left < minbucket:
            continue
        T = np.array([s_level[members].sum()])
        stat = float(_indicator_stats(T, np.array([w_left]), wsum, e_hat, v_hat)[0])
        candidates.append((stat, mask, members))
    if not candidates:
        return None
    top = max(stat for stat, _, _ in candidates)
    stat, _, members = next(c for c in candidates if c[0] >= top - _tie_tol(top))
    return SplitRule(cov.name, subset=tuple(cov.levels[k] for k in members))


def fit(ds: Dataset, cfg: FitConfig, weights: np.ndarray | None = None) -> Tree:
    """Grow a conditional-inference survival tree on `ds`.

    `weights` are optional root case weights (default all ones); integer
    weights grow the same tree as physically replicating rows. Requires at
    least one positively weighted event.
    """
    cfg.validate()
    time, event = ds.response.time, ds.response.event
    if weights is None:
        w0 = np.ones(ds.n)
    else:
        w0 = np.asarray(weights, dtype=float)
        if w0.shape != (ds.n,):
            raise FitError(f"weights have shape {w0.shape}, expected ({ds.n},)")
        if not np.all(np.isfinite(w0)) or np.any(w0 < 0):
            raise FitError("case weights must be finite and non-negative")
    if float(w0[event].sum()) <= 0:
        raise FitError("dataset has no (positively weighted) events")
    if not ds.covariates:
        raise FitError("dataset has no covariates to split on")
    for cov in ds.covariates:
        if cov.kind == CATEGORICAL and not cov.ordered and cov.n_levels > MAX_CATEGORICAL_LEVELS:
            raise FitError(
                f"covariate {cov.name!r} has {cov.n_levels} levels; subset search is "
                f"capped at {MAX_CATEGORICAL_LEVELS} (declare it ordinal or regroup)"
            )

    # one-hot designs are node-independent; rank designs are rebuilt per node
    onehot = {
        c.name: encode_covariate(c)
        for c in ds.covariates
        if c.kind == CATEGORICAL and not c.ordered
    }

    def selection_design(cov: Covariate, w: np.ndarray) -> np.ndarray:
        if cov.kind == NUMERIC or cov.ordered:
            return weighted_midranks(np.asarray(cov.values, dtype=float), w).reshape(-1, 1)
        return onehot[cov.name]

    nodes: dict[int, TreeNode] = {}
    next_id = 2
    queue: deque[tuple[int, np.ndarray, int]] = deque([(1, w0, 0)])

    while queue:
        nid, w, depth = queue.popleft()
        n_eff = float(w.sum())
        events_w = float(w[event].sum())
        base = dict(
            id=nid,
            depth=depth,
            n_effective=n_eff,
            events=events_w,
            km_median=km_estimate(time, event, w).median,
        )

        if cfg.max_depth is not None and depth >= cfg.max_depth:
            nodes[nid] = TreeNode(**base, stop_reason="max_depth")
            continue
        if n_eff < cfg.minsplit:
            nodes[nid] = TreeNode(**base, stop_reason="minsplit")
            continue

        scores = logrank_scores(time, event, w)
        try:
            raw = test_statistic(
                [selection_design(c, w) for c in ds.covariates],
                scores,
                w,
                cfg.test.name,
                cfg.test.replicates,
                cfg.test.seed,
            )
        except DataError as exc:
            raise FitError(f"node {nid}: {exc}") from exc
        p_adj = adjust_pvalues(np.array([p for _, p, _ in raw]))
        tests = tuple(
            SplitTest(c.name, cm, pr, float(pa), cfg.test.name)
            for c, (cm, pr, _), pa in zip(ds.covariates, raw, p_adj)
        )
        # ties go to declaration order; p-values within 1e-10 relative count
        # as tied so that two covariates inducing the same partition are not
        # ranked by floating-point summation noise. Asymptotic p-values that
        # underflowed to 0.0 are ranked by their log instead.
        tied = np.flatnonzero(p_adj <= p_adj.min() * (1.0 + 1e-10))
        j = int(tied[0])
        if p_adj[j] == 0.0 and tied.size > 1:
            j = int(min(tied, key=lambda k: log_pvalue_asymptotic(raw[k][0], raw[k][2])))
        p_min = float(p_adj[j])

        if p_min > cfg.alpha:
            nodes[nid] = TreeNode(**base, tests=tests, p_adjusted=p_min, stop_reason="alpha")
            continue
        rule = best_split(w, ds.covariates[j], scores, cfg)
        if rule is None:
            nodes[nid] = TreeNode(
                **base, tests=tests, p_adjusted=p_min, stop_reason="minbucket"
            )
            continue

        w_left, w_right = subset_weights(ds, w, rule)
        children = (next_id, next_id + 1)
        next_id += 2
        nodes[nid] = TreeNode(
            **base, tests=tests, p_adjusted=p_min, split=rule, children=children
        )
        queue.append((children[0], w_left, depth + 1))
        queue.append((children[1], w_right, depth + 1))

    info = tuple(
        CovariateInfo(c.name, c.kind, c.levels, c.ordered) for c in ds.covariates
    )
    return Tree(nodes=nodes, config=cfg, covariate_info=info)


def _route(value, info: CovariateInfo, rule: SplitRule) -> bool:
    """True if the observation goes left at this rule."""
    if info.kind == NUMERIC:
        v = float(value)
        if not np.isfinite(v):
            raise DataError(f"missing value for split covariate {rule.covariate!r}")
        return v <= rule.cutoff
    level = str(value)
    if level not in info.levels:
        raise DataError(f"unseen level {level!r} for split covariate {rule.covariate!r}")
    if rule.cutoff is not None:  # ordered categorical: cut on the level index
        return info.levels.index(level) <= rule.cutoff
    return level in rule.subset


def predict_node(tree: Tree, observation: dict) -> int:
    """Route one observation (mapping covariate name -> value) from the root
    down to a leaf; returns the leaf id.

    Raises DataError on a missing value at a split covariate or an unseen
    categorical level.
    """
    node = tree.root
    while not node.is_leaf:
        rule = node.split
        if rule.covariate not in observation or observation[rule.covariate] is None:
            raise DataError(f"observation missing split covariate {rule.covariate!r}")
        try:
            left = _route(observation[rule.covariate], tree.info(rule.covariate), rule)
        except (TypeError, ValueError) as exc:
            raise DataError(
                f"bad value for split covariate {rule.covariate!r}: {exc}"
            ) from exc
        node = tree.nodes[node.children[0] if left else node.children[1]]
    return node.id


def route(tree: Tree, columns: dict[str, np.ndarray], n: int) -> np.ndarray:
    """The deepest node each of `n` rows reaches, from the split rules `fit`
    partitions by applied to whole columns. `columns` maps every covariate
    the tree splits on to its typed column (`data.typed_column`, with the
    levels the tree declares). A row stops at the first split where its value
    is unusable (NaN or -1), so it ends at an internal node exactly when it
    cannot be routed."""
    node_of = np.ones(n, dtype=np.int64)
    for node in tree.nodes.values():  # parents first: a node's rows are settled
        if not node.is_leaf:
            x = columns[node.split.covariate]
            usable = x >= 0 if x.dtype.kind == "i" else ~np.isnan(x)
            rows = np.flatnonzero((node_of == node.id) & usable)
            left = node.split.holds(x[rows], tree.info(node.split.covariate).levels)
            node_of[rows] = np.where(left, *node.children)
    return node_of


def describe_rule(rule: SplitRule, info: CovariateInfo) -> tuple[str, str]:
    """Human-readable (left, right) edge labels for a split."""
    if rule.cutoff is not None and info.kind == NUMERIC:
        return f"<= {rule.cutoff:.6g}", f"> {rule.cutoff:.6g}"
    if rule.cutoff is not None:  # ordered categorical
        level = info.levels[int(rule.cutoff)]
        return f"<= {level}", f"> {level}"
    inside = ", ".join(rule.subset)
    return f"in {{{inside}}}", f"not in {{{inside}}}"


def render_text(tree: Tree) -> str:
    """Indented text rendering: one line per node, splits as
    'covariate <= cut-off, p = ...'."""
    lines: list[str] = []

    def emit(nid: int, indent: int, edge: str) -> None:
        node = tree.nodes[nid]
        pad = "  " * indent
        prefix = f"{pad}[{node.id}]"
        if edge:
            prefix += f" ({edge})"
        med = node.km_median
        med_s = "NA" if med is None else f"{med:.6g}"
        if node.is_leaf:
            lines.append(
                f"{prefix} leaf: n = {node.n_effective:g}, events = {node.events:g}, "
                f"median = {med_s}, stop = {node.stop_reason}"
            )
            return
        left_label, right_label = describe_rule(node.split, tree.info(node.split.covariate))
        lines.append(
            f"{prefix} {node.split.covariate} {left_label}, "
            f"p = {node.p_adjusted:.4g}, n = {node.n_effective:g}, events = {node.events:g}"
        )
        emit(node.children[0], indent + 1, left_label)
        emit(node.children[1], indent + 1, right_label)

    emit(1, 0, "")
    return "\n".join(lines) + "\n"
