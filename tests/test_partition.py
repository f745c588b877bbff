import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, observation
from mc_oracle import montecarlo_test
from node_oracle import oracle_fit
from survtree import (
    CATEGORICAL,
    NUMERIC,
    Covariate,
    DataError,
    Dataset,
    FitConfig,
    SimConfig,
    FitError,
    SurvivalResponse,
    TestMethod,
    best_split,
    fit,
    logrank_scores,
    predict_node,
    encode_covariate,
    render_text,
    simulate_cohort,
)
from survtree import permstat
from survtree.partition import _cutoff_scan, stable_argsort, weighted_midranks

SMALL = FitConfig(alpha=0.05, minsplit=4, minbucket=2)


def one_numeric(values, time, event, name="x"):
    return Dataset(
        (Covariate(name, NUMERIC, np.asarray(values, dtype=float)),),
        SurvivalResponse(np.asarray(time, dtype=float), np.asarray(event, dtype=bool)),
    )


def test_independent_response_single_leaf(rng):
    # constant scores: every covariate test is degenerate, p = 1 everywhere
    ds = make_dataset(rng, 40, censor_frac=0.0)
    flat = Dataset(ds.covariates, SurvivalResponse(np.full(40, 10.0), np.full(40, True)))
    tree = fit(flat, FitConfig(minsplit=4, minbucket=2))
    assert len(tree.nodes) == 1
    assert tree.root.is_leaf
    assert tree.root.stop_reason == "alpha"


def test_planted_binary_covariate_exact_depth_one():
    # group A: five early events; group B: five late censored observations.
    # The extreme allocations are exactly 2 * 5! * 5! of the 10! score
    # permutations, so the exact p-value is 1/126.
    time = np.array([1.0, 2, 3, 4, 5, 10, 11, 12, 13, 14])
    event = np.array([True] * 5 + [False] * 5)
    grp = Covariate("grp", CATEGORICAL, np.array([0] * 5 + [1] * 5), levels=("A", "B"))
    ds = Dataset((grp,), SurvivalResponse(time, event))
    cfg = FitConfig(alpha=0.05, minsplit=10, minbucket=5, test=TestMethod("exact"))
    tree = fit(ds, cfg)
    assert tree.depth() == 1
    assert tree.root.split.covariate == "grp"
    assert tree.root.tests[0].p_raw == pytest.approx(1 / 126, abs=1e-12)
    left, right = (tree.nodes[i] for i in tree.root.children)
    assert left.stop_reason == "minsplit" and right.stop_reason in ("alpha", "minsplit")


def test_best_split_numeric_brute_force_check():
    x = [1.0, 2.0, 3.0, 4.0]
    scores = np.array([1.0, 1.0, -1.0, -1.0])
    cov = Covariate("x", NUMERIC, np.array(x))
    cfg = FitConfig(minsplit=2, minbucket=1)
    rule = best_split(np.ones(4), cov, scores, cfg)
    assert rule.cutoff == 2.0

    # independent check: evaluate each candidate with the module's own
    # statistic on explicit indicators
    stats = {}
    for c in (1.0, 2.0, 3.0):
        g = (np.array(x) <= c).astype(float)
        stats[c] = permstat.test_statistic([g], scores, np.ones(4))[0][0]
    assert max(stats, key=stats.get) == 2.0


def test_best_split_binary_single_candidate():
    cov = Covariate("g", CATEGORICAL, np.array([0, 0, 1, 1]), levels=("A", "B"))
    rule = best_split(np.ones(4), cov, np.array([1.0, 2.0, -1.0, -2.0]), SMALL)
    assert rule.subset == ("A",)


def test_best_split_constant_covariate_returns_none():
    cov = Covariate("x", NUMERIC, np.full(6, 3.3))
    assert best_split(np.ones(6), cov, np.arange(6.0), SMALL) is None


def test_best_split_minbucket_infeasible_returns_none():
    cov = Covariate("x", NUMERIC, np.array([1.0, 2.0, 2.0, 2.0]))
    cfg = FitConfig(minsplit=4, minbucket=2)
    # only candidate cut is 1.0 with a single observation on the left
    assert best_split(np.ones(4), cov, np.array([3.0, -1.0, -1.0, -1.0]), cfg) is None


def test_best_split_tie_prefers_smaller_cutoff():
    # symmetric scores: cuts at 1.0 and 3.0 give identical statistics
    cov = Covariate("x", NUMERIC, np.array([1.0, 2.0, 3.0, 4.0]))
    scores = np.array([1.0, 0.0, 0.0, 1.0])
    rule = best_split(np.ones(4), cov, scores, FitConfig(minsplit=2, minbucket=1))
    assert rule.cutoff == 1.0


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_best_split_rejects_a_non_positive_weight(bad):
    cov = Covariate("x", NUMERIC, np.array([1.0, 2.0, 3.0, 4.0]))
    w = np.array([1.0, bad, 1.0, 1.0])
    with pytest.raises(DataError, match="positive case weights"):
        best_split(w, cov, np.array([1.0, 1.0, -1.0, -1.0]), FitConfig(minsplit=2, minbucket=1))


def test_best_split_categorical_enumerates_subsets(rng):
    levels = ("A", "B", "C", "D")
    vals = rng.integers(0, 4, 40).astype(np.int64)
    cov = Covariate("g", CATEGORICAL, vals, levels=levels)
    scores = rng.normal(size=40)
    rule = best_split(np.ones(40), cov, scores, SMALL)
    assert rule is not None
    assert "A" in rule.subset  # canonical side holds the first declared level
    assert 0 < len(rule.subset) < 4

    # brute-force over all 7 nontrivial subsets containing A
    from itertools import combinations

    best_stat, best_sub = -1.0, None
    rest = ("B", "C", "D")
    subsets = []
    for r in range(0, 3):
        subsets.extend([("A",) + c for c in combinations(rest, r)])
    for sub in subsets:
        g = np.isin(np.array(levels)[vals], sub).astype(float)
        if g.sum() < 2 or (1 - g).sum() < 2:
            continue
        s = permstat.test_statistic([g], scores, np.ones(40))[0][0]
        if s > best_stat:
            best_stat, best_sub = s, sub
    assert set(rule.subset) == set(best_sub)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["numeric", "ordered", "categorical"]),
    n_levels=st.integers(2, 5),
    weights=st.one_of(
        st.integers(2, 40).map(lambda n: [1] * n),
        st.lists(st.integers(1, 3), min_size=2, max_size=40),
    ),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_indicator_statistics_are_the_node_tests_c_max(kind, n_levels, weights, data_seed):
    # best_split standardizes its candidates in closed form; each feasible
    # candidate's statistic is the c_max test_statistic gives its 0/1 design
    rng = np.random.Generator(np.random.Philox(key=data_seed))
    n = len(weights)
    w = np.array(weights, dtype=float)
    scores = np.round(rng.normal(0.5, 1.0, n), 1)  # tied, and not centred: E_hat is not 0
    if kind == "numeric":
        x = np.round(rng.normal(size=n), 1)
    else:
        x = rng.integers(0, n_levels, n).astype(float)
    if kind == "categorical":
        codes = x.astype(np.int64)
        subsets = [[0] + [k for k in range(1, n_levels) if mask & (1 << (k - 1))]
                   for mask in range(2 ** (n_levels - 1) - 1)]
        designs = [np.isin(codes, members).astype(float) for members in subsets]
        w_left = np.array([w[g == 1].sum() for g in designs])
        T = np.array([(w * scores)[g == 1].sum() for g in designs])
    else:
        cutoffs, w_left, T = _cutoff_scan(x, w, scores, stable_argsort(x))
        designs = [(x <= c).astype(float) for c in cutoffs]
    wsum, e_hat, v_hat = permstat.node_moments(scores, w)
    stats = permstat.indicator_statistics(T, w_left, wsum, e_hat, v_hat)
    feasible = (w_left >= 1) & (wsum - w_left >= 1)
    for g, stat in zip(np.array(designs)[feasible], stats[feasible]):
        c_max = permstat.test_statistic([g], scores, w)[0][0]
        assert abs(stat - c_max) <= 1e-12 * max(1.0, c_max)


def test_ordinal_covariate_splits_on_index():
    cov = Covariate(
        "stage", CATEGORICAL, np.array([0, 0, 1, 2, 2, 2]), levels=("i", "ii", "iii"), ordered=True
    )
    time = np.array([1.0, 2, 3, 50, 60, 70])
    event = np.array([True, True, True, False, False, False])
    ds = Dataset((cov,), SurvivalResponse(time, event))
    tree = fit(ds, FitConfig(alpha=0.2, minsplit=4, minbucket=2))
    assert not tree.root.is_leaf
    assert tree.root.split.cutoff is not None  # index cut, not subset
    obs_leaf = predict_node(tree, {"stage": "i"})
    assert obs_leaf in {n.id for n in tree.leaves()}


def test_children_weights_sum_to_parent(rng):
    ds = make_dataset(rng, 80)
    tree = fit(ds, FitConfig(alpha=0.9, minsplit=10, minbucket=4))
    for node in tree.nodes.values():
        if node.is_leaf:
            continue
        l, r = (tree.nodes[i] for i in node.children)
        assert l.n_effective + r.n_effective == node.n_effective
        assert l.events + r.events == node.events
        assert node.p_adjusted <= 0.9


def test_leaves_cover_every_observation_once(rng):
    ds = make_dataset(rng, 100)
    tree = fit(ds, FitConfig(alpha=0.8, minsplit=10, minbucket=4))
    leaves = [predict_node(tree, observation(ds, i)) for i in range(ds.n)]
    counts = {leaf.id: leaves.count(leaf.id) for leaf in tree.leaves()}
    assert counts == {leaf.id: leaf.n_effective for leaf in tree.leaves()}
    assert sum(counts.values()) == 100


def test_node_ids_are_level_order(rng):
    ds = make_dataset(rng, 120)
    tree = fit(ds, FitConfig(alpha=0.95, minsplit=8, minbucket=3))
    depths = {nid: node.depth for nid, node in tree.nodes.items()}
    ids = sorted(depths)
    assert ids[0] == 1
    # ids sorted ascending must have non-decreasing depth (level order)
    dd = [depths[i] for i in ids]
    assert all(a <= b for a, b in zip(dd, dd[1:]))


def test_stop_reasons_recorded(rng):
    ds = make_dataset(rng, 60)
    # alpha stop at the root (tiny alpha)
    t1 = fit(ds, FitConfig(alpha=1e-9, minsplit=4, minbucket=2))
    assert t1.root.stop_reason == "alpha"
    # max_depth stop
    t2 = fit(ds, FitConfig(alpha=0.999, minsplit=4, minbucket=2, max_depth=0))
    assert t2.root.stop_reason == "max_depth"
    # minsplit stop
    t3 = fit(ds, FitConfig(alpha=0.5, minsplit=1000, minbucket=2))
    assert t3.root.stop_reason == "minsplit"


def test_minbucket_stop_reason():
    # strong association but no feasible split: minbucket of 3 cannot be met
    # on the 1-vs-5 value layout
    ds = one_numeric([1.0, 2.0, 2.0, 2.0, 2.0, 2.0],
                     [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                     [True] * 6)
    tree = fit(ds, FitConfig(alpha=0.999999, minsplit=6, minbucket=3))
    assert tree.root.is_leaf
    assert tree.root.stop_reason in ("minbucket", "alpha")


def test_no_events_rejected(rng):
    ds = make_dataset(rng, 20)
    dead = Dataset(ds.covariates, SurvivalResponse(ds.response.time, np.zeros(20, bool)))
    with pytest.raises(FitError, match="events"):
        fit(dead, SMALL)


def test_invalid_config_rejected(rng):
    ds = make_dataset(rng, 20)
    with pytest.raises(FitError, match="alpha"):
        fit(ds, FitConfig(alpha=1.5))
    with pytest.raises(FitError, match="minsplit"):
        fit(ds, FitConfig(minsplit=5, minbucket=4))
    with pytest.raises(FitError, match="minbucket"):
        fit(ds, FitConfig(minsplit=2, minbucket=0.5))
    with pytest.raises(FitError, match="test method"):
        fit(ds, FitConfig(test=TestMethod("bogus")))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_case_weights_rejected(rng, bad):
    ds = make_dataset(rng, 20)
    w = np.ones(20)
    w[3] = bad
    with pytest.raises(FitError, match="finite"):
        fit(ds, SMALL, weights=w)


@pytest.mark.parametrize(
    "config",
    [
        FitConfig(minbucket=np.nan),
        FitConfig(minsplit=np.nan, minbucket=np.nan),
        FitConfig(minsplit=np.inf),
        FitConfig(minsplit=np.inf, minbucket=np.inf),
    ],
)
def test_non_finite_config_rejected(rng, config):
    with pytest.raises(FitError, match="finite"):
        fit(make_dataset(rng, 20), config)


def test_no_covariates_rejected(rng):
    ds = make_dataset(rng, 20)
    with pytest.raises(FitError, match="no covariates"):
        fit(Dataset((), ds.response), SMALL)


def test_too_many_categorical_levels_rejected(rng):
    levels = tuple(f"l{i}" for i in range(11))
    cov = Covariate("g", CATEGORICAL, rng.integers(0, 11, 40).astype(np.int64), levels=levels)
    time, event = np.arange(1.0, 41.0), np.ones(40, bool)
    ds = Dataset((cov,), SurvivalResponse(time, event))
    with pytest.raises(FitError, match="levels"):
        fit(ds, SMALL)


def test_predict_single_leaf_tree(rng):
    ds = make_dataset(rng, 30)
    tree = fit(ds, FitConfig(alpha=1e-9, minsplit=4, minbucket=2))
    assert predict_node(tree, {}) == 1


def test_predict_routes_by_cutoff():
    ds = one_numeric([1.0, 2, 3, 4, 5, 6, 7, 8],
                     [1.0, 2, 3, 4, 50, 60, 70, 80],
                     [True, True, True, True, False, False, False, False])
    tree = fit(ds, FitConfig(alpha=0.5, minsplit=4, minbucket=2, max_depth=1))
    assert not tree.root.is_leaf
    cut = tree.root.split.cutoff
    left, right = tree.root.children
    assert predict_node(tree, {"x": cut - 0.5}) == left
    assert predict_node(tree, {"x": cut + 0.5}) == right


def test_predict_missing_value_errors():
    ds = one_numeric([1.0, 2, 3, 4, 5, 6, 7, 8],
                     [1.0, 2, 3, 4, 50, 60, 70, 80],
                     [True, True, True, True, False, False, False, False])
    tree = fit(ds, FitConfig(alpha=0.5, minsplit=4, minbucket=2))
    with pytest.raises(DataError, match="no usable value for split covariate 'x': ''$"):
        predict_node(tree, {"y": 1.0})
    with pytest.raises(DataError, match="no usable value for split covariate 'x': nan$"):
        predict_node(tree, {"x": float("nan")})


def test_predict_unseen_level_errors(rng):
    cov = Covariate("g", CATEGORICAL, np.array([0] * 5 + [1] * 5), levels=("A", "B"))
    time = np.array([1.0, 2, 3, 4, 5, 50, 60, 70, 80, 90])
    event = np.array([True] * 5 + [False] * 5)
    ds = Dataset((cov,), SurvivalResponse(time, event))
    tree = fit(ds, FitConfig(alpha=0.5, minsplit=4, minbucket=2))
    assert not tree.root.is_leaf
    with pytest.raises(DataError, match="no usable value for split covariate 'g': 'C'$"):
        predict_node(tree, {"g": "C"})


def test_weight_replication_consistency_asymptotic(rng):
    ds = make_dataset(rng, 50)
    w = rng.integers(1, 4, 50).astype(float)
    rep_idx = np.repeat(np.arange(50), w.astype(int))
    rep_ds = Dataset(
        tuple(
            Covariate(c.name, c.kind, c.values[rep_idx], c.levels, c.ordered)
            for c in ds.covariates
        ),
        SurvivalResponse(ds.response.time[rep_idx], ds.response.event[rep_idx]),
    )
    cfg = FitConfig(alpha=0.6, minsplit=10, minbucket=4)
    t_w = fit(ds, cfg, weights=w)
    t_rep = fit(rep_ds, cfg)
    assert _shape(t_w) == _shape(t_rep)


def test_weight_replication_consistency_exact(rng):
    time = np.array([1.0, 2.0, 9.0, 11.0, 12.0])
    event = np.array([True, True, False, False, True])
    cov = Covariate("x", NUMERIC, np.array([1.0, 1.5, 8.0, 9.0, 9.5]))
    ds = Dataset((cov,), SurvivalResponse(time, event))
    w = np.array([2.0, 1.0, 1.0, 2.0, 1.0])
    rep_idx = np.repeat(np.arange(5), w.astype(int))
    rep_ds = Dataset(
        (Covariate("x", NUMERIC, cov.values[rep_idx]),),
        SurvivalResponse(time[rep_idx], event[rep_idx]),
    )
    cfg = FitConfig(alpha=0.6, minsplit=4, minbucket=2, test=TestMethod("exact"))
    t_w = fit(ds, cfg, weights=w)
    t_rep = fit(rep_ds, cfg)
    assert _shape(t_w) == _shape(t_rep)
    assert t_w.root.tests[0].p_raw == pytest.approx(t_rep.root.tests[0].p_raw, abs=1e-15)


def _shape(tree):
    """Topology fingerprint: (id, covariate, cutoff/subset, reason) tuples."""
    out = []
    for nid in sorted(tree.nodes):
        n = tree.nodes[nid]
        if n.is_leaf:
            out.append((nid, None, None, n.stop_reason))
        else:
            key = n.split.cutoff if n.split.cutoff is not None else n.split.subset
            out.append((nid, n.split.covariate, key, None))
    return out


def test_row_permutation_invariance(rng):
    ds = make_dataset(rng, 90)
    perm = rng.permutation(90)
    ds_p = Dataset(
        tuple(
            Covariate(c.name, c.kind, c.values[perm], c.levels, c.ordered)
            for c in ds.covariates
        ),
        SurvivalResponse(ds.response.time[perm], ds.response.event[perm]),
    )
    cfg = FitConfig(alpha=0.7, minsplit=10, minbucket=4)
    assert _shape(fit(ds, cfg)) == _shape(fit(ds_p, cfg))


def test_monotone_transform_invariance(rng):
    ds = make_dataset(rng, 90)
    transformed = Dataset(
        tuple(
            Covariate(c.name, c.kind, np.exp(c.values / 2.0), c.levels, c.ordered)
            if c.kind == NUMERIC
            else c
            for c in ds.covariates
        ),
        ds.response,
    )
    cfg = FitConfig(alpha=0.7, minsplit=10, minbucket=4)
    t1, t2 = fit(ds, cfg), fit(transformed, cfg)
    s1, s2 = _shape(t1), _shape(t2)
    assert len(s1) == len(s2)
    for (id1, cov1, key1, r1), (id2, cov2, key2, r2) in zip(s1, s2):
        assert (id1, cov1, r1) == (id2, cov2, r2)
        if cov1 is not None and isinstance(key1, float):
            assert key2 == pytest.approx(np.exp(key1 / 2.0), rel=1e-12)


def test_scores_recomputed_within_nodes(rng):
    # the root child's node-level scores differ from slicing the root scores;
    # the fitted tree must use the former
    ds = make_dataset(rng, 60, n_numeric=1, n_categorical=0)
    tree = fit(ds, FitConfig(alpha=0.99, minsplit=10, minbucket=4))
    if tree.root.is_leaf:
        pytest.skip("no split under this seed")
    cov = ds.covariate(tree.root.split.covariate)
    left = tree.root.split.holds(cov.values, cov.levels)
    node_scores = logrank_scores(ds.response.time[left], ds.response.event[left])
    root_scores = logrank_scores(ds.response.time, ds.response.event)
    assert not np.allclose(node_scores, root_scores[left])


def test_null_type_one_control():
    # independent response: fraction of trees with >= 1 split stays near alpha
    runs, alpha = 1000, 0.05
    splits = 0
    for seed in range(runs):
        rng = np.random.Generator(np.random.Philox(key=(5150 << 32) + seed))
        ds = make_dataset(rng, 100, n_numeric=4, n_categorical=1, censor_frac=0.4)
        tree = fit(ds, FitConfig(alpha=alpha))
        splits += not tree.root.is_leaf
    bound = alpha + 2 * np.sqrt(alpha * (1 - alpha) / runs)
    assert splits / runs <= bound


def test_render_text_mentions_split_and_p(rng):
    ds = make_dataset(rng, 80)
    tree = fit(ds, FitConfig(alpha=0.95, minsplit=10, minbucket=4))
    text = render_text(tree)
    assert "[1]" in text
    if not tree.root.is_leaf:
        assert tree.root.split.covariate in text
        assert "p = " in text
    assert "leaf" in text


def test_montecarlo_root_tests_match_per_covariate_oracle():
    # the node's shared permutation set gives each covariate the p-value its
    # own per-replicate Philox loop gives on its selection design
    ds = simulate_cohort(SimConfig(seed=1))
    tree = fit(ds, FitConfig(max_depth=1, test=TestMethod("montecarlo", 199, 5)))
    w = np.ones(ds.n)
    scores = logrank_scores(ds.response.time, ds.response.event, w)
    for cov, test in zip(ds.covariates, tree.root.tests):
        if cov.kind == NUMERIC or cov.ordered:
            design = weighted_midranks(np.asarray(cov.values, dtype=float), w)
        else:
            design = encode_covariate(cov)
        c_max, p_raw = montecarlo_test(design, scores, w, 199, 5)
        assert (test.covariate, test.c_max, test.p_raw) == (cov.name, c_max, p_raw)
        assert test.p_adjusted == min(1.0, len(ds.covariates) * p_raw)


def test_underflowed_pvalues_ranked_by_log_pvalue():
    # both covariates are past c_max ~ 38.49, where the asymptotic p-value
    # underflows to 0.0; the stronger one must win, not the first declared
    rng = np.random.Generator(np.random.Philox(key=3))
    n = 4000
    group = np.arange(n) % 2
    t = rng.exponential(np.where(group == 1, 50.0, 1000.0))
    c = rng.exponential(400.0, n)
    weak = np.where(rng.random(n) < 0.07, 1 - group, group)  # 7% labels flipped
    strong = group * 10.0 + rng.normal(size=n)
    ds = Dataset(
        (
            Covariate("weak", CATEGORICAL, weak, levels=("a", "b")),
            Covariate("strong", NUMERIC, strong),
        ),
        SurvivalResponse(np.minimum(t, c), t <= c),
    )
    root = fit(ds, FitConfig(max_depth=1)).root
    c_weak, c_strong = (test.c_max for test in root.tests)
    assert 38.49 < c_weak < c_strong
    assert [test.p_adjusted for test in root.tests] == [0.0, 0.0]
    assert root.split.covariate == "strong"
    assert root.p_adjusted == 0.0


@pytest.mark.parametrize(
    "config",
    [
        FitConfig(max_depth=1.5),
        FitConfig(max_depth=True),
        FitConfig(max_depth=np.int64(1)),
        FitConfig(test=TestMethod("montecarlo", np.int64(19), 3)),
        FitConfig(test=TestMethod("montecarlo", 19.0, 3)),
        FitConfig(test=TestMethod("montecarlo", 19, True)),
        FitConfig(test=TestMethod("asymptotic", 9999, 0.5)),
    ],
    ids=["float-depth", "bool-depth", "numpy-depth", "numpy-replicates", "float-replicates", "bool-seed", "float-seed"],
)
def test_config_a_tree_file_cannot_hold_is_rejected(config):
    # load_tree accepts only JSON integers in these fields
    with pytest.raises(FitError, match="int"):
        config.validate()
    with pytest.raises(FitError, match="int"):
        fit(simulate_cohort(SimConfig(seed=1)), config)


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2**64"])
@pytest.mark.parametrize("method", ["montecarlo", "asymptotic"])
def test_seed_outside_its_range_is_rejected(method, seed):
    # the seed is the low word of a 128-bit Philox key
    config = FitConfig(test=TestMethod(method, 19, seed))
    with pytest.raises(FitError, match=r"seed must be in \[0, 2\*\*64\)"):
        config.validate()
    with pytest.raises(FitError, match=r"seed must be in \[0, 2\*\*64\)"):
        fit(simulate_cohort(SimConfig(seed=1)), config)


def test_largest_seed_is_accepted():
    FitConfig(test=TestMethod("montecarlo", 19, 2**64 - 1)).validate()


def _rows(ds, idx):
    return Dataset(
        tuple(Covariate(c.name, c.kind, c.values[idx], c.levels, c.ordered) for c in ds.covariates),
        SurvivalResponse(ds.response.time[idx], ds.response.event[idx]),
    )


@pytest.mark.parametrize("test", [TestMethod(), TestMethod("montecarlo", 99, 4)], ids=["asymptotic", "mc"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_zero_weight_rows_are_inert(test, seed):
    # bit for bit, every c_max and p-value included
    ds = simulate_cohort(SimConfig(seed=seed))
    w = np.random.Generator(np.random.Philox(key=seed)).integers(0, 4, ds.n).astype(float)
    keep = np.flatnonzero(w > 0)
    cfg = FitConfig(alpha=0.5, test=test)
    assert fit(ds, cfg, weights=w) == fit(_rows(ds, keep), cfg, weights=w[keep])


def _assert_matches_node_oracle(ds, cfg):
    tree, old = fit(ds, cfg), oracle_fit(ds, cfg)
    assert tree.nodes.keys() == old.nodes.keys()
    for nid, node in tree.nodes.items():
        ref = old.nodes[nid]
        for name in ("depth", "split", "children", "stop_reason", "n_effective", "events", "km_median"):
            assert getattr(node, name) == getattr(ref, name), (nid, name)
        assert (node.p_adjusted is None) == (ref.p_adjusted is None)
        if node.p_adjusted is not None:
            assert node.p_adjusted == pytest.approx(ref.p_adjusted, rel=1e-12, abs=0.0)
            assert [t.covariate for t in node.tests] == [t.covariate for t in ref.tests]
            for t, r in zip(node.tests, ref.tests):
                assert abs(t.c_max - r.c_max) <= 1e-12 * max(1.0, r.c_max)


@pytest.mark.parametrize(
    "sim",
    [{}, {"hazard_ratio": 1.0}, {"age_effect": (33.2, 2.0), "hcc_effect_ratio": 2.0}],
    ids=["planted", "null", "age-hcc"],
)
@pytest.mark.parametrize("seed", range(1, 6))
def test_node_local_fit_matches_full_n_oracle(sim, seed):
    ds = simulate_cohort(SimConfig(seed=seed, **sim))
    for cfg in (FitConfig(), FitConfig(alpha=0.5), FitConfig(test=TestMethod("montecarlo", 99, seed))):
        _assert_matches_node_oracle(ds, cfg)


def test_node_local_fit_matches_full_n_oracle_at_25k():
    ds = simulate_cohort(SimConfig(n=25_000, seed=1, age_effect=(33.2, 2.0), hcc_effect_ratio=2.0))
    _assert_matches_node_oracle(ds, FitConfig())
