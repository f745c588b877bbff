"""`fit` sorts the times and each ranked covariate once at the root and
splits each node's orders into its children. These tests hold the presorted
midranks, cut-off scan, risk table and scores bit-equal to the per-node
sorts they replaced (`presort_oracle`), on heavily tied values, positive
weights and times that mix -0.0 and 0.0, for a node's own sort and for
orders split from a parent's. The root's stable orders come from
`stable_argsort`, held equal to numpy's stable sort.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import presort_oracle as oracle
from survtree import NUMERIC, Covariate, FitConfig, best_split
from survtree.influence import event_table, risk_table, table_scores
from survtree.partition import _cutoff_scan, _split_orders, stable_argsort, weighted_midranks

TIED_VALUES = [-0.0, 0.0, 0.5, 1.0, 1.0 + 2**-52, 2.0, 3.0, 1e300]
TIMES = [-0.0, 0.0, 0.5, 1.0, 1.0 + 2**-52, 2.0]
WEIGHTS = st.one_of(
    st.integers(1, 4).map(float),
    st.floats(1e-3, 10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def parents(draw):
    """A node's rows (times, flags, weights, covariate) and a split of them."""
    n = draw(st.integers(2, 60))

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    return (column(st.sampled_from(TIMES)), column(st.booleans()), column(WEIGHTS),
            column(st.sampled_from(TIED_VALUES)), column(st.booleans()))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def nodes(time, event, w, x, left):
    """The parent, then each non-empty child, with orders split from the
    parent's: (time, event, w, x, time order, x order). The times are
    ordered with ties in reverse row order, as the risk table must not
    depend on how an order breaks ties; x's order is stable."""
    orders = [np.lexsort((-np.arange(time.size), time)), np.argsort(x, kind="stable")]
    yield time, event, w, x, *orders
    for side, child_orders in zip((left, ~left), _split_orders(orders, left)):
        if side.any():
            yield time[side], event[side], w[side], x[side], *child_orders


@settings(max_examples=150, deadline=None)
@given(parents())
def test_split_orders_are_each_childs_argsort(node):
    for time, _, _, x, time_order, x_order in nodes(*node):
        assert same_bits(time_order, np.lexsort((-np.arange(time.size), time)))
        assert same_bits(x_order, np.argsort(x, kind="stable"))


@settings(max_examples=150, deadline=None)
@given(parents())
def test_presorted_midranks_and_cutoff_scan_match_per_node_sorts(node):
    for time, event, w, x, _, x_order in nodes(*node):
        expected = oracle.weighted_midranks(x, w)
        assert same_bits(weighted_midranks(x, w, x_order), expected)
        assert same_bits(weighted_midranks(x, w), expected)
        scores = oracle.logrank_scores(time, event, w)
        for got, want in zip(_cutoff_scan(x, w, scores, x_order), oracle.numeric_scan(x, w, scores)):
            assert same_bits(got, want)


@settings(max_examples=150, deadline=None)
@given(parents())
def test_presorted_risk_table_and_scores_match_per_node_sorts(node):
    for time, event, w, _, time_order, _ in nodes(*node):
        expected = oracle.event_table(time, event, w)
        ev_times, d, r, passed = risk_table(time, event, w, time_order)
        for got, want in zip((ev_times, d, r), expected):
            assert same_bits(got, want)
        for got, want in zip(event_table(time, event, w), expected):
            assert same_bits(got, want)
        assert same_bits(table_scores(event, d, r, passed), oracle.logrank_scores(time, event, w))


@settings(max_examples=150, deadline=None)
@given(parents(), st.integers(1, 6))
# children of total weight 1 and no events: no split is feasible, and the
# split statistics' variance, over w. - 1 = 0, must not be computed
@example((np.array([-0.0, -0.0]), np.array([False, False]), np.array([0.5, 0.5]), np.array([-0.0, 0.5]),
          np.array([False, False])), 1)
def test_presorted_best_split_matches_the_per_node_sort(node, minbucket):
    cfg = FitConfig(minsplit=2 * minbucket, minbucket=minbucket)
    for time, event, w, x, _, x_order in nodes(*node):
        cov = Covariate("x", NUMERIC, x)
        scores = oracle.logrank_scores(time, event, w)
        rule = best_split(w, cov, scores, cfg, x_order)
        assert repr(rule) == repr(best_split(w, cov, scores, cfg))


def test_tie_of_signed_zeros_keeps_np_unique_representative():
    # np.unique's unstable sort decides which zero stands for the tie; the
    # first zero in row order is not always it
    rng = np.random.Generator(np.random.Philox(key=11))
    differs = 0
    for _ in range(200):
        time = np.where(rng.random(40) < 0.5, -0.0, 0.0)
        time[rng.random(40) < 0.3] = 1.0
        event = np.ones(40, dtype=bool)
        w = np.ones(40)
        want = oracle.event_table(time, event, w)[0]
        differs += np.signbit(want[0]) != np.signbit(time[time == 0.0][0])
        assert same_bits(risk_table(time, event, w, np.argsort(time, kind="stable"))[0], want)
    assert differs  # the case the representative is kept for does occur



@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(TIED_VALUES + [np.nan, np.inf, -np.inf]), st.floats()), max_size=80))
@example([])
@example([1.0])
@example([0.0, -0.0, 0.0, -0.0, -0.0])
@example([np.nan, 1.0, np.nan, -0.0, np.nan, 0.0])
def test_stable_argsort_is_numpys_stable_sort(values):
    x = np.array(values, dtype=float)
    assert same_bits(stable_argsort(x), np.argsort(x, kind="stable"))


def test_stable_argsort_is_numpys_stable_sort_on_a_large_cohort():
    rng = np.random.Generator(np.random.Philox(key=24))
    for x in (rng.normal(size=25_000), np.round(rng.normal(size=25_000), 1), rng.integers(0, 4, 25_000) - 0.0):
        assert same_bits(stable_argsort(x), np.argsort(x, kind="stable"))
