import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_oracle import TIE_RTOL, brute_force_cmax, brute_force_pvalue
from mc_oracle import montecarlo_test
from survtree import DataError, FitError, TestMethod, adjust_pvalues, logrank_scores, pvalue_asymptotic
import survtree
from survtree import permstat
from survtree.permstat import _linear_statistics, _normal_upper_tail, log_pvalue_asymptotic

EXACT = TestMethod("exact")


def moments(g, a, w):
    """(T, mu, var) of one design (an n-vector or n x p matrix)."""
    a = np.asarray(a, dtype=float)
    return _linear_statistics([np.asarray(g, dtype=float).reshape(a.shape[0], -1)], a, np.asarray(w, dtype=float))[0]


def node_test(g, a, w, method=TestMethod()):
    """(c_max, raw p-value, dof) of one design through the node test."""
    return permstat.test_statistic([g], a, w, method)[0]


def montecarlo(B, seed):
    return TestMethod("montecarlo", B, seed)


def test_worked_linear_statistic():
    # scores from the 3-event example; T = 2/3 + 2/6 - 15/6 = -1.5 by hand,
    # mu = 0 (scores sum to zero), var = 7/18 * (1.5*14 - 0.5*36) = 7/6
    a = np.array([2 / 3, 1 / 6, -5 / 6])
    T, mu, var = moments(np.array([1.0, 2.0, 3.0]), a, np.ones(3))
    np.testing.assert_allclose(T, [-1.5], atol=1e-12)
    np.testing.assert_allclose(mu, [0.0], atol=1e-12)
    np.testing.assert_allclose(var, [7 / 6], atol=1e-12)


def test_constant_scores_degenerate():
    g, a = np.array([1.0, 5.0, 9.0]), np.full(3, 2.5)
    T, mu, var = moments(g, a, np.ones(3))
    np.testing.assert_allclose(var, np.zeros(1), atol=1e-15)
    np.testing.assert_allclose(T, mu, atol=1e-12)
    assert node_test(g, a, np.ones(3))[0] == 0.0


def test_one_hot_collects_level_scores():
    g = np.array([[1.0, 0.0], [0.0, 1.0]])
    T, _, _ = moments(g, np.array([1.0, -1.0]), np.ones(2))
    np.testing.assert_allclose(T, [1.0, -1.0], atol=1e-15)


def test_total_weight_below_two_rejected():
    with pytest.raises(DataError, match="< 2"):
        node_test(np.array([1.0, 2.0]), np.array([0.5, 1.0]), np.array([0.5, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weights_rejected(bad):
    with pytest.raises(DataError, match="finite"):
        node_test(np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.0, -1.5]), np.array([1.0, bad, 1.0]))


def test_node_test_cmax_examples():
    # the worked example: |T - mu| / sqrt(var) = 1.5 / sqrt(7/6), one coordinate
    a = np.array([2 / 3, 1 / 6, -5 / 6])
    assert node_test(np.array([1.0, 2.0, 3.0]), a, np.ones(3))[0] == pytest.approx(1.5 / math.sqrt(7 / 6))
    # T = mu = 4 with var = 2/3: a coordinate that counts but is 0
    c_max, _, dof = node_test(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 1.0]), np.ones(3))
    assert (c_max, dof) == (pytest.approx(0.0, abs=1e-12), 1)
    # three levels: c_max is the largest standardized coordinate; by hand,
    # E_hat = 3, V_hat = 14/4, T = (1, 2, 9), mu = (3, 3, 6) and var =
    # V_hat * (4/3 * (1, 1, 2) - 1/3 * (1, 1, 4)) = (3.5, 3.5, 14/3)
    g = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    c_max, _, dof = node_test(g, np.array([1.0, 2.0, 3.0, 6.0]), np.ones(4))
    assert c_max == pytest.approx(max(2 / math.sqrt(3.5), 1 / math.sqrt(3.5), 3 / math.sqrt(14 / 3)))
    assert dof == 3


def test_node_test_skips_degenerate_coordinates():
    # column 0 follows the scores exactly (a large |T - mu| / sqrt(var)) but
    # its variance is below VAR_TOL; column 1 alone makes c_max
    rng = np.random.Generator(np.random.Philox(key=3))
    a, x = rng.normal(size=20), rng.normal(size=20)
    g = np.column_stack((1e-7 * a, x))
    _, _, var = moments(g, a, np.ones(20))
    assert var[0] < permstat.VAR_TOL
    c_max, _, dof = node_test(g, a, np.ones(20))
    assert dof == 1
    assert c_max == pytest.approx(node_test(x, a, np.ones(20))[0], rel=1e-12)
    assert c_max < node_test(a, a, np.ones(20))[0]


def test_normal_upper_tail_reference_points():
    assert 1.0 - _normal_upper_tail(0.0) == pytest.approx(0.5, abs=1e-7)
    assert 1.0 - _normal_upper_tail(1.959964) == pytest.approx(0.975, abs=1e-6)
    assert _normal_upper_tail(1.959964) == pytest.approx(0.025, abs=1e-6)


def test_pvalue_asymptotic_examples():
    assert pvalue_asymptotic(1.959964, 1) == pytest.approx(0.05, abs=1e-4)
    assert pvalue_asymptotic(0.0, 1) == 1.0
    assert pvalue_asymptotic(1.959964, 2) == pytest.approx(1 - 0.95**2, abs=1e-4)


def test_pvalue_exact_two_points_symmetric():
    assert node_test(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.ones(2), EXACT)[1] == 1.0


def test_pvalue_exact_constant_scores():
    assert node_test(np.array([1.0, 2.0, 3.0]), np.full(3, 4.0), np.ones(3), EXACT)[1] == 1.0


def test_pvalue_exact_extreme_arrangement():
    # only the identity and the full reversal achieve the max |T - mu|
    g = np.array([1.0, 2.0, 3.0, 4.0])
    a = np.array([10.0, 20.0, 30.0, 40.0])
    assert node_test(g, a, np.ones(4), EXACT)[1] == pytest.approx(2 / 24, abs=1e-15)


def test_pvalue_exact_matches_brute_force(rng):
    for _ in range(12):
        n = int(rng.integers(3, 7))
        g = rng.normal(size=n)
        a = rng.normal(size=n)
        p_lib = node_test(g, a, np.ones(n), EXACT)[1]
        p_brute = brute_force_pvalue([[x] for x in g], list(a), [1] * n)
        assert p_lib == pytest.approx(p_brute, abs=1e-12)


def test_pvalue_exact_one_hot_matches_brute_force(rng):
    levels = rng.integers(0, 2, 6)
    g = np.zeros((6, 2))
    g[np.arange(6), levels] = 1.0
    a = rng.normal(size=6)
    p_lib = node_test(g, a, np.ones(6), EXACT)[1]
    p_brute = brute_force_pvalue(g.tolist(), list(a), [1] * 6)
    assert p_lib == pytest.approx(p_brute, abs=1e-12)


def test_pvalue_exact_size_cap():
    with pytest.raises(DataError, match="<= 10"):
        node_test(np.arange(11.0), np.arange(11.0), np.ones(11), EXACT)


def test_pvalue_exact_non_integer_weights():
    with pytest.raises(DataError, match="integer"):
        node_test(np.arange(3.0), np.arange(3.0), np.array([1.0, 1.5, 1.0]), EXACT)


def test_pvalue_exact_integer_weights_equal_replication(rng):
    g = rng.normal(size=4)
    a = rng.normal(size=4)
    w = np.array([2.0, 1.0, 2.0, 1.0])
    rep = np.repeat(np.arange(4), w.astype(int))
    p_w = node_test(g, a, w, EXACT)[1]
    p_rep = node_test(g[rep], a[rep], np.ones(rep.size), EXACT)[1]
    assert p_w == pytest.approx(p_rep, abs=1e-15)


def test_pvalue_montecarlo_constant_scores():
    assert node_test(np.arange(4.0), np.full(4, 1.0), np.ones(4), montecarlo(99, 3))[1] == 1.0


def test_pvalue_montecarlo_deterministic():
    rng = np.random.Generator(np.random.Philox(key=5))
    g, a = rng.normal(size=12), rng.normal(size=12)
    p1 = node_test(g, a, np.ones(12), montecarlo(499, 11))[1]
    p2 = node_test(g, a, np.ones(12), montecarlo(499, 11))[1]
    assert p1 == p2
    p3 = node_test(g, a, np.ones(12), montecarlo(499, 12))[1]
    assert p1 != p3  # different stream, almost surely different count


def test_pvalue_montecarlo_tie_accounting_extreme_case():
    # observed statistic is the most extreme achievable; recount the tied
    # replicates independently by replaying the documented Philox streams
    # and scoring them with the plain-python oracle
    g = [1.0, 2.0, 3.0, 4.0]
    a = [10.0, 20.0, 30.0, 40.0]
    B, seed = 999, 202406
    p = node_test(np.array(g), np.array(a), np.ones(4), montecarlo(B, seed))[1]

    c_obs = brute_force_cmax([[x] for x in g], a)
    threshold = c_obs - TIE_RTOL * max(1.0, c_obs)
    ties = 0
    for b in range(B):
        stream = np.random.Generator(np.random.Philox(key=seed + ((b + 1) << 64)))
        perm = stream.permutation(4)
        if brute_force_cmax([[x] for x in g], [a[i] for i in perm]) >= threshold:
            ties += 1
    assert p == pytest.approx((1 + ties) / (B + 1), abs=1e-15)
    assert p >= 1 / (B + 1)


@pytest.mark.parametrize("replicates, seed, message", [
    pytest.param(9, -1, r"seed must be in \[0, 2\*\*64\)", id="-1"),
    pytest.param(9, 2**64, r"seed must be in \[0, 2\*\*64\)", id="18446744073709551616"),
    pytest.param(9, 1.7, "seed must be an int", id="float-seed"),
    pytest.param(9, True, "seed must be an int", id="bool-seed"),
    pytest.param(99.0, 1, "replicates must be an int", id="float-replicates"),
])
def test_pvalue_montecarlo_rejects_seed_outside_its_range(replicates, seed, message):
    # the node test refuses exactly what TestMethod.validate refuses
    method = montecarlo(replicates, seed)
    with pytest.raises(FitError, match=message) as refused:
        method.validate()
    with pytest.raises(FitError) as raised:
        node_test(np.arange(4.0), np.arange(4.0), np.ones(4), method)
    assert str(raised.value) == str(refused.value)


def test_pvalue_montecarlo_largest_seed_keys_its_own_stream():
    g = [1.0, 2.0, 3.0, 4.0]
    a = [10.0, 20.0, 30.0, 40.0]
    seed = 2**64 - 1
    p = node_test(np.array(g), np.array(a), np.ones(4), montecarlo(99, seed))[1]
    c_obs = brute_force_cmax([[x] for x in g], a)
    hits = sum(
        brute_force_cmax([[x] for x in g], [a[i] for i in perm]) >= c_obs - TIE_RTOL * max(1.0, c_obs)
        for perm in (
            np.random.Generator(np.random.Philox(key=seed + ((b + 1) << 64))).permutation(4)
            for b in range(99)
        )
    )
    assert p == (1 + hits) / 100


def test_pvalue_montecarlo_non_integer_weights():
    with pytest.raises(DataError, match="integer"):
        node_test(np.arange(3.0), np.arange(3.0), np.array([1.0, 0.5, 1.0]), montecarlo(99, 1))


def test_pvalue_montecarlo_weights_equal_replication(rng):
    g = rng.normal(size=5)
    a = rng.normal(size=5)
    w = np.array([1.0, 2.0, 1.0, 3.0, 1.0])
    rep = np.repeat(np.arange(5), w.astype(int))
    p_w = node_test(g, a, w, montecarlo(299, 7))[1]
    p_rep = node_test(g[rep], a[rep], np.ones(rep.size), montecarlo(299, 7))[1]
    assert p_w == p_rep


def test_adjust_pvalues_examples():
    np.testing.assert_allclose(adjust_pvalues(np.array([0.01, 0.5])), [0.02, 1.0])
    np.testing.assert_allclose(adjust_pvalues(np.array([0.3])), [0.3])
    np.testing.assert_allclose(adjust_pvalues(np.array([0.7, 0.9])), [1.0, 1.0])


def test_zero_weight_observation_is_inert(rng):
    n = 20
    g = rng.normal(size=n)
    a = rng.normal(size=n)
    w = np.ones(n)
    w[7] = 0.0
    cases = [(g, a, w)]
    for _ in range(20):  # one-hot designs, integer weights with zeros
        n = int(rng.integers(5, 40))
        g = np.zeros((n, 3))
        g[np.arange(n), rng.integers(0, 3, n)] = 1.0
        cases.append((g, rng.normal(size=n), rng.integers(0, 3, n).astype(float)))
    for g, a, w in cases:
        if w.sum() < 2:
            continue
        T, mu, var = moments(g, a, w)
        keep = w > 0
        T_kept, mu_kept, var_kept = moments(g[keep], a[keep], w[keep])
        np.testing.assert_allclose(T, T_kept, atol=1e-12)
        np.testing.assert_allclose(mu, mu_kept, atol=1e-12)
        np.testing.assert_allclose(var, var_kept, atol=1e-12)
        scale = max(1.0, float(np.abs(var).max()))
        assert np.all(var >= -1e-10 * scale)


def test_affine_invariance_of_cmax(rng):
    for _ in range(25):
        n = int(rng.integers(5, 50))
        g = rng.normal(size=n)
        a = rng.normal(size=n)
        w = np.ones(n)
        alpha = float(rng.uniform(0.1, 10.0)) * (1 if rng.random() < 0.5 else -1)
        beta = float(rng.uniform(-20.0, 20.0))
        c1 = node_test(g, a, w)[0]
        c2 = node_test(alpha * g + beta, a, w)[0]
        assert abs(c1 - c2) <= 1e-9


def test_exact_pvalues_superuniform_at_n6(rng):
    # null calibration by construction: over the uniform permutation null the
    # exact p-value satisfies P(p <= alpha) <= alpha for every alpha
    import itertools

    n = 6
    g = rng.normal(size=n)
    a = rng.normal(size=n)
    pvals = [
        node_test(g, np.array(perm), np.ones(n), EXACT)[1]
        for perm in itertools.permutations(a)
    ]
    pvals = np.array(pvals)
    for alpha in (0.01, 0.05, 0.1, 0.25, 0.5, 0.9):
        assert np.mean(pvals <= alpha) <= alpha + 1e-12


def test_exact_vs_montecarlo_three_binomial_se(rng):
    bad = 0
    trials = 25
    for i in range(trials):
        n = int(rng.integers(3, 9))
        g = rng.normal(size=n)
        a = rng.normal(size=n)
        p_ex = node_test(g, a, np.ones(n), EXACT)[1]
        p_mc = node_test(g, a, np.ones(n), montecarlo(9999, 7000 + i))[1]
        se = math.sqrt(max(p_ex * (1 - p_ex), 0.0) / 9999)
        if abs(p_mc - p_ex) > 3 * se + 2e-4:  # +2e-4 absorbs the +1 smoothing
            bad += 1
    assert bad == 0


def test_asymptotic_close_to_montecarlo_at_n50(rng):
    within = 0
    trials = 20
    for i in range(trials):
        g = rng.normal(size=50)
        a = rng.normal(size=50)
        w = np.ones(50)
        p_asym = node_test(g, a, w)[1]
        p_mc = node_test(g, a, w, montecarlo(9999, 8100 + i))[1]
        if abs(p_asym - p_mc) <= 0.02:
            within += 1
    assert within >= 19  # spec demands >= 95% of instances


def test_logrank_two_sample_reduction(rng):
    # the indicator-design statistic with log-rank scores equals the classical
    # log-rank numerator O_1 - E_1, with E_1 computed the textbook way:
    # sum over event times of d(s) * R_1(s) / R(s)
    n = 30
    time, event = rng.exponential(50, n), rng.random(n) > 0.3
    group = rng.integers(0, 2, n).astype(float)
    a = logrank_scores(time, event)
    T, _, _ = moments(group, a, np.ones(n))

    observed = float(event[group == 1].sum())
    expected = 0.0
    for s in np.unique(time[event]):
        d = float(event[time == s].sum())
        at_risk = time >= s
        expected += d * float((at_risk & (group == 1)).sum()) / float(at_risk.sum())
    assert T[0] == pytest.approx(observed - expected, abs=1e-10)


def _node_design(kind, n, rng):
    """One selection design of the kinds a node meets, degenerate ones too."""
    if kind == "numeric":
        return np.round(rng.normal(size=n), 1)  # rounding leaves score ties
    if kind == "onehot":  # a level may be absent: a degenerate coordinate
        g = np.zeros((n, 3))
        g[np.arange(n), rng.integers(0, 3, n)] = 1.0
        return g
    if kind == "constant":
        return np.full(n, 2.5)
    return np.column_stack((rng.normal(size=n), np.zeros(n)))  # one dead column


DESIGN_KINDS = st.lists(
    st.sampled_from(["numeric", "onehot", "constant", "degenerate"]), min_size=1, max_size=4
)


@settings(max_examples=60, deadline=None)
@given(
    kinds=DESIGN_KINDS,
    weights=st.lists(st.integers(0, 3), min_size=2, max_size=14).filter(lambda w: sum(w) >= 2),
    data_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**64 - 1),
    B=st.integers(1, 199),
)
def test_node_montecarlo_matches_per_design_oracle(kinds, weights, data_seed, seed, B):
    rng = np.random.Generator(np.random.Philox(key=data_seed))
    n = len(weights)
    designs = [_node_design(k, n, rng) for k in kinds]
    a = np.round(rng.normal(size=n), 1)
    w = np.array(weights, dtype=float)
    node = permstat.test_statistic(designs, a, w, montecarlo(B, seed))
    for g, (c_max, p_raw, _) in zip(designs, node):
        assert (c_max, p_raw) == montecarlo_test(g, a, w, B, seed)


@settings(max_examples=40, deadline=None)
@given(
    kinds=DESIGN_KINDS,
    weights=st.lists(st.integers(0, 2), min_size=2, max_size=6).filter(lambda w: 2 <= sum(w) <= 7),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_node_exact_matches_brute_force(kinds, weights, data_seed):
    rng = np.random.Generator(np.random.Philox(key=data_seed))
    n = len(weights)
    designs = [_node_design(k, n, rng) for k in kinds]
    a = np.round(rng.normal(size=n), 1)
    w = np.array(weights, dtype=float)
    node = permstat.test_statistic(designs, a, w, EXACT)
    for g, (_, p_raw, _) in zip(designs, node):
        assert p_raw == brute_force_pvalue(g.reshape(n, -1).tolist(), list(a), weights)


def test_node_montecarlo_matches_oracle_across_batches(rng):
    # 2000 expanded rows give batches of 1000 replicates: two full, one partial
    n = 1000
    w = np.tile([1.0, 2.0, 0.0, 3.0], n // 4)
    designs = [rng.normal(size=n), _node_design("onehot", n, rng)]
    a = rng.normal(size=n)
    node = permstat.test_statistic(designs, a, w, montecarlo(2500, 17))
    for g, (c_max, p_raw, _) in zip(designs, node):
        assert (c_max, p_raw) == montecarlo_test(g, a, w, 2500, 17)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("method", [montecarlo(99, 1), EXACT], ids=["montecarlo", "exact"])
def test_resampling_rejects_non_finite_weights(method, bad):
    with pytest.raises(DataError, match="finite"):
        node_test(np.arange(3.0), np.array([0.5, 1.0, -1.5]), np.array([1.0, bad, 1.0]), method)


def test_log_pvalue_asymptotic_matches_log_of_p_before_underflow():
    for c_max, dof in [(6.0, 1), (9.0, 3), (20.0, 2), (37.0, 5)]:
        p = pvalue_asymptotic(c_max, dof)
        assert log_pvalue_asymptotic(c_max, dof) == pytest.approx(math.log(p), rel=1e-9)
    assert pvalue_asymptotic(40.0, 1) == 0.0
    assert log_pvalue_asymptotic(40.0, 1) < log_pvalue_asymptotic(39.0, 1)
    assert log_pvalue_asymptotic(40.0, 2) > log_pvalue_asymptotic(40.0, 1)


@pytest.mark.parametrize("short", [0, 1, 2])
def test_node_test_rejects_a_short_design_in_any_position(rng, short):
    designs = [rng.normal(size=6), _node_design("onehot", 6, rng), rng.normal(size=6)]
    designs[short] = designs[short][:5]
    with pytest.raises(DataError, match="disagree in length"):
        permstat.test_statistic(designs, rng.normal(size=6), np.ones(6))


@settings(max_examples=60, deadline=None)
@given(
    kinds=DESIGN_KINDS,
    weights=st.lists(st.floats(0.0, 3.0), min_size=2, max_size=30).filter(lambda w: sum(w) >= 2),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_node_test_matches_each_designs_own_linear_statistic(kinds, weights, data_seed):
    # the node's one moment pass gives every design the bits its own call gives
    rng = np.random.Generator(np.random.Philox(key=data_seed))
    n = len(weights)
    designs = [_node_design(k, n, rng) for k in kinds]
    a = np.round(rng.normal(size=n), 1)
    w = np.array(weights)
    node = permstat.test_statistic(designs, a, w)
    for g, result in zip(designs, node):
        assert result == node_test(g, a, w)
        T, mu, var = moments(g, a, w)
        keep = var > permstat.VAR_TOL
        z = np.abs(T[keep] - mu[keep]) / np.sqrt(var[keep])
        assert result[::2] == (float(z.max()) if keep.any() else 0.0, int(keep.sum()))


@pytest.mark.parametrize("n", [1, 7, permstat.DOT_BLOCK, permstat.DOT_BLOCK + 1, 3 * permstat.DOT_BLOCK + 5])
def test_dot_by_blocks_sums_blocks_in_row_order(rng, n):
    w, a, g = rng.random(n), rng.normal(size=n), rng.random((n, 3))
    for x, y in ((w, a), (g, a), (g, g), (g[:, :1], g[:, :1])):
        got = permstat.dot_by_blocks(x, y)
        if n <= permstat.DOT_BLOCK:  # one BLAS call, as x.T @ y makes it
            assert np.array_equal(got, x.T @ y)
        want = x[:permstat.DOT_BLOCK].T @ y[:permstat.DOT_BLOCK]
        for start in range(permstat.DOT_BLOCK, n, permstat.DOT_BLOCK):
            want = want + x[start:start + permstat.DOT_BLOCK].T @ y[start:start + permstat.DOT_BLOCK]
        assert np.array_equal(got, want)
        np.testing.assert_allclose(got, x.T @ y, rtol=1e-12)


DOT_SCRIPT = """
import numpy as np, sys
from survtree.permstat import dot_by_blocks
rng = np.random.default_rng(3)
n = 200_003
w, a = rng.random(n), rng.normal(size=n)
for p in (1, 4, 10):
    wg = rng.random((n, p)) * w[:, None]
    sys.stdout.write(dot_by_blocks(wg, a).tobytes().hex() + dot_by_blocks(wg, wg).tobytes().hex())
sys.stdout.write(dot_by_blocks(w, a).tobytes().hex())
"""


def test_dot_by_blocks_bits_do_not_depend_on_the_blas_thread_count():
    # unblocked, w @ a and the p = 1 and p = 4 products of this size differ
    # in their last bits between one and two OpenBLAS threads
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(survtree.__file__)))
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
        proc = subprocess.run([sys.executable, "-c", DOT_SCRIPT], capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1]


@pytest.mark.parametrize("n_exp", [1, 2, 3, 529, 8193])
def test_philox_replicates_are_the_scores_permuted_by_their_own_stream(rng, n_exp):
    # replicate b is a_exp[permutation(n_exp)] from the stream keyed
    # seed + (b+1) * 2^64, bit for bit; at n_exp = 529 the rows cross a batch
    seed = 2**64 - 3
    a_exp = rng.normal(size=n_exp)
    B = 2_000_000 // n_exp + 5 if n_exp == 529 else 7
    b = 0
    for batch in permstat._philox_permutations(a_exp, B, seed):
        for row in batch:
            perm = np.random.Generator(np.random.Philox(key=seed + ((b + 1) << 64))).permutation(n_exp)
            assert np.array_equal(row, a_exp[perm])
            b += 1
    assert b == B


def test_node_results_do_not_depend_on_the_node_tested_before(rng):
    # one node, a node of another expanded size, then the first node again
    method = montecarlo(999, 5)
    first = ([rng.normal(size=40), _node_design("onehot", 40, rng)], rng.normal(size=40), np.ones(40))
    other = ([rng.normal(size=31)], rng.normal(size=31), np.full(31, 2.0))
    before = permstat.test_statistic(*first, method)
    permstat.test_statistic(*other, method)
    assert permstat.test_statistic(*first, method) == before


def test_montecarlo_fit_of_the_default_cohort_peaks_below_22_mb():
    # the replicates need one buffer of 2,000,000 floats (16 MB), and a second
    # array of that size (an index buffer, a gathered copy) would pass 22 MB
    ds = survtree.simulate_cohort(survtree.SimConfig())
    cfg = survtree.FitConfig(max_depth=1, test=montecarlo(9999, 0))
    tracemalloc.start()
    try:
        survtree.fit(ds, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 22 * 2**20
