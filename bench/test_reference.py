"""Tests of the benchmark's reference computations, against hand-worked
examples and brute-force enumeration. Run: python3 -m pytest bench -q"""

import itertools
import math

import numpy as np
import pytest

import reference


def test_logrank_hand_worked_example():
    scores = reference.logrank_scores(np.array([1.0, 2.0, 3.0]), np.array([True, True, True]))
    np.testing.assert_allclose(scores, [2 / 3, 1 / 6, -5 / 6], rtol=0, atol=1e-12)


def test_logrank_censored_at_event_time_stays_at_risk():
    # s=1: one death among 3 at risk; s=2: one death among 1 at risk
    scores = reference.logrank_scores(np.array([1.0, 1.0, 2.0]), np.array([True, False, True]))
    np.testing.assert_allclose(scores, [2 / 3, -1 / 3, -1 / 3], rtol=0, atol=1e-12)


def test_logrank_integer_weights_equal_replication():
    rng = np.random.default_rng(3)
    t = rng.integers(1, 6, 12).astype(float)
    e = rng.random(12) < 0.6
    w = rng.integers(1, 4, 12).astype(float)
    rows = np.repeat(np.arange(12), w.astype(int))
    np.testing.assert_allclose(
        reference.logrank_scores(t, e, w)[rows], reference.logrank_scores(t[rows], e[rows]), atol=1e-12
    )
    assert abs(reference.logrank_scores(t, e).sum()) < 1e-12


def _brute_scan(x, a, minbucket):
    n, mean = len(x), sum(a) / len(a)
    v = sum((ai - mean) ** 2 for ai in a) / n
    out = {}
    for c in sorted(set(x))[:-1]:
        left = [ai for xi, ai in zip(x, a) if xi <= c]
        nl = len(left)
        if nl < minbucket or n - nl < minbucket:
            out[c] = -math.inf
            continue
        var = v * nl * (n - nl) / (n - 1)
        out[c] = abs(sum(left) - nl * mean) / math.sqrt(var)
    return out


def test_twosample_scan_matches_brute_force():
    rng = np.random.default_rng(5)
    x = rng.integers(0, 15, 60).astype(float)
    a = rng.normal(size=60)
    cutoffs, stats = reference.twosample_scan(x, a, minbucket=7)
    brute = _brute_scan(x.tolist(), a.tolist(), 7)
    assert cutoffs.tolist() == list(brute)
    np.testing.assert_allclose(stats, list(brute.values()), rtol=1e-12)


def test_midranks_expand_weights():
    x = np.array([3.0, 1.0, 3.0, 2.0])
    np.testing.assert_array_equal(reference.midranks(x), [3.5, 1.0, 3.5, 2.0])
    # weights 2,1,1,1 expand to 1, 2, 3, 3, 3: the three 3s share rank 4
    np.testing.assert_array_equal(reference.midranks(x, np.array([2.0, 1.0, 1.0, 1.0])), [4.0, 1.0, 4.0, 2.0])


def test_onehot():
    np.testing.assert_array_equal(reference.onehot([2, 0, 2], 3), [[0, 0, 1], [1, 0, 0], [0, 0, 1]])


def test_c_max_matches_moments_over_all_permutations():
    rng = np.random.default_rng(7)
    g = np.column_stack([rng.normal(size=6), rng.integers(0, 2, 6)])
    a = rng.normal(size=6)
    T = np.array([a[list(p)] @ g for p in itertools.permutations(range(6))])
    z = np.abs(a @ g - T.mean(axis=0)) / T.std(axis=0)
    assert reference.c_max(g, a) == pytest.approx(z.max(), rel=1e-10)


def test_c_max_skips_degenerate_coordinates():
    a = np.array([1.0, -1.0, 0.5, -0.5])
    assert reference.c_max(np.ones(4), a) == 0.0
    g = np.column_stack([np.ones(4), [1.0, 0.0, 0.0, 0.0]])
    assert reference.c_max(g, a) == pytest.approx(reference.c_max(g[:, 1], a))


def test_permutation_pvalues_agree_with_enumeration():
    rng = np.random.default_rng(11)
    a = rng.normal(size=7)
    designs = [rng.normal(size=7), reference.onehot(rng.integers(0, 3, 7), 3), np.ones(7)]
    B = 4000
    p_mc = reference.permutation_pvalues(designs, a, B, np.random.default_rng(1))
    for design, p in zip(designs[:2], p_mc[:2]):
        observed = reference.c_max(design, a)
        perms = list(itertools.permutations(range(7)))
        exact = np.mean([
            reference.c_max(design, a[list(q)]) >= observed - 1e-8 * max(1.0, observed) for q in perms
        ])
        assert abs(p - exact) <= 4 * math.sqrt(exact * (1 - exact) / B) + 1 / (B + 1)
        assert (p * (B + 1)) == pytest.approx(round(p * (B + 1)))
    assert p_mc[2] == 1.0  # a constant design ties every permutation


def test_kaplan_meier_hand_worked():
    t, s = reference.kaplan_meier(np.array([1.0, 2.0, 2.0, 3.0, 4.0]), np.array([1, 1, 0, 1, 0], dtype=bool))
    np.testing.assert_array_equal(t, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(s, [4 / 5, 4 / 5 * 3 / 4, 4 / 5 * 3 / 4 * 1 / 2], rtol=0, atol=1e-15)


def test_route_columns():
    doc = {
        "config": {"covariates": [
            {"name": "meld", "kind": "numeric", "levels": None, "ordered": False},
            {"name": "hcc", "kind": "categorical", "levels": ["no", "yes"], "ordered": False},
            {"name": "grade", "kind": "categorical", "levels": ["a", "b", "c"], "ordered": True},
        ]},
        "nodes": [
            {"id": 1, "kind": "internal", "covariate": "meld", "split": {"cutoff": 16.0}, "children": [2, 3]},
            {"id": 2, "kind": "internal", "covariate": "hcc", "split": {"subset": ["no"]}, "children": [4, 5]},
            {"id": 3, "kind": "internal", "covariate": "grade", "split": {"cutoff": 1.0}, "children": [6, 7]},
            {"id": 4, "kind": "leaf"}, {"id": 5, "kind": "leaf"},
            {"id": 6, "kind": "leaf"}, {"id": 7, "kind": "leaf"},
        ],
    }
    columns = {
        "meld": np.array(["12.5", "16", "20", "30", "", "10", "25"]),
        "hcc": np.array(["no", "yes", "no", "no", "no", "maybe", "yes"]),
        "grade": np.array(["a", "c", "b", "c", "a", "a", ""]),
    }
    np.testing.assert_array_equal(reference.route_columns(doc, columns), [4, 5, 6, 7, -1, -1, -1])
