import numpy as np
import pytest

from conftest import make_censored
from survtree import (
    CATEGORICAL,
    NUMERIC,
    Covariate,
    DataError,
    encode_covariate,
    logrank_scores,
)


def test_worked_three_event_example():
    # hand Nelson-Aalen: cumhaz = 1/3, 1/3 + 1/2, 1/3 + 1/2 + 1
    a = logrank_scores(np.array([1.0, 2.0, 3.0]), np.array([True, True, True]))
    np.testing.assert_allclose(a, [2 / 3, 1 / 6, -5 / 6], atol=1e-12)


def test_single_event_observation():
    a = logrank_scores(np.array([5.0]), np.array([True]))
    np.testing.assert_allclose(a, [0.0], atol=1e-15)


def test_all_censored_scores_are_zero():
    a = logrank_scores(np.array([3.0, 8.0, 1.0]), np.array([False, False, False]))
    np.testing.assert_array_equal(a, np.zeros(3))


def test_all_zero_weights_rejected():
    with pytest.raises(DataError, match="zero"):
        logrank_scores(np.array([1.0, 2.0]), np.array([True, False]), np.zeros(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weights_rejected(bad):
    with pytest.raises(DataError, match="finite"):
        logrank_scores(np.array([1.0, 2.0]), np.array([True, False]), np.array([1.0, bad]))


def test_scores_sum_to_zero_unit_weights(rng):
    for _ in range(50):
        n = int(rng.integers(2, 60))
        time, event = make_censored(rng, n)
        a = logrank_scores(time, event)
        assert abs(a.sum()) < 1e-10


def test_permutation_equivariance(rng):
    time, event = make_censored(rng, 40)
    a = logrank_scores(time, event)
    perm = rng.permutation(40)
    a_perm = logrank_scores(time[perm], event[perm])
    np.testing.assert_allclose(a_perm, a[perm], atol=1e-12)


def test_time_transform_invariance(rng):
    time, event = make_censored(rng, 30)
    a = logrank_scores(time, event)
    a2 = logrank_scores(np.exp(time / 50.0), event)
    np.testing.assert_allclose(a2, a, atol=1e-12)


def test_doubling_weights_leaves_scores_unchanged(rng):
    time, event = make_censored(rng, 25)
    w = rng.integers(1, 4, 25).astype(float)
    np.testing.assert_allclose(
        logrank_scores(time, event, 2 * w), logrank_scores(time, event, w), atol=1e-12
    )


def test_tied_times_events_before_censoring():
    # one event and one censored observation share t=2: the censored one is
    # still at risk for the event, and its cumhazard includes the jump at 2
    time = np.array([2.0, 2.0, 5.0])
    event = np.array([True, False, False])
    a = logrank_scores(time, event)
    np.testing.assert_allclose(a, [1 - 1 / 3, -1 / 3, -1 / 3], atol=1e-12)


def test_encode_numeric_is_column():
    cov = Covariate("x", NUMERIC, np.array([4.0, 5.5]))
    np.testing.assert_array_equal(encode_covariate(cov), [[4.0], [5.5]])


def test_encode_categorical_one_hot():
    cov = Covariate("g", CATEGORICAL, np.array([0, 1, 0]), levels=("A", "B"))
    np.testing.assert_array_equal(encode_covariate(cov), [[1, 0], [0, 1], [1, 0]])


def test_encode_categorical_three_levels():
    cov = Covariate("g", CATEGORICAL, np.array([1]), levels=("A", "B", "C"))
    np.testing.assert_array_equal(encode_covariate(cov), [[0, 1, 0]])


def test_encode_ordered_categorical_is_numeric_indices():
    cov = Covariate("g", CATEGORICAL, np.array([2, 0, 1]), levels=("lo", "mid", "hi"), ordered=True)
    np.testing.assert_array_equal(encode_covariate(cov), [[2.0], [0.0], [1.0]])
