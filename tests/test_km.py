import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_censored
from survtree import DataError, km_estimate
from survtree.influence import event_table


def test_product_limit_by_hand():
    curve = km_estimate(np.array([1.0, 2.0, 3.0, 4.0]), np.full(4, True))
    assert curve.steps == ((1.0, 0.75), (2.0, 0.5), (3.0, 0.25), (4.0, 0.0))
    assert curve.median == 2.0


def test_all_censored_curve_stays_at_one():
    curve = km_estimate(np.array([5.0, 9.0]), np.array([False, False]))
    assert curve.steps == ()
    assert curve.median is None
    assert curve.survival_at(100.0) == 1.0


def test_single_event_then_censoring():
    curve = km_estimate(np.array([2.0, 5.0]), np.array([True, False]))
    assert curve.steps == ((2.0, 0.5),)
    assert curve.survival_at(4.9) == 0.5
    assert curve.survival_at(1.9) == 1.0
    assert curve.median == 2.0


def test_zero_total_weight_rejected():
    with pytest.raises(DataError, match="zero"):
        km_estimate(np.array([1.0]), np.array([True]), np.array([0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weights_rejected(bad):
    with pytest.raises(DataError, match="finite"):
        km_estimate(np.array([1.0, 2.0]), np.array([True, True]), np.array([bad, 1.0]))


def test_no_censoring_matches_empirical_tail(rng):
    for _ in range(20):
        n = int(rng.integers(2, 40))
        time = np.round(rng.exponential(10, n), 2)
        w = rng.integers(1, 4, n).astype(float)
        curve = km_estimate(time, np.full(n, True), w)
        for t in np.unique(time):
            expected = float(w[time > t].sum()) / float(w.sum())
            assert curve.survival_at(float(t)) == pytest.approx(expected, abs=1e-12)


def test_weight_scaling_invariance(rng):
    time, event = make_censored(rng, 30)
    w = rng.random(30) + 0.1
    c1 = km_estimate(time, event, w)
    c2 = km_estimate(time, event, 7.5 * w)
    assert len(c1.steps) == len(c2.steps)
    for (t1, s1), (t2, s2) in zip(c1.steps, c2.steps):
        assert t1 == t2
        assert s1 == pytest.approx(s2, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**31))
def test_curve_is_monotone_within_unit_interval(n, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    time, event = make_censored(rng, n)
    curve = km_estimate(time, event)
    values = [s for _, s in curve.steps]
    assert all(0.0 <= s <= 1.0 for s in values)
    assert all(a >= b for a, b in zip(values, values[1:]))
    times = [t for t, _ in curve.steps]
    assert times == sorted(times)
    assert curve.survival_at(-1.0) == 1.0


def test_median_is_smallest_step_at_or_below_half():
    # survival hits exactly 0.5 at t=2 -> median 2
    curve = km_estimate(np.array([1.0, 2.0, 3.0, 4.0]), np.full(4, True))
    assert curve.median == 2.0
    # stays above 0.5 -> undefined
    curve2 = km_estimate(
        np.array([1.0, 2.0, 3.0, 4.0]), np.array([True, False, False, False])
    )
    assert curve2.median is None


def _tuple_steps(time, event, weights):
    """The (time, survival) tuples the curve was once stored as."""
    ev_times, d, r = event_table(time, event, weights)
    surv = np.cumprod(1.0 - d / r)
    return tuple((float(t), float(s)) for t, s in zip(ev_times, surv))


def _tuple_median(steps):
    for t, s in steps:
        if s <= 0.5:
            return t
    return None


def _tuple_survival_at(steps, t):
    out = 1.0
    for st_, s in steps:
        if st_ <= t:
            out = s
        else:
            break
    return out


WEIGHTED_SAMPLES = st.lists(
    st.tuples(st.integers(0, 6), st.booleans(), st.sampled_from([0.0, 0.25, 1.0, 2.0, 3.0])),
    min_size=1,
    max_size=30,
).filter(lambda rows: sum(w for _, _, w in rows) > 0)


@settings(max_examples=200, deadline=None)
@given(WEIGHTED_SAMPLES, st.booleans())
def test_array_curve_matches_the_tuple_walk(rows, all_censored):
    # few distinct times: ties between events, censorings and both
    time = np.array([t * 1.5 for t, _, _ in rows])
    event = np.array([e and not all_censored for _, e, _ in rows])
    w = np.array([w for _, _, w in rows])
    curve = km_estimate(time, event, w)
    steps = _tuple_steps(time, event, w)
    assert curve.steps == steps
    assert curve.median == _tuple_median(steps)
    event_times = [t for t, _ in steps]
    between = [(a + b) / 2 for a, b in zip(event_times, event_times[1:])]
    first = event_times[0] if event_times else 0.0
    last = event_times[-1] if event_times else 0.0
    for t in [first - 1.0, *event_times, *between, last + 1.0, *time.tolist()]:
        assert curve.survival_at(t) == _tuple_survival_at(steps, t)


def test_length_mismatch_rejected():
    with pytest.raises(DataError, match="equal length"):
        km_estimate(np.array([1.0, 2.0]), np.array([True, True]), np.ones(3))
