import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import csv_text
from survtree import (
    DataError,
    FitConfig,
    MeldRecord,
    SimConfig,
    fit,
    load_csv,
    meld_score,
    simulate_cohort,
)
from survtree import meld
from survtree.data import ColumnSpec, Schema
from survtree.meld import read_config_file, simconfig_from_strings


def test_meld_score_examples():
    assert meld_score(MeldRecord(1.0, 1.0, 1.0, 0)) == 0.0
    assert meld_score(MeldRecord(1.0, 1.0, 1.0, 1)) == 6.4
    assert meld_score(MeldRecord(2.0, 1.5, 1.2, 1)) == pytest.approx(15.325, abs=0.001)


def test_meld_score_is_additive_in_etiology_flag(rng):
    for _ in range(20):
        b, i, c = rng.uniform(0.2, 8.0, 3)
        low = meld_score(MeldRecord(b, i, c, 0))
        high = meld_score(MeldRecord(b, i, c, 1))
        assert high - low == pytest.approx(6.4, abs=1e-12)


def test_meld_score_monotone_in_each_lab():
    base = meld_score(MeldRecord(2.0, 1.5, 1.2, 0))
    assert meld_score(MeldRecord(2.5, 1.5, 1.2, 0)) > base
    assert meld_score(MeldRecord(2.0, 1.8, 1.2, 0)) > base
    assert meld_score(MeldRecord(2.0, 1.5, 1.5, 0)) > base


def test_meld_score_rejects_nonpositive_labs():
    with pytest.raises(DataError, match="positive"):
        meld_score(MeldRecord(0.0, 1.0, 1.0, 0))
    with pytest.raises(DataError, match="positive"):
        meld_score(MeldRecord(1.0, -2.0, 1.0, 1))


def test_meld_score_clamp_option():
    # labs below 1.0 are floored at 1.0 only when asked
    r = MeldRecord(0.5, 1.0, 0.8, 0)
    assert meld_score(r) < 0.0
    assert meld_score(r, clamp=True) == 0.0


def test_meld_score_rejects_bad_flag():
    with pytest.raises(DataError, match="etiology_flag"):
        meld_score(MeldRecord(1.0, 1.0, 1.0, 2))


def test_simulate_shape_and_columns():
    ds = simulate_cohort(SimConfig(n=100, seed=3))
    assert ds.n == 100
    assert [c.name for c in ds.covariates] == [
        "sex", "age", "blood_type", "bmi", "etiology", "hcc", "meld",
    ]
    meld = ds.covariate("meld").values
    assert meld.min() >= 6.0 and meld.max() <= 40.0


def test_simulate_deterministic_bytes():
    a = csv_text(simulate_cohort(SimConfig(n=200, seed=9)))
    b = csv_text(simulate_cohort(SimConfig(n=200, seed=9)))
    assert a == b
    c = csv_text(simulate_cohort(SimConfig(n=200, seed=10)))
    assert a != c


def test_simulate_round_trips_through_load_csv(tmp_path):
    ds = simulate_cohort(SimConfig(n=60, seed=4))
    path = tmp_path / "cohort.csv"
    path.write_text(csv_text(ds), encoding="utf-8")
    schema = Schema("time", "event", tuple(ColumnSpec(c.name) for c in ds.covariates))
    back, dropped = load_csv(str(path), schema)
    assert dropped == 0
    assert back.n == ds.n
    for c in ds.covariates:
        if c.kind == "numeric":
            np.testing.assert_array_equal(back.covariate(c.name).values, c.values)
        else:
            assert back.covariate(c.name).levels == c.levels
            np.testing.assert_array_equal(back.covariate(c.name).values, c.values)
    np.testing.assert_array_equal(back.response.time, ds.response.time)
    np.testing.assert_array_equal(back.response.event, ds.response.event)


def test_simulate_event_fraction_near_target():
    ds = simulate_cohort(SimConfig(seed=1))
    frac = float(np.mean(ds.response.event))
    assert abs(frac - 0.36) <= 0.06


def test_simulate_null_mostly_single_leaf():
    single = 0
    for seed in range(1, 21):
        ds = simulate_cohort(SimConfig(seed=seed, hazard_ratio=1.0))
        tree = fit(ds, FitConfig())
        single += tree.root.is_leaf
    assert single >= 17  # alpha = 0.05 null: >= 90% expected


def test_simulate_age_and_hcc_effects_shift_hazards():
    base = simulate_cohort(SimConfig(n=4000, seed=5))
    aged = simulate_cohort(SimConfig(n=4000, seed=5, age_effect=(33.2, 4.0)))
    young_b = base.covariate("age").values <= 33.2
    # same covariate draws (same seed/stream order), different event times
    np.testing.assert_array_equal(base.covariate("age").values, aged.covariate("age").values)
    assert aged.response.event[young_b].mean() > base.response.event[young_b].mean()


def test_simulate_labs_mode_spans_range():
    ds = simulate_cohort(SimConfig(n=300, seed=6, labs_mode=True))
    meld = ds.covariate("meld").values
    assert meld.min() >= 6.0 and meld.max() <= 40.0
    assert np.unique(meld).size > 100  # continuous-ish, formula-driven


def test_simulate_validates_config():
    with pytest.raises(DataError, match="cohort size"):
        simulate_cohort(SimConfig(n=1))
    with pytest.raises(DataError, match="positive"):
        simulate_cohort(SimConfig(hazard_ratio=0.0))
    with pytest.raises(DataError, match="censor_fraction_target"):
        simulate_cohort(SimConfig(censor_fraction_target=1.0))
    with pytest.raises(DataError, match="probabilities"):
        simulate_cohort(SimConfig(etiology_probs=(("a", 0.5), ("b", 0.6))))
    for seed in (-1, 2**128):  # outside the Philox key range
        with pytest.raises(DataError, match="seed must be in"):
            simulate_cohort(SimConfig(seed=seed))


def test_simulate_accepts_the_largest_philox_key():
    assert simulate_cohort(SimConfig(n=10, seed=2**128 - 1)).n == 10


def test_config_file_parsing(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text(
        "# cohort\nn = 77\nseed=5\nhazard_ratio = 2.5\nage_effect_threshold=33.2\n"
        "age_effect_ratio = 2\nlabs_mode = true\n",
        encoding="utf-8",
    )
    cfg = simconfig_from_strings(read_config_file(str(path)))
    assert cfg.n == 77
    assert cfg.seed == 5
    assert cfg.hazard_ratio == 2.5
    assert cfg.age_effect == (33.2, 2.0)
    assert cfg.labs_mode is True


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text("bogus = 3\n", encoding="utf-8")
    with pytest.raises(DataError, match="unknown config key"):
        read_config_file(str(path))


def test_config_age_effect_needs_both_keys():
    with pytest.raises(DataError, match="together"):
        simconfig_from_strings({"age_effect_threshold": "33.2"})


def _full_bisection_rate(hazards: np.ndarray, event_target: float) -> float:
    """The censoring rate as the full 200-step bisection through np.mean
    computes it: the oracle for meld._censoring_rate."""
    def frac(mu: float) -> float:
        return float(np.mean(hazards / (hazards + mu)))

    lo, hi = 1e-12, 1e6
    if not (frac(lo) >= event_target >= frac(hi)):
        raise DataError(
            f"censoring target {1 - event_target:.3f} infeasible for these hazards"
        )
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if frac(mid) > event_target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def _hazards(kind: str, n: int, seed: int) -> np.ndarray:
    """Per-row hazards: a few distinct levels, as the generator's planted
    ratios give, or continuous lognormal ones."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    if kind == "levels":
        levels = 5e-4 * np.exp(rng.uniform(-3.0, 3.0, int(rng.integers(1, 5))))
        return levels[rng.integers(0, levels.size, n)]
    return rng.lognormal(math.log(5e-4), rng.uniform(0.0, 3.0), n)


def _outcome(rate, hazards, target):
    try:
        return rate(hazards, target)
    except DataError as exc:
        return ("DataError", str(exc))


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["levels", "lognormal"]),
    n=st.integers(2, 5000),
    seed=st.integers(0, 2**32 - 1),
    target=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
@example(kind="levels", n=529, seed=1, target=0.36)
@example(kind="levels", n=2, seed=1, target=1.0 - 1e-12)  # infeasible: above frac(1e-12)
@example(kind="lognormal", n=2, seed=1, target=1e-300)  # infeasible: below frac(1e6)
def test_censoring_rate_matches_full_bisection(kind, n, seed, target):
    hazards = _hazards(kind, n, seed)
    calls = []

    def sqrt(x):
        calls.append(x)
        return math.sqrt(x)

    with mock.patch.object(meld, "math", types.SimpleNamespace(sqrt=sqrt)):
        got = _outcome(meld._censoring_rate, hazards, target)
    want = _outcome(_full_bisection_rate, hazards, target)
    assert got == want
    if not isinstance(want, tuple):
        assert len(calls) - 1 <= 64  # bisection steps before the fixed point
