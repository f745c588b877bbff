import numpy as np
import pytest

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
