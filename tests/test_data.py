import numpy as np
import pytest

from survtree import (
    CATEGORICAL,
    NUMERIC,
    ColumnSpec,
    Covariate,
    DataError,
    Dataset,
    Schema,
    SplitRule,
    SurvivalResponse,
    dataset_to_csv,
    load_csv,
    subset_weights,
)

SCHEMA = Schema("time", "event", (ColumnSpec("meld"), ColumnSpec("sex")))


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_complete_rows(tmp_path):
    path = write(tmp_path, "time,event,meld,sex\n10,1,12.5,m\n20,0,18,f\n30,1,9,m\n")
    ds, dropped = load_csv(path, SCHEMA)
    assert ds.n == 3
    assert dropped == 0
    assert ds.covariate("meld").kind == NUMERIC
    assert ds.covariate("sex").kind == CATEGORICAL
    np.testing.assert_allclose(ds.response.time, [10, 20, 30])
    np.testing.assert_array_equal(ds.response.event, [True, False, True])


def test_load_drops_incomplete_row(tmp_path):
    path = write(
        tmp_path,
        "time,event,meld,sex\n10,1,12.5,m\n20,0,,f\n30,1,9,m\n15,0,11,f\n40,1,22,m\n",
    )
    ds, dropped = load_csv(path, SCHEMA)
    assert ds.n == 4
    assert dropped == 1


def test_dropped_plus_retained_is_raw(tmp_path):
    path = write(
        tmp_path,
        "time,event,meld,sex\n10,1,12.5,m\n,1,13,f\n30,,9,m\n15,0,11,\n40,1,22,m\n",
    )
    ds, dropped = load_csv(path, SCHEMA)
    assert ds.n + dropped == 5
    assert ds.n == 2


def test_bad_event_value_is_error_not_drop(tmp_path):
    path = write(tmp_path, "time,event,meld,sex\n10,1,12.5,m\n20,2,18,f\n")
    with pytest.raises(DataError, match="event"):
        load_csv(path, SCHEMA)


def test_event_accepts_true_false_words(tmp_path):
    path = write(tmp_path, "time,event,meld,sex\n10,true,12.5,m\n20,FALSE,18,f\n")
    ds, _ = load_csv(path, SCHEMA)
    np.testing.assert_array_equal(ds.response.event, [True, False])


def test_negative_time_is_error(tmp_path):
    path = write(tmp_path, "time,event,meld,sex\n-1,1,12.5,m\n20,0,18,f\n")
    with pytest.raises(DataError, match="negative time"):
        load_csv(path, SCHEMA)


def test_missing_file():
    with pytest.raises(DataError, match="cannot read"):
        load_csv("/nonexistent/nope.csv", SCHEMA)


def test_missing_schema_column(tmp_path):
    path = write(tmp_path, "time,event,meld\n10,1,12.5\n")
    with pytest.raises(DataError, match="'sex'"):
        load_csv(path, SCHEMA)


def test_zero_rows_after_exclusion(tmp_path):
    path = write(tmp_path, "time,event,meld,sex\n10,1,,m\n20,0,,f\n")
    with pytest.raises(DataError, match="zero rows"):
        load_csv(path, SCHEMA)


def test_load_is_deterministic(tmp_path):
    path = write(tmp_path, "time,event,meld,sex\n10,1,12.5,m\n20,0,18,f\n")
    ds1, _ = load_csv(path, SCHEMA)
    ds2, _ = load_csv(path, SCHEMA)
    np.testing.assert_array_equal(ds1.covariate("meld").values, ds2.covariate("meld").values)
    assert ds1.covariate("sex").levels == ds2.covariate("sex").levels


def test_auto_levels_are_sorted(tmp_path):
    path = write(tmp_path, "time,event,meld,sex\n10,1,1,zeta\n20,0,2,alpha\n5,1,3,mid\n")
    ds, _ = load_csv(path, SCHEMA)
    assert ds.covariate("sex").levels == ("alpha", "mid", "zeta")


def test_declared_levels_respected_and_unknown_dropped(tmp_path):
    schema = Schema(
        "time", "event", (ColumnSpec("grade", "categorical", ("low", "high")),)
    )
    path = write(tmp_path, "time,event,grade\n10,1,low\n20,0,high\n30,1,other\n")
    ds, dropped = load_csv(path, schema)
    assert dropped == 1
    assert ds.covariate("grade").levels == ("low", "high")


def test_ordinal_declaration(tmp_path):
    schema = Schema("time", "event", (ColumnSpec("stage", "ordinal", ("i", "ii", "iii")),))
    path = write(tmp_path, "time,event,stage\n10,1,i\n20,0,iii\n30,1,ii\n")
    ds, _ = load_csv(path, schema)
    cov = ds.covariate("stage")
    assert cov.ordered
    np.testing.assert_array_equal(cov.values, [0, 2, 1])


def test_forced_numeric_drops_unparseable(tmp_path):
    schema = Schema("time", "event", (ColumnSpec("meld", "numeric"),))
    path = write(tmp_path, "time,event,meld\n10,1,12.5\n20,0,oops\n")
    ds, dropped = load_csv(path, schema)
    assert (ds.n, dropped) == (1, 1)


def test_duplicate_covariate_names_rejected():
    resp = SurvivalResponse(np.array([1.0, 2.0]), np.array([True, False]))
    cov = Covariate("x", NUMERIC, np.array([1.0, 2.0]))
    with pytest.raises(DataError, match="unique"):
        Dataset((cov, cov), resp)


def test_schema_duplicate_column_rejected():
    with pytest.raises(DataError, match="twice"):
        Schema("t", "t", (ColumnSpec("x"),))


def test_response_only_load_ignores_covariate_cells(tmp_path):
    path = write(tmp_path, "time,event,meld\n10,1,\n,0,18\n30,1,x\n")
    ds, dropped = load_csv(path, Schema("time", "event"))
    assert (ds.n, ds.m, dropped) == (2, 0, 1)
    np.testing.assert_allclose(ds.response.time, [10, 30])


# --- subset_weights ----------------------------------------------------------


def two_col_dataset():
    x = Covariate("x", NUMERIC, np.array([1.0, 2.0, 3.0]))
    g = Covariate("g", CATEGORICAL, np.array([0, 0, 1]), levels=("A", "B"))
    resp = SurvivalResponse(np.array([5.0, 6.0, 7.0]), np.array([True, True, False]))
    return Dataset((x, g), resp)


def test_subset_weights_numeric():
    ds = two_col_dataset()
    left, right = subset_weights(ds, np.array([1.0, 1.0, 1.0]), SplitRule("x", cutoff=2.0))
    np.testing.assert_array_equal(left, [1, 1, 0])
    np.testing.assert_array_equal(right, [0, 0, 1])


def test_subset_weights_keeps_zeros():
    ds = two_col_dataset()
    left, right = subset_weights(ds, np.array([1.0, 0.0, 1.0]), SplitRule("x", cutoff=2.0))
    np.testing.assert_array_equal(left, [1, 0, 0])
    np.testing.assert_array_equal(right, [0, 0, 1])


def test_subset_weights_categorical():
    x = Covariate("g", CATEGORICAL, np.array([0, 1]), levels=("A", "B"))
    resp = SurvivalResponse(np.array([1.0, 2.0]), np.array([True, False]))
    ds = Dataset((x,), resp)
    left, right = subset_weights(ds, np.array([2.0, 3.0]), SplitRule("g", subset=("A",)))
    np.testing.assert_array_equal(left, [2, 0])
    np.testing.assert_array_equal(right, [0, 3])


def test_subset_weights_unknown_covariate():
    ds = two_col_dataset()
    with pytest.raises(DataError, match="unknown covariate"):
        subset_weights(ds, np.ones(3), SplitRule("nope", cutoff=1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_subset_weights_non_finite_rejected(bad):
    with pytest.raises(DataError, match="finite"):
        subset_weights(two_col_dataset(), np.array([1.0, bad, 1.0]), SplitRule("x", cutoff=2.0))


def test_subset_weights_partition_property(rng):
    ds = two_col_dataset()
    for _ in range(20):
        w = rng.random(3) * 3
        cut = float(rng.uniform(0, 4))
        left, right = subset_weights(ds, w, SplitRule("x", cutoff=cut))
        np.testing.assert_array_equal(left + right, w)
        assert (left >= 0).all() and (right >= 0).all()


def test_round_trip_csv(tmp_path, rng):
    ds = two_col_dataset()
    path = tmp_path / "rt.csv"
    path.write_text(dataset_to_csv(ds), encoding="utf-8")
    schema = Schema("time", "event", (ColumnSpec("x"), ColumnSpec("g")))
    back, dropped = load_csv(str(path), schema)
    assert dropped == 0
    np.testing.assert_array_equal(back.covariate("x").values, ds.covariate("x").values)
    np.testing.assert_array_equal(back.covariate("g").values, ds.covariate("g").values)
    np.testing.assert_array_equal(back.response.time, ds.response.time)
    np.testing.assert_array_equal(back.response.event, ds.response.event)
