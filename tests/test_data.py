import csv
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csv_oracle
from conftest import csv_text
from survtree import (
    CATEGORICAL,
    NUMERIC,
    ColumnSpec,
    Covariate,
    DataError,
    Dataset,
    Schema,
    SplitRule,
    SimConfig,
    SurvivalResponse,
    dataset_to_csv,
    load_csv,
    simulate_cohort,
    subset_weights,
)
from survtree.data import _BLOCK, read_csv_columns, typed_column
from survtree.partition import CovariateInfo, FitConfig, Tree, TreeNode, predict_node, route
from survtree.treedoc import document_to_tree, tree_to_document

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


@pytest.mark.parametrize("rows, message", [
    ("-1,2\n", ":2: event value '2'"),            # one line: the event is reported
    ("-1,1\n5,2\n", ":2: negative time '-1'"),    # the first line is reported
    ("5,1\n-1,yes\n", ":3: event value 'yes'"),
])
def test_first_domain_error_is_reported(tmp_path, rows, message):
    path = write(tmp_path, "time,event\n" + rows)
    with pytest.raises(DataError, match=message):
        load_csv(path, Schema("time", "event"))


def test_missing_file():
    with pytest.raises(DataError, match="cannot read"):
        load_csv("/nonexistent/nope.csv", SCHEMA)


@pytest.mark.parametrize("body, message", [
    (b"1,1,caf\xe9\n", "can't decode byte 0xe9"),          # not UTF-8
    (b"1,1," + b"a" * 200_000 + b"\n", "field larger than field limit"),
])
def test_unreadable_text_is_data_error(tmp_path, body, message):
    path = tmp_path / "data.csv"
    path.write_bytes(b"time,event,meld\n" + body)
    with pytest.raises(DataError, match=f"cannot read .*{message}"):
        load_csv(str(path), Schema("time", "event", (ColumnSpec("meld"),)))


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


def two_col_dataset(levels=("A", "B")):
    x = Covariate("x", NUMERIC, np.array([1.0, 2.0, 3.0]))
    g = Covariate("g", CATEGORICAL, np.array([0, 0, 1]), levels=levels)
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


def with_ordinal(ds):
    """`ds` plus an ordered categorical o with levels lo < mid < hi."""
    o = Covariate("o", CATEGORICAL, np.array([0, 1, 2]), levels=("lo", "mid", "hi"), ordered=True)
    return Dataset(ds.covariates + (o,), ds.response)


def test_subset_weights_ordinal_cut():
    left, right = subset_weights(with_ordinal(two_col_dataset()), np.ones(3), SplitRule("o", cutoff=1.0))
    np.testing.assert_array_equal(left, [1, 1, 0])
    np.testing.assert_array_equal(right, [0, 0, 1])


@pytest.mark.parametrize(
    "rule",
    [
        SplitRule("g", cutoff=0.0),
        SplitRule("x", subset=("A",)),
        SplitRule("g", subset=("A", "C")),
        SplitRule("g", subset=()),
        SplitRule("g", subset=("A", "B")),
        SplitRule("o", subset=("lo",)),
        SplitRule("o", cutoff=2.0),
    ],
    ids=[
        "cut-on-unordered", "subset-on-numeric", "unknown-level", "empty-subset", "every-level",
        "subset-on-ordered", "cut-at-last-level",
    ],
)
def test_subset_weights_rejects_a_rule_that_does_not_fit(rule):
    with pytest.raises(DataError, match=f"does not fit .*covariate '{rule.covariate}'"):
        subset_weights(with_ordinal(two_col_dataset()), np.ones(3), rule)


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
    # a level holding the delimiter or a quote is quoted on the way out
    for levels in [("A", "B"), ("a,b", 'say "b"')]:
        ds = two_col_dataset(levels)
        path = tmp_path / "rt.csv"
        path.write_text(csv_text(ds), encoding="utf-8")
        schema = Schema("time", "event", (ColumnSpec("x"), ColumnSpec("g")))
        back, dropped = load_csv(str(path), schema)
        assert dropped == 0
        np.testing.assert_array_equal(back.covariate("x").values, ds.covariate("x").values)
        np.testing.assert_array_equal(back.covariate("g").values, ds.covariate("g").values)
        np.testing.assert_array_equal(back.response.time, ds.response.time)
        np.testing.assert_array_equal(back.response.event, ds.response.event)
    # the reader strips cells, so " a" would come back as "a"
    with pytest.raises(DataError, match="padded"):
        csv_text(two_col_dataset((" a", "a")))


def whole_cohort_csv(ds):
    """The CSV formatter that the streamed writer replaced: every cell string
    of the cohort first, then one write."""
    columns = [
        [repr(v) if c.kind == NUMERIC else c.levels[v] for v in c.values.tolist()] for c in ds.covariates
    ]
    columns.append([repr(t) for t in ds.response.time.tolist()])
    columns.append(["1" if e else "0" for e in ds.response.event.tolist()])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([c.name for c in ds.covariates] + ["time", "event"])
    writer.writerows(zip(*columns))
    return out.getvalue()


@pytest.mark.parametrize("n", [2 * _BLOCK + 17, 100])
def test_streamed_csv_matches_whole_cohort_formatter(n):
    assert n % _BLOCK
    ds = simulate_cohort(SimConfig(n=n, seed=5))
    rng = np.random.Generator(np.random.Philox(key=n))
    quoted = Covariate("q", CATEGORICAL, rng.integers(0, 3, n), levels=("a,b", 'say "b"', "c"), ordered=True)
    ds = Dataset((*ds.covariates, quoted), ds.response)
    out = io.StringIO()
    dataset_to_csv(ds, out)
    assert out.getvalue() == whole_cohort_csv(ds)


def test_levels_given_as_a_list_are_a_tuple():
    info = Covariate("g", CATEGORICAL, [0, 1], levels=["a", "b"]).info
    assert info.levels == ("a", "b")
    assert hash(info) == hash(CovariateInfo("g", CATEGORICAL, ("a", "b")))
    assert CovariateInfo("g", CATEGORICAL, ["a", "b"]).levels == ("a", "b")
    assert ColumnSpec("g", CATEGORICAL, ["a", "b"]).levels == ("a", "b")


# --- differential: typed columns against the row-by-row oracle -----------------

# (usable cells, rare cells: blank, unparseable, non-finite or out of domain)
CELLS = {
    "time": (["0", "1", "2.5", " 3 ", "7", "12", "-0", "1_0"], ["", " ", "x", "nan", "inf", "-inf", "1e400", "-1"]),
    "event": (["0", "1", "true", "FALSE", " 1 ", "True"], ["", " ", "2", "yes"]),
    "x": (["1", "2.5", "-3", " 4 ", "1_000", "1e-3", " 5"],
          ["", "  ", "nan", "inf", "-inf", "1e400", "abc", "0x10", "a", "1__0"]),
    "g": (["a", "b", "c", " a", "b "], ["", "zz", "1"]),
    "o": (["lo", "mid", "hi", " hi"], ["", "x"]),
    "z": (["", "q"], []),
}


@st.composite
def csv_texts(draw):
    """CSV text over time, event, x, g, o and an unused z, in any column
    order: blank, padded, unparseable and non-finite cells, short rows,
    blank lines, padded header names and an optional byte-order mark. Rare
    cells appear in about half of the files, one cell in five there."""
    columns = draw(st.permutations(list(CELLS)))
    pools = {}
    for c, (usable, rare) in CELLS.items():
        pools[c] = usable * 4 + rare if draw(st.booleans()) else usable
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(st.sampled_from(pools[c])) for c in columns]
        cut = draw(st.sampled_from([len(row)] * 4 + list(range(1, len(row)))))
        lines.append(",".join(row[:cut]))
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
    header = [draw(st.sampled_from([c, f" {c}", f"{c} "])) for c in columns]
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + ",".join(header) + "\n" + "\n".join(lines) + "\n"


@st.composite
def schemas(draw):
    specs = {
        "x": draw(st.sampled_from([("auto", None), ("numeric", None), ("categorical", None)])),
        "g": draw(st.sampled_from([
            ("auto", None), ("categorical", None), ("categorical", ("a", "b")), ("ordinal", ("b", "a", "c")),
        ])),
        "o": draw(st.sampled_from([("auto", None), ("ordinal", ("lo", "mid", "hi"))])),
        "missing": ("auto", None),
    }
    names = draw(st.lists(st.sampled_from(["x", "g", "o"] * 3 + ["missing"]), unique=True, max_size=3))
    return [(name, *specs[name]) for name in names]


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(text=csv_texts(), specs=schemas())
def test_load_csv_matches_row_by_row_oracle(text, specs):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "data.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            expected = csv_oracle.load_csv(path, "time", "event", specs)
        except csv_oracle.OracleError as exc:
            with pytest.raises(DataError) as raised:
                load_csv(path, Schema("time", "event", tuple(ColumnSpec(*s) for s in specs)))
            assert str(raised.value) == str(exc)
            return
        ds, dropped = load_csv(path, Schema("time", "event", tuple(ColumnSpec(*s) for s in specs)))
    time, event, covariates, expected_dropped = expected
    assert dropped == expected_dropped
    assert bits(ds.response.time) == bits(time)
    assert ds.response.event.tolist() == event.tolist()
    assert len(ds.covariates) == len(covariates)
    for cov, (name, kind, values, levels, ordered) in zip(ds.covariates, covariates):
        assert (cov.name, cov.kind, cov.levels, cov.ordered) == (name, kind, levels, ordered)
        if kind == NUMERIC:
            assert bits(cov.values) == bits(values)
        else:
            assert cov.values.tolist() == values.tolist()


def hand_tree(x_cut, g_subset, o_cut):
    """x <= x_cut at the root; g in g_subset on the left, then x again on
    g's right branch; ordinal o <= o_cut on the right."""
    info = (
        CovariateInfo("x", NUMERIC),
        CovariateInfo("g", CATEGORICAL, ("a", "b", "c")),
        CovariateInfo("o", CATEGORICAL, ("lo", "mid", "hi"), ordered=True),
    )
    splits = {
        1: SplitRule("x", cutoff=x_cut),
        2: SplitRule("g", subset=g_subset),
        3: SplitRule("o", cutoff=o_cut),
        5: SplitRule("x", cutoff=x_cut - 2.0),
    }
    children = {1: (2, 3), 2: (4, 5), 3: (6, 7), 5: (8, 9)}
    depth = {1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 2, 8: 3, 9: 3}
    nodes = {
        nid: TreeNode(
            id=nid, depth=depth[nid], n_effective=10.0, events=5.0, km_median=None,
            p_adjusted=0.01 if nid in splits else None, split=splits.get(nid), children=children.get(nid),
            stop_reason=None if nid in splits else "alpha",
        )
        for nid in range(1, 10)
    }
    return Tree(nodes=nodes, config=FitConfig(), covariate_info=info)


@settings(max_examples=200, deadline=None)
@given(
    text=csv_texts(),
    x_cut=st.sampled_from([-3.0, 1.0, 2.5, 1000.0]),
    g_subset=st.sampled_from([("a",), ("a", "c")]),
    o_cut=st.sampled_from([0.0, 1.0]),
)
def test_route_matches_per_row_oracle(text, x_cut, g_subset, o_cut):
    tree = hand_tree(x_cut, g_subset, o_cut)
    names = ["x", "g", "o"]
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "data.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        header, rows = csv_oracle.read_csv_table(path)
        cells, n = read_csv_columns(path, names)
    columns = {name: typed_column(c, tree.info(name).levels) for name, c in zip(names, cells)}
    node_of = route(tree, columns, n).tolist()
    assert n == len(rows)
    for row, node in zip(rows, node_of):
        try:
            leaf = csv_oracle.predict_row(tree, header, row)
        except csv_oracle.OracleError:
            assert not tree.nodes[node].is_leaf
        else:
            assert node == leaf
        # the library router, on the raw cells (a short row lacks some names)
        observation = dict(zip(header, row))
        if tree.nodes[node].is_leaf:
            assert predict_node(tree, observation) == node
        else:
            covariate = tree.nodes[node].split.covariate
            cell = observation.get(covariate, "")
            with pytest.raises(DataError) as raised:
                predict_node(tree, observation)
            assert str(raised.value) == f"no usable value for split covariate {covariate!r}: {cell!r}"


def test_predict_node_types_values_as_cells():
    tree = hand_tree(1.0, ("a",), 0.0)
    # x <= 1 then g in {a}: leaf 4; x > 1 then o <= lo: leaf 6
    assert predict_node(tree, {"x": 0.5, "g": "a"}) == 4
    assert predict_node(tree, {"x": " 0.5 ", "g": " a"}) == 4
    assert predict_node(tree, {"x": "2", "o": "lo "}) == 6
    assert predict_node(tree, {"x": 2, "o": "lo"}) == 6
    for value in ["", "nan", "inf", "1e400", "abc", None]:
        with pytest.raises(DataError, match=f"^no usable value for split covariate 'x': {value!r}$"):
            predict_node(tree, {"x": value, "g": "a", "o": "lo"})
    with pytest.raises(DataError, match="^no usable value for split covariate 'g': 'A'$"):
        predict_node(tree, {"x": 0.5, "g": "A"})


# (kind, levels, ordered) that break the one name-and-level rule, and what the error names
LEVEL_RULE_BREAKS = [
    pytest.param(CATEGORICAL, ("a", "a", "b"), False, "repeat a level", id="repeated-level"),
    pytest.param(CATEGORICAL, ("a", "", "b"), False, "blank or padded", id="blank-level"),
    pytest.param(CATEGORICAL, ("a", " b", "c"), False, "blank or padded", id="padded-level"),
    pytest.param(CATEGORICAL, ("a",), False, "fewer than 2 levels", id="single-level"),
    pytest.param(NUMERIC, None, True, "only a categorical covariate can be ordered", id="ordered-numeric"),
    pytest.param(NUMERIC, ("a", "b"), False, "numeric covariate takes no levels", id="levels-on-numeric"),
]


@pytest.mark.parametrize("kind, levels, ordered, message", LEVEL_RULE_BREAKS)
def test_level_rule_is_kept_everywhere(tmp_path, kind, levels, ordered, message):
    with pytest.raises(DataError, match=message):
        Covariate("g", kind, [0, 1, 2], levels=levels, ordered=ordered)

    doc = tree_to_document(hand_tree(1.0, ("a",), 0.0), "time", "event")
    document_to_tree(doc)  # the unedited document loads
    entry = next(c for c in doc["config"]["covariates"] if c["kind"] == kind)
    entry.update(levels=None if levels is None else list(levels), ordered=ordered)
    with pytest.raises(DataError, match=f"malformed tree document: .*{message}"):
        document_to_tree(doc)

    if levels is not None:  # a ColumnSpec has no way to declare an ordered numeric
        path = write(tmp_path, "time,event,g\n1,1,a\n2,0,b\n3,1,c\n")
        spec_kind = NUMERIC if kind == NUMERIC else "ordinal" if ordered else CATEGORICAL
        with pytest.raises(DataError, match=message):
            load_csv(path, Schema("time", "event", (ColumnSpec("g", spec_kind, levels),)))


def test_typed_column_markers():
    cells = ["1", " 2 ", "", "x", "nan", "inf", "1e400", "1_000"]
    x = typed_column(cells)
    assert x[:2].tolist() == [1.0, 2.0] and x[-1] == 1000.0
    assert np.isnan(x[2:7]).all()
    assert typed_column([" b", "", "z", "a"], ("a", "b")).tolist() == [1, -1, -1, 0]
