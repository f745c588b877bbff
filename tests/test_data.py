import csv
import io
import os
import tempfile
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csv_oracle
import survtree.data
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
)
from survtree.data import _BLOCK, _where, read_csv_columns, typed_column, typed_value
from survtree.partition import CovariateInfo, FitConfig, Tree, TreeNode, fit, predict_node, route
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


@pytest.mark.parametrize("name", ["time", "event"])
def test_covariate_named_as_a_response_column_is_not_written(name):
    response = SurvivalResponse(np.array([1.0, 2.0]), np.array([True, False]))
    ds = Dataset((Covariate(name, NUMERIC, np.array([0.5, 1.5])),), response)
    out = io.StringIO()
    with pytest.raises(DataError, match=f"covariate '{name}'"):
        dataset_to_csv(ds, out)
    assert out.getvalue() == ""


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_domain_error_from_a_pipe_names_the_file():
    # a pipe cannot be read again to find the line: the error names the row
    read_end, write_end = os.pipe()
    os.write(write_end, b"time,event\n5,1\n-1,yes\n")
    os.close(write_end)
    try:
        path = f"/dev/fd/{read_end}"
        with pytest.raises(DataError) as raised:
            load_csv(path, Schema("time", "event"))
    finally:
        os.close(read_end)
    assert str(raised.value) == f"{path}: data row 2: event value 'yes' not in {{0, 1, true, false}}"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_domain_error_from_a_named_pipe_does_not_wait_for_a_writer(tmp_path):
    # once the writer has closed, opening the FIFO again would block for good
    path = str(tmp_path / "bad.fifo")
    os.mkfifo(path)

    def write():
        with open(path, "wb") as fh:
            fh.write(b"time,event\n5,1\n-1,yes\n")

    outcome = []

    def load():
        try:
            load_csv(path, Schema("time", "event"))
        except DataError as exc:
            outcome.append(str(exc))

    threads = [threading.Thread(target=f, daemon=True) for f in (write, load)]
    for thread in threads:
        thread.start()
    threads[1].join(timeout=10)
    hung = threads[1].is_alive()
    if hung:  # release the reader blocked in a second open() of the FIFO
        os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
    threads[0].join(timeout=10)
    threads[1].join(timeout=10)
    assert not hung
    assert outcome == [f"{path}: data row 2: event value 'yes' not in {{0, 1, true, false}}"]


def test_domain_error_line_falls_back_to_the_row_it_was_given(tmp_path):
    # the file has fewer rows on the second read (it changed after loading)
    path = tmp_path / "short.csv"
    path.write_text("time,event\n1,1\n2,0\n", encoding="utf-8")
    assert _where(str(path), 1) == f"{path}:3"
    assert _where(str(path), 4) == f"{path}: data row 5"


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


def _cohort_bytes_with_a_bad_byte(offset, size=None):
    """A simulated cohort's CSV bytes, cut to `size`, with byte `offset` 0xff."""
    out = io.StringIO()
    dataset_to_csv(simulate_cohort(SimConfig(n=2_000, seed=3)), out)
    raw = out.getvalue().encode("utf-8")[:size]
    return raw[:offset] + b"\xff" + raw[offset + 1:]


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("offset", [0, 17, 50_007, 90_000])
def test_utf8_error_names_the_bytes_offset_in_the_file(tmp_path, bom, offset):
    # the decoder sees the file in chunks; the error counts from the file's first byte
    raw = bom + _cohort_bytes_with_a_bad_byte(offset)
    path = tmp_path / "data.csv"
    path.write_bytes(raw)
    with pytest.raises(DataError) as raised:
        read_csv_columns(str(path), ["time"])
    assert raised.value.args[0] == (
        f"cannot read {path}: 'utf-8' codec can't decode byte 0xff at byte offset {len(bom) + offset} of the file: "
        "invalid start byte"
    )


def test_utf8_error_from_a_truncated_character_names_its_offset(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"time,event\n1,1\n2,0\xc3")
    with pytest.raises(DataError, match="can't decode byte 0xc3 at byte offset 18 of the file: unexpected end of data"):
        read_csv_columns(str(path), ["time"])


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_utf8_error_from_a_pipe_names_the_bytes_offset():
    raw = _cohort_bytes_with_a_bad_byte(50_007, size=60_000)  # within a pipe's buffer
    read_end, write_end = os.pipe()
    writer = threading.Thread(target=lambda: (os.write(write_end, raw), os.close(write_end)), daemon=True)
    writer.start()
    try:
        path = f"/dev/fd/{read_end}"
        with pytest.raises(DataError, match=r"can't decode byte 0xff at byte offset 50007 of the file:"):
            read_csv_columns(path, ["time"])
    finally:
        writer.join(timeout=10)
        os.close(read_end)


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


def test_auto_column_that_declares_levels_loads_them(tmp_path):
    # every cell parses as a number, yet the declared levels make it categorical
    path = write(tmp_path, "time,event,g\n10,1,1\n20,0,2\n30,1,1\n40,0,3\n")
    ds, dropped = load_csv(path, Schema("time", "event", (ColumnSpec("g", "auto", ("1", "2")),)))
    g = ds.covariate("g")
    assert (g.kind, g.levels, g.values.tolist(), dropped) == (CATEGORICAL, ("1", "2"), [0, 1, 0], 1)
    ds, _ = load_csv(path, Schema("time", "event", (ColumnSpec("g"),)))
    assert (ds.covariate("g").kind, ds.covariate("g").levels) == (NUMERIC, None)


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


# --- split rules -------------------------------------------------------------


def two_col_dataset(levels=("A", "B")):
    x = Covariate("x", NUMERIC, np.array([1.0, 2.0, 3.0]))
    g = Covariate("g", CATEGORICAL, np.array([0, 0, 1]), levels=levels)
    resp = SurvivalResponse(np.array([5.0, 6.0, 7.0]), np.array([True, True, False]))
    return Dataset((x, g), resp)


def holds(ds, rule):
    cov = ds.covariate(rule.covariate)
    return rule.holds(cov.values, cov.levels)


def test_split_rule_holds_numeric():
    np.testing.assert_array_equal(holds(two_col_dataset(), SplitRule("x", cutoff=2.0)), [True, True, False])


def test_split_rule_holds_categorical():
    ds = two_col_dataset()
    np.testing.assert_array_equal(holds(ds, SplitRule("g", subset=("A",))), [True, True, False])
    np.testing.assert_array_equal(holds(ds, SplitRule("g", subset=("B",))), [False, False, True])


def test_fitted_tree_unknown_covariate():
    tree = fit(two_col_dataset(), FitConfig())
    with pytest.raises(DataError, match="unknown covariate 'nope'"):
        tree.info("nope")


def with_ordinal(ds):
    """`ds` plus an ordered categorical o with levels lo < mid < hi."""
    o = Covariate("o", CATEGORICAL, np.array([0, 1, 2]), levels=("lo", "mid", "hi"), ordered=True)
    return Dataset(ds.covariates + (o,), ds.response)


def test_split_rule_holds_ordinal_cut():
    np.testing.assert_array_equal(holds(with_ordinal(two_col_dataset()), SplitRule("o", cutoff=1.0)), [True, True, False])


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
def test_split_rule_check_rejects_a_rule_that_does_not_fit(rule):
    tree = fit(with_ordinal(two_col_dataset()), FitConfig())
    with pytest.raises(DataError, match=f"does not fit .*covariate '{rule.covariate}'"):
        rule.check(tree.info(rule.covariate))


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


FLOAT_EDGES = [-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2]
# a level may hold a delimiter, a quote, a line break or non-ASCII text, but
# not at its ends (CovariateInfo refuses padded levels)
LEVELS = st.text(st.sampled_from([",", '"', "\n", "\r", " ", "a", "b", "é", "λ", "中"]), min_size=1, max_size=5)


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]),
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
    times=st.lists(st.floats(min_value=0.0, allow_infinity=False), max_size=6),
    levels=st.lists(LEVELS.filter(lambda s: s == s.strip()), min_size=2, max_size=4, unique=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_streamed_csv_matches_whole_cohort_formatter_on_drawn_cells(n, values, times, levels, seed):
    # each column's cells are drawn from a small pool, so that n can span blocks
    rng = np.random.Generator(np.random.Philox(key=seed))
    values, times = np.array(values + FLOAT_EDGES), np.array(times + FLOAT_EDGES)
    covariates = (
        Covariate("x", NUMERIC, values[rng.integers(0, values.size, n)]),
        Covariate("g", CATEGORICAL, rng.integers(0, len(levels), n), levels=levels),
        Covariate("o", CATEGORICAL, rng.integers(0, len(levels), n), levels=levels[::-1], ordered=True),
    )
    ds = Dataset(covariates, SurvivalResponse(times[rng.integers(0, times.size, n)], rng.random(n) < 0.5))
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
    "z": (["", "q", '"q\nr"'], []),
}


@st.composite
def csv_texts(draw):
    """CSV text over time, event, x, g, o and an unused z, in any column
    order: blank, padded, unparseable and non-finite cells, short rows,
    blank lines, a quoted cell holding a line break, padded header names
    and an optional byte-order mark. Rare
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
        header, rows, _ = csv_oracle.read_csv_table(path)
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


# values as a caller may pass them: numbers, blank, padded, unknown-level and
# unparseable text, non-finite floats and None
ROUTED_VALUES = st.one_of(
    st.floats(),
    st.integers(-3, 3),
    st.sampled_from(["", " ", "nan", "inf", "-inf", "1e400", "abc", " 0.5 ", "2", "-1", None,
                     "a", " b", "c ", "A", "lo", "mid ", " hi", "x"]),
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.dictionaries(st.sampled_from(["x", "g", "o"]), ROUTED_VALUES), min_size=1, max_size=12),
    x_cut=st.sampled_from([-3.0, 1.0, 2.5, 1000.0]),
    g_subset=st.sampled_from([("a",), ("a", "c")]),
    o_cut=st.sampled_from([0.0, 1.0]),
)
def test_predict_node_matches_route_on_each_value(rows, x_cut, g_subset, o_cut):
    # a missing name reads as a blank cell; every value is typed as typed_value types it
    tree = hand_tree(x_cut, g_subset, o_cut)
    columns = {
        name: np.array([typed_value(row.get(name, ""), tree.info(name).levels) for row in rows])
        for name in ("x", "g", "o")
    }
    for row, node in zip(rows, route(tree, columns, len(rows)).tolist()):
        if tree.nodes[node].is_leaf:
            assert predict_node(tree, row) == node
        else:
            covariate = tree.nodes[node].split.covariate
            with pytest.raises(DataError) as raised:
                predict_node(tree, row)
            assert str(raised.value) == f"no usable value for split covariate {covariate!r}: {row.get(covariate, '')!r}"


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


_LEVEL = st.text(max_size=4).map(str.strip).filter(bool)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_typed_column_types_each_cell_as_typed_value(data):
    """The column path has its own level map; each padded, blank, unknown or
    known cell types as `typed_value` types it alone."""
    levels = tuple(data.draw(st.lists(_LEVEL, min_size=1, max_size=60, unique=True)))
    known = st.sampled_from(levels)
    cell = st.one_of(known, known.map(lambda s: f" {s}\t"), st.sampled_from(["", "  ", "\u00a0"]), st.text(max_size=4))
    cells = data.draw(st.lists(cell, max_size=30))
    assert typed_column(cells, levels).tolist() == [typed_value(c, levels) for c in cells]


# Each bound is more than 10x the time measured on a 2-CPU host (0.25 s and
# 0.06 s). Looking each distinct cell up among the K levels one by one, an
# O(K^2) typing, took about 20 s for each of these on that host.
def test_auto_column_of_distinct_strings_loads_in_linear_time(tmp_path):
    n = 50_000
    path = write(tmp_path, "id,time,event\n" + "".join(f"p{i:06d},{i + 1},{i % 2}\n" for i in range(n)))
    start = time.perf_counter()
    ds, _ = load_csv(path, Schema("time", "event", (ColumnSpec("id"),)))
    elapsed = time.perf_counter() - start
    assert ds.covariate("id").n_levels == n
    assert elapsed < 3.0, f"load_csv of {n} distinct strings took {elapsed:.2f} s"


def test_typed_column_with_many_levels_runs_in_linear_time():
    n = 50_000
    levels = tuple(f"p{i:06d}" for i in range(n))
    order = np.random.default_rng(0).permutation(n)
    cells = [f" {levels[i]}" for i in order]
    start = time.perf_counter()
    x = typed_column(cells, levels)
    elapsed = time.perf_counter() - start
    assert x.tolist() == order.tolist()
    assert elapsed < 1.0, f"typed_column over {n} levels took {elapsed:.2f} s"


def test_wide_header_is_checked_in_one_pass(tmp_path):
    # one pass over the header: a scan per header cell takes seconds here
    header = [f"c{i}" for i in range(20_000)]
    path = write(tmp_path, ",".join(header) + "\n" + ",".join("1" * 20_000) + "\n")
    start = time.perf_counter()
    cells, n = read_csv_columns(path, ["c19999", "c0", "c7"])
    assert time.perf_counter() - start < 1.0
    assert (cells, n) == ([["1"], ["1"], ["1"]], 1)


@pytest.mark.parametrize(
    "header, names",
    [
        ("b,a, b ,,a,,c", ["c"]),  # repeated names, sorted; blank names may repeat
        (",x,,y", ["y", "z"]),  # a named column missing
        (",x,,y", ["y", "", "x"]),  # a blank name reads its first column
    ],
)
def test_header_errors_and_positions_match_the_oracle(tmp_path, header, names):
    path = write(tmp_path, header + "\n" + "0,1,2,3,4,5,6\n")
    try:
        oracle_header, rows, _ = csv_oracle.read_csv_table(path)
        for name in names:
            if name not in oracle_header:
                raise csv_oracle.OracleError(f"{path}: column {name!r} not in header {oracle_header}")
    except csv_oracle.OracleError as exc:
        with pytest.raises(DataError) as raised:
            read_csv_columns(path, names)
        assert str(raised.value) == str(exc)
    else:
        cells, _ = read_csv_columns(path, names)
        assert cells == [[rows[0][oracle_header.index(name)]] for name in names]


def csv_reader_columns(path, names):
    """What read_csv_columns returns, or the text of the DataError it raises,
    with csv.reader reading the whole file."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                return f"{path}: empty file"
            repeated = sorted({h for h in header if h and header.count(h) > 1})
            if repeated:
                return f"{path}: header names {', '.join(map(repr, repeated))} more than once"
            for name in names:
                if name not in header:
                    return f"{path}: column {name!r} not in header {header}"
            rows = [row + [""] * len(header) for row in reader if row]
    except csv.Error as exc:
        return f"cannot read {path}: {exc}"
    return [[row[header.index(name)] for row in rows] for name in names], len(rows)


def split_reader_columns(path, names, chunk):
    """read_csv_columns, splitting `chunk` characters at a time, or the text
    of the DataError it raises."""
    with mock.patch.object(survtree.data, "_CHUNK", chunk):
        try:
            return read_csv_columns(path, names)
        except DataError as exc:
            return str(exc)


PLAIN = st.lists(st.sampled_from(["a", "1", " ", "\x00", "\ufeff", "\u00e9"] * 3 + ['"']), max_size=3).map("".join)
QUOTED = st.lists(st.sampled_from(["a", ",", " ", "\n", "\r\n", "\r", '""']), max_size=4).map(lambda s: f'"{"".join(s)}"')
LINE_END = st.sampled_from(["\n"] * 3 + ["\r\n", "\r"])


@st.composite
def mixed_csv_texts(draw):
    """A header line (perhaps blank or quoted), quote-free lines, then lines
    that mix quoted cells holding line breaks, CR and CRLF line ends, and
    blank, whitespace-only, short and long rows; perhaps a byte-order mark,
    perhaps no final line end."""
    header = draw(st.lists(st.sampled_from(["time", "x", " g", "", '"x"', '"ti\nme"']), max_size=4))
    lines = [(",".join(header), draw(LINE_END))]
    for _ in range(draw(st.integers(0, 12))):
        lines.append((",".join(draw(st.lists(PLAIN, max_size=5))), "\n"))
    for _ in range(draw(st.integers(0, 8))):
        lines.append((",".join(draw(st.lists(st.one_of(PLAIN, QUOTED), max_size=5))), draw(LINE_END)))
    if draw(st.booleans()):
        lines[-1] = (lines[-1][0], "")
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + "".join(line + end for line, end in lines)


@settings(max_examples=500, deadline=None)
@given(
    text=mixed_csv_texts(),
    names=st.lists(st.sampled_from(["time", "x", "g", ""]), unique=True, max_size=3),
    chunk=st.integers(16, 64),
    limit=st.sampled_from([None, 3, 8, 20]),
)
def test_split_reader_matches_csv_reader(text, names, chunk, limit):
    old_limit = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)  # lines past it go to csv.reader, which raises on a field past it
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "data.csv")
            with open(path, "wb") as fh:
                fh.write(text.encode("utf-8"))
            assert split_reader_columns(path, names, chunk) == csv_reader_columns(path, names)
    finally:
        csv.field_size_limit(old_limit)


@pytest.mark.parametrize("text", [
    "time,x\n" + "1,a\n" * 9 + "2,b\r\n" * 9 + "3,c",  # CRLF from the tenth row, no final line end
    "time,x\r\n" + "1,ab\r\n" * 20,
    "time,x\r" + "1,ab\r" * 20,  # lone CR
    "time,x\n" + "1,abc\n" * 12 + '2,"two\nlines"\n' + "3,c\n" * 9,  # a quoted line break after some chunks
    '"time",x\n' + "1,abc\n" * 12 + '2,"a ""quote""\r\nand CRLF"\r\n' + "3,c\n" * 9,
    "time,x\n" + "1,abc\n\n \n" * 8 + "4",  # blank and whitespace-only lines
    "\ntime,x\n" + "1,a\n" * 12,  # a blank first line is the header
])
def test_split_reader_matches_csv_reader_at_every_chunk_size(tmp_path, text):
    # every chunk boundary, the cut between the CR and LF of a CRLF included
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    for names in (["x", "time"], []):
        want = csv_reader_columns(str(path), names)
        for chunk in range(16, 65):
            assert split_reader_columns(str(path), names, chunk) == want


def test_a_quoted_level_past_the_first_chunk_is_read_by_csv_reader(tmp_path, monkeypatch):
    ds = simulate_cohort(SimConfig(n=3000, seed=4))
    text = csv_text(ds)
    header, first = text.split("\n")[:2]
    row = first.split(",")
    row[header.split(",").index("etiology")] = '"hepatitis, ""c"""'
    path = write(tmp_path, text + ",".join(row) + "\n")
    assert text.index("\n") + 1 + survtree.data._CHUNK < len(text)  # the quoted row is past the first chunk
    specs = [(c.name, "auto", None) for c in ds.covariates]
    schema = Schema("time", "event", tuple(ColumnSpec(*s) for s in specs))
    time_, event, covariates, dropped = csv_oracle.load_csv(path, "time", "event", specs)
    got, got_dropped = load_csv(path, schema)
    assert got_dropped == dropped
    assert bits(got.response.time) == bits(time_) and got.response.event.tolist() == event.tolist()
    for cov, (name, kind, values, levels, ordered) in zip(got.covariates, covariates):
        assert (cov.name, cov.kind, cov.levels) == (name, kind, levels)
        assert bits(cov.values) == bits(values)
    assert 'hepatitis, "c"' in got.covariate("etiology").levels

    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(csv, "reader", refuse)
    with pytest.raises(AssertionError, match="csv.reader called"):
        load_csv(path, schema)
