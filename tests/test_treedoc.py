import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import observation
from survtree import (
    CATEGORICAL,
    NUMERIC,
    Covariate,
    DataError,
    Dataset,
    FitConfig,
    SurvivalResponse,
    fit,
    predict_node,
)
from survtree.partition import route
from survtree.treedoc import (
    document_to_dot,
    document_to_tree,
    dumps_canonical,
    load_tree,
    tree_to_document,
    tree_to_dot,
)

STAGES = ("i", "ii", "iii", "iv")


def planted_dataset(seed, n, planted):
    """Numeric x, unordered g and ordinal stage; the hazard is five times
    higher on one side of the planted covariate (none: no effect)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    x = rng.normal(size=n)
    g = rng.integers(0, 3, n)
    stage = rng.integers(0, len(STAGES), n)
    high = {"x": x > 0.3, "g": g == 1, "stage": stage >= 2, "none": np.zeros(n, bool)}[planted]
    time = np.round(rng.exponential(100.0, n) / np.where(high, 5.0, 1.0), 3)
    event = rng.random(n) < 0.7
    event[0] = True
    return Dataset(
        (
            Covariate("x", NUMERIC, x),
            Covariate("g", CATEGORICAL, g, levels=("a", "b", "c")),
            Covariate("stage", CATEGORICAL, stage, levels=STAGES, ordered=True),
        ),
        SurvivalResponse(time, event),
    )


def document_text(tree):
    return dumps_canonical(tree_to_document(tree, "time", "event", "0" * 64, None)) + "\n"


def without_tests(tree):
    nodes = {nid: dataclasses.replace(node, tests=None) for nid, node in tree.nodes.items()}
    return dataclasses.replace(tree, nodes=nodes)


def split_kind(node):
    if node.split.subset is not None:
        return "subset"
    return "ordinal" if node.split.covariate == "stage" else "numeric"


@pytest.mark.parametrize(
    "planted, kind", [("x", "numeric"), ("g", "subset"), ("stage", "ordinal")]
)
def test_planted_covariate_gives_its_split_kind(planted, kind):
    # the generator below covers every split kind the document format has
    tree = fit(planted_dataset(11, 200, planted), FitConfig(minsplit=20, minbucket=7))
    assert not tree.root.is_leaf
    assert split_kind(tree.root) == kind


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(30, 200),
    planted=st.sampled_from(["x", "g", "stage", "none"]),
    alpha=st.sampled_from([1e-9, 0.05, 0.5]),
    max_depth=st.sampled_from([None, 0, 1, 2]),
)
def test_loaded_tree_is_the_fitted_tree(seed, n, planted, alpha, max_depth):
    ds = planted_dataset(seed, n, planted)
    tree = fit(ds, FitConfig(alpha=alpha, minsplit=10, minbucket=4, max_depth=max_depth))
    text = document_text(tree)
    loaded = document_to_tree(json.loads(text))

    assert document_text(loaded) == text
    assert loaded == without_tests(tree)
    fitted_leaves = [predict_node(tree, observation(ds, i)) for i in range(ds.n)]
    assert [predict_node(loaded, observation(ds, i)) for i in range(ds.n)] == fitted_leaves
    columns = {c.name: c.values for c in ds.covariates}
    assert route(loaded, columns, ds.n).tolist() == fitted_leaves


def test_levels_given_as_a_list_load_back_equal():
    ds = planted_dataset(11, 200, "g")
    listed = [dataclasses.replace(c, levels=list(c.levels)) if c.levels else c for c in ds.covariates]
    tree = fit(Dataset(tuple(listed), ds.response), FitConfig(minsplit=20, minbucket=7))
    assert not tree.root.is_leaf
    loaded = document_to_tree(json.loads(document_text(tree)))
    assert document_text(loaded) == document_text(tree)
    assert loaded == without_tests(tree)


@pytest.fixture(scope="module")
def two_level_doc():
    ds = planted_dataset(11, 200, "x")
    tree = fit(ds, FitConfig(minsplit=20, minbucket=7, max_depth=1))
    assert len(tree.nodes) == 3
    return json.loads(document_text(tree))


def _node(doc, nid):
    return next(n for n in doc["nodes"] if n["id"] == nid)


def _cycle(doc):
    _node(doc, 1)["children"] = [1, 3]


def _shared_child(doc):
    # node 2 copies node 1's split and takes node 3 as a child beside a new leaf 4
    root = _node(doc, 1)
    node2 = _node(doc, 2)
    node2.pop("stop_reason")
    node2.update(kind="internal", covariate=root["covariate"], split=root["split"], children=[3, 4])
    doc["nodes"].append(dict(_node(doc, 3), id=4))


def _unreachable(doc):
    doc["nodes"].append(dict(_node(doc, 3), id=4))


# (defect, what the error names); the CLI tests feed these to every command
STRUCTURAL_DEFECTS = [
    (_cycle, "reached twice"),
    (_shared_child, "reached twice"),
    (_unreachable, "not reachable"),
]


def _unknown_kind(doc):
    _node(doc, 2)["kind"] = "stump"


def _three_children(doc):
    _node(doc, 1)["children"] = [2, 3, 3]


def _unknown_covariate(doc):
    _node(doc, 1)["covariate"] = "bilirubin"


def _missing_field(doc):
    del _node(doc, 3)["events"]


def _subset_on_numeric(doc):
    _node(doc, 1)["split"] = {"subset": ["a"]}


def _nan_cutoff(doc):
    _node(doc, 1)["split"] = {"cutoff": float("nan")}


def _ordinal_cutoff_past_last_level(doc):
    _node(doc, 1).update(covariate="stage", split={"cutoff": float(len(STAGES) - 1)})


def _covariate(doc, name):
    return next(c for c in doc["config"]["covariates"] if c["name"] == name)


def _categorical(doc):
    return next(c for c in doc["config"]["covariates"] if c["kind"] == "categorical")


def _alpha_out_of_range(doc):
    doc["config"]["alpha"] = 7


def _max_depth_text(doc):
    doc["config"]["max_depth"] = "deep"


def _unknown_test_method(doc):
    doc["config"]["test"]["method"] = "bogus"


def _unknown_stop_reason(doc):
    _node(doc, 2)["stop_reason"] = 42


def _boolean_number(doc):
    _node(doc, 2)["n"] = True


def _levels_as_text(doc):
    _categorical(doc)["levels"] = "abc"


def _split_without_p_value(doc):
    _node(doc, 1)["p_adjusted"] = None


# (defect, what the error names): config values a fit would refuse, and
# fields of the wrong JSON type, which would not write back to the same
# bytes; node 2 must be a leaf
VALUE_DEFECTS = [
    (_alpha_out_of_range, "alpha must be in (0, 1)"),
    (_max_depth_text, "expected int, got 'deep'"),
    (_unknown_test_method, "unknown test method 'bogus'"),
    (_unknown_stop_reason, "unknown stop reason 42"),
    (_boolean_number, "True is not a finite number"),
    (_levels_as_text, "expected list, got 'abc'"),
    (_split_without_p_value, "None is not a finite number"),
]


def _boolean_child(doc):
    _node(doc, 1)["children"] = [2, True]


def _numeric_text(doc):
    _node(doc, 3)["events"] = "3"


def _integer_past_float(doc):
    _node(doc, 3)["n"] = 2**53 + 1


def _ordered_not_bool(doc):
    _covariate(doc, "stage")["ordered"] = 1


def _levels_on_numeric(doc):
    _covariate(doc, "x")["levels"] = ["a", "b"]


def _levels_not_strings(doc):
    _covariate(doc, "g")["levels"] = ["a", 2, "c"]


def _repeated_level(doc):
    _covariate(doc, "g")["levels"] = ["a", "b", "c", "a"]


def _lone_surrogate_level(doc):
    _covariate(doc, "g")["levels"] = ["a", "b", "\ud800"]


def _repeated_covariate_name(doc):
    _covariate(doc, "g")["name"] = "stage"


def _response_name_not_string(doc):
    doc["config"]["time_column"] = 5


def _subset_as_text(doc):
    _node(doc, 1).update(covariate="g", split={"subset": "a"})


def _empty_subset(doc):
    _node(doc, 1).update(covariate="g", split={"subset": []})


def _subset_on_ordered(doc):
    _node(doc, 1).update(covariate="stage", split={"subset": ["i"]})


@pytest.mark.parametrize(
    "defect",
    [defect for defect, _ in STRUCTURAL_DEFECTS + VALUE_DEFECTS]
    + [
        _unknown_kind,
        _three_children,
        _unknown_covariate,
        _missing_field,
        _subset_on_numeric,
        _nan_cutoff,
        _ordinal_cutoff_past_last_level,
        _boolean_child,
        _numeric_text,
        _integer_past_float,
        _ordered_not_bool,
        _levels_on_numeric,
        _levels_not_strings,
        _repeated_level,
        _lone_surrogate_level,
        _repeated_covariate_name,
        _response_name_not_string,
        _subset_as_text,
        _empty_subset,
        _subset_on_ordered,
    ],
)
def test_malformed_documents_rejected(two_level_doc, defect):
    doc = copy.deepcopy(two_level_doc)
    document_to_tree(doc)  # the unedited document loads
    defect(doc)
    with pytest.raises(DataError, match="malformed tree document"):
        document_to_tree(doc)


@pytest.mark.parametrize("planted", ["x", "g", "stage"])
def test_document_to_dot_renders_the_fitted_tree(planted):
    # the benchmark renders DOT from a document; that must match the tree's own
    tree = fit(planted_dataset(11, 200, planted), FitConfig(minsplit=20, minbucket=7))
    assert document_to_dot(tree_to_document(tree, "time", "event")) == tree_to_dot(tree)


def test_load_tree_returns_the_tree_and_response_names(tmp_path):
    tree = fit(planted_dataset(11, 200, "stage"), FitConfig(minsplit=20, minbucket=7))
    path = tmp_path / "tree.json"
    path.write_text(dumps_canonical(tree_to_document(tree, "days", "died")), encoding="utf-8")
    assert load_tree(str(path)) == (without_tests(tree), ("days", "died"))


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read"),
        (b'{"format_version": 1, "name": "\xff"}', "can't decode byte 0xff"),
        (b"[" * 200_000, "maximum recursion depth"),
        (b'{"format_version": 1,', "Expecting property name"),
        (b"1" * 5000, "integer string conversion"),
        (b"[1]", "format_version"),
        (b'{"format_version": true}', "format_version"),
        (b'{"format_version": 1.0}', "format_version"),
    ],
    ids=["missing", "not-utf8", "deep-nesting", "not-json", "long-int", "not-an-object", "bool-version", "float-version"],
)
def test_unreadable_tree_file_is_data_error(tmp_path, content, message):
    path = tmp_path / "tree.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(DataError, match=message):
        load_tree(str(path))
