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
from survtree.treedoc import document_to_tree, dumps_canonical, tree_to_document

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


@pytest.mark.parametrize(
    "defect",
    [defect for defect, _ in STRUCTURAL_DEFECTS]
    + [
        _unknown_kind,
        _three_children,
        _unknown_covariate,
        _missing_field,
        _subset_on_numeric,
        _nan_cutoff,
        _ordinal_cutoff_past_last_level,
    ],
)
def test_malformed_documents_rejected(two_level_doc, defect):
    doc = copy.deepcopy(two_level_doc)
    document_to_tree(doc)  # the unedited document loads
    defect(doc)
    with pytest.raises(DataError, match="malformed tree document"):
        document_to_tree(doc)
