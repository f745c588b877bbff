"""Tree serialization: canonical JSON documents, DOT rendering, atomic writes.

JSON is the single source of truth; DOT and text renderings are derived
views. The document writer is canonical — sorted keys, two-space indent,
floats formatted with 17 significant digits — so serialize -> parse ->
serialize is byte-identical and equal trees produce equal files.

`tree_to_document` and `document_to_tree` convert between a fitted `Tree`
and its document; the loaded `Tree` lacks only the per-node selection
tests, which documents do not store. `load_tree(path)`, the one reader of
tree files, returns it with the (time, event) column names and turns every
file it cannot read, decode, parse or validate into a DataError; what loads
writes back to the same bytes. `tree_to_dot` renders a `Tree`. Covariate
metadata is validated by `data.CovariateInfo` and splits by
`SplitRule.check`, as they are for a fitted tree.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
from collections import deque

from . import __version__
from .data import CovariateInfo, SplitRule
from .errors import DataError, FitError
from .partition import FitConfig, TestMethod, Tree, TreeNode, describe_rule

FORMAT_VERSION = 1


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise DataError(f"cannot serialize non-finite float {x!r}")
    return f"{x:.17g}"


def dumps_canonical(obj, _indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, 2-space indent, .17g floats."""
    pad = "  " * _indent
    inner = "  " * (_indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {dumps_canonical(v, _indent + 1)}"
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{dumps_canonical(v, _indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise DataError(f"cannot serialize {type(obj).__name__}")


@contextlib.contextmanager
def open_atomic(path: str):
    """A UTF-8 text handle on a temp file beside `path`, renamed to it when the
    block ends without error, so that no failure leaves a partial output. The
    file gets the mode open() gives; any OSError on it is a DataError."""
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-", suffix="~")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                os.umask(umask := os.umask(0))  # reads the umask
                os.fchmod(fd, 0o666 & ~umask)
                yield fh
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_atomic(path: str, text: str) -> None:
    """Write `text` to `path` through `open_atomic`."""
    with open_atomic(path) as fh:
        fh.write(text)


def tree_to_document(
    tree: Tree,
    time_column: str,
    event_column: str,
    input_sha256: str | None = None,
    seed: int | None = None,
) -> dict:
    """Serializable form of a fitted tree (node 1 is the root; ids level-order)."""
    cfg = tree.config
    covariates = [
        {
            "name": ci.name,
            "kind": ci.kind,
            "levels": list(ci.levels) if ci.levels else None,
            "ordered": ci.ordered,
        }
        for ci in tree.covariate_info
    ]
    nodes = []
    for nid in sorted(tree.nodes):
        node = tree.nodes[nid]
        entry = {
            "id": node.id,
            "kind": "leaf" if node.is_leaf else "internal",
            "n": float(node.n_effective),
            "events": float(node.events),
            "km_median": None if node.km_median is None else float(node.km_median),
            "p_adjusted": None if node.p_adjusted is None else float(node.p_adjusted),
        }
        if node.is_leaf:
            entry["stop_reason"] = node.stop_reason
        else:
            entry["covariate"] = node.split.covariate
            if node.split.cutoff is not None:
                entry["split"] = {"cutoff": float(node.split.cutoff)}
            else:
                entry["split"] = {"subset": list(node.split.subset)}
            entry["children"] = list(node.children)
        nodes.append(entry)

    return {
        "format_version": FORMAT_VERSION,
        "config": {
            "alpha": float(cfg.alpha),
            "minsplit": float(cfg.minsplit),
            "minbucket": float(cfg.minbucket),
            "max_depth": cfg.max_depth,
            "test": {
                "method": cfg.test.name,
                "replicates": cfg.test.replicates,
                "seed": cfg.test.seed,
            },
            "time_column": time_column,
            "event_column": event_column,
            "covariates": covariates,
        },
        "nodes": nodes,
        "provenance": {
            "input_sha256": input_sha256,
            "seed": seed,
            "tool_version": __version__,
        },
    }


def _number(x) -> float:
    """A finite float from a number field. A boolean, NaN or Infinity (JSON
    parsers admit both) and an integer past 2**53, which a float would not
    hold exactly, are not numbers here."""
    if type(x) is float and math.isfinite(x) or type(x) is int and abs(x) <= 2**53:
        return float(x)
    raise DataError(f"{x!r} is not a finite number")


def _optional_number(x) -> float | None:
    return None if x is None else _number(x)


def _typed(x, kind: type):
    """`x` if its JSON type is `kind` (a boolean is not an int). A string must
    also encode as UTF-8: JSON escapes admit a lone surrogate (\\ud800),
    which no output file could hold."""
    if type(x) is not kind:
        raise DataError(f"expected {kind.__name__}, got {x!r}")
    if kind is str:
        x.encode("utf-8")  # UnicodeEncodeError, a ValueError, on a lone surrogate
    return x


def _strings(x) -> tuple[str, ...]:
    """A list of strings, as levels and subsets are written."""
    return tuple(_typed(s, str) for s in _typed(x, list))


def document_to_tree(doc: dict) -> Tree:
    """Rebuild the fitted `Tree` a document describes (`tests` stays None).

    The config must pass `FitConfig.validate`. Every node must be reached
    exactly once from node 1: a cycle, a child shared by two parents, an
    unreachable node, an unknown node kind or stop reason, a child list that
    is not two node ids, a split on an unknown covariate or one that does
    not fit it (`SplitRule.check`), covariate metadata `CovariateInfo`
    refuses, a field of the wrong JSON type (a boolean where a number
    belongs), an internal node without a p-value and a missing or
    non-finite field are all DataErrors, so that what loads writes back
    through `tree_to_document` to the same bytes.
    """
    try:
        cfg = doc["config"]
        test = cfg["test"]
        config = FitConfig(
            alpha=_number(cfg["alpha"]),
            minsplit=_number(cfg["minsplit"]),
            minbucket=_number(cfg["minbucket"]),
            max_depth=None if cfg["max_depth"] is None else _typed(cfg["max_depth"], int),
            test=TestMethod(test["method"], _typed(test["replicates"], int), _typed(test["seed"], int)),
        )
        config.validate()
        _typed(cfg["time_column"], str), _typed(cfg["event_column"], str)  # load_tree returns these
        info = tuple(
            CovariateInfo(
                _typed(c["name"], str),
                c["kind"],
                None if c["levels"] is None else _strings(c["levels"]),
                _typed(c["ordered"], bool),
            )
            for c in cfg["covariates"]
        )
        by_name = {ci.name: ci for ci in info}
        if len(by_name) != len(info):
            raise DataError("a covariate name appears twice")

        entries = {}
        for entry in doc["nodes"]:
            if _typed(entry["id"], int) in entries:
                raise DataError(f"node id {entry['id']} appears twice")
            entries[entry["id"]] = entry
        if 1 not in entries:
            raise DataError("no root node 1")

        nodes: dict[int, TreeNode] = {}
        reached = {1}
        queue = deque([(1, 0)])
        while queue:
            nid, depth = queue.popleft()
            entry = entries[nid]
            base = dict(
                id=nid,
                depth=depth,
                n_effective=_number(entry["n"]),
                events=_number(entry["events"]),
                km_median=_optional_number(entry["km_median"]),
            )
            if entry["kind"] == "leaf":
                if entry["stop_reason"] not in ("alpha", "minsplit", "minbucket", "max_depth"):
                    raise DataError(f"node {nid} has unknown stop reason {entry['stop_reason']!r}")
                p_adjusted = _optional_number(entry["p_adjusted"])
                nodes[nid] = TreeNode(**base, p_adjusted=p_adjusted, stop_reason=entry["stop_reason"])
                continue
            if entry["kind"] != "internal":
                raise DataError(f"node {nid} has unknown kind {entry['kind']!r}")
            ci = by_name.get(entry["covariate"])
            if ci is None:
                raise DataError(f"node {nid} splits on unknown covariate {entry['covariate']!r}")
            split = entry["split"]
            if "cutoff" in split:
                rule = SplitRule(ci.name, cutoff=_number(split["cutoff"]))
            else:
                rule = SplitRule(ci.name, subset=_strings(split["subset"]))
            rule.check(ci)
            kids = entry["children"]
            if type(kids) is not list or len(kids) != 2 or any(_typed(k, int) not in entries for k in kids):
                raise DataError(f"node {nid} has bad children {kids!r}")
            for kid in kids:
                if kid in reached:
                    raise DataError(f"node {kid} is reached twice (a cycle or a shared child)")
                reached.add(kid)
            p_adjusted = _number(entry["p_adjusted"])  # fit tests every node it splits
            nodes[nid] = TreeNode(**base, p_adjusted=p_adjusted, split=rule, children=tuple(kids))
            queue.extend((kid, depth + 1) for kid in kids)
        unreachable = sorted(set(entries) - reached)
        if unreachable:
            raise DataError(f"nodes {unreachable} are not reachable from node 1")
    except (DataError, FitError) as exc:
        raise DataError(f"malformed tree document: {exc}") from exc
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"malformed tree document: bad or missing field {exc}") from exc
    return Tree(nodes=nodes, config=config, covariate_info=info)


def load_tree(path: str) -> tuple[Tree, tuple[str, str]]:
    """The `Tree` a tree file holds and its (time, event) column names. A file
    that cannot be read, is not UTF-8, is not JSON (nesting too deep to parse
    included) or is not a valid document is a DataError."""
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read().decode("utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (RecursionError, ValueError) as exc:  # not UTF-8, not JSON, or an int too long to parse
        raise DataError(f"malformed tree document: {exc}") from exc
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != FORMAT_VERSION:
        raise DataError("malformed tree document: bad or missing format_version")
    tree = document_to_tree(doc)
    return tree, (doc["config"]["time_column"], doc["config"]["event_column"])


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def tree_to_dot(tree: Tree) -> str:
    """DOT digraph: internal nodes show the split variable and p-value, edges
    the split condition, leaves their size, events and KM median. Nodes are
    emitted in id order, so equal trees give identical bytes."""
    nodes = [tree.nodes[nid] for nid in sorted(tree.nodes)]
    lines = [
        "digraph survival_tree {",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    for node in nodes:
        if node.is_leaf:
            med_s = "NA" if node.km_median is None else f"{node.km_median:.6g}"
            pieces = [
                f"n = {node.n_effective:g}",
                f"events = {node.events:g}",
                f"median = {med_s}",
            ]
        else:
            pieces = [node.split.covariate, f"p = {node.p_adjusted:.4g}"]
        label = "\\n".join(_dot_escape(p) for p in pieces)
        lines.append(f'  n{node.id} [label="{label}"];')
    for node in nodes:
        if node.is_leaf:
            continue
        labels = describe_rule(node.split, tree.info(node.split.covariate))
        for kid, lab in zip(node.children, labels):
            lines.append(f'  n{node.id} -> n{kid} [label="{_dot_escape(lab)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def document_to_dot(doc: dict) -> str:
    """`tree_to_dot` of the tree a document describes."""
    return tree_to_dot(document_to_tree(doc))
