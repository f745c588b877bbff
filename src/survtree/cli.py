"""Command-line surface.

Subcommands: simulate (synthetic cohort CSV), fit (tree JSON + text render),
predict (row -> leaf table), export-dot (Graphviz view), km (per-leaf
survival curves). Exit codes: 0 ok, 2 bad flags, 3 data errors and unwritable
outputs, 4 fit errors; messages go to standard error. All outputs are written
atomically, and all randomness enters through explicit --seed flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import re
import sys

import numpy as np

from .data import ColumnSpec, Schema, dataset_to_csv, load_csv, read_csv_columns, typed_column, typed_response
from .errors import DataError, FitError
from .km import km_estimate
from .meld import read_config_file, simconfig_from_strings, simulate_cohort
from .partition import FitConfig, TestMethod, Tree, fit, render_text, route
from .treedoc import dumps_canonical, load_tree, open_atomic, tree_to_document, tree_to_dot, write_atomic

_KIND_ALIASES = {"num": "numeric", "cat": "categorical", "ord": "ordinal"}


def _parse_covariates(spec: str) -> tuple[ColumnSpec, ...]:
    """Comma list of covariate columns, each 'name' or 'name:num|cat|ord'."""
    out = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        name, _, kind = token.partition(":")
        if kind and kind not in _KIND_ALIASES:
            raise argparse.ArgumentTypeError(
                f"bad covariate kind {kind!r} (use num, cat or ord)"
            )
        out.append(ColumnSpec(name, _KIND_ALIASES.get(kind, "auto")))
    if not out:
        raise argparse.ArgumentTypeError("--covariates must name at least one column")
    return tuple(out)


def _parse_test(spec: str) -> TestMethod:
    """'asymptotic', 'exact', or 'mc:REPLICATES:SEED'."""
    if spec == "asymptotic" or spec == "exact":
        return TestMethod(spec)
    if spec.startswith("mc:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("expected mc:REPLICATES:SEED")
        try:
            return TestMethod("montecarlo", replicates=int(parts[1]), seed=int(parts[2]))
        except ValueError:
            raise argparse.ArgumentTypeError("expected integers in mc:REPLICATES:SEED")
    raise argparse.ArgumentTypeError(f"unknown test {spec!r}")


def _parse_age_effect(spec: str) -> tuple[float, float]:
    try:
        thr, ratio = (float(s) for s in spec.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError("expected THRESHOLD:RATIO")
    return thr, ratio


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="survtree",
        description="Conditional-inference survival trees and a synthetic waitlist cohort generator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic cohort CSV")
    sim.add_argument("--n", type=int, default=None, help="cohort size (default 529)")
    sim.add_argument("--seed", type=int, default=None, help="RNG seed (default 1)")
    sim.add_argument("--threshold", type=float, default=None, help="MELD hazard jump location (default 16)")
    sim.add_argument("--hazard-ratio", type=float, default=None, help="hazard multiplier at/above the threshold (default 3)")
    sim.add_argument("--censor-frac", type=float, default=None, help="target censored fraction (default 0.64)")
    sim.add_argument("--base-hazard", type=float, default=None, help="baseline events/day (default 5e-4)")
    sim.add_argument("--age-effect", type=_parse_age_effect, default=None, metavar="THRESHOLD:RATIO",
                     help="extra hazard multiplier for age <= threshold")
    sim.add_argument("--hcc-effect", type=float, default=None, metavar="RATIO",
                     help="extra hazard multiplier for HCC carriers")
    sim.add_argument("--labs-mode", action=argparse.BooleanOptionalAction, default=None,
                     help="draw labs and push them through the MELD formula")
    sim.add_argument("--config", default=None, help="flat key=value config file (flags win)")
    sim.add_argument("--out", required=True, help="output CSV path")

    fitp = sub.add_parser("fit", help="fit a survival tree from a CSV")
    fitp.add_argument("--data", required=True, help="input CSV")
    fitp.add_argument("--time", required=True, help="time column name")
    fitp.add_argument("--event", required=True, help="event column name (0/1 or true/false)")
    fitp.add_argument("--covariates", required=True, type=_parse_covariates,
                      help="comma list of covariate columns, each 'name[:num|cat|ord]'")
    fitp.add_argument("--alpha", type=float, default=0.05)
    fitp.add_argument("--minsplit", type=float, default=20.0)
    fitp.add_argument("--minbucket", type=float, default=7.0)
    fitp.add_argument("--max-depth", type=int, default=None)
    fitp.add_argument("--test", type=_parse_test, default=TestMethod("asymptotic"),
                      help="asymptotic | mc:REPLICATES:SEED | exact")
    fitp.add_argument("--out", required=True, help="output tree JSON path")

    pred = sub.add_parser("predict", help="route CSV rows to tree leaves")
    pred.add_argument("--tree", required=True, help="tree JSON from fit")
    pred.add_argument("--data", required=True, help="input CSV")
    pred.add_argument("--out", required=True, help="output CSV (row,leaf,median)")

    dot = sub.add_parser("export-dot", help="render a tree JSON as Graphviz DOT")
    dot.add_argument("--tree", required=True, help="tree JSON from fit")
    dot.add_argument("--out", required=True, help="output DOT path")

    kmp = sub.add_parser("km", help="export per-leaf Kaplan-Meier curves")
    kmp.add_argument("--tree", required=True, help="tree JSON from fit")
    kmp.add_argument("--data", required=True, help="input CSV (must include response columns)")
    kmp.add_argument("--out-dir", required=True, help="directory for leaf_<id>.csv files")

    return parser


def _cmd_simulate(args) -> int:
    raw = read_config_file(args.config) if args.config else {}
    cfg = simconfig_from_strings(raw)
    overrides: dict = {}
    for flag, field in (
        ("n", "n"),
        ("seed", "seed"),
        ("threshold", "meld_threshold"),
        ("hazard_ratio", "hazard_ratio"),
        ("censor_frac", "censor_fraction_target"),
        ("base_hazard", "base_hazard"),
        ("age_effect", "age_effect"),
        ("hcc_effect", "hcc_effect_ratio"),
        ("labs_mode", "labs_mode"),
    ):
        value = getattr(args, flag)
        if value is not None:
            overrides[field] = value
    cfg = dataclasses.replace(cfg, **overrides)
    ds = simulate_cohort(cfg)
    with open_atomic(args.out) as fh:
        dataset_to_csv(ds, fh)
    event_frac = float(np.mean(ds.response.event))
    meld = ds.covariate("meld").values
    q1, q2, q3 = (float(np.percentile(meld, q)) for q in (25, 50, 75))
    print(f"wrote {ds.n} rows to {args.out}")
    print(f"event fraction: {event_frac:.3f}")
    print(f"MELD quartiles: {q1:.2f} / {q2:.2f} / {q3:.2f}")
    return 0


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return h.hexdigest()


def _cmd_fit(args) -> int:
    schema = Schema(args.time, args.event, args.covariates)
    ds, dropped = load_csv(args.data, schema)
    if dropped:
        print(f"dropped {dropped} incomplete rows", file=sys.stderr)
    cfg = FitConfig(
        alpha=args.alpha,
        minsplit=args.minsplit,
        minbucket=args.minbucket,
        max_depth=args.max_depth,
        test=args.test,
    )
    tree = fit(ds, cfg)
    seed = cfg.test.seed if cfg.test.name == "montecarlo" else None
    doc = tree_to_document(tree, args.time, args.event, _sha256(args.data), seed)
    write_atomic(args.out, dumps_canonical(doc) + "\n")
    sys.stdout.write(render_text(tree))
    return 0


def _split_covariates(tree: Tree) -> list[str]:
    """The covariates the tree splits on, in declared order."""
    used = {node.split.covariate for node in tree.nodes.values() if not node.is_leaf}
    return [c.name for c in tree.covariate_info if c.name in used]


def _route_cells(tree: Tree, names: list[str], cells: list[list[str]], n: int):
    """Each row's deepest node, and whether it reached a leaf, from the raw
    cells of the split covariates `names`."""
    columns = {name: typed_column(c, tree.info(name).levels) for name, c in zip(names, cells)}
    node_of = route(tree, columns, n)
    return node_of, np.isin(node_of, [leaf.id for leaf in tree.leaves()])


def _cmd_predict(args) -> int:
    tree, _ = load_tree(args.tree)
    names = _split_covariates(tree)
    cells, n = read_csv_columns(args.data, names)
    if not n:
        raise DataError(f"{args.data}: no data rows")
    node_of, reached = _route_cells(tree, names, cells, n)
    stuck = np.flatnonzero(~reached).tolist()
    if stuck:
        column = dict(zip(names, cells))
        for i in stuck:
            name = tree.nodes[int(node_of[i])].split.covariate
            print(f"row {i}: no usable value for split covariate {name!r}: {column[name][i]!r}", file=sys.stderr)
        raise DataError(f"{len(stuck)} of {n} rows could not be routed")
    median = {leaf.id: "" if leaf.km_median is None else repr(leaf.km_median) for leaf in tree.leaves()}
    lines = "".join(f"{i},{leaf},{median[leaf]}\n" for i, leaf in enumerate(node_of.tolist()))
    write_atomic(args.out, "row,leaf,median\n" + lines)
    return 0


def _cmd_export_dot(args) -> int:
    tree, _ = load_tree(args.tree)
    write_atomic(args.out, tree_to_dot(tree))
    return 0


_LEAF_FILE = re.compile(r"leaf_\d+\.csv")


def _cmd_km(args) -> int:
    tree, response = load_tree(args.tree)
    names = _split_covariates(tree)
    (time_cells, event_cells, *cells), n = read_csv_columns(args.data, [*response, *names])
    time, event = typed_response(args.data, time_cells, event_cells)
    node_of, reached = _route_cells(tree, names, cells, n)
    keep = reached & np.isfinite(time) & np.isfinite(event)
    if not keep.any():
        raise DataError(f"{args.data}: zero rows remain after dropping incomplete records")
    dropped = n - int(keep.sum())
    if dropped:
        print(f"dropped {dropped} incomplete rows", file=sys.stderr)

    written = set()
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        for leaf_id in np.unique(node_of[keep]).tolist():
            idx = np.flatnonzero(keep & (node_of == leaf_id))
            curve = km_estimate(time[idx], event[idx] == 1.0)
            # anchor: the curve starts at 1 at t = 0
            text = "time,survival\n0.0,1.0\n" + "".join(f"{t!r},{s!r}\n" for t, s in curve.steps)
            name = f"leaf_{leaf_id}.csv"
            write_atomic(os.path.join(args.out_dir, name), text)
            written.add(name)
        # curves of an earlier tree in the same directory would pass for this one's
        for name in os.listdir(args.out_dir):
            if _LEAF_FILE.fullmatch(name) and name not in written:
                os.remove(os.path.join(args.out_dir, name))
    except OSError as exc:
        raise DataError(f"cannot write {args.out_dir}: {exc.strerror or exc}") from exc
    print(f"wrote {len(written)} leaf curves to {args.out_dir}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "export-dot": _cmd_export_dot,
    "km": _cmd_km,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
