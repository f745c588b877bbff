"""Row-by-row CSV oracle: the loader and the per-row predict router that the
typed column reader and the column router replaced.

`load_csv` is the three-pass loader (domain validation over every row, kind
inference, then listwise deletion cell by cell); `predict_row` is predict's
per-row path, a raw row turned into an observation and walked from the root.
Both are kept self-contained (csv and numpy only, no library code) so they
can certify the columnar code: the same values bit for bit, the same dropped
count, the same error messages, and the same leaf or the same refusal for
every row. A fitted tree is read only through its attributes.
"""

import csv

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"
_TRUE_EVENT = {"1", "true"}
_FALSE_EVENT = {"0", "false"}


class OracleError(Exception):
    """What the library raised as a DataError."""


def _is_missing(cell):
    return cell is None or cell.strip() == ""


def _parse_float(cell):
    """Finite float or None if the cell is unparseable/non-finite."""
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if np.isfinite(v) else None


def read_csv_table(path):
    """(header, rows, lines): the non-blank data rows and, for each, the
    physical line of the file it starts on."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise OracleError(f"{path}: empty file") from None
            rows, lines = [], []
            start = reader.line_num + 1
            for row in reader:
                if row:
                    rows.append(row)
                    lines.append(start)
                start = reader.line_num + 1
    except OSError as exc:
        raise OracleError(f"cannot read {path}: {exc}") from exc
    header = [h.strip() for h in header]
    repeated = sorted({h for h in header if h and header.count(h) > 1})
    if repeated:
        raise OracleError(f"{path}: header names {', '.join(map(repr, repeated))} more than once")
    return header, rows, lines


def load_csv(path, time_column, event_column, specs):
    """specs: (name, kind, levels) per covariate. Returns (time, event,
    covariates, dropped) with covariates as (name, kind, values, levels,
    ordered) tuples."""
    header, rows, lines = read_csv_table(path)
    col_index = {}
    for name in [time_column, event_column] + [name for name, _, _ in specs]:
        if name not in header:
            raise OracleError(f"{path}: column {name!r} not in header {header}")
        col_index[name] = header.index(name)

    def cell(row, name):
        i = col_index[name]
        return row[i] if i < len(row) else None

    for lineno, row in zip(lines, rows):
        ev = cell(row, event_column)
        if not _is_missing(ev) and ev.strip().lower() not in _TRUE_EVENT | _FALSE_EVENT:
            raise OracleError(f"{path}:{lineno}: event value {ev!r} not in {{0, 1, true, false}}")
        tv = cell(row, time_column)
        if not _is_missing(tv):
            t = _parse_float(tv)
            if t is not None and t < 0:
                raise OracleError(f"{path}:{lineno}: negative time {tv!r}")

    kinds = {}
    levels = {}
    for name, kind, declared in specs:
        present = [c.strip() for c in (cell(r, name) for r in rows) if not _is_missing(c)]
        if kind == "auto":
            kind = NUMERIC if all(_parse_float(c) is not None for c in present) else CATEGORICAL
        if kind in (CATEGORICAL, "ordinal"):
            levels[name] = declared if declared is not None else tuple(sorted(set(present)))
        kinds[name] = kind

    keep = []
    for row in rows:
        ok = True
        if _is_missing(cell(row, event_column)):
            ok = False
        tv = cell(row, time_column)
        if _is_missing(tv) or _parse_float(tv) is None:
            ok = False
        for name, _, _ in specs:
            cv = cell(row, name)
            if _is_missing(cv):
                ok = False
            elif kinds[name] == NUMERIC:
                if _parse_float(cv) is None:
                    ok = False
            elif cv.strip() not in levels[name]:
                ok = False
        keep.append(ok)

    kept = [row for row, k in zip(rows, keep) if k]
    dropped = len(rows) - len(kept)
    if not kept:
        raise OracleError(f"{path}: zero rows remain after dropping incomplete records")

    time = np.array([_parse_float(cell(r, time_column)) for r in kept], dtype=float)
    event = np.array([cell(r, event_column).strip().lower() in _TRUE_EVENT for r in kept], dtype=bool)
    covariates = []
    for name, _, _ in specs:
        raw = [cell(r, name).strip() for r in kept]
        if kinds[name] == NUMERIC:
            covariates.append((name, NUMERIC, np.array([_parse_float(c) for c in raw]), None, False))
        else:
            lv = levels[name]
            if len(lv) < 2:
                raise OracleError(f"covariate {name!r}: fewer than 2 levels observed/declared")
            index = {s: i for i, s in enumerate(lv)}
            vals = np.array([index[c] for c in raw], dtype=np.int64)
            covariates.append((name, CATEGORICAL, vals, lv, kinds[name] == "ordinal"))
    return time, event, covariates, dropped


def _row_observation(row, tree):
    obs = {}
    for cov in tree.covariate_info:
        cell = row.get(cov.name)
        if cell is None or cell.strip() == "":
            continue
        cell = cell.strip()
        if cov.kind == NUMERIC:
            try:
                obs[cov.name] = float(cell)
            except ValueError:
                continue
        else:
            obs[cov.name] = cell
    return obs


def _info(tree, name):
    for ci in tree.covariate_info:
        if ci.name == name:
            return ci
    raise OracleError(f"tree uses unknown covariate {name!r}")


def _goes_left(value, info, rule):
    if info.kind == NUMERIC:
        v = float(value)
        if not np.isfinite(v):
            raise OracleError(f"missing value for split covariate {rule.covariate!r}")
        return v <= rule.cutoff
    level = str(value)
    if level not in info.levels:
        raise OracleError(f"unseen level {level!r} for split covariate {rule.covariate!r}")
    if rule.cutoff is not None:
        return info.levels.index(level) <= rule.cutoff
    return level in rule.subset


def predict_row(tree, header, row):
    """Leaf id of one raw CSV row, or OracleError if it cannot be routed."""
    observation = _row_observation(dict(zip(header, row)), tree)
    node = tree.nodes[1]
    while node.split is not None:
        rule = node.split
        if rule.covariate not in observation or observation[rule.covariate] is None:
            raise OracleError(f"observation missing split covariate {rule.covariate!r}")
        try:
            left = _goes_left(observation[rule.covariate], _info(tree, rule.covariate), rule)
        except (TypeError, ValueError) as exc:
            raise OracleError(f"bad value for split covariate {rule.covariate!r}: {exc}") from exc
        node = tree.nodes[node.children[0] if left else node.children[1]]
    return node.id
