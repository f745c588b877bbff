"""Tabular learning-sample model: typed covariates, right-censored response,
case weights, CSV ingestion with listwise deletion of incomplete rows.

A node of a fitted tree is represented purely by a case-weight vector over the
original observations, so everything downstream works on (Dataset, weights)
pairs and never copies rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

NUMERIC = "numeric"
CATEGORICAL = "categorical"

_TRUE_EVENT = {"1", "true"}
_FALSE_EVENT = {"0", "false"}


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Covariate:
    """One typed column. Numeric columns hold finite floats; categorical
    columns hold level indices into `levels` (declared order is significant:
    it fixes the one-hot column order and the canonical split subsets).
    Ordered categoricals are split like numerics on the level index."""

    name: str
    kind: str
    values: np.ndarray
    levels: tuple[str, ...] | None = None
    ordered: bool = False

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise DataError(f"unknown covariate kind {self.kind!r}")
        if self.kind == NUMERIC:
            vals = np.asarray(self.values, dtype=float)
            if not np.all(np.isfinite(vals)):
                raise DataError(f"covariate {self.name!r} has non-finite values")
        else:
            if not self.levels or len(self.levels) < 2:
                raise DataError(f"covariate {self.name!r} needs >= 2 declared levels")
            vals = np.asarray(self.values, dtype=np.int64)
            if vals.size and (vals.min() < 0 or vals.max() >= len(self.levels)):
                raise DataError(f"covariate {self.name!r} has level index out of range")
        object.__setattr__(self, "values", _readonly(vals))

    @property
    def n_levels(self) -> int:
        return len(self.levels) if self.levels else 0


@dataclass(frozen=True)
class SurvivalResponse:
    """Right-censored response: follow-up time in days plus an event flag
    (True = death observed, False = censored)."""

    time: np.ndarray
    event: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.time, dtype=float)
        e = np.asarray(self.event, dtype=bool)
        if t.shape != e.shape or t.ndim != 1:
            raise DataError("time and event must be equal-length vectors")
        if not np.all(np.isfinite(t)) or np.any(t < 0):
            raise DataError("survival times must be finite and >= 0")
        object.__setattr__(self, "time", _readonly(t))
        object.__setattr__(self, "event", _readonly(e))

    def __len__(self) -> int:
        return self.time.shape[0]


@dataclass(frozen=True)
class Dataset:
    """Learning sample: m covariate columns plus the survival response."""

    covariates: tuple[Covariate, ...]
    response: SurvivalResponse

    def __post_init__(self):
        n = len(self.response)
        names = [c.name for c in self.covariates]
        if len(set(names)) != len(names):
            raise DataError("covariate names must be unique")
        for c in self.covariates:
            if c.values.shape[0] != n:
                raise DataError(f"covariate {c.name!r} has length {c.values.shape[0]}, expected {n}")

    @property
    def n(self) -> int:
        return len(self.response)

    @property
    def m(self) -> int:
        return len(self.covariates)

    def covariate(self, name: str) -> Covariate:
        for c in self.covariates:
            if c.name == name:
                return c
        raise DataError(f"unknown covariate {name!r}")


@dataclass(frozen=True)
class ColumnSpec:
    """Role declaration for one covariate column.

    kind: "auto" infers numeric iff every non-missing cell parses as a finite
    float, categorical otherwise; "numeric", "categorical" and "ordinal" force
    the type. Levels default to the sorted set of distinct observed strings.
    """

    name: str
    kind: str = "auto"
    levels: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Schema:
    """Names the time and event columns and lists the covariates to load
    (possibly none: a response-only load)."""

    time_column: str
    event_column: str
    covariates: tuple[ColumnSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        declared = [self.time_column, self.event_column] + [c.name for c in self.covariates]
        if len(set(declared)) != len(declared):
            raise DataError("schema declares a column twice")


def _is_missing(cell: str | None) -> bool:
    return cell is None or cell.strip() == ""


def _parse_float(cell: str) -> float | None:
    """Finite float or None if the cell is unparseable/non-finite."""
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if np.isfinite(v) else None


def read_csv_table(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and non-blank rows of an RFC-4180-style CSV in UTF-8, with or
    without a byte-order mark. Header names are stripped of surrounding
    whitespace; a header that names a column twice is a DataError."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            rows = [row for row in reader if row]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    header = [h.strip() for h in header]
    repeated = sorted({h for h in header if h and header.count(h) > 1})
    if repeated:
        raise DataError(f"{path}: header names {', '.join(map(repr, repeated))} more than once")
    return header, rows


def load_csv(path: str, schema: Schema) -> tuple[Dataset, int]:
    """Read a CSV (see read_csv_table; '.' decimals) into a Dataset.

    Rows with a missing or unparseable value in any declared column are
    dropped (listwise deletion); the second return value is the dropped-row
    count. Domain violations are errors, never dropped: an event cell outside
    {0, 1, true, false} or a negative time aborts the load.
    """
    header, rows = read_csv_table(path)
    col_index: dict[str, int] = {}
    for name in [schema.time_column, schema.event_column] + [c.name for c in schema.covariates]:
        if name not in header:
            raise DataError(f"{path}: column {name!r} not in header {header}")
        col_index[name] = header.index(name)

    def cell(row: list[str], name: str) -> str | None:
        i = col_index[name]
        return row[i] if i < len(row) else None

    # Domain validation runs over every row, including rows that listwise
    # deletion would drop: invalid values are data bugs, not missingness.
    for lineno, row in enumerate(rows, start=2):
        ev = cell(row, schema.event_column)
        if not _is_missing(ev) and ev.strip().lower() not in _TRUE_EVENT | _FALSE_EVENT:
            raise DataError(
                f"{path}:{lineno}: event value {ev!r} not in {{0, 1, true, false}}"
            )
        tv = cell(row, schema.time_column)
        if not _is_missing(tv):
            t = _parse_float(tv)
            if t is not None and t < 0:
                raise DataError(f"{path}:{lineno}: negative time {tv!r}")

    # Resolve covariate kinds before dropping, so inference is a property of
    # the file, not of which rows survive.
    kinds: dict[str, str] = {}
    levels: dict[str, tuple[str, ...]] = {}
    for spec in schema.covariates:
        cells = [cell(r, spec.name) for r in rows]
        present = [c.strip() for c in cells if not _is_missing(c)]
        kind = spec.kind
        if kind == "auto":
            kind = NUMERIC if all(_parse_float(c) is not None for c in present) else CATEGORICAL
        if kind in (CATEGORICAL, "ordinal"):
            # level-count validation happens after dropping: an all-missing
            # column should surface as "zero rows remain", not as bad levels
            levels[spec.name] = (
                spec.levels if spec.levels is not None else tuple(sorted(set(present)))
            )
        kinds[spec.name] = kind

    keep: list[bool] = []
    for row in rows:
        ok = True
        if _is_missing(cell(row, schema.event_column)):
            ok = False
        tv = cell(row, schema.time_column)
        if _is_missing(tv) or _parse_float(tv) is None:
            ok = False
        for spec in schema.covariates:
            cv = cell(row, spec.name)
            if _is_missing(cv):
                ok = False
            elif kinds[spec.name] == NUMERIC:
                if _parse_float(cv) is None:
                    ok = False
            else:
                if cv.strip() not in levels[spec.name]:
                    ok = False
        keep.append(ok)

    kept = [row for row, k in zip(rows, keep) if k]
    dropped = len(rows) - len(kept)
    if not kept:
        raise DataError(f"{path}: zero rows remain after dropping incomplete records")

    time = np.array([_parse_float(cell(r, schema.time_column)) for r in kept], dtype=float)
    event = np.array(
        [cell(r, schema.event_column).strip().lower() in _TRUE_EVENT for r in kept], dtype=bool
    )

    covariates = []
    for spec in schema.covariates:
        raw = [cell(r, spec.name).strip() for r in kept]
        if kinds[spec.name] == NUMERIC:
            covariates.append(Covariate(spec.name, NUMERIC, np.array([_parse_float(c) for c in raw])))
        else:
            lv = levels[spec.name]
            if len(lv) < 2:
                raise DataError(
                    f"covariate {spec.name!r}: fewer than 2 levels observed/declared"
                )
            index = {s: i for i, s in enumerate(lv)}
            vals = np.array([index[c] for c in raw], dtype=np.int64)
            covariates.append(
                Covariate(spec.name, CATEGORICAL, vals, levels=lv, ordered=(kinds[spec.name] == "ordinal"))
            )

    return Dataset(tuple(covariates), SurvivalResponse(time, event)), dropped


@dataclass(frozen=True)
class SplitRule:
    """Binary condition on one covariate: numeric `x <= cutoff`, or
    categorical `level in subset`. Ordered categoricals use the numeric form
    on the level index."""

    covariate: str
    cutoff: float | None = None
    subset: tuple[str, ...] | None = None

    def __post_init__(self):
        if (self.cutoff is None) == (self.subset is None):
            raise DataError("split rule needs exactly one of cutoff/subset")

    def mask(self, ds: Dataset) -> np.ndarray:
        """Boolean vector: True where the condition holds (left child)."""
        cov = ds.covariate(self.covariate)
        if self.cutoff is not None:
            if cov.kind == CATEGORICAL and not cov.ordered:
                raise DataError(f"numeric cut on unordered categorical {cov.name!r}")
            return cov.values <= self.cutoff
        if cov.kind != CATEGORICAL:
            raise DataError(f"subset split on numeric covariate {cov.name!r}")
        wanted = np.zeros(cov.n_levels, dtype=bool)
        for s in self.subset:
            if s not in cov.levels:
                raise DataError(f"split level {s!r} not among levels of {cov.name!r}")
            wanted[cov.levels.index(s)] = True
        return wanted[cov.values]


def subset_weights(
    ds: Dataset, w: np.ndarray, rule: SplitRule
) -> tuple[np.ndarray, np.ndarray]:
    """Partition case weights by a split rule: left_i = w_i where the rule
    holds, right_i = w_i - left_i. left + right == w elementwise, exactly."""
    w = np.asarray(w, dtype=float)
    if w.shape != (ds.n,):
        raise DataError(f"weights have shape {w.shape}, expected ({ds.n},)")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise DataError("case weights must be finite and non-negative")
    m = rule.mask(ds)
    left = np.where(m, w, 0.0)
    return left, w - left


def dataset_to_csv(ds: Dataset) -> str:
    """Render a Dataset in the same CSV dialect load_csv reads (covariate
    columns in declared order, then time,event). Floats use repr, so a
    load_csv round trip is lossless."""
    header = [c.name for c in ds.covariates] + ["time", "event"]
    lines = [",".join(header)]
    for i in range(ds.n):
        cells = []
        for c in ds.covariates:
            if c.kind == NUMERIC:
                cells.append(repr(float(c.values[i])))
            else:
                cells.append(c.levels[int(c.values[i])])
        cells.append(repr(float(ds.response.time[i])))
        cells.append("1" if ds.response.event[i] else "0")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
