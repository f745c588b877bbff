"""Tabular learning-sample model: typed covariates, right-censored response,
case weights, CSV ingestion with listwise deletion of incomplete rows.

A node of a fitted tree is represented purely by a case-weight vector over the
original observations, so everything downstream works on (Dataset, weights)
pairs and never copies rows.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

NUMERIC = "numeric"
CATEGORICAL = "categorical"

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

    def __post_init__(self):
        if self.kind not in ("auto", NUMERIC, CATEGORICAL, "ordinal"):
            raise DataError(f"column {self.name!r}: unknown kind {self.kind!r}")


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


_EVENT_FLAGS = {"1": 1.0, "true": 1.0, "0": 0.0, "false": 0.0, "": np.nan}


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return np.nan


def read_csv_columns(path: str, names: list[str]) -> tuple[list[list[str]], int]:
    """The cells of the named columns, in the order named, and the number of
    data rows, from an RFC-4180-style CSV in UTF-8 with or without a
    byte-order mark. Blank lines are skipped and a short row reads as blank
    cells. Header names are stripped of surrounding whitespace; a header that
    names a column twice, or lacks a named column, is a DataError."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            repeated = sorted({h for h in header if h and header.count(h) > 1})
            if repeated:
                raise DataError(f"{path}: header names {', '.join(map(repr, repeated))} more than once")
            for name in names:
                if name not in header:
                    raise DataError(f"{path}: column {name!r} not in header {header}")
            index = [header.index(name) for name in names]
            columns: list[list[str]] = [[] for _ in names]
            n = 0
            # a block of rows at a time, so that only the named cells are kept
            while block := list(itertools.islice(reader, 4096)):
                block = [row for row in block if row]
                n += len(block)
                for i, column in zip(index, columns):
                    column.extend([row[i] if i < len(row) else "" for row in block])
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return columns, n


def typed_column(cells: list[str], levels: tuple[str, ...] | None = None) -> np.ndarray:
    """One typed value per cell. Without `levels`: floats, NaN where a cell is
    blank, unparseable or non-finite. With `levels`: indices into them, -1
    where the stripped cell is blank or not a level."""
    if levels is None:
        try:
            x = np.array(cells, dtype=float)  # numpy parses each cell as float() does
        except ValueError:
            x = np.array([_float_or_nan(c) for c in cells], dtype=float)
        x[~np.isfinite(x)] = np.nan
        return x
    index = {s: i for i, s in enumerate(levels) if s}
    return np.array([index.get(c.strip(), -1) for c in cells], dtype=np.int64)


def typed_response(path: str, time_cells: list[str], event_cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Times as typed_column floats and event flags as 1.0/0.0, NaN where the
    event cell is blank. An event cell outside {0, 1, true, false} (any case)
    or a negative time is a DataError naming the first such line (the event
    first), whether or not the row would be dropped: invalid values are data
    bugs, not missingness."""
    time = typed_column(time_cells)
    event = np.array([_EVENT_FLAGS.get(c.strip().lower(), -1.0) for c in event_cells], dtype=float)
    bad = np.flatnonzero((event < 0) | (time < 0))
    if bad.size:
        i = int(bad[0])
        if event[i] < 0:
            raise DataError(f"{path}:{i + 2}: event value {event_cells[i]!r} not in {{0, 1, true, false}}")
        raise DataError(f"{path}:{i + 2}: negative time {time_cells[i]!r}")
    return time, event


def load_csv(path: str, schema: Schema) -> tuple[Dataset, int]:
    """Read a CSV (see read_csv_columns; '.' decimals) into a Dataset.

    Rows with a missing or unparseable value in any declared column are
    dropped (listwise deletion); the second return value is the dropped-row
    count. Domain violations are errors, never dropped: an event cell outside
    {0, 1, true, false} or a negative time aborts the load.
    """
    names = [schema.time_column, schema.event_column] + [c.name for c in schema.covariates]
    (time_cells, event_cells, *covariate_cells), n = read_csv_columns(path, names)
    time, event = typed_response(path, time_cells, event_cells)
    keep = np.isfinite(time) & np.isfinite(event)

    typed = []
    for spec, cells in zip(schema.covariates, covariate_cells):
        kind = spec.kind
        if kind == "auto":
            # inferred over every row, so that it is a property of the file,
            # not of which rows survive
            try:
                x = np.array([c for c in cells if c.strip()], dtype=float)
                kind = NUMERIC if np.all(np.isfinite(x)) else CATEGORICAL
            except ValueError:
                kind = CATEGORICAL
        levels = None
        if kind != NUMERIC:
            # level-count validation happens after dropping: an all-missing
            # column should surface as "zero rows remain", not as bad levels
            levels = spec.levels
            if levels is None:
                levels = tuple(sorted({c.strip() for c in cells} - {""}))
        values = typed_column(cells, levels)
        keep &= ~np.isnan(values) if levels is None else values >= 0
        typed.append((spec.name, kind, values, levels))

    if not keep.any():
        raise DataError(f"{path}: zero rows remain after dropping incomplete records")
    covariates = []
    for name, kind, values, levels in typed:
        if levels is not None and len(levels) < 2:
            raise DataError(f"covariate {name!r}: fewer than 2 levels observed/declared")
        stored = NUMERIC if levels is None else CATEGORICAL
        covariates.append(Covariate(name, stored, values[keep], levels, ordered=kind == "ordinal"))
    response = SurvivalResponse(time[keep], event[keep] == 1.0)
    return Dataset(tuple(covariates), response), n - int(keep.sum())


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

    def holds(self, values: np.ndarray, levels: tuple[str, ...] | None) -> np.ndarray:
        """Boolean vector: True where the condition holds (left child), on a
        column of usable floats or of indices into the covariate's `levels`."""
        if self.cutoff is not None:
            return values <= self.cutoff
        wanted = np.zeros(len(levels), dtype=bool)
        wanted[[levels.index(s) for s in self.subset]] = True
        return wanted[values]

    def check(self, kind: str, levels: tuple[str, ...] | None, ordered: bool) -> None:
        """DataError unless the rule fits a covariate of this kind: a cut-off
        on a numeric value or on an ordered level index below the last level,
        a subset of an unordered categorical's levels that leaves some level
        on each side."""
        if self.cutoff is not None:
            fits = kind == NUMERIC or (ordered and self.cutoff in range(len(levels) - 1))
        else:
            fits = kind == CATEGORICAL and not ordered and set() < set(self.subset) < set(levels)
        if not fits:
            what = f"cut-off {self.cutoff!r}" if self.subset is None else f"subset {list(self.subset)!r}"
            kind = f"ordered {kind}" if ordered else kind
            raise DataError(f"{what} does not fit {kind} covariate {self.covariate!r}")

    def mask(self, ds: Dataset) -> np.ndarray:
        """`holds` on the covariate's column in `ds`, once `check` passes."""
        cov = ds.covariate(self.covariate)
        self.check(cov.kind, cov.levels, cov.ordered)
        return self.holds(cov.values, cov.levels)


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
    columns in declared order, then time,event). Floats use repr and cells
    are quoted only where needed, so a load_csv round trip is lossless. A
    covariate name or level that is empty or has surrounding whitespace is a
    DataError, because load_csv would not read it back unchanged."""
    for c in ds.covariates:
        for s in (c.name, *(c.levels or ())):
            if not s or s != s.strip():
                raise DataError(f"covariate {c.name!r}: name or level {s!r} is blank or padded")
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
