"""Tabular learning-sample model: typed covariates, right-censored response,
case weights, CSV ingestion with listwise deletion of incomplete rows.

Fitting never copies a Dataset: a node of a fitted tree is the row indices
it holds plus their positive case weights, and each node slices the columns
it needs by those rows.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import operator
import os
import stat
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

NUMERIC = "numeric"
CATEGORICAL = "categorical"

def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CovariateInfo:
    """A covariate's metadata, which a fitted tree keeps for routing. Numeric:
    no levels, not ordered. Categorical: at least two distinct levels. Names
    and levels are non-blank and unpadded, as the CSV reader reads them."""

    name: str
    kind: str
    levels: tuple[str, ...] | None = None
    ordered: bool = False

    def __post_init__(self):
        object.__setattr__(self, "levels", None if self.levels is None else tuple(self.levels))
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise DataError(f"covariate {self.name!r}: unknown kind {self.kind!r}")
        if (self.kind == NUMERIC) != (self.levels is None):
            need = "takes no" if self.kind == NUMERIC else "needs"
            raise DataError(f"covariate {self.name!r}: a {self.kind} covariate {need} levels")
        if self.ordered and self.kind == NUMERIC:
            raise DataError(f"covariate {self.name!r}: only a categorical covariate can be ordered")
        for s in (self.name, *(self.levels or ())):
            if not isinstance(s, str) or not s or s != s.strip():
                raise DataError(f"covariate {self.name!r}: name or level {s!r} is blank or padded")
        if self.levels is not None:
            if len(set(self.levels)) != len(self.levels):
                raise DataError(f"covariate {self.name!r}: levels {list(self.levels)!r} repeat a level")
            if len(self.levels) < 2:
                raise DataError(f"covariate {self.name!r}: fewer than 2 levels observed/declared")


@dataclass(frozen=True)
class Covariate:
    """One typed column. Numeric columns hold finite floats; categorical
    columns hold level indices into `levels` (declared order is significant:
    it fixes the one-hot column order and the canonical split subsets).
    Ordered categoricals are split like numerics on the level index. The
    metadata must pass `CovariateInfo`."""

    name: str
    kind: str
    values: np.ndarray
    levels: tuple[str, ...] | None = None
    ordered: bool = False

    def __post_init__(self):
        object.__setattr__(self, "levels", self.info.levels)  # CovariateInfo validates the metadata
        if self.kind == NUMERIC:
            vals = np.asarray(self.values, dtype=float)
            if not np.all(np.isfinite(vals)):
                raise DataError(f"covariate {self.name!r} has non-finite values")
        else:
            vals = np.asarray(self.values, dtype=np.int64)
            if vals.size and (vals.min() < 0 or vals.max() >= len(self.levels)):
                raise DataError(f"covariate {self.name!r} has level index out of range")
        object.__setattr__(self, "values", _readonly(vals))

    @functools.cached_property
    def info(self) -> CovariateInfo:
        """The metadata, checked once, when the covariate is made."""
        return CovariateInfo(self.name, self.kind, self.levels, self.ordered)

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
    float, categorical otherwise, unless it declares levels, which make it
    categorical; "numeric", "categorical" and "ordinal" force the type.
    Levels default to the sorted set of distinct observed strings; declared
    ones must pass `CovariateInfo` as a categorical's.
    """

    name: str
    kind: str = "auto"
    levels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("auto", NUMERIC, CATEGORICAL, "ordinal"):
            raise DataError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.levels is not None:
            kind = NUMERIC if self.kind == NUMERIC else CATEGORICAL
            info = CovariateInfo(self.name, kind, self.levels, self.kind == "ordinal")
            object.__setattr__(self, "levels", info.levels)  # as a tuple


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
_BLOCK = 4096  # rows the CSV reader and writer handle at a time
_CHUNK = 1 << 18  # characters of CSV text split at a time: about 2,700 rows of a simulated cohort


class _Hashing(io.RawIOBase):
    """A binary file read through, each byte also fed to `digest`."""

    def __init__(self, fh, digest):
        self._fh, self._digest = fh, digest

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._fh.readinto(buffer)
        self._digest.update(memoryview(buffer)[:n])
        return n

    def close(self) -> None:
        self._fh.close()
        super().close()


class _Counted(io.BufferedReader):
    """A buffered binary file that counts the bytes `read1` has handed out
    (all that `io.TextIOWrapper` reads, but for a `read()` of everything), so
    that a decoding error can name its byte's offset in the file."""

    handed = 0

    def read1(self, size=-1):
        data = super().read1(size)
        self.handed += len(data)
        return data


def _open_input(path: str):
    """`path` opened for unbuffered binary reads. If it names standard input
    and that is not a regular file (`/dev/stdin` on a pipe or FIFO), a
    duplicate of descriptor 0 is read instead: opening a FIFO again would wait
    for a new writer, while descriptor 0 already holds the data."""
    st = os.stat(path)
    if not stat.S_ISREG(st.st_mode):
        try:
            stdin = os.fstat(0)
        except OSError:  # descriptor 0 is closed
            stdin = None
        if stdin is not None and os.path.samestat(st, stdin):
            return open(os.dup(0), "rb", buffering=0)
    return open(path, "rb", buffering=0)


def _blocks(fh):
    """The rows of the CSV text `fh`, from where it stands, as csv.reader
    reads them, a block at a time: either (lines, None), lines that
    csv.reader reads as `line.split(",")` (a blank line as no row), or
    (None, rows) of csv.reader. Text with no quote, no carriage return and no
    line longer than the field size limit is split directly, a chunk of whole
    lines at a time. From the first chunk that fails the test, csv.reader
    reads the rest of the file, fed whole lines only (it ends a record at the
    end of each string it is given): after a quote its state cannot be
    resumed."""
    limit = csv.field_size_limit()
    text = ""
    while chunk := fh.read(_CHUNK):
        text += chunk
        lines = text.split("\n")
        if '"' in text or "\r" in text or max(map(len, lines)) > limit:
            break
        text = lines.pop()  # a line that may go on in the next chunk
        yield lines, None
    else:
        yield [text], None
        return
    reader = csv.reader(itertools.chain(io.StringIO(text + fh.readline(), newline=""), fh))
    while rows := list(itertools.islice(reader, _BLOCK)):
        yield None, rows


def read_csv_columns(path: str, names: list[str], digest=None) -> tuple[list[list[str]], int]:
    """The cells of the named columns, in the order named, and the number of
    data rows, from an RFC-4180-style CSV in UTF-8 with or without a
    byte-order mark, read as csv.reader reads it (see `_blocks`). The header
    is the first row, blank or not. Blank data lines are skipped and a short
    row reads as blank cells. Header names are stripped of surrounding
    whitespace; a header that names a column twice, or lacks a named column,
    is a DataError. A hashlib `digest`, if given, is fed every byte of the
    file as it is read, so it hashes what was parsed, from a pipe too."""
    try:
        raw = _open_input(path)
        if digest is not None:
            raw = _Hashing(raw, digest)
        counted = _Counted(raw)
        with io.TextIOWrapper(counted, encoding="utf-8-sig", newline="") as fh:
            line = fh.readline()
            if not line:
                raise DataError(f"{path}: empty file")
            if '"' in line or len(line) > csv.field_size_limit():
                header = next(csv.reader(itertools.chain([line], fh)))
            else:
                line = line.rstrip("\r\n")  # its line end: readline stops at the first
                header = line.split(",") if line else []
            header = [h.strip() for h in header]
            position: dict[str, int] = {}  # each name's first column
            repeated = set()
            for i, h in enumerate(header):
                if h not in position:
                    position[h] = i
                elif h:
                    repeated.add(h)
            if repeated:
                raise DataError(f"{path}: header names {', '.join(map(repr, sorted(repeated)))} more than once")
            for name in names:
                if name not in position:
                    raise DataError(f"{path}: column {name!r} not in header {header}")
            index = [position[name] for name in names]
            width = max(index, default=-1) + 1
            stride = len(header) + 1  # a line's cells and the "\n" cell that ends it
            columns: list[list[str]] = [[] for _ in names]
            n = 0
            for lines, rows in _blocks(fh):
                if lines is not None:
                    if "" in lines:
                        lines = [line for line in lines if line]
                    cells = ",\n,".join(lines).split(",")  # a "\n" cell after each line's cells
                    ends = cells[stride - 1 :: stride]
                    if len(cells) == len(lines) * stride - 1 and ends.count("\n") == len(lines) - 1:
                        # every line has the header's width: each column is one slice
                        n += len(lines)
                        for i, column in zip(index, columns):
                            column.extend(cells[i::stride])
                        continue
                    rows = [line.split(",") for line in lines]
                else:
                    rows = [row for row in rows if row]
                n += len(rows)
                for row in rows:
                    if len(row) < width:
                        row.extend([""] * (width - len(row)))
                for i, column in zip(index, columns):
                    column.extend(map(operator.itemgetter(i), rows))
    except UnicodeDecodeError as exc:
        # the decoder failed on its input, which ends at the last byte handed out
        offset = counted.handed - len(exc.object) + exc.start
        raise DataError(
            f"cannot read {path}: {exc.encoding!r} codec can't decode byte 0x{exc.object[exc.start]:02x} "
            f"at byte offset {offset} of the file: {exc.reason}"
        ) from exc
    except (OSError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return columns, n


def _where(path: str, record: int) -> str:
    """"path:line", the line on which data row `record` (0-based) starts,
    counting rows as read_csv_columns does (blank lines skipped, a quoted
    cell may hold line breaks). The file is read again only to word an
    error, so a load keeps no line table. Only a regular file is read again
    (a FIFO or pipe is drained and reopening it could block); otherwise, or
    if the second read fails, "path: data row n", n counted from 1."""
    if os.path.isfile(path):
        try:
            with open(path, "r", encoding="utf-8-sig", newline="") as fh:
                reader = csv.reader(fh)
                next(reader, None)  # the header
                start = reader.line_num + 1
                rows_before = record
                for row in reader:
                    if row:
                        if rows_before == 0:
                            return f"{path}:{start}"
                        rows_before -= 1
                    start = reader.line_num + 1
        except (OSError, UnicodeDecodeError, csv.Error):
            pass
    return f"{path}: data row {record + 1}"


def typed_value(value, levels: tuple[str, ...] | None = None) -> float | int:
    """A CSV cell, or a value in its place, typed: without `levels`, a finite
    `float()` of it or NaN; with them, the index of its stripped text among
    them or -1."""
    if levels is None:
        try:
            x = float(value)
        except (TypeError, ValueError, OverflowError):
            return math.nan
        return x if math.isfinite(x) else math.nan
    try:
        return levels.index(str(value).strip())
    except ValueError:
        return -1


def usable(x, levels: tuple[str, ...] | None):
    """Whether a typed value, or each of an array of them, can be routed and
    kept: a level index (not -1) with `levels`, a number (not NaN) without."""
    return x >= 0 if levels is not None else x == x


def _by_distinct(cells: list[str], f, dtype, distinct=None) -> np.ndarray:
    """`f` of each cell, computed once per distinct string (`distinct`, the
    set of the cells, if already made)."""
    index = {c: f(c) for c in (set(cells) if distinct is None else distinct)}
    return np.fromiter(map(index.__getitem__, cells), dtype, len(cells))


def typed_column(cells: list[str], levels: tuple[str, ...] | None = None) -> np.ndarray:
    """`typed_value` of each cell, typed once per distinct cell; levels are
    looked up in a map made once, so K distinct cells type in O(K)."""
    if levels is None:
        try:
            x = np.array(cells, dtype=float)  # numpy parses each cell as float() does
        except ValueError:
            return _by_distinct(cells, typed_value, float)
        x[~np.isfinite(x)] = np.nan
        return x
    return _level_indices(cells, levels, set(cells))


def _level_indices(cells: list[str], levels: tuple[str, ...], distinct: set[str]) -> np.ndarray:
    """Each cell's index among `levels` once stripped, or -1, looked up once
    per member of `distinct`, the set of the cells."""
    at = {level: i for i, level in enumerate(levels)}
    return _by_distinct(cells, lambda c: at.get(c.strip(), -1), np.int64, distinct)


def typed_response(path: str, time_cells: list[str], event_cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Times as typed_column floats and event flags as 1.0/0.0, NaN where the
    event cell is blank. An event cell outside {0, 1, true, false} (any case)
    or a negative time is a DataError naming the line of `path` on which the
    first such row starts (`_where`; the event first), whether or not the
    row would be dropped: invalid values are data bugs, not missingness."""
    time = typed_column(time_cells)
    event = _by_distinct(event_cells, lambda c: _EVENT_FLAGS.get(c.strip().lower(), -1.0), float)
    bad = np.flatnonzero((event < 0) | (time < 0))
    if bad.size:
        i = int(bad[0])
        where = _where(path, i)
        if event[i] < 0:
            raise DataError(f"{where}: event value {event_cells[i]!r} not in {{0, 1, true, false}}")
        raise DataError(f"{where}: negative time {time_cells[i]!r}")
    return time, event


def _typed_covariate(spec: ColumnSpec, cells: list[str]) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """A covariate column's typed values (`typed_column`), and its levels if
    it is categorical. An `auto` column is inferred over every row, so that
    its kind is a property of the file, not of which rows survive: it is
    numeric iff every cell typed NaN is blank, which is decided, like the
    levels and indices, once per distinct cell. Observed levels are validated
    after dropping: an all-missing column should surface as "zero rows
    remain", not as bad levels. An `auto` column that declares levels is
    categorical."""
    if spec.kind == NUMERIC:
        return typed_column(cells), None
    distinct = None
    if spec.kind == "auto" and spec.levels is None:
        try:
            values = np.array(cells, dtype=float)  # as in typed_column
        except ValueError:
            distinct = set(cells)
            typed = {c: typed_value(c) for c in distinct}
            if all(x == x or not c.strip() for c, x in typed.items()):
                return np.fromiter(map(typed.__getitem__, cells), float, len(cells)), None
        else:
            nan = ~np.isfinite(values)
            if not any(cells[i].strip() for i in np.flatnonzero(nan)):
                values[nan] = np.nan
                return values, None
    if distinct is None:
        distinct = set(cells)
    levels = spec.levels or tuple(sorted({c.strip() for c in distinct} - {""}))
    return _level_indices(cells, levels, distinct), levels


def load_csv(path: str, schema: Schema, digest=None) -> tuple[Dataset, int]:
    """Read a CSV (see read_csv_columns; '.' decimals) into a Dataset.

    Rows with a missing or unparseable value in any declared column are
    dropped (listwise deletion); the second return value is the dropped-row
    count. Domain violations are errors, never dropped: an event cell outside
    {0, 1, true, false} or a negative time aborts the load. `digest` is
    passed to read_csv_columns.
    """
    names = [schema.time_column, schema.event_column] + [c.name for c in schema.covariates]
    (time_cells, event_cells, *covariate_cells), n = read_csv_columns(path, names, digest)
    time, event = typed_response(path, time_cells, event_cells)
    keep = np.isfinite(time) & np.isfinite(event)

    typed = []
    for spec, cells in zip(schema.covariates, covariate_cells):
        values, levels = _typed_covariate(spec, cells)
        keep &= usable(values, levels)
        typed.append((spec, values, levels))

    if not keep.any():
        raise DataError(f"{path}: zero rows remain after dropping incomplete records")
    covariates = []
    for spec, values, levels in typed:
        stored = NUMERIC if levels is None else CATEGORICAL
        covariates.append(Covariate(spec.name, stored, values[keep], levels, ordered=spec.kind == "ordinal"))
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

    def holds(self, values, levels: tuple[str, ...] | None):
        """True where the condition holds (left child), on one usable typed
        value (`typed_value`) or on an array of them: floats, or indices into
        the covariate's `levels`."""
        if self.cutoff is not None:
            return values <= self.cutoff
        return functools.reduce(operator.or_, [values == levels.index(s) for s in self.subset])

    def check(self, info: CovariateInfo) -> None:
        """DataError unless the rule fits the covariate: a cut-off on a
        numeric value or on an ordered level index below the last level, a
        subset naming each of some, not all, of an unordered categorical's
        levels once."""
        if self.cutoff is not None:
            fits = info.kind == NUMERIC or (info.ordered and self.cutoff in range(len(info.levels) - 1))
        else:
            subset = set(self.subset)
            fits = info.kind == CATEGORICAL and not info.ordered and len(subset) == len(self.subset)
            fits = fits and set() < subset < set(info.levels)
        if not fits:
            what = f"cut-off {self.cutoff!r}" if self.subset is None else f"subset {list(self.subset)!r}"
            kind = f"ordered {info.kind}" if info.ordered else info.kind
            raise DataError(f"{what} does not fit {kind} covariate {self.covariate!r}")


def _csv_cells(levels: tuple[str, ...]) -> tuple[str, ...]:
    """Each level as `csv.writer` writes it inside a row: quoted where the
    csv module quotes it."""
    cells = []
    for level in levels:
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerow([level, ""])
        cells.append(out.getvalue()[:-2])  # less the empty cell's comma and the line end
    return tuple(cells)


def dataset_to_csv(ds: Dataset, fh) -> None:
    """Write a Dataset, a block of rows at a time, to the text handle `fh` in
    the CSV dialect load_csv reads (covariates in declared order, then
    time,event). Floats use repr and levels are quoted only where
    `csv.writer` quotes them, so a load_csv round trip is lossless
    (`CovariateInfo` keeps levels readable). Each block is formatted a column
    at a time and written as one string. A covariate named "time" or "event"
    would repeat a header name, which load_csv refuses: it is a DataError,
    raised before anything is written."""
    header = [c.name for c in ds.covariates] + ["time", "event"]
    for name in header[:-2]:
        if name in ("time", "event"):
            raise DataError(f"covariate {name!r} has the name of a response column")
    csv.writer(fh, lineterminator="\n").writerow(header)
    # each column's values and the function that formats one of them
    columns = [(c.values, repr if c.levels is None else _csv_cells(c.levels).__getitem__) for c in ds.covariates]
    columns += [(ds.response.time, repr), (ds.response.event, ("0", "1").__getitem__)]
    for start in range(0, ds.n, _BLOCK):
        cells = [map(cell, x[start : start + _BLOCK].tolist()) for x, cell in columns]
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
