"""Schema-declared CSV ingestion and train-fitted preprocessing.

All statistics (imputation values, vocabularies, scaling parameters) are fit
on the training partition only and then applied unchanged to any other
partition, so train and test always see the same transformation.

A fitted transform holds exactly what ``apply_transform`` reads: ``fill``,
``mean`` and ``std``, one number per numeric or binary column in schema order,
and ``vocabs``, one tuple of cell texts per categorical column. A model file
stores these as plain lists. When a transform is built it derives, once, a
column plan: where the numeric, binary and categorical columns sit, the mean
and std as vectors, and each vocabulary's text-to-index dict.

The read path is column-wise: a dataset keeps its raw rows, and
``fit_transform``/``apply_transform`` transpose them once per call. Both read
the numeric cells through one parser, a single ``float()`` pass over every
numeric cell. ``apply_transform`` then encodes a batch with a fixed number of
NumPy calls however many columns there are: that pass, one scaling and one
vocabulary pass over every categorical cell. A categorical field is encoded
once, as its index, which the network embeds and the GBDT splits on. Each row
carries its 1-based data-row number from the file, so an error names the file
row even after a shuffled split. ``read_csv_chunks`` is the one CSV reader:
it yields the rows as consecutive chunks, and ``load_csv`` is its single chunk.
"""

from __future__ import annotations

import csv
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .artifact import flat_array

COLUMN_KINDS = ("numeric", "categorical", "binary", "target")


class DataError(ValueError):
    """Malformed input data, schema violation, or transform misuse."""


@dataclass(frozen=True)
class Schema:
    """Ordered column kinds plus the tokens needed to interpret raw cells."""

    columns: tuple[tuple[str, str], ...]
    missing_token: str = "N/A"
    positive_label: str = "1"

    def __post_init__(self):
        names = [name for name, _ in self.columns]
        if len(set(names)) != len(names):
            raise DataError("duplicate column names in schema")
        for name, kind in self.columns:
            if kind not in COLUMN_KINDS:
                raise DataError(f"unknown column kind {kind!r} for column {name!r}")
        targets = [name for name, kind in self.columns if kind == "target"]
        if len(targets) != 1:
            raise DataError(f"schema must declare exactly one target column, found {targets}")

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.columns)

    @property
    def target(self) -> str:
        return next(name for name, kind in self.columns if kind == "target")


@dataclass(frozen=True)
class TabularDataset:
    """Raw rows (cell texts, schema order) under a declared schema.

    ``row_numbers`` holds each row's 1-based data-row number in its source
    file (the header is not counted); it defaults to 1..n.
    """

    schema: Schema
    rows: tuple[tuple[str, ...], ...]
    row_numbers: Sequence[int] | None = None

    def __post_init__(self):
        if self.row_numbers is None:
            object.__setattr__(self, "row_numbers", range(1, len(self.rows) + 1))
        elif len(self.row_numbers) != len(self.rows):
            raise DataError(f"{len(self.row_numbers)} row numbers for {len(self.rows)} rows")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> tuple[str, ...]:
        j = self.schema.column_names.index(name)
        return tuple(row[j] for row in self.rows)

    def columns(self) -> tuple[tuple[str, ...], ...]:
        """Every column's cells, in schema order, from one transpose of the rows."""
        width = len(self.schema.columns)
        cols = tuple(zip(*self.rows)) if self.rows else ((),) * width
        if len(cols) != width:  # zip stops at the shortest row
            raise DataError(f"every row must hold {width} cells, one per schema column")
        return cols

    def labels(self) -> np.ndarray:
        """0/1 labels: 1 where the target cell equals positive_label."""
        return _labels(self.column(self.schema.target), self.schema.positive_label)


def _labels(cells: Sequence[str], positive_label: str) -> np.ndarray:
    return np.fromiter((c == positive_label for c in cells), dtype=np.int64, count=len(cells))


def load_csv(path, schema: Schema) -> TabularDataset:
    """Read a headered CSV and normalize its columns to schema order.

    Cells are kept verbatim; no coercion happens here. A row that is not UTF-8
    text or not well-formed CSV raises a DataError naming the file and the row.
    """
    (ds,) = read_csv_chunks(path, schema)
    return ds


def read_csv_chunks(
    path, schema: Schema, chunk_rows: int | None = None, part: tuple = (0, 1, None)
) -> Iterator[TabularDataset]:
    """``load_csv``'s rows as consecutive datasets of ``chunk_rows`` rows each, or one of every row if None.

    The last chunk may be shorter. A chunk is yielded as soon as its last row
    is read, and each chunk's ``row_numbers`` are its file rows; a file without
    data rows gives one empty chunk. Every check of ``load_csv`` raises when the
    reader reaches its row, after the chunks before that row have been yielded.

    ``part = (offset, first, count)`` reads the header, then the lines from
    byte ``offset`` (0: those after the header) as rows numbered from
    ``first``, and stops after ``count`` rows (None: at the end of the file).
    The header must then be one line, and so must each of those ``count`` rows,
    and the file UTF-8 text, as decoding runs ahead of the rows a part reads:
    ``csv_split`` finds such parts.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"data file not found: {path}")
    try:
        yield from _read_csv(path, schema, "strict", chunk_rows, part)
    except UnicodeDecodeError:  # decoding runs a chunk ahead of the parser: reread to name the row
        for _ in _read_csv(path, schema, "surrogateescape", chunk_rows, part):
            pass
        raise DataError(f"{path}: not UTF-8 text") from None  # the reread names the row before this


def csv_split(path, chunk_rows: int) -> tuple[int, int] | None:
    """Where ``read_csv_chunks(path, schema, chunk_rows)`` may be read as two parts, or None.

    Returns ``(offset, rows)``: the first part is data rows 1..``rows``, the
    whole chunks nearest half the rows, and the second part starts at byte
    ``offset`` with data row ``rows + 1``. The first part holds at least one
    chunk and the second at least half of one, and their chunks are the ones
    one reader yields. None unless the file is UTF-8 text of at least one and
    a half chunks in which no line up to data row ``rows`` holds a ``"`` or a
    CR outside a CRLF, so that up to the cut each line is one row. One pass
    reads the file in blocks of whole lines, each at most 2 MiB.
    """
    path = Path(path)
    if not path.is_file():
        return None
    blocks, lines, odd, end = [], 0, math.inf, b"\n"  # odd: the first line with a '"' or a lone CR
    with path.open("rb") as fh:
        while block := fh.read(1 << 20) + fh.readline(1 << 20):
            if end != b"\n":  # a line longer than a block
                return None
            if not block.isascii():
                try:
                    block.decode("utf-8")
                except UnicodeDecodeError:
                    return None
            newline = np.frombuffer(block, np.uint8) == ord("\n")
            if odd == math.inf:  # the block's first CR stands in for its first lone CR: at worst, no split
                lone_cr = b"\r" in block and block.count(b"\r") != block.count(b"\r\n")
                if at := [i for i in (block.find(b'"'), block.find(b"\r") if lone_cr else -1) if i >= 0]:
                    odd = lines + int(np.count_nonzero(newline[: min(at)]))
            blocks.append((fh.tell() - len(block), lines))
            lines += int(np.count_nonzero(newline))
            end = block[-1:]
        n_rows = lines - (end == b"\n")  # the lines but the header, a last one without a newline too
        chunks = -(-n_rows // chunk_rows)
        rows = chunk_rows * min(max((n_rows + chunk_rows) // (2 * chunk_rows), 1), chunks - 1)  # about half
        # a second part under half a chunk costs its process more than it saves
        if chunks < 2 or n_rows - rows < chunk_rows // 2 or odd <= rows:
            return None
        start, before = max(b for b in blocks if b[1] <= rows)  # the block that ends data row `rows`
        fh.seek(start)
        ends = np.flatnonzero(np.frombuffer(fh.read(1 << 20) + fh.readline(1 << 20), np.uint8) == ord("\n"))
    return start + int(ends[rows - before]) + 1, rows


def _utf8_rows(reader, path: Path, first: int):
    """The rows of ``reader``, data rows numbered from ``first``; DataError at the first holding a byte
    that "surrogateescape" decoded."""
    for i, row in enumerate(reader):
        if any("\udc80" <= ch <= "\udcff" for ch in "".join(row)):
            raise DataError(f"{path}: {f'row {first + i - 1}' if i else 'header'}: not UTF-8 text")
        yield row


def _read_csv(path: Path, schema: Schema, errors: str, chunk_rows: int | None, part: tuple):
    offset, first, count = part
    header, rows, start = None, [], first  # first: the file row of rows[0]; start: of the part's first row
    with path.open(newline="", encoding="utf-8-sig", errors=errors) as fh:  # a leading BOM is dropped
        lines = fh
        if offset:  # at a line start, a byte offset is the position tell() gives there
            lines = chain([fh.readline()], lines)
            fh.seek(offset)
        if count is not None:
            lines = islice(lines, count + 1)
        reader = csv.reader(lines) if errors == "strict" else _utf8_rows(csv.reader(lines), path, first)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"empty file: {path}")
            names = schema.column_names
            if sorted(header) != sorted(names):  # the schema's names are distinct
                missing, extra = sorted(set(names) - set(header)), sorted(set(header) - set(names))
                raise DataError(f"header does not match schema: missing columns {missing}, unexpected columns {extra}")
            perm = [header.index(name) for name in names]
            # itemgetter of one index returns the bare cell, not a 1-tuple
            pick = operator.itemgetter(*perm) if len(perm) > 1 else lambda row: (row[perm[0]],)
            for row_number, row in enumerate(reader, start=first):
                if len(row) != len(header):
                    raise DataError(f"row {row_number}: expected {len(header)} cells, got {len(row)}")
                rows.append(pick(row))
                if len(rows) == chunk_rows:
                    yield TabularDataset(schema, tuple(rows), range(first, first + chunk_rows))
                    rows.clear()
                    first += chunk_rows
        except csv.Error as exc:  # a field over the size limit, e.g. after an unmatched quote
            raise DataError(f"{path}: {'header' if header is None else f'row {first + len(rows)}'}: {exc}") from None
    if rows or first == start:
        yield TabularDataset(schema, tuple(rows), range(first, first + len(rows)))


def stratified_split(
    ds: TabularDataset, test_fraction: float, seed: int
) -> tuple[TabularDataset, TabularDataset]:
    """Class-proportional train/test partition, deterministic for a fixed seed."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    y = ds.labels()
    if y.size == 0 or y.min() == y.max():
        raise DataError("stratified split requires both classes to be present")
    rng = np.random.default_rng(seed)
    test_indices = []
    for cls in (0, 1):
        members = np.nonzero(y == cls)[0]
        n_test = round(len(members) * test_fraction)
        if n_test < 1 or n_test >= len(members):
            raise DataError(
                f"test_fraction={test_fraction} leaves class {cls} empty on one side"
            )
        test_indices.append(rng.permutation(members)[:n_test])
    mask = np.zeros(ds.n_rows, dtype=bool)
    mask[np.concatenate(test_indices)] = True

    def subset(keep: np.ndarray) -> TabularDataset:
        idx = np.nonzero(keep)[0].tolist()
        return TabularDataset(
            ds.schema, tuple(ds.rows[i] for i in idx), tuple(ds.row_numbers[i] for i in idx)
        )

    return subset(~mask), subset(mask)


class _ColumnPlan(NamedTuple):
    """How ``apply_transform`` lays out one transform's columns, derived once."""

    numeric: tuple[int, ...]  # schema positions of the numeric and binary columns
    mean: np.ndarray  # (k,) float64 ``FittedTransform.mean``
    std: np.ndarray  # (k,) float64 ``FittedTransform.std``
    categorical: tuple[int, ...]  # schema positions of the categorical columns
    codes: tuple[dict[str, int], ...]  # each categorical column's cell text -> index
    target: int
    dense_names: tuple[str, ...]
    cardinalities: tuple[int, ...]


@dataclass(frozen=True)
class FittedTransform:
    """Train-set statistics applied identically to every partition.

    ``fill``, ``mean`` and ``std`` hold one number per numeric or binary
    column, in schema order: a missing cell becomes ``fill``, then every cell
    ``(x - mean) / std``. A binary column keeps mean 0.0 and std 1.0, and
    ``x - 0.0`` and ``x / 1.0`` are ``x`` bit for bit, ``-0.0`` included.
    ``vocabs`` holds one tuple of distinct cell texts per categorical column:
    text ``i`` has index ``i + 1``, and index 0 is out-of-vocabulary or
    missing. Building one checks every entry (DataError) and derives the
    column plan ``apply_transform`` uses; a transform is hashable and compares
    by value.
    """

    schema: Schema
    fill: tuple[float, ...]
    mean: tuple[float, ...]
    std: tuple[float, ...]
    vocabs: tuple[tuple[str, ...], ...]
    _plan: _ColumnPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_plan", _column_plan(self))


def _column_plan(ft: FittedTransform) -> _ColumnPlan:
    """Check a transform's entries and lay out its columns for ``apply_transform``."""
    columns = ft.schema.columns
    numeric = tuple(j for j, (_, kind) in enumerate(columns) if kind in ("numeric", "binary"))
    categorical = tuple(j for j, (_, kind) in enumerate(columns) if kind == "categorical")
    dense_names = [columns[j][0] for j in numeric]
    stats = []
    for what in ("fill", "mean", "std"):
        try:
            a = flat_array(f"transform {what!r}", getattr(ft, what))
        except ValueError as exc:
            raise DataError(str(exc)) from None
        if a.size != len(numeric):
            raise DataError(f"transform {what!r} must hold one number per numeric or binary column {dense_names}")
        stats.append(a)
    _, mean, std = stats
    if not (std > 0.0).all():
        raise DataError(f"std of column {dense_names[int(np.argmin(std > 0.0))]!r} must be positive")
    if len(ft.vocabs) != len(categorical):
        raise DataError("transform 'vocabs' must hold one vocabulary per categorical column")
    codes = []
    for j, vocab in zip(categorical, ft.vocabs):
        name = columns[j][0]
        code = {text: i for i, text in enumerate(vocab, start=1) if isinstance(text, str)}
        if len(code) != len(vocab):
            raise DataError(f"vocab of column {name!r} must hold distinct cell texts")
        codes.append(code)
        dense_names.append(name)
    return _ColumnPlan(
        numeric=numeric,
        mean=mean,
        std=std,
        categorical=categorical,
        codes=tuple(codes),
        target=ft.schema.column_names.index(ft.schema.target),
        dense_names=tuple(dense_names),
        cardinalities=tuple(len(code) + 1 for code in codes),
    )


@dataclass(frozen=True)
class DesignMatrix:
    """Numeric views of one partition: dense features, categorical indices, labels."""

    dense: np.ndarray  # (n, D) float64; z-scored numerics, 0/1 binaries, then cat_indices as floats
    cat_indices: np.ndarray  # (n, N) int64 label-encoded categoricals, 0 = OOV/missing
    labels: np.ndarray  # (n,) int64 in {0, 1}
    dense_names: tuple[str, ...]
    cat_cardinalities: tuple[int, ...]  # vocab sizes including the reserved OOV index
    n_categorical: int = 0  # width of dense's index tail, its last n_categorical columns; 0 if it has none


def _numeric_values(ds: TabularDataset, columns, positions: Sequence[int], fills: Sequence[float]) -> np.ndarray:
    """The cells of the columns at schema ``positions`` as a (k, n) float64 array, each column's
    missing cells set to its fill.

    One ``float()`` pass parses every cell. Only when a cell fails to parse or
    is non-finite are the cells rescanned one by one, so that the error names
    the first bad cell in column order, then row order, with its file row and
    its column.
    """
    missing = ds.schema.missing_token
    try:
        values = np.fromiter(
            chain.from_iterable(
                (fill if c == missing else float(c) for c in columns[j]) for j, fill in zip(positions, fills)
            ),
            dtype=np.float64,
            count=len(positions) * ds.n_rows,
        )
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        for j in positions:
            name = ds.schema.columns[j][0]
            for c, row_number in zip(columns[j], ds.row_numbers):
                if c == missing:
                    continue
                try:
                    value = float(c)
                except ValueError:
                    raise DataError(f"row {row_number}: cannot parse {c!r} as a number in column {name!r}") from None
                if not math.isfinite(value):
                    raise DataError(f"row {row_number}: non-finite value {c!r} in column {name!r}")
    return values.reshape(len(positions), ds.n_rows)  # a non-finite fill is left to the caller


def fit_transform(train: TabularDataset) -> tuple[FittedTransform, DesignMatrix]:
    """Fit imputation/scaling/vocabulary statistics on the training partition.

    Numerics are imputed with the train median, then z-scored with the
    mean/std of the imputed column (population std; constant columns keep
    std = 1 so their output is 0). Binary columns are imputed with the train
    majority value and left unscaled. Each categorical column's vocabulary
    holds its distinct non-missing cells in first-seen order.
    """
    if train.n_rows == 0:
        raise DataError("cannot fit a transform on an empty dataset")
    schema = train.schema
    columns = train.columns()
    numeric = tuple(j for j, (_, kind) in enumerate(schema.columns) if kind in ("numeric", "binary"))
    fill, mean, std = [], [], []
    for j, values in zip(numeric, _numeric_values(train, columns, numeric, (0.0,) * len(numeric))):
        name, kind = schema.columns[j]
        present = np.fromiter((c != schema.missing_token for c in columns[j]), dtype=bool, count=train.n_rows)
        observed = values[present]
        if observed.size == 0:
            raise DataError(f"{kind} column {name!r} has no non-missing values")
        if kind == "numeric":
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the transform's finiteness check
                impute = float(np.median(observed))
                filled = np.where(present, values, impute)
                sd = float(filled.std())
                mean.append(float(filled.mean()))
            fill.append(impute)
            std.append(sd if sd > 0.0 else 1.0)
        else:
            if np.any((observed != 0.0) & (observed != 1.0)):
                raise DataError(f"binary column {name!r} contains values outside {{0, 1}}")
            ones = np.count_nonzero(observed)
            fill.append(1.0 if ones > observed.size - ones else 0.0)
            mean.append(0.0)
            std.append(1.0)
    vocabs = tuple(
        tuple(dict.fromkeys(c for c in cells if c != schema.missing_token))  # first-seen order
        for (_, kind), cells in zip(schema.columns, columns)
        if kind == "categorical"
    )
    ft = FittedTransform(schema, tuple(fill), tuple(mean), tuple(std), vocabs)
    return ft, apply_transform(ft, train)


def apply_transform(ft: FittedTransform, ds: TabularDataset) -> DesignMatrix:
    """Encode a dataset using train statistics only; unseen categories map to index 0.

    ``dense`` holds the scaled numeric and binary columns, then each
    categorical column's index as a float, so a tree splits on the field as
    one column. The first cell that is not a finite number, in schema column
    order and then row order, raises a DataError naming its file row and
    column.
    """
    if ds.schema != ft.schema:
        raise DataError("dataset schema does not match the schema the transform was fit on")
    plan = ft._plan
    n = ds.n_rows
    columns = ds.columns()
    dense = np.empty((n, len(plan.dense_names)))
    numeric = dense[:, : len(plan.numeric)]
    values = _numeric_values(ds, columns, plan.numeric, ft.fill)
    with np.errstate(over="ignore"):  # every cell is finite, so a non-finite entry is an overflow, named below
        np.subtract(values.T, plan.mean, out=numeric)
        np.divide(numeric, plan.std, out=numeric)
    del values
    if not np.isfinite(numeric).all():
        j, i = np.argwhere(~np.isfinite(numeric.T))[0]  # the first in column order, then row order
        raise DataError(
            f"row {ds.row_numbers[i]}: value {columns[plan.numeric[j]][i]!r} in column {plan.dense_names[j]!r}"
            f" overflows when scaled by mean {float(plan.mean[j])!r} and std {float(plan.std[j])!r}"
        )
    codes = np.fromiter(
        chain.from_iterable(map(code.get, columns[j], repeat(0)) for j, code in zip(plan.categorical, plan.codes)),
        dtype=np.int64,
        count=n * len(plan.categorical),
    ).reshape(len(plan.categorical), n)
    dense[:, len(plan.numeric) :] = codes.T
    return DesignMatrix(
        dense=dense,
        cat_indices=codes.T,
        labels=_labels(columns[plan.target], ft.schema.positive_label),
        dense_names=plan.dense_names,
        cat_cardinalities=plan.cardinalities,
        n_categorical=len(plan.categorical),
    )


def transform_to_dict(ft: FittedTransform) -> dict:
    """JSON-ready form: every entry a plain list, in the order ``apply_transform`` reads it."""
    return {
        "schema": {
            "columns": [[name, kind] for name, kind in ft.schema.columns],
            "missing_token": ft.schema.missing_token,
            "positive_label": ft.schema.positive_label,
        },
        "fill": list(ft.fill),
        "mean": list(ft.mean),
        "std": list(ft.std),
        "vocabs": [list(vocab) for vocab in ft.vocabs],
    }


def _tuple(value) -> tuple:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return tuple(value)


def transform_from_dict(d: dict) -> FittedTransform:
    """The transform a model document holds; DataError if any entry is malformed."""
    try:
        raw = d["schema"]
        columns = tuple((name, kind) for name, kind in raw["columns"])
        texts = [raw["missing_token"], raw["positive_label"], *(name for name, _ in columns)]
        if not all(isinstance(t, str) for t in texts):
            raise DataError("column names, missing_token and positive_label must be strings")
        return FittedTransform(
            schema=Schema(columns=columns, missing_token=texts[0], positive_label=texts[1]),
            fill=_tuple(d["fill"]),
            mean=_tuple(d["mean"]),
            std=_tuple(d["std"]),
            vocabs=tuple(map(_tuple, _tuple(d["vocabs"]))),
        )
    except DataError:
        raise
    except (TypeError, AttributeError, ValueError) as exc:  # an entry of the wrong JSON type or length
        raise DataError(f"malformed transform: {exc}") from None
