"""Schema-declared CSV ingestion and train-fitted preprocessing.

All statistics (imputation values, vocabularies, scaling parameters) are fit
on the training partition only and then applied unchanged to any other
partition, so train and test always see the same transformation.

A fitted transform holds exactly what ``apply_transform`` reads: ``fill``,
``mean`` and ``std``, one number per numeric or binary column in schema order,
and ``vocabs``, one tuple of cell texts per categorical column. A model file
stores these as plain lists. When a transform is built it derives, once, a
column plan: where the numeric, binary and categorical columns sit, the mean
and std as vectors, each vocabulary's text-to-index dict and the one-hot
offsets.

The read path is column-wise: a dataset keeps its raw rows, and
``fit_transform``/``apply_transform`` transpose them once per call. Both read
the numeric cells through one parser, a single ``float()`` pass over every
numeric cell. ``apply_transform`` then encodes a batch with a fixed number of
NumPy calls however many columns there are: that pass, one scaling, one
vocabulary pass over every categorical cell and one one-hot scatter. Each row
carries its 1-based data-row number from the file, so an error names the file
row even after a shuffled split.
"""

from __future__ import annotations

import csv
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat
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
    path = Path(path)
    if not path.is_file():
        raise DataError(f"data file not found: {path}")
    try:
        return _read_csv(path, schema, "strict")
    except UnicodeDecodeError:  # decoding runs a chunk ahead of the parser: reread to name the row
        return _read_csv(path, schema, "surrogateescape")


def _utf8_rows(reader, path: Path):
    """The rows of ``reader``; DataError at the first holding a byte that "surrogateescape" decoded."""
    for i, row in enumerate(reader):
        if any("\udc80" <= ch <= "\udcff" for ch in "".join(row)):
            raise DataError(f"{path}: {f'row {i}' if i else 'header'}: not UTF-8 text")
        yield row


def _read_csv(path: Path, schema: Schema, errors: str) -> TabularDataset:
    header, rows = None, []
    with path.open(newline="", encoding="utf-8", errors=errors) as fh:
        reader = csv.reader(fh) if errors == "strict" else _utf8_rows(csv.reader(fh), path)
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
            for row_number, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise DataError(f"row {row_number}: expected {len(header)} cells, got {len(row)}")
                rows.append(pick(row))
        except csv.Error as exc:  # a field over the size limit, e.g. after an unmatched quote
            raise DataError(f"{path}: {'header' if header is None else f'row {len(rows) + 1}'}: {exc}") from None
    return TabularDataset(schema=schema, rows=tuple(rows))


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
    onehot_base: np.ndarray | None  # (N,) int64 dense column of index 0; None in label mode
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
    encoding_mode: str  # "one_hot" | "label"
    fill: tuple[float, ...]
    mean: tuple[float, ...]
    std: tuple[float, ...]
    vocabs: tuple[tuple[str, ...], ...]
    _plan: _ColumnPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_plan", _column_plan(self))


def _column_plan(ft: FittedTransform) -> _ColumnPlan:
    """Check a transform's entries and lay out its columns for ``apply_transform``."""
    if ft.encoding_mode not in ("one_hot", "label"):
        raise DataError(f"encoding_mode must be 'one_hot' or 'label', got {ft.encoding_mode!r}")
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
        if ft.encoding_mode == "one_hot":
            dense_names.extend(f"{name}={text}" for text in vocab)
    onehot_base = None
    if ft.encoding_mode == "one_hot":
        sizes = np.array([len(code) for code in codes], dtype=np.int64)
        onehot_base = len(numeric) + np.cumsum(sizes) - sizes - 1  # index i lands in column base + i
    return _ColumnPlan(
        numeric=numeric,
        mean=mean,
        std=std,
        categorical=categorical,
        codes=tuple(codes),
        onehot_base=onehot_base,
        target=ft.schema.column_names.index(ft.schema.target),
        dense_names=tuple(dense_names),
        cardinalities=tuple(len(code) + 1 for code in codes),
    )


@dataclass(frozen=True)
class DesignMatrix:
    """Numeric views of one partition: dense features, categorical indices, labels."""

    dense: np.ndarray  # (n, D) float64; z-scored numerics, 0/1 binaries, one-hot blocks
    cat_indices: np.ndarray  # (n, N) int64 label-encoded categoricals, 0 = OOV/missing
    labels: np.ndarray  # (n,) int64 in {0, 1}
    dense_names: tuple[str, ...]
    cat_cardinalities: tuple[int, ...]  # vocab sizes including the reserved OOV index


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


def fit_transform(train: TabularDataset, encoding_mode: str = "one_hot") -> tuple[FittedTransform, DesignMatrix]:
    """Fit imputation/scaling/vocabulary statistics on the training partition.

    Numerics are imputed with the train median, then z-scored with the
    mean/std of the imputed column (population std; constant columns keep
    std = 1 so their output is 0). Binary columns are imputed with the train
    majority value and left unscaled. Label indices are always emitted;
    one-hot blocks are appended to the dense matrix when encoding_mode is
    "one_hot".
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
    ft = FittedTransform(schema, encoding_mode, tuple(fill), tuple(mean), tuple(std), vocabs)
    return ft, apply_transform(ft, train)


def apply_transform(ft: FittedTransform, ds: TabularDataset) -> DesignMatrix:
    """Encode a dataset using train statistics only; unseen categories map to index 0.

    The first cell that is not a finite number, in schema column order and
    then row order, raises a DataError naming its file row and column.
    """
    if ds.schema != ft.schema:
        raise DataError("dataset schema does not match the schema the transform was fit on")
    plan = ft._plan
    n = ds.n_rows
    columns = ds.columns()
    dense = np.zeros((n, len(plan.dense_names)))
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
    if plan.onehot_base is not None:
        # flat position in ``dense`` of each (field, row) cell's one-hot entry
        at = np.arange(n) * dense.shape[1] + plan.onehot_base[:, None]
        at += codes
        dense.reshape(-1)[at[codes > 0]] = 1.0
    return DesignMatrix(
        dense=dense,
        cat_indices=codes.T,
        labels=_labels(columns[plan.target], ft.schema.positive_label),
        dense_names=plan.dense_names,
        cat_cardinalities=plan.cardinalities,
    )


def transform_to_dict(ft: FittedTransform) -> dict:
    """JSON-ready form: every entry a plain list, in the order ``apply_transform`` reads it."""
    return {
        "schema": {
            "columns": [[name, kind] for name, kind in ft.schema.columns],
            "missing_token": ft.schema.missing_token,
            "positive_label": ft.schema.positive_label,
        },
        "encoding_mode": ft.encoding_mode,
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
            encoding_mode=d["encoding_mode"],
            fill=_tuple(d["fill"]),
            mean=_tuple(d["mean"]),
            std=_tuple(d["std"]),
            vocabs=tuple(map(_tuple, _tuple(d["vocabs"]))),
        )
    except DataError:
        raise
    except (TypeError, AttributeError, ValueError) as exc:  # an entry of the wrong JSON type or length
        raise DataError(f"malformed transform: {exc}") from None
