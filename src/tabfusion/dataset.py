"""Schema-declared CSV ingestion and train-fitted preprocessing.

All statistics (imputation values, vocabularies, scaling parameters) are fit
on the training partition only and then applied unchanged to any other
partition, so train and test always see the same transformation.

The read path is column-wise: a dataset keeps its raw rows, and
``fit_transform``/``apply_transform`` transpose them once per call. A fitted
transform derives a column plan once, when it is built: where the numeric,
binary and categorical columns sit, their fills, means and stds as vectors,
and the one-hot offsets. ``apply_transform`` then encodes a batch with a fixed
number of NumPy calls however many columns there are: one ``float()`` pass over
every numeric cell, one scaling, one vocabulary pass over every categorical
cell and one one-hot scatter. Each row carries its 1-based data-row number
from the file, so an error names the file row even after a shuffled split.
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

    def names_of(self, kind: str) -> tuple[str, ...]:
        return tuple(name for name, k in self.columns if k == kind)


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

    Cells are kept verbatim; no coercion happens here.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"data file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty file: {path}") from None
        if set(header) != set(schema.column_names) or len(header) != len(schema.column_names):
            missing = sorted(set(schema.column_names) - set(header))
            extra = sorted(set(header) - set(schema.column_names))
            raise DataError(
                f"header does not match schema: missing columns {missing}, unexpected columns {extra}"
            )
        perm = [header.index(name) for name in schema.column_names]
        # itemgetter of one index returns the bare cell, not a 1-tuple
        pick = operator.itemgetter(*perm) if len(perm) > 1 else lambda row: (row[perm[0]],)
        rows = []
        for row_number, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DataError(f"row {row_number}: expected {len(header)} cells, got {len(row)}")
            rows.append(pick(row))
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


@dataclass(frozen=True)
class NumericStats:
    impute_value: float
    mean: float
    std: float
    scaled: bool  # binary 0/1 columns pass through unscaled


class _ColumnPlan(NamedTuple):
    """How ``apply_transform`` lays out one transform's columns, derived once."""

    numeric: tuple[int, ...]  # schema positions of the numeric and binary columns
    fills: tuple[float, ...]  # each one's missing-value fill
    mean: np.ndarray  # (n_numeric,) float64; 0.0 for an unscaled (binary) column
    std: np.ndarray  # (n_numeric,) float64; 1.0 for an unscaled (binary) column
    categorical: tuple[int, ...]  # schema positions of the categorical columns
    vocabs: tuple[dict[str, int], ...]
    onehot_base: np.ndarray | None  # (N,) int64 dense column of index 0; None in label mode
    target: int
    dense_names: tuple[str, ...]
    cardinalities: tuple[int, ...]


@dataclass(frozen=True)
class FittedTransform:
    """Train-set statistics applied identically to every partition.

    Categorical vocabularies reserve index 0 for out-of-vocabulary and
    missing values; observed values are indexed 1..len(vocab). Building one
    validates every statistic (DataError) and derives the column plan
    ``apply_transform`` uses.
    """

    schema: Schema
    encoding_mode: str  # "one_hot" | "label"
    numeric_stats: dict[str, NumericStats]
    vocabs: dict[str, dict[str, int]]
    _plan: _ColumnPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_plan", _column_plan(self))


def _finite_number(value, what: str) -> float:
    """``value`` as a float; DataError unless it is a finite int or float (bool and str are not)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise DataError(f"{what} must be a finite number, got {value!r}")


def _column_plan(ft: FittedTransform) -> _ColumnPlan:
    """Validate a transform's statistics and lay out its columns for ``apply_transform``.

    Binary columns get mean 0.0 and std 1.0, so that every numeric column is
    scaled by one vectorized ``(x - mean) / std``: ``x - 0.0`` and ``x / 1.0``
    are ``x`` bit for bit, ``-0.0`` included.
    """
    if ft.encoding_mode not in ("one_hot", "label"):
        raise DataError(f"encoding_mode must be 'one_hot' or 'label', got {ft.encoding_mode!r}")
    columns = ft.schema.columns
    numeric = tuple(j for j, (_, kind) in enumerate(columns) if kind in ("numeric", "binary"))
    categorical = tuple(j for j, (_, kind) in enumerate(columns) if kind == "categorical")
    num_names = [columns[j][0] for j in numeric]
    cat_names = [columns[j][0] for j in categorical]
    if not isinstance(ft.numeric_stats, dict) or set(ft.numeric_stats) != set(num_names):
        raise DataError(f"numeric_stats must hold exactly the numeric and binary columns {num_names}")
    if not isinstance(ft.vocabs, dict) or set(ft.vocabs) != set(cat_names):
        raise DataError(f"vocabs must hold exactly the categorical columns {cat_names}")
    fills, mean, std = [], [], []
    for name in num_names:
        s = ft.numeric_stats[name]
        fill, m, sd = (
            _finite_number(getattr(s, k), f"{k} of column {name!r}") for k in ("impute_value", "mean", "std")
        )
        if not isinstance(s.scaled, bool):
            raise DataError(f"scaled of column {name!r} must be true or false, got {s.scaled!r}")
        if s.scaled and sd <= 0.0:
            raise DataError(f"std of scaled column {name!r} must be positive, got {s.std!r}")
        fills.append(fill)
        mean.append(m if s.scaled else 0.0)
        std.append(sd if s.scaled else 1.0)
    vocabs = tuple(ft.vocabs[name] for name in cat_names)
    dense_names = list(num_names)
    for name, vocab in zip(cat_names, vocabs):
        if not isinstance(vocab, dict) or not all(isinstance(value, str) for value in vocab):
            raise DataError(f"vocab of column {name!r} must map cell texts to indices")
        indices = list(vocab.values())
        if any(type(i) is not int for i in indices) or indices != list(range(1, len(vocab) + 1)):
            raise DataError(f"vocab indices of column {name!r} must be 1..{len(vocab)} in order")
        if ft.encoding_mode == "one_hot":
            dense_names.extend(f"{name}={value}" for value in vocab)
    onehot_base = None
    if ft.encoding_mode == "one_hot":
        sizes = np.array([len(vocab) for vocab in vocabs], dtype=np.int64)
        onehot_base = len(numeric) + np.cumsum(sizes) - sizes - 1  # index i lands in column base + i
    return _ColumnPlan(
        numeric=numeric,
        fills=tuple(fills),
        mean=np.array(mean, dtype=np.float64),
        std=np.array(std, dtype=np.float64),
        categorical=categorical,
        vocabs=vocabs,
        onehot_base=onehot_base,
        target=ft.schema.column_names.index(ft.schema.target),
        dense_names=tuple(dense_names),
        cardinalities=tuple(len(vocab) + 1 for vocab in vocabs),
    )


@dataclass(frozen=True)
class DesignMatrix:
    """Numeric views of one partition: dense features, categorical indices, labels."""

    dense: np.ndarray  # (n, D) float64; z-scored numerics, 0/1 binaries, one-hot blocks
    cat_indices: np.ndarray  # (n, N) int64 label-encoded categoricals, 0 = OOV/missing
    labels: np.ndarray  # (n,) int64 in {0, 1}
    dense_names: tuple[str, ...]
    cat_cardinalities: tuple[int, ...]  # vocab sizes including the reserved OOV index


def _parse_number(cell: str, column: str, row_number: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(
            f"row {row_number}: cannot parse {cell!r} as a number in column {column!r}"
        ) from None
    if not np.isfinite(value):
        raise DataError(f"row {row_number}: non-finite value {cell!r} in column {column!r}")
    return value


def _check_cells(cells: Sequence[str], missing: str, column: str, row_numbers: Sequence[int]) -> None:
    """Raise the DataError of the first cell that is not a finite number; the slow path."""
    for c, row_number in zip(cells, row_numbers):
        if c != missing:
            _parse_number(c, column, row_number)


def _numeric_column(
    cells: Sequence[str], missing: str, fill: float, column: str, row_numbers: Sequence[int]
) -> np.ndarray:
    """A numeric column as float64, its missing cells set to ``fill``.

    One ``float()`` pass parses the column; only when a cell fails to parse or
    is non-finite is it rescanned cell by cell, so that the error names the
    first bad cell, its file row and its column.
    """
    try:
        col = np.fromiter(
            (fill if c == missing else float(c) for c in cells), dtype=np.float64, count=len(cells)
        )
    except ValueError:
        col = None
    if col is None or not np.isfinite(col).all():
        _check_cells(cells, missing, column, row_numbers)
    return col  # a non-finite ``fill`` is left to the caller


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
    missing = train.schema.missing_token
    numeric_stats: dict[str, NumericStats] = {}
    vocabs: dict[str, dict[str, int]] = {}
    for (name, kind), cells in zip(train.schema.columns, train.columns()):
        if kind == "categorical":
            vocab: dict[str, int] = {}
            for c in cells:
                if c != missing and c not in vocab:
                    vocab[c] = len(vocab) + 1
            vocabs[name] = vocab
        if kind not in ("numeric", "binary"):
            continue
        present = np.fromiter((c != missing for c in cells), dtype=bool, count=len(cells))
        values = _numeric_column(cells, missing, 0.0, name, train.row_numbers)
        observed = values[present]
        if observed.size == 0:
            raise DataError(f"{kind} column {name!r} has no non-missing values")
        if kind == "numeric":
            impute = float(np.median(observed))
            filled = np.where(present, values, impute)
            std = float(filled.std())
            numeric_stats[name] = NumericStats(
                impute_value=impute,
                mean=float(filled.mean()),
                std=std if std > 0.0 else 1.0,
                scaled=True,
            )
        else:
            if np.any((observed != 0.0) & (observed != 1.0)):
                raise DataError(f"binary column {name!r} contains values outside {{0, 1}}")
            ones = np.count_nonzero(observed)
            majority = 1.0 if ones > observed.size - ones else 0.0
            numeric_stats[name] = NumericStats(impute_value=majority, mean=0.0, std=1.0, scaled=False)
    ft = FittedTransform(
        schema=train.schema,
        encoding_mode=encoding_mode,
        numeric_stats=numeric_stats,
        vocabs=vocabs,
    )
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
    missing = ft.schema.missing_token
    columns = ds.columns()
    num_cells = [columns[j] for j in plan.numeric]
    dense = np.zeros((n, len(plan.dense_names)))
    numeric = dense[:, : len(plan.numeric)]
    try:
        values = np.fromiter(
            chain.from_iterable(
                (fill if c == missing else float(c) for c in cells)
                for cells, fill in zip(num_cells, plan.fills)
            ),
            dtype=np.float64,
            count=n * len(num_cells),
        )
    except ValueError:  # a cell float() rejects; name the first bad one
        _check_num_cells(ft, num_cells, ds.row_numbers)
        raise
    np.subtract(values.reshape(len(num_cells), n).T, plan.mean, out=numeric)
    del values
    np.divide(numeric, plan.std, out=numeric)
    if not np.isfinite(numeric).all():  # one-hot entries are always 0 or 1
        _check_num_cells(ft, num_cells, ds.row_numbers)
        raise DataError("dense matrix contains non-finite entries")
    codes = np.fromiter(
        chain.from_iterable(
            map(vocab.get, columns[j], repeat(0)) for j, vocab in zip(plan.categorical, plan.vocabs)
        ),
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


def _check_num_cells(ft: FittedTransform, num_cells, row_numbers: Sequence[int]) -> None:
    """Raise the DataError of the first bad numeric cell, in schema column order."""
    for j, cells in zip(ft._plan.numeric, num_cells):
        _check_cells(cells, ft.schema.missing_token, ft.schema.columns[j][0], row_numbers)


def transform_to_dict(ft: FittedTransform) -> dict:
    """JSON-ready form; vocab order is preserved via pair lists."""
    return {
        "schema": {
            "columns": [[name, kind] for name, kind in ft.schema.columns],
            "missing_token": ft.schema.missing_token,
            "positive_label": ft.schema.positive_label,
        },
        "encoding_mode": ft.encoding_mode,
        "numeric_stats": {
            name: {
                "impute_value": s.impute_value,
                "mean": s.mean,
                "std": s.std,
                "scaled": s.scaled,
            }
            for name, s in ft.numeric_stats.items()
        },
        "vocabs": {name: [[value, index] for value, index in vocab.items()] for name, vocab in ft.vocabs.items()},
    }


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
            numeric_stats={
                name: NumericStats(
                    impute_value=s["impute_value"], mean=s["mean"], std=s["std"], scaled=s["scaled"]
                )
                for name, s in d["numeric_stats"].items()
            },
            vocabs={name: {value: index for value, index in pairs} for name, pairs in d["vocabs"].items()},
        )
    except DataError:
        raise
    except (TypeError, AttributeError, ValueError) as exc:  # an entry of the wrong JSON type or length
        raise DataError(f"malformed transform: {exc}") from None
