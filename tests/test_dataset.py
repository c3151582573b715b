import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabfusion.dataset import (
    DataError,
    Schema,
    TabularDataset,
    _numeric_column,
    apply_transform,
    fit_transform,
    load_csv,
    stratified_split,
    transform_from_dict,
    transform_to_dict,
)

SIMPLE = Schema(columns=(("age", "numeric"), ("smoking_status", "categorical"), ("stroke", "target")))


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _toy(labels, values=None) -> TabularDataset:
    schema = Schema(columns=(("x", "numeric"), ("y", "target")))
    values = values if values is not None else range(len(labels))
    rows = tuple((str(v), str(lab)) for v, lab in zip(values, labels))
    return TabularDataset(schema=schema, rows=rows)


def test_schema_invariants():
    with pytest.raises(DataError):
        Schema(columns=(("a", "numeric"), ("a", "target")))
    with pytest.raises(DataError):
        Schema(columns=(("a", "numeric"), ("b", "numeric")))
    with pytest.raises(DataError):
        Schema(columns=(("a", "target"), ("b", "target")))
    with pytest.raises(DataError):
        Schema(columns=(("a", "wibble"), ("b", "target")))


def test_load_csv_two_rows(tmp_path):
    path = _write(tmp_path, "age,smoking_status,stroke\n10,never,0\n60,smokes,1\n")
    ds = load_csv(path, SIMPLE)
    assert ds.n_rows == 2
    assert ds.rows[0] == ("10", "never", "0")


def test_load_csv_normalizes_column_order(tmp_path):
    path = _write(tmp_path, "stroke,age,smoking_status\n0,10,never\n")
    ds = load_csv(path, SIMPLE)
    assert ds.rows[0] == ("10", "never", "0")
    schema = Schema(columns=tuple((name, "numeric") for name in "abcde") + (("y", "target"),))
    path = _write(tmp_path, "d,y,b,e,a,c\n4,1,2,5,1,3\n40,0,20,50,10,30\n", name="wide.csv")
    rows = load_csv(path, schema).rows
    assert rows == (("1", "2", "3", "4", "5", "1"), ("10", "20", "30", "40", "50", "0"))


def test_load_csv_target_only_schema_yields_one_cell_tuples(tmp_path):
    path = _write(tmp_path, "stroke\n0\n1\n")
    ds = load_csv(path, Schema(columns=(("stroke", "target"),)))
    assert ds.rows == (("0",), ("1",))
    assert ds.labels().tolist() == [0, 1]


def test_load_csv_ragged_row_names_the_row(tmp_path):
    path = _write(tmp_path, "age,smoking_status,stroke\n10,never,0\n60,smokes\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(path, SIMPLE)


def test_load_csv_header_mismatch(tmp_path):
    path = _write(tmp_path, "age,weight,stroke\n10,80,0\n")
    with pytest.raises(DataError, match="header"):
        load_csv(path, SIMPLE)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_csv(tmp_path / "nope.csv", SIMPLE)


def test_load_csv_stroke_rows_match_line_count_oracle(stroke_csv, stroke_schema):
    ds = load_csv(stroke_csv, stroke_schema)
    n_lines = sum(1 for line in stroke_csv.read_text(encoding="utf-8").splitlines() if line)
    assert ds.n_rows == n_lines - 1


def test_split_exact_proportions():
    ds = _toy([0, 1] * 5)
    train, test = stratified_split(ds, 0.2, seed=4)
    test_labels = test.labels()
    assert test.n_rows == 2
    assert int(test_labels.sum()) == 1


def test_split_deterministic():
    ds = _toy([0, 1] * 10)
    a = stratified_split(ds, 0.3, seed=9)
    b = stratified_split(ds, 0.3, seed=9)
    assert a[0].rows == b[0].rows and a[1].rows == b[1].rows


def test_split_is_a_partition():
    ds = _toy([0, 1] * 8)
    train, test = stratified_split(ds, 0.25, seed=2)
    assert sorted(train.rows + test.rows) == sorted(ds.rows)
    assert set(train.rows).isdisjoint(set(test.rows))


def test_split_positive_count_by_enumeration():
    labels = [1] * 7 + [0] * 93
    ds = _toy(labels)
    _, test = stratified_split(ds, 0.3, seed=13)
    # count the sampled stratum directly
    n_pos = sum(1 for row in test.rows if row[1] == "1")
    assert n_pos in (2, 3)


def test_split_errors():
    with pytest.raises(DataError):
        stratified_split(_toy([1, 1, 1]), 0.5, seed=0)
    with pytest.raises(DataError):
        stratified_split(_toy([0, 1] * 5), 1.5, seed=0)
    with pytest.raises(DataError):
        stratified_split(_toy([0, 1]), 0.2, seed=0)  # would empty a class side


@given(st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_split_stratification_bound(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 120))
    labels = rng.integers(0, 2, n)
    if labels.sum() < 4 or labels.sum() > n - 4:
        labels[:4] = [0, 0, 1, 1]
    ds = _toy(labels.tolist())
    _, test = stratified_split(ds, 0.25, seed=seed)
    overall = np.mean(labels)
    test_rate = test.labels().mean()
    assert abs(test_rate - overall) <= 1.0 / test.n_rows + 1e-12


def test_fit_numeric_median_impute_and_zscore():
    schema = Schema(columns=(("v", "numeric"), ("t", "target")))
    ds = TabularDataset(schema, (("1", "0"), ("2", "1"), ("N/A", "0"), ("3", "1")))
    ft, dm = fit_transform(ds)
    assert ft.numeric_stats["v"].impute_value == 2.0
    col = dm.dense[:, 0]
    assert abs(col.mean()) < 1e-12
    assert abs(col.std() - 1.0) < 1e-12


def test_fit_vocab_reserves_index_zero():
    schema = Schema(columns=(("c", "categorical"), ("t", "target")))
    ds = TabularDataset(schema, (("a", "0"), ("b", "1"), ("a", "0")))
    ft, dm = fit_transform(ds)
    assert ft.vocabs["c"] == {"a": 1, "b": 2}
    assert dm.cat_indices[:, 0].tolist() == [1, 2, 1]
    assert dm.cat_cardinalities == (3,)


def test_fit_constant_numeric_column_stays_finite():
    schema = Schema(columns=(("v", "numeric"), ("t", "target")))
    ds = TabularDataset(schema, (("5", "0"), ("5", "1")))
    ft, dm = fit_transform(ds)
    assert ft.numeric_stats["v"].std == 1.0
    assert np.all(dm.dense == 0.0)


def test_fit_all_missing_numeric_rejected():
    schema = Schema(columns=(("v", "numeric"), ("t", "target")))
    ds = TabularDataset(schema, (("N/A", "0"), ("N/A", "1")))
    with pytest.raises(DataError, match="non-missing"):
        fit_transform(ds)


def test_fit_binary_rejects_other_values():
    schema = Schema(columns=(("b", "binary"), ("t", "target")))
    ds = TabularDataset(schema, (("0", "0"), ("2", "1")))
    with pytest.raises(DataError, match="binary"):
        fit_transform(ds)


def test_bmi_impute_matches_sort_and_pick_oracle(stroke_csv, stroke_schema):
    ds = load_csv(stroke_csv, stroke_schema)
    ft, _ = fit_transform(ds)
    observed = sorted(float(v) for v in ds.column("bmi") if v != "N/A")
    mid = len(observed) // 2
    median = observed[mid] if len(observed) % 2 else (observed[mid - 1] + observed[mid]) / 2.0
    assert ft.numeric_stats["bmi"].impute_value == median


def test_apply_to_fit_data_is_bit_identical():
    schema = Schema(columns=(("v", "numeric"), ("c", "categorical"), ("t", "target")))
    ds = TabularDataset(schema, (("1", "a", "0"), ("2", "b", "1"), ("4", "a", "0")))
    ft, dm = fit_transform(ds)
    again = apply_transform(ft, ds)
    assert np.array_equal(dm.dense, again.dense)
    assert np.array_equal(dm.cat_indices, again.cat_indices)
    assert np.array_equal(dm.labels, again.labels)


def test_apply_unseen_category_maps_to_oov():
    schema = Schema(columns=(("c", "categorical"), ("t", "target")))
    train = TabularDataset(schema, (("a", "0"), ("b", "1")))
    ft, _ = fit_transform(train)
    test = TabularDataset(schema, (("zzz", "0"),))
    dm = apply_transform(ft, test)
    assert dm.cat_indices[0, 0] == 0
    assert np.all(dm.dense[0] == 0.0)  # one-hot block all zero


def test_apply_scaling_hand_value():
    schema = Schema(columns=(("v", "numeric"), ("t", "target")))
    # train column [0.5, 3.5]: mean 2.0, population std 1.5
    train = TabularDataset(schema, (("0.5", "0"), ("3.5", "1")))
    ft, _ = fit_transform(train)
    test = TabularDataset(schema, (("5", "0"),))
    dm = apply_transform(ft, test)
    assert dm.dense[0, 0] == 2.0


def test_apply_schema_mismatch_rejected():
    schema_a = Schema(columns=(("v", "numeric"), ("t", "target")))
    schema_b = Schema(columns=(("w", "numeric"), ("t", "target")))
    ft, _ = fit_transform(TabularDataset(schema_a, (("1", "0"), ("2", "1"))))
    with pytest.raises(DataError, match="schema"):
        apply_transform(ft, TabularDataset(schema_b, (("1", "0"),)))


def test_no_leakage_stats_recomputable_from_train(stroke_csv, stroke_schema):
    ds = load_csv(stroke_csv, stroke_schema)
    train, _ = stratified_split(ds, 0.2, seed=3)
    ft, _ = fit_transform(train)
    raw = train.column("age")
    observed = sorted(float(v) for v in raw if v != "N/A")
    mid = len(observed) // 2
    median = observed[mid] if len(observed) % 2 else (observed[mid - 1] + observed[mid]) / 2.0
    filled = np.array([median if v == "N/A" else float(v) for v in raw])
    stats = ft.numeric_stats["age"]
    assert stats.impute_value == median
    assert stats.mean == filled.mean()
    assert stats.std == filled.std()
    vocab = {}
    for v in train.column("work_type"):
        if v != "N/A" and v not in vocab:
            vocab[v] = len(vocab) + 1
    assert ft.vocabs["work_type"] == vocab


def test_missing_everywhere_yields_finite_dense():
    schema = Schema(
        columns=(("v", "numeric"), ("b", "binary"), ("c", "categorical"), ("t", "target"))
    )
    train = TabularDataset(schema, (("1", "0", "a", "0"), ("3", "1", "b", "1")))
    ft, _ = fit_transform(train)
    assert ft.numeric_stats["b"].impute_value == 0.0  # a 1:1 tie imputes 0
    pathological = TabularDataset(schema, (("N/A", "N/A", "N/A", "0"),))
    dm = apply_transform(ft, pathological)
    assert np.all(np.isfinite(dm.dense))
    assert dm.cat_indices[0, 0] == 0


def test_transform_dict_round_trip(stroke_csv, stroke_schema):
    ds = load_csv(stroke_csv, stroke_schema)
    ft, dm = fit_transform(ds)
    restored = transform_from_dict(transform_to_dict(ft))
    assert restored == ft
    dm2 = apply_transform(restored, ds)
    assert np.array_equal(dm.dense, dm2.dense)


# Cells a numeric column may hold: the missing token, plain and padded
# numbers, signs, exponents, underscores and signed zeros, all of which Python's
# float() accepts.
_NUMERIC_CELLS = st.one_of(
    st.just("N/A"),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["-0", "+0", "-0.0", "0e0", "1_000", "+1e3", " 1.5 ", "\t-2\n", "1e-320", "1e308", ".5", "5."]),
)


@given(st.lists(_NUMERIC_CELLS, max_size=40), st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_numeric_column_equals_per_cell_float_bitwise(cells, fill):
    col = _numeric_column(tuple(cells), "N/A", fill, "v", range(1, len(cells) + 1))
    reference = np.array([fill if c == "N/A" else float(c) for c in cells], dtype=np.float64)
    assert col.dtype == np.float64 and col.shape == (len(cells),)
    assert col.tobytes() == reference.tobytes()  # bit for bit: -0.0 is not 0.0


BV_SCHEMA = Schema(columns=(("b", "binary"), ("v", "numeric"), ("t", "target")))


@pytest.mark.parametrize(
    "cells, row, detail",
    [
        (["1", "x", "inf"], 2, "cannot parse 'x' as a number"),
        (["1", "-inf", "x"], 2, "non-finite value '-inf'"),
        (["N/A", "2", "nan"], 3, "non-finite value 'nan'"),
        (["1e999", "2", "3"], 1, "non-finite value '1e999'"),
        (["1", "2", ""], 3, "cannot parse '' as a number"),
    ],
)
def test_first_bad_cell_is_named_with_its_row_and_column(cells, row, detail):
    rows = tuple(("0", c, "0") for c in cells)
    message = f"^row {row}: {re.escape(detail)} in column 'v'$"
    with pytest.raises(DataError, match=message):
        fit_transform(TabularDataset(BV_SCHEMA, rows))
    ft, _ = fit_transform(TabularDataset(BV_SCHEMA, (("0", "1", "0"), ("1", "2", "1"))))
    with pytest.raises(DataError, match=message):
        apply_transform(ft, TabularDataset(BV_SCHEMA, rows))
    # a dataset read from a file names its rows by their file row numbers
    with pytest.raises(DataError, match=f"^row {row * 10}: {re.escape(detail)} in column 'v'$"):
        apply_transform(ft, TabularDataset(BV_SCHEMA, rows, (10, 20, 30)))


def test_earlier_column_error_wins_over_later_row():
    rows = (("0", "x", "0"), ("y", "1", "1"))
    with pytest.raises(DataError, match="^row 2: cannot parse 'y' as a number in column 'b'$"):
        fit_transform(TabularDataset(BV_SCHEMA, rows))


def test_split_keeps_each_rows_file_number():
    ds = _toy([0, 1] * 10, values=[f"{i}.5" for i in range(20)])
    numbered = TabularDataset(ds.schema, ds.rows, tuple(range(101, 121)))
    train, test = stratified_split(numbered, 0.3, seed=5)
    for part in (train, test):
        assert [float(row[0]) - 0.5 + 101 for row in part.rows] == list(part.row_numbers)
    assert sorted(train.row_numbers + test.row_numbers) == list(range(101, 121))
    assert list(TabularDataset(ds.schema, ds.rows[:3]).row_numbers) == [1, 2, 3]


def test_dataset_rejects_ragged_rows_and_miscounted_row_numbers():
    schema = Schema(columns=(("v", "numeric"), ("t", "target")))
    with pytest.raises(DataError, match="row numbers"):
        TabularDataset(schema, (("1", "0"),), (1, 2))
    ragged = TabularDataset(schema, (("1", "0"), ("2",)))
    with pytest.raises(DataError, match="2 cells"):
        ragged.columns()


def test_apply_on_zero_rows_gives_empty_matrices(stroke_csv, stroke_schema):
    ft, dm = fit_transform(load_csv(stroke_csv, stroke_schema))
    empty = apply_transform(ft, TabularDataset(stroke_schema, ()))
    assert empty.dense.shape == (0, dm.dense.shape[1])
    assert empty.cat_indices.shape == (0, dm.cat_indices.shape[1])
    assert empty.labels.shape == (0,)
    assert empty.dense_names == dm.dense_names


def test_fit_transform_matches_a_per_cell_reference(stroke_csv, stroke_schema):
    """Imputes, means and stds equal a per-cell float() computation exactly."""
    train, _ = stratified_split(load_csv(stroke_csv, stroke_schema), 0.2, seed=1)
    ft, _ = fit_transform(train)
    for name, kind in stroke_schema.columns:
        if kind not in ("numeric", "binary"):
            continue
        observed = [float(c) for c in train.column(name) if c != "N/A"]
        stats = ft.numeric_stats[name]
        if kind == "binary":
            assert stats.impute_value == float(sum(observed) > len(observed) / 2)
            continue
        assert stats.impute_value == float(np.median(observed))
        filled = np.array([stats.impute_value if c == "N/A" else float(c) for c in train.column(name)])
        assert (stats.mean, stats.std) == (float(filled.mean()), float(filled.std()))
