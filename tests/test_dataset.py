import copy
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabfusion.dataset import (
    DataError,
    Schema,
    TabularDataset,
    _numeric_values,
    apply_transform,
    csv_split,
    fit_transform,
    load_csv,
    read_csv_chunks,
    stratified_split,
    transform_from_dict,
    transform_to_dict,
)

SIMPLE = Schema(columns=(("age", "numeric"), ("smoking_status", "categorical"), ("stroke", "target")))


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _stats(ft, name):
    """The fill, mean and std of one numeric or binary column."""
    names = [n for n, kind in ft.schema.columns if kind in ("numeric", "binary")]
    i = names.index(name)
    return ft.fill[i], ft.mean[i], ft.std[i]


def _vocab(ft, name):
    """One categorical column's vocabulary."""
    names = [n for n, kind in ft.schema.columns if kind == "categorical"]
    return ft.vocabs[names.index(name)]


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


_HEADER = b"age,smoking_status,stroke\n"


@pytest.mark.parametrize(
    "n_rows, sizes",
    [(0, [0]), (1, [1]), (4, [4]), (5, [4, 1]), (6, [4, 2]), (8, [4, 4]), (9, [4, 4, 1]), (14, [4, 4, 4, 2])],
)
def test_read_csv_chunks_cuts_whole_chunks_and_a_shorter_last_one(tmp_path, n_rows, sizes):
    path = tmp_path / "data.csv"
    path.write_bytes(b"stroke,age,smoking_status\n" + b"".join(b"%d,%d,never\n" % (i % 2, i) for i in range(n_rows)))
    chunks = list(read_csv_chunks(path, SIMPLE, chunk_rows=4))
    assert [c.n_rows for c in chunks] == sizes
    whole = load_csv(path, SIMPLE)
    assert sum((c.rows for c in chunks), ()) == whole.rows
    assert [i for c in chunks for i in c.row_numbers] == list(whole.row_numbers) == list(range(1, n_rows + 1))


@pytest.mark.parametrize(
    "bad_row, message",
    [(b"60,smokes\n", "^row 1001: expected 3 cells, got 2$"), (b"6\xff,never,1\n", "row 1001: not UTF-8 text$")],
)
def test_read_csv_chunks_yields_the_chunks_before_a_bad_row(tmp_path, bad_row, message):
    path = tmp_path / "data.csv"
    path.write_bytes(_HEADER + b"10,never,0\n" * 1000 + bad_row + b"10,never,0\n" * 3)
    seen = []
    with pytest.raises(DataError, match=message):
        for chunk in read_csv_chunks(path, SIMPLE, chunk_rows=4):
            seen.append(chunk.row_numbers)
    # a chunk goes once its last row is read; decoding runs ahead of the parser
    assert seen == [range(i, i + 4) for i in range(1, 4 * len(seen), 4)]
    assert len(seen) == 250 if b"\xff" not in bad_row else 0 < len(seen) < 250


@pytest.mark.parametrize(
    "content, where",
    [
        (_HEADER + b"10,never,0\n60,sm\xffokes,1\n", "row 2: not UTF-8 text"),
        (b"age,smok\xe9ing_status,stroke\n10,never,0\n", "header: not UTF-8 text"),
        # the bad byte lies chunks past the first read, after 5,000 good rows
        (_HEADER + b"10,never,0\n" * 5000 + b"1\x80,never,1\n", "row 5001: not UTF-8 text"),
        (_HEADER + b"10,never,0\n60," + b"x" * 200_000 + b",1\n", "row 2: field larger than field limit (131072)"),
        # an unmatched quote swallows the rest of the file into one field
        (_HEADER + b'10,never,0\n60,"smokes,1\n' + b"70,never,0\n" * 20_000, "row 2: field larger than field limit"),
    ],
)
def test_load_csv_undecodable_or_malformed_row_names_the_file_and_row(tmp_path, content, where):
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    with pytest.raises(DataError, match="^" + re.escape(f"{path}: {where}")):
        load_csv(path, SIMPLE)


def test_load_csv_reports_the_first_bad_row_in_file_order(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(_HEADER + b"10,never,0\n60,smokes\n70,\xff,1\n")  # a ragged row, then a bad byte
    with pytest.raises(DataError, match="^row 2: expected 3 cells, got 2$"):
        load_csv(path, SIMPLE)
    path.write_bytes(_HEADER + b"10,n\xffever,0\n60,smokes\n")
    with pytest.raises(DataError, match="row 1: not UTF-8 text$"):
        load_csv(path, SIMPLE)


def _one_reader_and_two_parts(path, chunk_rows):
    """What one reader and the two parts csv_split names, read in order, give: their chunks as (row numbers,
    rows) pairs, or their first DataError."""

    def read(*parts):
        try:
            chunks = [c for part in parts for c in read_csv_chunks(path, SIMPLE, chunk_rows, part)]
        except DataError as exc:  # a part's chunks before its error are left out: one reader reads on first
            return str(exc)
        return [(list(c.row_numbers), c.rows) for c in chunks]

    offset, rows = csv_split(path, chunk_rows)
    return read((0, 1, None)), read((0, 1, rows), (offset, rows + 1, None))


@pytest.mark.parametrize("n_rows, rows", [(6, 4), (7, 4), (9, 4), (10, 4), (13, 8), (14, 8), (17, 8), (21, 12)])
@pytest.mark.parametrize("form", ["LF", "CRLF", "BOM", "no final newline"])
def test_csv_split_cuts_at_the_whole_chunks_nearest_half_the_rows(tmp_path, n_rows, rows, form):
    lines = [b"stroke,age,smoking_status"] + [b"%d,%d,never" % (i % 2, i) for i in range(n_rows)]
    eol = b"\r\n" if form == "CRLF" else b"\n"
    bom = b"\xef\xbb\xbf" if form == "BOM" else b""
    content = bom + eol.join(lines) + (b"" if form == "no final newline" else eol)
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    offset, got = csv_split(path, chunk_rows=4)
    assert got == rows and (content[offset:] + eol).startswith(lines[rows + 1] + eol[:1])  # + eol: a last line
    one, two = _one_reader_and_two_parts(path, 4)
    assert two == one and [i for numbers, _ in one for i in numbers] == list(range(1, n_rows + 1))


@pytest.mark.parametrize(
    "n_rows, edit",
    [
        (4, None),  # one chunk
        (5, None),  # a second part of one row, under half a chunk
        (14, (8, b'"0",8,never')),  # a quote on data row rows = 8, the last before the cut
        (14, (8, b"0,8,nev\rer")),  # a CR that ends no CRLF
        (14, (0, b'stroke,"age",smoking_status')),  # a quoted header
        (14, (14, b"0,1\xff,never")),  # not UTF-8, past the split
        (14, (14, b"0,1\xc3,never")),  # a cut UTF-8 sequence
        (14, (14, b"0," + b"1" * (2 << 20) + b",never")),  # a line longer than a block
    ],
)
def test_csv_split_reads_in_one_part_what_lines_cannot_cut(tmp_path, n_rows, edit):
    lines = [b"stroke,age,smoking_status"] + [b"%d,%d,never" % (i % 2, i) for i in range(n_rows)]
    if edit:
        lines[edit[0]] = edit[1]
    path = tmp_path / "data.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert csv_split(path, chunk_rows=4) is None
    assert csv_split(tmp_path / "absent.csv", chunk_rows=4) is None
    if edit and edit[0] == 8:  # one row further on, past the cut, the same edit leaves the split
        lines[8], lines[9] = lines[9], lines[8]
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert csv_split(path, chunk_rows=4)[1] == 8


@pytest.mark.parametrize(
    "bad_row, where", [(b"60,smokes", "row 11: expected 3 cells, got 2"), (b"6\xff,never,1", "row 11: not UTF-8 text")]
)
def test_a_part_names_the_file_rows_of_its_errors(tmp_path, bad_row, where):
    lines = [_HEADER.rstrip(b"\n")] + [b"%d,never,0" % i for i in range(14)]
    lines[11] = bad_row
    path = tmp_path / "data.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    offset = len(b"\n".join(lines[:9])) + 1  # data row 9
    with pytest.raises(DataError, match=re.escape(where) + "$"):
        list(read_csv_chunks(path, SIMPLE, chunk_rows=4, part=(offset, 9, None)))
    if b"\xff" not in bad_row:  # decoding runs ahead of the parser, past the rows of a part
        assert [c.row_numbers for c in read_csv_chunks(path, SIMPLE, 4, (offset, 9, 2))] == [range(9, 11)]


_SPLIT_PIECES = [b"10,never,0", b"60,smokes,1", b"10", b",", b'"', b"\r", b"\xff", b"\xc3\xa9", b"\x00"]


@given(
    st.lists(st.lists(st.sampled_from(_SPLIT_PIECES), min_size=1, max_size=3).map(b"".join), max_size=14),
    st.sampled_from([b"\n", b"\r\n"]),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_two_parts_read_the_chunks_and_the_first_error_of_one_reader(tmp_path_factory, rows, eol, final_eol):
    """Wherever csv_split cuts a file, its two parts, read in order, yield one reader's chunks or raise its error."""
    path = tmp_path_factory.getbasetemp() / "split-fuzz.csv"
    path.write_bytes(_HEADER + eol.join(rows) + (eol if final_eol else b""))
    if csv_split(path, chunk_rows=2) is not None:
        one, two = _one_reader_and_two_parts(path, 2)
        assert two == one


_CSV_PIECES = [
    b"10", b"-3.5", b"never", b"smokes", b",", b"\n", b"\r\n", b"\r", b'"', b"\x00", b"\xff", b"\xc3", b"\xc3\xa9"
]


@given(
    st.one_of(
        st.binary(max_size=200),
        st.lists(st.sampled_from(_CSV_PIECES), max_size=40).map(lambda pieces: _HEADER + b"".join(pieces)),
    )
)
@settings(max_examples=300, deadline=None)
def test_load_csv_fails_closed_on_arbitrary_bytes(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(content)
    try:
        ds = load_csv(path, SIMPLE)
    except DataError:
        return
    assert all(len(row) == 3 and all(isinstance(c, str) for c in row) for row in ds.rows)


@pytest.mark.filterwarnings("error")  # no NumPy overflow warning reaches the caller
def test_apply_names_the_first_cell_whose_scaling_overflows():
    ft = fit_transform(_SMALL_TRAIN)[0]
    tiny = dataclasses.replace(ft, std=(5e-324,) + ft.std[1:])
    ds = TabularDataset(_SMALL_SCHEMA, ((repr(ft.mean[0]), "F", "0", "0"), ("50", "M", "1", "1")), row_numbers=(7, 9))
    message = f"row 9: value '50' in column 'age' overflows when scaled by mean {ft.mean[0]!r} and std 5e-324"
    with pytest.raises(DataError, match="^" + re.escape(message) + "$"):
        apply_transform(tiny, ds)
    assert apply_transform(tiny, dataclasses.replace(ds, rows=ds.rows[:1], row_numbers=(7,))).dense[0, 0] == 0.0


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
    assert ft.fill == (2.0,)
    col = dm.dense[:, 0]
    assert abs(col.mean()) < 1e-12
    assert abs(col.std() - 1.0) < 1e-12


def test_fit_vocab_reserves_index_zero():
    schema = Schema(columns=(("c", "categorical"), ("t", "target")))
    ds = TabularDataset(schema, (("a", "0"), ("b", "1"), ("a", "0")))
    ft, dm = fit_transform(ds)
    assert ft.vocabs == (("a", "b"),)
    assert dm.cat_indices[:, 0].tolist() == [1, 2, 1]
    assert dm.cat_cardinalities == (3,)


def test_fit_constant_numeric_column_stays_finite():
    schema = Schema(columns=(("v", "numeric"), ("t", "target")))
    ds = TabularDataset(schema, (("5", "0"), ("5", "1")))
    ft, dm = fit_transform(ds)
    assert ft.std == (1.0,)
    assert np.all(dm.dense == 0.0)


def test_fit_all_missing_numeric_rejected():
    schema = Schema(columns=(("v", "numeric"), ("t", "target")))
    ds = TabularDataset(schema, (("N/A", "0"), ("N/A", "1")))
    with pytest.raises(DataError, match="non-missing"):
        fit_transform(ds)


@pytest.mark.filterwarnings("error")  # the overflow is reported once, by the transform's check
def test_fit_rejects_a_column_whose_statistics_overflow():
    schema = Schema(columns=(("v", "numeric"), ("t", "target")))
    with pytest.raises(DataError, match="^transform 'std' holds non-finite values$"):
        fit_transform(TabularDataset(schema, (("1e300", "0"), ("-1e300", "1"))))


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
    assert _stats(ft, "bmi")[0] == median


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
    assert dm.dense[0].tolist() == [0.0]  # its index column holds the OOV index too


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
    assert _stats(ft, "age") == (median, filled.mean(), filled.std())
    vocab = []
    for v in train.column("work_type"):
        if v != "N/A" and v not in vocab:
            vocab.append(v)
    assert _vocab(ft, "work_type") == tuple(vocab)


def test_missing_everywhere_yields_finite_dense():
    schema = Schema(
        columns=(("v", "numeric"), ("b", "binary"), ("c", "categorical"), ("t", "target"))
    )
    train = TabularDataset(schema, (("1", "0", "a", "0"), ("3", "1", "b", "1")))
    ft, _ = fit_transform(train)
    assert _stats(ft, "b") == (0.0, 0.0, 1.0)  # a 1:1 tie imputes 0; a binary column is not scaled
    pathological = TabularDataset(schema, (("N/A", "N/A", "N/A", "0"),))
    dm = apply_transform(ft, pathological)
    assert np.all(np.isfinite(dm.dense))
    assert dm.cat_indices[0, 0] == 0


def test_transform_dict_round_trip(stroke_csv, stroke_schema):
    ds = load_csv(stroke_csv, stroke_schema)
    ft, dm = fit_transform(ds)
    restored = transform_from_dict(json.loads(json.dumps(transform_to_dict(ft))))
    assert restored == ft and hash(restored) == hash(ft)
    assert restored == transform_from_dict(transform_to_dict(restored))
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


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(_NUMERIC_CELLS, _NUMERIC_CELLS), max_size=40), _FINITE, _FINITE)
@settings(max_examples=200, deadline=None)
def test_numeric_column_equals_per_cell_float_bitwise(pairs, fill_a, fill_b):
    # the parser reads the columns at the positions it is given, each with its own fill
    schema = Schema(columns=(("a", "numeric"), ("c", "categorical"), ("b", "binary"), ("y", "target")))
    ds = TabularDataset(schema, tuple((a, "x", b, "0") for a, b in pairs))
    values = _numeric_values(ds, ds.columns(), (0, 2), (fill_a, fill_b))
    reference = np.array(
        [[fill if c == "N/A" else float(c) for c in cells] for cells, fill in zip(zip(*pairs), (fill_a, fill_b))],
        dtype=np.float64,
    ).reshape(2, len(pairs))
    assert values.dtype == np.float64 and values.shape == (2, len(pairs))
    assert values.tobytes() == reference.tobytes()  # bit for bit: -0.0 is not 0.0


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
    ft, _ = fit_transform(TabularDataset(BV_SCHEMA, (("0", "1", "0"), ("1", "2", "1"))))
    for bad in (rows, (("0", "inf", "0"), ("nan", "1", "1"))):
        with pytest.raises(DataError, match="^row 2: .* in column 'b'$"):
            apply_transform(ft, TabularDataset(BV_SCHEMA, bad))


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


def test_apply_sets_the_width_of_the_index_tail(stroke_csv, stroke_schema):
    """The stock schema's 5 categorical columns take one index column each, after its 5 numeric and binary ones."""
    ft, dm = fit_transform(load_csv(stroke_csv, stroke_schema))
    assert (dm.n_categorical, dm.dense.shape[1]) == (5, 10)
    assert dm.dense_names == ("age", "hypertension", "heart_disease", "avg_glucose_level", "bmi") + (
        "gender",
        "ever_married",
        "work_type",
        "Residence_type",
        "smoking_status",
    )
    assert dm.dense[:, 5:].tobytes() == dm.cat_indices.astype(np.float64).tobytes()
    for rows in ((), load_csv(stroke_csv, stroke_schema).rows[:1]):
        assert apply_transform(ft, TabularDataset(stroke_schema, rows)).n_categorical == 5


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
        fill, mean, std = _stats(ft, name)
        if kind == "binary":
            assert (fill, mean, std) == (float(sum(observed) > len(observed) / 2), 0.0, 1.0)
            continue
        assert fill == float(np.median(observed))
        filled = np.array([fill if c == "N/A" else float(c) for c in train.column(name)])
        assert (mean, std) == (float(filled.mean()), float(filled.std()))


def _per_column_reference(ft, ds):
    """apply_transform's outputs computed one column and one cell at a time."""
    missing = ft.schema.missing_token
    cells = dict(zip(ft.schema.column_names, ds.columns()))
    n = ds.n_rows
    blocks, names, indices, cardinalities = [], [], [], []
    for name, kind in ft.schema.columns:
        if kind in ("numeric", "binary"):
            fill, mean, std = _stats(ft, name)
            col = np.array([fill if c == missing else float(c) for c in cells[name]])
            blocks.append(((col - mean) / std if kind == "numeric" else col).reshape(n, 1))
            names.append(name)
    for name, kind in ft.schema.columns:
        if kind == "categorical":
            vocab = _vocab(ft, name)
            idx = [vocab.index(c) + 1 if c in vocab else 0 for c in cells[name]]
            indices.append(np.array(idx, dtype=np.int64).reshape(n, 1))
            cardinalities.append(len(vocab) + 1)
            blocks.append(np.array(idx, dtype=np.float64).reshape(n, 1))
            names.append(name)
    dense = np.hstack(blocks) if blocks else np.zeros((n, 0))
    cat = np.hstack(indices) if indices else np.zeros((n, 0), dtype=np.int64)
    labels = np.array([c == ft.schema.positive_label for c in cells[ft.schema.target]], dtype=np.int64)
    return dense, cat, labels, tuple(names), tuple(cardinalities), len(indices)


def _assert_bitwise_equal(dm, expected):
    dense, cat, labels, names, cardinalities, n_categorical = expected
    assert dm.dense.dtype == np.float64 and dm.dense.shape == dense.shape
    assert dm.dense.tobytes() == dense.tobytes()  # bit for bit: -0.0 is not 0.0
    assert dm.cat_indices.dtype == np.int64 and dm.cat_indices.shape == cat.shape
    assert np.array_equal(dm.cat_indices, cat)
    assert np.array_equal(dm.labels, labels) and dm.labels.dtype == np.int64
    assert (dm.dense_names, dm.cat_cardinalities, dm.n_categorical) == (names, cardinalities, n_categorical)


def _assert_rows_match_batch(ft, ds, dm):
    """Each row encoded on its own equals its slice of the batch, bit for bit."""
    for i, row in enumerate(ds.rows):
        one = apply_transform(ft, TabularDataset(ds.schema, (row,)))
        assert one.dense.tobytes() == dm.dense[i : i + 1].tobytes()
        assert np.array_equal(one.cat_indices, dm.cat_indices[i : i + 1])
        assert np.array_equal(one.labels, dm.labels[i : i + 1])


def test_apply_equals_a_per_column_reference_on_the_stroke_table(stroke_csv, stroke_schema):
    train, test = stratified_split(load_csv(stroke_csv, stroke_schema), 0.2, seed=4)
    ft, dm = fit_transform(train)
    _assert_bitwise_equal(dm, _per_column_reference(ft, train))
    dm_test = apply_transform(ft, test)
    _assert_bitwise_equal(dm_test, _per_column_reference(ft, test))
    for rows in ((), test.rows[:1]):
        part = TabularDataset(stroke_schema, rows)
        _assert_bitwise_equal(apply_transform(ft, part), _per_column_reference(ft, part))
    head = TabularDataset(stroke_schema, test.rows[:40])
    _assert_rows_match_batch(ft, head, apply_transform(ft, head))


_CELLS = {
    "numeric": st.one_of(
        st.just("N/A"),
        st.floats(-1e150, 1e150).map(repr),  # beyond, the squares in a train std may overflow
        st.sampled_from(["-0", "-0.0", "1e-320", " 2 ", "7", "1_5"]),
    ),
    "binary": st.sampled_from(["0", "1", "N/A", "-0", "0.0", "1.0"]),
    # the training vocabulary comes from a, b, c; "zz" and "" are seen only when applying
    "categorical": st.sampled_from(["a", "b", "c", "N/A", "zz", ""]),
}


@st.composite
def _fit_and_apply_tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), max_size=5))
    schema = Schema(columns=tuple((f"x{j}", kind) for j, kind in enumerate(kinds)) + (("y", "target"),))
    row = st.tuples(*[_CELLS[kind] for kind in kinds], st.sampled_from(["0", "1"]))
    # a first training row with a value in every column, so that every fit succeeds
    first = tuple({"numeric": "1", "binary": "0", "categorical": "a"}[kind] for kind in kinds) + ("1",)
    train_rows = [r for r in draw(st.lists(row, max_size=8)) if "zz" not in r and "" not in r]
    train = TabularDataset(schema, (first, *train_rows))
    other = TabularDataset(schema, tuple(draw(st.lists(row, max_size=10))))
    return train, other


@given(_fit_and_apply_tables())
@settings(max_examples=200, deadline=None)
def test_apply_equals_a_per_column_reference_on_generated_tables(tables):
    train, other = tables
    ft, dm = fit_transform(train)
    _assert_bitwise_equal(dm, _per_column_reference(ft, train))
    try:
        dm_other = apply_transform(ft, other)
    except DataError as exc:  # scaling overflowed: the named cell is the reference's first non-finite entry
        row, column = re.fullmatch(r"row (\d+): value .* in column '(.*)' overflows when scaled .*", str(exc)).groups()
        with np.errstate(over="ignore"):
            dense = _per_column_reference(ft, other)[0]
        first = int(np.argmax(~np.isfinite(dense.T.ravel())))  # in column order, then row order
        assert divmod(first, other.n_rows) == (dm.dense_names.index(column), int(row) - 1)
        return
    _assert_bitwise_equal(dm_other, _per_column_reference(ft, other))
    _assert_rows_match_batch(ft, other, dm_other)


_SMALL_SCHEMA = Schema(
    columns=(("age", "numeric"), ("sex", "categorical"), ("smoker", "binary"), ("stroke", "target"))
)
_SMALL_TRAIN = TabularDataset(
    _SMALL_SCHEMA, (("50", "F", "1", "1"), ("N/A", "M", "0", "0"), ("30.5", "F", "N/A", "0"))
)


def _small_transform_dict() -> dict:
    return json.loads(json.dumps(transform_to_dict(fit_transform(_SMALL_TRAIN)[0])))


def _at(path, value):
    """A corruption that sets d[path[0]][path[1]]... to value."""

    def corrupt(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value

    return corrupt


@pytest.mark.parametrize(
    "corrupt, detail",
    [
        (_at(("schema",), 5), "malformed transform"),
        (_at(("schema", "columns"), [["age", "numeric", "x"]]), "malformed transform"),
        (_at(("schema", "columns", 0, 0), 5), "must be strings"),
        (_at(("schema", "missing_token"), None), "must be strings"),
        (_at(("mean", 0), "x"), "transform 'mean' must be a flat list of numbers"),
        (_at(("fill", 0), True), "transform 'fill' must be a flat list of numbers"),
        (_at(("std", 1), False), "transform 'std' must be a flat list of numbers"),
        (_at(("std", 0), 10**400), "transform 'std' must be a flat list of numbers"),
        (_at(("mean", 1), None), "transform 'mean' must be a flat list of numbers"),
        (_at(("mean", 0), [1, 2]), "setting an array element"),
        (_at(("fill", 0), float("nan")), "transform 'fill' holds non-finite values"),
        (_at(("mean", 1), float("-inf")), "transform 'mean' holds non-finite values"),
        (_at(("std", 0), 0), "std of column 'age' must be positive"),
        (_at(("std", 1), -2.0), "std of column 'smoker' must be positive"),
        (lambda d: d["fill"].pop(), "transform 'fill' must hold one number per numeric or binary column"),
        (lambda d: d["mean"].append(0.0), "transform 'mean' must hold one number per numeric or binary column"),
        (_at(("std",), []), "transform 'std' must hold one number per numeric or binary column ['age', 'smoker']"),
        (_at(("fill",), {"age": 1.0, "smoker": 0.0}), "malformed transform"),
        (_at(("std",), 1.0), "malformed transform"),
        (lambda d: d["vocabs"].append(["x"]), "transform 'vocabs' must hold one vocabulary per categorical column"),
        (_at(("vocabs",), []), "transform 'vocabs' must hold one vocabulary per categorical column"),
        (_at(("vocabs",), {"sex": ["F", "M"]}), "malformed transform"),
        (_at(("vocabs", 0), "FM"), "malformed transform"),
        (_at(("vocabs", 0, 1), "F"), "vocab of column 'sex' must hold distinct cell texts"),
        (_at(("vocabs", 0, 0), 7), "vocab of column 'sex' must hold distinct cell texts"),
        (_at(("vocabs", 0, 0), None), "vocab of column 'sex' must hold distinct cell texts"),
        (_at(("vocabs", 0, 0), ["F"]), "vocab of column 'sex' must hold distinct cell texts"),
    ],
)
def test_transform_from_dict_rejects_malformed_entries(corrupt, detail):
    d = _small_transform_dict()
    assert transform_from_dict(copy.deepcopy(d)) == fit_transform(_SMALL_TRAIN)[0]
    corrupt(d)
    with pytest.raises(DataError, match=re.escape(detail)):
        transform_from_dict(d)


def _leaf_paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _leaf_paths(child, (*path, key))


_SMALL_PATHS = list(_leaf_paths(_small_transform_dict()))[1:]


@given(
    st.sampled_from(_SMALL_PATHS),
    st.one_of(
        st.integers(-3, 3),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([2**70, True, False, None, "", "x", "F", "numeric", "categorical", [], [1], {}]),
    ),
)
@settings(max_examples=300, deadline=None)
def test_transform_from_dict_fails_closed_on_any_corrupted_entry(path, replacement):
    d = _small_transform_dict()
    _at(path, replacement)(d)
    try:
        ft = transform_from_dict(d)
    except (DataError, KeyError):
        return
    # the entry still describes a valid transform (a new name, token or value): it must encode
    try:
        dm = apply_transform(ft, TabularDataset(ft.schema, _SMALL_TRAIN.rows))
    except DataError:
        return
    assert np.isfinite(dm.dense).all()
