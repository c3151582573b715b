import base64
import copy
import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import finite_difference_gradients, random_small_model
from tabfusion import xdeepfm
from tabfusion.artifact import unpack_floats
from tabfusion.dataset import DesignMatrix, apply_transform, fit_transform, load_csv
from tabfusion.xdeepfm import (
    XDeepFMConfig,
    XDeepFMModel,
    _BLOCK_ROWS,
    _init_model,
    _passes,
    _shapes,
    _stack_batch,
    backward,
    forward,
    get_flat_params,
    init_xdeepfm,
    set_flat_params,
    train_xdeepfm,
    xdeepfm_from_dict,
    xdeepfm_to_dict,
)
from tabfusion.metrics import auc, bce, sigmoid
from tabfusion.synth import write_stroke_csv


def xor_design_matrix(n_per_cell: int = 10, seed: int = 0) -> DesignMatrix:
    """Two categorical fields whose interaction fully determines the label."""
    cells = [(1, 1, 0), (1, 2, 1), (2, 1, 1), (2, 2, 0)]
    rows = [cell for cell in cells for _ in range(n_per_cell)]
    rng = np.random.default_rng(seed)
    rng.shuffle(rows)
    arr = np.array(rows)
    return DesignMatrix(
        dense=np.zeros((arr.shape[0], 0)),
        cat_indices=arr[:, :2].astype(np.int64),
        labels=arr[:, 2].astype(np.int64),
        dense_names=(),
        cat_cardinalities=(3, 3),
    )


XOR_CONFIG = XDeepFMConfig(
    embedding_dim=4,
    n_cross_layers=2,
    deep_widths=(16,),
    learning_rate=0.05,
    batch_size=64,
    n_epochs=200,
    seed=3,
)


def _stack(emb, row_cats, row_dense):
    """_stack_batch on a single row."""
    return _h0(emb, np.array([row_cats], dtype=np.int64), np.array([row_dense], dtype=np.float64).reshape(1, -1))


def _h0(emb, cat, dense):
    """_stack_batch at the positions of a batch's indices, as forward and backward find them."""
    return _stack_batch(emb, emb.positions(cat), dense)


def _embeddings(tables, n_dense):
    """The embeddings of a model with ``n_dense`` dense features whose tables hold ``tables``, one K for all."""
    model = init_xdeepfm([len(t) for t in tables], n_dense, XDeepFMConfig(embedding_dim=len(tables[0][0])))
    for table, values in zip(model.embeddings.tables, tables):
        table[...] = values
    return model.embeddings


def test_stack_batch_concatenates_fields_in_order():
    emb = _embeddings([[[0.0, 0.0], [0.1, 0.2]], [[7.0, 7.5], [8.0, 8.5], [9.0, 9.5]]], 1)
    assert _stack(emb, [1, 2], [3.0]).tolist() == [[0.1, 0.2, 9.0, 9.5, 3.0]]
    h0 = _h0(emb, np.array([[1, 0], [0, 1]]), np.array([[3.0], [4.0]]))
    assert h0.tolist() == [[0.1, 0.2, 7.0, 7.5, 3.0], [0.0, 0.0, 8.0, 8.5, 4.0]]


def test_stack_batch_zero_embeddings():
    emb = _embeddings([np.zeros((3, 2))], 2)
    assert _stack(emb, [2], [4.0, 5.0]).tolist() == [[0.0, 0.0, 4.0, 5.0]]


def test_stack_batch_index_zero_selects_oov_row():
    emb = _embeddings([[[9.0], [1.0]]], 0)
    assert _stack(emb, [0], []).tolist() == [[9.0]]
    for bad in (2, -1):
        with pytest.raises(ValueError, match="field 0"):
            _stack(emb, [bad], [])


def _cross_model(W, b, c):
    """A model of ``len(b)`` dense features whose one cross layer holds W, b and c, with no deep layer."""
    model = init_xdeepfm((), len(b), XDeepFMConfig(n_cross_layers=1, deep_widths=()))
    layer = model.cross_layers[0]
    layer.W[...], layer.b[...], layer.c[...] = W, b, c
    return model


def _cross_output(model, h0):
    """The cross path's output for the one row h0: u's leading columns, the deep path adding h0 after them."""
    _, _, u, _ = _passes(model, np.array([h0]))
    return u[0, : len(h0)].tolist()


def test_cross_forward_zero_parameters():
    model = _cross_model(np.zeros((2, 2)), np.zeros(2), np.zeros(2))
    assert _cross_output(model, [1.0, 2.0]) == [0.0, 0.0]


def test_cross_forward_identity():
    model = _cross_model(np.eye(2), np.zeros(2), np.zeros(2))
    assert _cross_output(model, [1.0, 2.0]) == [1.0, 2.0]


def test_cross_forward_interaction_term():
    # (c . h0) h0 with c = [1, 0] and h0 = [1, 2] gives h0 back
    model = _cross_model(np.zeros((2, 2)), np.zeros(2), np.array([1.0, 0.0]))
    assert _cross_output(model, [1.0, 2.0]) == [1.0, 2.0]
    ((h, s),), _, _, _ = _passes(model, np.array([[1.0, 2.0]]))  # what backward keeps: the layer's input and c . h
    assert h.tolist() == [[1.0, 2.0]] and s.tolist() == [1.0]


def test_cross_forward_width_mismatch():
    model = _cross_model(np.zeros((3, 3)), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        _passes(model, np.array([[1.0, 2.0]]))


def _deep_model(W, b, activation):
    """A model of ``W.shape[1]`` dense features whose one deep layer holds W and b, with no cross layer."""
    cfg = XDeepFMConfig(n_cross_layers=0, deep_widths=(len(b),), hidden_activation=activation)
    model = init_xdeepfm((), W.shape[1], cfg)
    model.deep.layers[0].W[...] = W
    model.deep.layers[0].b[...] = b
    return model


def _deep_output(model, h0):
    """The deep path's output for the one row h0: u's columns after h0, which the empty cross path passes on."""
    _, _, u, _ = _passes(model, np.array([h0]))
    return u[0, len(h0) :]


def test_deep_forward_relu():
    model = _deep_model(np.eye(2), np.zeros(2), "relu")
    assert _deep_output(model, [-1.0, 2.0]).tolist() == [0.0, 2.0]
    _, ((a, z),), _, _ = _passes(model, np.array([[-1.0, 2.0]]))  # what backward keeps: the input and z
    assert a.tolist() == [[-1.0, 2.0]] and z.tolist() == [[-1.0, 2.0]]


def test_deep_forward_sigmoid_bias():
    model = _deep_model(np.zeros((1, 2)), np.array([0.3]), "sigmoid")
    expected = 1.0 / (1.0 + math.exp(-0.3))
    assert _deep_output(model, [1.0, 2.0])[0] == pytest.approx(expected, abs=1e-15)


def test_deep_forward_empty_net_is_identity():
    model = init_xdeepfm((), 3, XDeepFMConfig(deep_widths=()))
    h0 = np.array([[1.0, -2.0, 3.0]])
    _, deeps, u, _ = _passes(model, h0)
    assert deeps == [] and u[:, 3:].tolist() == h0.tolist()


def test_forward_all_zero_parameters_gives_half():
    model = init_xdeepfm((3,), 1, XDeepFMConfig(embedding_dim=2, n_cross_layers=1, deep_widths=(4,)))
    for table in model.embeddings.tables:
        table[...] = 0.0
    for layer in model.cross_layers:
        layer.W[...] = 0.0
        layer.b[...] = 0.0
        layer.c[...] = 0.0
    for layer in model.deep.layers:
        layer.W[...] = 0.0
        layer.b[...] = 0.0
    model.head_w[...] = 0.0
    model.head_b[...] = 0.0
    assert forward(model, [1], [0.7]) == 0.5


def test_forward_head_bias_sets_probability():
    model = init_xdeepfm((3,), 1, XDeepFMConfig(embedding_dim=2))
    model.head_w[...] = 0.0
    model.head_b[...] = math.log(9.0)  # logit of 0.9
    assert forward(model, [1], [4.2]) == pytest.approx(0.9, abs=1e-12)


def test_forward_is_pure():
    model = init_xdeepfm((4, 5), 2, XDeepFMConfig(embedding_dim=3, seed=8))
    cat = np.array([[1, 2], [1, 2]])
    dense = np.array([[0.5, -1.0], [0.5, -1.0]])
    p = forward(model, cat, dense)
    assert p[0] == p[1]


def test_forward_stays_in_unit_interval():
    rng = np.random.default_rng(77)
    for _ in range(20):
        model, cat, dense, _ = random_small_model(rng)
        p = np.atleast_1d(forward(model, cat, dense))
        assert np.all((p > 0.0) & (p < 1.0))


def test_forward_width_checks():
    model = init_xdeepfm((4,), 2, XDeepFMConfig(embedding_dim=2))
    with pytest.raises(ValueError):
        forward(model, np.array([[1, 2]]), np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        forward(model, np.array([[1]]), np.array([[0.0]]))
    # two dense widths are accepted: n_dense = 2, or 2 + 1 index column; any other names both
    cat, y = np.array([[1], [3]]), np.array([0.0, 1.0])
    for width in (0, 1, 4, 5, 6, 9):
        dense = np.zeros((2, width))
        message = f"^expected 2 dense features per row, or 3 with the index columns, got {width}$"
        with pytest.raises(ValueError, match=message):
            forward(model, cat, dense)
        with pytest.raises(ValueError, match=message):
            backward(model, cat, dense, y)
    for width in (2, 3):
        assert forward(model, cat, np.zeros((2, width))).shape == (2,)


def test_forward_in_blocks_matches_row_by_row():
    """Two full blocks plus a remainder score as each row does on its own.

    A one-row matrix product may round in another order than a block's, so the
    two agree to 1e-12 rather than bit for bit.
    """
    vocab_sizes = (5, 3, 7)
    model = init_xdeepfm(vocab_sizes, 4, XDeepFMConfig(embedding_dim=3, deep_widths=(8, 4), seed=5))
    rng = np.random.default_rng(9)
    n = 2 * _BLOCK_ROWS + 7
    cat = np.column_stack([rng.integers(0, m, n) for m in vocab_sizes])
    dense = rng.normal(size=(n, 4))
    p = forward(model, cat, dense)
    assert p.shape == (n,)
    by_row = np.array([forward(model, cat[i], dense[i]) for i in range(n)])
    np.testing.assert_allclose(p, by_row, rtol=0.0, atol=1e-12)
    assert forward(model, cat[:0], dense[:0]).shape == (0,)
    cat[-1, 2] = 7  # out of range, in the last block
    with pytest.raises(ValueError, match="field 2"):
        forward(model, cat, dense)


@pytest.fixture(scope="module")
def stock_network(stroke_csv, stroke_schema):
    """The stroke fixture's fitted transform, and a network of the stock config trained on its rows."""
    ft, dm = fit_transform(load_csv(stroke_csv, stroke_schema))
    return ft, train_xdeepfm(dm, XDeepFMConfig(seed=7))


@pytest.mark.parametrize("n", [1025, 1026, 1061, 2047, 16_385])  # a last block of 1, 2, 37, 1,023 and 1 rows
def test_forward_on_pieces_cut_at_block_multiples_equals_one_call_bitwise(stock_network, stroke_schema, tmp_path, n):
    """Chunked and two-process scoring rest on this: every block of a piece is a block of the whole."""
    ft, model = stock_network
    dm = apply_transform(ft, load_csv(write_stroke_csv(tmp_path / "fresh.csv", n_rows=n, seed=11), stroke_schema))
    cat, dense = dm.cat_indices, dm.dense
    whole = forward(model, cat, dense).tobytes()
    for cut in range(_BLOCK_ROWS, n, _BLOCK_ROWS):
        pieces = [forward(model, cat[lo:hi], dense[lo:hi]) for lo, hi in ((0, cut), (cut, n))]
        assert np.concatenate(pieces).tobytes() == whole, cut
    blocks = [forward(model, cat[lo : lo + _BLOCK_ROWS], dense[lo : lo + _BLOCK_ROWS]) for lo in range(0, n, _BLOCK_ROWS)]
    assert np.concatenate(blocks).tobytes() == whole


def test_backward_near_zero_at_perfect_predictions():
    model = init_xdeepfm((3,), 1, XDeepFMConfig(embedding_dim=2, seed=1))
    model.head_w[...] = 0.0
    model.head_b[...] = 30.0  # p = 1 - 1e-13, labels all 1
    grad = backward(model, np.array([[1], [2]]), np.array([[0.1], [0.2]]), np.array([1.0, 1.0]))
    assert np.max(np.abs(grad)) < 1e-6


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(12):
        model, cat_idx, dense, y = random_small_model(rng)
        analytic = backward(model, cat_idx, dense, y)
        numeric = finite_difference_gradients(model, cat_idx, dense, y)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    assert worst < 1e-4


def _reference_h0(model, cat, dense):
    """h0 from the model's tables one field at a time, as the oracles build it."""
    parts = [model.embeddings.tables[f][cat[:, f]] for f in range(len(model.vocab_sizes))]
    return np.concatenate(parts + [dense], axis=1)


def test_forward_sees_in_place_edits_of_the_tables():
    """The tables are views of the gathered matrix: no stale copy of them is scored."""
    model = init_xdeepfm((4, 6), 2, XDeepFMConfig(embedding_dim=3, seed=21))
    rng = np.random.default_rng(4)
    cat = np.column_stack([rng.integers(0, 4, 9), rng.integers(0, 6, 9)])
    dense = rng.normal(size=(9, 2))
    before = forward(model, cat, dense)
    model.embeddings.tables[1][cat[0, 1]] += 0.5
    after = forward(model, cat, dense)
    assert after[0] != before[0]
    assert np.array_equal(_h0(model.embeddings, cat, dense), _reference_h0(model, cat, dense))
    flat = get_flat_params(model)
    flat[: model.embeddings.values.size] = 0.0  # the tables lead the parameter vector
    set_flat_params(model, flat)
    assert not model.embeddings.values.any()
    assert np.array_equal(_h0(model.embeddings, cat, dense)[:, :6], np.zeros((9, 6)))


def test_model_without_categorical_fields_scores_and_trains():
    cfg = XDeepFMConfig(embedding_dim=4, deep_widths=(5,), seed=2)
    model = init_xdeepfm((), 3, cfg)
    rng = np.random.default_rng(8)
    cat, dense, y = np.zeros((6, 0), dtype=np.int64), rng.normal(size=(6, 3)), np.array([0.0, 1.0] * 3)
    assert model.embeddings.width == 0
    positions = model.embeddings.positions(cat)
    assert positions.shape == (6, 0) and positions.dtype == np.int64
    assert np.array_equal(_stack_batch(model.embeddings, positions, dense), dense)
    p = forward(model, cat, dense)
    assert p.shape == (6,) and np.all((p > 0.0) & (p < 1.0))
    assert forward(model, [], dense[0]) == pytest.approx(p[0], abs=1e-15)
    assert model.embeddings.values.size == 0
    grad = backward(model, cat, dense, y)
    assert grad.shape == model.params.shape and np.isfinite(grad).all()
    dm = DesignMatrix(dense, cat, y.astype(np.int64), dense_names=(), cat_cardinalities=())
    assert np.isfinite(forward(train_xdeepfm(dm, XDeepFMConfig(n_epochs=2)), cat, dense)).all()


@pytest.mark.parametrize(
    "cells, field, size",
    [
        ({(1, 0): -1}, 0, 5),
        ({(1, 2): 7}, 2, 7),
        ({(0, 1): 3}, 1, 3),
        ({(0, 2): -4, (2, 0): 5}, 0, 5),  # the first bad field wins, not the first bad row
    ],
)
def test_out_of_range_index_names_its_field_in_forward_and_backward(cells, field, size):
    model = init_xdeepfm((5, 3, 7), 1, XDeepFMConfig(embedding_dim=2, seed=3))
    cat = np.array([[1, 2, 6], [4, 0, 0], [0, 1, 3]])
    for at, value in cells.items():
        cat[at] = value
    message = "^" + re.escape(f"field {field}: categorical index out of range [0, {size})") + "$"
    dense = np.zeros((3, 1))
    with pytest.raises(ValueError, match=message):
        forward(model, cat, dense)
    with pytest.raises(ValueError, match=message):
        backward(model, cat, dense, np.array([0.0, 1.0, 1.0]))


def test_embedding_gradient_equals_a_per_field_add_at_bitwise():
    """One bincount over every field sums each entry's addends in batch-row order."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        sizes = tuple(int(m) for m in rng.integers(1, 5, int(rng.integers(1, 5))))
        k = int(rng.integers(1, 4))
        emb = init_xdeepfm(sizes, 0, XDeepFMConfig(embedding_dim=k)).embeddings
        n = int(rng.integers(1, 300))
        cat = np.column_stack([rng.integers(0, m, n) for m in sizes])
        d_emb = rng.normal(size=(n, k * len(sizes))) * 10.0 ** rng.integers(-8, 8, (n, 1))
        reference = [np.zeros((m, k)) for m in sizes]
        for f in range(len(sizes)):
            np.add.at(reference[f], cat[:, f], d_emb[:, f * k : (f + 1) * k])
        got = emb.gradient(emb.positions(cat), d_emb)
        assert got.shape == emb.values.shape
        assert got.tobytes() == np.concatenate([r.ravel() for r in reference]).tobytes()


def test_backward_takes_one_label_per_row():
    model = init_xdeepfm((3,), 1, XDeepFMConfig(embedding_dim=2, seed=1))
    cat, dense = np.array([[1], [2]]), np.array([[0.1], [0.2]])
    for y in ([1.0], [1.0, 0.0, 1.0], [[1.0], [0.0]], 1.0):
        with pytest.raises(ValueError, match="^expected one label per row, 2 in all, got labels of shape"):
            backward(model, cat, dense, y)
    # one row takes its label as a scalar, as a one-entry vector, or as a one-row batch's
    one_row = backward(model, cat[:1], dense[:1], [1.0]).tobytes()
    assert backward(model, [1], [0.1], 1.0).tobytes() == backward(model, [1], [0.1], [1.0]).tobytes() == one_row
    with pytest.raises(ValueError, match="one label per row"):
        backward(model, [1], [0.1], [1.0, 0.0])


@pytest.mark.parametrize(
    "cat, dense, message",
    [
        ([1], [[0.1]], "expected one row or a batch of both, got 1-D indices, 2-D features"),
        ([[1], [2]], [0.1], "expected one row or a batch of both, got 2-D indices, 1-D features"),
        (1, 0.1, "expected one row or a batch of both, got 0-D indices, 0-D features"),
        ([[[1]]], [[[0.1]]], "expected one row or a batch of both, got 3-D indices, 3-D features"),
        ([[1], [2]], [[0.1], [0.2], [0.3]], "categorical and dense batches differ in length"),
    ],
    ids=["1-2", "2-1", "0-0", "3-3", "2-3-rows"],
)
def test_forward_and_backward_take_one_row_or_equal_batches_of_both(cat, dense, message):
    model = init_xdeepfm((3,), 1, XDeepFMConfig(embedding_dim=2, seed=1))
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        forward(model, cat, dense)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        backward(model, cat, dense, [1.0])


def test_backward_untouched_embedding_rows_get_zero_gradient():
    model = init_xdeepfm((5,), 1, XDeepFMConfig(embedding_dim=2, seed=4))
    grad = backward(model, np.array([[2], [2]]), np.array([[1.0], [2.0]]), np.array([0.0, 1.0]))
    touched = grad[: model.embeddings.values.size].reshape(5, 2)  # the table leads the gradient
    assert np.all(touched[[0, 1, 3, 4]] == 0.0)
    assert np.any(touched[2] != 0.0)
    assert np.any(grad[touched.size :] != 0.0)


def test_every_parameter_array_is_a_view_of_params():
    model = init_xdeepfm((4, 3), 2, XDeepFMConfig(embedding_dim=2, deep_widths=(5, 3), seed=13))
    arrays = list(model.embeddings.tables)
    for layer in model.cross_layers:
        arrays += [layer.W, layer.b, layer.c]
    for layer in model.deep.layers:
        arrays += [layer.W, layer.b]
    arrays += [model.head_w, model.head_b]
    assert all(np.shares_memory(a, model.params) for a in arrays)
    assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), model.params)  # in this order
    cat, dense = np.array([[1, 2], [3, 0]]), np.array([[0.5, -1.0], [2.0, 0.1]])
    before, params_before = forward(model, cat, dense), model.params.copy()
    model.cross_layers[1].W[0, 3] += 0.25
    # 7 x 2 table entries, then cross layer 0's W, b, c (36 + 6 + 6), then row 0 of layer 1's W
    assert np.flatnonzero(model.params != params_before).tolist() == [14 + 48 + 3]
    assert not np.array_equal(forward(model, cat, dense), before)
    flat = get_flat_params(model)
    flat[-1] += 1.0  # the head bias
    set_flat_params(model, flat)
    assert model.head_b[0] == flat[-1]
    assert np.all(forward(model, cat, dense) > before)
    with pytest.raises(ValueError, match="model needs"):
        set_flat_params(model, flat[:-1])


def test_model_is_its_config_sizes_and_params():
    """The model copies ``params`` once; its tables are views of that copy, not of the caller's vector."""
    cfg = XDeepFMConfig(embedding_dim=2, n_cross_layers=1, deep_widths=(3,), seed=6)
    model = init_xdeepfm((3, 4), 2, cfg)
    assert np.shares_memory(model.embeddings.values, model.params)
    assert model.embeddings.values.size == 2 * (3 + 4) and model.embeddings.tables[1].shape == (4, 2)
    model.embeddings.values[7] = 0.5  # row 0 of table 1, second column
    assert model.params[7] == model.embeddings.tables[1][0, 1] == 0.5
    same = XDeepFMModel(cfg, 2, (3, 4), model.params)
    assert np.array_equal(same.params, model.params) and not np.shares_memory(same.params, model.params)
    n = model.params.size
    doc = xdeepfm_to_dict(model)
    _params(list.pop)(doc)
    message = re.escape(f"'params' has {n - 1} entries, the model needs {n}")
    for build in (lambda: XDeepFMModel(cfg, 2, (3, 4), model.params[:-1]), lambda: xdeepfm_from_dict(doc)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()
    with pytest.raises(ValueError, match="non-finite"):
        XDeepFMModel(cfg, 2, (3, 4), np.where(np.arange(n) == 9, np.inf, model.params))
    assert json.loads(json.dumps(xdeepfm_to_dict(init_xdeepfm(np.array([3, 4]), 2, cfg))))["vocab_sizes"] == [3, 4]


def _per_array_adam(dm, cfg):
    """train_xdeepfm with Adam run array by array, on per-array slices of each gradient."""
    rng = np.random.default_rng(cfg.seed)
    model = _init_model(rng, dm.cat_cardinalities, dm.dense.shape[1], cfg)
    arrays = list(model.embeddings.tables)
    for layer in model.cross_layers:
        arrays += [layer.W, layer.b, layer.c]
    for layer in model.deep.layers:
        arrays += [layer.W, layer.b]
    arrays += [model.head_w, model.head_b]
    m_state = [np.zeros_like(a) for a in arrays]
    v_state = [np.zeros_like(a) for a in arrays]
    ends = np.cumsum([a.size for a in arrays])[:-1]
    y = dm.labels.astype(np.float64)
    step = 0
    for _ in range(cfg.n_epochs):
        order = rng.permutation(y.size)
        for start in range(0, y.size, cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            grads = np.split(backward(model, dm.cat_indices[sel], dm.dense[sel], y[sel]), ends)
            step += 1
            bias1 = 1.0 - cfg.beta1**step
            bias2 = 1.0 - cfg.beta2**step
            for a, ga, ma, va in zip(arrays, grads, m_state, v_state):
                ga = ga.reshape(a.shape)
                ma *= cfg.beta1
                ma += (1.0 - cfg.beta1) * ga
                va *= cfg.beta2
                va += (1.0 - cfg.beta2) * ga * ga
                a -= cfg.learning_rate * (ma / bias1) / (np.sqrt(va / bias2) + cfg.adam_eps)
    return model


def test_whole_vector_adam_equals_per_array_adam_bitwise():
    xor = xor_design_matrix(n_per_cell=12, seed=5)
    rng = np.random.default_rng(17)
    dm = DesignMatrix(
        dense=rng.normal(size=(xor.labels.size, 3)),
        cat_indices=xor.cat_indices,
        labels=xor.labels,
        dense_names=("a", "b", "c"),
        cat_cardinalities=xor.cat_cardinalities,
    )
    cfg = XDeepFMConfig(embedding_dim=3, deep_widths=(6, 4), learning_rate=0.01, batch_size=10, n_epochs=3, seed=4)
    trained = train_xdeepfm(dm, cfg)
    reference = _per_array_adam(dm, cfg)
    assert get_flat_params(trained).tobytes() == get_flat_params(reference).tobytes()
    assert not np.array_equal(get_flat_params(trained), get_flat_params(init_xdeepfm((3, 3), 3, cfg)))


def test_train_learns_xor_interaction():
    dm = xor_design_matrix()
    model = train_xdeepfm(dm, XOR_CONFIG)
    p = forward(model, dm.cat_indices, dm.dense)
    assert auc(dm.labels, p) >= 0.95


def test_train_zero_epochs_equals_initialization():
    dm = xor_design_matrix()
    cfg = XDeepFMConfig(embedding_dim=2, n_epochs=0, seed=12)
    trained = train_xdeepfm(dm, cfg)
    fresh = init_xdeepfm(dm.cat_cardinalities, 0, cfg)
    assert np.array_equal(get_flat_params(trained), get_flat_params(fresh))


def test_training_bce_decreases_over_an_epoch():
    # default learning rate; a large step can overshoot on a single batch
    dm = xor_design_matrix()
    cfg_pre = XDeepFMConfig(embedding_dim=4, n_epochs=0, seed=6)
    cfg_post = XDeepFMConfig(embedding_dim=4, n_epochs=1, seed=6)
    before = bce(dm.labels, forward(train_xdeepfm(dm, cfg_pre), dm.cat_indices, dm.dense))
    after = bce(dm.labels, forward(train_xdeepfm(dm, cfg_post), dm.cat_indices, dm.dense))
    assert after <= before


def test_train_requires_both_classes():
    dm = xor_design_matrix()
    bad = DesignMatrix(
        dense=dm.dense,
        cat_indices=dm.cat_indices,
        labels=np.ones_like(dm.labels),
        dense_names=(),
        cat_cardinalities=dm.cat_cardinalities,
    )
    with pytest.raises(ValueError):
        train_xdeepfm(bad, XDeepFMConfig())


def test_train_fails_at_the_first_epoch_that_leaves_a_parameter_non_finite():
    """A step of 1e300 leaves the parameters huge but finite; the steps after it overflow.

    The 40 XOR rows make one batch of 256 and five of 8.
    """
    dm = xor_design_matrix()
    cfg = XDeepFMConfig(embedding_dim=3, learning_rate=1e300, n_epochs=3, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow on the way is not warned of
        for batch_size, epoch in ((8, 1), (256, 2)):
            with pytest.raises(ValueError, match=f"^parameters are not finite after epoch {epoch}$"):
                train_xdeepfm(dm, dataclasses.replace(cfg, batch_size=batch_size))
        assert np.isfinite(train_xdeepfm(dm, dataclasses.replace(cfg, n_epochs=1)).params).all()


def test_train_is_deterministic():
    dm = xor_design_matrix()
    cfg = XDeepFMConfig(embedding_dim=3, n_epochs=5, seed=99)
    a = train_xdeepfm(dm, cfg)
    b = train_xdeepfm(dm, cfg)
    assert np.array_equal(get_flat_params(a), get_flat_params(b))


def _rows(dm, sl):
    """The rows ``sl`` of a design matrix."""
    return dataclasses.replace(dm, dense=dm.dense[sl], cat_indices=dm.cat_indices[sl], labels=dm.labels[sl])


@pytest.fixture(scope="module")
def stopping_rows(stroke_matrices):
    """The stroke fixture's design matrix as fitting rows and validation rows."""
    dm = stroke_matrices[0]
    return _rows(dm, slice(0, 4000)), _rows(dm, slice(4000, None))


_STOPPING_FIT = XDeepFMConfig(embedding_dim=3, deep_widths=(8,), learning_rate=0.05, n_epochs=30, seed=5)


@pytest.mark.parametrize(
    "cfg, stops_early",
    [(_STOPPING_FIT, True), (dataclasses.replace(_STOPPING_FIT, learning_rate=0.001, n_epochs=3), False)],
    ids=["stops early", "reaches the cap"],
)
def test_the_kept_network_equals_a_fit_of_the_kept_epochs_without_validation_rows(stopping_rows, cfg, stops_early):
    train, val = stopping_rows
    kept = train_xdeepfm(train, cfg, val)
    epochs = kept.config.n_epochs
    assert (epochs + 3 < cfg.n_epochs) if stops_early else (epochs == cfg.n_epochs)
    assert kept.config == dataclasses.replace(cfg, n_epochs=epochs)
    fresh = train_xdeepfm(train, kept.config)
    assert json.dumps(xdeepfm_to_dict(kept)) == json.dumps(xdeepfm_to_dict(fresh))


def test_without_validation_rows_every_epoch_runs_as_before(stopping_rows):
    """The fit that stops early on validation rows runs all its epochs without them, as the per-array reference."""
    train, val = stopping_rows
    assert train_xdeepfm(train, _STOPPING_FIT, val).config.n_epochs < _STOPPING_FIT.n_epochs
    dense = np.ascontiguousarray(train.dense[:, : train.dense.shape[1] - train.n_categorical])
    reference = _per_array_adam(dataclasses.replace(train, dense=dense, n_categorical=0), _STOPPING_FIT)
    for model in (train_xdeepfm(train, _STOPPING_FIT), train_xdeepfm(train, _STOPPING_FIT, None)):
        assert model.config == _STOPPING_FIT and model.params.tobytes() == reference.params.tobytes()


def test_on_a_tie_the_first_best_epoch_is_kept_and_training_stops_three_epochs_later(stopping_rows, monkeypatch):
    train, val = stopping_rows
    losses = []

    def constant_bce(y, p):
        losses.append(p.size)
        return 0.5

    monkeypatch.setattr(xdeepfm, "bce", constant_bce)
    kept = train_xdeepfm(train, _STOPPING_FIT, val)
    assert losses == [val.labels.size] * 4  # epoch 1, then 2, 3 and 4 that do not lower it
    one_epoch = dataclasses.replace(_STOPPING_FIT, n_epochs=1)
    assert kept.config == one_epoch and kept.params.tobytes() == train_xdeepfm(train, one_epoch).params.tobytes()


def test_serialization_round_trip_preserves_predictions():
    dm = xor_design_matrix()
    model = train_xdeepfm(dm, XDeepFMConfig(embedding_dim=3, n_epochs=3, seed=5))
    restored = xdeepfm_from_dict(json.loads(json.dumps(xdeepfm_to_dict(model))))
    assert np.array_equal(
        forward(model, dm.cat_indices, dm.dense), forward(restored, dm.cat_indices, dm.dense)
    )


def test_from_dict_rejects_wrong_version_or_kind():
    model = init_xdeepfm((3,), 1, XDeepFMConfig(embedding_dim=2))
    d = xdeepfm_to_dict(model)
    with pytest.raises(ValueError):
        xdeepfm_from_dict({**d, "format_version": 0})
    with pytest.raises(ValueError):
        xdeepfm_from_dict({**d, "kind": "gbdt"})


def _set(path, value):
    """A corruption that sets d[path[0]][path[1]]... to value."""

    def corrupt(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value

    return corrupt


def _packed(values) -> str:
    """``values`` as `params` text, the base64 of their little-endian float64 bytes, non-finite ones too."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def _params(edit):
    """A corruption that applies ``edit`` to the list of d["params"] values, then packs them back."""

    def corrupt(d):
        values = unpack_floats("'params'", d["params"]).tolist()
        edit(values)
        d["params"] = _packed(values)

    return corrupt


def _small_doc() -> dict:
    cfg = XDeepFMConfig(embedding_dim=2, n_cross_layers=1, deep_widths=(3, 2))
    return json.loads(json.dumps(xdeepfm_to_dict(init_xdeepfm((3, 4), 2, cfg))))


def test_model_file_holds_the_sizes_and_params_in_order():
    model = train_xdeepfm(xor_design_matrix(), XDeepFMConfig(embedding_dim=3, n_epochs=2, seed=4))
    d = xdeepfm_to_dict(model)
    assert list(d) == ["format_version", "kind", "config", "n_dense", "vocab_sizes", "params"]
    assert d["vocab_sizes"] == [3, 3] and d["n_dense"] == 0
    # model.params order: tables, cross, deep, head, as their little-endian float64 bytes
    assert base64.b64decode(d["params"], validate=True) == model.params.astype("<f8").tobytes()
    restored = xdeepfm_from_dict(json.loads(json.dumps(d)))
    assert np.array_equal(restored.params, model.params)
    assert restored.config == model.config and restored.vocab_sizes == model.vocab_sizes == (3, 3)
    for a, b in zip(restored.deep.layers, model.deep.layers):
        assert np.array_equal(a.W, b.W)


def test_shapes_give_the_layout_of_params():
    for sizes, n_dense, cfg in [
        ((3, 4), 2, XDeepFMConfig(embedding_dim=2, n_cross_layers=1, deep_widths=(3, 2))),
        ((), 5, XDeepFMConfig(n_cross_layers=0, deep_widths=())),
        ((7,), 0, XDeepFMConfig(embedding_dim=3, n_cross_layers=3, deep_widths=(4,))),
    ]:
        model = init_xdeepfm(sizes, n_dense, cfg)
        arrays = list(model.embeddings.tables)
        for layer in model.cross_layers:
            arrays += [layer.W, layer.b, layer.c]
        for layer in model.deep.layers:
            arrays += [layer.W, layer.b]
        arrays += [model.head_w, model.head_b]
        assert [a.shape for a in arrays] == _shapes(sizes, n_dense, cfg)


@pytest.mark.parametrize(
    "corrupt, detail",
    [
        (_params(lambda v: v.__setitem__(0, math.nan)), "non-finite"),
        (_params(lambda v: v.__setitem__(-1, math.inf)), "non-finite"),
        (_set(("params",), None), "'params' must be base64 text"),
        (_set(("params",), "0.5"), "'params' is not base64 text"),
        (_set(("params",), True), "'params' must be base64 text"),
        (lambda d: d.update(params=unpack_floats("'params'", d["params"]).tolist()), "'params' must be base64 text"),
        (_set(("params",), {"a": 1}), "'params' must be base64 text"),
        (_params(list.pop), "'params' has"),
        (_params(lambda v: v.append(0.0)), "'params' has"),
        (_set(("vocab_sizes", 0), 4), "'params' has"),
        (_set(("vocab_sizes", 0), 2**70), "'params' has"),
        (_set(("vocab_sizes", 0), 0), "vocab_sizes"),
        (_set(("vocab_sizes", 0), True), "vocab_sizes"),
        (_set(("vocab_sizes", 0), 3.0), "vocab_sizes"),
        (_set(("vocab_sizes",), 3), "vocab_sizes"),
        (_set(("n_dense",), 3), "'params' has"),
        (_set(("n_dense",), 10**9), "'params' has"),
        (_set(("n_dense",), -1), "n_dense"),
        (_set(("n_dense",), "2"), "n_dense"),
        (_set(("n_dense",), True), "n_dense"),
        (_set(("config", "deep_widths"), [3]), "'params' has"),
        (_set(("config", "deep_widths"), [2**70]), "'params' has"),
        (_set(("config", "n_cross_layers"), 2**70), "'params' has"),
        (_set(("config", "n_cross_layers"), 10**9), "'params' has"),
        (_set(("config", "embedding_dim"), 10**9), "'params' has"),
        (lambda d: d["config"].update(n_cross_layers=2**70, deep_widths=[]), "too few for"),
        (_set(("config", "hidden_activation"), "tanh"), "hidden_activation must be"),
        (_set(("config", "learning_rate"), True), "invalid config"),
        (_set(("config",), [1]), "'config' must be an object"),
        (lambda d: d.update(vocab_sizes=[], n_dense=0), "at least one"),
    ],
)
def test_from_dict_rejects_malformed_or_non_finite_parameters(corrupt, detail):
    d = _small_doc()
    xdeepfm_from_dict(json.loads(json.dumps(d)))  # the untouched document loads
    corrupt(d)
    with pytest.raises(ValueError, match=detail):
        xdeepfm_from_dict(d)


_FUZZ_DOC = _small_doc()
_FUZZ_BATCH = (np.array([[0, 0], [2, 3], [1, 1]]), np.array([[0.5, -1.0], [0.0, 0.0], [3.0, 2.0]]))


@given(
    st.sampled_from(["params", "vocab_sizes", "n_dense", "config"]),
    st.integers(0, 10_000),
    st.one_of(
        st.integers(-3, 60),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([2**70, True, False, None, "1", "relu", [1], [], {}]),
    ),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_from_dict_fails_closed_on_any_corrupted_entry(name, entry, replacement, drop):
    d = copy.deepcopy(_FUZZ_DOC)
    if name == "params":  # an entry of the packed list: a number replaces its 8 bytes, anything else the text
        d["params"] = unpack_floats("'params'", d["params"]).tolist()
    if name == "n_dense":
        container, key = d, "n_dense"
    elif name == "config":
        container = d["config"]
        key = sorted(container)[entry % len(container)]
    else:
        container = d[name]
        key = entry % len(container)
    if drop:
        del container[key]
    else:
        container[key] = replacement
    if name == "params" and all(type(v) in (int, float) for v in d["params"]):
        d["params"] = _packed(d["params"])
    try:
        model = xdeepfm_from_dict(d)
    except (ValueError, KeyError):
        return
    # the entry still describes a model of this layout: it must score, or, if a
    # finite but huge weight overflows to NaN, say so
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            p = forward(model, *_FUZZ_BATCH)
    except ValueError as exc:
        assert "NaN" in str(exc)
        return
    assert p.shape == (3,) and np.isfinite(p).all()


def test_forward_raises_where_a_huge_finite_weight_would_give_nan():
    d = copy.deepcopy(_FUZZ_DOC)
    _params(lambda v: v.__setitem__(2, 1e308))(d)  # an embedding entry of field 0; the third row selects it
    model = xdeepfm_from_dict(d)
    assert np.isfinite(forward(model, *(a[:2] for a in _FUZZ_BATCH))).all()
    with pytest.raises(ValueError, match="NaN"), np.errstate(over="ignore", invalid="ignore"):
        forward(model, *_FUZZ_BATCH)


def test_output_width_algebra():
    cfg = XDeepFMConfig(embedding_dim=3, n_cross_layers=2, deep_widths=(7, 5))
    model = init_xdeepfm((4, 6), 2, cfg)
    p = 3 * 2 + 2
    assert model.embeddings.width + model.n_dense == p
    assert model.cross_layers[0].W.shape == (p, p)
    assert model.head_w.shape == (p + 5,)


# the network's input: the numeric and binary prefix of a design matrix, never its index tail

_SHORT_FIT = XDeepFMConfig(embedding_dim=3, deep_widths=(8,), n_epochs=2, seed=5)


@pytest.fixture(scope="module")
def stroke_matrices(stroke_csv, stroke_schema):
    """The stroke fixture's design matrix, and the network trained on it."""
    dm = fit_transform(load_csv(stroke_csv, stroke_schema))[1]
    return dm, train_xdeepfm(dm, _SHORT_FIT)


def test_the_network_trained_without_the_index_tail_equals_the_stock_network_bitwise(stroke_matrices):
    """Each categorical enters once, as its embedding: cutting the index tail off changes neither fit nor scores."""
    dm, model = stroke_matrices
    assert (model.n_dense, model.full_width, dm.dense.shape[1], dm.n_categorical) == (5, 10, 10, 5)
    prefix = DesignMatrix(
        np.ascontiguousarray(dm.dense[:, :5]), dm.cat_indices, dm.labels, dm.dense_names[:5], dm.cat_cardinalities
    )
    assert prefix.n_categorical == 0
    untailed = train_xdeepfm(prefix, _SHORT_FIT)
    assert untailed.n_dense == model.n_dense and untailed.params.tobytes() == model.params.tobytes()
    scores = forward(model, dm.cat_indices, dm.dense)
    assert scores.tobytes() == forward(untailed, dm.cat_indices, prefix.dense).tobytes()


def test_forward_on_a_design_matrix_equals_forward_on_its_first_n_dense_columns(stroke_matrices):
    dm, model = stroke_matrices
    prefix = np.ascontiguousarray(dm.dense[:, : model.n_dense])
    assert forward(model, dm.cat_indices, dm.dense).tobytes() == forward(model, dm.cat_indices, prefix).tobytes()
    assert forward(model, dm.cat_indices[3], dm.dense[3]) == forward(model, dm.cat_indices[3], prefix[3])
    y = dm.labels[:300].astype(np.float64)
    full = backward(model, dm.cat_indices[:300], dm.dense[:300], y)
    assert full.tobytes() == backward(model, dm.cat_indices[:300], prefix[:300], y).tobytes()


def test_hand_built_matrix_without_an_index_tail_trains_on_all_its_columns():
    """With no index tail declared, no column is dropped, however wide the matrix."""
    xor = xor_design_matrix(n_per_cell=12, seed=2)
    rng = np.random.default_rng(6)
    dense = rng.normal(size=(xor.labels.size, 7))  # wider than the 2 index columns of two fields
    dm = DesignMatrix(dense, xor.cat_indices, xor.labels, tuple("abcdefg"), xor.cat_cardinalities)
    cfg = XDeepFMConfig(embedding_dim=2, deep_widths=(4,), n_epochs=2, seed=1)
    model = train_xdeepfm(dm, cfg)
    assert (model.n_dense, model.full_width) == (7, 9)
    assert model.params.tobytes() == _per_array_adam(dm, cfg).params.tobytes()
    moved = dense.copy()
    moved[:, 6] += 1.0  # the last column reaches the output
    assert not np.array_equal(forward(model, dm.cat_indices, moved), forward(model, dm.cat_indices, dense))


def test_a_model_that_reads_the_index_columns_scores_them_by_the_reference(stroke_matrices):
    """A network trained with no index tail declared has n_dense = 10, the full width of the stock matrix.

    Its h0 holds every dense column, the index ones included; 1,000 rows are one forward block, so the
    reference, written out here, takes the same matrix products in the same order.
    """
    dm, _ = stroke_matrices
    wide = train_xdeepfm(dataclasses.replace(dm, n_categorical=0), _SHORT_FIT)
    restored = xdeepfm_from_dict(json.loads(json.dumps(xdeepfm_to_dict(wide))))
    assert (restored.n_dense, restored.full_width) == (10, 15)
    cat, dense = dm.cat_indices[:1000], dm.dense[:1000]
    h0 = _reference_h0(restored, cat, dense)
    h = h0
    for layer in restored.cross_layers:
        s = h @ layer.c
        h = h @ layer.W.T + layer.b + s[:, None] * h0
    a = h0
    for layer in restored.deep.layers:
        a = np.maximum(a @ layer.W.T + layer.b, 0.0)
    expected = sigmoid(np.concatenate([h, a], axis=1) @ restored.head_w + restored.head_b[0])
    assert forward(restored, cat, dense).tobytes() == np.asarray(expected).tobytes()
    with pytest.raises(ValueError, match="expected 10 dense features per row, or 15"):
        forward(restored, cat, dense[:, :5])
