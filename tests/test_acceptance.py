"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import math
import time

import numpy as np
import pytest

from _oracles import (
    auc_by_pair_enumeration,
    brute_force_tree,
    brute_tree_predict,
    finite_difference_gradients,
    minimize_leaf_objective,
    random_small_model,
    trapezoid_area,
)
from tabfusion import cli
from tabfusion.dataset import TabularDataset, fit_transform, apply_transform, load_csv
from tabfusion.ensemble import BlendConfig, grid_search_alpha
from tabfusion.gbdt import (
    GBDTConfig,
    _tree_values,
    build_tree,
    gbdt_to_dict,
    leaf_weight,
    load_gbdt,
    predict_gbdt,
    save_gbdt,
    train_gbdt,
)
from tabfusion.metrics import auc, bce, roc_curve
from tabfusion.xdeepfm import (
    XDeepFMConfig,
    _grad_arrays,
    backward,
    forward,
    get_flat_params,
    load_xdeepfm,
    save_xdeepfm,
    train_xdeepfm,
    xdeepfm_to_dict,
)
from test_xdeepfm import XOR_CONFIG, xor_design_matrix

FOLD_TIME_BUDGET_SECONDS = 300.0


def _passed(criterion: int, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def stroke_run(tmp_path_factory, stroke_csv):
    """Full seeded pipeline on the stroke table with shipped defaults."""
    out = tmp_path_factory.mktemp("stroke_run") / "out"
    config = tmp_path_factory.mktemp("stroke_run_cfg") / "stroke.conf"
    base = (
        "\n".join(
            [
                f"data = {stroke_csv}",
                f"out_dir = {out}",
                "column.gender = categorical",
                "column.age = numeric",
                "column.hypertension = binary",
                "column.heart_disease = binary",
                "column.ever_married = categorical",
                "column.work_type = categorical",
                "column.Residence_type = categorical",
                "column.avg_glucose_level = numeric",
                "column.bmi = numeric",
                "column.smoking_status = categorical",
                "column.stroke = target",
                "missing_token = N/A",
                "positive_label = 1",
                "seed = 7",
            ]
        )
        + "\n"
    )
    config.write_text(base, encoding="utf-8")
    assert cli.main(["run", "--config", str(config)]) == 0
    return out


def test_criterion_1_endpoint_dominance(stroke_run):
    rng = np.random.default_rng(314)
    for trial in range(50):
        n = int(rng.integers(8, 60))
        y = rng.integers(0, 2, n)
        if y.sum() in (0, n):
            y[:2] = [0, 1]
        p1, p2 = rng.random(n), rng.random(n)
        _, record = grid_search_alpha(y, p1, p2, BlendConfig(grid_step=0.01))
        scores = dict(record)
        best = max(scores.values())
        assert best >= scores[1.0], f"trial {trial}: blended AUC below the tree endpoint"
        assert best >= scores[0.0], f"trial {trial}: blended AUC below the network endpoint"
    manifest = json.loads((stroke_run / "manifest.json").read_text(encoding="utf-8"))
    val = manifest["validation_auc"]
    assert val["Ensemble"] >= val["GBDT"]
    assert val["Ensemble"] >= val["xDeepFM"]
    _passed(
        1,
        f"50 synthetic searches + stroke run; stroke validation AUCs "
        f"ens={val['Ensemble']:.4f} >= gbdt={val['GBDT']:.4f}, xdfm={val['xDeepFM']:.4f}",
    )


def _stratified_folds(y: np.ndarray, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    fold = np.empty(y.size, dtype=np.int64)
    for cls in (0, 1):
        idx = rng.permutation(np.nonzero(y == cls)[0])
        fold[idx] = np.arange(idx.size) % k
    return fold


def test_criterion_2_stroke_cross_validated_auc(stroke_csv, stroke_schema):
    ds = load_csv(stroke_csv, stroke_schema)
    y = ds.labels()
    folds = _stratified_folds(y, 5, seed=17)
    gbdt_aucs, xdfm_aucs = [], []
    for f in range(5):
        start = time.monotonic()
        train_rows = tuple(ds.rows[i] for i in range(ds.n_rows) if folds[i] != f)
        test_rows = tuple(ds.rows[i] for i in range(ds.n_rows) if folds[i] == f)
        train = TabularDataset(ds.schema, train_rows)
        test = TabularDataset(ds.schema, test_rows)
        ft, dm_train = fit_transform(train)
        dm_test = apply_transform(ft, test)
        gbdt_model = train_gbdt(dm_train, GBDTConfig(seed=f))
        xdfm_model = train_xdeepfm(dm_train, XDeepFMConfig(seed=f))
        gbdt_aucs.append(auc(dm_test.labels, predict_gbdt(gbdt_model, dm_test.dense)))
        xdfm_aucs.append(auc(dm_test.labels, forward(xdfm_model, dm_test.cat_indices, dm_test.dense)))
        elapsed = time.monotonic() - start
        assert elapsed < FOLD_TIME_BUDGET_SECONDS, f"fold {f} took {elapsed:.0f}s"
    mean_gbdt = float(np.mean(gbdt_aucs))
    mean_xdfm = float(np.mean(xdfm_aucs))
    assert mean_gbdt >= 0.80, f"GBDT 5-fold mean AUC {mean_gbdt:.4f} < 0.80"
    assert mean_xdfm >= 0.80, f"xDeepFM 5-fold mean AUC {mean_xdfm:.4f} < 0.80"
    _passed(2, f"5-fold mean AUC gbdt={mean_gbdt:.4f}, xdfm={mean_xdfm:.4f} (floor 0.80)")


def test_criterion_3_auc_oracle_equivalence():
    rng = np.random.default_rng(99)
    worst_pair = 0.0
    worst_trap = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        y = rng.integers(0, 2, n)
        if y.sum() in (0, n):
            y[:2] = [0, 1]
        if rng.random() < 0.5:
            s = rng.normal(size=n)
        else:
            s = rng.integers(-4, 5, n).astype(float)  # heavy ties
        value = auc(y, s)
        worst_pair = max(worst_pair, abs(value - auc_by_pair_enumeration(y, s)))
        worst_trap = max(worst_trap, abs(value - trapezoid_area(roc_curve(y, s).points)))
    assert worst_pair <= 1e-12
    assert worst_trap <= 1e-12
    _passed(3, f"1000 instances; max |rank-pair|={worst_pair:.2e}, max |rank-trapezoid|={worst_trap:.2e}")


def test_criterion_4_gradients_match_finite_differences():
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(100):
        model, cat_idx, dense, y = random_small_model(rng)
        analytic = np.concatenate(
            [a.ravel() for a in _grad_arrays(backward(model, cat_idx, dense, y))]
        )
        numeric = finite_difference_gradients(model, cat_idx, dense, y, eps=1e-5)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    assert worst < 1e-4, f"max relative gradient error {worst:.2e}"
    _passed(4, f"100 random configurations; max relative error {worst:.2e} (limit 1e-4)")


def test_criterion_5_leaf_weight_and_tree_oracles():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(1000):
        g = float(rng.uniform(-50.0, 50.0))
        h = float(rng.uniform(0.0, 100.0))
        l1 = float(rng.uniform(0.0, 30.0))
        l2 = float(rng.uniform(0.1, 30.0))
        worst = max(worst, abs(leaf_weight(g, h, l1, l2) - minimize_leaf_objective(g, h, l1, l2)))
    assert worst <= 1e-8, f"leaf weight deviates from numeric minimization by {worst:.2e}"

    for trial in range(500):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 5))
        X = rng.normal(size=(n, d)) if rng.random() < 0.5 else rng.integers(0, 3, (n, d)).astype(float)
        g = rng.normal(size=n)
        h = rng.uniform(0.05, 1.0, size=n)
        cfg = GBDTConfig(
            max_depth=int(rng.integers(1, 4)),
            lambda1=float(rng.uniform(0.0, 0.5)),
            lambda2=float(rng.uniform(0.0, 2.0)),
            gamma=float(rng.uniform(0.0, 0.2)),
            min_child_hessian=0.0,
        )
        tree = build_tree(X, g, h, cfg)
        oracle = brute_force_tree(X, g, h, cfg)
        assert np.allclose(
            _tree_values(tree, X), brute_tree_predict(oracle, X), atol=1e-9
        ), f"instance {trial} diverged from exhaustive split search"
    _passed(5, f"1000 leaf weights within {worst:.2e} of 1e-8; 500 trees equal exhaustive search")


def test_criterion_6_bce_spot_value_and_training_descent():
    assert bce([1, 0], [0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-12)

    rng = np.random.default_rng(6)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] - 0.5 * X[:, 1] > 0).astype(int)
    from test_gbdt import _dm

    dm = _dm(X, y)
    initial = bce(y, predict_gbdt(train_gbdt(dm, GBDTConfig(n_trees=0)), X))
    final = bce(y, predict_gbdt(train_gbdt(dm, GBDTConfig(n_trees=25, min_child_hessian=0.0)), X))
    assert final <= initial

    xor = xor_design_matrix()
    cfg0 = XDeepFMConfig(embedding_dim=4, n_epochs=0, seed=2)
    cfg1 = XDeepFMConfig(embedding_dim=4, n_epochs=20, seed=2)
    net_initial = bce(xor.labels, forward(train_xdeepfm(xor, cfg0), xor.cat_indices, xor.dense))
    net_final = bce(xor.labels, forward(train_xdeepfm(xor, cfg1), xor.cat_indices, xor.dense))
    assert net_final <= net_initial
    _passed(
        6,
        f"bce spot exact; gbdt bce {initial:.3f}->{final:.3f}, xdfm bce {net_initial:.3f}->{net_final:.3f}",
    )


def test_criterion_7_determinism_and_persistence(tmp_path):
    rng = np.random.default_rng(77)
    X = rng.normal(size=(50, 3))
    y = (X[:, 0] > 0).astype(int)
    from test_gbdt import _dm

    dm = _dm(X, y)
    cfg = GBDTConfig(n_trees=10, max_depth=3, min_child_hessian=0.0, seed=1)
    save_gbdt(train_gbdt(dm, cfg), tmp_path / "a.json")
    save_gbdt(train_gbdt(dm, cfg), tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    restored = load_gbdt(tmp_path / "a.json")
    assert np.array_equal(predict_gbdt(restored, X), predict_gbdt(train_gbdt(dm, cfg), X))

    xor = xor_design_matrix()
    net_cfg = XDeepFMConfig(embedding_dim=3, n_epochs=4, seed=9)
    save_xdeepfm(train_xdeepfm(xor, net_cfg), tmp_path / "na.json")
    save_xdeepfm(train_xdeepfm(xor, net_cfg), tmp_path / "nb.json")
    assert (tmp_path / "na.json").read_bytes() == (tmp_path / "nb.json").read_bytes()
    net = load_xdeepfm(tmp_path / "na.json")
    again = train_xdeepfm(xor, net_cfg)
    assert np.array_equal(
        forward(net, xor.cat_indices, xor.dense), forward(again, xor.cat_indices, xor.dense)
    )
    _passed(7, "identical seeded runs give byte-identical files; load equals in-memory bitwise")


def test_criterion_8_interaction_learnability():
    dm = xor_design_matrix()
    net = train_xdeepfm(dm, XOR_CONFIG)
    net_auc = auc(dm.labels, forward(net, dm.cat_indices, dm.dense))
    assert net_auc >= 0.95, f"xdeepfm XOR training AUC {net_auc:.3f} < 0.95"

    ft_like_dense = np.zeros((dm.labels.size, 4))
    # one-hot the two fields by hand for the tree path
    for j, field in enumerate(dm.cat_indices.T):
        for value in (1, 2):
            ft_like_dense[:, 2 * j + (value - 1)] = (field == value).astype(float)
    from test_gbdt import _dm

    stump_dm = _dm(ft_like_dense, dm.labels)
    stump = train_gbdt(stump_dm, GBDTConfig(n_trees=1, max_depth=1, min_child_hessian=0.0))
    stump_auc = auc(dm.labels, predict_gbdt(stump, ft_like_dense))
    assert stump_auc <= 0.75, f"depth-1 single tree unexpectedly ranked XOR: {stump_auc:.3f}"
    _passed(8, f"xdfm XOR AUC {net_auc:.3f} >= 0.95; depth-1 single-tree AUC {stump_auc:.3f} <= 0.75")
