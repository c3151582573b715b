import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import (
    brute_force_tree,
    brute_tree_predict,
    minimize_leaf_objective,
    split_gain_by_objective,
)
from tabfusion.dataset import DesignMatrix
from tabfusion.gbdt import (
    GBDTConfig,
    GBDTModel,
    Leaf,
    RegTree,
    Split,
    _tree_values,
    build_tree,
    feature_importance,
    gbdt_from_dict,
    gbdt_to_dict,
    grad_hess,
    leaf_weight,
    predict_gbdt,
    split_gain,
    train_gbdt,
)
from tabfusion.metrics import auc, bce, clip_probs


def _dm(X, y) -> DesignMatrix:
    X = np.asarray(X, dtype=np.float64)
    return DesignMatrix(
        dense=X,
        cat_indices=np.zeros((X.shape[0], 0), dtype=np.int64),
        labels=np.asarray(y, dtype=np.int64),
        dense_names=tuple(f"f{i}" for i in range(X.shape[1])),
        cat_cardinalities=(),
    )


def _logistic(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z))


def test_grad_hess_spot_values():
    g, h = grad_hess(1.0, 0.5)
    assert float(g) == -0.5 and float(h) == 0.25
    g, h = grad_hess(0.0, 1e-12)
    assert abs(float(g)) < 1e-11 and abs(float(h)) < 1e-11


def test_grad_hess_matches_finite_differences_of_the_loss():
    for y, p in [(1.0, 0.5), (1.0, 0.9), (0.0, 0.3)]:
        z = math.log(p / (1.0 - p))

        def loss(t: float) -> float:
            q = _logistic(t)
            return -(y * math.log(q) + (1.0 - y) * math.log(1.0 - q))

        eps = 1e-5
        g_fd = (loss(z + eps) - loss(z - eps)) / (2.0 * eps)
        h_fd = (loss(z + eps) - 2.0 * loss(z) + loss(z - eps)) / eps**2
        g, h = grad_hess(y, p)
        assert float(g) == pytest.approx(g_fd, abs=1e-8)
        assert float(h) == pytest.approx(h_fd, abs=1e-4)


def test_leaf_weight_spot_values():
    assert leaf_weight(-2.0, 1.0, 0.0, 1.0) == 1.0
    assert leaf_weight(0.0, 1.0, 0.0, 1.0) == 0.0
    assert leaf_weight(0.0, 1.0, 5.0, 3.0) == 0.0
    assert leaf_weight(-2.0, 1.0, 3.0, 1.0) == 0.0  # |G| < lambda1 kills the leaf
    with pytest.raises(ValueError):
        leaf_weight(1.0, -2.0, 0.0, 1.0)


@given(
    st.floats(-50.0, 50.0),
    st.floats(0.0, 100.0),
    st.floats(0.0, 30.0),
    st.floats(0.0, 30.0),
)
@settings(max_examples=200, deadline=None)
def test_leaf_weight_matches_numeric_minimization(g_sum, h_sum, lambda1, lambda2):
    assume(h_sum + lambda2 >= 0.1)
    w = leaf_weight(g_sum, h_sum, lambda1, lambda2)
    assert w == pytest.approx(minimize_leaf_objective(g_sum, h_sum, lambda1, lambda2), abs=1e-8)


@given(st.floats(-20.0, 20.0), st.floats(0.1, 50.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
@settings(deadline=None)
def test_leaf_weight_magnitude_shrinks_with_lambda2(g_sum, h_sum, lambda2, extra):
    small = abs(leaf_weight(g_sum, h_sum, 0.0, lambda2 + extra))
    large = abs(leaf_weight(g_sum, h_sum, 0.0, lambda2))
    assert small <= large + 1e-15


def test_split_gain_spot_values():
    assert split_gain(0.0, 1.0, 0.0, 1.0, 1.0, 0.5) == -0.5  # only the penalty remains
    gain = split_gain(-2.0, 1.0, 2.0, 1.0, 1.0, 0.0)
    assert gain == pytest.approx(2.0, abs=1e-12)
    assert gain == pytest.approx(split_gain_by_objective(-2.0, 1.0, 2.0, 1.0, 1.0, 0.0), abs=1e-8)
    assert split_gain(-2.0, 1.0, 2.0, 1.0, 1.0, 2.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        split_gain(1.0, -2.0, 1.0, 1.0, 0.0, 0.0)


@given(
    st.floats(-20.0, 20.0),
    st.floats(0.05, 20.0),
    st.floats(-20.0, 20.0),
    st.floats(0.05, 20.0),
    st.floats(0.0, 10.0),
    st.floats(0.0, 3.0),
)
@settings(max_examples=150, deadline=None)
def test_split_gain_matches_objective_difference(gl, hl, gr, hr, lambda2, gamma):
    assume(hl + lambda2 >= 0.1 and hr + lambda2 >= 0.1)
    assert split_gain(gl, hl, gr, hr, lambda2, gamma) == pytest.approx(
        split_gain_by_objective(gl, hl, gr, hr, lambda2, gamma), abs=1e-8
    )


def test_build_tree_zero_gradients_single_leaf():
    X = np.arange(8.0).reshape(-1, 1)
    tree = build_tree(X, np.zeros(8), np.full(8, 0.25), GBDTConfig(min_child_hessian=0.0))
    assert isinstance(tree.root, Leaf)
    assert tree.root.weight == 0.0
    assert tree.n_leaves == 1


def test_build_tree_sign_split_matches_brute_force():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    g = np.array([-1.0, -1.0, 1.0, 1.0])
    h = np.full(4, 0.25)
    cfg = GBDTConfig(max_depth=1, min_child_hessian=0.0)
    tree = build_tree(X, g, h, cfg)
    oracle = brute_force_tree(X, g, h, cfg)
    assert isinstance(tree.root, Split)
    assert oracle[0] == "split"
    assert tree.root.feature == oracle[1]
    assert tree.root.threshold == oracle[2] == 1.5
    assert np.allclose(_tree_values(tree.root, X), brute_tree_predict(oracle, X), atol=1e-9)


def test_build_tree_depth_zero_is_single_leaf():
    X = np.array([[0.0], [1.0]])
    g = np.array([-2.0, 1.0])
    h = np.array([0.5, 0.5])
    cfg = GBDTConfig(max_depth=0, lambda1=0.0, lambda2=1.0)
    tree = build_tree(X, g, h, cfg)
    assert isinstance(tree.root, Leaf)
    assert tree.root.weight == leaf_weight(-1.0, 1.0, 0.0, 1.0)


def test_build_tree_rejects_empty_or_misaligned():
    with pytest.raises(ValueError):
        build_tree(np.zeros((0, 2)), np.zeros(0), np.zeros(0), GBDTConfig())
    with pytest.raises(ValueError):
        build_tree(np.zeros((3, 2)), np.zeros(2), np.zeros(3), GBDTConfig())
    X = np.arange(6.0).reshape(3, 2)
    g, h = np.array([-1.0, 0.0, 1.0]), np.full(3, 0.25)
    cfg = GBDTConfig(min_child_hessian=0.0)
    build_tree(X, g, h, cfg)  # the finite inputs are fine
    for bad in (np.nan, np.inf, -np.inf):
        for X_bad, g_bad, h_bad in [
            (np.where(X == 2.0, bad, X), g, h),
            (X, np.where(g == 0.0, bad, g), h),
            (X, g, np.where(np.arange(3) == 1, bad, h)),
        ]:
            with pytest.raises(ValueError):
                build_tree(X_bad, g_bad, h_bad, cfg)


def _same_tree(node, oracle) -> bool:
    """Same features and thresholds, node for node, and leaf weights within 1e-9."""
    if isinstance(node, Leaf):
        return oracle[0] == "leaf" and abs(node.weight - oracle[1]) <= 1e-9
    return (
        oracle[0] == "split"
        and (node.feature, node.threshold) == oracle[1:3]
        and _same_tree(node.left, oracle[3])
        and _same_tree(node.right, oracle[4])
    )


def test_build_tree_matches_brute_force_randomized():
    rng = np.random.default_rng(1234)
    hessian_bound = 0  # trials where min_child_hessian changes the oracle's tree
    for trial in range(60):
        n = int(rng.integers(2, 41))
        d = int(rng.integers(1, 5))
        X = rng.normal(size=(n, d))
        for f in range(d):
            kind = rng.integers(0, 5)
            if kind == 1:
                X[:, f] = rng.integers(0, 3, size=n)  # many tied values
            elif kind == 2:
                X[:, f] = np.round(X[:, f], 1)  # a few ties among many values
            elif kind == 3:
                X[:, f] = -0.5  # constant: no candidate at all
            elif kind == 4 and f > 0:
                X[:, f] = X[:, f - 1]  # equal gains: the lower feature must win
        # g and h on a 1/32 grid: every gradient sum is exact in any order, so
        # equal gains tie exactly in both searches and only the tie rule decides
        g = rng.integers(-64, 65, size=n) / 32.0
        h = rng.integers(2, 33, size=n) / 32.0
        cfg = GBDTConfig(
            max_depth=int(rng.integers(1, 4)),
            lambda1=float(rng.uniform(0.0, 0.5)),
            lambda2=float(rng.uniform(0.0, 2.0)),
            gamma=float(rng.uniform(0.0, 0.2)),
            min_child_hessian=0.0 if trial % 2 == 0 else float(rng.uniform(0.2, 3.0)),
        )
        tree = build_tree(X, g, h, cfg)
        oracle = brute_force_tree(X, g, h, cfg)
        assert _same_tree(tree.root, oracle), f"trial {trial} diverged from exhaustive search"
        assert np.allclose(_tree_values(tree.root, X), brute_tree_predict(oracle, X), atol=1e-9)
        if cfg.min_child_hessian > 0.0:
            unbounded = brute_force_tree(X, g, h, replace(cfg, min_child_hessian=0.0))
            hessian_bound += not _same_tree(tree.root, unbounded)
    assert hessian_bound >= 5, "min_child_hessian constrained too few of the compared trees"


def test_ranked_training_path_matches_raw_build_tree():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(80, 4))
    X[:, 1] = rng.integers(0, 4, size=80)
    X[:, 3] = np.round(X[:, 3], 1)
    y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(size=80) > 1.0).astype(int)
    cfg = GBDTConfig(n_trees=0, max_depth=3, lambda1=0.1, min_child_hessian=0.5)
    for k in (0, 1, 5):
        model = train_gbdt(_dm(X, y), replace(cfg, n_trees=k))
        g, h = grad_hess(y, clip_probs(predict_gbdt(model, X)))
        raw_tree = build_tree(X, g, h, cfg)
        ranked_tree = train_gbdt(_dm(X, y), replace(cfg, n_trees=k + 1)).trees[k]
        assert isinstance(raw_tree.root, Split)
        assert raw_tree == ranked_tree  # same features, thresholds, gains and leaf weights


def test_build_tree_large_lambda1_zeroes_all_leaves():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(20, 3))
    g = rng.normal(size=20)
    h = rng.uniform(0.1, 1.0, size=20)
    cfg = GBDTConfig(max_depth=3, lambda1=abs(g).sum() + 1.0, min_child_hessian=0.0)
    tree = build_tree(X, g, h, cfg)

    def leaves(node):
        if isinstance(node, Leaf):
            return [node.weight]
        return leaves(node.left) + leaves(node.right)

    assert all(w == 0.0 for w in leaves(tree.root))


def test_train_separable_toy_reaches_perfect_training_auc():
    x = np.linspace(0.0, 1.0, 20).reshape(-1, 1)
    y = (x[:, 0] > 0.5).astype(int)
    dm = _dm(x, y)
    model = train_gbdt(dm, GBDTConfig(n_trees=10, max_depth=2, min_child_hessian=0.0))
    assert auc(y, predict_gbdt(model, x)) == 1.0


def test_train_zero_trees_predicts_base_rate():
    dm = _dm(np.arange(10.0).reshape(-1, 1), [0, 1] * 5)
    model = train_gbdt(dm, GBDTConfig(n_trees=0))
    assert np.all(predict_gbdt(model, dm.dense) == 0.5)


def test_training_bce_never_increases():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(int)
    dm = _dm(X, y)
    base = train_gbdt(dm, GBDTConfig(n_trees=0))
    trained = train_gbdt(dm, GBDTConfig(n_trees=30, min_child_hessian=0.0))
    assert bce(y, predict_gbdt(trained, X)) <= bce(y, predict_gbdt(base, X))


def test_train_requires_both_classes():
    with pytest.raises(ValueError):
        train_gbdt(_dm(np.zeros((4, 1)), [1, 1, 1, 1]), GBDTConfig())


def test_train_is_deterministic():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(30, 4))
    y = (X[:, 1] > 0).astype(int)
    cfg = GBDTConfig(n_trees=15, max_depth=3, min_child_hessian=0.0)
    a = json.dumps(gbdt_to_dict(train_gbdt(_dm(X, y), cfg)))
    b = json.dumps(gbdt_to_dict(train_gbdt(_dm(X, y), cfg)))
    assert a == b


def test_predict_single_leaf_tree():
    cfg = GBDTConfig(n_trees=1, learning_rate=1.0, base_score=0.5)
    model = GBDTModel(
        config=cfg,
        base_score=0.5,
        trees=[RegTree(root=Leaf(weight=0.5), n_leaves=1)],
        feature_names=("f0",),
    )
    expected = _logistic(0.5)
    assert predict_gbdt(model, [[3.0]])[0] == pytest.approx(expected, abs=1e-15)


def test_predict_is_row_equivariant():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(25, 2))
    y = (X[:, 0] > 0).astype(int)
    model = train_gbdt(_dm(X, y), GBDTConfig(n_trees=8, min_child_hessian=0.0))
    perm = rng.permutation(25)
    assert np.array_equal(predict_gbdt(model, X[perm]), predict_gbdt(model, X)[perm])


def test_predict_width_mismatch_rejected():
    model = train_gbdt(_dm(np.arange(8.0).reshape(-1, 2), [0, 1, 0, 1]), GBDTConfig(n_trees=1))
    with pytest.raises(ValueError):
        predict_gbdt(model, np.zeros((2, 5)))
    for bad in (np.nan, np.inf, -np.inf):  # non-finite rows must not silently take a branch
        with pytest.raises(ValueError):
            predict_gbdt(model, [[0.0, 1.0], [bad, 1.0]])


def _leaf() -> Leaf:
    return Leaf(weight=0.0)


def test_feature_importance_single_split():
    tree = RegTree(root=Split(feature=3, threshold=0.5, gain=1.7, left=_leaf(), right=_leaf()), n_leaves=2)
    model = GBDTModel(GBDTConfig(), 0.5, [tree], ("a", "b", "c", "d"))
    assert feature_importance(model).tolist() == [0.0, 0.0, 0.0, 1.0]


def test_feature_importance_zero_trees():
    model = GBDTModel(GBDTConfig(), 0.5, [], ("a", "b"))
    assert feature_importance(model).tolist() == [0.0, 0.0]


def test_feature_importance_hand_normalized():
    t1 = RegTree(root=Split(feature=0, threshold=0.5, gain=2.0, left=_leaf(), right=_leaf()), n_leaves=2)
    t2 = RegTree(root=Split(feature=1, threshold=0.5, gain=6.0, left=_leaf(), right=_leaf()), n_leaves=2)
    model = GBDTModel(GBDTConfig(), 0.5, [t1, t2], ("a", "b"))
    assert feature_importance(model).tolist() == [0.25, 0.75]


def test_serialization_round_trip_preserves_predictions():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(30, 3))
    y = (X[:, 2] > 0).astype(int)
    model = train_gbdt(_dm(X, y), GBDTConfig(n_trees=12, min_child_hessian=0.0))
    restored = gbdt_from_dict(json.loads(json.dumps(gbdt_to_dict(model))))
    assert np.array_equal(predict_gbdt(model, X), predict_gbdt(restored, X))


def test_from_dict_rejects_wrong_version_or_kind():
    model = train_gbdt(_dm(np.arange(8.0).reshape(-1, 2), [0, 1, 0, 1]), GBDTConfig(n_trees=1))
    d = gbdt_to_dict(model)
    with pytest.raises(ValueError):
        gbdt_from_dict({**d, "format_version": 99})
    with pytest.raises(ValueError):
        gbdt_from_dict({**d, "kind": "other"})
