import copy
import json
import math
from dataclasses import replace
from pathlib import Path

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
from tabfusion import cli, gbdt
from tabfusion.dataset import (
    DesignMatrix,
    Schema,
    TabularDataset,
    apply_transform,
    fit_transform,
    load_csv,
    stratified_split,
)
from tabfusion.gbdt import (
    _BLOCK_ROWS,
    _NODE_IDS,
    FOREST_ARRAYS,
    Forest,
    GBDTConfig,
    GBDTModel,
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
from tabfusion.metrics import auc, bce, clip_probs, logit, sigmoid


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


def _leaf(weight: float) -> Forest:
    """A one-tree forest that is a single leaf."""
    return Forest(roots=[0], feature=[-1], threshold=[0.0], gain=[0.0], right=[0], value=[weight])


def stack_trees(trees) -> Forest:
    """One forest of ``trees`` in order, each tree's node ids offset past the trees before it."""
    offsets = np.cumsum([0] + [t.feature.size for t in trees])

    def stacked(name: str) -> np.ndarray:
        parts = [getattr(t, name) for t in trees]
        if name in _NODE_IDS:  # only ids: adding 0 to a weight would turn -0.0 into 0.0
            parts = [a + o for a, o in zip(parts, offsets)]
        return np.concatenate([np.empty(0, np.intp)] + parts)

    return Forest(**{name: stacked(name) for name in FOREST_ARRAYS})


def _stump(feature: int, threshold: float, gain: float, low: float = 0.0, high: float = 0.0) -> Forest:
    """A one-tree forest with one split: rows with x[feature] < threshold score ``low``."""
    return Forest(
        roots=[0],
        feature=[feature, -1, -1],
        threshold=[threshold, 0.0, 0.0],
        gain=[gain, 0.0, 0.0],
        right=[2, 1, 2],
        value=[0.0, low, high],
    )


def _tree(forest: Forest, k: int) -> dict:
    """Tree k of a forest as per-node arrays with ids counted from its root."""
    ends = np.append(forest.roots[1:], forest.feature.size)
    lo, hi = forest.roots[k], ends[k]
    arrays = {name: getattr(forest, name)[lo:hi] for name in FOREST_ARRAYS if name != "roots"}
    arrays.update(roots=np.array([0]), right=arrays["right"] - lo)
    return arrays


def _walk_by_hand(tree: dict, row) -> float:
    """The leaf weight one row reaches, one node at a time; a split's left child is the next node."""
    i = 0
    while tree["feature"][i] >= 0:
        i = i + 1 if row[tree["feature"][i]] < tree["threshold"][i] else tree["right"][i]
    return float(tree["value"][i])


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
    assert tree.feature.tolist() == [-1] and tree.right.tolist() == [0] and tree.children.tolist() == [0, 0]
    assert tree.value[0] == 0.0
    assert tree.n_leaves == 1 and tree.depth == 0


def test_build_tree_sign_split_matches_brute_force():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    g = np.array([-1.0, -1.0, 1.0, 1.0])
    h = np.full(4, 0.25)
    cfg = GBDTConfig(max_depth=1, min_child_hessian=0.0)
    tree = build_tree(X, g, h, cfg)
    oracle = brute_force_tree(X, g, h, cfg)
    assert oracle[0] == "split"
    assert _same_tree(tree, oracle)
    assert tree.feature.tolist() == [oracle[1], -1, -1]
    assert tree.threshold[0] == oracle[2] == 1.5
    assert np.allclose(_tree_values(tree, X), brute_tree_predict(oracle, X), atol=1e-9)


def test_build_tree_depth_zero_is_single_leaf():
    X = np.array([[0.0], [1.0]])
    g = np.array([-2.0, 1.0])
    h = np.array([0.5, 0.5])
    cfg = GBDTConfig(max_depth=0, lambda1=0.0, lambda2=1.0)
    tree = build_tree(X, g, h, cfg)
    assert tree.feature.tolist() == [-1]
    assert tree.value[0] == leaf_weight(-1.0, 1.0, 0.0, 1.0)


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


def _oracle_arrays(oracle) -> dict:
    """The oracle's nested tree in the Forest layout: preorder ids, leaves as self-loops."""
    nodes = []

    def add(node) -> None:
        i = len(nodes)
        nodes.append(None)
        if node[0] == "leaf":
            nodes[i] = (-1, 0.0, i, node[1])
            return
        add(node[3])  # the left child is the next node
        right = len(nodes)
        add(node[4])
        nodes[i] = (node[1], node[2], right, 0.0)

    add(oracle)
    return {k: np.array(v) for k, v in zip(("feature", "threshold", "right", "value"), zip(*nodes))}


def _same_tree(tree, oracle) -> bool:
    """Same layout, features and thresholds, node for node, and leaf weights within 1e-9."""
    want = _oracle_arrays(oracle)
    return all(
        np.array_equal(getattr(tree, k), want[k]) for k in ("feature", "threshold", "right")
    ) and bool(np.allclose(tree.value, want["value"], rtol=0.0, atol=1e-9))


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
        assert _same_tree(tree, oracle), f"trial {trial} diverged from exhaustive search"
        assert np.allclose(_tree_values(tree, X), brute_tree_predict(oracle, X), atol=1e-9)
        if cfg.min_child_hessian > 0.0:
            unbounded = brute_force_tree(X, g, h, replace(cfg, min_child_hessian=0.0))
            hessian_bound += not _same_tree(tree, unbounded)
    assert hessian_bound >= 5, "min_child_hessian constrained too few of the compared trees"


def _node_rows(tree: Forest, X) -> list:
    """The rows that reach each node of a one-tree forest, by node id."""
    rows = [None] * tree.feature.size

    def visit(i: int, idx: np.ndarray) -> None:
        rows[i] = idx
        if tree.feature[i] >= 0:
            low = X[idx, tree.feature[i]] < tree.threshold[i]
            visit(i + 1, idx[low])  # the left child is the next node
            visit(tree.right[i], idx[~low])

    visit(0, np.arange(X.shape[0]))
    return rows


def test_build_tree_on_mixed_bin_counts_matches_brute_force():
    # The split search reuses the root's bins and takes prefix sums only over
    # columns with more than two bins at the root. Tables mix a constant
    # column, two-valued columns and many-valued columns, one of which takes
    # only two values where the first two-valued column is 1.
    rng = np.random.default_rng(4321)
    pair_nodes = 0  # searched non-root nodes that hold two values of a many-valued column
    for trial in range(40):
        n = int(rng.integers(8, 41))
        flag = rng.integers(0, 2, size=n).astype(float)
        columns = [np.full(n, 0.25), flag]
        columns += [rng.integers(0, 2, size=n).astype(float) for _ in range(int(rng.integers(0, 3)))]
        columns.append(np.where(flag == 1, rng.integers(0, 2, size=n), rng.integers(2, 6, size=n)).astype(float))
        columns.append(np.round(rng.normal(size=n), 1))
        columns.append(rng.integers(0, int(rng.integers(3, 8)), size=n).astype(float))
        X = np.stack([columns[k] for k in rng.permutation(len(columns))], axis=1)
        # g on a 1/32 grid (exact sums in any order), pulled apart by the flag
        g = (rng.integers(-16, 17, size=n) + np.where(flag == 1, -40, 40)) / 32.0
        h = rng.integers(2, 33, size=n) / 32.0
        cfg = GBDTConfig(
            max_depth=int(rng.integers(2, 4)),
            lambda1=float(rng.uniform(0.0, 0.5)),
            lambda2=float(rng.uniform(0.0, 2.0)),
            min_child_hessian=0.0 if trial % 2 == 0 else float(rng.uniform(0.2, 1.5)),
        )
        tree = build_tree(X, g, h, cfg)
        oracle = brute_force_tree(X, g, h, cfg)
        assert _same_tree(tree, oracle), f"trial {trial} diverged from exhaustive search"
        many_valued = [f for f in range(X.shape[1]) if np.unique(X[:, f]).size > 2]
        depth = {0: 0}
        for i, idx in enumerate(_node_rows(tree, X)):
            if tree.feature[i] >= 0:
                depth[i + 1] = depth[tree.right[i]] = depth[i] + 1
            searched = 0 < depth[i] < cfg.max_depth and idx.size >= 2
            pair_nodes += searched and any(np.unique(X[idx, f]).size == 2 for f in many_valued)
    assert pair_nodes >= 10, "too few searched nodes held two values of a many-valued column"


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
        ranked_tree = _tree(train_gbdt(_dm(X, y), replace(cfg, n_trees=k + 1)).forest, k)
        assert raw_tree.feature[0] >= 0
        for name in FOREST_ARRAYS:  # same layout, features, thresholds, gains and leaf weights
            assert np.array_equal(getattr(raw_tree, name), ranked_tree[name]), name


def test_build_tree_large_lambda1_zeroes_all_leaves():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(20, 3))
    g = rng.normal(size=20)
    h = rng.uniform(0.1, 1.0, size=20)
    cfg = GBDTConfig(max_depth=3, lambda1=abs(g).sum() + 1.0, min_child_hessian=0.0)
    tree = build_tree(X, g, h, cfg)
    assert tree.n_leaves > 1
    assert np.all(tree.value[tree.feature < 0] == 0.0)


@given(
    st.integers(1, 30).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=1, max_size=3),
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.lists(st.floats(0.0, 1e6, exclude_min=True), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_bins_with_a_positive_hessian_sum_are_the_bins_holding_rows(table):
    # the split search finds a node's bins from its hessian sums, never from row counts
    columns, keep, h = table
    ranked = gbdt.rank_features(np.array(columns, dtype=np.float64).T)
    idx = np.flatnonzero(keep)
    flat = ranked.bins[idx].ravel()
    n_bins = ranked.values.size
    by_hessian = np.bincount(flat, weights=np.repeat(np.array(h)[idx], ranked.bins.shape[1]), minlength=n_bins) > 0.0
    assert np.array_equal(by_hessian, np.bincount(flat, minlength=n_bins) > 0)


def test_node_below_twice_min_child_hessian_is_not_searched_and_agrees_with_brute_force():
    # h_total - min_child_hessian < min_child_hessian returns before any histogram;
    # at h_total == 2 * min_child_hessian the search still runs and may split evenly
    X = np.array([[0.0], [1.0]])
    g, h = np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    assert build_tree(X, g, h, GBDTConfig(max_depth=1, min_child_hessian=0.5)).feature.tolist() == [0, -1, -1]
    assert build_tree(X, g, h, GBDTConfig(max_depth=1, min_child_hessian=np.nextafter(0.5, 1.0))).n_leaves == 1
    rng = np.random.default_rng(77)
    searched = split = 0
    for trial in range(120):
        n = int(rng.integers(2, 13))
        X = rng.integers(0, 4, size=(n, int(rng.integers(1, 3)))).astype(float)
        g = rng.integers(-64, 65, size=n) / 32.0  # dyadic: every sum is exact, so hr == h_total - hl
        h = rng.integers(1, 33, size=n) / 32.0
        if trial % 2:  # equal hessians over distinct values: an even split meets the bound exactly
            X[:, 0], h = rng.permutation(n), np.full(n, h[0])
        half = float(h.sum()) / 2.0
        for bound in (half - 1 / 32, np.nextafter(half, 0.0), half, np.nextafter(half, np.inf), half + 1 / 32):
            cfg = GBDTConfig(max_depth=int(rng.integers(1, 4)), lambda2=1.0, min_child_hessian=float(bound))
            tree = build_tree(X, g, h, cfg)
            assert _same_tree(tree, brute_force_tree(X, g, h, cfg)), f"trial {trial}, bound {bound!r}"
            searched += bound <= half
            split += bound == half and tree.n_leaves > 1
    assert searched >= 300 and split >= 10, "too few roots split at exactly twice the bound"


def test_build_tree_rejects_a_zero_or_negative_hessian():
    X = np.arange(6.0).reshape(3, 2)
    g = np.array([-1.0, 0.0, 1.0])
    build_tree(X, g, np.full(3, 5e-324), GBDTConfig(min_child_hessian=0.0))  # any positive hessian is fine
    for bad in (0.0, -0.0, -1e-300, -0.25):
        with pytest.raises(ValueError, match="positive"):
            build_tree(X, g, np.where(np.arange(3) == 1, bad, 0.25), GBDTConfig(min_child_hessian=0.0))


def _boost_with_build_tree(X, y, cfg: GBDTConfig) -> list:
    """The trees of a boosting run made one ``build_tree`` call and one ``_tree_values`` walk per step."""
    raw = np.full(len(y), logit(float(np.mean(y))))
    trees = []
    for _ in range(cfg.n_trees):
        g, h = grad_hess(y, clip_probs(sigmoid(raw)))
        trees.append(build_tree(X, g, h, cfg))
        raw += cfg.learning_rate * _tree_values(trees[-1], X)
    return trees


@pytest.mark.parametrize(
    "cfg",
    [
        GBDTConfig(n_trees=12, max_depth=3, lambda1=0.05, min_child_hessian=0.3),
        GBDTConfig(n_trees=6, max_depth=4, min_child_hessian=0.0, learning_rate=1.0),
        GBDTConfig(n_trees=0),
        GBDTConfig(n_trees=5, max_depth=0),
    ],
    ids=["stock-like", "deep-full-rate", "no-trees", "stumps-of-depth-0"],
)
def test_train_gbdt_forest_equals_stacked_per_step_build_tree_trees(cfg):
    rng = np.random.default_rng(17)
    X = rng.normal(size=(90, 4))
    X[:, 1] = rng.integers(0, 3, size=90)
    X[:, 2] = np.round(X[:, 2], 1)
    y = (X[:, 0] + 0.4 * X[:, 1] + rng.normal(size=90) > 0.5).astype(int)
    forest = train_gbdt(_dm(X, y), cfg).forest
    stacked = stack_trees(_boost_with_build_tree(X, y, cfg))
    for name in FOREST_ARRAYS:  # bytes, so a -0.0 against a 0.0 would differ too
        got, want = getattr(forest, name), getattr(stacked, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert (forest.depth, forest.children.tobytes()) == (stacked.depth, stacked.children.tobytes())
    assert forest.roots.size == cfg.n_trees


def test_train_separable_toy_reaches_perfect_training_auc():
    x = np.linspace(0.0, 1.0, 20).reshape(-1, 1)
    y = (x[:, 0] > 0.5).astype(int)
    dm = _dm(x, y)
    model = train_gbdt(dm, GBDTConfig(n_trees=10, max_depth=2, min_child_hessian=0.0))
    assert auc(y, predict_gbdt(model, x)) == 1.0


def test_train_separates_a_non_monotone_categorical_on_its_index_column():
    """The middle of three categories is the positive one: two splits on the field's one index column find it."""
    schema = Schema(columns=(("x", "numeric"), ("c", "categorical"), ("t", "target")))
    rows = tuple((str(i % 2), c, "1" if c == "b" else "0") for i, c in enumerate("abc" * 4))
    ft, dm = fit_transform(TabularDataset(schema, rows))
    assert dm.dense_names == ("x", "c") and dm.dense[:3, 1].tolist() == [1.0, 2.0, 3.0]
    model = train_gbdt(dm, GBDTConfig(n_trees=10, max_depth=2, min_child_hessian=0.0))
    assert auc(dm.labels, predict_gbdt(model, dm.dense)) == 1.0
    assert feature_importance(model).tolist() == [0.0, 1.0]
    # an unseen category takes index 0, below every seen one, so it scores as the first-seen category
    other = apply_transform(ft, TabularDataset(schema, (("0", "zzz", "0"), ("0", "a", "0"))))
    p = predict_gbdt(model, other.dense)
    assert other.dense[0, 1] == 0.0 and p[0] == p[1]


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


def _fit_recording(monkeypatch, dm, cfg, val):
    """train_gbdt(dm, cfg, val), the validation loglosses its stop rule read, and the number of trees it grew."""
    losses, depths = [], []
    real_bce, real_grow = gbdt.bce, gbdt._grow

    def recording_bce(y, p):
        losses.append(real_bce(y, p))
        return losses[-1]

    def counting_grow(ranked, idx, g, h, depth, *rest):  # _grow calls itself through the module too
        depths.append(depth)
        return real_grow(ranked, idx, g, h, depth, *rest)

    with monkeypatch.context() as m:
        m.setattr(gbdt, "bce", recording_bce)
        m.setattr(gbdt, "_grow", counting_grow)
        model = train_gbdt(dm, cfg, val)
    return model, losses, depths.count(0)


def _check_early_stopping(monkeypatch, dm, cfg, val) -> int:
    """The oracle of early stopping on one fit; returns the number of trees kept."""
    model, losses, grown = _fit_recording(monkeypatch, dm, cfg, val)
    k = model.forest.roots.size
    full = train_gbdt(dm, cfg).forest  # without validation rows: all n_trees trees
    assert full.roots.size == cfg.n_trees
    end = full.roots[k] if k < full.roots.size else full.feature.size
    prefix = Forest(full.roots[:k], *(getattr(full, name)[:end] for name in FOREST_ARRAYS[1:]))
    for name in FOREST_ARRAYS:  # the first k trees of the fit without early stopping, node for node
        got, want = getattr(model.forest, name), getattr(prefix, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    # losses[t] is the logloss of the first t trees; k is its first minimum
    assert len(losses) == grown + 1 and k == losses.index(min(losses))
    assert grown == min(cfg.n_trees, k + gbdt._EARLY_STOPPING_ROUNDS)
    assert losses[k] == bce(val.labels, predict_gbdt(model, val.dense))  # the margins are predict_gbdt's
    assert model.config == cfg
    return k


@pytest.mark.parametrize("seed", range(6))
def test_early_stopping_keeps_the_first_trees_of_a_full_fit_up_to_the_lowest_validation_logloss(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(160, 4))
    X[:, 1] = rng.integers(0, 3, size=160)
    X[:, 2] = np.round(X[:, 2], 1)
    y = (X[:, 0] + 0.4 * X[:, 1] + 1.5 * rng.normal(size=160) > 0.5).astype(int)  # noisy, so boosting overfits
    monkeypatch.setattr(gbdt, "_EARLY_STOPPING_ROUNDS", int(rng.integers(1, 6)))  # a short patience, so it stops
    cfg = GBDTConfig(n_trees=40, max_depth=3, learning_rate=0.3)
    assert _check_early_stopping(monkeypatch, _dm(X[:110], y[:110]), cfg, _dm(X[110:], y[110:])) < cfg.n_trees


def test_early_stopping_on_the_stock_split(monkeypatch, stroke_csv):
    cfg = cli.load_run_config(Path(__file__).resolve().parents[1] / "configs" / "stroke.conf", data=stroke_csv)
    train_all, _ = stratified_split(load_csv(cfg.data, cfg.schema), cfg.test_fraction, cfg.seed)
    fit_rows, val_rows = stratified_split(train_all, cfg.val_fraction, cfg.seed + 1)  # as `run` splits
    ft, dm = fit_transform(fit_rows)
    assert 0 < _check_early_stopping(monkeypatch, dm, cfg.gbdt, apply_transform(ft, val_rows)) < cfg.gbdt.n_trees


def test_early_stopping_keeps_the_earlier_prefix_on_a_tie(monkeypatch):
    # one Newton step from base 0.1 brings the gradient sum under lambda1, so every later tree is a zero leaf
    X = np.arange(20.0).reshape(-1, 1)
    cfg = GBDTConfig(n_trees=50, max_depth=0, learning_rate=1.0, lambda1=4.0, lambda2=0.0, base_score=0.1)
    val = _dm(X[:6], [0, 1, 1, 0, 0, 1])
    model, losses, grown = _fit_recording(monkeypatch, _dm(X, [0, 1] * 10), cfg, val)
    rounds = gbdt._EARLY_STOPPING_ROUNDS
    assert losses[1] < losses[0] and losses[1:] == [losses[1]] * (rounds + 1)
    assert model.forest.roots.size == 1 and grown == rounds + 1
    assert _check_early_stopping(monkeypatch, _dm(X, [0, 1] * 10), cfg, val) == 1


def test_predict_single_leaf_tree():
    cfg = GBDTConfig(n_trees=1, learning_rate=1.0, base_score=0.5)
    model = GBDTModel(config=cfg, base_score=0.5, forest=_leaf(0.5), feature_names=("f0",))
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


def test_feature_importance_single_split():
    tree = _stump(feature=3, threshold=0.5, gain=1.7)
    model = GBDTModel(GBDTConfig(), 0.5, tree, ("a", "b", "c", "d"))
    assert feature_importance(model).tolist() == [0.0, 0.0, 0.0, 1.0]


def test_feature_importance_zero_trees():
    model = GBDTModel(GBDTConfig(), 0.5, stack_trees([]), ("a", "b"))
    assert feature_importance(model).tolist() == [0.0, 0.0]


def test_feature_importance_hand_normalized():
    t1 = _stump(feature=0, threshold=0.5, gain=2.0)
    t2 = _stump(feature=1, threshold=0.5, gain=6.0)
    model = GBDTModel(GBDTConfig(), 0.5, stack_trees([t1, t2]), ("a", "b"))
    assert feature_importance(model).tolist() == [0.25, 0.75]


def test_serialization_round_trip_preserves_predictions():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(30, 3))
    y = (X[:, 2] > 0).astype(int)
    model = train_gbdt(_dm(X, y), GBDTConfig(n_trees=12, min_child_hessian=0.0))
    d = gbdt_to_dict(model)
    assert list(d["forest"]) == list(FOREST_ARRAYS) and "left" not in FOREST_ARRAYS
    restored = gbdt_from_dict(json.loads(json.dumps(d)))
    assert np.array_equal(restored.forest.children, model.forest.children)  # left derived again
    assert np.array_equal(predict_gbdt(model, X), predict_gbdt(restored, X))


def test_from_dict_rejects_wrong_version_or_kind():
    model = train_gbdt(_dm(np.arange(8.0).reshape(-1, 2), [0, 1, 0, 1]), GBDTConfig(n_trees=1))
    d = gbdt_to_dict(model)
    with pytest.raises(ValueError):
        gbdt_from_dict({**d, "format_version": 99})
    with pytest.raises(ValueError):
        gbdt_from_dict({**d, "kind": "other"})


def _boosted(n_trees: int = 12):
    rng = np.random.default_rng(31)
    X = rng.normal(size=(2 * _BLOCK_ROWS + 7, 4))  # more rows than one block, and a partial block
    X[:, 2] = rng.integers(0, 3, size=X.shape[0])
    y = (X[:, 0] - 0.5 * X[:, 2] + rng.normal(size=X.shape[0]) > 0).astype(int)
    cfg = GBDTConfig(n_trees=n_trees, max_depth=3, learning_rate=0.3, min_child_hessian=0.0)
    return train_gbdt(_dm(X, y), cfg), X


@pytest.mark.parametrize("k", [1, 7, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1])
def test_predict_batch_equals_row_by_row_bitwise(k):
    # however the batch is cut (k = 1 is row by row), every row scores the same bits
    model, X = _boosted()
    batch = predict_gbdt(model, X)
    pieces = [predict_gbdt(model, X[i : i + k]) for i in range(0, X.shape[0], k)]
    assert X.shape[0] > _BLOCK_ROWS
    assert np.array_equal(np.concatenate(pieces), batch)


def test_predict_adds_tree_outputs_in_tree_order_bitwise():
    model, X = _boosted()
    trees = [_tree(model.forest, k) for k in range(model.forest.roots.size)]
    raw = []
    for row in X:
        margin = logit(model.base_score)
        for tree in trees:  # one tree at a time, in boosting order
            margin += model.config.learning_rate * _walk_by_hand(tree, row)
        raw.append(margin)
    assert len(trees) == 12 and model.forest.depth == 3
    assert np.array_equal(predict_gbdt(model, X), sigmoid(np.array(raw)))


def test_predict_zero_tree_and_single_leaf_models():
    cfg = GBDTConfig(learning_rate=0.5)
    X = np.random.default_rng(2).normal(size=(_BLOCK_ROWS + 3, 2))
    X[::5, 1] = 0.0  # on the stump's threshold: these rows go right
    empty = GBDTModel(cfg, 0.3, stack_trees([]), ("a", "b"))
    assert empty.forest.depth == 0 and empty.forest.n_leaves == 0
    assert np.array_equal(predict_gbdt(empty, X), np.full(X.shape[0], sigmoid(logit(0.3))))
    assert predict_gbdt(empty, np.zeros((0, 2))).shape == (0,)
    leaves = GBDTModel(cfg, 0.3, stack_trees([_leaf(0.8), _leaf(-0.2)]), ("a", "b"))
    assert leaves.forest.roots.tolist() == [0, 1] and leaves.forest.depth == 0
    expected = sigmoid(logit(0.3) + 0.5 * 0.8 + 0.5 * -0.2)
    assert np.array_equal(predict_gbdt(leaves, X), np.full(X.shape[0], expected))
    mixed = GBDTModel(cfg, 0.3, stack_trees([_leaf(0.8), _stump(1, 0.0, 1.0, low=-1.0, high=2.0)]), ("a", "b"))
    assert mixed.forest.roots.tolist() == [0, 1] and mixed.forest.right.tolist() == [0, 3, 2, 3]
    assert mixed.forest.children.tolist() == [0, 0, 2, 3, 2, 2, 3, 3]  # [left, right] per node
    assert np.signbit(stack_trees([_leaf(0.8), _leaf(-0.0)]).value[1])  # weights are stacked as stored
    margins = logit(0.3) + 0.5 * 0.8 + 0.5 * np.where(X[:, 1] < 0.0, -1.0, 2.0)
    assert np.array_equal(predict_gbdt(mixed, X), sigmoid(margins))


def _rows_like_boosted(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    X[:, 2] = rng.integers(0, 3, size=n)
    return X


def _row_by_row(model, X) -> np.ndarray:
    return np.array([predict_gbdt(model, X[i : i + 1])[0] for i in range(X.shape[0])])


def test_predict_last_block_of_one_row_matches_row_by_row_bitwise():
    # NumPy sums a single contiguous column pairwise, not in order; the
    # one-row block must still add the trees one after another.
    model, _ = _boosted(40)
    X = _rows_like_boosted(2 * _BLOCK_ROWS + 1, seed=43)
    batch = predict_gbdt(model, X)
    assert np.array_equal(batch, _row_by_row(model, X))
    trees = [_tree(model.forest, k) for k in range(model.forest.roots.size)]
    for row, p in zip(X[-8:], batch[-8:]):
        margin = logit(model.base_score)
        for tree in trees:
            margin += model.config.learning_rate * _walk_by_hand(tree, row)
        assert p == sigmoid(margin)


def _small_model_dict() -> dict:
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    return gbdt_to_dict(train_gbdt(_dm(X, y), GBDTConfig(n_trees=3, max_depth=2, min_child_hessian=0.0)))


SMALL_MODEL = _small_model_dict()


def test_from_dict_rejects_malformed_forest_arrays():
    forest = SMALL_MODEL["forest"]
    assert len(forest["roots"]) == 3 and forest["feature"][0] >= 0 and forest["feature"][1] >= 0
    second = forest["roots"][1]
    leaf = forest["feature"].index(-1)
    last_split = max(i for i, f in enumerate(forest["feature"]) if f >= 0)
    n = len(forest["feature"])
    corruptions = {
        "unequal lengths": ("gain", forest["gain"][:-1]),
        "child points back (a cycle)": ("right", forest["right"][:1] + [0] + forest["right"][2:]),
        "child equals its parent": ("right", [0] + forest["right"][1:]),
        "child in the next tree": ("right", [second] + forest["right"][1:]),
        "child past the end": ("right", [n if i == last_split else r for i, r in enumerate(forest["right"])]),
        "leaf with a child": ("right", [r + (i == leaf) for i, r in enumerate(forest["right"])]),
        "a split as the last node of its tree": (
            "feature",
            forest["feature"][: second - 1] + [0] + forest["feature"][second:],
        ),
        "feature below -1": ("feature", [-2] + forest["feature"][1:]),
        "feature beyond the width": ("feature", [3] + forest["feature"][1:]),
        "nan threshold": ("threshold", [math.nan] + forest["threshold"][1:]),
        "infinite value": ("value", forest["value"][:-1] + [math.inf]),
        "roots not from node 0": ("roots", [1] + forest["roots"][1:]),
        "roots out of order": ("roots", [0, forest["roots"][2], forest["roots"][1]]),
        "a tree listed twice": ("roots", [0, second, second]),
        "float node id": ("right", [float(i) for i in forest["right"]]),
        "nested array": ("value", [forest["value"]]),
        "a bool among the thresholds": ("threshold", forest["threshold"][:-1] + [True]),
        "a bool among the weights": ("value", [False] + forest["value"][1:]),
        "a bool among the features": ("feature", [True] + forest["feature"][1:]),
    }
    for what, (name, values) in corruptions.items():
        d = copy.deepcopy(SMALL_MODEL)
        d["forest"][name] = values
        with pytest.raises(ValueError):
            gbdt_from_dict(d)
            pytest.fail(f"accepted {what}")
    with pytest.raises(ValueError):
        gbdt_from_dict({**SMALL_MODEL, "forest": [forest[name] for name in FOREST_ARRAYS]})
    top_level = [("base_score", math.nan), ("base_score", 1.0), ("base_score", "0.5"), ("feature_names", 3)]
    top_level.append(("feature_names", list(range(len(SMALL_MODEL["feature_names"])))))
    for key, value in top_level:
        with pytest.raises(ValueError):
            gbdt_from_dict({**SMALL_MODEL, key: value})
            pytest.fail(f"accepted {key} = {value!r}")
    with pytest.raises(KeyError):
        gbdt_from_dict({**SMALL_MODEL, "forest": {k: v for k, v in forest.items() if k != "value"}})


@given(
    st.sampled_from(FOREST_ARRAYS),
    st.integers(0, 10_000),
    st.one_of(
        st.integers(-3, 60),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([2**70, True, None, "1", [1], {}]),
    ),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_from_dict_fails_closed_on_any_corrupted_entry(name, entry, replacement, drop):
    d = copy.deepcopy(SMALL_MODEL)
    values = d["forest"][name]
    i = entry % len(values)
    if drop:
        del values[i]
    else:
        values[i] = replacement
    try:
        model = gbdt_from_dict(d)
    except (ValueError, KeyError):
        return
    # the entry still encodes valid trees (a new threshold, weight or gain): it must score
    probs = predict_gbdt(model, np.random.default_rng(0).normal(size=(9, 3)))
    assert probs.shape == (9,) and np.isfinite(probs).all()
