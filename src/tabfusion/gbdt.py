"""Second-order (Newton) boosting of regression trees on the logistic loss.

Leaf weights minimize the penalized per-leaf objective
``G*w + 0.5*(H + lambda2)*w**2 + lambda1*|w|`` whose closed form is the
soft-thresholded Newton step; split quality is the standard structural gain
of that objective (lambda2 only) minus a per-leaf penalty gamma.

Split search is exact and histogram-based. Each column of the training
matrix is ranked once per fit, with one bin per distinct value. At each
node, one ``np.bincount`` over the node's bin ids gives the hessian sums and
one the gradient sums; every hessian is positive, so the bins that hold rows
of the node are those with a positive hessian sum. A candidate split lies
between two consecutive bins of one column that both hold rows of the node. Those two bins are adjacent distinct values
of the node's rows, so the candidates and their midpoint thresholds are
those of an exhaustive search over sorted values. Candidates are scored
in (column, threshold) order and the first maximum wins: ties go to the
lowest column, then the lowest threshold. Quantile binning would change
the candidates, and sibling subtraction the sums, so the search uses neither.
A node with ``h_total - min_child_hessian < min_child_hessian`` is not
searched: rounding is monotone, so no candidate's right child reaches the bound.

Trees are parallel per-node arrays (``Forest``), each tree's nodes in the
preorder the search grows them in; a model holds all its trees stacked in
one forest, and ``gbdt.json`` stores those arrays. Prediction walks a block
of rows through every tree at once, one level per step, and adds the tree
outputs in boosting order, so it reproduces the training margins bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .artifact import FORMAT_VERSION, check_header, config_from_dict, config_to_dict, flat_array
from .artifact import read_model_file, write_json
from .dataset import DesignMatrix
from .metrics import bce, clip_probs, logit, sigmoid

# with validation rows, boosting stops this many trees after the lowest validation logloss
_EARLY_STOPPING_ROUNDS = 20


@dataclass(frozen=True)
class GBDTConfig:
    n_trees: int = 200  # the cap, when early stopping is on
    max_depth: int = 4
    learning_rate: float = 0.1
    lambda1: float = 0.0
    lambda2: float = 1.0
    gamma: float = 0.0
    min_child_hessian: float = 1.0
    base_score: float | None = None  # None: use the training positive rate
    seed: int = 0  # boosting is deterministic and reads no seed; kept for callers that pass one

    def __post_init__(self):
        if self.n_trees < 0 or self.max_depth < 0 or self.seed < 0:
            raise ValueError("n_trees, max_depth and seed must be non-negative")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        if self.lambda1 < 0.0 or self.lambda2 < 0.0 or self.gamma < 0.0 or self.min_child_hessian < 0.0:
            raise ValueError("regularization parameters must be non-negative")
        if self.base_score is not None and not 0.0 < self.base_score < 1.0:
            raise ValueError("base_score must lie strictly inside (0, 1)")


# The per-node arrays of a Forest, as gbdt.json stores them: node ids and
# features are integers, the rest finite floats.
FOREST_ARRAYS = ("roots", "feature", "threshold", "gain", "right", "value")
_NODE_IDS = ("roots", "right")


@dataclass(frozen=True, eq=False)
class Forest:
    """Regression trees as parallel per-node arrays.

    Node ids are forest-wide. Tree ``t`` holds the nodes from ``roots[t]`` up
    to the next root, numbered in preorder, so each child's id is greater
    than its parent's. A split (``feature >= 0``) sends a row to its left
    child, the next node, when ``x[feature] < threshold`` and to ``right``
    otherwise. A leaf has ``feature == -1``, its weight in ``value``, and
    itself as both children, so ``depth`` steps from the roots land every row
    on a leaf of every tree. Unused entries (a split's value, a leaf's
    threshold and gain) are 0.0. Construction rejects any arrays that do not
    encode such trees.
    """

    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    gain: np.ndarray
    right: np.ndarray
    value: np.ndarray
    depth: int = field(init=False)  # splits on the longest root-to-leaf path
    children: np.ndarray = field(init=False, repr=False)  # [left, right] of node i at 2i, 2i + 1

    def __post_init__(self):
        for name in FOREST_ARRAYS:
            integer = name in _NODE_IDS or name == "feature"
            object.__setattr__(self, name, flat_array(f"forest array {name!r}", getattr(self, name), integer))
        n = self.feature.size
        if any(getattr(self, name).size != n for name in FOREST_ARRAYS[1:]):
            raise ValueError("forest arrays differ in length")
        roots = self.roots
        increasing = n == 0 or (roots[0] == 0 and roots[-1] < n and (np.diff(roots) > 0).all())
        if (roots.size == 0) != (n == 0) or not increasing:
            raise ValueError("tree roots must start at node 0 and increase strictly within the forest")
        ids = np.arange(n)
        tree_end = np.append(roots[1:], n)[np.searchsorted(roots, ids, side="right") - 1]
        split = self.feature >= 0
        left = np.where(split, ids + 1, ids)  # in the tree whenever right is: ids < left <= right
        children_ok = np.where(
            split, (self.right > ids) & (self.right < tree_end), (self.feature == -1) & (self.right == ids)
        )
        if not children_ok.all():
            raise ValueError("a split's children must follow it in its tree; a leaf's must be itself")
        depth, frontier = 0, roots
        while (frontier := frontier[split[frontier]]).size:
            frontier = np.unique(np.concatenate([left[frontier], self.right[frontier]]))
            depth += 1
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "children", np.stack([left, self.right], axis=1).ravel())

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature < 0))


@dataclass
class GBDTModel:
    config: GBDTConfig
    base_score: float
    forest: Forest  # every boosted tree, in boosting order
    feature_names: tuple[str, ...]

    def __post_init__(self):
        if not 0.0 < self.base_score < 1.0:
            raise ValueError(f"base_score must lie strictly inside (0, 1), got {self.base_score!r}")
        if not all(isinstance(name, str) for name in self.feature_names):
            raise ValueError("feature names must be strings")
        if self.forest.feature.max(initial=-1) >= len(self.feature_names):
            raise ValueError(f"a split uses a feature beyond the model's {len(self.feature_names)}")


def grad_hess(y, p) -> tuple[np.ndarray, np.ndarray]:
    """First/second derivatives of per-example log loss w.r.t. the logit."""
    y = np.asarray(y, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    return p - y, p * (1.0 - p)


def soft_threshold(g: float, lam: float) -> float:
    return float(np.sign(g) * max(abs(g) - lam, 0.0))


def leaf_weight(g_sum: float, h_sum: float, lambda1: float, lambda2: float) -> float:
    """Minimizer of g_sum*w + 0.5*(h_sum+lambda2)*w^2 + lambda1*|w|."""
    denom = h_sum + lambda2
    if denom <= 0.0:
        raise ValueError("h_sum + lambda2 must be positive")
    return -soft_threshold(g_sum, lambda1) / denom


def split_gain(
    g_left: float, h_left: float, g_right: float, h_right: float, lambda2: float, gamma: float
) -> float:
    """Objective improvement of splitting one leaf into two; negative means reject."""
    for h in (h_left, h_right, h_left + h_right):
        if h + lambda2 <= 0.0:
            raise ValueError("all hessian denominators must be positive")
    g_parent = g_left + g_right
    h_parent = h_left + h_right
    return 0.5 * (
        g_left**2 / (h_left + lambda2)
        + g_right**2 / (h_right + lambda2)
        - g_parent**2 / (h_parent + lambda2)
    ) - gamma


@dataclass(frozen=True)
class RankedMatrix:
    """A feature matrix ranked once per fit: one histogram bin per distinct value.

    ``bins[i, f]`` is the flat bin id of ``X[i, f]``: the number of distinct
    values in columns ``0..f-1`` plus the rank of ``X[i, f]`` among column
    ``f``'s distinct values. ``values[b]`` and ``feature[b]`` give the value
    and the column of bin ``b``, so ``values[bins] == X`` exactly.
    """

    bins: np.ndarray
    values: np.ndarray
    feature: np.ndarray
    multi_bin: np.ndarray = field(init=False, repr=False)  # the columns with more than two bins

    def __post_init__(self):
        counts = np.bincount(self.feature, minlength=self.bins.shape[1])
        object.__setattr__(self, "multi_bin", np.flatnonzero(counts > 2))


def rank_features(dense) -> RankedMatrix:
    """Rank every column of a finite, non-empty 2-D matrix."""
    X = np.asarray(dense, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("a non-empty 2-D feature matrix is required")
    if not np.isfinite(X).all():
        raise ValueError("feature matrix holds non-finite values")
    bins = np.empty(X.shape, dtype=np.intp)
    values = []
    offset = 0
    for f in range(X.shape[1]):
        distinct, rank = np.unique(X[:, f], return_inverse=True)
        bins[:, f] = offset + rank
        values.append(distinct)
        offset += distinct.size
    return RankedMatrix(
        bins=bins,
        values=np.concatenate(values) if values else np.empty(0),
        feature=np.repeat(np.arange(X.shape[1]), [v.size for v in values]),
    )


def _best_split(ranked: RankedMatrix, idx: np.ndarray, g: np.ndarray, h: np.ndarray, cfg: GBDTConfig):
    """Best (feature, midpoint) split of the rows ``idx`` (see the module docstring).

    ``g`` and ``h`` hold the node's rows only, every ``h`` positive. Returns
    (feature, threshold, gain) or None when no candidate has positive gain and
    admissible child hessians. Call it where divide and invalid warnings are off.
    """
    g_total = float(g.sum())
    h_total = float(h.sum())
    if h_total - cfg.min_child_hessian < cfg.min_child_hessian:  # then every candidate's hr is too
        return None
    parent_term = g_total**2 / (h_total + cfg.lambda2) if h_total + cfg.lambda2 > 0.0 else np.inf
    n_bins = ranked.values.size
    d = ranked.bins.shape[1]
    flat = ranked.bins.ravel() if idx.size == ranked.bins.shape[0] else ranked.bins[idx].ravel()
    hist_h = np.bincount(flat, weights=np.repeat(h, d), minlength=n_bins)
    present = (hist_h > 0.0).nonzero()[0]  # every h > 0: the bins holding rows of the node
    feature = ranked.feature[present]
    cand = np.flatnonzero(feature[:-1] == feature[1:])
    if cand.size == 0:
        return None
    gl, hl = np.bincount(flat, weights=np.repeat(g, d), minlength=n_bins)[present], hist_h[present]
    # Prefix sums start from zero for each feature: one running sum across
    # all features, minus each feature's base, rounds differently. A feature's
    # last bin is never a candidate, so features with two bins need no sums,
    # and a node holds no more of a feature's bins than the root.
    bounds = np.searchsorted(feature, [ranked.multi_bin, ranked.multi_bin + 1]).tolist()
    for a, b in zip(*bounds):
        if b - a > 2:
            gl[a:b].cumsum(out=gl[a:b])
            hl[a:b].cumsum(out=hl[a:b])
    gl, hl = gl[cand], hl[cand]
    gr, hr = g_total - gl, h_total - hl
    ok = (
        (hl >= cfg.min_child_hessian)
        & (hr >= cfg.min_child_hessian)
        & (hl + cfg.lambda2 > 0.0)
        & (hr + cfg.lambda2 > 0.0)
    )
    gains = 0.5 * (gl**2 / (hl + cfg.lambda2) + gr**2 / (hr + cfg.lambda2) - parent_term) - cfg.gamma
    gains = np.where(ok, gains, -np.inf)
    k = int(np.argmax(gains))  # first occurrence = lowest feature, then lowest threshold
    gain = float(gains[k])
    if gain <= 0.0:
        return None
    lo, hi = present[cand[k]], present[cand[k] + 1]
    threshold = float((ranked.values[lo] + ranked.values[hi]) / 2.0)
    return int(feature[cand[k]]), threshold, gain


def _grow(
    ranked: RankedMatrix,
    idx: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    depth: int,
    cfg: GBDTConfig,
    nodes: list,
) -> None:
    """Append the subtree over rows ``idx`` to ``nodes`` in preorder.

    A node is (feature, threshold, gain, right, value), ids counted from the start of ``nodes``.
    """
    i = len(nodes)
    g_node, h_node = g[idx], h[idx]
    if depth < cfg.max_depth and idx.size >= 2:
        found = _best_split(ranked, idx, g_node, h_node, cfg)
        if found is not None:
            feature, threshold, gain = found
            mask = ranked.values[ranked.bins[idx, feature]] < threshold
            nodes.append(None)  # set once the right child's id is known
            _grow(ranked, idx[mask], g, h, depth + 1, cfg, nodes)
            right = len(nodes)
            _grow(ranked, idx[~mask], g, h, depth + 1, cfg, nodes)
            nodes[i] = (feature, threshold, gain, right, 0.0)
            return
    weight = leaf_weight(float(g_node.sum()), float(h_node.sum()), cfg.lambda1, cfg.lambda2)
    nodes.append((-1, 0.0, 0.0, i, weight))


def build_tree(dense, g, h, cfg: GBDTConfig) -> Forest:
    """Grow one regression tree by greedy histogram split search; returns a one-tree Forest.

    ``dense`` is a raw feature matrix or the ``RankedMatrix`` of one. Every
    hessian must be positive, as the logistic loss's are.
    """
    ranked = dense if isinstance(dense, RankedMatrix) else rank_features(dense)
    n = ranked.bins.shape[0]
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if g.shape != (n,) or h.shape != (n,):
        raise ValueError("g and h must be row-aligned with the feature matrix")
    if not (np.isfinite(g).all() and np.isfinite(h).all() and (h > 0.0).all()):
        raise ValueError("g must be finite, and h finite and positive")
    nodes: list = []
    with np.errstate(divide="ignore", invalid="ignore"):
        _grow(ranked, np.arange(n), g, h, 0, cfg, nodes)
    return Forest((0,), *zip(*nodes))


# Rows walked through all trees together. Scoring 100,000 rows serially
# (2 vCPUs, NumPy 2.4.6, median of 11 interleaved calls), 128-, 256-, 512- and
# 1,024-row blocks took 0.155, 0.132, 0.124 and 0.122 s with 30 trees, and
# 0.191, 0.171, 0.172 and 0.182 s with 78 trees. A row's sum does not depend
# on the block size.
_BLOCK_ROWS = 256


def _walk(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Node id of the leaf each row of X reaches in each tree, as a (trees, rows) array."""
    n, d = X.shape
    roots = forest.roots[:, None]
    if forest.depth == 0:
        return np.repeat(roots, n, axis=1)
    # A leaf's feature -1 reads some cell; the leaf stays put whatever it reads.
    # Finite inputs: x >= threshold exactly when not x < threshold.
    # Every row starts at the roots, so the first step compares whole columns.
    go_right = X.T.take(forest.feature.take(forest.roots), axis=0) >= forest.threshold.take(roots)
    nodes = forest.children.take(2 * roots + go_right)
    flat, row_start = X.ravel(), np.arange(n) * d
    for _ in range(forest.depth - 1):
        go_right = flat.take(row_start + forest.feature.take(nodes)) >= forest.threshold.take(nodes)
        nodes = forest.children.take(2 * nodes + go_right)
    return nodes


def _tree_values(tree: Forest, X: np.ndarray) -> np.ndarray:
    """The leaf weight each row of X reaches in a one-tree forest."""
    (leaves,) = _walk(tree, X)
    return tree.value.take(leaves)


def train_gbdt(dm: DesignMatrix, cfg: GBDTConfig = GBDTConfig(), val: DesignMatrix | None = None) -> GBDTModel:
    """Boost up to cfg.n_trees trees, shrinking each tree's output by learning_rate; validate one forest at the end.

    Without ``val``, the model keeps all cfg.n_trees trees. With ``val``, the
    logloss on its rows is read before the first tree and after each one, from
    margins that add the trees in ``predict_gbdt``'s order. Boosting stops once
    ``_EARLY_STOPPING_ROUNDS`` trees in a row have not lowered it strictly, and
    the model keeps the trees up to the lowest logloss, the first such prefix
    on a tie.
    """
    X = dm.dense
    y = dm.labels.astype(np.float64)
    if y.size == 0:
        raise ValueError("training requires at least one row")
    if y.min() == y.max():
        raise ValueError("training requires both classes to be present")
    base = float(y.mean()) if cfg.base_score is None else cfg.base_score
    raw = np.full(y.size, logit(base))
    if val is not None:
        y_val = val.labels.astype(np.float64)
        raw_val = np.full(y_val.size, logit(base))
        best_k, best_loss = 0, bce(y_val, sigmoid(raw_val))  # bce rejects an empty val
    ranked = rank_features(X)
    trees = []
    for t in range(cfg.n_trees):
        if val is not None and t - best_k >= _EARLY_STOPPING_ROUNDS:
            break
        p = clip_probs(sigmoid(raw))
        g, h = grad_hess(y, p)  # every h is positive: p is clipped away from 0 and 1
        trees.append(build_tree(ranked, g, h, cfg))
        raw += cfg.learning_rate * _tree_values(trees[-1], X)  # predict_gbdt's walk, so its margins
        if val is not None:
            raw_val += cfg.learning_rate * _tree_values(trees[-1], val.dense)
            if (loss := bce(y_val, sigmoid(raw_val))) < best_loss:
                best_k, best_loss = t + 1, loss
    if val is not None:
        del trees[best_k:]
    roots = np.cumsum([0] + [tree.feature.size for tree in trees])  # node ids are forest-wide
    parts = {name: [getattr(tree, name) for tree in trees] for name in FOREST_ARRAYS[1:]}
    parts["right"] = [tree.right + root for tree, root in zip(trees, roots)]
    forest = Forest(roots[:-1], **{name: np.concatenate(arrays) if trees else () for name, arrays in parts.items()})
    return GBDTModel(config=cfg, base_score=base, forest=forest, feature_names=tuple(dm.dense_names))


def _score_rows(forest: Forest, X: np.ndarray, base: float, rate: float) -> np.ndarray:
    """The margins of the rows of X, block by block."""
    n = X.shape[0]
    raw = np.empty(n)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        leaves = _walk(forest, X[start:stop])
        # Row 0 holds the base margin, row t + 1 tree t's shrunk output, so a
        # running sum down the rows adds the trees in order, as training did,
        # for a block of one row as for many.
        terms = np.empty((leaves.shape[0] + 1, leaves.shape[1]))
        terms[0] = base
        np.multiply(rate, forest.value.take(leaves), out=terms[1:])
        raw[start:stop] = np.add.accumulate(terms, axis=0, out=terms)[-1]
    return raw


def predict_gbdt(model: GBDTModel, dense) -> np.ndarray:
    """sigmoid(logit(base) + learning_rate * sum of tree outputs)."""
    X = np.asarray(dense, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(model.feature_names):
        raise ValueError(
            f"feature width {X.shape[1] if X.ndim == 2 else '?'} does not match "
            f"training width {len(model.feature_names)}"
        )
    if not np.isfinite(X).all():
        raise ValueError("feature matrix holds non-finite values")
    raw = _score_rows(model.forest, X, logit(model.base_score), model.config.learning_rate)
    return np.asarray(sigmoid(raw))


def feature_importance(model: GBDTModel) -> np.ndarray:
    """Per-feature total split gain, normalized to sum to 1 when any gain exists."""
    forest = model.forest
    splits = forest.feature >= 0
    # bincount adds each feature's gains in node order: tree by tree, each in preorder
    totals = np.bincount(
        forest.feature[splits], weights=forest.gain[splits], minlength=len(model.feature_names)
    )
    total = totals.sum()
    return totals / total if total > 0.0 else totals


def gbdt_to_dict(model: GBDTModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "gbdt",
        "config": config_to_dict(model.config),
        "base_score": model.base_score,
        "feature_names": list(model.feature_names),
        "forest": {name: getattr(model.forest, name).tolist() for name in FOREST_ARRAYS},
    }


def gbdt_from_dict(d: dict) -> GBDTModel:
    check_header(d, "gbdt")
    arrays = d["forest"]
    if not isinstance(arrays, dict):
        raise ValueError("'forest' must map array names to per-node arrays")
    try:
        return GBDTModel(
            config=config_from_dict(GBDTConfig, d["config"]),
            base_score=d["base_score"],
            forest=Forest(**{name: arrays[name] for name in FOREST_ARRAYS}),
            feature_names=tuple(d["feature_names"]),
        )
    except TypeError as exc:  # an entry of the wrong JSON type
        raise ValueError(f"malformed gbdt model file: {exc}") from None


def save_gbdt(model: GBDTModel, path) -> None:
    write_json(path, gbdt_to_dict(model))


def load_gbdt(path) -> GBDTModel:
    return gbdt_from_dict(read_model_file(path))
