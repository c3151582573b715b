"""Second-order (Newton) boosting of regression trees on the logistic loss.

Leaf weights minimize the penalized per-leaf objective
``G*w + 0.5*(H + lambda2)*w**2 + lambda1*|w|`` whose closed form is the
soft-thresholded Newton step; split quality is the standard structural gain
of that objective (lambda2 only) minus a per-leaf penalty gamma.

Split search is exact and histogram-based. Each column of the training
matrix is ranked once per fit, with one bin per distinct value. At each
node, one ``np.bincount`` over the node's bin ids gives the row counts (the
root holds every bin), one the gradient sums and one the hessian sums.
A candidate split lies between two consecutive bins of one column that
both hold rows of the node. Those two bins are adjacent distinct values
of the node's rows, so the candidates and their midpoint thresholds are
those of an exhaustive search over sorted values. Candidates are scored
in (column, threshold) order and the first maximum wins: ties go to the
lowest column, then the lowest threshold. Quantile binning would change
the candidates, and sibling subtraction the sums, so the search uses neither.

Trees are parallel per-node arrays (``Forest``), each tree's nodes in the
preorder the search grows them in; a model holds all its trees stacked in
one forest, and ``gbdt.json`` stores those arrays. Prediction walks a block
of rows through every tree at once, one level per step, and adds the tree
outputs in boosting order, so it reproduces the training margins bit for bit.
A large batch is cut into one chunk of whole blocks per usable core, scored
on threads; each row's sum is the same whatever the cut, so the scores do not
depend on the core count.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .artifact import FORMAT_VERSION, check_header, config_from_dict, config_to_dict, flat_array
from .artifact import read_model_file, write_json
from .dataset import DesignMatrix
from .metrics import clip_probs, logit, sigmoid


@dataclass(frozen=True)
class GBDTConfig:
    n_trees: int = 200
    max_depth: int = 4
    learning_rate: float = 0.1
    lambda1: float = 0.0
    lambda2: float = 1.0
    gamma: float = 0.0
    min_child_hessian: float = 1.0
    base_score: float | None = None  # None: use the training positive rate
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 0 or self.max_depth < 0:
            raise ValueError("n_trees and max_depth must be non-negative")
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


def stack_trees(trees) -> Forest:
    """One forest of ``trees`` in order, each tree's node ids offset past the trees before it."""
    offsets = np.cumsum([0] + [t.feature.size for t in trees])

    def stacked(name: str) -> np.ndarray:
        parts = [getattr(t, name) for t in trees]
        if name in _NODE_IDS:  # only ids: adding 0 to a weight would turn -0.0 into 0.0
            parts = [a + o for a, o in zip(parts, offsets)]
        return np.concatenate([np.empty(0, np.intp)] + parts)

    return Forest(**{name: stacked(name) for name in FOREST_ARRAYS})


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

    ``g`` and ``h`` hold the node's rows only. Returns (feature, threshold,
    gain) or None when no candidate has positive gain and admissible child
    hessians.
    """
    g_total = float(g.sum())
    h_total = float(h.sum())
    parent_term = g_total**2 / (h_total + cfg.lambda2) if h_total + cfg.lambda2 > 0.0 else np.inf
    n_bins = ranked.values.size
    n, d = ranked.bins.shape
    if idx.size == n:  # the root: rows stay in order, and every bin holds some row
        flat, present = ranked.bins.ravel(), np.arange(n_bins)
    else:
        flat = ranked.bins[idx].ravel()
        present = np.flatnonzero(np.bincount(flat, minlength=n_bins))
    feature = ranked.feature[present]
    cand = np.flatnonzero(feature[:-1] == feature[1:])
    if cand.size == 0:
        return None
    prefix = np.stack(
        [
            np.bincount(flat, weights=np.repeat(g, d), minlength=n_bins)[present],
            np.bincount(flat, weights=np.repeat(h, d), minlength=n_bins)[present],
        ],
        axis=1,
    )
    # Prefix sums start from zero for each feature: one running sum across
    # all features, minus each feature's base, rounds differently. A feature's
    # last bin is never a candidate, so features with two bins need no sums,
    # and a node holds no more of a feature's bins than the root.
    bounds = np.searchsorted(feature, [ranked.multi_bin, ranked.multi_bin + 1]).tolist()
    for a, b in zip(*bounds):
        if b - a > 2:
            prefix[a:b].cumsum(axis=0, out=prefix[a:b])
    gl, hl = prefix[cand, 0], prefix[cand, 1]
    gr, hr = g_total - gl, h_total - hl
    ok = (
        (hl >= cfg.min_child_hessian)
        & (hr >= cfg.min_child_hessian)
        & (hl + cfg.lambda2 > 0.0)
        & (hr + cfg.lambda2 > 0.0)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
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

    A node is (feature, threshold, gain, right, value), ids counted from the tree's root.
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

    ``dense`` is a raw feature matrix or the ``RankedMatrix`` of one; a raw
    matrix is ranked here, so boosting ranks its training matrix once instead.
    """
    ranked = dense if isinstance(dense, RankedMatrix) else rank_features(dense)
    n = ranked.bins.shape[0]
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if g.shape != (n,) or h.shape != (n,):
        raise ValueError("g and h must be row-aligned with the feature matrix")
    if not (np.isfinite(g).all() and np.isfinite(h).all()):
        raise ValueError("g and h must be finite")
    nodes: list = []
    _grow(ranked, np.arange(n), g, h, 0, cfg, nodes)
    return Forest((0,), *zip(*nodes))


# Rows walked through all trees together. Scoring 100,000 rows with 200 trees
# on two threads (2 vCPUs, NumPy 2.4.6), 128- to 512-row blocks took
# 0.32-0.43 s, 64-row blocks 0.49 s and 1,024-row blocks 0.48 s. On one
# thread, 64 to 512 rows took 0.58-0.66 s and 768 or more 0.77-0.80 s.
_BLOCK_ROWS = 256

# A batch is cut over threads only if each thread gets at least this many
# rows, so small batches and single rows stay on the caller's thread. With
# 200 trees, two threads lost to one at 256 rows each (5.1 vs 4.7 ms) and won
# from 512 rows each (8.2 vs 9.5 ms; 11.0 vs 16.0 ms at 1,024 rows each).
_THREAD_MIN_ROWS = 4 * _BLOCK_ROWS


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


def train_gbdt(dm: DesignMatrix, cfg: GBDTConfig = GBDTConfig()) -> GBDTModel:
    """Boost cfg.n_trees trees, shrinking each tree's output by learning_rate."""
    X = dm.dense
    y = dm.labels.astype(np.float64)
    if y.size == 0:
        raise ValueError("training requires at least one row")
    if y.min() == y.max():
        raise ValueError("training requires both classes to be present")
    base = float(y.mean()) if cfg.base_score is None else cfg.base_score
    raw = np.full(y.size, logit(base))
    ranked = rank_features(X)
    trees: list[Forest] = []
    for _ in range(cfg.n_trees):
        p = clip_probs(sigmoid(raw))
        g, h = grad_hess(y, p)
        tree = build_tree(ranked, g, h, cfg)
        trees.append(tree)
        raw += cfg.learning_rate * _tree_values(tree, X)
    return GBDTModel(
        config=cfg, base_score=base, forest=stack_trees(trees), feature_names=tuple(dm.dense_names)
    )


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _score_rows(
    forest: Forest, X: np.ndarray, base: float, rate: float, raw: np.ndarray, lo: int, hi: int
) -> None:
    """Write the margins of rows ``lo:hi`` of X into the same rows of ``raw``, block by block."""
    for start in range(lo, hi, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, hi)
        leaves = _walk(forest, X[start:stop])
        # Row 0 holds the base margin, row t + 1 tree t's shrunk output, so
        # summing down the rows adds the trees in order, as training did.
        terms = np.empty((leaves.shape[0] + 1, leaves.shape[1]))
        terms[0] = base
        np.multiply(rate, forest.value.take(leaves), out=terms[1:])
        if stop - start > 1:  # reduce adds one row of terms after another, elementwise
            raw[start:stop] = np.add.reduce(terms, axis=0)
        else:  # one contiguous column, which reduce would sum pairwise, out of order
            raw[start] = np.add.accumulate(terms[:, 0])[-1]


def _score_in_threads(score, n: int, workers: int) -> None:
    """Call ``score(lo, hi)`` on one contiguous chunk of ``range(n)`` per worker.

    Chunks are cut on block boundaries. The caller's thread scores the first
    and worker threads the rest; once every chunk is done, the first
    exception any chunk raised is raised again here.
    """
    n_blocks = -(-n // _BLOCK_ROWS)
    cuts = [min(n_blocks * k // workers * _BLOCK_ROWS, n) for k in range(workers + 1)]
    errors: list[BaseException] = []

    def score_chunk(lo: int, hi: int) -> None:
        try:
            score(lo, hi)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=score_chunk, args=cuts[k : k + 2]) for k in range(1, workers)]
    for t in threads:
        t.start()
    score_chunk(cuts[0], cuts[1])
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def predict_gbdt(model: GBDTModel, dense) -> np.ndarray:
    """sigmoid(logit(base) + learning_rate * sum of tree outputs).

    A batch of at least ``2 * _THREAD_MIN_ROWS`` rows is scored in one chunk
    per usable core (at most one per ``_THREAD_MIN_ROWS`` rows), on threads:
    NumPy's ``take`` and compare loops release the GIL. Every row's trees are
    still added in order, so the result does not depend on the core count.
    """
    X = np.asarray(dense, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(model.feature_names):
        raise ValueError(
            f"feature width {X.shape[1] if X.ndim == 2 else '?'} does not match "
            f"training width {len(model.feature_names)}"
        )
    if not np.isfinite(X).all():
        raise ValueError("feature matrix holds non-finite values")
    n = X.shape[0]
    raw = np.empty(n)
    score = functools.partial(
        _score_rows, model.forest, X, logit(model.base_score), model.config.learning_rate, raw
    )
    workers = min(_usable_cores(), n // _THREAD_MIN_ROWS) if n >= 2 * _THREAD_MIN_ROWS else 1
    if workers > 1:
        _score_in_threads(score, n, workers)
    else:
        score(0, n)
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
