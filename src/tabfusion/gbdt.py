"""Second-order (Newton) boosting of regression trees on the logistic loss.

Leaf weights minimize the penalized per-leaf objective
``G*w + 0.5*(H + lambda2)*w**2 + lambda1*|w|`` whose closed form is the
soft-thresholded Newton step; split quality is the standard structural gain
of that objective (lambda2 only) minus a per-leaf penalty gamma.

Split search is exact and histogram-based. Each column of the training
matrix is ranked once per fit, with one bin per distinct value. At each
node, one ``np.bincount`` over the node's bin ids gives the row counts,
one the gradient sums and one the hessian sums, for all columns at once.
A candidate split lies between two consecutive bins of one column that
both hold rows of the node. Those two bins are adjacent distinct values
of the node's rows, so the candidates and their midpoint thresholds are
those of an exhaustive search over sorted values. Candidates are scored
in (column, threshold) order and the first maximum wins: ties go to the
lowest column, then the lowest threshold. Quantile binning would change
the candidates, and sibling subtraction the sums, so the search uses neither.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import DesignMatrix
from .metrics import clip_probs, logit, sigmoid

FORMAT_VERSION = 1


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


@dataclass
class Leaf:
    weight: float


@dataclass
class Split:
    feature: int
    threshold: float
    gain: float
    left: "Leaf | Split"
    right: "Leaf | Split"


@dataclass
class RegTree:
    root: Leaf | Split
    n_leaves: int


@dataclass
class GBDTModel:
    config: GBDTConfig
    base_score: float
    trees: list[RegTree]
    feature_names: tuple[str, ...]


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
    d = ranked.bins.shape[1]
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
    # last bin is never a candidate, so features with two bins need no sums.
    bounds = np.searchsorted(feature, np.arange(d + 1))
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
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
    ranked: RankedMatrix, idx: np.ndarray, g: np.ndarray, h: np.ndarray, depth: int, cfg: GBDTConfig
) -> Leaf | Split:
    g_node, h_node = g[idx], h[idx]
    if depth < cfg.max_depth and idx.size >= 2:
        found = _best_split(ranked, idx, g_node, h_node, cfg)
        if found is not None:
            feature, threshold, gain = found
            mask = ranked.values[ranked.bins[idx, feature]] < threshold
            return Split(
                feature=feature,
                threshold=threshold,
                gain=gain,
                left=_grow(ranked, idx[mask], g, h, depth + 1, cfg),
                right=_grow(ranked, idx[~mask], g, h, depth + 1, cfg),
            )
    return Leaf(leaf_weight(float(g_node.sum()), float(h_node.sum()), cfg.lambda1, cfg.lambda2))


def _count_leaves(node: Leaf | Split) -> int:
    if isinstance(node, Leaf):
        return 1
    return _count_leaves(node.left) + _count_leaves(node.right)


def build_tree(dense, g, h, cfg: GBDTConfig) -> RegTree:
    """Grow one regression tree by greedy histogram split search.

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
    root = _grow(ranked, np.arange(n), g, h, 0, cfg)
    return RegTree(root=root, n_leaves=_count_leaves(root))


def _tree_values(node: Leaf | Split, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0])
    _fill_values(node, X, np.arange(X.shape[0]), out)
    return out


def _fill_values(node: Leaf | Split, X: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    if isinstance(node, Leaf):
        out[idx] = node.weight
        return
    mask = X[idx, node.feature] < node.threshold
    _fill_values(node.left, X, idx[mask], out)
    _fill_values(node.right, X, idx[~mask], out)


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
    trees: list[RegTree] = []
    for _ in range(cfg.n_trees):
        p = clip_probs(sigmoid(raw))
        g, h = grad_hess(y, p)
        tree = build_tree(ranked, g, h, cfg)
        trees.append(tree)
        raw += cfg.learning_rate * _tree_values(tree.root, X)
    return GBDTModel(config=cfg, base_score=base, trees=trees, feature_names=tuple(dm.dense_names))


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
    raw = np.full(X.shape[0], logit(model.base_score))
    for tree in model.trees:
        raw += model.config.learning_rate * _tree_values(tree.root, X)
    return np.asarray(sigmoid(raw))


def feature_importance(model: GBDTModel) -> np.ndarray:
    """Per-feature total split gain, normalized to sum to 1 when any gain exists."""
    totals = np.zeros(len(model.feature_names))

    def visit(node: Leaf | Split) -> None:
        if isinstance(node, Split):
            totals[node.feature] += node.gain
            visit(node.left)
            visit(node.right)

    for tree in model.trees:
        visit(tree.root)
    total = totals.sum()
    return totals / total if total > 0.0 else totals


def _node_to_dict(node: Leaf | Split) -> dict:
    if isinstance(node, Leaf):
        return {"weight": node.weight}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "gain": node.gain,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(d: dict) -> Leaf | Split:
    if "weight" in d:
        return Leaf(weight=d["weight"])
    return Split(
        feature=d["feature"],
        threshold=d["threshold"],
        gain=d["gain"],
        left=_node_from_dict(d["left"]),
        right=_node_from_dict(d["right"]),
    )


def gbdt_to_dict(model: GBDTModel) -> dict:
    cfg = model.config
    return {
        "format_version": FORMAT_VERSION,
        "kind": "gbdt",
        "config": {
            "n_trees": cfg.n_trees,
            "max_depth": cfg.max_depth,
            "learning_rate": cfg.learning_rate,
            "lambda1": cfg.lambda1,
            "lambda2": cfg.lambda2,
            "gamma": cfg.gamma,
            "min_child_hessian": cfg.min_child_hessian,
            "base_score": cfg.base_score,
            "seed": cfg.seed,
        },
        "base_score": model.base_score,
        "feature_names": list(model.feature_names),
        "trees": [_node_to_dict(t.root) for t in model.trees],
    }


def gbdt_from_dict(d: dict) -> GBDTModel:
    if d.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {d.get('format_version')!r}")
    if d.get("kind") != "gbdt":
        raise ValueError(f"expected a gbdt model file, got kind {d.get('kind')!r}")
    roots = [_node_from_dict(t) for t in d["trees"]]
    return GBDTModel(
        config=GBDTConfig(**d["config"]),
        base_score=d["base_score"],
        trees=[RegTree(root=r, n_leaves=_count_leaves(r)) for r in roots],
        feature_names=tuple(d["feature_names"]),
    )


def save_gbdt(model: GBDTModel, path) -> None:
    Path(path).write_text(json.dumps(gbdt_to_dict(model), indent=2), encoding="utf-8")


def load_gbdt(path) -> GBDTModel:
    return gbdt_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
