"""Tabular binary classification: boosted trees + embedding/cross/deep net + convex blend."""

import os
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before NumPy loads: `run` fits the GBDT on the other core
from .dataset import (
    DataError,
    DesignMatrix,
    FittedTransform,
    Schema,
    TabularDataset,
    apply_transform,
    fit_transform,
    load_csv,
    stratified_split,
)
from .ensemble import BlendConfig, EnsembleModel, blend, grid_search_alpha
from .gbdt import (
    GBDTConfig,
    GBDTModel,
    build_tree,
    feature_importance,
    grad_hess,
    leaf_weight,
    predict_gbdt,
    split_gain,
    train_gbdt,
)
from .metrics import EvalReport, RocCurve, auc, bce, evaluate, roc_curve
from .xdeepfm import (
    XDeepFMConfig,
    XDeepFMModel,
    backward,
    forward,
    init_xdeepfm,
    train_xdeepfm,
)

__all__ = [
    "DataError",
    "DesignMatrix",
    "FittedTransform",
    "Schema",
    "TabularDataset",
    "apply_transform",
    "fit_transform",
    "load_csv",
    "stratified_split",
    "BlendConfig",
    "EnsembleModel",
    "blend",
    "grid_search_alpha",
    "GBDTConfig",
    "GBDTModel",
    "build_tree",
    "feature_importance",
    "grad_hess",
    "leaf_weight",
    "predict_gbdt",
    "split_gain",
    "train_gbdt",
    "EvalReport",
    "RocCurve",
    "auc",
    "bce",
    "evaluate",
    "roc_curve",
    "XDeepFMConfig",
    "XDeepFMModel",
    "backward",
    "forward",
    "init_xdeepfm",
    "train_xdeepfm",
]
