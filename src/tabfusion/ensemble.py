"""Convex blending of two probability vectors with a grid-searched coefficient."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifact import FORMAT_VERSION, check_header, coerce
from .metrics import auc


@dataclass(frozen=True)
class BlendConfig:
    grid_step: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.grid_step <= 0.5:
            raise ValueError(f"grid_step must lie in (0, 0.5], got {self.grid_step}")


@dataclass(frozen=True)
class EnsembleModel:
    alpha: float
    gbdt_ref: str
    xdeepfm_ref: str
    search_record: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if not (isinstance(self.gbdt_ref, str) and isinstance(self.xdeepfm_ref, str)):
            raise ValueError("component references must be file names")


def alpha_grid(step: float) -> list[float]:
    """Evenly spaced coefficients; always contains both endpoints 0 and 1."""
    n = int(math.floor(1.0 / step + 1e-9))
    grid = [min(i * step, 1.0) for i in range(n + 1)]
    if grid[-1] < 1.0:
        grid.append(1.0)
    return grid


def blend(p_gbdt, p_xdfm, alpha: float) -> np.ndarray:
    """Elementwise alpha * p_gbdt + (1 - alpha) * p_xdfm."""
    p_gbdt = np.asarray(p_gbdt, dtype=np.float64)
    p_xdfm = np.asarray(p_xdfm, dtype=np.float64)
    if p_gbdt.shape != p_xdfm.shape:
        raise ValueError(f"prediction length mismatch: {p_gbdt.shape} vs {p_xdfm.shape}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha * p_gbdt + (1.0 - alpha) * p_xdfm


def grid_search_alpha(
    y_val, p_gbdt, p_xdfm, cfg: BlendConfig = BlendConfig()
) -> tuple[float, list[tuple[float, float]]]:
    """Evaluate validation AUC at every grid coefficient and return the argmax.

    Ties resolve to the smallest alpha. Because 0 and 1 are grid members,
    the selected AUC is never below either single model's AUC.
    """
    y_val = np.asarray(y_val)
    if y_val.size == 0 or y_val.min() == y_val.max():
        raise ValueError("grid search requires both classes in the validation labels")
    best_alpha = 0.0
    best_auc = -np.inf
    record: list[tuple[float, float]] = []
    for alpha in alpha_grid(cfg.grid_step):
        score = auc(y_val, blend(p_gbdt, p_xdfm, alpha))
        record.append((alpha, score))
        if score > best_auc:
            best_auc = score
            best_alpha = alpha
    return best_alpha, record


def ensemble_to_dict(model: EnsembleModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "ensemble",
        "alpha": model.alpha,
        "gbdt_ref": model.gbdt_ref,
        "xdeepfm_ref": model.xdeepfm_ref,
        "search_record": [[alpha, score] for alpha, score in model.search_record],
    }


def ensemble_from_dict(d: dict) -> EnsembleModel:
    """The ensemble a model document holds; ValueError if any entry is malformed."""
    check_header(d, "ensemble")
    try:
        alpha = coerce(float, d["alpha"])
        record = tuple((coerce(float, a), coerce(float, score)) for a, score in d["search_record"])
    except (TypeError, ValueError) as exc:  # an entry of the wrong JSON type, or not a finite number
        raise ValueError(f"malformed ensemble model file: {exc}") from None
    return EnsembleModel(alpha=alpha, gbdt_ref=d["gbdt_ref"], xdeepfm_ref=d["xdeepfm_ref"], search_record=record)
