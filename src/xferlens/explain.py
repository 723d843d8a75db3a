"""Feature attribution: exact additive attributions for linear models and
permutation importance for everything else.

For a linear model the Shapley value of feature j at input x has the closed
form w_j * (x_j - background_j), which satisfies local accuracy exactly:
base value plus attributions reconstructs the prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import FEATURE_NAMES, TaskId
from .sparse_linear import LinearModel


@dataclass
class Attribution:
    task: TaskId | None
    per_feature: dict[str, float]
    base_value: float
    method: str  # "linear-shap" or "permutation"


def linear_shap(
    model: LinearModel,
    x: np.ndarray,
    background_mean: np.ndarray,
    task: TaskId | None = None,
    feature_names: Sequence[str] = FEATURE_NAMES,
) -> Attribution:
    """Exact additive attribution of one prediction against a background mean."""
    weights, intercept = model.coefficients(task)
    x = np.asarray(x, dtype=float)
    background_mean = np.asarray(background_mean, dtype=float)
    if x.shape != weights.shape or background_mean.shape != weights.shape:
        raise ValueError("dimension mismatch")
    if len(feature_names) != len(weights):
        raise ValueError("feature name list does not match the weight vector")
    phi = weights * (x - background_mean)
    base = float(weights @ background_mean + intercept)
    return Attribution(
        task=task,
        per_feature={name: float(v) for name, v in zip(feature_names, phi)},
        base_value=base,
        method="linear-shap",
    )


def mean_abs_shap(
    weights: np.ndarray,
    rows: np.ndarray,
    background_mean: np.ndarray,
    feature_names: Sequence[str] = FEATURE_NAMES,
) -> dict[str, float]:
    """Mean |attribution| per feature over a set of rows, for a linear model's
    weight vector (the intercept cancels out of every attribution)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[0] < 1:
        raise ValueError("need at least one row")
    phi = np.abs(rows - background_mean) * np.abs(weights)
    means = phi.mean(axis=0)
    return {name: float(v) for name, v in zip(feature_names, means)}


def permutation_importance(
    predict: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    repeats: int = 10,
    seed: int = 0,
) -> np.ndarray:
    """Increase in MAE when each feature column is shuffled, averaged over repeats.

    Repeat r draws its permutations from a generator seeded with ``seed + r``,
    so an n-repeat run equals the mean of n single-repeat runs with
    consecutive seeds.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if x.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    base_mae = float(np.mean(np.abs(predict(x) - y)))
    importances = np.zeros(x.shape[1])
    for r in range(repeats):
        rng = np.random.default_rng(seed + r)
        for j in range(x.shape[1]):
            perm = rng.permutation(x.shape[0])
            shuffled = x.copy()
            shuffled[:, j] = x[perm, j]
            mae = float(np.mean(np.abs(predict(shuffled) - y)))
            importances[j] += mae - base_mae
    return importances / repeats
