"""Feature attribution: exact additive attributions for linear models and
permutation importance for everything else.

For a linear model the Shapley value of feature j at row x has the closed
form w_j * (x_j - background_j) (Lundberg & Lee 2017). It satisfies local
accuracy exactly: the base value w . background + b plus a row's
attributions reconstructs the prediction, and the intercept cancels out of
every attribution. Permutation importance is the increase in MAE when one
feature column is shuffled, for any predict function.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def linear_shap(weights: np.ndarray, rows: np.ndarray, background_mean: np.ndarray) -> np.ndarray:
    """The rows x features attributions of a weight vector against a background mean."""
    weights, background_mean = np.asarray(weights, dtype=float), np.asarray(background_mean, dtype=float)
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if not weights.shape == background_mean.shape == rows.shape[1:]:
        raise ValueError("dimension mismatch")
    return weights * (rows - background_mean)


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
