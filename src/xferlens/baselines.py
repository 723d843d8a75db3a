"""Averaging baselines and a from-scratch gradient-boosted tree regressor.

The boosting is deliberately plain: squared loss, exact greedy split search,
no subsampling and no second-order terms. Ties between equal-gain splits go
to the lowest feature index, then the lowest threshold, so fits are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .data import Dataset, LangId, TaskId


def predict_awt(train: Dataset, task: TaskId, pivot: LangId, target: LangId) -> float:
    """Average score of the task's other target languages (pivot fixed)."""
    scores = [
        r.score
        for r in train.records
        if r.task == task and r.pivot == pivot and r.target != target
    ]
    if not scores:
        raise ValueError(f"no other target languages for task {task!r} with pivot {pivot!r}")
    return float(np.mean(scores))


def predict_aat(train: Dataset, task: TaskId, pivot: LangId, target: LangId) -> float:
    """Average of the target language's scores across the other tasks.

    Only tasks where the (pivot, target) record exists enter the average.
    """
    scores = [
        r.score
        for r in train.records
        if r.task != task and r.pivot == pivot and r.target == target
    ]
    if not scores:
        raise ValueError(f"target {target!r} unseen in all tasks other than {task!r}")
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# Gradient-boosted regression trees

@dataclass
class Leaf:
    value: float


@dataclass
class TreeNode:
    feature: int
    threshold: float
    left: Union["TreeNode", Leaf]
    right: Union["TreeNode", Leaf]


@dataclass
class TreeEnsemble:
    trees: list[Union[TreeNode, Leaf]]
    learning_rate: float
    base_score: float
    n_features: int


def _best_split(x: np.ndarray, y: np.ndarray) -> tuple[float, int, float] | None:
    """Exact greedy search: (gain, feature, threshold) with highest SSE reduction.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values, which keeps at least one sample on each side. Returns None when no
    split reduces the squared error.
    """
    m, n = x.shape
    if m < 2:
        return None
    sse_parent = float(np.sum((y - y.mean()) ** 2))
    best: tuple[float, int, float] | None = None
    for j in range(n):
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        ys = y[order]
        cut = np.nonzero(xs[1:] > xs[:-1])[0] + 1  # left sizes of valid splits
        if cut.size == 0:
            continue
        csum = np.cumsum(ys)
        csq = np.cumsum(ys**2)
        total_sum, total_sq = csum[-1], csq[-1]
        left_sum = csum[cut - 1]
        left_sq = csq[cut - 1]
        k = cut.astype(float)
        sse_left = left_sq - left_sum**2 / k
        sse_right = (total_sq - left_sq) - (total_sum - left_sum) ** 2 / (m - k)
        gains = sse_parent - sse_left - sse_right
        i = int(np.argmax(gains))  # first max: lowest threshold wins ties
        if gains[i] > 1e-12 and (best is None or gains[i] > best[0]):
            threshold = (xs[cut[i] - 1] + xs[cut[i]]) / 2.0
            best = (float(gains[i]), j, float(threshold))
    return best


def _grow(x: np.ndarray, y: np.ndarray, depth: int, max_depth: int) -> Union[TreeNode, Leaf]:
    if depth >= max_depth:
        return Leaf(float(y.mean()))
    split = _best_split(x, y)
    if split is None:
        return Leaf(float(y.mean()))
    _, j, threshold = split
    mask = x[:, j] <= threshold
    return TreeNode(
        feature=j,
        threshold=threshold,
        left=_grow(x[mask], y[mask], depth + 1, max_depth),
        right=_grow(x[~mask], y[~mask], depth + 1, max_depth),
    )


def _eval_tree(node: Union[TreeNode, Leaf], x: np.ndarray) -> float:
    while isinstance(node, TreeNode):
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.value


def fit_gbt(
    x: np.ndarray,
    y: np.ndarray,
    n_estimators: int = 100,
    max_depth: int = 10,
    learning_rate: float = 0.1,
) -> TreeEnsemble:
    """Squared-loss boosting on residuals, with no stochastic subsampling."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError("degenerate input: need a 2-D matrix with at least 1 feature")
    if x.shape[0] != y.shape[0] or x.shape[0] < 2:
        raise ValueError("need at least 2 samples with matching x/y lengths")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite inputs")
    base = float(y.mean())
    residual = y - base
    trees: list[Union[TreeNode, Leaf]] = []
    for _ in range(n_estimators):
        tree = _grow(x, residual, depth=0, max_depth=max_depth)
        pred = np.array([_eval_tree(tree, row) for row in x])
        residual = residual - learning_rate * pred
        trees.append(tree)
    return TreeEnsemble(trees, learning_rate, base, x.shape[1])


def predict_gbt(m: TreeEnsemble, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (m.n_features,):
        raise ValueError(f"expected a vector of length {m.n_features}, got shape {x.shape}")
    total = m.base_score
    for tree in m.trees:
        total += m.learning_rate * _eval_tree(tree, x)
    return float(total)
