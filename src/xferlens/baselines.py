"""Averaging baselines and a from-scratch gradient-boosted tree regressor.

The boosting is deliberately plain: squared loss, exact greedy split search,
no subsampling and no second-order terms. Each fit sorts every feature column
once, since the features stay fixed across trees; each node then takes its
rows' orders from its parent's and searches all features in one pass. Ties
between equal-gain splits go to the lowest feature index, then the lowest
threshold, so fits are deterministic; they are the trees that re-sorting at
every node and searching one feature at a time would grow, bit for bit.
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


def _best_split(
    x: np.ndarray, y: np.ndarray, node_y: np.ndarray, order: np.ndarray
) -> tuple[int, float] | None:
    """Exact greedy search over every feature at once: (feature, threshold).

    ``order`` holds the node's rows sorted by each feature, one feature per
    row. Candidate thresholds are midpoints between consecutive distinct
    sorted values, which keeps at least one sample on each side. The gains of
    all features form one matrix, so a single first-max ``argmax`` over it
    picks the lowest feature, then the lowest threshold, among equal gains.
    Returns None when no split reduces the squared error by more than 1e-12.
    """
    n, m = order.shape
    sse_parent = float(((node_y - node_y.sum() / m) ** 2).sum())
    xs = x[order, np.arange(n)[:, None]]
    ys = y[order]
    csum = ys.cumsum(axis=1)
    csq = (ys**2).cumsum(axis=1)
    left_sum = csum[:, :-1]
    left_sq = csq[:, :-1]
    k = np.arange(1.0, m)  # left sizes
    sse_left = left_sq - left_sum**2 / k
    sse_right = (csq[:, -1:] - left_sq) - (csum[:, -1:] - left_sum) ** 2 / (m - k)
    gains = sse_parent - sse_left - sse_right
    gains[xs[:, 1:] == xs[:, :-1]] = -np.inf  # no cut between equal values
    flat = gains.ravel()
    i = int(flat.argmax())
    if np.isnan(flat[i]):  # as per-feature argmax did, an overflowed feature is skipped whole
        gains[np.isnan(gains).any(axis=1)] = -np.inf
        i = int(flat.argmax())
    if not flat[i] > 1e-12:
        return None
    j, c = divmod(i, m - 1)
    return j, float(xs[j, c] / 2.0 + xs[j, c + 1] / 2.0)  # a sum of two could overflow


def _grow(
    x: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    order: np.ndarray,
    depth: int,
    max_depth: int,
    pred: np.ndarray,
) -> Union[TreeNode, Leaf]:
    """Grow the subtree over ``rows`` (ascending) and write its leaves into ``pred``.

    A child's per-feature orders are the parent's with the other child's rows
    filtered out: a stable sort of a subset is the presorted order restricted
    to it, so tied values keep their order.
    """
    node_y = y[rows]
    split = None
    if depth < max_depth and rows.size >= 2:
        split = _best_split(x, y, node_y, order)
    if split is None:
        value = float(node_y.sum() / rows.size)  # the bits of mean(), without its overhead
        pred[rows] = value
        return Leaf(value)
    j, threshold = split
    mask = x[rows, j] <= threshold  # the comparison _eval_tree makes
    sel = x[order, j] <= threshold
    n = order.shape[0]
    left = _grow(x, y, rows[mask], order[sel].reshape(n, -1), depth + 1, max_depth, pred)
    right = _grow(x, y, rows[~mask], order[~sel].reshape(n, -1), depth + 1, max_depth, pred)
    return TreeNode(feature=j, threshold=threshold, left=left, right=right)


def _eval_tree(node: Union[TreeNode, Leaf], x: list[float]) -> float:
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
    rows = np.arange(x.shape[0])
    order = np.argsort(x.T, axis=1, kind="stable")  # x is the same for every tree
    pred = np.empty(x.shape[0])
    trees: list[Union[TreeNode, Leaf]] = []
    for _ in range(n_estimators):
        trees.append(_grow(x, residual, rows, order, 0, max_depth, pred))
        residual = residual - learning_rate * pred
    return TreeEnsemble(trees, learning_rate, base, x.shape[1])


def predict_gbt(m: TreeEnsemble, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (m.n_features,):
        raise ValueError(f"expected a vector of length {m.n_features}, got shape {x.shape}")
    row = x.tolist()  # Python floats: a node's comparison skips numpy's scalar dispatch
    total = m.base_score
    for tree in m.trees:
        total += m.learning_rate * _eval_tree(tree, row)
    return float(total)
