"""Averaging baselines and a from-scratch gradient-boosted tree regressor.

The boosting is deliberately plain: squared loss, exact greedy split search,
no subsampling and no second-order terms. A fit sorts every feature column
once and owns every row set it splits, with its search data, for each later
tree that makes the same split. Ties between equal-gain splits go to the
lowest feature index, then the lowest threshold, so fits are deterministic;
they are the trees that re-sorting at every node and searching one feature at
a time would grow, bit for bit.

A node of two rows has one cut per untied feature, and its gain depends only
on which row sorts first, so only the lowest feature of each order can win.
Its search works out those two gains in Python floats with the IEEE
operations of the matrix search, in its order (x*x for numpy's **2, cumsum's
running sums; its division by 1.0 is exact and left out), so it picks the
same split, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .data import Dataset, LangId, TaskId
from .numerics import require_finite, require_int

# The reductions behind ndarray.sum and ndarray.any: the same bits.
_sum = np.add.reduce
_any = np.logical_or.reduce


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


class _RowSet:
    """A node's rows and the part of its split search that depends on x alone.

    ``fit_gbt`` keeps one tree of these per fit, grown lazily from the root
    row set: a child is made the first time a round picks the split that
    makes it, its search data is built the first time it is searched, and
    every later round that picks the same split reuses both. ``children`` maps
    a split's flat argmax index to (feature, threshold, left, right).
    """

    __slots__ = ("rows", "order", "xs", "ties", "k", "m_k", "pair", "children")

    def __init__(self, rows: np.ndarray, order: np.ndarray):
        self.rows = rows
        self.order = order  # the rows sorted by each feature, one feature per row
        self.xs = None
        self.children: dict = {}

    def build(self, x: np.ndarray) -> None:
        """Sorted values, then the no-cut mask between equal values and left/right sizes.

        A two-row set keeps instead ``pair``: (feature, whether its first row
        sorts first) for the lowest untied feature of each order.
        """
        n, m = self.order.shape
        self.xs = x[self.order, np.arange(n)[:, None]]
        if m == 2:
            a = int(self.rows[0])
            firsts: dict = {}
            for j, (r, (lo, hi)) in enumerate(zip(self.order[:, 0].tolist(), self.xs.tolist())):
                if lo != hi:
                    firsts.setdefault(r == a, j)
            self.pair = sorted((j, a_first) for a_first, j in firsts.items())
            return
        self.ties = self.xs[:, 1:] == self.xs[:, :-1]
        self.k = np.arange(1.0, m)  # left sizes
        self.m_k = m - self.k

    def split(self, x: np.ndarray, i: int) -> tuple:
        """The children of the split at flat index ``i``, made on first use.

        A child's per-feature orders are the parent's with the other child's
        rows filtered out: a stable sort of a subset is the presorted order
        restricted to it, so tied values keep their order.
        """
        child = self.children.get(i)
        if child is None:
            n, m = self.order.shape
            j, c = divmod(i, m - 1)
            lo, hi = self.xs[j, c], self.xs[j, c + 1]
            threshold = float(lo / 2.0 + hi / 2.0)  # a sum of two could overflow
            if not threshold < hi:  # adjacent floats: the midpoint rounded up to hi
                threshold = float(lo)
            mask = x[self.rows, j] <= threshold  # the comparison predict_gbt makes
            sel = x[self.order, j] <= threshold
            child = self.children[i] = (
                j,
                threshold,
                _RowSet(self.rows[mask], self.order[sel].reshape(n, -1)),
                _RowSet(self.rows[~mask], self.order[~sel].reshape(n, -1)),
            )
        return child


def _best_split(node: _RowSet, y: np.ndarray, node_y: np.ndarray) -> int | None:
    """Exact greedy search over every feature at once: a flat index into the gains.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values, or the lower value where the midpoint of two adjacent floats
    rounds up to the upper one, which keeps at least one sample on each side.
    The gains of all features form one matrix, so a single first-max
    ``argmax`` over it picks the lowest feature, then the lowest threshold,
    among equal gains.
    Returns None when no split reduces the squared error by more than 1e-12.
    """
    m = node_y.size
    if m == 2:
        return _best_pair_split(node, node_y)
    sse_parent = float(_sum((node_y - _sum(node_y) / m) ** 2))
    ys = y[node.order]
    csum = ys.cumsum(axis=1)
    csq = (ys**2).cumsum(axis=1)
    left_sum = csum[:, :-1]
    left_sq = csq[:, :-1]
    sse_left = left_sq - left_sum**2 / node.k
    sse_right = (csq[:, -1:] - left_sq) - (csum[:, -1:] - left_sum) ** 2 / node.m_k
    gains = sse_parent - sse_left - sse_right
    np.putmask(gains, node.ties, -np.inf)  # no cut between equal values
    flat = gains.ravel()
    i = int(flat.argmax())
    v = flat[i]
    if v != v:  # NaN: as per-feature argmax did, an overflowed feature is skipped whole
        gains[_any(np.isnan(gains), 1)] = -np.inf
        i = int(flat.argmax())
    if not flat[i] > 1e-12:
        return None
    return i


def _best_pair_split(node: _RowSet, node_y: np.ndarray) -> int | None:
    """``_best_split`` of a two-row set, whose flat index is the feature.

    A NaN gain fails every comparison, so it is skipped as the matrix search
    skips a feature whose gains hold NaN; on equal gains the lower feature wins.
    """
    ya, yb = node_y.tolist()
    mean = (ya + yb) / 2
    da, db = ya - mean, yb - mean
    sse_parent = da * da + db * db
    best, best_gain = None, 1e-12
    for j, a_first in node.pair:
        f, s = (ya, yb) if a_first else (yb, ya)
        ff = f * f
        sse_left = ff - ff  # 0.0, or NaN where f * f overflows
        r = (f + s) - f
        gain = (sse_parent - sse_left) - (((ff + s * s) - ff) - r * r)
        if gain > best_gain:
            best, best_gain = j, gain
    return best


def _grow(
    node: _RowSet, x: np.ndarray, y: np.ndarray, depth: int, max_depth: int, pred: np.ndarray
) -> Union[TreeNode, Leaf]:
    """Grow the subtree over ``node``'s rows and write its leaves into ``pred``."""
    rows = node.rows
    if rows.size == 1:  # sum() starts from 0.0, so -0.0 sums to 0.0
        r = int(rows[0])
        value = 0.0 + float(y[r])
        pred[r] = value
        return Leaf(value)
    node_y = y[rows]
    i = None
    if depth < max_depth:
        if node.xs is None:
            node.build(x)
        i = _best_split(node, y, node_y)
    if i is None:
        value = float(_sum(node_y) / rows.size)  # the bits of mean()
        pred[rows] = value
        return Leaf(value)
    j, threshold, left, right = node.split(x, i)
    return TreeNode(
        feature=j,
        threshold=threshold,
        left=_grow(left, x, y, depth + 1, max_depth, pred),
        right=_grow(right, x, y, depth + 1, max_depth, pred),
    )


def fit_gbt(
    x: np.ndarray,
    y: np.ndarray,
    n_estimators: int = 100,
    max_depth: int = 10,
    learning_rate: float = 0.1,
) -> TreeEnsemble:
    """Squared-loss boosting on residuals, with no stochastic subsampling."""
    require_int("n_estimators", n_estimators, 0)
    require_int("max_depth", max_depth, 0)
    require_finite("learning_rate", learning_rate, 0.0, strict=True)
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
    # x is the same for every tree, so one row-set tree serves the whole fit.
    root = _RowSet(np.arange(x.shape[0]), np.argsort(x.T, axis=1, kind="stable"))
    pred = np.empty(x.shape[0])
    trees: list[Union[TreeNode, Leaf]] = []
    for _ in range(n_estimators):
        trees.append(_grow(root, x, residual, 0, max_depth, pred))
        residual = residual - learning_rate * pred
    return TreeEnsemble(trees, learning_rate, base, x.shape[1])


def predict_gbt(m: TreeEnsemble, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (m.n_features,):
        raise ValueError(f"expected a vector of length {m.n_features}, got shape {x.shape}")
    row = x.tolist()  # Python floats: the same comparisons, without numpy scalars
    rate = m.learning_rate
    total = m.base_score
    for node in m.trees:
        while type(node) is TreeNode:
            node = node.left if row[node.feature] <= node.threshold else node.right
        total += rate * node.value
    return float(total)
