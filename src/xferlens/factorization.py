"""Collective matrix factorization with side information, trained by ALS.

The observed score matrix Y (tasks x language-pairs) is factorized as T L^T
while the pair feature matrix X is co-factorized as L F^T with shared pair
factors L, so pairs never scored in Y still receive a usable latent vector.
Y is dense, with a 0/1 mask of its observed cells, so each ALS block update is
one batched closed-form ridge solve (a d x d system per task, per pair, or for
the feature factors), which makes the full objective non-increasing at every step.

Every solve (the ALS blocks and the cold-start fold-in) goes through
:func:`xferlens.numerics.solve` and the objective sums with ``np.add.reduce``,
with the bits of ``np.linalg.solve`` and ``np.sum``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .data import LangId, TaskId
from .numerics import require_int, solve

_sum = np.add.reduce

Pair = tuple[LangId, LangId]


@dataclass(frozen=True)
class CmfModel:
    task_factors: np.ndarray  # |tasks| x d
    pair_factors: np.ndarray  # |pairs| x d
    feature_factors: np.ndarray  # n_features x d
    task_index: dict[TaskId, int]
    pair_index: dict[Pair, int]
    d_latent: int
    reg: float
    alpha: float
    objective_trace: tuple[float, ...]
    # fold_in_pair's matrix alpha FᵀF + reg I, or None when F carries no
    # information (alpha <= 0 or F all zero); dataclasses.replace rebuilds it.
    fold_in_system: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        f = self.feature_factors
        system = None
        if self.alpha > 0 and np.any(f):
            system = self.alpha * (f.T @ f) + self.reg * np.eye(self.d_latent)
        object.__setattr__(self, "fold_in_system", system)


def _objective(
    t_rows: np.ndarray,
    l_rows: np.ndarray,
    f_rows: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    x: np.ndarray,
    reg: float,
    alpha: float,
) -> float:
    fit = float(_sum(w * (y - t_rows @ l_rows.T) ** 2, None))
    side = alpha * float(_sum((x - l_rows @ f_rows.T) ** 2, None)) if alpha > 0 else 0.0
    ridge = reg * (float(_sum(t_rows**2, None)) + float(_sum(l_rows**2, None))
                   + float(_sum(f_rows**2, None)))
    return fit + side + ridge


def fit_cmf(
    observations: Iterable[tuple[TaskId, Pair, float]],
    pairs: Sequence[Pair],
    x: np.ndarray,
    d: int,
    reg: float,
    alpha: float,
    sweeps: int = 50,
    seed: int = 0,
    restarts: int = 3,
) -> CmfModel:
    """Alternating least squares with seeded restarts, keeping the best objective.

    ``observations`` are (task, pair, value) triples over the rows of
    ``pairs``, at most one per cell; ``x`` is the |pairs| x n feature matrix
    (no missing values). Missing Y cells are absent from the observation list.
    ``sweeps`` must be an integer >= 0 and ``restarts`` one >= 1.
    """
    require_int("sweeps", sweeps, 0)
    require_int("restarts", restarts, 1)
    obs_list = list(observations)
    if not obs_list:
        raise ValueError("empty observations")
    pairs = list(pairs)
    pair_index = {p: i for i, p in enumerate(pairs)}
    if len(pair_index) != len(pairs):
        raise ValueError("duplicate pairs")
    tasks = sorted({t for t, _, _ in obs_list})
    task_index = {t: i for i, t in enumerate(tasks)}
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != len(pairs):
        raise ValueError("feature matrix rows must align with the pair list")
    if not np.isfinite(x).all():
        raise ValueError("feature matrix must be fully observed (impute first)")
    if d < 1:
        raise ValueError("d must be >= 1")
    if d > min(len(tasks), len(pairs)):
        raise ValueError(f"d={d} exceeds min(|tasks|={len(tasks)}, |pairs|={len(pairs)})")
    if reg < 0 or not 0.0 <= alpha <= 1.0:
        raise ValueError("need reg >= 0 and alpha in [0, 1]")

    y = np.zeros((len(tasks), len(pairs)))
    w = np.zeros_like(y)
    for task, pair, val in obs_list:
        if pair not in pair_index:
            raise ValueError(f"observation references unknown pair {pair}")
        cell = task_index[task], pair_index[pair]
        if w[cell]:
            raise ValueError(f"duplicate observation for (task, pair) = ({task!r}, {pair})")
        y[cell], w[cell] = val, 1.0

    eye = np.eye(d)
    best = None
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        t_rows = rng.uniform(-0.1, 0.1, size=(len(tasks), d))
        l_rows = rng.uniform(-0.1, 0.1, size=(len(pairs), d))
        f_rows = rng.uniform(-0.1, 0.1, size=(x.shape[1], d))
        trace = [_objective(t_rows, l_rows, f_rows, y, w, x, reg, alpha)]
        for _ in range(sweeps):
            # Task block; y is 0 off the mask, so y @ L sums observed cells only.
            a = np.einsum("tp,pi,pj->tij", w, l_rows, l_rows) + reg * eye
            t_rows = solve(a, (y @ l_rows)[..., None])[..., 0]
            trace.append(_objective(t_rows, l_rows, f_rows, y, w, x, reg, alpha))
            # Pair block (shared between both decompositions).
            a = np.einsum("tp,ti,tj->pij", w, t_rows, t_rows) + alpha * (f_rows.T @ f_rows) + reg * eye
            b = y.T @ t_rows + alpha * (x @ f_rows)
            l_rows = solve(a, b[..., None])[..., 0]
            trace.append(_objective(t_rows, l_rows, f_rows, y, w, x, reg, alpha))
            # Feature block; with alpha = 0 (and reg = 0) its system is singular.
            if alpha > 0:
                a = alpha * (l_rows.T @ l_rows) + reg * eye
                f_rows = solve(a, alpha * (l_rows.T @ x)).T
            else:
                f_rows = np.zeros_like(f_rows)
            trace.append(_objective(t_rows, l_rows, f_rows, y, w, x, reg, alpha))
        model = CmfModel(
            t_rows, l_rows, f_rows, task_index, pair_index, d, reg, alpha, tuple(trace)
        )
        if best is None or trace[-1] < best.objective_trace[-1]:
            best = model
    return best


def predict_cmf(m: CmfModel, task: TaskId, pair: Pair) -> float:
    if task not in m.task_index:
        raise ValueError(f"unknown task {task!r}")
    if pair not in m.pair_index:
        raise ValueError(f"unknown pair {pair}; use fold_in_pair for cold-start pairs")
    return float(m.task_factors[m.task_index[task]] @ m.pair_factors[m.pair_index[pair]])


def fold_in_pair(m: CmfModel, x_new: np.ndarray) -> np.ndarray:
    """Latent vector for an unseen pair from its features alone.

    Solves min_l alpha ||x_new - F l||^2 + reg ||l||^2 in closed form. Requires
    the model to have been trained with alpha > 0 so F carries information.
    The model owns the d x d system matrix, the same for every row.
    """
    if m.fold_in_system is None:
        raise ValueError("feature factors are degenerate (model was fit with alpha = 0)")
    x_new = np.asarray(x_new, dtype=float)
    if x_new.shape != (m.feature_factors.shape[0],):
        raise ValueError("feature vector has the wrong dimensionality")
    return solve(m.fold_in_system, m.alpha * (m.feature_factors.T @ x_new))


def predict_cold_start(m: CmfModel, task: TaskId, x_new: np.ndarray) -> float:
    """Prediction for a pair never observed in Y, via its folded-in factor."""
    if task not in m.task_index:
        raise ValueError(f"unknown task {task!r}")
    return float(m.task_factors[m.task_index[task]] @ fold_in_pair(m, x_new))
