"""Frozen copies of collective matrix factorization's ALS.

``fit_cmf`` is the ALS as it stood before the dense masked form: observations
kept as (task, pair, value) triples with per-task and per-pair lists, one
``np.linalg.solve`` per row, and an objective summed one observation at a
time. The package's ``fit_cmf`` sums in another order, so the two agree to
rounding.

``fit_cmf_dense`` and ``fold_in_pair_dense`` are the dense masked form as it
stood before its solves went through ``numerics.solve``: batched
``np.linalg.solve`` calls and ``np.sum``. The package's must match them bit
for bit.

``test_frozen_reference`` checks the package against both. Keep this file as
it is: it is the fixed point the comparisons are made against, not code to
refactor along with the package.
"""

from __future__ import annotations

import numpy as np

from xferlens.factorization import CmfModel


def _objective(
    t_rows: np.ndarray,
    l_rows: np.ndarray,
    f_rows: np.ndarray,
    obs: list[tuple[int, int, float]],
    x: np.ndarray,
    reg: float,
    alpha: float,
) -> float:
    fit = sum((val - float(t_rows[ti] @ l_rows[pi])) ** 2 for ti, pi, val in obs)
    side = alpha * float(np.sum((x - l_rows @ f_rows.T) ** 2)) if alpha > 0 else 0.0
    ridge = reg * (
        float(np.sum(t_rows**2)) + float(np.sum(l_rows**2)) + float(np.sum(f_rows**2))
    )
    return fit + side + ridge


def fit_cmf(
    observations,
    pairs,
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
    ``pairs``; ``x`` is the |pairs| x n feature matrix (no missing values).
    Missing Y cells are simply absent from the observation list.
    """
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

    obs: list[tuple[int, int, float]] = []
    for task, pair, val in obs_list:
        if pair not in pair_index:
            raise ValueError(f"observation references unknown pair {pair}")
        obs.append((task_index[task], pair_index[pair], float(val)))
    by_task: list[list[tuple[int, float]]] = [[] for _ in tasks]
    by_pair: list[list[tuple[int, float]]] = [[] for _ in pairs]
    for ti, pi, val in obs:
        by_task[ti].append((pi, val))
        by_pair[pi].append((ti, val))

    n_features = x.shape[1]
    eye = np.eye(d)
    best: CmfModel | None = None
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        t_rows = rng.uniform(-0.1, 0.1, size=(len(tasks), d))
        l_rows = rng.uniform(-0.1, 0.1, size=(len(pairs), d))
        f_rows = rng.uniform(-0.1, 0.1, size=(n_features, d))
        trace = [_objective(t_rows, l_rows, f_rows, obs, x, reg, alpha)]
        for _ in range(sweeps):
            # Task block.
            for ti, cells in enumerate(by_task):
                if not cells:
                    continue
                rows = l_rows[[pi for pi, _ in cells]]
                vals = np.array([v for _, v in cells])
                t_rows[ti] = np.linalg.solve(rows.T @ rows + reg * eye, rows.T @ vals)
            trace.append(_objective(t_rows, l_rows, f_rows, obs, x, reg, alpha))
            # Pair block (shared between both decompositions).
            ftf = alpha * (f_rows.T @ f_rows) if alpha > 0 else np.zeros((d, d))
            for pi in range(len(pairs)):
                a = ftf + reg * eye
                b = alpha * (f_rows.T @ x[pi]) if alpha > 0 else np.zeros(d)
                for ti, val in by_pair[pi]:
                    a = a + np.outer(t_rows[ti], t_rows[ti])
                    b = b + val * t_rows[ti]
                l_rows[pi] = np.linalg.solve(a, b)
            trace.append(_objective(t_rows, l_rows, f_rows, obs, x, reg, alpha))
            # Feature block.
            if alpha > 0:
                a = alpha * (l_rows.T @ l_rows) + reg * eye
                f_rows = np.linalg.solve(a, alpha * (l_rows.T @ x)).T
            else:
                f_rows = np.zeros_like(f_rows)
            trace.append(_objective(t_rows, l_rows, f_rows, obs, x, reg, alpha))
        model = CmfModel(
            t_rows, l_rows, f_rows, task_index, pair_index, d, reg, alpha, tuple(trace)
        )
        if best is None or trace[-1] < best.objective_trace[-1]:
            best = model
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# The dense masked form, with np.linalg.solve


def _objective_dense(t_rows, l_rows, f_rows, y, w, x, reg, alpha):
    fit = float(np.sum(w * (y - t_rows @ l_rows.T) ** 2))
    side = alpha * float(np.sum((x - l_rows @ f_rows.T) ** 2)) if alpha > 0 else 0.0
    ridge = reg * (
        float(np.sum(t_rows**2)) + float(np.sum(l_rows**2)) + float(np.sum(f_rows**2))
    )
    return fit + side + ridge


def fit_cmf_dense(observations, pairs, x, d, reg, alpha, sweeps=50, seed=0, restarts=3):
    """The dense ALS on valid inputs (this copy checks nothing)."""
    obs_list = list(observations)
    pairs = list(pairs)
    pair_index = {p: i for i, p in enumerate(pairs)}
    tasks = sorted({t for t, _, _ in obs_list})
    task_index = {t: i for i, t in enumerate(tasks)}
    x = np.asarray(x, dtype=float)
    y = np.zeros((len(tasks), len(pairs)))
    w = np.zeros_like(y)
    for task, pair, val in obs_list:
        cell = task_index[task], pair_index[pair]
        y[cell], w[cell] = val, 1.0

    eye = np.eye(d)
    best = None
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        t_rows = rng.uniform(-0.1, 0.1, size=(len(tasks), d))
        l_rows = rng.uniform(-0.1, 0.1, size=(len(pairs), d))
        f_rows = rng.uniform(-0.1, 0.1, size=(x.shape[1], d))
        trace = [_objective_dense(t_rows, l_rows, f_rows, y, w, x, reg, alpha)]
        for _ in range(sweeps):
            a = np.einsum("tp,pi,pj->tij", w, l_rows, l_rows) + reg * eye
            t_rows = np.linalg.solve(a, (y @ l_rows)[..., None])[..., 0]
            trace.append(_objective_dense(t_rows, l_rows, f_rows, y, w, x, reg, alpha))
            a = np.einsum("tp,ti,tj->pij", w, t_rows, t_rows) + alpha * (f_rows.T @ f_rows) + reg * eye
            b = y.T @ t_rows + alpha * (x @ f_rows)
            l_rows = np.linalg.solve(a, b[..., None])[..., 0]
            trace.append(_objective_dense(t_rows, l_rows, f_rows, y, w, x, reg, alpha))
            if alpha > 0:
                a = alpha * (l_rows.T @ l_rows) + reg * eye
                f_rows = np.linalg.solve(a, alpha * (l_rows.T @ x)).T
            else:
                f_rows = np.zeros_like(f_rows)
            trace.append(_objective_dense(t_rows, l_rows, f_rows, y, w, x, reg, alpha))
        model = CmfModel(
            t_rows, l_rows, f_rows, task_index, pair_index, d, reg, alpha, tuple(trace)
        )
        if best is None or trace[-1] < best.objective_trace[-1]:
            best = model
    return best


def fold_in_pair_dense(m: CmfModel, x_new: np.ndarray) -> np.ndarray:
    return np.linalg.solve(m.fold_in_system, m.alpha * (m.feature_factors.T @ x_new))
