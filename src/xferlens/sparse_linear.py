"""Single-task Lasso and multi-task Group Lasso by coordinate descent.

Both solvers minimize per-task mean squared error (the 1/(2m) convention)
plus their penalty, with unpenalized intercepts handled by centering. The
Group Lasso applies an l1/l2 penalty over feature rows of the task-weight
matrix, which drives a common sparsity pattern across tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import TaskId


def soft_threshold(a: float, lam: float) -> float:
    if a > lam:
        return a - lam
    if a < -lam:
        return a + lam
    return 0.0


@dataclass
class LassoModel:
    weights: np.ndarray
    intercept: float
    lam: float
    converged: bool
    n_iter: int
    objective_trace: tuple[float, ...]


@dataclass
class GroupLassoModel:
    weights: np.ndarray  # n_features x n_tasks
    intercepts: np.ndarray
    lambda_group: float
    tasks: tuple[TaskId, ...]
    converged: bool
    n_iter: int
    objective_trace: tuple[float, ...]


def lasso_objective(x: np.ndarray, y: np.ndarray, w: np.ndarray, b: float, lam: float) -> float:
    r = y - x @ w - b
    return float(0.5 * (r @ r) / len(y) + lam * np.abs(w).sum())


def group_lasso_objective(
    xs: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    weights: np.ndarray,
    intercepts: np.ndarray,
    lambda_group: float,
) -> float:
    total = 0.0
    for t, (x, y) in enumerate(zip(xs, ys)):
        r = y - x @ weights[:, t] - intercepts[t]
        total += 0.5 * (r @ r) / len(y)
    penalty = lambda_group * np.linalg.norm(weights, axis=1).sum()
    return float(total + penalty)


def fit_lasso(
    x: np.ndarray, y: np.ndarray, lam: float, tol: float = 1e-6, max_iter: int = 10000
) -> LassoModel:
    """Cyclic coordinate descent with exact soft-threshold updates.

    Objective: (1/(2m)) ||y - Xw - b||^2 + lam ||w||_1, intercept unpenalized.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] != y.shape[0] or x.shape[0] < 2:
        raise ValueError("need a 2-D design with >= 2 rows matching y")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite inputs")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    m, n = x.shape
    xm = x.mean(axis=0)
    ym = float(y.mean())
    xc = x - xm
    yc = y - ym
    z = (xc**2).sum(axis=0) / m  # per-coordinate curvature
    w = np.zeros(n)
    r = yc.copy()
    trace = []
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        delta = 0.0
        for j in range(n):
            if z[j] == 0.0:
                continue  # constant column, weight stays 0
            rho = (xc[:, j] @ r) / m + z[j] * w[j]
            wj = soft_threshold(rho, lam) / z[j]
            if wj != w[j]:
                r -= xc[:, j] * (wj - w[j])
                delta = max(delta, abs(wj - w[j]))
                w[j] = wj
        trace.append(float(0.5 * (r @ r) / m + lam * np.abs(w).sum()))
        if delta < tol:
            converged = True
            break
    b = ym - float(xm @ w)
    return LassoModel(w, b, lam, converged, sweeps, tuple(trace))


def _group_soft(v: np.ndarray, lam: float) -> np.ndarray:
    nv = float(np.linalg.norm(v))
    if nv == 0.0 or nv <= lam:
        return np.zeros_like(v)
    return (1.0 - lam / nv) * v


def _row_update(phi_row: np.ndarray, rho: np.ndarray, z_row: np.ndarray, lam: float) -> np.ndarray:
    """Minimize the one-row subproblem sum_t (z_t/2) p_t^2 - rho_t p_t + lam ||p||_2.

    With equal curvatures the group soft-threshold is exact for the
    subproblem; otherwise a proximal-gradient step with the max curvature as
    Lipschitz constant, which still never increases the objective.
    Zero-curvature coordinates are pinned at 0 (they only add penalty).
    """
    new = np.zeros_like(phi_row)
    active = z_row > 0.0
    if not active.any():
        return new
    za = z_row[active]
    ra = rho[active]
    if np.allclose(za, za[0], rtol=1e-12, atol=0.0):
        new[active] = _group_soft(ra, lam) / za[0]
    else:
        lip = float(za.max())
        cur = phi_row[active]
        v = cur - (za * cur - ra) / lip
        new[active] = _group_soft(v, lam / lip)
    return new


def fit_group_lasso(
    xs: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    lambda_group: float,
    tol: float = 1e-6,
    max_iter: int = 10000,
    tasks: Sequence[TaskId] | None = None,
) -> GroupLassoModel:
    """Block coordinate descent over feature rows of the task-weight matrix.

    Objective: sum_t (1/(2 m_t)) ||y_t - X_t phi_t - b_t||^2
               + lambda_group * sum_j ||Phi_{j,.}||_2.
    """
    if len(xs) != len(ys) or not xs:
        raise ValueError("need matching non-empty per-task designs and targets")
    xs = [np.asarray(x, dtype=float) for x in xs]
    ys = [np.asarray(y, dtype=float) for y in ys]
    n = xs[0].shape[1]
    for x, y in zip(xs, ys):
        if x.ndim != 2 or x.shape[1] != n:
            raise ValueError(f"inconsistent feature dimension: {x.shape[1]} vs {n}")
        if x.shape[0] != y.shape[0] or x.shape[0] < 2:
            raise ValueError("each task needs >= 2 samples matching its targets")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("non-finite inputs")
    if lambda_group < 0:
        raise ValueError("lambda_group must be >= 0")
    n_tasks = len(xs)
    task_names = tuple(tasks) if tasks is not None else tuple(str(t) for t in range(n_tasks))
    if len(task_names) != n_tasks:
        raise ValueError("task name list does not match the number of tasks")

    ms = np.array([x.shape[0] for x in xs], dtype=float)
    x_means = [x.mean(axis=0) for x in xs]
    y_means = np.array([float(y.mean()) for y in ys])
    xcs = [x - mu for x, mu in zip(xs, x_means)]
    ycs = [y - mu for y, mu in zip(ys, y_means)]
    z = np.stack([(xc**2).sum(axis=0) for xc in xcs], axis=1) / ms  # n x T

    phi = np.zeros((n, n_tasks))
    residuals = [yc.copy() for yc in ycs]
    trace = []
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        delta = 0.0
        for j in range(n):
            rho = np.array(
                [
                    (xcs[t][:, j] @ residuals[t]) / ms[t] + z[j, t] * phi[j, t]
                    for t in range(n_tasks)
                ]
            )
            new = _row_update(phi[j], rho, z[j], lambda_group)
            for t in range(n_tasks):
                change = new[t] - phi[j, t]
                if change != 0.0:
                    residuals[t] -= xcs[t][:, j] * change
                    delta = max(delta, abs(change))
            phi[j] = new
        obj = (
            sum(0.5 * (residuals[t] @ residuals[t]) / ms[t] for t in range(n_tasks))
            + lambda_group * np.linalg.norm(phi, axis=1).sum()
        )
        trace.append(float(obj))
        if delta < tol:
            converged = True
            break
    intercepts = np.array(
        [y_means[t] - float(x_means[t] @ phi[:, t]) for t in range(n_tasks)]
    )
    return GroupLassoModel(
        phi, intercepts, lambda_group, task_names, converged, sweeps, tuple(trace)
    )


def predict_linear(
    model: LassoModel | GroupLassoModel, x: np.ndarray, task: TaskId | None = None
) -> float:
    x = np.asarray(x, dtype=float)
    if isinstance(model, LassoModel):
        if x.shape != model.weights.shape:
            raise ValueError("dimension mismatch")
        return float(model.weights @ x + model.intercept)
    if task is None:
        raise ValueError("a task is required for group-lasso predictions")
    if task not in model.tasks:
        raise ValueError(f"unknown task {task!r}")
    t = model.tasks.index(task)
    if x.shape != (model.weights.shape[0],):
        raise ValueError("dimension mismatch")
    return float(model.weights[:, t] @ x + model.intercepts[t])


# ---------------------------------------------------------------------------
# Minimal JSON round-trip for fitted linear models (used by the CLI)

def linear_model_to_dict(model: LassoModel | GroupLassoModel) -> dict:
    if isinstance(model, LassoModel):
        return {
            "kind": "lasso",
            "weights": model.weights.tolist(),
            "intercept": model.intercept,
            "lambda": model.lam,
        }
    return {
        "kind": "group-lasso",
        "weights": model.weights.tolist(),
        "intercepts": model.intercepts.tolist(),
        "lambda_group": model.lambda_group,
        "tasks": list(model.tasks),
    }


def linear_model_from_dict(payload: dict) -> LassoModel | GroupLassoModel:
    kind = payload.get("kind")
    if kind == "lasso":
        return LassoModel(
            weights=np.asarray(payload["weights"], dtype=float),
            intercept=float(payload["intercept"]),
            lam=float(payload["lambda"]),
            converged=True,
            n_iter=0,
            objective_trace=(),
        )
    if kind == "group-lasso":
        return GroupLassoModel(
            weights=np.asarray(payload["weights"], dtype=float),
            intercepts=np.asarray(payload["intercepts"], dtype=float),
            lambda_group=float(payload["lambda_group"]),
            tasks=tuple(payload["tasks"]),
            converged=True,
            n_iter=0,
            objective_trace=(),
        )
    raise ValueError(f"unknown linear model kind {kind!r}")
