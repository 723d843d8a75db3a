"""Single-task Lasso and multi-task Group Lasso by one coordinate-descent solver.

Both minimize per-task mean squared error (the 1/(2m) convention) plus their
penalty, with unpenalized intercepts handled by centering. The Group Lasso
applies an l1/l2 penalty over feature rows of the task-weight matrix, which
drives a common sparsity pattern across tasks. The Lasso is its one-task
case: a row of one weight has norm |w_j|, so the row penalty is the l1 one.
The solver works in covariance form (Friedman, Hastie & Tibshirani 2010):
each task's centered covariances are computed once per fit, and a sweep
touches only those n x n x T numbers, never the rows of the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import TaskId


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


def _moments(xs: Sequence[np.ndarray], ys: Sequence[np.ndarray], lam: float):
    """Check per-task designs and targets; return their means and centered moments.

    Returns (x_means T x n, y_means T, G n x n x T, c n x T, s T) with
    G[:, :, t] = X_tᵀX_t/m_t, c[:, t] = X_tᵀy_t/m_t and s[t] = y_tᵀy_t/m_t on
    centered data, so the intercepts drop out of the solve.
    """
    if len(xs) != len(ys) or not xs:
        raise ValueError("need matching non-empty per-task designs and targets")
    xs = [np.asarray(x, dtype=float) for x in xs]
    ys = [np.asarray(y, dtype=float) for y in ys]
    for x, y in zip(xs, ys):
        if x.ndim != 2 or x.shape[1] != xs[0].shape[1]:
            raise ValueError(f"inconsistent design shapes: {x.shape} vs {xs[0].shape}")
        if y.shape != (x.shape[0],) or x.shape[0] < 2:
            raise ValueError("each task needs >= 2 samples matching its targets")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("non-finite inputs")
    if lam < 0:
        raise ValueError("the penalty must be >= 0")
    # A column constant within a task is centered by its value (as in
    # data.fit_scaler), not by a mean that can be an ulp off (seven rows of
    # 0.1), so that it gets zero curvature rather than a rounding-level one.
    x_means = np.array([np.where(x.max(axis=0) == x.min(axis=0), x[0], x.mean(axis=0)) for x in xs])
    y_means = np.array([float(y.mean()) for y in ys])
    xcs = [x - mu for x, mu in zip(xs, x_means)]
    ycs = [y - mu for y, mu in zip(ys, y_means)]
    gram = np.stack([xc.T @ xc / len(xc) for xc in xcs], axis=2)
    cov = np.stack([xc.T @ yc / len(yc) for xc, yc in zip(xcs, ycs)], axis=1)
    sq = np.array([yc @ yc / len(yc) for yc in ycs])
    return x_means, y_means, gram, cov, sq


def _group_soft(v: np.ndarray, lam: float) -> np.ndarray:
    nv = math.sqrt(v @ v)
    if nv == 0.0 or nv <= lam:
        return np.zeros_like(v)
    return (1.0 - lam / nv) * v


def _row_update(cur: np.ndarray, rho: np.ndarray, za: np.ndarray, equal: bool,
                lam: float) -> np.ndarray:
    """Minimize the one-row subproblem sum_t (z_t/2) p_t^2 - rho_t p_t + lam ||p||_2.

    Only the tasks with curvature z_t > 0 (``za``) enter; the other
    coordinates stay pinned at 0 (they only add penalty). With equal
    curvatures (``equal``) the group soft-threshold is exact for the
    subproblem; otherwise a proximal-gradient step from ``cur`` with the max
    curvature as Lipschitz constant, which still never increases the objective.
    """
    if equal:
        return _group_soft(rho, lam) / za[0]
    lip = float(za.max())
    return _group_soft(cur - (za * cur - rho) / lip, lam / lip)


def _solve(xs: Sequence[np.ndarray], ys: Sequence[np.ndarray], lam: float, tol: float,
           max_iter: int) -> tuple[np.ndarray, np.ndarray, bool, int, tuple[float, ...]]:
    """Block coordinate descent over the rows of the n x T weight matrix phi.

    Minimizes sum_t (s_t - 2 c_tᵀphi_t + phi_tᵀG_t phi_t) / 2 + lam sum_j ||phi_j||_2,
    the objective of the centered data (see ``_moments``). Row j's partial fit
    is rho_j = c[j] - G[:, j, :]·phi + z_j·phi_j with curvatures z_j = G[j, j, :].
    Returns (phi, intercepts, converged, sweeps, objective after each sweep).
    """
    x_means, y_means, gram, cov, sq = _moments(xs, ys, lam)
    n, n_tasks = cov.shape
    z = np.diagonal(gram).T  # n x T
    # The curvatures are fixed, so each row's update rule is chosen once per fit.
    # A row without curvature in any task stays 0.
    rules = {}
    for j, active in enumerate(z > 0.0):
        if active.any():
            za = z[j, active]
            rules[j] = (slice(None) if active.all() else active, za,
                        np.allclose(za, za[0], rtol=1e-12, atol=0.0))
    phi = np.zeros((n, n_tasks))
    trace = []
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        start = phi.copy()
        for j, (active, za, equal) in rules.items():
            rho = cov[j] - (gram[:, j, :] * phi).sum(axis=0) + z[j] * phi[j]
            phi[j, active] = _row_update(phi[j, active], rho[active], za, equal, lam)
        fit = sq - 2.0 * (cov * phi).sum(axis=0) + np.einsum("kt,kjt,jt->t", phi, gram, phi)
        trace.append(float(0.5 * fit.sum() + lam * np.linalg.norm(phi, axis=1).sum()))
        if np.abs(phi - start).max(initial=0.0) < tol:  # each row moves once per sweep
            converged = True
            break
    intercepts = np.array([y_means[t] - float(x_means[t] @ phi[:, t]) for t in range(n_tasks)])
    return phi, intercepts, converged, sweeps, tuple(trace)


def fit_lasso(
    x: np.ndarray, y: np.ndarray, lam: float, tol: float = 1e-6, max_iter: int = 10000
) -> LassoModel:
    """The one-task case of the block solver.

    Objective: (1/(2m)) ||y - Xw - b||^2 + lam ||w||_1, intercept unpenalized.
    """
    phi, intercepts, converged, sweeps, trace = _solve([x], [y], lam, tol, max_iter)
    return LassoModel(phi[:, 0], float(intercepts[0]), lam, converged, sweeps, trace)


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
    task_names = tuple(tasks) if tasks is not None else tuple(str(t) for t in range(len(xs)))
    if len(task_names) != len(xs):
        raise ValueError("task name list does not match the number of tasks")
    phi, intercepts, converged, sweeps, trace = _solve(xs, ys, lambda_group, tol, max_iter)
    return GroupLassoModel(phi, intercepts, lambda_group, task_names, converged, sweeps, trace)


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
