"""Deep-kernel Gaussian process regression, single-task and multi-task.

Inputs pass through a small ReLU network g before an RBF kernel; the
multi-task variant multiplies the input kernel by a learned PSD task
covariance K_task = A A^T. All hyperparameters (network weights, log
lengthscale, log signal variance, per-task log noise, and A) are fit by
full-batch gradient ascent on the exact marginal log-likelihood, with
analytic gradients chained through the network.

Targets are centered per task before fitting and the means re-added at
prediction time, so the GP prior mean is zero.

The fit's vector ``[W0, b0, ..., log_ls, log_sv, log_noise (T), A (T x T,
multi-task only)]`` holds the network's own flat vector, so (un)packing copies
nothing; ``_Problem`` holds the per-fit constants; solves call LAPACK directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .data import TaskId
# bench/tracing.py counts calls through gp.mlp_forward, gp.mlp_backward (unused
# here), gp.cholesky and gp.cho_solve, so all stay module attributes.
from .numerics import (  # noqa: F401
    MlpParams,
    cho_solve,
    cholesky,
    init_mlp,
    mlp_activations,
    mlp_backprop,
    mlp_backward,
    mlp_forward,
    mlp_from_vector,
)

DEFAULT_HIDDEN = (50, 10)

#: Lower bound on each task's noise variance during the fit, as a log.
_LOG_NOISE_FLOOR = math.log(1e-8)


@dataclass
class GpState:
    """Fitted GP: hyperparameters plus the training-set caches used at prediction."""

    mlp: MlpParams
    log_lengthscale: float
    log_signal_variance: float
    log_noise_variance: np.ndarray  # per task
    task_root: np.ndarray  # A with K_task = A A^T
    tasks: tuple[TaskId, ...]
    multi_task: bool
    train_latent: np.ndarray
    train_task_idx: np.ndarray
    task_means: np.ndarray
    task_cov: np.ndarray  # A A^T
    chol: np.ndarray
    alpha: np.ndarray  # (K + noise)^-1 y_centered
    jitter: float
    mll_trace: tuple[float, ...]
    mll_evals: int  # likelihood evaluations made by the fit, rejected candidates included
    stopped_early: bool  # True when no step improved the likelihood before the last epoch


def _latent(mlp: MlpParams, x: np.ndarray) -> np.ndarray:
    """g(x): the ReLU-activated output of the feature network."""
    return np.maximum(mlp_forward(mlp, x), 0.0)


# ---------------------------------------------------------------------------
# Marginal likelihood with exact gradients

@dataclass
class _Problem:
    """The training rows and the constants every likelihood evaluation reuses."""

    x: np.ndarray
    y: np.ndarray  # per-task centered targets
    task_idx: np.ndarray
    n_tasks: int
    layer_sizes: tuple[int, ...]
    multi_task: bool
    n_mlp: int  # length of the network part of the parameter vector
    n_params: int  # length of the whole parameter vector
    eye: np.ndarray  # m x m identity, the right-hand side for K^-1
    task_masks: list[np.ndarray]  # task_idx == t, per task
    onehot: np.ndarray  # m x T task indicators
    pairs: tuple[np.ndarray, np.ndarray]  # np.ix_(task_idx, task_idx)

    def noise_slice(self) -> slice:
        start = self.n_mlp + 2
        return slice(start, start + self.n_tasks)


def _unpack(prob: _Problem, vec: np.ndarray):
    """Views into ``vec``: network, log scales (floats), log noise, task root."""
    n, t = prob.n_mlp, prob.n_tasks
    if vec.size != prob.n_params:
        raise ValueError("parameter vector has the wrong length")
    mlp = mlp_from_vector(prob.layer_sizes, vec[:n])
    a_root = vec[n + 2 + t :].reshape(t, t) if prob.multi_task else np.eye(t)
    return mlp, float(vec[n]), float(vec[n + 1]), vec[n + 2 : n + 2 + t], a_root


@dataclass
class _Likelihood:
    """The marginal log-likelihood at one parameter vector, with the
    intermediates its gradient and the fitted state are built from."""

    mll: float
    vec: np.ndarray
    mlp: MlpParams  # views into vec
    acts: list[np.ndarray]  # network activations; acts[-1] is g_lin
    latent: np.ndarray  # g = relu(g_lin)
    sq: np.ndarray  # pairwise squared latent distances
    k_rbf: np.ndarray
    k_nf: np.ndarray  # noise-free covariance
    noise: np.ndarray  # per-row noise variance
    task_cov: np.ndarray
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float


def _likelihood(prob: _Problem, vec: np.ndarray) -> _Likelihood:
    """Kernel, Cholesky factor, alpha and mll; no gradient work.

    Raises ``numpy.linalg.LinAlgError`` when the covariance cannot be factored
    or is not finite (an overflowing hyperparameter), and when the mll is not
    finite, so that the line search treats such a point as a failed step.
    """
    mlp, log_ls, log_sv, log_noise, a_root = _unpack(prob, vec)
    try:
        ls = math.exp(log_ls)
        sv = math.exp(log_sv)
        two_ls_sq = 2.0 * ls**2
    except OverflowError:
        raise np.linalg.LinAlgError("kernel hyperparameters overflow") from None
    y = prob.y
    # A candidate's network or noise can overflow and its ls underflow to 0;
    # the finiteness check below rejects such a point, so numpy need not warn.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        acts = mlp_activations(mlp, prob.x)
        g = np.maximum(acts[-1], 0.0)
        sq_norms = (g**2).sum(axis=1)
        sq = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (g @ g.T)
        np.fill_diagonal(sq, 0.0)
        np.maximum(sq, 0.0, out=sq)
        k_rbf = sv * np.exp(-sq / two_ls_sq)
        q_task = a_root @ a_root.T
        # With one task q is all ones, and k_rbf * 1.0 is k_rbf bit for bit.
        k_nf = k_rbf * q_task[prob.pairs] if prob.multi_task else k_rbf
        noise = np.exp(log_noise)[prob.task_idx]
        k = k_nf + np.diag(noise)
    if not np.isfinite(k).all():
        raise np.linalg.LinAlgError("covariance is not finite")

    chol, jit = cholesky(k, jitter=0.0)
    alpha = cho_solve(chol, y)
    mll = (
        -0.5 * float(y @ alpha)
        - float(np.log(chol.diagonal()).sum())
        - 0.5 * len(y) * math.log(2.0 * math.pi)
    )
    if not math.isfinite(mll):
        raise np.linalg.LinAlgError("marginal likelihood is not finite")
    return _Likelihood(mll=mll, vec=vec, mlp=mlp, acts=acts, latent=g, sq=sq, k_rbf=k_rbf,
                       k_nf=k_nf, noise=noise, task_cov=q_task, chol=chol, alpha=alpha, jitter=jit)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _gradient(prob: _Problem, lik: _Likelihood) -> np.ndarray:
    """d mll / d vec at the point ``lik`` was evaluated, packed like ``vec``.

    Near a singular K it can overflow; every step along such a gradient is
    rejected as non-finite, and the fit stops early without numpy warnings.
    """
    n, t = prob.n_mlp, prob.n_tasks
    ls = math.exp(lik.vec[n])
    g = lik.latent
    grad = np.empty(prob.n_params)

    k_inv = cho_solve(lik.chol, prob.eye)
    s = 0.5 * (lik.alpha[:, None] * lik.alpha - k_inv)  # d mll / d K
    w_in = s * lik.k_nf

    grad[n] = float((w_in * lik.sq).sum() / ls**2)
    grad[n + 1] = float(w_in.sum())
    noise_diag = s.diagonal() * lik.noise
    grad[n + 2 : n + 2 + t] = [float(noise_diag[mask].sum()) for mask in prob.task_masks]
    if prob.multi_task:
        m_block = prob.onehot.T @ (s * lik.k_rbf) @ prob.onehot
        grad[n + 2 + t :] = (2.0 * m_block @ lik.vec[n + 2 + t :].reshape(t, t)).ravel()

    row_sums = w_in.sum(axis=1)
    d_g = (2.0 / ls**2) * (w_in @ g - row_sums[:, None] * g)
    d_g_lin = d_g * (lik.acts[-1] > 0.0)
    mlp_backprop(lik.mlp, lik.acts, d_g_lin, mlp_from_vector(prob.layer_sizes, grad[:n]))
    return grad


def _build_problem(
    data_by_task: Mapping[TaskId, tuple[np.ndarray, np.ndarray]],
    multi_task: bool,
    hidden: tuple[int, ...],
) -> tuple[_Problem, tuple[TaskId, ...], np.ndarray]:
    tasks = tuple(sorted(data_by_task))
    if not tasks:
        raise ValueError("no training tasks")
    if not multi_task and len(tasks) != 1:
        raise ValueError("single-task GP expects exactly one task")
    xs, ys, idx = [], [], []
    means = []
    for t, task in enumerate(tasks):
        x, y = data_by_task[task]
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float)
        if len(y) < 2:
            raise ValueError(f"task {task!r} needs at least 2 training points")
        mu = float(y.mean())
        means.append(mu)
        xs.append(x)
        ys.append(y - mu)
        idx.extend([t] * len(y))
    x_all = np.vstack(xs)
    task_idx = np.array(idx, dtype=int)
    m, n_tasks = len(task_idx), len(tasks)
    layer_sizes = (x_all.shape[1], *hidden)
    n_mlp = sum(a * b + b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))
    prob = _Problem(
        x=x_all, y=np.concatenate(ys), task_idx=task_idx, n_tasks=n_tasks,
        layer_sizes=layer_sizes, multi_task=multi_task, n_mlp=n_mlp,
        n_params=n_mlp + 2 + n_tasks + (n_tasks**2 if multi_task else 0),
        eye=np.eye(m), task_masks=[task_idx == t for t in range(n_tasks)],
        onehot=np.eye(n_tasks)[task_idx], pairs=np.ix_(task_idx, task_idx),
    )
    return prob, tasks, np.array(means)


def _init_vec(prob: _Problem, seed: int, init_noise_variance: float) -> np.ndarray:
    """Seeded network, unit lengthscale and signal variance, identity task root."""
    parts = [init_mlp(prob.layer_sizes, seed).flat, np.zeros(2),
             np.full(prob.n_tasks, math.log(init_noise_variance))]
    if prob.multi_task:
        parts.append(np.eye(prob.n_tasks).ravel())
    return np.concatenate(parts)


def mll_function(
    data_by_task: Mapping[TaskId, tuple[np.ndarray, np.ndarray]],
    multi_task: bool,
    seed: int = 0,
    hidden: tuple[int, ...] = DEFAULT_HIDDEN,
    init_noise_variance: float = 0.01,
) -> tuple[Callable[[np.ndarray], tuple[float, np.ndarray]], np.ndarray]:
    """Marginal log-likelihood as a checkable function of the parameter vector.

    Returns ``(f, x0)`` where ``f(vec) -> (mll, grad)`` and ``x0`` is the
    seeded initialization. Useful for verifying gradients independently.
    """
    prob, _, _ = _build_problem(data_by_task, multi_task, hidden)
    vec0 = _init_vec(prob, seed, init_noise_variance)

    def f(vec: np.ndarray) -> tuple[float, np.ndarray]:
        lik = _likelihood(prob, vec)
        return lik.mll, _gradient(prob, lik)

    return f, vec0


def fit_gp(
    data_by_task: Mapping[TaskId, tuple[np.ndarray, np.ndarray]],
    multi_task: bool,
    lr: float = 0.01,
    epochs: int = 200,
    seed: int = 0,
    hidden: tuple[int, ...] = DEFAULT_HIDDEN,
    init_noise_variance: float = 0.01,
) -> GpState:
    """Full-batch gradient ascent on the exact marginal log-likelihood.

    A step that would decrease the likelihood is retried with a halved step
    size (up to 30 halvings); if no improving step exists the fit stops early,
    so the likelihood trace is non-decreasing by construction. Candidate steps
    are scored by the likelihood alone; the gradient is computed only at an
    accepted point, once, when the next epoch needs it. ``mll_evals`` and
    ``stopped_early`` on the result report that line-search work.
    """
    prob, tasks, means = _build_problem(data_by_task, multi_task, hidden)
    vec = _init_vec(prob, seed, init_noise_variance)
    ns = prob.noise_slice()

    lik = _likelihood(prob, vec)
    evals = 1
    trace = [lik.mll]
    stopped_early = False
    for _ in range(epochs):
        grad = _gradient(prob, lik)
        step = lr
        accepted = None
        for _ in range(30):
            cand = vec + step * grad
            cand[ns] = np.maximum(cand[ns], _LOG_NOISE_FLOOR)
            evals += 1
            try:
                cand_lik = _likelihood(prob, cand)
            except np.linalg.LinAlgError:
                step *= 0.5
                continue
            if cand_lik.mll >= lik.mll:
                accepted = cand_lik
                break
            step *= 0.5
        if accepted is None:
            stopped_early = True
            break
        vec, lik = cand, accepted
        trace.append(lik.mll)

    mlp, log_ls, log_sv, log_noise, a_root = _unpack(prob, vec)
    return GpState(
        mlp=mlp, log_lengthscale=log_ls, log_signal_variance=log_sv,
        log_noise_variance=np.array(log_noise), task_root=np.array(a_root), tasks=tasks,
        multi_task=multi_task, train_latent=lik.latent, train_task_idx=prob.task_idx,
        task_means=means, task_cov=lik.task_cov, chol=lik.chol, alpha=lik.alpha,
        jitter=lik.jitter, mll_trace=tuple(trace), mll_evals=evals, stopped_early=stopped_early,
    )


def predict_gp(state: GpState, x: np.ndarray, task: TaskId) -> tuple[float, float]:
    """Conditional mean and (non-negative) latent variance at a query point."""
    if task not in state.tasks:
        raise ValueError(f"unknown task {task!r}")
    ti = state.tasks.index(task)
    x = np.asarray(x, dtype=float)
    ls = math.exp(state.log_lengthscale)
    sv = math.exp(state.log_signal_variance)
    # A degenerate fit (huge network weights, a tiny ls) overflows here quietly.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g_star = _latent(state.mlp, x)
        sq = ((state.train_latent - g_star) ** 2).sum(axis=1)
        k_star = sv * np.exp(-sq / (2.0 * ls**2)) * state.task_cov[ti, state.train_task_idx]
    mean = float(k_star @ state.alpha) + float(state.task_means[ti])
    # L v = k_star as scipy's solve_triangular solves it: L.T's transposed system.
    v, info = dtrtrs(state.chol.T, k_star, lower=0, trans=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dtrtrs failed with info {info}")
    var = sv * float(state.task_cov[ti, ti]) - float(v @ v)
    return mean, max(var, 0.0)
