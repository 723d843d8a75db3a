"""Deep-kernel Gaussian process regression, single-task and multi-task.

Inputs pass through a small ReLU network g before an RBF kernel; the
multi-task variant multiplies the input kernel by a learned PSD task
covariance K_task = A A^T. All hyperparameters (network weights, log
lengthscale, log signal variance, per-task log noise, and A) are fit by
full-batch gradient ascent on the exact marginal log-likelihood, with
analytic gradients chained through the network.

Targets are centered per task before fitting and the means re-added at
prediction time, so the GP prior mean is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .data import TaskId
# mlp_backward is unused here but stays a module attribute: bench/tracing.py
# counts calls through gp.mlp_forward and gp.mlp_backward.
from .numerics import (  # noqa: F401
    MlpParams,
    cholesky,
    init_mlp,
    mlp_activations,
    mlp_backprop,
    mlp_backward,
    mlp_forward,
)

DEFAULT_HIDDEN = (50, 10)

#: Lower bound on each task's noise variance during the fit, as a log.
_LOG_NOISE_FLOOR = math.log(1e-8)


def kernel_rbf(g_a: np.ndarray, g_b: np.ndarray, lengthscale: float, signal_variance: float) -> float:
    """signal_variance * exp(-||g_a - g_b||^2 / (2 lengthscale^2))."""
    if lengthscale <= 0:
        raise ValueError("lengthscale must be positive")
    g_a = np.asarray(g_a, dtype=float)
    g_b = np.asarray(g_b, dtype=float)
    if g_a.shape != g_b.shape:
        raise ValueError("kernel inputs must have equal dimensions")
    sq = float(np.sum((g_a - g_b) ** 2))
    return float(signal_variance * math.exp(-sq / (2.0 * lengthscale**2)))


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


def multitask_kernel(
    x_a: np.ndarray, task_a: TaskId, x_b: np.ndarray, task_b: TaskId, state: GpState
) -> float:
    """Deep RBF kernel value scaled by the learned task covariance entry."""
    for task in (task_a, task_b):
        if task not in state.tasks:
            raise ValueError(f"unknown task {task!r}")
    ia = state.tasks.index(task_a)
    ib = state.tasks.index(task_b)
    base = kernel_rbf(
        _latent(state.mlp, np.asarray(x_a, dtype=float)),
        _latent(state.mlp, np.asarray(x_b, dtype=float)),
        math.exp(state.log_lengthscale),
        math.exp(state.log_signal_variance),
    )
    return float(base * state.task_cov[ia, ib])


# ---------------------------------------------------------------------------
# Marginal likelihood with exact gradients

@dataclass
class _Problem:
    x: np.ndarray
    y: np.ndarray  # per-task centered targets
    task_idx: np.ndarray
    n_tasks: int
    layer_sizes: tuple[int, ...]
    multi_task: bool

    def noise_slice(self) -> slice:
        n_mlp = sum(
            a * b + b for a, b in zip(self.layer_sizes[:-1], self.layer_sizes[1:])
        )
        start = n_mlp + 2
        return slice(start, start + self.n_tasks)


def _pack(prob: _Problem, mlp: MlpParams, log_ls, log_sv, log_noise, a_root) -> np.ndarray:
    parts = []
    for w, b in zip(mlp.weights, mlp.biases):
        parts.append(w.ravel())
        parts.append(b.ravel())
    parts.append(np.array([log_ls, log_sv]))
    parts.append(np.asarray(log_noise, dtype=float).ravel())
    if prob.multi_task:
        parts.append(np.asarray(a_root, dtype=float).ravel())
    return np.concatenate(parts)


def _unpack(prob: _Problem, vec: np.ndarray):
    sizes = prob.layer_sizes
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(vec[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out))
        pos += fan_in * fan_out
        biases.append(vec[pos : pos + fan_out])
        pos += fan_out
    mlp = MlpParams(sizes, weights, biases)
    log_ls = float(vec[pos])
    log_sv = float(vec[pos + 1])
    pos += 2
    log_noise = vec[pos : pos + prob.n_tasks]
    pos += prob.n_tasks
    if prob.multi_task:
        a_root = vec[pos : pos + prob.n_tasks**2].reshape(prob.n_tasks, prob.n_tasks)
        pos += prob.n_tasks**2
    else:
        a_root = np.eye(prob.n_tasks)
    if pos != vec.size:
        raise ValueError("parameter vector has the wrong length")
    return mlp, log_ls, log_sv, log_noise, a_root


@dataclass
class _Likelihood:
    """The marginal log-likelihood at one parameter vector, with the
    intermediates its gradient and the fitted state are built from."""

    mll: float
    mlp: MlpParams
    log_ls: float
    log_sv: float
    log_noise: np.ndarray
    a_root: np.ndarray
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
    y, ix = prob.y, prob.task_idx
    m = len(y)

    acts = mlp_activations(mlp, prob.x)
    g = np.maximum(acts[-1], 0.0)
    sq_norms = (g**2).sum(axis=1)
    sq = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (g @ g.T)
    np.fill_diagonal(sq, 0.0)
    sq = np.maximum(sq, 0.0)
    # A candidate's ls can underflow to 0 or its noise overflow; the
    # finiteness check below rejects such a point, so numpy need not warn.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k_rbf = sv * np.exp(-sq / two_ls_sq)
        q_task = a_root @ a_root.T
        q = q_task[np.ix_(ix, ix)]
        k_nf = k_rbf * q
        noise = np.exp(log_noise)[ix]
        k = k_nf + np.diag(noise)
    if not np.isfinite(k).all():
        raise np.linalg.LinAlgError("covariance is not finite")

    chol, jit = cholesky(k, jitter=0.0)
    alpha = cho_solve((chol, True), y)
    mll = (
        -0.5 * float(y @ alpha)
        - float(np.log(np.diag(chol)).sum())
        - 0.5 * m * math.log(2.0 * math.pi)
    )
    if not math.isfinite(mll):
        raise np.linalg.LinAlgError("marginal likelihood is not finite")
    return _Likelihood(
        mll=mll,
        mlp=mlp,
        log_ls=log_ls,
        log_sv=log_sv,
        log_noise=np.array(log_noise, dtype=float),
        a_root=np.array(a_root, dtype=float),
        acts=acts,
        latent=g,
        sq=sq,
        k_rbf=k_rbf,
        k_nf=k_nf,
        noise=noise,
        task_cov=q_task,
        chol=chol,
        alpha=alpha,
        jitter=jit,
    )


def _gradient(prob: _Problem, lik: _Likelihood) -> np.ndarray:
    """d mll / d vec at the point ``lik`` was evaluated, packed like ``vec``."""
    ls = math.exp(lik.log_ls)
    ix = prob.task_idx
    m = len(prob.y)
    g, k_nf, noise = lik.latent, lik.k_nf, lik.noise

    k_inv = cho_solve((lik.chol, True), np.eye(m))
    s = 0.5 * (np.outer(lik.alpha, lik.alpha) - k_inv)  # d mll / d K

    g_log_sv = float(np.sum(s * k_nf))
    g_log_ls = float(np.sum(s * k_nf * lik.sq) / ls**2)
    g_log_noise = np.array(
        [float(np.sum(np.diag(s)[ix == t] * noise[ix == t])) for t in range(prob.n_tasks)]
    )
    if prob.multi_task:
        w_task = s * lik.k_rbf
        onehot = np.eye(prob.n_tasks)[ix]  # m x T
        m_block = onehot.T @ w_task @ onehot
        g_a = 2.0 * m_block @ lik.a_root
    else:
        g_a = None

    w_in = s * k_nf
    row_sums = w_in.sum(axis=1)
    d_g = (2.0 / ls**2) * (w_in @ g - row_sums[:, None] * g)
    d_g_lin = d_g * (lik.acts[-1] > 0.0)
    w_grads, b_grads, _ = mlp_backprop(lik.mlp, lik.acts, d_g_lin)

    grad_mlp = MlpParams(prob.layer_sizes, w_grads, b_grads)
    return _pack(prob, grad_mlp, g_log_ls, g_log_sv, g_log_noise, g_a)


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
    prob = _Problem(
        x=x_all,
        y=np.concatenate(ys),
        task_idx=np.array(idx, dtype=int),
        n_tasks=len(tasks),
        layer_sizes=(x_all.shape[1], *hidden),
        multi_task=multi_task,
    )
    return prob, tasks, np.array(means)


def _init_vec(prob: _Problem, seed: int, init_noise_variance: float) -> np.ndarray:
    """Seeded network, unit lengthscale and signal variance, identity task root."""
    mlp = init_mlp(prob.layer_sizes, seed)
    log_noise = np.full(prob.n_tasks, math.log(init_noise_variance))
    return _pack(prob, mlp, 0.0, 0.0, log_noise, np.eye(prob.n_tasks))


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

    return GpState(
        mlp=lik.mlp,
        log_lengthscale=lik.log_ls,
        log_signal_variance=lik.log_sv,
        log_noise_variance=lik.log_noise,
        task_root=lik.a_root,
        tasks=tasks,
        multi_task=multi_task,
        train_latent=lik.latent,
        train_task_idx=prob.task_idx,
        task_means=means,
        task_cov=lik.task_cov,
        chol=lik.chol,
        alpha=lik.alpha,
        jitter=lik.jitter,
        mll_trace=tuple(trace),
        mll_evals=evals,
        stopped_early=stopped_early,
    )


def predict_gp(state: GpState, x: np.ndarray, task: TaskId) -> tuple[float, float]:
    """Conditional mean and (non-negative) latent variance at a query point."""
    if task not in state.tasks:
        raise ValueError(f"unknown task {task!r}")
    ti = state.tasks.index(task)
    x = np.asarray(x, dtype=float)
    g_star = _latent(state.mlp, x)
    ls = math.exp(state.log_lengthscale)
    sv = math.exp(state.log_signal_variance)
    sq = ((state.train_latent - g_star) ** 2).sum(axis=1)
    k_star = sv * np.exp(-sq / (2.0 * ls**2)) * state.task_cov[ti, state.train_task_idx]
    mean = float(k_star @ state.alpha) + float(state.task_means[ti])
    v = solve_triangular(state.chol, k_star, lower=True)
    var = sv * float(state.task_cov[ti, ti]) - float(v @ v)
    return mean, max(var, 0.0)
