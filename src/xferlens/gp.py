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
multi-task only)]`` holds the network's flat vector. Factors and solves have
the bits of ``np.linalg`` and scipy's LAPACK wrappers. ``fit_gp`` runs in one
``np.errstate`` scope, the one :func:`numerics.cholesky` needs, and owns its
scratch: two :class:`_Likelihood` points, the current one and the candidate,
swapped on an accepted step. The fitted state keeps the accepted point's
arrays. ``predict_gp`` opens its own scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .data import TaskId
# bench/tracing.py counts calls through gp.mlp_forward, gp.mlp_backward (unused
# here), gp.cholesky and gp.cho_solve, so all stay module attributes.
from .numerics import (
    MlpKernel,
    MlpParams,
    Solve,
    batch_rows,
    cholesky,
    init_mlp,
    mlp_forward,
    mlp_from_vector,
    require_finite,
    require_int,
)
from .numerics import mlp_backward  # noqa: F401

cho_solve = Solve.__call__  # one solve from a point's factor

DEFAULT_HIDDEN = (50, 10)

#: Lower bound on each task's noise variance during the fit, as a log.
_LOG_NOISE_FLOOR = math.log(1e-8)

#: A candidate's network or noise can overflow and its ls underflow to 0, and
#: a gradient near a singular K can overflow; the finiteness checks reject such
#: a point, so numpy need not warn. One scope per fit or public call; it is
#: also the one ``cholesky`` needs, with a failed factor's "invalid" ignored.
_QUIET = {"divide": "ignore", "over": "ignore", "invalid": "ignore", "under": "ignore"}

_sum = np.add.reduce
_all = np.logical_and.reduce


@dataclass
class GpState:
    """Fitted GP: hyperparameters plus the training-set caches used at
    prediction. ``predict_gp`` reads constants computed here once, so the
    arrays are not to be changed after the fit."""

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
    # Per task: sv, 2 ls^2, K_task's row over the training rows, the prior
    # variance sv K_task[t, t] and the task's mean.
    _by_task: dict = field(init=False, repr=False, compare=False)
    # Idle solves L v = k_star for predict_gp: a call takes one or binds a new
    # one, so each call in flight solves in its own.
    _solves: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sv = math.exp(self.log_signal_variance)
        two_ls_sq = 2.0 * math.exp(self.log_lengthscale) ** 2
        self._by_task = {
            task: (sv, two_ls_sq, self.task_cov[ti, self.train_task_idx],
                   sv * float(self.task_cov[ti, ti]), float(self.task_means[ti]))
            for ti, task in enumerate(self.tasks)
        }
        self._solves = []


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
    eye: np.ndarray  # m x m identity: the right-hand side for K^-1, and the noise diagonal
    task_rows: list[slice]  # each task's rows, which are contiguous
    onehot: np.ndarray  # m x T task indicators
    pair_idx: np.ndarray | None  # K_task's flat index for each pair of rows (multi-task)
    log_2pi: float  # 0.5 m log(2 pi), the mll's constant term


class _Likelihood:
    """The marginal log-likelihood at one parameter vector, with the
    intermediates its gradient and the fitted state are built from.

    ``mlp``, ``log_noise`` and (multi-task) ``a_root`` are views into
    ``vec``. ``grad`` is the point's gradient vector, into which ``kernel``
    (the network on the training rows) writes. The other arrays are
    allocated here and overwritten by the next evaluation of this point:
    ``kernel.out`` (g_lin), ``latent`` (g = relu(g_lin)), ``sq`` (pairwise
    squared latent distances), ``k_rbf``, ``k_nf`` (the noise-free
    covariance), ``noise`` (per row), ``task_cov``, ``chol`` and ``alpha``.
    ``k``, and ``s`` to ``active`` for the gradient, are scratch that holds
    no result. ``alpha_solve`` and ``inv_solve`` are bound to ``chol``; they
    solve into ``alpha`` and into K^-1.
    """

    def __init__(self, prob: _Problem, vec: np.ndarray):
        n, t, m = prob.n_mlp, prob.n_tasks, len(prob.y)
        if vec.shape != (prob.n_params,):
            raise ValueError("parameter vector has the wrong length")
        self.vec = vec
        self.mlp = mlp_from_vector(prob.layer_sizes, vec[:n])
        self.log_noise = vec[n + 2 : n + 2 + t]
        self.grad = np.empty(prob.n_params)
        self.kernel = MlpKernel(self.mlp, mlp_from_vector(prob.layer_sizes, self.grad[:n]), prob.x)
        self.latent = np.empty((m, prob.layer_sizes[-1]))
        self.latent_sq = np.empty_like(self.latent)
        self.sq_norms = np.empty(m)
        self.sq = np.empty((m, m))
        self.sq_diag = self.sq.reshape(-1)[:: m + 1]
        self.k_rbf = np.empty((m, m))
        self.noise = np.empty(m)
        self.k = np.empty((m, m))
        self.finite = np.empty((m, m), dtype=bool)
        self.s, self.w_in = np.empty((m, m)), np.empty((m, m))
        self.noise_diag, self.row_sums = np.empty(m), np.empty(m)
        self.latent_rows = np.empty_like(self.latent)
        self.active = np.empty(self.latent.shape, dtype=bool)
        if prob.multi_task:
            self.a_root = vec[n + 2 + t :].reshape(t, t)
            self.task_cov = np.empty((t, t))
            self.k_nf = np.empty((m, m))
        else:
            # One task: A = I, so K_task is 1 and k_rbf * 1.0 is k_rbf bit for bit.
            self.a_root = np.eye(1)
            self.task_cov = np.ones((1, 1))
            self.k_nf = self.k_rbf
        self.chol, self.alpha = np.empty((m, m)), np.empty(m)
        self.alpha_solve = Solve(self.chol, self.alpha)
        self.inv_solve = Solve(self.chol, np.empty((m, m), order="F"))
        self.mll = math.nan
        self.ls = math.nan
        self.jitter = 0.0


def _likelihood(prob: _Problem, lik: _Likelihood) -> _Likelihood:
    """Kernel, Cholesky factor, alpha and mll at ``lik.vec``, written into
    ``lik`` and returned; no gradient work. The caller owns ``lik`` and the
    errstate scope (``fit_gp``'s).

    Raises ``numpy.linalg.LinAlgError`` when the covariance cannot be factored
    or is not finite (an overflowing hyperparameter), and when the mll is not
    finite, so that the line search treats such a point as a failed step.
    """
    vec, n = lik.vec, prob.n_mlp
    try:
        ls = math.exp(vec[n])
        sv = math.exp(vec[n + 1])
        two_ls_sq = 2.0 * ls**2
    except OverflowError:
        raise np.linalg.LinAlgError("kernel hyperparameters overflow") from None
    g = np.maximum(lik.kernel.forward(), 0.0, out=lik.latent)
    np.add.reduce(np.multiply(g, g, out=lik.latent_sq), axis=1, out=lik.sq_norms)
    # (|g_i|^2 + |g_j|^2) - 2 g_i.g_j, in that order, is exactly symmetric.
    gg2 = np.dot(g, g.T, out=lik.k)
    gg2 *= 2.0
    sq = np.add(lik.sq_norms[:, None], lik.sq_norms, out=lik.sq)
    sq -= gg2
    lik.sq_diag[...] = 0.0
    np.maximum(sq, 0.0, out=sq)
    k_rbf = np.divide(sq, -two_ls_sq, out=lik.k_rbf)
    np.exp(k_rbf, out=k_rbf)
    k_rbf *= sv
    if prob.multi_task:
        np.dot(lik.a_root, lik.a_root.T, out=lik.task_cov)
        np.multiply(k_rbf, lik.task_cov.take(prob.pair_idx, out=lik.k), out=lik.k_nf)
    np.exp(lik.log_noise).take(prob.task_idx, out=lik.noise)
    k = np.multiply(prob.eye, lik.noise, out=lik.k)
    k += lik.k_nf
    if not _all(np.isfinite(k, out=lik.finite), None):
        raise np.linalg.LinAlgError("covariance is not finite")

    chol, jit = cholesky(k)
    np.copyto(lik.chol, chol)
    np.copyto(lik.alpha, prob.y)
    alpha = cho_solve(lik.alpha_solve)
    mll = -0.5 * float(np.dot(prob.y, alpha)) - float(_sum(np.log(chol.diagonal()))) - prob.log_2pi
    if not math.isfinite(mll):
        raise np.linalg.LinAlgError("marginal likelihood is not finite")
    lik.mll, lik.ls, lik.jitter = mll, ls, jit
    return lik


def _gradient(prob: _Problem, lik: _Likelihood) -> np.ndarray:
    """d mll / d vec at the point ``lik`` was evaluated, packed like ``vec``,
    inside the caller's errstate scope.

    Near a singular K it can overflow; every step along such a gradient is
    rejected as non-finite, and the fit stops early without numpy warnings.

    The result is ``lik.grad``, which the next gradient at this point
    overwrites.
    """
    n = prob.n_mlp
    ls_sq = lik.ls**2
    grad = lik.grad

    np.copyto(lik.inv_solve.x, prob.eye)
    k_inv = cho_solve(lik.inv_solve)
    s = np.multiply(lik.alpha[:, None], lik.alpha, out=lik.s)  # d mll / d K
    s -= k_inv
    s *= 0.5
    w_in = np.multiply(s, lik.k_nf, out=lik.w_in)

    grad[n] = _sum(np.multiply(w_in, lik.sq, out=lik.k), None) / ls_sq
    grad[n + 1] = _sum(w_in, None)
    noise_diag = np.multiply(s.diagonal(), lik.noise, out=lik.noise_diag)
    for t, rows in enumerate(prob.task_rows):
        grad[n + 2 + t] = _sum(noise_diag[rows])
    if prob.multi_task:
        m_block = np.dot(np.dot(prob.onehot.T, np.multiply(s, lik.k_rbf, out=lik.k)), prob.onehot)
        a_grad = grad[n + 2 + prob.n_tasks :].reshape(lik.a_root.shape)
        np.dot(2.0 * m_block, lik.a_root, out=a_grad)

    g = lik.latent
    row_sums = _sum(w_in, 1, None, lik.row_sums)
    d_g = np.dot(w_in, g, out=lik.kernel.upstream)
    d_g -= np.multiply(row_sums[:, None], g, out=lik.latent_rows)
    d_g *= 2.0 / ls_sq
    d_g *= np.greater(lik.kernel.out, 0.0, out=lik.active)  # now d mll / d g_lin
    lik.kernel.backward()
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
    xs, ys, idx, means, task_rows = [], [], [], [], []
    for t, task in enumerate(tasks):
        x, y = batch_rows(f"task {task!r}", *data_by_task[task])
        if len(y) < 2:
            raise ValueError(f"task {task!r} needs at least 2 training points")
        mu = float(y.mean())
        means.append(mu)
        xs.append(x)
        ys.append(y - mu)
        task_rows.append(slice(len(idx), len(idx) + len(y)))
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
        eye=np.eye(m), task_rows=task_rows, onehot=np.eye(n_tasks)[task_idx],
        pair_idx=task_idx[:, None] * n_tasks + task_idx if multi_task else None,
        log_2pi=0.5 * m * math.log(2.0 * math.pi),
    )
    return prob, tasks, np.array(means)


def _init_vec(prob: _Problem, seed: int, init_noise_variance: float) -> np.ndarray:
    """Seeded network, unit lengthscale and signal variance, identity task root."""
    parts = [init_mlp(prob.layer_sizes, seed).flat, np.zeros(2),
             np.full(prob.n_tasks, math.log(init_noise_variance))]
    if prob.multi_task:
        parts.append(np.eye(prob.n_tasks).ravel())
    return np.concatenate(parts)


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

    Raises ``ValueError`` unless ``epochs`` is an integer >= 0 and ``lr`` is
    finite and > 0, and naming a task whose feature rows and targets do not
    line up.
    """
    require_int("epochs", epochs, 0)
    require_finite("lr", lr, 0.0, strict=True)
    prob, tasks, means = _build_problem(data_by_task, multi_task, hidden)
    lik = _Likelihood(prob, _init_vec(prob, seed, init_noise_variance))
    cand = _Likelihood(prob, np.empty(prob.n_params))

    with np.errstate(**_QUIET):
        _likelihood(prob, lik)
        evals = 1
        trace = [lik.mll]
        stopped_early = False
        for _ in range(epochs):
            grad = _gradient(prob, lik)
            step = lr
            accepted = False
            for _ in range(30):
                np.multiply(grad, step, out=cand.vec)
                cand.vec += lik.vec
                np.maximum(cand.log_noise, _LOG_NOISE_FLOOR, out=cand.log_noise)
                evals += 1
                try:
                    _likelihood(prob, cand)
                except np.linalg.LinAlgError:
                    step *= 0.5
                    continue
                if cand.mll >= lik.mll:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                stopped_early = True
                break
            lik, cand = cand, lik
            trace.append(lik.mll)

    n = prob.n_mlp
    return GpState(
        mlp=lik.mlp, log_lengthscale=float(lik.vec[n]), log_signal_variance=float(lik.vec[n + 1]),
        log_noise_variance=np.array(lik.log_noise), task_root=np.array(lik.a_root), tasks=tasks,
        multi_task=multi_task, train_latent=lik.latent, train_task_idx=prob.task_idx,
        task_means=means, task_cov=lik.task_cov, chol=lik.chol, alpha=lik.alpha,
        jitter=lik.jitter, mll_trace=tuple(trace), mll_evals=evals, stopped_early=stopped_early,
    )


def predict_gp(state: GpState, x: np.ndarray, task: TaskId) -> tuple[float, float]:
    """Conditional mean and (non-negative) latent variance at one query row."""
    try:
        sv, two_ls_sq, cov_row, prior_var, task_mean = state._by_task[task]
    except KeyError:
        raise ValueError(f"unknown task {task!r}") from None
    x = np.asarray(x, dtype=float)
    width = state.mlp.layer_sizes[0]
    if x.shape != (width,):
        raise ValueError(f"expected a vector of length {width}, got shape {x.shape}")
    # A degenerate fit (huge network weights, a tiny ls) overflows here quietly.
    with np.errstate(**_QUIET):
        g_star = _latent(state.mlp, x)
        sq = _sum((state.train_latent - g_star) ** 2, 1)
        k_star = sv * np.exp(-sq / two_ls_sq) * cov_row
    mean = float(np.dot(k_star, state.alpha)) + task_mean
    try:
        solve = state._solves.pop()
    except IndexError:
        solve = Solve(state.chol, np.empty(len(k_star)), triangular=True)
    np.copyto(solve.x, k_star)
    v = solve()  # L v = k_star
    var = prior_var - float(np.dot(v, v))
    state._solves.append(solve)
    return mean, max(var, 0.0)
