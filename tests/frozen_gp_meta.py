"""Frozen copies of the deep-kernel GP and first-order MAML code as it stood
before the flat parameter vector and the direct LAPACK calls.

The package's versions must reproduce these bit for bit; ``test_frozen_reference``
checks that. Keep this file as it is: it is the fixed point the comparison is
made against, not code to refactor along with the package. The MLP is the
list-of-arrays form (one array per weight and bias), the solves go through
scipy's ``cho_solve``/``solve_triangular`` wrappers, and every per-problem
constant is rebuilt on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

MAX_JITTER = 1e-2
BASE_JITTER = 1e-6
LOG_NOISE_FLOOR = math.log(1e-8)


# ---------------------------------------------------------------------------
# numerics


def cholesky(a, jitter=0.0):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not ((a == a.T).all() or np.allclose(a, a.T, rtol=1e-10, atol=1e-12)):
        raise ValueError("matrix is not symmetric")
    n = a.shape[0]
    current = float(jitter)
    while True:
        try:
            bumped = a if current == 0.0 else a + current * np.eye(n)
            return np.linalg.cholesky(bumped), current
        except np.linalg.LinAlgError:
            if current >= MAX_JITTER:
                raise np.linalg.LinAlgError("not positive definite at max jitter") from None
            current = BASE_JITTER if current == 0.0 else current * 10.0
            current = min(current, MAX_JITTER)


@dataclass
class Mlp:
    layer_sizes: tuple
    weights: list
    biases: list

    def copy(self):
        return Mlp(self.layer_sizes, [w.copy() for w in self.weights], [b.copy() for b in self.biases])


def init_mlp(layer_sizes, seed=0):
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return Mlp(tuple(layer_sizes), weights, biases)


def mlp_activations(p, x):
    acts = [x]
    last = len(p.weights) - 1
    for i, (w, b) in enumerate(zip(p.weights, p.biases)):
        h = acts[-1] @ w + b
        acts.append(np.maximum(h, 0.0) if i < last else h)
    return acts


def mlp_backprop(p, acts, upstream):
    n_layers = len(p.weights)
    weight_grads = [np.empty(0)] * n_layers
    bias_grads = [np.empty(0)] * n_layers
    delta = upstream
    for i in range(n_layers - 1, -1, -1):
        weight_grads[i] = acts[i].T @ delta
        bias_grads[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ p.weights[i].T) * (acts[i] > 0.0)
    return weight_grads, bias_grads, delta


# ---------------------------------------------------------------------------
# gp


@dataclass
class Problem:
    x: np.ndarray
    y: np.ndarray
    task_idx: np.ndarray
    n_tasks: int
    layer_sizes: tuple
    multi_task: bool

    def noise_slice(self):
        n_mlp = sum(a * b + b for a, b in zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        return slice(n_mlp + 2, n_mlp + 2 + self.n_tasks)


def pack(prob, mlp, log_ls, log_sv, log_noise, a_root):
    parts = []
    for w, b in zip(mlp.weights, mlp.biases):
        parts.append(w.ravel())
        parts.append(b.ravel())
    parts.append(np.array([log_ls, log_sv]))
    parts.append(np.asarray(log_noise, dtype=float).ravel())
    if prob.multi_task:
        parts.append(np.asarray(a_root, dtype=float).ravel())
    return np.concatenate(parts)


def unpack(prob, vec):
    sizes = prob.layer_sizes
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(vec[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out))
        pos += fan_in * fan_out
        biases.append(vec[pos : pos + fan_out])
        pos += fan_out
    mlp = Mlp(sizes, weights, biases)
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
class Likelihood:
    mll: float
    mlp: Mlp
    log_ls: float
    log_sv: float
    log_noise: np.ndarray
    a_root: np.ndarray
    acts: list
    latent: np.ndarray
    sq: np.ndarray
    k_rbf: np.ndarray
    k_nf: np.ndarray
    noise: np.ndarray
    task_cov: np.ndarray
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float


def likelihood(prob, vec):
    mlp, log_ls, log_sv, log_noise, a_root = unpack(prob, vec)
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
    return Likelihood(
        mll=mll, mlp=mlp, log_ls=log_ls, log_sv=log_sv,
        log_noise=np.array(log_noise, dtype=float), a_root=np.array(a_root, dtype=float),
        acts=acts, latent=g, sq=sq, k_rbf=k_rbf, k_nf=k_nf, noise=noise, task_cov=q_task,
        chol=chol, alpha=alpha, jitter=jit,
    )


def gradient(prob, lik):
    ls = math.exp(lik.log_ls)
    ix = prob.task_idx
    m = len(prob.y)
    g, k_nf, noise = lik.latent, lik.k_nf, lik.noise

    k_inv = cho_solve((lik.chol, True), np.eye(m))
    s = 0.5 * (np.outer(lik.alpha, lik.alpha) - k_inv)

    g_log_sv = float(np.sum(s * k_nf))
    g_log_ls = float(np.sum(s * k_nf * lik.sq) / ls**2)
    g_log_noise = np.array(
        [float(np.sum(np.diag(s)[ix == t] * noise[ix == t])) for t in range(prob.n_tasks)]
    )
    if prob.multi_task:
        w_task = s * lik.k_rbf
        onehot = np.eye(prob.n_tasks)[ix]
        m_block = onehot.T @ w_task @ onehot
        g_a = 2.0 * m_block @ lik.a_root
    else:
        g_a = None

    w_in = s * k_nf
    row_sums = w_in.sum(axis=1)
    d_g = (2.0 / ls**2) * (w_in @ g - row_sums[:, None] * g)
    d_g_lin = d_g * (lik.acts[-1] > 0.0)
    w_grads, b_grads, _ = mlp_backprop(lik.mlp, lik.acts, d_g_lin)
    return pack(prob, Mlp(prob.layer_sizes, w_grads, b_grads), g_log_ls, g_log_sv, g_log_noise, g_a)


def build_problem(data_by_task, multi_task, hidden):
    tasks = tuple(sorted(data_by_task))
    xs, ys, idx, means = [], [], [], []
    for t, task in enumerate(tasks):
        x, y = data_by_task[task]
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float)
        mu = float(y.mean())
        means.append(mu)
        xs.append(x)
        ys.append(y - mu)
        idx.extend([t] * len(y))
    x_all = np.vstack(xs)
    prob = Problem(
        x=x_all, y=np.concatenate(ys), task_idx=np.array(idx, dtype=int), n_tasks=len(tasks),
        layer_sizes=(x_all.shape[1], *hidden), multi_task=multi_task,
    )
    return prob, tasks, np.array(means)


def init_vec(prob, seed, init_noise_variance):
    mlp = init_mlp(prob.layer_sizes, seed)
    log_noise = np.full(prob.n_tasks, math.log(init_noise_variance))
    return pack(prob, mlp, 0.0, 0.0, log_noise, np.eye(prob.n_tasks))


@dataclass
class FitResult:
    """The fields of a fitted GP state that the comparison reads."""

    vec: np.ndarray
    lik: Likelihood
    tasks: tuple
    task_idx: np.ndarray
    means: np.ndarray
    mll_trace: tuple
    mll_evals: int
    stopped_early: bool


def fit_gp(data_by_task, multi_task, lr, epochs, seed, hidden, init_noise_variance=0.01):
    prob, tasks, means = build_problem(data_by_task, multi_task, hidden)
    vec = init_vec(prob, seed, init_noise_variance)
    ns = prob.noise_slice()

    lik = likelihood(prob, vec)
    evals = 1
    trace = [lik.mll]
    stopped_early = False
    for _ in range(epochs):
        grad = gradient(prob, lik)
        step = lr
        accepted = None
        for _ in range(30):
            cand = vec + step * grad
            cand[ns] = np.maximum(cand[ns], LOG_NOISE_FLOOR)
            evals += 1
            try:
                cand_lik = likelihood(prob, cand)
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
    return FitResult(vec, lik, tasks, prob.task_idx, means, tuple(trace), evals, stopped_early)


def predict_gp(fit, x, task):
    lik = fit.lik
    ti = fit.tasks.index(task)
    g_star = np.maximum(mlp_activations(lik.mlp, np.asarray(x, dtype=float)[None, :])[-1][0], 0.0)
    ls = math.exp(lik.log_ls)
    sv = math.exp(lik.log_sv)
    sq = ((lik.latent - g_star) ** 2).sum(axis=1)
    k_star = sv * np.exp(-sq / (2.0 * ls**2)) * lik.task_cov[ti, fit.task_idx]
    mean = float(k_star @ lik.alpha) + float(fit.means[ti])
    v = solve_triangular(lik.chol, k_star, lower=True)
    var = sv * float(lik.task_cov[ti, ti]) - float(v @ v)
    return mean, max(var, 0.0)


# ---------------------------------------------------------------------------
# meta


def mse_grads(params, x, y):
    acts = mlp_activations(params, x)
    err = acts[-1][:, 0] - y
    upstream = (2.0 / len(y)) * err[:, None]
    w_grads, b_grads, _ = mlp_backprop(params, acts, upstream)
    return err, w_grads, b_grads


def adapt(theta, support_x, support_y, inner_steps, inner_lr):
    support_x = np.atleast_2d(np.asarray(support_x, dtype=float))
    support_y = np.asarray(support_y, dtype=float)
    params = theta.copy()
    for _ in range(inner_steps):
        _, w_grads, b_grads = mse_grads(params, support_x, support_y)
        for w, gw in zip(params.weights, w_grads):
            w -= inner_lr * gw
        for b, gb in zip(params.biases, b_grads):
            b -= inner_lr * gb
    return params


def meta_train(helper_tasks, inner_steps, inner_lr, outer_lr, meta_epochs, net_shape, seed):
    tasks = sorted(helper_tasks)
    data = {}
    for task in tasks:
        x, y = helper_tasks[task]
        data[task] = (np.atleast_2d(np.asarray(x, dtype=float)), np.asarray(y, dtype=float))
    theta = init_mlp(net_shape, seed)
    for epoch in range(meta_epochs):
        rng = np.random.default_rng([seed, epoch])
        w_accum = [np.zeros_like(w) for w in theta.weights]
        b_accum = [np.zeros_like(b) for b in theta.biases]
        for task in tasks:
            x, y = data[task]
            perm = rng.permutation(len(y))
            half = len(y) // 2
            sup, qry = perm[:half], perm[half:]
            adapted = adapt(theta, x[sup], y[sup], inner_steps, inner_lr)
            _, w_grads, b_grads = mse_grads(adapted, x[qry], y[qry])
            for acc, g in zip(w_accum, w_grads):
                acc += g
            for acc, g in zip(b_accum, b_grads):
                acc += g
        scale = outer_lr / len(tasks)
        for w, acc in zip(theta.weights, w_accum):
            w -= scale * acc
        for b, acc in zip(theta.biases, b_accum):
            b -= scale * acc
    return theta
