"""First-order MAML for regression: learn a network initialization that
adapts to a new task in a few gradient steps.

Each meta-epoch splits every helper task into support/query halves (seeded by
the epoch index), adapts a copy of the shared initialization on the support
half, and accumulates the query-loss gradient evaluated at the adapted
parameters. The outer update applies the task-averaged gradient to the
initialization.

Every inner step and query gradient is one call into the single-pass kernel
of :mod:`xferlens.numerics` (one forward pass whose activations the backward
pass reuses), on arrays checked once per ``adapt`` call rather than once per
step. The parameters and their gradients each live in one flat vector
(:func:`xferlens.numerics.mlp_from_vector`): ``adapt`` copies the
initialization once, an inner step is ``flat -= inner_lr * grad``, and the
query-gradient accumulation and the outer step are one vector operation each.

A fit makes thousands of ``adapt`` calls on arrays of ten rows or fewer,
where each numpy call's dispatch outweighs its arithmetic. So ``meta_train``
allocates once per fit what those calls reuse: one set of adapted parameters,
gradient and step, and per helper task an :class:`~xferlens.numerics.MlpWorkspace`
for its support rows and one for its query rows. It still calls ``adapt`` once
per (epoch, helper), through the module attribute, and the bits are those of
fresh arrays. An ``adapt`` called from outside gets its own arrays, so the
network it returns is never overwritten.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import TaskId
# mlp_backward is unused here but stays a module attribute: bench/tracing.py
# counts calls through meta.mlp_forward and meta.mlp_backward.
from .numerics import (
    MlpParams,
    MlpWorkspace,
    init_mlp,
    mlp_activations,
    mlp_backprop,
    mlp_forward,
    mlp_from_vector,
    require_finite,
    require_int,
)
from .numerics import mlp_backward  # noqa: F401


@dataclass(frozen=True)
class MamlConfig:
    inner_steps: int = 5
    inner_lr: float = 0.01
    outer_lr: float = 0.001
    meta_epochs: int = 500
    net_shape: tuple[int, ...] = (9, 50, 10, 1)

    def __post_init__(self):
        require_int("inner_steps", self.inner_steps, 0)
        require_finite("inner_lr", self.inner_lr, 0.0, strict=False)
        require_finite("outer_lr", self.outer_lr, 0.0, strict=True)
        require_int("meta_epochs", self.meta_epochs, 1)
        if len(self.net_shape) < 2 or self.net_shape[-1] != 1:
            raise ValueError("net_shape must end in a single output unit")


@dataclass
class _Work:
    """Scratch for ``adapt``: the adapted parameters, their gradient, the
    inner step, and the network's arrays for the support rows."""

    params: MlpParams
    grad: MlpParams
    step: np.ndarray
    rows: MlpWorkspace

    @classmethod
    def new(cls, layer_sizes: tuple[int, ...], rows: int) -> "_Work":
        params, grad = mlp_from_vector(layer_sizes), mlp_from_vector(layer_sizes)
        return cls(params, grad, np.empty_like(params.flat), MlpWorkspace(layer_sizes, rows))


#: A diverging fit (a large inner_lr) overflows to inf and nan without
#: warnings, as the GP's does. One scope per public call, not per product: a
#: scope costs about 2 us, more than a product on these arrays.
_QUIET = {"over": "ignore", "invalid": "ignore"}


def _mse_grads(
    params: MlpParams, x: np.ndarray, y: np.ndarray, grad: MlpParams, ws: MlpWorkspace
) -> None:
    """Exact MSE gradients on checked 2-D ``x`` and 1-D ``y``, written into
    ``grad``; ``ws`` holds the network's arrays for ``len(y)`` rows."""
    acts = mlp_activations(params, x, ws)
    upstream = np.subtract(acts[-1], y[:, None], out=ws.deltas[-1])
    upstream *= 2.0 / len(y)
    mlp_backprop(params, acts, upstream, grad, ws)


def adapt(
    theta: MlpParams,
    support_x: np.ndarray,
    support_y: np.ndarray,
    cfg: MamlConfig,
    work: _Work | None = None,
) -> MlpParams:
    """K full-batch gradient steps on the support MSE; ``theta`` is not mutated.

    ``work`` is private to :func:`meta_train`: its scratch for these rows, on
    inputs it has checked, inside its errstate scope. The result then lives in
    ``work.params`` and the next call with the same ``work`` overwrites it;
    without ``work`` the result is a new network.
    """
    if work is not None:
        return _adapt(theta, support_x, support_y, cfg, work)
    support_x = np.atleast_2d(np.asarray(support_x, dtype=float))
    support_y = np.asarray(support_y, dtype=float)
    if len(support_y) == 0:
        raise ValueError("empty support set")
    if support_x.shape[1] != theta.layer_sizes[0]:
        raise ValueError("input width does not match first layer")
    work = _Work.new(theta.layer_sizes, len(support_y))
    with np.errstate(**_QUIET):
        return _adapt(theta, support_x, support_y, cfg, work)


def _adapt(
    theta: MlpParams, x: np.ndarray, y: np.ndarray, cfg: MamlConfig, work: _Work
) -> MlpParams:
    params = work.params
    np.copyto(params.flat, theta.vector())
    for _ in range(cfg.inner_steps):
        _mse_grads(params, x, y, work.grad, work.rows)
        params.flat -= np.multiply(work.grad.flat, cfg.inner_lr, out=work.step)
    return params


def meta_train(
    helper_tasks: Mapping[TaskId, tuple[np.ndarray, np.ndarray]],
    cfg: MamlConfig,
    seed: int = 0,
) -> MlpParams:
    """Learn the shared initialization from the helper tasks.

    First-order approximation: the query gradient is taken with respect to the
    adapted parameters and applied to the initialization directly.
    """
    if not helper_tasks:
        raise ValueError("need at least one helper task")
    theta = init_mlp(cfg.net_shape, seed)
    # The adapted parameters, their gradient and the step are shared by every
    # helper; the row arrays are per helper, for its support and query halves.
    params, grad = mlp_from_vector(cfg.net_shape), mlp_from_vector(cfg.net_shape)
    step = np.empty_like(theta.flat)
    helpers = []
    for task in sorted(helper_tasks):
        x, y = helper_tasks[task]
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float)
        if len(y) < 2:
            raise ValueError(f"task {task!r} too small to split into support/query")
        if x.shape[1] != cfg.net_shape[0]:
            raise ValueError("feature width does not match the network input size")
        half = len(y) // 2
        support = _Work(params, grad, step, MlpWorkspace(cfg.net_shape, half))
        helpers.append((x, y, half, support, MlpWorkspace(cfg.net_shape, len(y) - half)))

    accum = np.empty_like(theta.flat)
    with np.errstate(**_QUIET):
        for epoch in range(cfg.meta_epochs):
            rng = np.random.default_rng([seed, epoch])
            accum.fill(0.0)
            for x, y, half, support, query in helpers:
                perm = rng.permutation(len(y))
                sup, qry = perm[:half], perm[half:]
                adapted = adapt(theta, x[sup], y[sup], cfg, support)
                _mse_grads(adapted, x[qry], y[qry], grad, query)
                accum += grad.flat
            theta.flat -= np.multiply(accum, cfg.outer_lr / len(helpers), out=step)
    return theta


def predict_net(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Scalar regression outputs for a batch of inputs."""
    with np.errstate(**_QUIET):
        return mlp_forward(params, np.atleast_2d(np.asarray(x, dtype=float)))[:, 0]
