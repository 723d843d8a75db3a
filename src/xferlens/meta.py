"""First-order MAML for regression: learn a network initialization that
adapts to a new task in a few gradient steps.

Each meta-epoch splits every helper task into support/query halves (seeded by
the epoch index), adapts a copy of the shared initialization on the support
half, and accumulates the query-loss gradient evaluated at the adapted
parameters. The outer update applies the task-averaged gradient to the
initialization.

``meta_train`` checks its inputs once, runs in one errstate scope and owns
its scratch: per helper task, one :class:`~xferlens.numerics.MlpKernel` for
its support rows and one for its query rows, over buffers that every epoch
refills, all sharing one parameter vector (the adapted network) and one
gradient vector. It calls ``adapt`` once per (epoch, helper), through the
module attribute, on the support kernel, and that call opens no scope. The
bits are those of fresh arrays. An ``adapt`` called from outside checks its
inputs and opens its own scope; it binds its own kernel, so the network it
returns is never overwritten.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import TaskId
# mlp_backward is unused here but stays a module attribute: bench/tracing.py
# counts calls through meta.mlp_forward and meta.mlp_backward.
from .numerics import (
    MlpKernel,
    MlpParams,
    batch_rows,
    init_mlp,
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


#: A diverging fit (a large inner_lr) overflows to inf and nan without
#: warnings, as the GP's does. One scope per public call.
_QUIET = {"over": "ignore", "invalid": "ignore"}
_NO_SCOPE = contextlib.nullcontext()


def adapt(
    theta: MlpParams,
    support_x: np.ndarray,
    support_y: np.ndarray,
    cfg: MamlConfig,
    kernel: MlpKernel | None = None,
) -> MlpParams:
    """K full-batch gradient steps on the support MSE; ``theta`` is not mutated.

    ``kernel`` is private to :func:`meta_train`: a kernel bound to the
    support rows ``support_x``, with ``support_y`` as a column, inside its
    errstate scope. The result then lives in the kernel's parameters, which
    the next call on them overwrites; without ``kernel`` the inputs are
    checked and the result is a new network, computed in a scope of its own.
    """
    scope = _NO_SCOPE
    if kernel is None:
        x, y = batch_rows("support set", support_x, support_y)
        if len(y) == 0:
            raise ValueError("empty support set")
        if x.shape[1] != theta.layer_sizes[0]:
            raise ValueError("input width does not match first layer")
        kernel = MlpKernel(mlp_from_vector(theta.layer_sizes), mlp_from_vector(theta.layer_sizes), x)
        support_y, scope = y[:, None], np.errstate(**_QUIET)
    params, grad = kernel.params.flat, kernel.grad.flat
    with scope:
        np.copyto(params, theta.flat)
        for _ in range(cfg.inner_steps):
            kernel.mse_backward(support_y)
            params -= np.multiply(grad, cfg.inner_lr, grad)
    return kernel.params


def meta_train(
    helper_tasks: Mapping[TaskId, tuple[np.ndarray, np.ndarray]],
    cfg: MamlConfig,
    seed: int = 0,
) -> MlpParams:
    """Learn the shared initialization from the helper tasks.

    First-order approximation: the query gradient is taken with respect to the
    adapted parameters and applied to the initialization directly.

    Raises ``ValueError`` naming a task whose feature rows and scores do not
    line up, or that has fewer than two rows.
    """
    if not helper_tasks:
        raise ValueError("need at least one helper task")
    theta = init_mlp(cfg.net_shape, seed)
    params, grad = mlp_from_vector(cfg.net_shape), mlp_from_vector(cfg.net_shape)
    helpers = []
    for task in sorted(helper_tasks):
        x, y = batch_rows(f"task {task!r}", *helper_tasks[task])
        if len(y) < 2:
            raise ValueError(f"task {task!r} too small to split into support/query")
        if x.shape[1] != cfg.net_shape[0]:
            raise ValueError("feature width does not match the network input size")
        half = len(y) // 2
        support, query = (MlpKernel(params, grad, np.empty((rows, x.shape[1])))
                          for rows in (half, len(y) - half))
        helpers.append((x, y[:, None], half, support, np.empty((half, 1)),
                        query, np.empty((len(y) - half, 1))))

    accum = np.empty_like(theta.flat)
    with np.errstate(**_QUIET):
        for epoch in range(cfg.meta_epochs):
            rng = np.random.default_rng([seed, epoch])
            accum.fill(0.0)
            for x, y, half, support, support_y, query, query_y in helpers:
                perm = rng.permutation(len(y))
                sup, qry = perm[:half], perm[half:]
                # "clip" never clips a permutation's indices.
                x.take(sup, 0, support.x, "clip")
                y.take(sup, 0, support_y, "clip")
                adapt(theta, support.x, support_y, cfg, support)
                x.take(qry, 0, query.x, "clip")
                y.take(qry, 0, query_y, "clip")
                query.mse_backward(query_y)
                accum += grad.flat
            theta.flat -= np.multiply(accum, cfg.outer_lr / len(helpers), accum)
    return theta


def predict_net(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Scalar regression outputs for a batch of inputs."""
    with np.errstate(**_QUIET):
        return mlp_forward(params, np.atleast_2d(np.asarray(x, dtype=float)))[:, 0]
