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
    init_mlp,
    mlp_activations,
    mlp_backprop,
    mlp_forward,
    mlp_from_vector,
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
        if self.inner_steps < 0:
            raise ValueError("inner_steps must be >= 0")
        if self.inner_lr < 0 or self.outer_lr <= 0:
            raise ValueError("learning rates must be positive (inner_lr may be 0)")
        if self.meta_epochs < 1:
            raise ValueError("meta_epochs must be >= 1")
        if len(self.net_shape) < 2 or self.net_shape[-1] != 1:
            raise ValueError("net_shape must end in a single output unit")


def _mse_grads(params: MlpParams, x: np.ndarray, y: np.ndarray, grad: MlpParams) -> None:
    """Exact MSE gradients on checked 2-D ``x`` and 1-D ``y``, written into ``grad``."""
    acts = mlp_activations(params, x)
    err = acts[-1][:, 0] - y
    mlp_backprop(params, acts, (2.0 / len(y)) * err[:, None], grad)


def adapt(
    theta: MlpParams, support_x: np.ndarray, support_y: np.ndarray, cfg: MamlConfig
) -> MlpParams:
    """K full-batch gradient steps on the support MSE; ``theta`` is not mutated."""
    support_x = np.atleast_2d(np.asarray(support_x, dtype=float))
    support_y = np.asarray(support_y, dtype=float)
    if len(support_y) == 0:
        raise ValueError("empty support set")
    if support_x.shape[1] != theta.layer_sizes[0]:
        raise ValueError("input width does not match first layer")
    params = theta.copy()
    grad = mlp_from_vector(theta.layer_sizes)
    for _ in range(cfg.inner_steps):
        _mse_grads(params, support_x, support_y, grad)
        params.flat -= cfg.inner_lr * grad.flat
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
    tasks = sorted(helper_tasks)
    data = {}
    for task in tasks:
        x, y = helper_tasks[task]
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float)
        if len(y) < 2:
            raise ValueError(f"task {task!r} too small to split into support/query")
        if x.shape[1] != cfg.net_shape[0]:
            raise ValueError("feature width does not match the network input size")
        data[task] = (x, y)

    theta = init_mlp(cfg.net_shape, seed)
    grad = mlp_from_vector(cfg.net_shape)
    accum = np.empty_like(theta.flat)
    for epoch in range(cfg.meta_epochs):
        rng = np.random.default_rng([seed, epoch])
        accum.fill(0.0)
        for task in tasks:
            x, y = data[task]
            perm = rng.permutation(len(y))
            half = len(y) // 2
            sup, qry = perm[:half], perm[half:]
            adapted = adapt(theta, x[sup], y[sup], cfg)
            _mse_grads(adapted, x[qry], y[qry], grad)
            accum += grad.flat
        theta.flat -= (cfg.outer_lr / len(tasks)) * accum
    return theta


def predict_net(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Scalar regression outputs for a batch of inputs."""
    return mlp_forward(params, np.atleast_2d(np.asarray(x, dtype=float)))[:, 0]
