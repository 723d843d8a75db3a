"""Shared numerical primitives: jittered Cholesky and a small MLP with exact
backpropagation.

Everything runs in float64 numpy. The MLP is a plain stack of affine layers
with ReLU between them and a linear final layer.

The MLP kernel is single-pass: :func:`mlp_activations` runs the forward pass
once and keeps every layer's activations, and :func:`mlp_backprop` runs the
backward pass from them, so a trainer that needs both the network output (to
form its loss gradient) and the parameter gradients never recomputes the
forward pass. Both take a 2-D float batch and validate nothing; the GP and
MAML trainers check their inputs once and then call them in their inner loops.
:func:`mlp_forward` and :func:`mlp_backward` are the checked entry points for
everything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_JITTER = 1e-2
# First non-zero rung of the escalation ladder when the caller asked for none.
BASE_JITTER = 1e-6


def cholesky(a: np.ndarray, jitter: float = 0.0) -> tuple[np.ndarray, float]:
    """Lower-triangular factor of ``a + jitter*I``, escalating jitter on failure.

    The requested jitter is tried first; every failure multiplies it by 10
    (starting from ``BASE_JITTER`` when the request was 0) until ``MAX_JITTER``.
    Returns ``(L, jitter_used)`` so callers can report the final value.

    Raises ``numpy.linalg.LinAlgError`` if the matrix is not positive definite
    even at the maximum jitter.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    # Exact symmetry (the GP's covariances) skips allclose, which costs more
    # than the factorization itself at m~50; NaNs still fall through to it.
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
                raise np.linalg.LinAlgError(
                    f"matrix not positive definite at max jitter {MAX_JITTER:g}"
                ) from None
            current = BASE_JITTER if current == 0.0 else current * 10.0
            current = min(current, MAX_JITTER)


@dataclass
class MlpParams:
    """Weights and biases of a feed-forward ReLU network.

    ``weights[i]`` has shape ``(layer_sizes[i], layer_sizes[i+1])`` so the
    forward pass is ``h @ W + b``. The final layer is linear.
    """

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "MlpParams":
        return MlpParams(
            layer_sizes=self.layer_sizes,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


def init_mlp(layer_sizes: tuple[int, ...], seed: int = 0) -> MlpParams:
    """Scaled-uniform fan-in initialization, deterministic per seed."""
    if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
        raise ValueError(f"invalid layer sizes {layer_sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpParams(tuple(layer_sizes), weights, biases)


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def mlp_activations(p: MlpParams, x: np.ndarray) -> list[np.ndarray]:
    """Unchecked forward pass over a 2-D batch, keeping every activation.

    Returns ``[x, h_1, ..., h_{L-1}, out]``: the input of each affine layer
    (ReLU outputs for the hidden layers) followed by the linear output.
    """
    acts = [x]
    last = len(p.weights) - 1
    for i, (w, b) in enumerate(zip(p.weights, p.biases)):
        h = acts[-1] @ w + b
        acts.append(np.maximum(h, 0.0) if i < last else h)
    return acts


def mlp_backprop(
    p: MlpParams, acts: list[np.ndarray], upstream: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Unchecked backward pass from :func:`mlp_activations` output.

    ``upstream`` is d(objective)/d(output), one row per input. Returns
    ``(weight_grads, bias_grads, delta)`` where ``delta`` is the gradient at
    the first layer's pre-activation; the input gradient is
    ``delta @ p.weights[0].T``, left to the callers that need it.
    """
    n_layers = len(p.weights)
    weight_grads: list[np.ndarray] = [np.empty(0)] * n_layers
    bias_grads: list[np.ndarray] = [np.empty(0)] * n_layers
    delta = upstream
    for i in range(n_layers - 1, -1, -1):
        weight_grads[i] = acts[i].T @ delta
        bias_grads[i] = delta.sum(axis=0)
        if i > 0:
            # A hidden unit passes gradient where its ReLU was active, i.e.
            # where its output (the next layer's input) is positive.
            delta = (delta @ p.weights[i].T) * (acts[i] > 0.0)
    return weight_grads, bias_grads, delta


def mlp_forward(p: MlpParams, x: np.ndarray) -> np.ndarray:
    """Affine + ReLU composition; the final layer has no activation.

    Accepts a single input vector or a batch matrix (rows are inputs).
    """
    h, single = _as_batch(x)
    if h.shape[1] != p.layer_sizes[0]:
        raise ValueError(
            f"input width {h.shape[1]} does not match first layer {p.layer_sizes[0]}"
        )
    out = mlp_activations(p, h)[-1]
    return out[0] if single else out


def mlp_backward(
    p: MlpParams, x: np.ndarray, upstream: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Exact gradients of ``sum(upstream * mlp_forward(p, x))``.

    Returns ``(weight_grads, bias_grads, input_grad)``. Batched inputs
    accumulate parameter gradients over rows; ``input_grad`` keeps the shape
    of ``x``.
    """
    xb, single = _as_batch(x)
    ub, _ = _as_batch(upstream)
    if xb.shape[1] != p.layer_sizes[0]:
        raise ValueError("input width does not match first layer")
    if ub.shape != (xb.shape[0], p.layer_sizes[-1]):
        raise ValueError(
            f"upstream shape {ub.shape} does not match output ({xb.shape[0]}, {p.layer_sizes[-1]})"
        )
    weight_grads, bias_grads, delta = mlp_backprop(p, mlp_activations(p, xb), ub)
    input_grad = delta @ p.weights[0].T
    return weight_grads, bias_grads, input_grad[0] if single else input_grad
