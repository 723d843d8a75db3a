"""Shared numerical primitives: jittered Cholesky with direct LAPACK solves,
and a small MLP with exact backpropagation.

Everything runs in float64 numpy. The MLP is a plain stack of affine layers
with ReLU between them and a linear final layer. Its arrays can be views into
one vector ``[W0, b0, W1, b1, ...]`` (:func:`mlp_from_vector`), which a
trainer updates in one operation and :func:`mlp_backprop` writes into.

The MLP kernel is single-pass: :func:`mlp_activations` runs the forward pass
once and keeps every layer's activations, and :func:`mlp_backprop` runs the
backward pass from them, so a trainer that needs both the network output (to
form its loss gradient) and the parameter gradients never recomputes the
forward pass. Both take a 2-D float batch and validate nothing; the GP and
MAML trainers check their inputs once and then call them in their inner loops.
:func:`mlp_forward` and :func:`mlp_backward` are the checked entry points for
everything else.

:func:`cho_solve` calls LAPACK ``dpotrs`` directly: scipy's bits without its
per-call checks (finiteness included), which cost more than a 7 x 7 solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpotrs

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
    # numpy's LAPACK, not scipy's dpotrf: the two link different OpenBLAS
    # builds, and the factor's last bits (and so the GP's outputs) differ.
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


def cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L L^T x = b`` for the lower factor ``L`` from :func:`cholesky`."""
    x, info = dpotrs(chol, b, lower=1)
    if info != 0:
        raise ValueError(f"dpotrs: illegal value in argument {-info}")
    return x


@dataclass
class MlpParams:
    """Weights and biases of a feed-forward ReLU network.

    ``weights[i]`` has shape ``(layer_sizes[i], layer_sizes[i+1])`` so the
    forward pass is ``h @ W + b``. The final layer is linear. ``flat`` is set
    when the arrays are views into one vector (:func:`mlp_from_vector`).
    """

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray | None = field(default=None, repr=False)

    def vector(self) -> np.ndarray:
        """``[W0, b0, W1, b1, ...]``: ``flat`` itself when set, else a new array."""
        if self.flat is not None:
            return self.flat
        return np.concatenate([a.ravel() for pair in zip(self.weights, self.biases) for a in pair])

    def copy(self) -> "MlpParams":
        return mlp_from_vector(self.layer_sizes, np.array(self.vector()))


@lru_cache(maxsize=None)
def _layout(layer_sizes: tuple[int, ...]) -> tuple[tuple, int]:
    """Per layer (weight slice, weight shape, bias slice) of the flat vector; its length."""
    layers, pos = [], 0
    for a, b in zip(layer_sizes[:-1], layer_sizes[1:]):
        layers.append((slice(pos, pos + a * b), (a, b), slice(pos + a * b, pos + a * b + b)))
        pos += a * b + b
    return tuple(layers), pos


def mlp_from_vector(layer_sizes: tuple[int, ...], flat: np.ndarray | None = None) -> MlpParams:
    """An :class:`MlpParams` of views into the 1-D ``flat`` (``[W0, b0, W1, b1, ...]``),
    or into a new uninitialized vector (a gradient buffer) when it is None."""
    layers, size = _layout(tuple(layer_sizes))
    flat = np.empty(size) if flat is None else flat
    if flat.shape != (size,):
        raise ValueError(f"parameter vector has shape {flat.shape}, expected ({size},)")
    weights = [flat[w].reshape(shape) for w, shape, _ in layers]
    return MlpParams(tuple(layer_sizes), weights, [flat[b] for _, _, b in layers], flat)


def init_mlp(layer_sizes: tuple[int, ...], seed: int = 0) -> MlpParams:
    """Scaled-uniform fan-in initialization, deterministic per seed, drawn in
    the flat vector's order."""
    if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
        raise ValueError(f"invalid layer sizes {layer_sizes}")
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        parts.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
        parts.append(rng.uniform(-bound, bound, size=fan_out))
    return mlp_from_vector(layer_sizes, np.concatenate(parts))


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
    p: MlpParams, acts: list[np.ndarray], upstream: np.ndarray, grad: MlpParams | None = None
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Unchecked backward pass from :func:`mlp_activations` output.

    ``upstream`` is d(objective)/d(output), one row per input. Writes the
    parameter gradients into ``grad``'s arrays (a new flat-backed one when
    None) and returns ``(weight_grads, bias_grads, delta)`` where ``delta`` is
    the gradient at the first layer's pre-activation; the input gradient is
    ``delta @ p.weights[0].T``, left to the callers that need it.
    """
    grad = mlp_from_vector(p.layer_sizes) if grad is None else grad
    delta = upstream
    for i in range(len(p.weights) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=grad.weights[i])
        delta.sum(axis=0, out=grad.biases[i])
        if i > 0:
            # A hidden unit passes gradient where its ReLU was active, i.e.
            # where its output (the next layer's input) is positive.
            delta = (delta @ p.weights[i].T) * (acts[i] > 0.0)
    return grad.weights, grad.biases, delta


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
