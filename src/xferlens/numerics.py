"""Shared numerical primitives: jittered Cholesky factors, linear solves and
solves from a factor on numpy's LAPACK, a switch of numpy's OpenBLAS to one
thread, a small MLP with exact backpropagation, and the hyperparameter
checks the solvers share.

All of it runs in float64 on the one LAPACK numpy links. :func:`cholesky` and
:func:`solve` give ``np.linalg``'s bits, :class:`Solve` those of scipy's
``dpotrs``/``dtrtrs`` wrappers. :func:`solve` opens its own errstate scope;
:func:`cholesky` opens none, and its caller's must ignore "invalid". An
:class:`MlpKernel` or a :class:`Solve` is bound once to arrays its caller owns
and refills in place; a call checks nothing.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg

MAX_JITTER = 1e-2
# First non-zero rung of the escalation ladder.
BASE_JITTER = 1e-6
# The native float64 dtype, which np.asarray(a, dtype=float) would return ``a`` as.
_FLOAT64 = np.dtype(float)

_cholesky_lo = _umath_linalg.cholesky_lo
_solve, _solve1 = _umath_linalg.solve, _umath_linalg.solve1
_all = np.logical_and.reduce


def _as_float64(a) -> np.ndarray:
    return a if type(a) is np.ndarray and a.dtype is _FLOAT64 else np.asarray(a, dtype=float)


def cholesky(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower-triangular factor of ``a + jitter*I``, escalating jitter on failure.

    No jitter is tried first; every failure raises it, to ``BASE_JITTER`` and
    then by a factor of 10 up to ``MAX_JITTER``. Returns ``(L, jitter_used)``
    so callers can report the final value. Each factor has the bits
    ``np.linalg.cholesky`` gives.

    Opens no errstate scope: the caller's must ignore "invalid", or a failed
    rung warns (raises ``FloatingPointError`` under ``invalid="raise"``).
    Raises ``ValueError`` for a non-square or non-symmetric matrix (NaN
    entries included), and ``numpy.linalg.LinAlgError`` if the matrix is not
    positive definite even at the maximum jitter.
    """
    a = _as_float64(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    # Exact symmetry (the GP's covariances) skips allclose, which costs more
    # than the factorization itself at m~50; NaNs still fall through to it.
    if not (_all(a == a.T, None) or np.allclose(a, a.T, rtol=1e-10, atol=1e-12)):
        raise ValueError("matrix is not symmetric")
    n = a.shape[0]
    current = 0.0
    while True:
        bumped = a if current == 0.0 else a + current * np.eye(n)
        chol = _cholesky_lo(bumped, signature="d->d")
        if not n or chol[0, 0] == chol[0, 0]:  # a failed factor is all NaN
            return chol, current
        if current >= MAX_JITTER:
            raise np.linalg.LinAlgError(f"matrix not positive definite at max jitter {MAX_JITTER:g}")
        current = min(current * 10.0, MAX_JITTER) if current else BASE_JITTER


def _singular(err: str, flag: int) -> None:
    raise np.linalg.LinAlgError("Singular matrix")


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for float64 arrays: the same gufunc, so the
    same bits, and the same ``LinAlgError("Singular matrix")`` when LAPACK
    meets an exactly singular matrix in any of a batch.

    ``a`` is a square matrix or a stack of them. A 1-D ``b`` is one
    right-hand side (``solve1``); otherwise ``b``'s last two axes are the
    right-hand sides of each system, as in ``np.linalg.solve``.
    """
    a, b = _as_float64(a), _as_float64(b)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise np.linalg.LinAlgError(f"expected square matrices, got shape {a.shape}")
    with np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return (_solve1 if b.ndim == 1 else _solve)(a, b, signature="dd->d")


def require_int(name: str, value, low: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer
    (a numpy one too, but not a bool) >= ``low``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def require_finite(name: str, value, low: float, strict: bool) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is finite and
    above ``low`` (> when ``strict``, else >=); NaN fails both."""
    if not (low < value < math.inf if strict else low <= value < math.inf):
        raise ValueError(f"{name} must be finite and {'>' if strict else '>='} {low:g}, got {value!r}")


def batch_rows(what: str, x, y) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as a 2-D float batch (a vector is one row) and ``y`` as a float
    vector of one target per row; ``ValueError`` naming ``what`` and both
    shapes when they do not match."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or len(x) != len(y):
        raise ValueError(f"{what}: features of shape {x.shape} do not match targets of shape {y.shape}")
    return x, y


#: The names a LAPACK routine's symbol may have in numpy's library: numpy >= 2
#: wheels prefix ``scipy_``; an ILP64 build (64-bit integers) ends in ``_64_``.
_SYMBOLS = ("scipy_{}_64_", "{}_64_") if _umath_linalg._ilp64 else ("scipy_{}_", "{}_")
#: gfortran passes the length of each character argument after the others.
_CHAR_LEN = ctypes.c_size_t(1)


#: ``openblas_set_num_threads`` as numpy's OpenBLAS may spell it, prefixed or
#: not, ILP64 or LP64.
_THREAD_SYMBOLS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                   "scipy_openblas_set_num_threads", "openblas_set_num_threads")


@lru_cache(maxsize=None)
def _library() -> ctypes.CDLL:
    """The library numpy's LAPACK and BLAS are found in: ``dlsym`` on
    ``_umath_linalg`` searches what it links."""
    return ctypes.CDLL(_umath_linalg.__file__)


@lru_cache(maxsize=None)
def single_thread_blas() -> bool:
    """Run numpy's OpenBLAS on one thread in this process from now on; False,
    changing nothing, when it has no routine for that. From 128 rows on, a
    threaded ``dpotrf`` gives other bits than one thread, so the GP's
    outputs would depend on ``OPENBLAS_NUM_THREADS``."""
    lib = _library()
    for name in _THREAD_SYMBOLS:
        if hasattr(lib, name):
            routine = getattr(lib, name)
            routine.argtypes, routine.restype = [ctypes.c_int], None
            routine(1)
            return True
    return False


@lru_cache(maxsize=None)
def lapack() -> tuple:
    """``(dpotrs, dtrtrs, int)``: the routines of numpy's LAPACK and the
    ctypes type of its integers; ``LinAlgError`` names a routine it lacks."""
    lib, routines = _library(), []
    for name in ("dpotrs", "dtrtrs"):
        symbols = [pattern.format(name) for pattern in _SYMBOLS]
        found = [getattr(lib, s) for s in symbols if hasattr(lib, s)]
        if not found:
            raise np.linalg.LinAlgError(f"numpy's LAPACK has no {name} (looked for {', '.join(symbols)})")
        found[0].restype = None
        routines.append(found[0])
    return (*routines, ctypes.c_int64 if _umath_linalg._ilp64 else ctypes.c_int32)


class Solve:
    """LAPACK's ``L L^T x = b`` (``dpotrs``) or, with ``triangular``, ``L x =
    b`` (``dtrtrs``) for a lower Cholesky factor ``L``, its arguments bound
    once to ``chol`` (``L``, C-contiguous float64) and ``x`` (``b``, a vector
    or an m x k matrix, F-contiguous writable float64), each copied unless it
    is one, which the caller may refill in place. A call overwrites ``x`` with
    the solution and returns it, or raises ``LinAlgError`` for a failure
    LAPACK reports (a zero on ``L``'s diagonal, in ``dtrtrs``)."""

    __slots__ = ("chol", "x", "_info", "_routine", "_args")

    def __init__(self, chol, x, triangular: bool = False):
        chol = np.ascontiguousarray(chol, dtype=float)
        if not (type(x) is np.ndarray and x.dtype is _FLOAT64 and x.flags.f_contiguous
                and x.flags.writeable):
            x = np.array(x, dtype=float, order="F")
        m = len(chol)
        if chol.shape != (m, m) or x.ndim not in (1, 2) or len(x) != m or not x.size:
            raise ValueError(f"cannot solve from a factor of shape {chol.shape} "
                             f"for a right-hand side of shape {x.shape}")
        potrs, trtrs, integer = lapack()
        self.chol, self.x, self._info = chol, x, integer()
        # Every argument is a ctypes object or bytes, so the routines need no
        # argtypes, which would cost more than a 7 x 7 solve.
        n, k, info = map(ctypes.byref, (integer(m), integer(x.size // m), self._info))
        a, b = (ctypes.c_void_p(v.ctypes.data) for v in (chol, x))
        # Read column by column, the C-ordered L is the upper factor U = L^T:
        # L L^T = U^T U, and L x = b is U^T x = b.
        if triangular:
            self._routine, self._args = trtrs, (b"U", b"T", b"N", n, k, a, n, b, n, info, *[_CHAR_LEN] * 3)
        else:
            self._routine, self._args = potrs, (b"U", n, k, a, n, b, n, info, _CHAR_LEN)

    def __call__(self) -> np.ndarray:
        self._routine(*self._args)
        if self._info.value:
            raise np.linalg.LinAlgError(f"{self._routine.__name__} failed with info {self._info.value}")
        return self.x


@dataclass
class MlpParams:
    """Weights and biases of a feed-forward ReLU network.

    ``weights[i]`` has shape ``(layer_sizes[i], layer_sizes[i+1])`` so the
    forward pass is ``h @ W + b``. The final layer is linear. The arrays are
    views into the one vector ``flat``, ``[W0, b0, W1, b1, ...]``; build it
    with :func:`mlp_from_vector`.
    """

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(repr=False)


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


class MlpKernel:
    """The network's forward and backward passes on one batch of rows, bound
    once to their arrays: ``params`` and ``grad``, usually views into flat
    vectors that the caller updates in place, and the batch ``x``, which the
    caller may refill in place. A pass checks nothing.

    ``out`` is the network's output and ``upstream`` d(objective)/d(out),
    which the caller fills before :meth:`backward`; ``deltas[i]`` is the
    gradient at layer ``i``'s pre-activation (``deltas[-1]`` is ``upstream``).
    """

    def __init__(self, params: MlpParams, grad: MlpParams, x: np.ndarray):
        rows, sizes = len(x), params.layer_sizes[1:]
        outs = [np.empty((rows, s)) for s in sizes]
        masks = [np.empty((rows, s), dtype=bool) for s in sizes[:-1]]
        self.deltas = [np.empty((rows, s)) for s in sizes]
        self.params, self.grad, self.x = params, grad, x
        self.out, self.upstream = outs[-1], self.deltas[-1]
        self.zero = np.zeros(())
        self.mse_scale = np.array(2.0 / max(rows, 1))  # d(mean squared error)/d(out) per error
        ins = [x, *outs[:-1]]
        layers = list(zip(ins, params.weights, params.biases, outs))
        self._hidden, self._last = layers[:-1], layers[-1]
        # Each layer's transposed input and delta give its gradients; from
        # the last layer down, a layer passes its delta through its
        # transposed weights and the ReLU mask of its input.
        grads = list(zip([h.T for h in ins], self.deltas, grad.weights, grad.biases))
        self._down = [(*grads[i], params.weights[i].T, self.deltas[i - 1], ins[i], masks[i - 1])
                      for i in range(len(sizes) - 1, 0, -1)]
        self._first = grads[0]

    def forward(self) -> np.ndarray:
        """``out`` at the current parameters and rows."""
        zero = self.zero
        for h, w, b, out in self._hidden:
            np.dot(h, w, out)
            np.add(out, b, out)
            np.maximum(out, zero, out=out)
        h, w, b, out = self._last
        np.dot(h, w, out)
        np.add(out, b, out)
        return out

    def backward(self) -> None:
        """Gradients of ``sum(upstream * out)`` into ``grad``, from the
        arrays of the last forward pass."""
        zero = self.zero
        for h_t, delta, gw, gb, w_t, below, h, mask in self._down:
            np.dot(h_t, delta, gw)
            np.add.reduce(delta, 0, None, gb)
            np.dot(delta, w_t, below)
            # A hidden unit passes gradient where its ReLU was active, i.e.
            # where its output (this layer's input) is positive.
            np.greater(h, zero, mask)
            np.multiply(below, mask, below)
        h_t, delta, gw, gb = self._first
        np.dot(h_t, delta, gw)
        np.add.reduce(delta, 0, None, gb)

    def mse_backward(self, y: np.ndarray) -> None:
        """A forward pass, then the gradients of the mean squared error of
        ``out`` against the targets ``y`` (rows x 1)."""
        np.subtract(self.forward(), y, self.upstream)
        np.multiply(self.upstream, self.mse_scale, self.upstream)
        self.backward()


def mlp_forward(p: MlpParams, x: np.ndarray) -> np.ndarray:
    """Affine + ReLU composition; the final layer has no activation.

    Accepts a single input vector or a batch matrix (rows are inputs).
    """
    h, single = _as_batch(x)
    if h.shape[1] != p.layer_sizes[0]:
        raise ValueError(
            f"input width {h.shape[1]} does not match first layer {p.layer_sizes[0]}"
        )
    last = len(p.weights) - 1
    for i, (w, b) in enumerate(zip(p.weights, p.biases)):
        h = np.dot(h, w)
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
    return h[0] if single else h


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
    grad = mlp_from_vector(p.layer_sizes)
    kernel = MlpKernel(p, grad, xb)
    kernel.forward()
    np.copyto(kernel.upstream, ub)
    kernel.backward()
    input_grad = np.dot(kernel.deltas[0], p.weights[0].T)
    return grad.weights, grad.biases, input_grad[0] if single else input_grad
