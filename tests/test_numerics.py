import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

import frozen_gp_meta
from helpers import grad_check, mlp_params
from xferlens import numerics
from xferlens.numerics import (
    MlpKernel,
    Solve,
    cholesky,
    init_mlp,
    mlp_backward,
    mlp_forward,
    mlp_from_vector,
    solve,
)


class TestCholesky:
    def test_identity_no_jitter(self):
        l, jit = cholesky(np.eye(3))
        np.testing.assert_allclose(l, np.eye(3))
        assert jit == 0.0

    def test_hand_factorization(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        l, _ = cholesky(a)
        expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        np.testing.assert_allclose(l, expected, atol=1e-12)

    @pytest.mark.parametrize("size", [10, 50])
    def test_random_psd_reconstruction(self, size):
        rng = np.random.default_rng(size)
        a = rng.standard_normal((size, size))
        psd = a.T @ a
        l, jit = cholesky(psd)
        rebuilt = l @ l.T
        target = psd + jit * np.eye(size)
        assert np.abs(rebuilt - target).max() / np.abs(target).max() < 1e-8

    def test_jitter_escalates_on_rank_deficiency(self):
        # Rank-1 matrix: plain Cholesky fails, jitter must rescue it.
        v = np.array([1.0, 2.0, 3.0])
        a = np.outer(v, v)
        with np.errstate(invalid="ignore"):
            l, jit = cholesky(a)
        assert jit > 0.0
        np.testing.assert_allclose(l @ l.T, a + jit * np.eye(3), atol=1e-8)

    def test_indefinite_fails_at_max_jitter(self):
        a = np.diag([1.0, -1.0])
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError, match="max jitter"):
            cholesky(a)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="symmetric"):
            cholesky(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_accepts_rounding_asymmetry(self):
        a = np.array([[2.0, 0.5], [0.5 + 1e-14, 2.0]])
        l, jit = cholesky(a)
        assert jit == 0.0
        np.testing.assert_allclose(l @ l.T, a, atol=1e-12)


def outcome(fn, *args):
    """What a call gives: its exception's exact type, or each result's shape
    and bytes (NaN payloads included) and any float next to them."""
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    parts = result if isinstance(result, tuple) else (result,)
    return tuple((p.shape, p.dtype, p.tobytes()) if isinstance(p, np.ndarray) else p for p in parts)


def symmetric(n, seed, kind):
    """An n x n exactly symmetric matrix: positive definite, positive
    semi-definite of rank n // 2 (singular, so the jitter ladder climbs),
    indefinite, or positive definite with a NaN or an infinite pair of entries."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n if kind != "psd-singular" else n // 2))
    a = g @ g.T + (n if kind in ("spd", "nan", "inf") else 0.0) * np.eye(n)
    if kind == "indefinite":
        a -= (np.abs(a).max() + 1.0) * np.eye(n)
    a = (a + a.T) / 2.0
    i, j = rng.integers(n), rng.integers(n)
    if kind == "nan":
        a[i, j] = a[j, i] = np.nan
    elif kind == "inf":
        a[i, j] = a[j, i] = np.inf
    return a


KINDS = ("spd", "psd-singular", "indefinite", "nan", "inf")


class TestCholeskyAgainstNumpy:
    """The gufunc ladder against the ladder on ``np.linalg.cholesky`` it
    replaced (``frozen_gp_meta.cholesky``): the same factor bits and jitter,
    or the same exception type, in a scope that ignores "invalid", as the
    caller's must."""

    @given(st.integers(1, 60), st.integers(0, 2**16), st.sampled_from(KINDS))
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_ladder(self, n, seed, kind):
        a = symmetric(n, seed, kind)
        want = outcome(frozen_gp_meta.cholesky, a)
        with np.errstate(invalid="ignore"):
            assert outcome(cholesky, a) == want
        if kind == "spd":
            assert want == outcome(lambda m: (np.linalg.cholesky(m), 0.0), a)

    def test_independent_of_the_callers_errstate(self):
        """With "invalid" ignored, raising on every other flag changes no
        factor, jitter or exception."""
        a, indefinite = symmetric(9, 3, "psd-singular"), symmetric(4, 1, "indefinite")
        with np.errstate(invalid="ignore"):
            want = outcome(cholesky, a)
            want_indefinite = outcome(cholesky, indefinite)
        assert want[1] > 0.0 and want_indefinite is np.linalg.LinAlgError
        with np.errstate(all="raise", invalid="ignore"):
            assert outcome(cholesky, a) == want
            assert outcome(cholesky, indefinite) is want_indefinite

    def test_empty_matrix(self):
        assert outcome(cholesky, np.zeros((0, 0))) == outcome(frozen_gp_meta.cholesky, np.zeros((0, 0)))


def systems(n, seed, rhs, singular):
    rng = np.random.default_rng(seed)
    batch = (3,) if rhs == "batched" else ()
    a = rng.standard_normal(batch + (n, n)) + n * np.eye(n)
    b = rng.standard_normal({"vector": (n,), "matrix": (n, 4), "batched": (3, n, 1)}[rhs])
    if singular:  # a zero column gives LU an exactly zero pivot
        (a[-1] if batch else a)[:, rng.integers(n)] = 0.0
    return a, b


class TestSolveAgainstNumpy:
    @given(st.integers(1, 60), st.integers(0, 2**16),
           st.sampled_from(["vector", "matrix", "batched"]), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy(self, n, seed, rhs, singular):
        a, b = systems(n, seed, rhs, singular)
        want = outcome(np.linalg.solve, a, b)
        assert (want is np.linalg.LinAlgError) == singular
        assert outcome(solve, a, b) == want

    @pytest.mark.parametrize("rhs", ["vector", "batched"])
    def test_singular_raises_under_any_errstate(self, rhs):
        a, b = systems(5, 0, rhs, True)
        for scope in ({"all": "ignore"}, {"all": "raise"}, {"invalid": "warn"}):
            with np.errstate(**scope):
                with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                    solve(a, b)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_entries_solve_as_numpy_does(self, value):
        # LAPACK meets no exact zero pivot, so numpy returns the NaNs and raises nothing.
        a, b = systems(4, 1, "vector", False)
        a[1, 2] = value
        want = outcome(np.linalg.solve, a, b)
        assert isinstance(want, tuple) and np.isnan(np.frombuffer(want[0][2])).any()
        assert outcome(solve, a, b) == want

    @pytest.mark.parametrize("a, b", [
        (np.ones(3), np.ones(3)),  # not a matrix
        (np.ones((2, 3)), np.ones(2)),  # not square
        (np.eye(3), np.ones(2)),  # right-hand side of the wrong length
        (np.eye(3), np.ones((2, 2))),
    ])
    def test_shape_errors_match_numpy(self, a, b):
        want = outcome(np.linalg.solve, a, b)
        assert isinstance(want, type) and outcome(solve, a, b) is want


def laid_out(a, layout):
    """``a``'s values in a C-ordered, an F-ordered or a strided array (every
    other element of a larger one along each axis)."""
    if layout == "strided":
        out = np.full(tuple(2 * d for d in a.shape), np.nan)[(slice(None, None, 2),) * a.ndim]
        out[...] = a
        return out
    return np.array(a, order=layout)


def factor_and_rhs(m, seed, rhs):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, m + 2))
    chol, _ = cholesky(g @ g.T)
    return chol, rng.standard_normal(m if rhs == "vector" else (m, m))


def scipy_solves(chol, b):
    """(dpotrs, dtrtrs) as the GP called them through scipy's wrappers."""
    (cho, info_cho), (tri, info_tri) = (lapack.dpotrs(chol, b, lower=1),
                                        lapack.dtrtrs(chol.T, b, lower=0, trans=1))
    assert info_cho == info_tri == 0
    return cho, tri


LAYOUTS = ("C", "F", "strided")


class TestSolveAgainstScipy:
    """numpy's LAPACK called through ``Solve`` gives the bits of scipy's
    wrappers, for every layout of the factor and the right-hand side. A
    layout the solve cannot use in place is copied, and the caller's array
    is left as it was."""

    @given(st.integers(1, 60), st.integers(0, 2**16), st.sampled_from(["vector", "matrix"]),
           st.sampled_from(LAYOUTS), st.sampled_from(LAYOUTS))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal(self, m, seed, rhs, chol_layout, b_layout):
        chol, b = factor_and_rhs(m, seed, rhs)
        given_chol = laid_out(chol, chol_layout)
        for triangular, want in zip((False, True), scipy_solves(chol, b)):
            given_b = laid_out(b, b_layout)
            solve = Solve(given_chol, given_b, triangular)
            assert (solve.chol is given_chol) == given_chol.flags.c_contiguous
            assert (solve.x is given_b) == given_b.flags.f_contiguous
            got = solve()
            assert got is solve.x
            assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
            if got is not given_b:
                assert given_b.tobytes() == laid_out(b, b_layout).tobytes()
        assert given_chol.tobytes() == laid_out(chol, chol_layout).tobytes()

    def test_bound_solves_read_the_refilled_arrays(self):
        m = 9
        chol = np.empty((m, m))
        bound = {(rhs, triangular): Solve(chol, np.empty((m, m) if rhs == "matrix" else m, order="F"),
                                          triangular)
                 for rhs in ("vector", "matrix") for triangular in (False, True)}
        for seed in range(3):
            for (rhs, triangular), solve in bound.items():
                factor, b = factor_and_rhs(m, seed, rhs)
                np.copyto(chol, factor)
                np.copyto(solve.x, b)
                want = scipy_solves(factor, b)[triangular]
                assert solve() is solve.x
                assert solve.x.tobytes() == want.tobytes()

    def test_zero_on_the_diagonal_fails_the_triangular_solve(self):
        chol, b = factor_and_rhs(5, 0, "vector")
        chol[3, 3] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="dtrtrs.* info 4"):
            Solve(chol, b, triangular=True)()

    @pytest.mark.parametrize("chol, b", [
        (np.zeros((0, 0)), np.zeros(0)),  # empty
        (np.eye(3)[:2], np.ones(2)),  # not square
        (np.eye(3), np.ones(2)),  # right-hand side of the wrong length
        (np.eye(3), np.ones((3, 0))),  # no right-hand side
        (np.eye(3), np.ones((3, 1, 1))),
    ])
    def test_shape_errors(self, chol, b):
        with pytest.raises(ValueError, match="cannot solve"):
            Solve(chol, b)

    def test_lookup_names_a_missing_routine(self, monkeypatch):
        numerics.lapack.cache_clear()
        monkeypatch.setattr(numerics, "_SYMBOLS", ("no_such_{}_",))
        try:
            with pytest.raises(np.linalg.LinAlgError, match="has no dpotrs.*no_such_dpotrs_"):
                Solve(np.eye(2), np.ones(2))
        finally:
            numerics.lapack.cache_clear()


class TestMlpForward:
    def test_zero_params_zero_output(self):
        p = mlp_params([np.zeros((2, 3)), np.zeros((3, 2))], [np.zeros(3), np.zeros(2)])
        np.testing.assert_array_equal(mlp_forward(p, np.array([1.0, -2.0])), np.zeros(2))

    def test_identity_single_layer(self):
        p = mlp_params([np.eye(3)], [np.zeros(3)])
        x = np.array([0.5, -1.5, 2.0])
        np.testing.assert_array_equal(mlp_forward(p, x), x)

    def test_fixed_232_matches_hand_computation(self):
        w1 = np.array([[1.0, 0.0, -1.0], [0.5, 2.0, 1.0]])
        b1 = np.array([0.1, -0.2, 0.3])
        w2 = np.array([[1.0, -1.0], [0.0, 2.0], [3.0, 0.5]])
        b2 = np.array([-0.5, 0.25])
        p = mlp_params([w1, w2], [b1, b2])
        x = np.array([2.0, -1.0])
        # Hidden pre-activations, element by element:
        h0 = 2.0 * 1.0 + (-1.0) * 0.5 + 0.1        # 1.6
        h1 = 2.0 * 0.0 + (-1.0) * 2.0 + (-0.2)     # -2.2 -> relu 0
        h2 = 2.0 * (-1.0) + (-1.0) * 1.0 + 0.3     # -2.7 -> relu 0
        a = [max(h0, 0.0), max(h1, 0.0), max(h2, 0.0)]
        out0 = a[0] * 1.0 + a[1] * 0.0 + a[2] * 3.0 - 0.5
        out1 = a[0] * (-1.0) + a[1] * 2.0 + a[2] * 0.5 + 0.25
        np.testing.assert_allclose(mlp_forward(p, x), [out0, out1], atol=1e-15)

    def test_batch_matches_per_row(self):
        p = init_mlp((4, 5, 2), seed=3)
        rng = np.random.default_rng(1)
        xs = rng.standard_normal((6, 4))
        batch = mlp_forward(p, xs)
        rows = np.stack([mlp_forward(p, row) for row in xs])
        # gemm vs gemv accumulation order may differ in the last ulps
        np.testing.assert_allclose(batch, rows, rtol=1e-13, atol=1e-15)

    def test_shape_mismatch(self):
        p = init_mlp((4, 2), seed=0)
        with pytest.raises(ValueError, match="width"):
            mlp_forward(p, np.zeros(3))


class TestMlpBackward:
    def test_single_linear_layer_input_grad(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        p = mlp_params([w], [np.zeros(2)])
        upstream = np.array([1.0, -1.0])
        _, _, dx = mlp_backward(p, np.array([0.1, 0.2, 0.3]), upstream)
        np.testing.assert_allclose(dx, w @ upstream)

    def test_inactive_relu_blocks_gradients(self):
        # All hidden pre-activations negative: nothing flows to layer 0.
        w1 = np.full((2, 3), -1.0)
        b1 = np.full(3, -5.0)
        w2 = np.ones((3, 1))
        p = mlp_params([w1, w2], [b1, np.zeros(1)])
        wg, bg, dx = mlp_backward(p, np.array([1.0, 1.0]), np.array([1.0]))
        np.testing.assert_array_equal(wg[0], np.zeros((2, 3)))
        np.testing.assert_array_equal(bg[0], np.zeros(3))
        np.testing.assert_array_equal(dx, np.zeros(2))

    @pytest.mark.parametrize("sizes", [(3, 4, 1), (2, 5, 3), (9, 50, 10)])
    def test_param_grads_match_finite_differences(self, sizes):
        rng = np.random.default_rng(42)
        p = init_mlp(sizes, seed=11)
        x = rng.standard_normal((4, sizes[0]))
        upstream = rng.standard_normal((4, sizes[-1]))

        def pack(params):
            return np.concatenate(
                [w.ravel() for w in params.weights] + [b for b in params.biases]
            )

        def unpack(vec):
            ws, bs, pos = [], [], 0
            for a, b in zip(sizes[:-1], sizes[1:]):
                ws.append(vec[pos : pos + a * b].reshape(a, b))
                pos += a * b
            for _, b in zip(sizes[:-1], sizes[1:]):
                bs.append(vec[pos : pos + b])
                pos += b
            return mlp_params(ws, bs)

        def f(vec):
            params = unpack(vec)
            value = float(np.sum(mlp_forward(params, x) * upstream))
            wg, bg, _ = mlp_backward(params, x, upstream)
            grad = np.concatenate([g.ravel() for g in wg] + [g for g in bg])
            return value, grad

        assert grad_check(f, pack(p)) < 1e-5

    def test_input_grads_match_finite_differences(self):
        p = init_mlp((3, 6, 2), seed=5)
        rng = np.random.default_rng(9)
        upstream = rng.standard_normal(2)
        x0 = rng.standard_normal(3)

        def f(x):
            value = float(mlp_forward(p, x) @ upstream)
            _, _, dx = mlp_backward(p, x, upstream)
            return value, dx

        assert grad_check(f, x0) < 1e-6


def reference_backward(p, x, upstream):
    """Two-pass reference on a batch: a fresh forward pass caching
    pre-activations, then backpropagation masked by them."""
    last = len(p.weights) - 1
    inputs, preacts, h = [x], [], x
    for i, (w, b) in enumerate(zip(p.weights, p.biases)):
        z = h @ w + b
        preacts.append(z)
        h = np.maximum(z, 0.0) if i < last else z
        inputs.append(h)
    weight_grads, bias_grads = [None] * len(p.weights), [None] * len(p.weights)
    delta = upstream
    for i in range(last, -1, -1):
        weight_grads[i] = inputs[i].T @ delta
        bias_grads[i] = delta.sum(axis=0)
        delta = delta @ p.weights[i].T
        if i > 0:
            delta = delta * (preacts[i - 1] > 0.0)
    return weight_grads, bias_grads, delta


class TestSinglePassKernel:
    @pytest.mark.parametrize("rows", [1, 2, 7])
    @pytest.mark.parametrize("sizes", [(9, 50, 10, 1), (3, 4, 2), (2, 1)])
    def test_bitwise_equal_to_two_pass_reference(self, rows, sizes):
        rng = np.random.default_rng(rows * 100 + len(sizes))
        p = init_mlp(sizes, seed=rows)
        grad = mlp_from_vector(sizes)
        kernel = MlpKernel(p, grad, np.empty((rows, sizes[0])))
        # The second pass runs on new rows and parameters, written in place
        # into the arrays the kernel is bound to.
        for step in range(2):
            if step:
                p.flat += rng.standard_normal(p.flat.size)
            x = rng.standard_normal((rows, sizes[0]))
            upstream = rng.standard_normal((rows, sizes[-1]))
            kernel.x[...] = x
            ref_w, ref_b, ref_dx = reference_backward(p, x, upstream)
            assert kernel.forward().tobytes() == mlp_forward(p, x).tobytes()
            kernel.upstream[...] = upstream
            kernel.backward()
            assert [g.tobytes() for g in grad.weights + grad.biases] == [
                g.tobytes() for g in ref_w + ref_b]
            assert (kernel.deltas[0] @ p.weights[0].T).tobytes() == ref_dx.tobytes()
        w, b, dx = mlp_backward(p, x, upstream)
        assert [g.tobytes() for g in w + b] == [g.tobytes() for g in ref_w + ref_b]
        assert dx.tobytes() == ref_dx.tobytes()


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        def f(w):
            return float(w @ w), 2 * w

        assert grad_check(f, np.array([1.0, -2.0, 0.5])) < 1e-9

    def test_constant_function(self):
        def f(w):
            return 3.5, np.zeros_like(w)

        assert grad_check(f, np.ones(4)) == 0.0

    def test_non_finite_rejected(self):
        def f(w):
            return float("nan"), np.zeros_like(w)

        with pytest.raises(ValueError):
            grad_check(f, np.ones(2))


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = init_mlp((9, 50, 10), seed=123)
        b = init_mlp((9, 50, 10), seed=123)
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()
        for ba, bb in zip(a.biases, b.biases):
            assert ba.tobytes() == bb.tobytes()

    def test_different_seed_differs(self):
        a = init_mlp((3, 3), seed=1)
        b = init_mlp((3, 3), seed=2)
        assert not np.array_equal(a.weights[0], b.weights[0])
