import numpy as np
import pytest

from xferlens.numerics import (
    MlpParams,
    cholesky,
    grad_check,
    init_mlp,
    mlp_activations,
    mlp_backprop,
    mlp_backward,
    mlp_forward,
)


class TestCholesky:
    def test_identity_no_jitter(self):
        l, jit = cholesky(np.eye(3), jitter=0.0)
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
        l, jit = cholesky(psd, jitter=0.0)
        rebuilt = l @ l.T
        target = psd + jit * np.eye(size)
        assert np.abs(rebuilt - target).max() / np.abs(target).max() < 1e-8

    def test_jitter_escalates_on_rank_deficiency(self):
        # Rank-1 matrix: plain Cholesky fails, jitter must rescue it.
        v = np.array([1.0, 2.0, 3.0])
        a = np.outer(v, v)
        l, jit = cholesky(a, jitter=0.0)
        assert jit > 0.0
        np.testing.assert_allclose(l @ l.T, a + jit * np.eye(3), atol=1e-8)

    def test_indefinite_fails_at_max_jitter(self):
        a = np.diag([1.0, -1.0])
        with pytest.raises(np.linalg.LinAlgError, match="max jitter"):
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


class TestMlpForward:
    def test_zero_params_zero_output(self):
        p = MlpParams((2, 3, 2), [np.zeros((2, 3)), np.zeros((3, 2))], [np.zeros(3), np.zeros(2)])
        np.testing.assert_array_equal(mlp_forward(p, np.array([1.0, -2.0])), np.zeros(2))

    def test_identity_single_layer(self):
        p = MlpParams((3, 3), [np.eye(3)], [np.zeros(3)])
        x = np.array([0.5, -1.5, 2.0])
        np.testing.assert_array_equal(mlp_forward(p, x), x)

    def test_fixed_232_matches_hand_computation(self):
        w1 = np.array([[1.0, 0.0, -1.0], [0.5, 2.0, 1.0]])
        b1 = np.array([0.1, -0.2, 0.3])
        w2 = np.array([[1.0, -1.0], [0.0, 2.0], [3.0, 0.5]])
        b2 = np.array([-0.5, 0.25])
        p = MlpParams((2, 3, 2), [w1, w2], [b1, b2])
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
        p = MlpParams((3, 2), [w], [np.zeros(2)])
        upstream = np.array([1.0, -1.0])
        _, _, dx = mlp_backward(p, np.array([0.1, 0.2, 0.3]), upstream)
        np.testing.assert_allclose(dx, w @ upstream)

    def test_inactive_relu_blocks_gradients(self):
        # All hidden pre-activations negative: nothing flows to layer 0.
        w1 = np.full((2, 3), -1.0)
        b1 = np.full(3, -5.0)
        w2 = np.ones((3, 1))
        p = MlpParams((2, 3, 1), [w1, w2], [b1, np.zeros(1)])
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
            return MlpParams(sizes, ws, bs)

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
        x = rng.standard_normal((rows, sizes[0]))
        upstream = rng.standard_normal((rows, sizes[-1]))
        ref_w, ref_b, ref_dx = reference_backward(p, x, upstream)
        acts = mlp_activations(p, x)
        assert acts[-1].tobytes() == mlp_forward(p, x).tobytes()
        w, b, delta = mlp_backprop(p, acts, upstream)
        assert [g.tobytes() for g in w + b] == [g.tobytes() for g in ref_w + ref_b]
        assert (delta @ p.weights[0].T).tobytes() == ref_dx.tobytes()
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
