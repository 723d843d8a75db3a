import re

import numpy as np
import pytest

from xferlens import meta
from xferlens.meta import MamlConfig, adapt, meta_train, predict_net
from xferlens.numerics import MlpKernel, init_mlp, mlp_backward, mlp_forward, mlp_from_vector


def mse_and_grads(params, x, y):
    """Oracle: mean squared error and its exact parameter gradients, the
    gradients through the bound kernel ``adapt`` and ``meta_train`` use."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if x.shape[1] != params.layer_sizes[0]:
        raise ValueError("input width does not match first layer")
    grad = mlp_from_vector(params.layer_sizes)
    MlpKernel(params, grad, x).mse_backward(y[:, None])
    err = mlp_forward(params, x)[:, 0] - y
    return float(np.mean(err**2)), grad.weights, grad.biases


#: (feature rows, target shape) pairs that do not line up: more rows than
#: targets, fewer, and a 2-D target array.
MISMATCHED = [(10, (6,)), (4, (6,)), (6, (6, 1))]


def mismatch_message(what, x_rows, y_shape):
    return re.escape(f"{what}: features of shape ({x_rows}, 2) do not match targets of shape {y_shape}")


def params_digest(params):
    return [w.tobytes() for w in params.weights] + [b.tobytes() for b in params.biases]


def linear_tasks(rng, n_tasks, n_points=12):
    tasks = {}
    for i in range(n_tasks):
        a = rng.uniform(-1.0, 1.0)
        b = rng.uniform(-0.5, 0.5)
        x = rng.uniform(-2, 2, size=(n_points, 1))
        tasks[f"task{i:02d}"] = (x, a * x[:, 0] + b)
    return tasks


class TestAdapt:
    def test_zero_steps_returns_theta_unchanged(self):
        theta = init_mlp((2, 4, 1), seed=0)
        cfg = MamlConfig(inner_steps=0, net_shape=(2, 4, 1))
        out = adapt(theta, np.zeros((3, 2)), np.zeros(3), cfg)
        for wa, wb in zip(out.weights, theta.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_single_step_linear_model_formula(self):
        # One affine layer: f(x) = w x + b. One gradient step has a closed form.
        theta = init_mlp((1, 1), seed=3)
        w0 = float(theta.weights[0][0, 0])
        b0 = float(theta.biases[0][0])
        x = np.array([[1.0], [2.0], [-1.0]])
        y = np.array([0.5, 1.5, -0.5])
        lr = 0.05
        cfg = MamlConfig(inner_steps=1, inner_lr=lr, net_shape=(1, 1))
        adapted = adapt(theta, x, y, cfg)
        preds = w0 * x[:, 0] + b0
        dw = float(np.mean(2 * (preds - y) * x[:, 0]))
        db = float(np.mean(2 * (preds - y)))
        assert adapted.weights[0][0, 0] == pytest.approx(w0 - lr * dw, abs=1e-12)
        assert adapted.biases[0][0] == pytest.approx(b0 - lr * db, abs=1e-12)

    def test_descent_on_support(self):
        rng = np.random.default_rng(5)
        theta = init_mlp((3, 8, 1), seed=1)
        x = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        cfg = MamlConfig(inner_steps=5, inner_lr=1e-3, net_shape=(3, 8, 1))
        before, _, _ = mse_and_grads(theta, x, y)
        after, _, _ = mse_and_grads(adapt(theta, x, y, cfg), x, y)
        assert after <= before

    def test_never_mutates_input(self):
        theta = init_mlp((2, 5, 1), seed=2)
        digest = params_digest(theta)
        cfg = MamlConfig(inner_steps=3, inner_lr=0.1, net_shape=(2, 5, 1))
        adapt(theta, np.ones((4, 2)), np.zeros(4), cfg)
        assert params_digest(theta) == digest

    def test_result_survives_later_calls(self):
        # meta_train reuses its buffers across adapt calls; a network adapt
        # returns to its caller must not live in them.
        cfg = MamlConfig(inner_steps=3, inner_lr=0.05)
        theta = init_mlp(cfg.net_shape, seed=3)
        tasks = ragged_tasks(34)
        x, y = tasks["task07"]
        first = adapt(theta, x, y, cfg)
        digest = params_digest(first)
        for xs, ys in tasks.values():
            adapt(theta, xs, ys, cfg)
        trained = meta_train(tasks, cfg, seed=1)
        adapt(trained, x, y, cfg)
        assert params_digest(first) == digest
        assert params_digest(adapt(theta, x, y, cfg)) == digest

    @pytest.mark.parametrize("x_rows, y_shape", MISMATCHED)
    def test_mismatched_rows_rejected(self, x_rows, y_shape):
        theta = init_mlp((2, 3, 1), seed=0)
        cfg = MamlConfig(net_shape=(2, 3, 1))
        with pytest.raises(ValueError, match=mismatch_message("support set", x_rows, y_shape)):
            adapt(theta, np.zeros((x_rows, 2)), np.zeros(y_shape), cfg)

    def test_empty_support_rejected(self):
        theta = init_mlp((2, 1), seed=0)
        cfg = MamlConfig(net_shape=(2, 1))
        with pytest.raises(ValueError, match="empty support"):
            adapt(theta, np.zeros((0, 2)), np.zeros(0), cfg)


class TestMetaTrain:
    def test_zero_inner_steps_equals_joint_training_gradient(self):
        rng = np.random.default_rng(7)
        tasks = linear_tasks(rng, 3, n_points=8)
        shape = (1, 4, 1)
        seed = 11
        cfg = MamlConfig(inner_steps=0, outer_lr=0.01, meta_epochs=1, net_shape=shape)
        theta_after = meta_train(tasks, cfg, seed=seed)

        # Joint-training expectation: average the query-half gradients at theta0.
        theta0 = init_mlp(shape, seed)
        split_rng = np.random.default_rng([seed, 0])
        w_acc = [np.zeros_like(w) for w in theta0.weights]
        b_acc = [np.zeros_like(b) for b in theta0.biases]
        for name in sorted(tasks):
            x, y = tasks[name]
            perm = split_rng.permutation(len(y))
            qry = perm[len(y) // 2 :]
            _, wg, bg = mse_and_grads(theta0, x[qry], y[qry])
            for acc, g in zip(w_acc, wg):
                acc += g
            for acc, g in zip(b_acc, bg):
                acc += g
        for w_new, w_old, acc in zip(theta_after.weights, theta0.weights, w_acc):
            np.testing.assert_allclose(w_new, w_old - 0.01 * acc / 3, atol=1e-12)
        for b_new, b_old, acc in zip(theta_after.biases, theta0.biases, b_acc):
            np.testing.assert_allclose(b_new, b_old - 0.01 * acc / 3, atol=1e-12)

    def test_single_task_first_order_hand_unroll(self):
        # 1-parameter-per-layer linear model, one helper task, K=1, one epoch.
        seed = 4
        shape = (1, 1)
        x = np.array([[0.5], [1.0], [2.0], [-1.0]])
        y = np.array([1.0, 2.0, 4.0, -2.0])
        cfg = MamlConfig(inner_steps=1, inner_lr=0.1, outer_lr=0.05, meta_epochs=1, net_shape=shape)
        result = meta_train({"only": (x, y)}, cfg, seed=seed)

        theta0 = init_mlp(shape, seed)
        w0, b0 = float(theta0.weights[0][0, 0]), float(theta0.biases[0][0])
        perm = np.random.default_rng([seed, 0]).permutation(4)
        sup, qry = perm[:2], perm[2:]
        xs, ys = x[sup, 0], y[sup]
        xq, yq = x[qry, 0], y[qry]
        # Inner step on the support half.
        preds = w0 * xs + b0
        w1 = w0 - 0.1 * float(np.mean(2 * (preds - ys) * xs))
        b1 = b0 - 0.1 * float(np.mean(2 * (preds - ys)))
        # First-order outer step: query gradient at the adapted parameters.
        qpred = w1 * xq + b1
        gw = float(np.mean(2 * (qpred - yq) * xq))
        gb = float(np.mean(2 * (qpred - yq)))
        assert result.weights[0][0, 0] == pytest.approx(w0 - 0.05 * gw, abs=1e-12)
        assert result.biases[0][0] == pytest.approx(b0 - 0.05 * gb, abs=1e-12)

    def test_zero_inner_lr_reduces_to_joint_training(self):
        rng = np.random.default_rng(9)
        tasks = linear_tasks(rng, 4)
        shape = (1, 6, 1)
        frozen = meta_train(
            tasks, MamlConfig(inner_steps=5, inner_lr=0.0, meta_epochs=10, net_shape=shape), seed=3
        )
        joint = meta_train(
            tasks, MamlConfig(inner_steps=0, inner_lr=0.01, meta_epochs=10, net_shape=shape), seed=3
        )
        for wa, wb in zip(frozen.weights, joint.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(frozen.biases, joint.biases):
            np.testing.assert_array_equal(ba, bb)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(13)
        tasks = linear_tasks(rng, 3)
        cfg = MamlConfig(meta_epochs=5, net_shape=(1, 4, 1))
        a = meta_train(tasks, cfg, seed=21)
        b = meta_train(tasks, cfg, seed=21)
        assert params_digest(a) == params_digest(b)

    def test_meta_init_helps_on_planted_family(self):
        rng = np.random.default_rng(17)
        tasks = linear_tasks(rng, 10, n_points=16)
        cfg = MamlConfig(
            inner_steps=5, inner_lr=0.02, outer_lr=0.01, meta_epochs=60, net_shape=(1, 16, 1)
        )
        theta = meta_train(tasks, cfg, seed=0)
        wins = 0
        trials = 6
        for trial in range(trials):
            trial_rng = np.random.default_rng(1000 + trial)
            a, b = trial_rng.uniform(-1, 1), trial_rng.uniform(-0.5, 0.5)
            x = trial_rng.uniform(-2, 2, size=(16, 1))
            y = a * x[:, 0] + b
            sup, qry = np.arange(8), np.arange(8, 16)
            meta_adapted = adapt(theta, x[sup], y[sup], cfg)
            random_init = init_mlp((1, 16, 1), seed=5000 + trial)
            rand_adapted = adapt(random_init, x[sup], y[sup], cfg)
            meta_mse = float(np.mean((predict_net(meta_adapted, x[qry]) - y[qry]) ** 2))
            rand_mse = float(np.mean((predict_net(rand_adapted, x[qry]) - y[qry]) ** 2))
            wins += meta_mse < rand_mse
        assert wins >= 4

    @pytest.mark.parametrize("x_rows, y_shape", MISMATCHED)
    def test_mismatched_rows_rejected(self, x_rows, y_shape):
        rng = np.random.default_rng(3)
        tasks = {"a": (rng.standard_normal((6, 2)), rng.uniform(size=6)),
                 "b": (rng.standard_normal((x_rows, 2)), rng.uniform(size=y_shape))}
        cfg = MamlConfig(meta_epochs=2, net_shape=(2, 3, 1))
        with pytest.raises(ValueError, match=mismatch_message("task 'b'", x_rows, y_shape)):
            meta_train(tasks, cfg)

    def test_too_small_task_rejected(self):
        cfg = MamlConfig(net_shape=(1, 1))
        with pytest.raises(ValueError, match="too small"):
            meta_train({"t": (np.zeros((1, 1)), np.zeros(1))}, cfg)


def reference_mse_and_grads(params, x, y):
    """Two-pass reference: a forward pass for the loss, then mlp_backward."""
    err = mlp_forward(params, x)[:, 0] - y
    w_grads, b_grads, _ = mlp_backward(params, x, (2.0 / len(y)) * err[:, None])
    return float(np.mean(err**2)), w_grads, b_grads


def reference_adapt(theta, x, y, cfg):
    params = mlp_from_vector(theta.layer_sizes, theta.flat.copy())
    for _ in range(cfg.inner_steps):
        _, w_grads, b_grads = reference_mse_and_grads(params, x, y)
        for w, gw in zip(params.weights, w_grads):
            w -= cfg.inner_lr * gw
        for b, gb in zip(params.biases, b_grads):
            b -= cfg.inner_lr * gb
    return params


def reference_meta_train(tasks, cfg, seed):
    theta = init_mlp(cfg.net_shape, seed)
    names = sorted(tasks)
    for epoch in range(cfg.meta_epochs):
        rng = np.random.default_rng([seed, epoch])
        w_accum = [np.zeros_like(w) for w in theta.weights]
        b_accum = [np.zeros_like(b) for b in theta.biases]
        for name in names:
            x, y = tasks[name]
            perm = rng.permutation(len(y))
            sup, qry = perm[: len(y) // 2], perm[len(y) // 2 :]
            adapted = reference_adapt(theta, x[sup], y[sup], cfg)
            _, w_grads, b_grads = reference_mse_and_grads(adapted, x[qry], y[qry])
            for acc, g in zip(w_accum, w_grads):
                acc += g
            for acc, g in zip(b_accum, b_grads):
                acc += g
        scale = cfg.outer_lr / len(names)
        for w, acc in zip(theta.weights, w_accum):
            w -= scale * acc
        for b, acc in zip(theta.biases, b_accum):
            b -= scale * acc
    return theta


def ragged_tasks(seed, width=9):
    """Helper tasks of 2, 7 and 12 rows: odd and even support/query splits."""
    rng = np.random.default_rng(seed)
    return {
        f"task{n:02d}": (rng.standard_normal((n, width)), rng.uniform(0.0, 1.0, n))
        for n in (2, 7, 12)
    }


class TestMatchesTwoPassReference:
    """The single-pass kernel must reproduce the forward-then-backward
    arithmetic bit for bit."""

    @pytest.mark.parametrize("inner_steps", [0, 5])
    def test_meta_train(self, inner_steps):
        tasks = ragged_tasks(31)
        cfg = MamlConfig(inner_steps=inner_steps, inner_lr=0.05, outer_lr=0.01, meta_epochs=20)
        got = meta_train(tasks, cfg, seed=4)
        assert params_digest(got) == params_digest(reference_meta_train(tasks, cfg, seed=4))

    @pytest.mark.parametrize("inner_steps", [0, 5])
    def test_adapt(self, inner_steps):
        cfg = MamlConfig(inner_steps=inner_steps, inner_lr=0.05)
        theta = init_mlp(cfg.net_shape, seed=8)
        for x, y in ragged_tasks(32).values():
            got = adapt(theta, x, y, cfg)
            assert params_digest(got) == params_digest(reference_adapt(theta, x, y, cfg))

    def test_mse_and_grads(self):
        theta = init_mlp((9, 50, 10, 1), seed=9)
        for x, y in ragged_tasks(33).values():
            loss, wg, bg = mse_and_grads(theta, x, y)
            ref_loss, ref_wg, ref_bg = reference_mse_and_grads(theta, x, y)
            assert loss == ref_loss
            assert [g.tobytes() for g in wg + bg] == [g.tobytes() for g in ref_wg + ref_bg]

    def test_width_mismatch_rejected(self):
        theta = init_mlp((3, 4, 1), seed=0)
        cfg = MamlConfig(inner_steps=0, net_shape=(3, 4, 1))
        with pytest.raises(ValueError, match="input width"):
            mse_and_grads(theta, np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(ValueError, match="input width"):
            adapt(theta, np.zeros((4, 2)), np.zeros(4), cfg)
