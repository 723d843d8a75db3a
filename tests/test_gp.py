import math
import zlib

import numpy as np
import pytest

from helpers import grad_check
import xferlens.gp as gp_module
from xferlens.gp import (
    _build_problem,
    _latent,
    _likelihood,
    fit_gp,
    mll_function,
    predict_gp,
)


def kernel_rbf(g_a, g_b, lengthscale, signal_variance):
    """Oracle: signal_variance * exp(-||g_a - g_b||^2 / (2 lengthscale^2))."""
    if lengthscale <= 0:
        raise ValueError("lengthscale must be positive")
    g_a = np.asarray(g_a, dtype=float)
    g_b = np.asarray(g_b, dtype=float)
    if g_a.shape != g_b.shape:
        raise ValueError("kernel inputs must have equal dimensions")
    sq = float(np.sum((g_a - g_b) ** 2))
    return float(signal_variance * math.exp(-sq / (2.0 * lengthscale**2)))


def multitask_kernel(x_a, task_a, x_b, task_b, state):
    """Oracle: the fitted state's deep RBF kernel value scaled by the task
    covariance entry, one pair of points at a time."""
    for task in (task_a, task_b):
        if task not in state.tasks:
            raise ValueError(f"unknown task {task!r}")
    ia = state.tasks.index(task_a)
    ib = state.tasks.index(task_b)
    base = kernel_rbf(
        _latent(state.mlp, np.asarray(x_a, dtype=float)),
        _latent(state.mlp, np.asarray(x_b, dtype=float)),
        math.exp(state.log_lengthscale),
        math.exp(state.log_signal_variance),
    )
    return float(base * state.task_cov[ia, ib])


class TestKernelRbf:
    def test_same_point_gives_signal_variance(self):
        g = np.array([0.3, -0.7])
        assert kernel_rbf(g, g, 1.0, 2.5) == 2.5

    def test_vanishes_at_distance(self):
        a = np.zeros(3)
        b = np.full(3, 100.0)
        assert kernel_rbf(a, b, 1.0, 1.0) < 1e-300

    def test_closed_form_point(self):
        a = np.array([0.0, 0.0])
        b = np.array([1.0, 1.0])  # squared distance 2
        assert kernel_rbf(a, b, 1.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_non_positive_lengthscale(self):
        with pytest.raises(ValueError, match="lengthscale"):
            kernel_rbf(np.zeros(2), np.zeros(2), 0.0, 1.0)


def small_state(seed=0, n_tasks=2, n=3):
    rng = np.random.default_rng(seed)
    data = {
        f"task{t}": (rng.standard_normal((5, n)), rng.standard_normal(5))
        for t in range(n_tasks)
    }
    return fit_gp(data, multi_task=n_tasks > 1, epochs=0, seed=seed, hidden=(4, 3))


class TestMultitaskKernel:
    def test_identity_task_matrix_decouples_tasks(self):
        state = small_state()
        x = np.zeros(3)
        assert multitask_kernel(x, "task0", x, "task1", state) == 0.0

    def test_same_task_unit_diagonal(self):
        state = small_state()
        a = np.array([0.1, 0.2, 0.3])
        b = np.array([-0.1, 0.5, 0.0])
        expected = kernel_rbf(
            _latent(state.mlp, a),
            _latent(state.mlp, b),
            math.exp(state.log_lengthscale),
            math.exp(state.log_signal_variance),
        )
        assert multitask_kernel(a, "task0", b, "task0", state) == pytest.approx(expected)

    def test_gram_is_psd(self):
        state = small_state(seed=4)
        # Make the task matrix non-trivial but still PSD by construction.
        rng = np.random.default_rng(1)
        state.task_root[:] = rng.standard_normal(state.task_root.shape)
        state.task_cov[:] = state.task_root @ state.task_root.T
        points = rng.standard_normal((8, 3))
        tasks = ["task0", "task1"] * 4
        gram = np.array(
            [
                [multitask_kernel(points[i], tasks[i], points[j], tasks[j], state) for j in range(8)]
                for i in range(8)
            ]
        )
        np.testing.assert_allclose(gram, gram.T, atol=1e-12)
        assert np.linalg.eigvalsh(gram).min() >= -1e-9

    def test_unknown_task(self):
        state = small_state()
        with pytest.raises(ValueError, match="unknown task"):
            multitask_kernel(np.zeros(3), "task0", np.zeros(3), "nope", state)


class TestFitGp:
    def test_noiseless_interpolation(self):
        x = np.linspace(-2, 2, 6).reshape(-1, 1)
        y = 0.3 * np.sin(1.5 * x[:, 0]) + 0.5
        state = fit_gp(
            {"t": (x, y)}, multi_task=False, epochs=0, seed=0, init_noise_variance=1e-8
        )
        for row, target in zip(x, y):
            mean, var = predict_gp(state, row, "t")
            assert abs(mean - target) < 1e-5
            assert var < 1e-6

    @pytest.mark.parametrize("instance", range(3))
    def test_gradients_match_finite_differences_at_init(self, instance):
        rng = np.random.default_rng(50 + instance)
        data = {
            "a": (rng.standard_normal((6, 3)), rng.standard_normal(6)),
            "b": (rng.standard_normal((7, 3)), rng.standard_normal(7)),
        }
        f, x0 = mll_function(data, multi_task=True, seed=instance, hidden=(5, 3))
        assert grad_check(f, x0) < 1e-4

    def test_mll_non_decreasing(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((15, 4))
        y = 0.3 * x[:, 0] - 0.2 * x[:, 1] + 0.05 * rng.standard_normal(15)
        state = fit_gp({"t": (x, y)}, multi_task=False, epochs=60, seed=1, hidden=(6, 4))
        trace = state.mll_trace
        assert all(b >= a for a, b in zip(trace, trace[1:]))
        assert trace[-1] >= trace[0]

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_gp({"t": (np.zeros((1, 2)), np.zeros(1))}, multi_task=False)

    def test_single_task_flag_enforced(self):
        rng = np.random.default_rng(0)
        data = {
            "a": (rng.standard_normal((3, 2)), rng.standard_normal(3)),
            "b": (rng.standard_normal((3, 2)), rng.standard_normal(3)),
        }
        with pytest.raises(ValueError, match="exactly one"):
            fit_gp(data, multi_task=False)


class TestPredictGp:
    def test_training_point_with_tiny_noise(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((7, 2)) * 2.0
        y = rng.uniform(0, 1, 7)
        state = fit_gp(
            {"t": (x, y)}, multi_task=False, epochs=0, seed=2, init_noise_variance=1e-8
        )
        mean, var = predict_gp(state, x[3], "t")
        assert mean == pytest.approx(y[3], abs=1e-5)
        assert var == pytest.approx(0.0, abs=1e-6)

    def test_far_query_reverts_to_prior(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 3))
        y = rng.uniform(0, 1, 6)
        state = fit_gp({"t": (x, y)}, multi_task=False, epochs=0, seed=3)
        mean, var = predict_gp(state, np.full(3, 1000.0), "t")
        assert mean == pytest.approx(float(y.mean()), abs=1e-12)
        assert var == pytest.approx(math.exp(state.log_signal_variance), abs=1e-12)

    def test_variance_never_exceeds_prior(self):
        state = small_state(seed=5, n_tasks=1)
        prior = math.exp(state.log_signal_variance) * state.task_cov[0, 0]
        rng = np.random.default_rng(10)
        for _ in range(20):
            _, var = predict_gp(state, rng.standard_normal(3) * 3, "task0")
            assert 0.0 <= var <= prior + 1e-12

    def test_mdgpr_identity_matches_independent_dgpr(self):
        rng = np.random.default_rng(7)
        d1 = (rng.standard_normal((6, 3)), rng.standard_normal(6))
        d2 = (rng.standard_normal((8, 3)), rng.standard_normal(8))
        multi = fit_gp({"a": d1, "b": d2}, multi_task=True, epochs=0, seed=5)
        singles = {
            "a": fit_gp({"a": d1}, multi_task=False, epochs=0, seed=5),
            "b": fit_gp({"b": d2}, multi_task=False, epochs=0, seed=5),
        }
        queries = rng.standard_normal((10, 3))
        for task in ("a", "b"):
            for q in queries:
                m_mean, m_var = predict_gp(multi, q, task)
                s_mean, s_var = predict_gp(singles[task], q, task)
                assert m_mean == pytest.approx(s_mean, abs=1e-6)
                assert m_var == pytest.approx(s_var, abs=1e-6)

    def test_unknown_task(self):
        state = small_state()
        with pytest.raises(ValueError, match="unknown task"):
            predict_gp(state, np.zeros(3), "nope")


class TestDeterminism:
    def test_same_seed_identical_state(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((8, 3))
        y = rng.uniform(0, 1, 8)
        a = fit_gp({"t": (x, y)}, multi_task=False, epochs=20, seed=42, hidden=(5, 3))
        b = fit_gp({"t": (x, y)}, multi_task=False, epochs=20, seed=42, hidden=(5, 3))
        assert a.mll_trace == b.mll_trace
        assert a.log_lengthscale == b.log_lengthscale
        for wa, wb in zip(a.mlp.weights, b.mlp.weights):
            assert wa.tobytes() == wb.tobytes()
        np.testing.assert_array_equal(a.alpha, b.alpha)


def reference_fit(data, multi_task, lr, epochs, seed, hidden):
    """The line search as it ran before likelihood-only scoring: every
    candidate pays for ``mll_function``'s value and gradient."""
    f, vec = mll_function(data, multi_task, seed=seed, hidden=hidden)
    ns = _build_problem(data, multi_task, hidden)[0].noise_slice()
    floor = math.log(1e-8)
    mll, grad = f(vec)
    evals, halvings, trace = 1, 0, [mll]
    for _ in range(epochs):
        step = lr
        accepted = False
        for _ in range(30):
            cand = vec + step * grad
            cand[ns] = np.maximum(cand[ns], floor)
            evals += 1
            try:
                cand_mll, cand_grad = f(cand)
            except np.linalg.LinAlgError:
                step *= 0.5
                halvings += 1
                continue
            if cand_mll >= mll:
                accepted = True
                break
            step *= 0.5
            halvings += 1
        if not accepted:
            return vec, tuple(trace), evals, halvings, True
        vec, mll, grad = cand, cand_mll, cand_grad
        trace.append(mll)
    return vec, tuple(trace), evals, halvings, False


def state_vector(state):
    parts = [a.ravel() for pair in zip(state.mlp.weights, state.mlp.biases) for a in pair]
    parts.append(np.array([state.log_lengthscale, state.log_signal_variance]))
    parts.append(state.log_noise_variance)
    if state.multi_task:
        parts.append(state.task_root.ravel())
    return np.concatenate(parts)


def random_tasks(seed, sizes, width):
    rng = np.random.default_rng(seed)
    return {
        f"t{i}": (rng.standard_normal((n, width)), rng.standard_normal(n))
        for i, n in enumerate(sizes)
    }


def assert_fit_matches_reference(data, lr, epochs, seed):
    """Fit both ways and require bitwise agreement; return the reference's
    (halvings, stopped_early)."""
    multi_task, hidden = len(data) > 1, (3, 2)
    vec, trace, evals, halvings, stopped = reference_fit(data, multi_task, lr, epochs, seed, hidden)
    state = fit_gp(data, multi_task=multi_task, lr=lr, epochs=epochs, seed=seed, hidden=hidden)
    assert state.mll_trace == trace
    assert state.mll_evals == evals
    assert state.stopped_early == stopped
    assert state_vector(state).tobytes() == vec.tobytes()
    ref = _likelihood(_build_problem(data, multi_task, hidden)[0], vec)
    assert state.chol.tobytes() == ref.chol.tobytes()
    assert state.alpha.tobytes() == ref.alpha.tobytes()
    return halvings > 0, stopped


class TestLineSearchMatchesReference:
    """fit_gp scores candidates by likelihood alone; it must accept exactly the
    steps the gradient-per-candidate loop accepted, bit for bit."""

    @pytest.mark.parametrize(
        "data_seed, sizes, lr, epochs, halves, stops_early",
        [
            (1, (9,), 0.01, 25, False, False),  # single-task, every first step accepted
            (2, (6, 9, 4), 0.01, 25, True, False),  # multi-task, ragged tasks
            (3, (8, 5), 0.5, 15, True, False),  # multi-task, large first steps
            (22, (5,), 0.01, 150, True, True),  # no improving step after 68 epochs
        ],
    )
    def test_bitwise_equal(self, data_seed, sizes, lr, epochs, halves, stops_early):
        data = random_tasks(data_seed, sizes, 2)
        assert assert_fit_matches_reference(data, lr, epochs, data_seed) == (halves, stops_early)

    def test_failed_factorizations_count_and_halve(self, monkeypatch):
        real = gp_module.cholesky
        initial = []

        def fails_on_a_third(a, jitter=0.0):
            # Keyed on the matrix bytes, so both fits fail on the same
            # candidates; the initial covariance (shared by both) always factors.
            key = a.tobytes()
            initial[:] = initial or [key]
            if key != initial[0] and zlib.crc32(key) % 3 == 0:
                raise np.linalg.LinAlgError("injected")
            return real(a, jitter)

        monkeypatch.setattr(gp_module, "cholesky", fails_on_a_third)
        data = random_tasks(4, (7, 5), 2)
        assert assert_fit_matches_reference(data, 0.01, 10, 4) == (True, False)


class TestLineSearchOverflow:
    """A candidate whose kernel overflows counts as a failed step and is
    halved, like a failed factorization; it does not end the fit."""

    @pytest.mark.parametrize("sizes", [(6,), (5, 4)])
    @pytest.mark.parametrize("data_seed", range(4))
    def test_large_steps_complete(self, data_seed, sizes):
        data = random_tasks(data_seed, sizes, 3)
        for lr in (1.0, 5.0, 20.0):
            state = fit_gp(
                data, multi_task=len(sizes) > 1, lr=lr, epochs=30, seed=data_seed, hidden=(5,)
            )
            trace = np.array(state.mll_trace)
            assert len(trace) > 1 and np.isfinite(trace).all()
            assert (np.diff(trace) >= 0).all()

    def test_other_value_errors_still_raise(self, monkeypatch):
        real = gp_module.cholesky
        calls = []

        def fails_after_init(a, jitter=0.0):
            calls.append(a.shape)
            if len(calls) > 1:
                raise ValueError("expected a square matrix")
            return real(a, jitter)

        monkeypatch.setattr(gp_module, "cholesky", fails_after_init)
        with pytest.raises(ValueError, match="square"):
            fit_gp(random_tasks(0, (6,), 3), multi_task=False, epochs=3, hidden=(5,))
        assert len(calls) == 2
