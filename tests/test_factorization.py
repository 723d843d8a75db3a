from dataclasses import replace

import numpy as np
import pytest

from xferlens.factorization import (
    fit_cmf,
    fold_in_pair,
    predict_cmf,
    predict_cold_start,
)


def pair_names(n):
    return [("en", f"l{chr(ord('a') + i)}{chr(ord('a') + i)}"[-2:]) for i in range(n)]


def pairs_of(n):
    # Simple distinct pair keys; language-code validity is not exercised here.
    return [("en", f"t{i}") for i in range(n)]


def dense_observations(y):
    obs = []
    n_tasks, n_pairs = y.shape
    pairs = pairs_of(n_pairs)
    for t in range(n_tasks):
        for p in range(n_pairs):
            obs.append((f"task{t}", pairs[p], float(y[t, p])))
    return obs, pairs


class TestFitCmf:
    def test_rank_one_reconstruction(self):
        rng = np.random.default_rng(0)
        t0 = rng.uniform(0.5, 1.5, size=(3, 1))
        l0 = rng.uniform(0.5, 1.5, size=(6, 1))
        y = t0 @ l0.T
        obs, pairs = dense_observations(y)
        x = np.zeros((6, 2))
        model = fit_cmf(obs, pairs, x, d=1, reg=1e-9, alpha=0.0, sweeps=60, seed=0)
        errs = [
            predict_cmf(model, f"task{t}", pairs[p]) - y[t, p]
            for t in range(3)
            for p in range(6)
        ]
        rmse = float(np.sqrt(np.mean(np.square(errs))))
        assert rmse < 1e-3

    def test_zero_matrix_fixed_point(self):
        y = np.zeros((2, 4))
        obs, pairs = dense_observations(y)
        model = fit_cmf(obs, pairs, np.zeros((4, 3)), d=1, reg=0.01, alpha=0.0, sweeps=10, seed=1)
        for t in range(2):
            for p in range(4):
                assert abs(predict_cmf(model, f"task{t}", pairs[p])) < 1e-6

    def test_heldout_rank_two_completion(self):
        rng = np.random.default_rng(2)
        t0 = rng.uniform(-1, 1, size=(5, 2))
        l0 = rng.uniform(-1, 1, size=(8, 2))
        y = t0 @ l0.T
        pairs = pairs_of(8)
        cells = [(t, p) for t in range(5) for p in range(8)]
        rng.shuffle(cells)
        held_out = cells[:8]
        observed = cells[8:]
        obs = [(f"task{t}", pairs[p], float(y[t, p])) for t, p in observed]
        model = fit_cmf(obs, pairs, np.zeros((8, 2)), d=2, reg=1e-6, alpha=0.0, sweeps=200, seed=3)
        in_sample = np.sqrt(
            np.mean([(predict_cmf(model, f"task{t}", pairs[p]) - y[t, p]) ** 2 for t, p in observed])
        )
        held = np.sqrt(
            np.mean([(predict_cmf(model, f"task{t}", pairs[p]) - y[t, p]) ** 2 for t, p in held_out])
        )
        mean_pred = np.mean([y[t, p] for t, p in observed])
        baseline = np.sqrt(np.mean([(mean_pred - y[t, p]) ** 2 for t, p in held_out]))
        assert held < max(5 * in_sample, 1e-6)
        assert held < baseline

    def test_objective_non_increasing_every_block_update(self):
        rng = np.random.default_rng(4)
        y = rng.uniform(0, 1, size=(3, 5))
        obs, pairs = dense_observations(y)
        x = rng.uniform(0, 1, size=(5, 4))
        model = fit_cmf(obs, pairs, x, d=2, reg=0.1, alpha=0.5, sweeps=30, seed=5)
        trace = model.objective_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_nested_d_never_worse(self):
        rng = np.random.default_rng(6)
        y = rng.uniform(0, 1, size=(4, 6))
        obs, pairs = dense_observations(y)
        x = np.zeros((6, 2))
        finals = []
        for d in (1, 2, 3):
            model = fit_cmf(obs, pairs, x, d=d, reg=1e-6, alpha=0.0, sweeps=150, seed=7, restarts=3)
            finals.append(model.objective_trace[-1])
        assert finals[1] <= finals[0] + 1e-9
        assert finals[2] <= finals[1] + 1e-9

    def test_empty_observations_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_cmf([], [], np.zeros((0, 2)), d=1, reg=0.1, alpha=0.5)

    def test_excessive_rank_rejected(self):
        y = np.ones((2, 3))
        obs, pairs = dense_observations(y)
        with pytest.raises(ValueError, match="exceeds"):
            fit_cmf(obs, pairs, np.zeros((3, 2)), d=3, reg=0.1, alpha=0.0)

    def test_unknown_pair_in_observations_rejected(self):
        with pytest.raises(ValueError, match="unknown pair"):
            fit_cmf(
                [("t", ("en", "zz"), 0.5)], [("en", "aa")], np.zeros((1, 2)), d=1, reg=0.1, alpha=0.0
            )


    def test_duplicate_observation_rejected(self):
        # A dense Y has one cell per (task, pair); a second copy would be
        # weighted twice if it were fitted.
        obs, pairs = dense_observations(np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"duplicate observation for \(task, pair\)"):
            fit_cmf(obs + obs[1:2], pairs, np.zeros((3, 2)), d=1, reg=0.1, alpha=0.0)


class TestPredictCmf:
    def make_model(self):
        y = np.array([[1.0, 0.5], [0.25, 0.75]])
        obs, pairs = dense_observations(y)
        return fit_cmf(obs, pairs, np.zeros((2, 2)), d=2, reg=0.01, alpha=0.0, sweeps=20, seed=0), pairs

    def test_unit_factors(self):
        model, pairs = self.make_model()
        model.task_factors[0] = np.array([1.0, 0.0])
        model.pair_factors[0] = np.array([1.0, 0.0])
        assert predict_cmf(model, "task0", pairs[0]) == 1.0

    def test_zero_pair_factor(self):
        model, pairs = self.make_model()
        model.pair_factors[1] = np.zeros(2)
        assert predict_cmf(model, "task0", pairs[1]) == 0.0

    def test_matches_naive_dot(self):
        model, pairs = self.make_model()
        for t in ("task0", "task1"):
            for p in pairs:
                ti, pi = model.task_index[t], model.pair_index[p]
                expected = sum(
                    model.task_factors[ti, k] * model.pair_factors[pi, k] for k in range(2)
                )
                assert predict_cmf(model, t, p) == pytest.approx(expected, abs=1e-12)

    def test_unknown_task_and_pair(self):
        model, pairs = self.make_model()
        with pytest.raises(ValueError, match="unknown task"):
            predict_cmf(model, "nope", pairs[0])
        with pytest.raises(ValueError, match="fold_in_pair"):
            predict_cmf(model, "task0", ("en", "zz"))


class TestFoldIn:
    def fitted_with_side_info(self, seed=0):
        rng = np.random.default_rng(seed)
        t0 = rng.uniform(0.2, 1.0, size=(3, 2))
        l0 = rng.uniform(0.2, 1.0, size=(7, 2))
        f0 = rng.uniform(0.2, 1.0, size=(5, 2))
        y = t0 @ l0.T
        x = l0 @ f0.T  # noise-free side information
        obs, pairs = dense_observations(y)
        model = fit_cmf(obs, pairs, x, d=2, reg=1e-7, alpha=0.5, sweeps=300, seed=seed)
        return model, x, pairs

    def test_existing_row_recovers_factor(self):
        model, x, pairs = self.fitted_with_side_info()
        for pi in range(3):
            folded = fold_in_pair(model, x[pi])
            np.testing.assert_allclose(folded, model.pair_factors[pi], atol=1e-3)

    def test_zero_features_zero_factor(self):
        model, _, _ = self.fitted_with_side_info()
        np.testing.assert_allclose(fold_in_pair(model, np.zeros(5)), np.zeros(2), atol=1e-12)

    def test_large_reg_shrinks_to_zero(self):
        model, x, _ = self.fitted_with_side_info()
        model = replace(model, reg=1e9)
        np.testing.assert_allclose(fold_in_pair(model, x[0]), np.zeros(2), atol=1e-6)

    def test_system_built_once_and_rebuilt_on_change(self):
        model, x, _ = self.fitted_with_side_info()

        def direct(m, row):
            f = m.feature_factors
            a = m.alpha * (f.T @ f) + m.reg * np.eye(m.d_latent)
            return np.linalg.solve(a, m.alpha * (f.T @ row))

        for row in x:
            assert fold_in_pair(model, row).tobytes() == direct(model, row).tobytes()
        system = model.fold_in_system
        fold_in_pair(model, x[0])
        assert model.fold_in_system is system
        np.testing.assert_allclose(fold_in_pair(replace(model, reg=1e9), x[0]), np.zeros(2), atol=1e-6)
        assert fold_in_pair(model, x[1]).tobytes() == direct(model, x[1]).tobytes()
        moved = replace(model, feature_factors=model.feature_factors + np.eye(5, 2))
        assert fold_in_pair(moved, x[1]).tobytes() == direct(moved, x[1]).tobytes()

    def test_alpha_zero_is_degenerate(self):
        y = np.ones((2, 3))
        obs, pairs = dense_observations(y)
        model = fit_cmf(obs, pairs, np.zeros((3, 2)), d=1, reg=0.1, alpha=0.0, sweeps=5, seed=0)
        with pytest.raises(ValueError, match="degenerate"):
            fold_in_pair(model, np.zeros(2))

    def test_cold_start_prediction_consistency(self):
        model, x, pairs = self.fitted_with_side_info()
        direct = predict_cmf(model, "task1", pairs[2])
        cold = predict_cold_start(model, "task1", x[2])
        assert cold == pytest.approx(direct, abs=5e-3)


class TestGaugeInvariance:
    def test_rotation_leaves_predictions_unchanged(self):
        rng = np.random.default_rng(9)
        y = rng.uniform(0, 1, size=(3, 5))
        obs, pairs = dense_observations(y)
        x = rng.uniform(0, 1, size=(5, 3))
        model = fit_cmf(obs, pairs, x, d=2, reg=0.05, alpha=0.5, sweeps=40, seed=1)
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        before = [(t, p, predict_cmf(model, t, p)) for t in model.task_index for p in pairs]
        cold_before = predict_cold_start(model, "task0", x[0])
        model = replace(model, task_factors=model.task_factors @ rot,
                        pair_factors=model.pair_factors @ rot,
                        feature_factors=model.feature_factors @ rot)
        for t, p, value in before:
            assert predict_cmf(model, t, p) == pytest.approx(value, abs=1e-9)
        assert predict_cold_start(model, "task0", x[0]) == pytest.approx(cold_before, abs=1e-9)
