import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xferlens.explain import linear_shap, permutation_importance
from xferlens.sparse_linear import LinearModel, predict_linear


def lasso(w, b=0.0):
    return LinearModel(np.asarray(w, dtype=float)[:, None], np.array([b]), 0.0, (None,), True, 1, ())


class TestLinearShap:
    def test_background_point_gets_zero(self):
        model = lasso([1.0, -2.0, 0.5, 3.0], b=0.2)
        w, b = model.coefficients(None)
        bg = np.array([0.3, 0.1, -0.2, 0.7])
        assert (linear_shap(w, bg, bg) == 0.0).all()
        assert w @ bg + b == pytest.approx(predict_linear(model, bg))

    def test_single_active_weight(self):
        x = np.array([0.3, 5.0, -2.0, 1.0])
        phi = linear_shap(np.array([1.0, 0.0, 0.0, 0.0]), x, np.zeros(4))
        assert phi.shape == (1, 4)
        assert phi[0, 0] == pytest.approx(0.3)
        assert (phi[0, 1:] == 0.0).all()

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_local_accuracy_identity(self, seed):
        rng = np.random.default_rng(seed)
        model = lasso(rng.standard_normal(4), b=float(rng.standard_normal()))
        w, b = model.coefficients(None)
        x = rng.standard_normal(4)
        bg = rng.standard_normal(4)
        reconstruction = w @ bg + b + linear_shap(w, x, bg).sum()
        assert abs(reconstruction - predict_linear(model, x)) < 1e-12

    def test_group_lasso_task_column(self):
        w = np.array([[1.0, 0.0], [0.0, 2.0]])
        model = LinearModel(w, np.array([0.0, 0.5]), 0.0, ("a", "b"), True, 1, ())
        weights, intercept = model.coefficients("b")
        assert linear_shap(weights, np.ones(2), np.zeros(2)).tolist() == [[0.0, 2.0]]
        assert intercept == 0.5

    def test_dimension_mismatch(self):
        for rows, bg in ((np.zeros(3), np.zeros(4)), (np.zeros((2, 4)), np.zeros(3)),
                         (np.zeros((2, 5)), np.zeros(4))):
            with pytest.raises(ValueError, match="dimension"):
                linear_shap(np.array([1.0, 2.0, 3.0, 4.0]), rows, bg)


class TestMeanAbsShap:
    """The mean |attribution| per feature over a task's rows, as ``explain`` writes it."""

    def test_single_row(self):
        # A batch of rows attributes each row as that row alone does.
        w = np.array([2.0, -1.0, 0.0, 0.5])
        rows = np.random.default_rng(5).standard_normal((7, 4))
        bg = rows.mean(axis=0)
        singles = np.vstack([linear_shap(w, row, bg) for row in rows])
        assert np.array_equal(linear_shap(w, rows, bg), singles)

    def test_zero_weight_feature_is_zero(self):
        rows = np.random.default_rng(0).standard_normal((10, 4))
        values = np.abs(linear_shap(np.array([1.0, 0.0, 2.0, 0.0]), rows, np.zeros(4))).mean(axis=0)
        assert values[1] == 0.0 and values[3] == 0.0

    def test_group_zero_row_zero_in_every_task(self):
        w = np.array([[0.0, 0.0], [1.5, -0.5], [0.0, 0.0], [2.0, 1.0]])
        model = LinearModel(w, np.zeros(2), 0.1, ("a", "b"), True, 1, ())
        rows = np.random.default_rng(1).standard_normal((6, 4))
        for task in ("a", "b"):
            values = np.abs(linear_shap(model.coefficients(task)[0], rows, np.zeros(4))).mean(axis=0)
            assert values[0] == 0.0 and values[2] == 0.0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_abs_of_product_is_product_of_abs_bitwise(self, seed):
        # |fl(w d)| = fl(|w| |d|) under round-to-nearest, at any magnitude:
        # the mean |attribution| has the bits of the product of the absolutes.
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-300, 300, size=(3, 4))
        w, bg = rng.standard_normal(4) * scale[0], rng.standard_normal(4) * scale[1]
        rows = rng.standard_normal((5, 4)) * scale[2]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            expected = np.abs(rows - bg) * np.abs(w)
            got = np.abs(linear_shap(w, rows, bg))
        assert got.tobytes() == expected.tobytes()


class TestPermutationImportance:
    def test_zero_weight_feature_near_zero(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, 3))
        w = np.array([1.0, 0.0, -0.5])
        y = x @ w
        model = lasso(w)
        predict = lambda rows: np.array([predict_linear(model, r) for r in rows])
        imp = permutation_importance(predict, x, y, repeats=3, seed=0)
        assert abs(imp[1]) < 1e-9
        assert imp[0] > 0 and imp[2] > 0

    def test_planted_feature_is_maximal(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 4))
        y = 2.0 * x[:, 2]
        model = lasso([0.0, 0.0, 2.0, 0.0])
        predict = lambda rows: np.array([predict_linear(model, r) for r in rows])
        imp = permutation_importance(predict, x, y, repeats=5, seed=1)
        assert np.argmax(imp) == 2
        assert imp[2] > 0

    def test_repeats_mean_identity(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((12, 3))
        y = rng.standard_normal(12)
        model = lasso(rng.standard_normal(3))
        predict = lambda rows: np.array([predict_linear(model, r) for r in rows])
        ten = permutation_importance(predict, x, y, repeats=10, seed=7)
        singles = [
            permutation_importance(predict, x, y, repeats=1, seed=7 + r) for r in range(10)
        ]
        np.testing.assert_allclose(ten, np.mean(singles, axis=0), atol=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="2 rows"):
            permutation_importance(lambda r: np.zeros(len(r)), np.zeros((1, 2)), np.zeros(1))
