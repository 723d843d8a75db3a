import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xferlens.explain import (
    linear_shap,
    mean_abs_shap,
    permutation_importance,
)
from xferlens.sparse_linear import LinearModel, predict_linear

FEATS = tuple(f"f{i}" for i in range(4))


def lasso(w, b=0.0):
    return LinearModel(np.asarray(w, dtype=float)[:, None], np.array([b]), 0.0, (None,), True, 1, ())


class TestLinearShap:
    def test_background_point_gets_zero(self):
        model = lasso([1.0, -2.0, 0.5, 3.0], b=0.2)
        bg = np.array([0.3, 0.1, -0.2, 0.7])
        att = linear_shap(model, bg, bg, feature_names=FEATS)
        assert all(v == 0.0 for v in att.per_feature.values())
        assert att.base_value == pytest.approx(predict_linear(model, bg))

    def test_single_active_weight(self):
        model = lasso([1.0, 0.0, 0.0, 0.0])
        bg = np.zeros(4)
        x = np.array([0.3, 5.0, -2.0, 1.0])
        att = linear_shap(model, x, bg, feature_names=FEATS)
        assert att.per_feature["f0"] == pytest.approx(0.3)
        assert all(att.per_feature[f] == 0.0 for f in FEATS[1:])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_local_accuracy_identity(self, seed):
        rng = np.random.default_rng(seed)
        model = lasso(rng.standard_normal(4), b=float(rng.standard_normal()))
        x = rng.standard_normal(4)
        bg = rng.standard_normal(4)
        att = linear_shap(model, x, bg, feature_names=FEATS)
        reconstruction = att.base_value + sum(att.per_feature.values())
        assert abs(reconstruction - predict_linear(model, x)) < 1e-12

    def test_group_lasso_task_column(self):
        w = np.array([[1.0, 0.0], [0.0, 2.0]])
        model = LinearModel(w, np.array([0.0, 0.5]), 0.0, ("a", "b"), True, 1, ())
        x = np.array([1.0, 1.0])
        bg = np.zeros(2)
        att = linear_shap(model, x, bg, task="b", feature_names=("f0", "f1"))
        assert att.per_feature == {"f0": 0.0, "f1": 2.0}
        assert att.base_value == 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            linear_shap(lasso([1.0, 2.0, 3.0, 4.0]), np.zeros(3), np.zeros(4), feature_names=FEATS)


class TestMeanAbsShap:
    def test_single_row(self):
        model = lasso([2.0, -1.0, 0.0, 0.5])
        bg = np.zeros(4)
        row = np.array([0.5, 1.0, 3.0, -2.0])
        values = mean_abs_shap(model.coefficients(None)[0], row[None, :], bg, feature_names=FEATS)
        att = linear_shap(model, row, bg, feature_names=FEATS)
        for f in FEATS:
            assert values[f] == pytest.approx(abs(att.per_feature[f]))

    def test_zero_weight_feature_is_zero(self):
        model = lasso([1.0, 0.0, 2.0, 0.0])
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((10, 4))
        values = mean_abs_shap(model.coefficients(None)[0], rows, np.zeros(4), feature_names=FEATS)
        assert values["f1"] == 0.0 and values["f3"] == 0.0

    def test_group_zero_row_zero_in_every_task(self):
        w = np.array([[0.0, 0.0], [1.5, -0.5], [0.0, 0.0], [2.0, 1.0]])
        model = LinearModel(w, np.zeros(2), 0.1, ("a", "b"), True, 1, ())
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((6, 4))
        for task in ("a", "b"):
            values = mean_abs_shap(model.coefficients(task)[0], rows, np.zeros(4), feature_names=FEATS)
            assert values["f0"] == 0.0 and values["f2"] == 0.0


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
