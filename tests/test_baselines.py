import collections
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import simple_dataset
from xferlens import baselines
from xferlens.baselines import (
    Leaf,
    TreeEnsemble,
    TreeNode,
    fit_gbt,
    predict_aat,
    predict_awt,
    predict_gbt,
)
from xferlens.data import PerformanceRecord

# ---------------------------------------------------------------------------
# Structural oracle: evaluate a tree by enumerating all root-to-leaf paths
# and checking which path's conditions the input satisfies.

def enumerate_paths(node, conditions=()):
    if isinstance(node, Leaf):
        return [(conditions, node.value)]
    paths = []
    paths += enumerate_paths(node.left, conditions + ((node.feature, node.threshold, True),))
    paths += enumerate_paths(node.right, conditions + ((node.feature, node.threshold, False),))
    return paths


def oracle_predict(ensemble, x):
    total = ensemble.base_score
    for tree in ensemble.trees:
        matched = []
        for conditions, value in enumerate_paths(tree):
            if all((x[f] <= thr) == is_left for f, thr, is_left in conditions):
                matched.append(value)
        assert len(matched) == 1, "paths must partition the input space"
        total += ensemble.learning_rate * matched[0]
    return total


# ---------------------------------------------------------------------------
# Bitwise oracle: the original fit, which re-sorted every column at every node,
# searched one feature at a time and walked every training row through each
# new tree to update the residual.

def reference_best_split(x, y):
    m, n = x.shape
    if m < 2:
        return None
    sse_parent = float(np.sum((y - y.mean()) ** 2))
    best = None
    for j in range(n):
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        ys = y[order]
        cut = np.nonzero(xs[1:] > xs[:-1])[0] + 1  # left sizes of valid splits
        if cut.size == 0:
            continue
        csum = np.cumsum(ys)
        csq = np.cumsum(ys**2)
        total_sum, total_sq = csum[-1], csq[-1]
        left_sum = csum[cut - 1]
        left_sq = csq[cut - 1]
        k = cut.astype(float)
        sse_left = left_sq - left_sum**2 / k
        sse_right = (total_sq - left_sq) - (total_sum - left_sum) ** 2 / (m - k)
        gains = sse_parent - sse_left - sse_right
        i = int(np.argmax(gains))  # first max: lowest threshold wins ties
        if gains[i] > 1e-12 and (best is None or gains[i] > best[0]):
            threshold = (xs[cut[i] - 1] + xs[cut[i]]) / 2.0
            best = (float(gains[i]), j, float(threshold))
    return best


def reference_grow(x, y, depth, max_depth):
    if depth >= max_depth:
        return Leaf(float(y.mean()))
    split = reference_best_split(x, y)
    if split is None:
        return Leaf(float(y.mean()))
    _, j, threshold = split
    mask = x[:, j] <= threshold
    return TreeNode(
        feature=j,
        threshold=threshold,
        left=reference_grow(x[mask], y[mask], depth + 1, max_depth),
        right=reference_grow(x[~mask], y[~mask], depth + 1, max_depth),
    )


def reference_eval(node, row):
    while isinstance(node, TreeNode):
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.value


def reference_fit(x, y, n_estimators, max_depth, learning_rate):
    base = float(y.mean())
    residual = y - base
    trees = []
    for _ in range(n_estimators):
        tree = reference_grow(x, residual, 0, max_depth)
        pred = np.array([reference_eval(tree, row) for row in x])
        residual = residual - learning_rate * pred
        trees.append(tree)
    return TreeEnsemble(trees, learning_rate, base, x.shape[1])


def bits(value):
    return struct.pack("<d", value)


def assert_same_tree(got, want):
    assert type(got) is type(want)
    if isinstance(want, Leaf):
        assert bits(got.value) == bits(want.value)
        return
    assert got.feature == want.feature
    assert bits(got.threshold) == bits(want.threshold)
    assert_same_tree(got.left, want.left)
    assert_same_tree(got.right, want.right)


def assert_same_ensemble(got, want):
    assert bits(got.base_score) == bits(want.base_score)
    assert len(got.trees) == len(want.trees)
    for g, w in zip(got.trees, want.trees):
        assert_same_tree(g, w)


@st.composite
def gbt_problems(draw):
    """(x, y, max_depth, n_estimators) with ties, constant columns and duplicate rows."""
    m = draw(st.integers(2, 45))
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((m, n))
    decimals = draw(st.sampled_from([None, 1, 0]))  # rounded columns tie
    if decimals is not None:
        x = np.round(x, decimals)
    constant = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    x[:, np.array(constant)] = 0.5
    y = rng.standard_normal(m)
    if draw(st.booleans()):
        y = np.round(y, 1)
    if draw(st.booleans()):  # the second half repeats the first half's rows
        x[m - m // 2:] = x[: m // 2]
    return x, y, draw(st.sampled_from([0, 1, 10])), draw(st.sampled_from([0, 1, 20]))


# ---------------------------------------------------------------------------

class TestAwt:
    def test_hand_example(self):
        ds = simple_dataset()  # taskA: de 0.8, fr 0.6, hi 0.4
        assert predict_awt(ds, "taskA", "en", "de") == pytest.approx(0.5)

    def test_two_targets(self):
        records = (
            PerformanceRecord("m", "t", "en", "aa", 0.2),
            PerformanceRecord("m", "t", "en", "ab", 0.9),
        )
        ds = simple_dataset().restrict(records)
        assert predict_awt(ds, "t", "en", "aa") == pytest.approx(0.9)

    def test_true_holdout_uses_all_targets(self):
        ds = simple_dataset()
        expected = np.mean([0.8, 0.6, 0.4])
        assert predict_awt(ds, "taskA", "en", "sw") == pytest.approx(expected)

    def test_no_other_targets_errors(self):
        ds = simple_dataset().restrict([PerformanceRecord("m", "t", "en", "de", 0.5)])
        with pytest.raises(ValueError, match="no other"):
            predict_awt(ds, "t", "en", "de")

    def test_independent_of_own_score(self):
        ds = simple_dataset()
        base = predict_awt(ds, "taskA", "en", "de")
        changed = [
            PerformanceRecord(r.model, r.task, r.pivot, r.target, 0.99)
            if (r.task, r.target) == ("taskA", "de")
            else r
            for r in ds.records
        ]
        assert predict_awt(ds.restrict(changed), "taskA", "en", "de") == base

    def test_permutation_invariance(self):
        ds = simple_dataset()
        shuffled = ds.restrict(tuple(reversed(ds.records)))
        assert predict_awt(shuffled, "taskA", "en", "de") == predict_awt(ds, "taskA", "en", "de")


class TestAat:
    def test_hand_example(self):
        records = (
            PerformanceRecord("m", "A", "en", "de", 0.1),
            PerformanceRecord("m", "B", "en", "de", 0.7),
            PerformanceRecord("m", "C", "en", "de", 0.9),
        )
        ds = simple_dataset().restrict(records)
        assert predict_aat(ds, "A", "en", "de") == pytest.approx(0.8)

    def test_single_helper_verbatim(self):
        ds = simple_dataset()  # taskB has de 0.7
        assert predict_aat(ds, "taskA", "en", "de") == 0.7

    def test_absent_from_helpers_errors(self):
        ds = simple_dataset()
        with pytest.raises(ValueError, match="unseen"):
            predict_aat(ds, "taskB", "en", "sw")  # sw only exists in taskB

    def test_permutation_invariance(self):
        records = (
            PerformanceRecord("m", "A", "en", "de", 0.1),
            PerformanceRecord("m", "B", "en", "de", 0.7),
            PerformanceRecord("m", "C", "en", "de", 0.9),
        )
        ds = simple_dataset().restrict(records)
        shuffled = ds.restrict(tuple(reversed(records)))
        assert predict_aat(ds, "A", "en", "de") == predict_aat(shuffled, "A", "en", "de")


class TestGbt:
    def test_constant_targets(self):
        x = np.arange(8.0).reshape(-1, 1)
        y = np.full(8, 0.4)
        model = fit_gbt(x, y, n_estimators=5, max_depth=3, learning_rate=0.5)
        assert model.base_score == pytest.approx(0.4)
        assert all(isinstance(t, Leaf) for t in model.trees)
        assert predict_gbt(model, np.array([3.0])) == pytest.approx(0.4)

    def test_single_stump_step_function(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = fit_gbt(x, y, n_estimators=1, max_depth=1, learning_rate=1.0)
        root = model.trees[0]
        assert isinstance(root, TreeNode)
        assert root.threshold == pytest.approx(2.5)
        preds = [predict_gbt(model, row) for row in x]
        np.testing.assert_allclose(preds, y, atol=1e-12)

    def test_training_mse_non_increasing(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=(20, 3))
        y = rng.uniform(0, 1, size=20)
        model = fit_gbt(x, y, n_estimators=50, max_depth=2, learning_rate=0.1)
        mses = []
        for k in range(len(model.trees) + 1):
            partial = TreeEnsemble(model.trees[:k], model.learning_rate, model.base_score, 3)
            preds = np.array([predict_gbt(partial, row) for row in x])
            mses.append(float(np.mean((preds - y) ** 2)))
        assert all(b <= a + 1e-12 for a, b in zip(mses, mses[1:]))

    def test_empty_ensemble_returns_base(self):
        model = TreeEnsemble([], 0.1, 0.37, 2)
        assert predict_gbt(model, np.zeros(2)) == 0.37

    def test_matches_path_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        model = fit_gbt(x, y, n_estimators=10, max_depth=3, learning_rate=0.3)
        queries = rng.standard_normal((20, 4))
        for q in queries:
            assert predict_gbt(model, q) == pytest.approx(oracle_predict(model, q), abs=1e-12)

    def test_predict_bits_match_a_walk_on_numpy_scalars(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((40, 3))
        model = fit_gbt(x, rng.standard_normal(40), n_estimators=20, max_depth=4, learning_rate=0.1)
        root = model.trees[0]
        queries = list(rng.standard_normal((20, 3))) + [
            np.full(3, root.threshold), np.array([np.nan, 0.0, np.inf]), np.array([-np.inf, np.nan, 1.0]),
        ]
        for q in queries:
            total = model.base_score
            for node in model.trees:
                while isinstance(node, TreeNode):
                    node = node.left if q[node.feature] <= node.threshold else node.right
                total += model.learning_rate * node.value
            assert np.float64(predict_gbt(model, q)).tobytes() == np.float64(total).tobytes()

    def test_monotone_feature_transform_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0.1, 2.0, size=(15, 2))
        y = rng.uniform(0, 1, size=15)
        base = fit_gbt(x, y, n_estimators=5, max_depth=3, learning_rate=0.5)
        x2 = x.copy()
        x2[:, 0] = np.exp(x2[:, 0])  # strictly monotone transform of feature 0
        other = fit_gbt(x2, y, n_estimators=5, max_depth=3, learning_rate=0.5)
        for row, row2 in zip(x, x2):
            assert predict_gbt(base, row) == pytest.approx(predict_gbt(other, row2), abs=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_gbt(np.zeros((4, 0)), np.zeros(4))
        with pytest.raises(ValueError):
            fit_gbt(np.zeros((1, 2)), np.zeros(1))

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        model = fit_gbt(x, y, n_estimators=3, max_depth=2, learning_rate=1.0)

        def depth(node):
            if isinstance(node, Leaf):
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert all(depth(t) <= 2 for t in model.trees)

    def test_dimension_mismatch_on_predict(self):
        model = fit_gbt(np.zeros((3, 2)) + np.arange(3)[:, None], np.arange(3.0))
        with pytest.raises(ValueError):
            predict_gbt(model, np.zeros(5))

    @given(gbt_problems())
    @example(  # equal gains on two features at different cuts: feature 0 wins
        (np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0, 0, 1]), 1, 1)
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_fit_bitwise(self, problem):
        x, y, max_depth, n_estimators = problem
        got = fit_gbt(x, y, n_estimators=n_estimators, max_depth=max_depth, learning_rate=0.1)
        want = reference_fit(x, y, n_estimators, max_depth, 0.1)
        assert_same_ensemble(got, want)

    def test_huge_neighbouring_values_split_between_them(self):
        # (a + b) / 2 overflows to inf here: x <= inf sent every row left and
        # the right leaf became the mean of no residuals.
        x = np.array([[1e308], [1.7e308], [-1e308], [0.0]])
        y = np.array([0.1, 0.9, 0.2, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_gbt(x, y, n_estimators=3, max_depth=2, learning_rate=0.5)
        for conditions, value in (p for tree in model.trees for p in enumerate_paths(tree)):
            assert np.isfinite(value) and all(np.isfinite(thr) for _, thr, _ in conditions)
        root = model.trees[0]
        assert isinstance(root, TreeNode) and 1e308 < root.threshold < 1.7e308

    def test_adjacent_floats_split_at_the_lower_one(self):
        # a / 2 + b / 2 rounds up to b here: x <= b sent every row left and
        # growing the empty right child failed.
        a = 0.3333333333333333
        b = np.nextafter(a, 1.0)
        assert a / 2.0 + b / 2.0 == b
        model = fit_gbt(np.array([[0.0], [a], [b]]), np.array([0.0, 0.0, 1.0]))
        root = model.trees[0]
        assert isinstance(root, TreeNode) and root.threshold == a
        assert predict_gbt(model, np.array([a])) < predict_gbt(model, np.array([b]))

    def test_overflowing_feature_skipped_like_reference(self):
        # The squared residuals summed in feature 1's order overflow, so its
        # gains hold NaN; the reference skips such a feature and splits on
        # feature 0, whose order keeps the sums finite.
        x = np.array([[3.0, 0.0], [2.0, 1.0], [0.0, 2.0], [1.0, 3.0]])
        y = np.array([9.989595361011237e145, 9.989595361011117e145,
                      9.480751908109121e153, -9.480751908109231e153])
        with np.errstate(over="ignore", invalid="ignore"):
            got = fit_gbt(x, y, n_estimators=1, max_depth=1, learning_rate=1.0)
            want = reference_fit(x, y, 1, 1, 1.0)
        assert isinstance(want.trees[0], TreeNode) and want.trees[0].feature == 0
        assert_same_ensemble(got, want)

    @pytest.mark.parametrize("name, value", [
        ("n_estimators", -3), ("n_estimators", 2.5), ("n_estimators", True), ("max_depth", -1),
        ("max_depth", 1.0), ("learning_rate", float("nan")), ("learning_rate", -1.0),
        ("learning_rate", 0.0), ("learning_rate", float("inf")),
    ])
    def test_rejects_bad_hyperparameters(self, name, value):
        x = np.arange(8.0).reshape(4, 2)
        with pytest.raises(ValueError, match=name):
            fit_gbt(x, np.arange(4.0), **{name: value})

    def test_zero_rounds_and_depth_stay_valid(self):
        x = np.arange(8.0).reshape(4, 2)
        assert fit_gbt(x, np.arange(4.0), n_estimators=0).trees == []
        model = fit_gbt(x, np.arange(4.0), n_estimators=np.int64(2), max_depth=0, learning_rate=1)
        assert [type(t) for t in model.trees] == [Leaf, Leaf]

    def test_negative_zero_residual_leaf_matches_reference(self):
        # The mean is 0.0, so the last row's residual is -0.0; the mean of a
        # one-row leaf holding it is 0.0, since numpy's sum starts from 0.0.
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.1, -0.1, -0.0])
        got = fit_gbt(x, y, n_estimators=3, max_depth=10, learning_rate=0.1)
        assert_same_ensemble(got, reference_fit(x, y, 3, 10, 0.1))


def benchmark_shaped(m, seed):
    """An m x 9 problem like a fold of the benchmark's table, with two rows repeated."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(m, 9))
    x[-2:] = x[:2]
    return x, rng.uniform(0.0, 1.0, size=m)


def searched_row_sets(model, x, max_depth):
    """The distinct row sets a fit searches, each named by its path from the root.

    Every split node is searched, and so is every leaf above ``max_depth``
    that holds two or more training rows.
    """
    searched = set()
    for tree in model.trees:
        leaf_rows = collections.Counter()
        for row in x:
            node, path = tree, ()
            while isinstance(node, TreeNode):
                searched.add(path)
                left = row[node.feature] <= node.threshold
                node, path = (node.left if left else node.right), path + ((node.feature, node.threshold, left),)
            leaf_rows[path] += 1
        searched.update(p for p, n in leaf_rows.items() if n >= 2 and len(p) < max_depth)
    return searched


class TestGbtRowSetReuse:
    @pytest.mark.parametrize("m", [7, 20])
    def test_matches_reference_fit_at_benchmark_shape(self, m):
        x, y = benchmark_shaped(m, seed=m)
        got = fit_gbt(x, y, n_estimators=100, max_depth=10, learning_rate=0.1)
        assert_same_ensemble(got, reference_fit(x, y, 100, 10, 0.1))

    def test_back_to_back_fits_equal_fresh_fits(self):
        x1, y1 = benchmark_shaped(7, seed=1)
        x2, y2 = benchmark_shaped(7, seed=2)
        for x, y in ((x1, y1), (x2, y2), (x1, y2), (x1, y1)):
            got = fit_gbt(x, y, n_estimators=30, max_depth=10, learning_rate=0.1)
            assert_same_ensemble(got, reference_fit(x, y, 30, 10, 0.1))

    @pytest.mark.parametrize("n_estimators", [5, 100])
    def test_each_row_set_is_built_once_per_fit(self, monkeypatch, n_estimators):
        builds = []
        real = baselines._RowSet.build
        monkeypatch.setattr(baselines._RowSet, "build", lambda node, x: builds.append(1) or real(node, x))
        x, y = benchmark_shaped(7, seed=3)
        model = fit_gbt(x, y, n_estimators=n_estimators, max_depth=10, learning_rate=0.1)
        distinct = searched_row_sets(model, x, 10)
        assert len(builds) == len(distinct)
        if n_estimators == 100:  # later rounds split the row sets of earlier ones again
            assert len(builds) < n_estimators


class TestGbtTwoRowSplit:
    """Two-row row sets pick their split without the matrix search, with its bits."""

    @staticmethod
    def assert_matches_reference(x, y, n_estimators=1, max_depth=1, learning_rate=1.0):
        x, y = np.array(x), np.array(y)
        got = fit_gbt(x, y, n_estimators=n_estimators, max_depth=max_depth,
                      learning_rate=learning_rate)
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_fit(x, y, n_estimators, max_depth, learning_rate)
        assert_same_ensemble(got, want)
        return got.trees[0]

    def test_duplicate_rows_make_a_leaf(self):
        tree = self.assert_matches_reference([[0.5, 2.0], [0.5, 2.0]], [0.3, -0.1])
        assert isinstance(tree, Leaf)

    @pytest.mark.parametrize("x, feature", [
        ([[1.0, 3.0, 0.0], [1.0, 2.0, 0.0]], 1),
        ([[1.0, 1.0, 0.0], [1.0, 1.0, 4.0]], 2),
    ])
    def test_ties_on_some_features_only(self, x, feature):
        tree = self.assert_matches_reference(x, [0.2, 0.9])
        assert isinstance(tree, TreeNode) and tree.feature == feature

    @pytest.mark.parametrize("x, feature", [
        ([[1.0, 0.0], [0.0, 1.0]], 0),  # feature 0 sorts the second row first
        ([[0.0, 1.0], [1.0, 0.0]], 0),
    ])
    def test_equal_gains_of_both_orders_go_to_the_lower_feature(self, x, feature):
        # 1.0 and 3.0 give both orders the gain 2.0 exactly.
        tree = self.assert_matches_reference(x, [1.0, 3.0])
        assert isinstance(tree, TreeNode) and tree.feature == feature

    def test_the_larger_of_two_unequal_gains_wins(self):
        # The root sends rows 0 and 1 left with residuals whose gains differ in
        # the last bit between the two orders: feature 1, which sorts row 1
        # first, has the larger one and wins over feature 0.
        x = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [2.0, 2.0, 1.0]]
        tree = self.assert_matches_reference(x, [-0.6, 0.0, 10.0], 1, 2, 1.0)
        assert isinstance(tree.left, TreeNode) and tree.left.feature == 1

    def test_negative_zero_residual(self):
        # The mean is 0.0, so the two-row nodes hold the residuals -0.0 and 0.0.
        x = [[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]]
        self.assert_matches_reference(x, [0.1, -0.1, -0.0, 0.0], 3, 10, 0.1)
        self.assert_matches_reference(x[2:], [-0.0, 0.0], 3, 10, 0.1)

    def test_overflowing_squares_give_nan_gains_and_a_leaf(self):
        tree = self.assert_matches_reference([[0.0, 1.0], [1.0, 0.0]], [1.5e154, -1.5e154])
        assert isinstance(tree, Leaf)

    def test_no_two_row_set_reaches_the_matrix_search(self, monkeypatch):
        # The matrix search masks cuts between equal values with one putmask
        # over its m - 1 columns of gains.
        searched, built = [], []
        real_putmask, real_build = np.putmask, baselines._RowSet.build
        monkeypatch.setattr(np, "putmask", lambda a, mask, v: searched.append(a.shape[1] + 1)
                            or real_putmask(a, mask, v))
        monkeypatch.setattr(baselines._RowSet, "build", lambda node, x: built.append(node.rows.size)
                            or real_build(node, x))
        x, y = benchmark_shaped(7, seed=3)
        fit_gbt(x, y, n_estimators=100, max_depth=10, learning_rate=0.1)
        assert 2 in built and searched
        assert min(searched) >= 3
