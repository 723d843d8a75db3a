import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xferlens.sparse_linear import (
    GroupLassoModel,
    LassoModel,
    fit_group_lasso,
    fit_lasso,
    linear_model_from_dict,
    linear_model_to_dict,
    predict_linear,
)

# ---------------------------------------------------------------------------
# Independent oracles

def lasso_objective(x, y, w, b, lam):
    r = y - x @ w - b
    return float(0.5 * (r @ r) / len(y) + lam * np.abs(w).sum())


def group_lasso_objective(xs, ys, weights, intercepts, lambda_group):
    total = 0.0
    for t, (x, y) in enumerate(zip(xs, ys)):
        r = y - x @ weights[:, t] - intercepts[t]
        total += 0.5 * (r @ r) / len(y)
    return float(total + lambda_group * np.linalg.norm(weights, axis=1).sum())


def soft_threshold_oracle(a, lam):
    if a > lam:
        return a - lam
    if a < -lam:
        return a + lam
    return 0.0


def orthonormal_design(rng, m, n):
    """Zero-mean design with X^T X = m I, so the lasso solution is closed-form."""
    raw = rng.standard_normal((m, n))
    raw -= raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    return np.sqrt(m) * q[:, :n]


def lasso_closed_form(x, y, lam):
    m = len(y)
    yc = y - y.mean()
    ols = x.T @ yc / m
    return np.array([soft_threshold_oracle(v, lam) for v in ols])


def ista_group_lasso(xs, ys, lam, iters=200000, tol=1e-10):
    """Proximal-gradient reference solver for the group-lasso objective.

    Centered data, fixed 1/L step; run to a much tighter tolerance than the
    block solver under test.
    """
    n = xs[0].shape[1]
    n_tasks = len(xs)
    xcs = [x - x.mean(axis=0) for x in xs]
    ycs = [y - y.mean() for y in ys]
    lip = max(np.linalg.norm(xc.T @ xc, 2) / len(y) for xc, y in zip(xcs, ys))
    step = 1.0 / lip
    w = np.zeros((n, n_tasks))
    for _ in range(iters):
        grad = np.stack(
            [xc.T @ (xc @ w[:, t] - yc) / len(yc) for t, (xc, yc) in enumerate(zip(xcs, ycs))],
            axis=1,
        )
        v = w - step * grad
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        shrink = np.maximum(0.0, 1.0 - step * lam / np.where(norms > 0, norms, 1.0))
        new = shrink * v
        if np.abs(new - w).max() < tol:
            w = new
            break
        w = new
    intercepts = np.array(
        [ys[t].mean() - xs[t].mean(axis=0) @ w[:, t] for t in range(n_tasks)]
    )
    return w, intercepts


def kkt_gaps(xs, ys, model):
    """(active gaps, inactive slacks): ||row gradient|| vs lambda at the solution."""
    active_gaps, inactive_norms = [], []
    grads = np.zeros_like(model.weights)
    for t, (x, y) in enumerate(zip(xs, ys)):
        r = y - x @ model.weights[:, t] - model.intercepts[t]
        grads[:, t] = -(x.T @ r) / len(y)
    for j in range(model.weights.shape[0]):
        row_norm = np.linalg.norm(model.weights[j])
        grad_norm = np.linalg.norm(grads[j])
        if row_norm > 0:
            active_gaps.append(abs(grad_norm - model.lambda_group))
        else:
            inactive_norms.append(grad_norm)
    return active_gaps, inactive_norms


# ---------------------------------------------------------------------------
# Reference solvers: the residual-form coordinate descent that preceded the
# covariance-form solver, one scalar loop for the Lasso and one per-task
# residual loop for the Group Lasso. They take the same steps in a different
# order of floating-point operations, so the two agree to rounding, sweep for
# sweep.

def reference_lasso(x, y, lam, tol, max_iter):
    m, n = x.shape
    xm = x.mean(axis=0)
    ym = float(y.mean())
    xc = x - xm
    yc = y - ym
    z = (xc**2).sum(axis=0) / m
    w = np.zeros(n)
    r = yc.copy()
    trace = []
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        delta = 0.0
        for j in range(n):
            if z[j] == 0.0:
                continue
            rho = (xc[:, j] @ r) / m + z[j] * w[j]
            wj = soft_threshold_oracle(rho, lam) / z[j]
            if wj != w[j]:
                r -= xc[:, j] * (wj - w[j])
                delta = max(delta, abs(wj - w[j]))
                w[j] = wj
        trace.append(float(0.5 * (r @ r) / m + lam * np.abs(w).sum()))
        if delta < tol:
            converged = True
            break
    return LassoModel(w, ym - float(xm @ w), lam, converged, sweeps, tuple(trace))


def reference_group_soft(v, lam):
    nv = float(np.linalg.norm(v))
    if nv == 0.0 or nv <= lam:
        return np.zeros_like(v)
    return (1.0 - lam / nv) * v


def reference_row_update(phi_row, rho, z_row, lam):
    new = np.zeros_like(phi_row)
    active = z_row > 0.0
    if not active.any():
        return new
    za = z_row[active]
    ra = rho[active]
    if np.allclose(za, za[0], rtol=1e-12, atol=0.0):
        new[active] = reference_group_soft(ra, lam) / za[0]
    else:
        lip = float(za.max())
        cur = phi_row[active]
        v = cur - (za * cur - ra) / lip
        new[active] = reference_group_soft(v, lam / lip)
    return new


def reference_group_lasso(xs, ys, lam, tol, max_iter):
    n, n_tasks = xs[0].shape[1], len(xs)
    ms = np.array([x.shape[0] for x in xs], dtype=float)
    x_means = [x.mean(axis=0) for x in xs]
    y_means = np.array([float(y.mean()) for y in ys])
    xcs = [x - mu for x, mu in zip(xs, x_means)]
    residuals = [y - mu for y, mu in zip(ys, y_means)]
    z = np.stack([(xc**2).sum(axis=0) for xc in xcs], axis=1) / ms
    phi = np.zeros((n, n_tasks))
    trace = []
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        delta = 0.0
        for j in range(n):
            rho = np.array(
                [(xcs[t][:, j] @ residuals[t]) / ms[t] + z[j, t] * phi[j, t] for t in range(n_tasks)]
            )
            new = reference_row_update(phi[j], rho, z[j], lam)
            for t in range(n_tasks):
                change = new[t] - phi[j, t]
                if change != 0.0:
                    residuals[t] -= xcs[t][:, j] * change
                    delta = max(delta, abs(change))
            phi[j] = new
        obj = sum(0.5 * (residuals[t] @ residuals[t]) / ms[t] for t in range(n_tasks))
        trace.append(float(obj + lam * np.linalg.norm(phi, axis=1).sum()))
        if delta < tol:
            converged = True
            break
    intercepts = np.array([y_means[t] - float(x_means[t] @ phi[:, t]) for t in range(n_tasks)])
    return GroupLassoModel(phi, intercepts, lam, (), converged, sweeps, tuple(trace))


@st.composite
def cd_problems(draw):
    """Per-task designs with the solver's edge cases, a penalty and a tolerance.

    Columns are raw (unequal curvatures across tasks: the proximal row path),
    standardized (equal curvatures: the exact row path) or rescaled per column;
    a constant column has zero curvature, a duplicated one a singular Gram
    matrix. Constants are dyadic, so the centered column is exactly 0.
    """
    n_tasks, n = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scaling = draw(st.sampled_from(["raw", "standardized", "rescaled"]))
    rounded = draw(st.booleans())
    constant = draw(st.none() | st.integers(0, n - 1))
    duplicate = n > 1 and draw(st.booleans())
    xs, ys = [], []
    for _ in range(n_tasks):
        m = draw(st.integers(2, 40))
        x = rng.standard_normal((m, n))
        if scaling == "standardized":
            x = (x - x.mean(axis=0)) / x.std(axis=0)
        elif scaling == "rescaled":
            x = x * rng.uniform(0.2, 5.0, size=n)
        y = rng.standard_normal(m)
        if rounded:
            x, y = np.round(x, 1), np.round(y, 1)
        if duplicate:
            x[:, -1] = x[:, 0]
        if constant is not None:
            x[:, constant] = draw(st.sampled_from([0.0, 1.0, -2.5]))
        xs.append(x)
        ys.append(y)
    return xs, ys, draw(st.sampled_from([0.0, 0.01, 0.3, "max"])), draw(st.sampled_from([1e-6, 1e-9]))


def lambda_max(xs, ys):
    """The smallest penalty at which every weight row is 0."""
    cov = np.stack([(x - x.mean(0)).T @ (y - y.mean()) / len(y) for x, y in zip(xs, ys)], axis=1)
    return float(np.linalg.norm(cov, axis=1).max())


def assert_same_fit(got, want, intercepts):
    np.testing.assert_allclose(got.weights, want.weights, rtol=0, atol=1e-9)
    np.testing.assert_allclose(intercepts(got), intercepts(want), rtol=0, atol=1e-9)
    assert (got.n_iter, got.converged) == (want.n_iter, want.converged)
    assert abs(got.objective_trace[-1] - want.objective_trace[-1]) <= 1e-12


class TestAgainstResidualSolvers:
    MAX_ITER = 300  # a singular, unpenalized problem may not converge; both stop here

    @given(cd_problems())
    @settings(max_examples=60, deadline=None)
    def test_group_lasso_matches_reference(self, problem):
        xs, ys, lam, tol = problem
        lam = 1.0001 * lambda_max(xs, ys) if lam == "max" else lam
        got = fit_group_lasso(xs, ys, lam, tol, self.MAX_ITER)
        want = reference_group_lasso(xs, ys, lam, tol, self.MAX_ITER)
        assert_same_fit(got, want, lambda model: model.intercepts)

    @given(cd_problems())
    @settings(max_examples=60, deadline=None)
    def test_lasso_matches_reference(self, problem):
        xs, ys, lam, tol = problem
        x, y = xs[0], ys[0]
        lam = 1.0001 * lambda_max([x], [y]) if lam == "max" else lam
        got = fit_lasso(x, y, lam, tol, self.MAX_ITER)
        want = reference_lasso(x, y, lam, tol, self.MAX_ITER)
        assert_same_fit(got, want, lambda model: model.intercept)


# ---------------------------------------------------------------------------

class TestLasso:
    def test_exact_fit_without_penalty(self):
        model = fit_lasso(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), lam=0.0)
        assert model.weights[0] == pytest.approx(1.0, abs=1e-10)
        assert model.intercept == pytest.approx(0.0, abs=1e-10)

    def test_full_shrinkage_threshold(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        yc = y - y.mean()
        lam_max = np.abs((x - x.mean(0)).T @ yc).max() / len(y)
        model = fit_lasso(x, y, lam=lam_max * 1.0001)
        np.testing.assert_allclose(model.weights, 0.0, atol=1e-12)
        assert model.intercept == pytest.approx(y.mean())

    @pytest.mark.parametrize("seed", range(5))
    def test_orthonormal_matches_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        m, n = 24, 5
        x = orthonormal_design(rng, m, n)
        y = rng.standard_normal(m)
        lam = 0.1 * float(rng.uniform(0.2, 2.0))
        model = fit_lasso(x, y, lam)
        np.testing.assert_allclose(model.weights, lasso_closed_form(x, y, lam), atol=1e-6)

    def test_objective_monotone_per_sweep(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((30, 6))
        y = rng.standard_normal(30)
        model = fit_lasso(x, y, lam=0.05)
        trace = model.objective_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        assert model.converged

    def test_trace_matches_objective_function(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((15, 4))
        y = rng.standard_normal(15)
        model = fit_lasso(x, y, lam=0.07)
        assert model.objective_trace[-1] == pytest.approx(
            lasso_objective(x, y, model.weights, model.intercept, model.lam), abs=1e-12
        )

    def test_constant_column_with_inexact_mean_gets_no_weight(self):
        # Seven rows of 0.1 have a computed mean an ulp away from 0.1; centered
        # by it, the column would get a rounding-level curvature and, at
        # lam = 0, a large weight that the intercept compensates.
        rng = np.random.default_rng(3)
        other = rng.standard_normal(7)
        y = 0.4 * other + rng.standard_normal(7)
        for x in (np.full((7, 1), 0.1), np.column_stack([np.full(7, 0.1), other])):
            assert x[:, 0].mean() != 0.1
            model = fit_lasso(x, y, 0.0)
            assert model.weights[0] == 0.0
        assert fit_lasso(np.full((7, 1), 0.1), y, 0.0).intercept == float(y.mean())
        group = fit_group_lasso([x, x + rng.standard_normal((7, 2))], [y, y], 0.0)
        assert group.weights[0, 0] == 0.0 and group.weights[0, 1] != 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            fit_lasso(np.array([[1.0], [np.nan]]), np.array([0.0, 1.0]), 0.1)


class TestGroupLasso:
    def test_single_task_equals_lasso(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20, 5))
        x = (x - x.mean(0)) / x.std(0)
        y = rng.standard_normal(20)
        lam = 0.05
        single = fit_group_lasso([x], [y], lam, tol=1e-10)
        lasso = fit_lasso(x, y, lam, tol=1e-10)
        np.testing.assert_allclose(single.weights[:, 0], lasso.weights, atol=1e-4)
        assert single.intercepts[0] == pytest.approx(lasso.intercept, abs=1e-4)

    def test_zero_penalty_matches_least_squares(self):
        rng = np.random.default_rng(2)
        xs, ys = [], []
        for _ in range(3):
            x = rng.standard_normal((15, 4))
            w = rng.standard_normal(4)
            ys.append(x @ w + 0.1 * rng.standard_normal(15))
            xs.append(x)
        model = fit_group_lasso(xs, ys, lambda_group=0.0, tol=1e-12, max_iter=50000)
        for t, (x, y) in enumerate(zip(xs, ys)):
            design = np.column_stack([x, np.ones(len(y))])
            coef, *_ = np.linalg.lstsq(design, y, rcond=None)
            np.testing.assert_allclose(model.weights[:, t], coef[:-1], atol=1e-6)
            assert model.intercepts[t] == pytest.approx(coef[-1], abs=1e-6)

    def make_shared_support_problem(self, seed=0, n_tasks=3, n=9, m=30, noise=0.01):
        rng = np.random.default_rng(seed)
        support = [1, 3]
        xs, ys = [], []
        for _ in range(n_tasks):
            x = rng.standard_normal((m, n))
            x = (x - x.mean(0)) / x.std(0)
            w = np.zeros(n)
            w[support] = rng.uniform(0.5, 1.0, size=len(support)) * rng.choice([-1, 1], len(support))
            xs.append(x)
            ys.append(x @ w + noise * rng.standard_normal(m))
        return xs, ys, set(support)

    def test_shared_support_recovery_and_oracle(self):
        xs, ys, support = self.make_shared_support_problem(seed=5)
        recovered = None
        for lam in np.logspace(-2.5, -0.5, 10):
            model = fit_group_lasso(xs, ys, lam, tol=1e-9)
            rows = {j for j in range(9) if np.linalg.norm(model.weights[j]) > 1e-8}
            if rows == support:
                recovered = (lam, model)
                break
        assert recovered is not None, "no lambda on the grid recovered the planted support"
        lam, model = recovered
        w_ref, b_ref = ista_group_lasso(xs, ys, lam)
        np.testing.assert_allclose(model.weights, w_ref, atol=1e-5)
        np.testing.assert_allclose(model.intercepts, b_ref, atol=1e-5)
        obj_model = group_lasso_objective(xs, ys, model.weights, model.intercepts, lam)
        obj_ref = group_lasso_objective(xs, ys, w_ref, b_ref, lam)
        assert obj_model <= obj_ref + 1e-8

    def test_objective_monotone_per_sweep(self):
        xs, ys, _ = self.make_shared_support_problem(seed=6)
        model = fit_group_lasso(xs, ys, 0.05)
        trace = model.objective_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_unstandardized_columns_still_monotone(self):
        # Different per-task column scales force the proximal-gradient row path.
        rng = np.random.default_rng(8)
        xs = [rng.standard_normal((12, 4)) * rng.uniform(0.5, 3.0, size=4) for _ in range(2)]
        ys = [rng.standard_normal(12) for _ in range(2)]
        model = fit_group_lasso(xs, ys, 0.1, tol=1e-8, max_iter=20000)
        trace = model.objective_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        gaps, slacks = kkt_gaps(xs, ys, model)
        assert all(g < 1e-4 for g in gaps)
        assert all(s <= model.lambda_group + 1e-4 for s in slacks)

    def test_kkt_at_convergence(self):
        xs, ys, _ = self.make_shared_support_problem(seed=7)
        tol = 1e-8
        model = fit_group_lasso(xs, ys, 0.1, tol=tol)
        gaps, slacks = kkt_gaps(xs, ys, model)
        assert all(g <= 10 * tol + 1e-9 for g in gaps)
        assert all(s <= 0.1 + 10 * tol for s in slacks)

    def test_block_sparsity_rows_all_or_nothing(self):
        xs, ys, _ = self.make_shared_support_problem(seed=9)
        model = fit_group_lasso(xs, ys, 0.2)
        for j in range(model.weights.shape[0]):
            row = model.weights[j]
            assert np.all(row == 0.0) or np.linalg.norm(row) > 0

    def test_huge_penalty_zeroes_everything(self):
        xs, ys, _ = self.make_shared_support_problem(seed=10)
        model = fit_group_lasso(xs, ys, 1e4)
        np.testing.assert_array_equal(model.weights, np.zeros_like(model.weights))

    def test_duplicated_task_symmetry(self):
        xs, ys, _ = self.make_shared_support_problem(seed=11, n_tasks=2)
        base = fit_group_lasso(xs, ys, 0.05, tol=1e-10)
        dup = fit_group_lasso(
            [xs[0], xs[0], xs[1]], [ys[0], ys[0], ys[1]], 0.05, tol=1e-10
        )
        np.testing.assert_allclose(dup.weights[:, 0], dup.weights[:, 1], atol=1e-12)
        base_rows = {j for j in range(9) if np.linalg.norm(base.weights[j]) > 1e-8}
        dup_rows = {j for j in range(9) if np.linalg.norm(dup.weights[j]) > 1e-8}
        assert base_rows == dup_rows

    def test_inconsistent_dimensions_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            fit_group_lasso(
                [np.zeros((3, 2)), np.zeros((3, 4))], [np.zeros(3), np.zeros(3)], 0.1
            )


class TestPredictLinear:
    def test_zero_weights_returns_intercept(self):
        model = LassoModel(np.zeros(3), 0.75, 0.1, True, 1, ())
        assert predict_linear(model, np.ones(3)) == 0.75

    def test_one_hot_picks_weight(self):
        model = LassoModel(np.array([1.5, -2.0, 0.3]), 0.1, 0.0, True, 1, ())
        assert predict_linear(model, np.array([0.0, 1.0, 0.0])) == pytest.approx(-1.9)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal(6)
        model = LassoModel(w, 0.2, 0.0, True, 1, ())
        for _ in range(10):
            x = rng.standard_normal(6)
            expected = sum(w[i] * x[i] for i in range(6)) + 0.2
            assert predict_linear(model, x) == pytest.approx(expected, abs=1e-12)

    def test_group_requires_task(self):
        model = GroupLassoModel(np.zeros((2, 2)), np.zeros(2), 0.1, ("a", "b"), True, 1, ())
        with pytest.raises(ValueError, match="task"):
            predict_linear(model, np.zeros(2))
        with pytest.raises(ValueError, match="unknown task"):
            predict_linear(model, np.zeros(2), task="c")

    def test_group_uses_task_column(self):
        w = np.array([[1.0, 0.0], [0.0, 2.0]])
        model = GroupLassoModel(w, np.array([0.1, 0.2]), 0.0, ("a", "b"), True, 1, ())
        assert predict_linear(model, np.array([1.0, 1.0]), task="a") == pytest.approx(1.1)
        assert predict_linear(model, np.array([1.0, 1.0]), task="b") == pytest.approx(2.2)


class TestSerialization:
    def test_lasso_round_trip(self):
        model = LassoModel(np.array([0.5, -0.1]), 0.3, 0.01, True, 12, (1.0,))
        again = linear_model_from_dict(linear_model_to_dict(model))
        np.testing.assert_array_equal(again.weights, model.weights)
        assert again.intercept == model.intercept

    def test_group_round_trip(self):
        model = GroupLassoModel(
            np.array([[1.0, 2.0]]), np.array([0.1, 0.2]), 0.01, ("a", "b"), True, 3, ()
        )
        again = linear_model_from_dict(linear_model_to_dict(model))
        np.testing.assert_array_equal(again.weights, model.weights)
        assert again.tasks == model.tasks
