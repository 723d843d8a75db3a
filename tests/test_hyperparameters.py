"""Every solver rejects a hyperparameter it cannot fit with by a ``ValueError``
naming it, so ``cli.main`` turns it into exit 2: integers must be integers
(bools are not; numpy integers are) within their range, and rates and
tolerances must be finite numbers within theirs."""

import math

import numpy as np
import pytest

from test_solver_contracts import fit_and_predict
from xferlens import factorization, gp, sparse_linear
from xferlens.meta import MamlConfig

NAN, INF = math.nan, math.inf

LINEAR = [("max_iter", 0), ("max_iter", -1), ("max_iter", 2.5), ("max_iter", True),
          ("tol", NAN), ("tol", -1e-6), ("tol", INF)]
GP = [("epochs", -5), ("epochs", 2.5), ("epochs", True),
      ("lr", NAN), ("lr", 0.0), ("lr", -0.01), ("lr", INF)]
CMF = [("sweeps", -1), ("sweeps", 2.5), ("sweeps", True),
       ("restarts", 0), ("restarts", -1), ("restarts", 1.5), ("restarts", True)]
MAML = [("inner_lr", NAN), ("outer_lr", NAN), ("inner_lr", INF), ("outer_lr", INF),
        ("inner_steps", 2.5), ("inner_steps", True), ("meta_epochs", 2.5),
        ("meta_epochs", True)]


def linear_problem():
    rng = np.random.default_rng(0)
    return rng.standard_normal((6, 3)), rng.standard_normal(6)


def cmf_problem():
    pairs = [("en", f"p{i}") for i in range(4)]
    obs = [(f"t{t}", pair, 0.1 * (t + i)) for t in range(2) for i, pair in enumerate(pairs)]
    return obs, pairs, np.arange(8.0).reshape(4, 2)


@pytest.mark.parametrize("name, value", LINEAR)
def test_lasso_rejects(name, value):
    x, y = linear_problem()
    with pytest.raises(ValueError, match=name):
        sparse_linear.fit_lasso(x, y, 0.01, **{name: value})


@pytest.mark.parametrize("name, value", LINEAR)
def test_group_lasso_rejects(name, value):
    x, y = linear_problem()
    with pytest.raises(ValueError, match=name):
        sparse_linear.fit_group_lasso([x, x], [y, -y], 0.01, **{name: value})


@pytest.mark.parametrize("name, value", GP)
@pytest.mark.parametrize("multi_task", [False, True], ids=["dgpr", "mdgpr"])
def test_gp_rejects(name, value, multi_task):
    rng = np.random.default_rng(0)
    data = {t: (rng.standard_normal((4, 2)), rng.uniform(0, 1, 4)) for t in ("a", "b")[:1 + multi_task]}
    with pytest.raises(ValueError, match=name):
        gp.fit_gp(data, multi_task=multi_task, hidden=(3,), **{name: value})


@pytest.mark.parametrize("name, value", CMF)
def test_cmf_rejects(name, value):
    obs, pairs, x = cmf_problem()
    with pytest.raises(ValueError, match=name):
        factorization.fit_cmf(obs, pairs, x, d=1, reg=0.1, alpha=0.5, **{name: value})


@pytest.mark.parametrize("name, value", MAML)
def test_maml_config_rejects(name, value):
    with pytest.raises(ValueError, match=name):
        MamlConfig(**{name: value})


@pytest.mark.parametrize("kind, name, value", [
    ("lasso", "max_iter", -1), ("group-lasso", "max_iter", 0), ("lasso", "max_iter", 2.5),
    ("dgpr", "epochs", -5), ("dgpr", "lr", NAN), ("mdgpr", "epochs", 2.5),
    ("cmf", "sweeps", -1), ("cmf", "restarts", 0), ("maml", "inner_lr", NAN),
])
def test_model_spec_fit_rejects(kind, name, value):
    # The library path a caller takes: the solver's ValueError, which cli.main maps to exit 2.
    kw = {"meta_tasks": ["B", "C", "D"]} if kind == "maml" else {}
    with pytest.raises(ValueError, match=name):
        fit_and_predict(kind, {name: value}, **kw)


def test_numpy_integers_and_boundaries_accepted():
    x, y = linear_problem()
    assert sparse_linear.fit_lasso(x, y, 0.01, tol=0.0, max_iter=np.int64(1)).n_iter == 1
    sparse_linear.fit_group_lasso([x], [y], 0.01, tol=np.float64(1e-6), max_iter=np.int32(5))
    rng = np.random.default_rng(0)
    data = {"a": (rng.standard_normal((4, 2)), rng.uniform(0, 1, 4))}
    state = gp.fit_gp(data, multi_task=False, epochs=np.int64(0), lr=np.float64(0.5), hidden=(3,))
    assert state.mll_trace and len(state.mll_trace) == 1
    obs, pairs, x = cmf_problem()
    model = factorization.fit_cmf(obs, pairs, x, d=1, reg=0.1, alpha=0.5, sweeps=np.int64(0),
                                  restarts=np.int16(1))
    assert len(model.objective_trace) == 1
    cfg = MamlConfig(inner_steps=np.int64(0), inner_lr=0.0, meta_epochs=np.int64(1))
    assert cfg.inner_steps == 0
