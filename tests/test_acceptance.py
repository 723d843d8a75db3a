"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines
on passing runs too).
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import grad_check, lang_codes, mll_function, planted_dataset
from test_sparse_linear import (
    ista_group_lasso,
    kkt_gaps,
    lasso_closed_form,
    orthonormal_design,
)
from xferlens.cli import main
from xferlens.data import LanguageMeta, make_lolo_splits, save_dataset
from xferlens.evaluation import ModelSpec, run_lolo
from xferlens.explain import linear_shap
from xferlens.factorization import fit_cmf, predict_cmf
from xferlens.features import (
    TokenizationStats,
    VocabSet,
    WalsTable,
    pretrain_size_feature,
    subword_overlap,
    tokenizer_metrics,
    wmrr,
)
from xferlens.gp import fit_gp, predict_gp
from xferlens.meta import MamlConfig, adapt, meta_train, predict_net
from xferlens.numerics import init_mlp
from xferlens.sparse_linear import (
    LinearModel,
    fit_group_lasso,
    fit_lasso,
    predict_linear,
)


@contextmanager
def criterion(number, name, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None and elapsed >= budget_seconds:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL (took {elapsed:.1f}s, budget {budget_seconds}s)")
        pytest.fail(f"criterion {number} exceeded its {budget_seconds}s budget ({elapsed:.1f}s)")
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.2f}s)")


def test_01_lasso_soft_threshold_oracle():
    with criterion(1, "lasso closed-form oracle", budget_seconds=1.0):
        for instance in range(20):
            rng = np.random.default_rng(instance)
            n = int(rng.integers(2, 9))  # n <= 8
            m = int(rng.integers(max(n + 2, 8), 33))  # m <= 32
            x = orthonormal_design(rng, m, n)
            y = rng.standard_normal(m)
            lam = float(rng.uniform(0.01, 0.5))
            model = fit_lasso(x, y, lam)
            expected = lasso_closed_form(x, y, lam)
            assert np.abs(model.weights[:, 0] - expected).max() < 1e-6


def test_02_group_lasso_degeneracies():
    with criterion(2, "group lasso degeneracies and KKT"):
        rng = np.random.default_rng(7)
        # (a) single task matches plain lasso within 1e-4
        x = rng.standard_normal((24, 6))
        x = (x - x.mean(0)) / x.std(0)
        y = rng.standard_normal(24)
        single = fit_group_lasso([x], [y], 0.05, tol=1e-10)
        lasso = fit_lasso(x, y, 0.05, tol=1e-10)
        assert np.abs(single.weights[:, 0] - lasso.weights[:, 0]).max() < 1e-4
        # (b) zero group penalty matches per-task least squares within 1e-6
        xs = [rng.standard_normal((20, 4)) for _ in range(3)]
        ys = [x_t @ rng.standard_normal(4) + 0.05 * rng.standard_normal(20) for x_t in xs]
        free = fit_group_lasso(xs, ys, 0.0, tol=1e-12, max_iter=100000)
        for t, (x_t, y_t) in enumerate(zip(xs, ys)):
            design = np.column_stack([x_t, np.ones(len(y_t))])
            coef, *_ = np.linalg.lstsq(design, y_t, rcond=None)
            assert np.abs(free.weights[:, t] - coef[:-1]).max() < 1e-6
        # (c) KKT residuals within 10*tol at convergence
        tol = 1e-8
        xs = [
            (lambda a: (a - a.mean(0)) / a.std(0))(rng.standard_normal((30, 9)))
            for _ in range(3)
        ]
        w_true = np.zeros(9)
        w_true[[1, 3]] = [0.8, -0.6]
        ys = [x_t @ w_true + 0.01 * rng.standard_normal(30) for x_t in xs]
        model = fit_group_lasso(xs, ys, 0.1, tol=tol)
        gaps, slacks = kkt_gaps(xs, ys, model)
        assert all(g <= 10 * tol + 1e-10 for g in gaps)
        assert all(s <= 0.1 + 10 * tol for s in slacks)


def test_03_block_sparsity_recovery():
    with criterion(3, "planted shared-support recovery", budget_seconds=5.0):
        rng = np.random.default_rng(3)
        support = {1, 3}
        xs, ys = [], []
        for _ in range(3):
            x = rng.standard_normal((30, 9))
            x = (x - x.mean(0)) / x.std(0)
            w = np.zeros(9)
            for j in support:
                w[j] = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
            xs.append(x)
            ys.append(x @ w + 0.01 * rng.standard_normal(30))
        recovered = None
        for lam in np.logspace(-2.5, -0.5, 10):
            model = fit_group_lasso(xs, ys, float(lam), tol=1e-9)
            rows = {j for j in range(9) if np.linalg.norm(model.weights[j]) > 1e-8}
            if rows == support:
                recovered = (float(lam), model)
                break
        assert recovered is not None, "no lambda on the 10-point grid recovered the support"
        lam, model = recovered
        w_ref, _ = ista_group_lasso(xs, ys, lam)
        oracle_rows = {j for j in range(9) if np.linalg.norm(w_ref[j]) > 1e-8}
        assert oracle_rows == support
        assert np.abs(model.weights - w_ref).max() < 1e-5


def test_04_cmf_rank_one_exactness():
    with criterion(4, "CMF rank-1 exactness and monotone ALS"):
        rng = np.random.default_rng(4)
        t0 = rng.uniform(0.5, 1.5, size=(3, 1))
        l0 = rng.uniform(0.5, 1.5, size=(7, 1))
        y = t0 @ l0.T
        pairs = [("en", f"t{i}") for i in range(7)]
        obs = [
            (f"task{t}", pairs[p], float(y[t, p])) for t in range(3) for p in range(7)
        ]
        model = fit_cmf(
            obs, pairs, np.zeros((7, 2)), d=1, reg=1e-9, alpha=0.0,
            sweeps=60, seed=0, restarts=3,
        )
        sq_errs = [
            (predict_cmf(model, f"task{t}", pairs[p]) - y[t, p]) ** 2
            for t in range(3)
            for p in range(7)
        ]
        assert float(np.sqrt(np.mean(sq_errs))) < 1e-3
        trace = model.objective_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        # A second, side-information run must also be monotone per block update.
        x_side = rng.uniform(0, 1, size=(7, 4))
        y2 = rng.uniform(0, 1, size=(3, 7))
        obs2 = [(f"task{t}", pairs[p], float(y2[t, p])) for t in range(3) for p in range(7)]
        model2 = fit_cmf(obs2, pairs, x_side, d=2, reg=0.1, alpha=0.5, sweeps=40, seed=1)
        trace2 = model2.objective_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace2, trace2[1:]))


def test_05_gp_correctness():
    with criterion(5, "GP interpolation, gradients, block equivalence", budget_seconds=30.0):
        # (a) noiseless interpolation at training points
        x = np.linspace(-2, 2, 6).reshape(-1, 1)
        y = 0.3 * np.sin(1.5 * x[:, 0]) + 0.5
        state = fit_gp(
            {"t": (x, y)}, multi_task=False, epochs=0, seed=0, init_noise_variance=1e-8
        )
        for row, target in zip(x, y):
            mean, _ = predict_gp(state, row, "t")
            assert abs(mean - target) < 1e-5
        # (b) analytic gradients vs central finite differences, 10 instances
        for instance in range(10):
            rng = np.random.default_rng(100 + instance)
            m1 = int(rng.integers(3, 11))
            m2 = int(rng.integers(3, 11))  # m1 + m2 <= 20
            n = int(rng.integers(2, 6))
            data = {
                "a": (rng.standard_normal((m1, n)), rng.standard_normal(m1)),
                "b": (rng.standard_normal((m2, n)), rng.standard_normal(m2)),
            }
            f, x0 = mll_function(data, multi_task=True, seed=instance, hidden=(6, 4))
            assert grad_check(f, x0) < 1e-4
        # (c) identity task matrix on disjoint data = independent single-task GPs
        rng = np.random.default_rng(55)
        d1 = (rng.standard_normal((6, 3)), rng.standard_normal(6))
        d2 = (rng.standard_normal((8, 3)), rng.standard_normal(8))
        multi = fit_gp({"a": d1, "b": d2}, multi_task=True, epochs=0, seed=5)
        singles = {
            "a": fit_gp({"a": d1}, multi_task=False, epochs=0, seed=5),
            "b": fit_gp({"b": d2}, multi_task=False, epochs=0, seed=5),
        }
        for task in ("a", "b"):
            for q in rng.standard_normal((10, 3)):
                m_mean, m_var = predict_gp(multi, q, task)
                s_mean, s_var = predict_gp(singles[task], q, task)
                assert abs(m_mean - s_mean) < 1e-6
                assert abs(m_var - s_var) < 1e-6


def test_06_maml_beats_random_init():
    with criterion(6, "MAML planted-family adaptation", budget_seconds=60.0):
        def sample_task(rng, n_points):
            slope = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
            offset = rng.uniform(-1.0, 1.0)
            xs = rng.uniform(-2, 2, size=(n_points, 1))
            return xs, slope * xs[:, 0] + offset

        shape = (1, 32, 1)
        cfg = MamlConfig(
            inner_steps=5, inner_lr=0.01, outer_lr=0.05, meta_epochs=800, net_shape=shape
        )
        rng = np.random.default_rng(0)
        tasks = {f"task{i:02d}": sample_task(rng, 16) for i in range(20)}
        theta = meta_train(tasks, cfg, seed=0)
        wins = 0
        for trial in range(20):
            trial_rng = np.random.default_rng(10_000 + trial)
            x, y = sample_task(trial_rng, 38)
            sup, qry = np.arange(8), np.arange(8, 38)
            meta_adapted = adapt(theta, x[sup], y[sup], cfg)
            rand_adapted = adapt(init_mlp(shape, seed=20_000 + trial), x[sup], y[sup], cfg)
            meta_mse = float(np.mean((predict_net(meta_adapted, x[qry]) - y[qry]) ** 2))
            rand_mse = float(np.mean((predict_net(rand_adapted, x[qry]) - y[qry]) ** 2))
            wins += meta_mse < rand_mse
        assert wins >= 16, f"meta-learned init won only {wins}/20 trials"


def test_07_protocol_integrity():
    with criterion(7, "LOLO structural leakage guards"):
        langs = lang_codes(8)
        ds = planted_dataset(
            {"A": langs[:5], "B": langs, "C": langs[2:], "D": langs[:6]},
            np.zeros(9),
            seed=0,
        )
        full = {t: len(ds.task_records(t)) for t in ds.tasks}
        checked = 0
        for eval_task in sorted(ds.tasks):
            for split in make_lolo_splits(ds, eval_task):
                assert not any(
                    r.task == eval_task and r.target == split.held_out
                    for r in split.train.records
                )
                assert all(
                    r.task == eval_task and r.target == split.held_out
                    for r in split.test.records
                )
                for helper in ds.tasks - {eval_task}:
                    count = sum(1 for r in split.train.records if r.task == helper)
                    assert count == full[helper]
                checked += 1
        assert checked == sum(len(ds.targets(t)) for t in ds.tasks)


def test_08_planted_lolo_multi_task_advantage():
    with criterion(8, "planted-model LOLO: multi-task beats baselines", budget_seconds=120.0):
        w = np.zeros(9)
        w[1], w[3], w[5] = 0.10, 0.12, 0.06
        langs = lang_codes(14)
        task_langs = {"small": langs[:6], "h1": langs, "h2": langs, "h3": langs}
        maes = {kind: [] for kind in ("awt", "lasso", "group-lasso", "mdgpr")}
        for seed in range(5):
            ds = planted_dataset(task_langs, w, noise=0.01, seed=seed)
            for kind in maes:
                maes[kind].append(run_lolo(ds, ModelSpec(kind, {}, seed), "small")["mae"])
        mean_mae = {kind: float(np.mean(v)) for kind, v in maes.items()}
        print("  planted LOLO MAE:", {k: round(v, 4) for k, v in mean_mae.items()})
        for multi in ("group-lasso", "mdgpr"):
            assert mean_mae[multi] < mean_mae["awt"]
            assert mean_mae[multi] < mean_mae["lasso"]


def test_09_attribution_exactness():
    with criterion(9, "linear-SHAP local accuracy and block sparsity"):
        rng = np.random.default_rng(9)
        model = LinearModel(rng.standard_normal((9, 1)), np.array([rng.standard_normal()]), 0.0, (None,),
                            True, 1, ())
        w, b = model.coefficients(None)
        for _ in range(1000):
            x = rng.standard_normal(9)
            bg = rng.standard_normal(9)
            reconstruction = w @ bg + b + linear_shap(w, x, bg).sum()
            assert abs(reconstruction - predict_linear(model, x)) < 1e-12
        # Group-lasso zero rows attribute exactly zero in every task.
        weights = rng.standard_normal((9, 4))
        weights[[0, 2, 7], :] = 0.0
        gl = LinearModel(weights, np.zeros(4), 0.1, ("a", "b", "c", "d"), True, 1, ())
        rows = rng.standard_normal((50, 9))
        for task in gl.tasks:
            values = np.abs(linear_shap(gl.coefficients(task)[0], rows, np.zeros(9))).mean(axis=0)
            assert values[0] == 0.0 and values[2] == 0.0 and values[7] == 0.0


def test_10_feature_formula_oracles():
    with criterion(10, "feature formulas vs brute-force oracles"):
        # Subword overlap: exact rational arithmetic.
        va = VocabSet("aa", frozenset({"a", "b", "c"}))
        vb = VocabSet("ab", frozenset({"b", "c", "d", "e"}))
        inter = len(va.tokens & vb.tokens)
        union = len(va.tokens | vb.tokens)
        assert subword_overlap(va, vb) == inter / union == 2 / 5
        # log-size within 1e-12 of the log identity.
        assert abs(pretrain_size_feature(LanguageMeta("de", 5, 10.0**7.25)) - 7.25) < 1e-12
        # FERT/PCW: exact ratios.
        assert tokenizer_metrics(TokenizationStats("de", 4, 7, 3)) == (7 / 4, 3 / 4)
        # WMRR vs exhaustive enumeration with integer masses (exact).
        rows = {
            "aa": frozenset({"f1", "f2"}),
            "ab": frozenset({"f2", "f3"}),
            "ac": frozenset({"f1", "f3", "f4"}),
        }
        words = {"aa": 7.0, "ab": 3.0, "ac": 11.0}
        meta = {lang: LanguageMeta(lang, 5, w) for lang, w in words.items()}
        wals = WalsTable(rows)
        all_fvs = sorted({fv for fvs in rows.values() for fv in fvs})
        mass = {
            fv: sum(words[lang] for lang in rows if fv in rows[lang]) for fv in all_fvs
        }
        for lang in rows:
            expected = np.mean(
                [
                    1.0 / (1 + sum(1 for g in all_fvs if mass[g] > mass[fv]))
                    for fv in rows[lang]
                ]
            )
            assert wmrr(lang, wals, meta) == pytest.approx(float(expected), abs=0)


def test_11_cmd_evaluate_byte_identical(tmp_path):
    with criterion(11, "byte-identical evaluate reruns"):
        langs = lang_codes(6)
        w = np.zeros(9)
        w[1] = 0.1
        # Five tasks so the cmf default of 5 latent factors is admissible.
        ds = planted_dataset(
            {"A": langs[:4], "B": langs, "C": langs, "D": langs[1:], "E": langs[:5]},
            w,
            seed=0,
        )
        paths = save_dataset(ds, tmp_path / "data")
        args = [
            "evaluate",
            "--scores", str(paths["scores"]),
            "--features", str(paths["features"]),
            "--meta", str(paths["meta"]),
            "--models", "awt,lasso,gbt,cmf",
            "--protocol", "lolo",
            "--seed", "17",
        ]
        assert main(args + ["--out", str(tmp_path / "one")]) == 0
        assert main(args + ["--out", str(tmp_path / "two")]) == 0
        one = (tmp_path / "one" / "report.json").read_bytes()
        two = (tmp_path / "two" / "report.json").read_bytes()
        assert one == two
        payload = json.loads(one)
        assert payload["seed"] == 17 and payload["config_hash"]
