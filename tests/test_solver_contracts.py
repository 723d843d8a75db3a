"""Contracts of the GP, MAML and CMF solvers and of the features command that
no output shows: the calls the benchmark's tracer counts, and independence
from the BLAS thread count."""

import collections
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import lang_codes, planted_dataset
from xferlens import baselines, cli, factorization, features, gp, meta
from xferlens.data import save_dataset
from xferlens.evaluation import ModelSpec, fit_predictors

ROOT = Path(__file__).resolve().parents[1]

# bench/tracing.py replaces these module attributes by counting wrappers and
# derives baselines.gbt_trees, gp.mll_evals, gp.cho_solve_s, meta.adapt_calls,
# factorization.cmf_sweeps, features.load_s, features.overlap_s,
# features.wmrr_calls and the per-row prediction invariants from their
# calls. Tier-1 runs a real traced pass only of llro-multitask and
# lolo-singletask (test_bench_tracing.py), so these tests pin the counts of
# every counted call, including those that only the other workloads make: a
# refactor that calls them by another name (or not at all) would otherwise
# break the benchmark's invariants silently.
COUNTED = ((baselines, "fit_gbt"), (baselines, "predict_gbt"),
           (gp, "cholesky"), (gp, "cho_solve"), (gp, "predict_gp"),
           (meta, "adapt"), (meta, "predict_net"),
           (factorization, "_objective"), (factorization, "predict_cmf"),
           (factorization, "predict_cold_start"),
           (cli, "load_vocab_file"), (features, "subword_overlap"), (features, "wmrr"))


@pytest.fixture
def calls(monkeypatch):
    counts = collections.Counter()
    for module, name in COUNTED:
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"

        def counted(*args, _real=getattr(module, name), _key=key, **kwargs):
            counts[_key] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def five_tasks():
    """The five-task layout of test_cli's ``five_task_paths`` fixture."""
    langs = lang_codes(6)
    w = np.zeros(9)
    w[1] = 0.1
    tasks = {"A": langs[:4], "B": langs, "C": langs[1:], "D": langs[:5], "E": langs[2:]}
    return planted_dataset(tasks, w, seed=1)


def fit_and_predict(kind, hp, **kw):
    ds = five_tasks()
    predictor = fit_predictors(ModelSpec(kind, hp), ds, ["A"], seed=0, **kw)["A"]
    x = ds.feature_matrix(ds.task_records("A"))
    assert np.isfinite(predictor.predict(x)).all()
    return len(x)


class TestTracerCounts:
    # One factorization per likelihood evaluation (the tracer's mll_evals:
    # the initial point, each epoch's accepted step and the halved steps),
    # an alpha solve for each that factors, a K^-1 solve per epoch's gradient
    # and one predict_gp call per predicted row.
    def test_dgpr(self, calls):
        rows = fit_and_predict("dgpr", {"epochs": 5})
        assert dict(calls) == {"gp.cholesky": 1 + 5 + 6, "gp.cho_solve": 12 + 5, "gp.predict_gp": rows}

    def test_mdgpr(self, calls):
        rows = fit_and_predict("mdgpr", {"epochs": 5})
        assert dict(calls) == {"gp.cholesky": 1 + 5 + 3, "gp.cho_solve": 9 + 5, "gp.predict_gp": rows}

    def test_gbt(self, calls):
        # One fit per task and one predict_gbt call per predicted row.
        rows = fit_and_predict("gbt", {"n_estimators": 5})
        assert dict(calls) == {"baselines.fit_gbt": 1, "baselines.predict_gbt": rows}

    def test_maml(self, calls):
        fit_and_predict("maml", {"meta_epochs": 3}, meta_tasks=["B", "C", "D"])
        # meta_epochs x helpers adaptations in meta_train, one to the task,
        # and one batched prediction call.
        assert dict(calls) == {"meta.adapt": 3 * 3 + 1, "meta.predict_net": 1}

    def test_cmf(self, calls):
        # The objective once per restart and after each of a sweep's three
        # blocks; one prediction per row, from the factors when the pairs are
        # given and cold-start from the features when they are not.
        ds = five_tasks()
        hp = {"sweeps": 4, "restarts": 2}
        predictor = fit_predictors(ModelSpec("cmf", hp), ds, ["A"], seed=0)["A"]
        records = ds.task_records("A")
        x = ds.feature_matrix(records)
        predictor.predict(x, [(r.pivot, r.target) for r in records])
        predictor.predict(x)
        assert dict(calls) == {"factorization._objective": 2 * (1 + 3 * 4),
                               "factorization.predict_cmf": len(x),
                               "factorization.predict_cold_start": len(x)}

    def test_features(self, calls, tmp_path):
        # One load per vocabulary file, through cli's attribute; one overlap
        # and one wmrr per (pivot, target) pair, through features'.
        langs = lang_codes(6)
        vocab_dir = tmp_path / "vocabs"
        vocab_dir.mkdir()
        for i, lang in enumerate(langs):
            (vocab_dir / f"{lang}.txt").write_text(f"x\nt{i}\nt{i + 1}\n")
        wals = tmp_path / "wals.csv"
        wals.write_text("lang,feature_value\n" + "".join(f"{lang},1A={i % 2}\n" for i, lang in enumerate(langs)))
        meta_csv = tmp_path / "meta.csv"
        meta_csv.write_text("lang,class,pretrain_words\n" + "".join(f"{lang},3,1000\n" for lang in langs))
        code = cli.main(["features", "--vocab-dir", str(vocab_dir), "--wals", str(wals),
                         "--meta", str(meta_csv), "--pivots", f"{langs[1]},{langs[4]}",
                         "--out", str(tmp_path / "features.csv")])
        assert code == 0
        pairs = 2 * (len(langs) - 1)
        assert dict(calls) == {"cli.load_vocab_file": len(langs),
                               "features.subword_overlap": pairs, "features.wmrr": pairs}


def evaluate_records(paths, threads, argv, out) -> bytes:
    """records.csv of ``evaluate`` in a fresh interpreter with
    OPENBLAS_NUM_THREADS set to ``threads``, or unset when it is None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run(
        [sys.executable, "-m", "xferlens.cli", "evaluate", "--scores", str(paths["scores"]),
         "--features", str(paths["features"]), "--meta", str(paths["meta"]), *argv,
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return (out / "records.csv").read_bytes()


# Every kind runs on numpy's one OpenBLAS, the GP's solves included. numpy
# loads it with OPENBLAS_NUM_THREADS threads, and cli.main then sets it to
# one thread, so no output depends on that variable.
def test_gp_and_maml_outputs_independent_of_blas_threads(tmp_path):
    paths = save_dataset(five_tasks(), tmp_path / "data5")
    argv = ["--models", "dgpr,mdgpr,maml,cmf,lasso,group-lasso,gbt", "--protocol", "lolo",
            "--task", "A"]
    outputs = [evaluate_records(paths, threads, argv, tmp_path / f"out_{threads}")
               for threads in ("1", None)]
    assert outputs[0] == outputs[1]


def test_large_gp_covariance_independent_of_blas_threads(tmp_path):
    # mdgpr under llro on t4 fits one covariance over 153 rows. From 128 rows
    # on, numpy's dpotrf on two threads gives other bits than on one.
    langs = lang_codes(34)
    weights = [0.08, 0.06, 0, 0.05, -0.04, 0.05, 0, -0.03, 0.02]
    ds = planted_dataset({f"t{i}": langs for i in range(5)}, np.array(weights), noise=0.03,
                         seed=1, classes={lang: (3, 5)[i % 2] for i, lang in enumerate(langs)})
    paths = save_dataset(ds, tmp_path / "data")
    argv = ["--models", "mdgpr", "--protocol", "llro", "--task", "t4"]
    outputs = [evaluate_records(paths, threads, argv, tmp_path / f"out_{threads}")
               for threads in ("1", "2")]
    assert outputs[0].count(b"\nmdgpr,llro,t4,") == 17
    assert outputs[0] == outputs[1]
