"""Contracts of the GP and MAML solvers that no output shows: the calls the
benchmark's tracer counts, and independence from the BLAS thread count."""

import collections
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import lang_codes, planted_dataset
from xferlens import gp, meta
from xferlens.data import save_dataset
from xferlens.evaluation import ModelSpec, fit_predictors

ROOT = Path(__file__).resolve().parents[1]

# bench/tracing.py replaces these module attributes by counting wrappers and
# derives gp.mll_evals, gp.cho_solve_s, meta.adapt_calls and the per-row
# prediction invariants from their calls. Tier-1 runs no traced pass, so a
# refactor that calls them by another name (or not at all) would pass here
# and break the benchmark's invariants silently.
COUNTED = ((gp, "cholesky"), (gp, "cho_solve"), (gp, "predict_gp"),
           (meta, "adapt"), (meta, "predict_net"))


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

    def test_maml(self, calls):
        fit_and_predict("maml", {"meta_epochs": 3}, meta_tasks=["B", "C", "D"])
        # meta_epochs x helpers adaptations in meta_train, one to the task,
        # and one batched prediction call.
        assert dict(calls) == {"meta.adapt": 3 * 3 + 1, "meta.predict_net": 1}


def test_gp_and_maml_outputs_independent_of_blas_threads(tmp_path):
    paths = save_dataset(five_tasks(), tmp_path / "data5")
    outputs = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(ROOT / "src")
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"out_{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "xferlens.cli", "evaluate",
             "--scores", str(paths["scores"]), "--features", str(paths["features"]),
             "--meta", str(paths["meta"]), "--models", "dgpr,mdgpr,maml",
             "--protocol", "lolo", "--task", "A", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "records.csv").read_bytes())
    assert outputs[0] == outputs[1]
