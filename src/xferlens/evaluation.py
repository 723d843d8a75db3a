"""Evaluation harness: run any model kind under LOLO or LLRO, collect
per-record absolute errors, and aggregate them into report.json's results.

Single-task kinds (lasso, gbt, dgpr, and the within-task baseline) are fit on
the eval task's train rows only; multi-task kinds additionally see the full
data of every helper task, including the held-out language, mirroring the
test protocols.

A protocol maps (dataset, eval task) to a list of ``data.Fold``. One runner,
``run_folds``, checks each fold with one guard, then fits and scores it.

``fit_predictors`` is the one estimator layer: it fits a kind once on a
``Dataset`` and returns a ``Predictor`` per requested task, mapping raw
feature rows to scores. ``evaluate`` fits it on each fold's train side and
``explain`` on the full data. Two kinds have modes, chosen by the caller:
maml meta-trains on an explicit task list (the helpers of the eval task
under a protocol, every task for ``explain``), and cmf predicts pairs seen
in training from its factors only when the rows' (pivot, target) pairs are
given; ``explain`` gives none, so its cmf rows are all cold-start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import baselines, factorization, gp, meta, sparse_linear
from .data import (
    Dataset,
    Fold,
    LangId,
    PerformanceRecord,
    Scaler,
    TaskId,
    fit_scaler,
    make_llro_split,
    make_lolo_splits,
    standardize,
)

_DEFAULT_HYPERPARAMS: dict[str, dict] = {
    "awt": {},
    "aat": {},
    "lasso": {"lambda": 0.01, "tol": 1e-6, "max_iter": 10000},
    "gbt": {"n_estimators": 100, "max_depth": 10, "learning_rate": 0.1},
    "dgpr": {"lr": 0.01, "epochs": 200, "hidden": (50, 10)},
    "group-lasso": {"lambda_group": 0.01, "tol": 1e-6, "max_iter": 10000},
    "cmf": {"d_latent": 5, "reg": 0.1, "alpha": 0.5, "sweeps": 50, "restarts": 3},
    "mdgpr": {"lr": 0.01, "epochs": 200, "hidden": (50, 10)},
    "maml": {
        "inner_steps": 5,
        "inner_lr": 0.01,
        "outer_lr": 0.001,
        "meta_epochs": 500,
        "hidden": (50, 10),
    },
}

MODEL_KINDS = tuple(_DEFAULT_HYPERPARAMS)

PROTOCOLS = ("lolo", "llro")

#: Tasks with at most this many target languages count as low-data.
LOW_DATA_MAX_TARGETS = 10


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}, choose from {MODEL_KINDS}")
        unknown = set(self.hyperparameters) - set(_DEFAULT_HYPERPARAMS[self.kind])
        if unknown:
            raise ValueError(f"unknown hyperparameters for {self.kind}: {sorted(unknown)}")

    def merged(self) -> dict:
        return {**_DEFAULT_HYPERPARAMS[self.kind], **self.hyperparameters}

    def to_dict(self) -> dict:
        hp = {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in sorted(self.merged().items())
        }
        return {"kind": self.kind, "hyperparameters": hp, "seed": self.seed}


# ---------------------------------------------------------------------------
# Estimator layer: the one fit of each kind, shared by evaluate and explain

Pair = tuple[LangId, LangId]
RowPredict = Callable[[np.ndarray, Sequence[Pair] | None], Sequence[float]]


@dataclass(frozen=True)
class Predictor:
    """A fitted model kind's predictions for one task (see ``fit_predictors``).

    ``predict(x, pairs)`` maps raw feature rows (NaN marks a missing value)
    to scores; ``pairs`` holds each row's (pivot, target). awt and aat read
    only the pairs. cmf predicts a pair seen in training from its factors
    when the pairs are given, and every row cold-start from its features
    when they are not. A score that is not finite (a diverged fit) is a
    ValueError. ``model`` and ``scaler`` are the fitted linear model and
    feature scaler of lasso and group-lasso, for linear attributions.
    """

    rows: RowPredict
    model: sparse_linear.LinearModel | None = None
    scaler: Scaler | None = None

    def predict(self, x: np.ndarray, pairs: Sequence[Pair] | None = None) -> np.ndarray:
        out = np.asarray(self.rows(np.atleast_2d(np.asarray(x, dtype=float)), pairs), dtype=float)
        if not np.isfinite(out).all():
            i = int(np.flatnonzero(~np.isfinite(out))[0])
            where = f"row {i}" if pairs is None else f"target {pairs[i][1]!r}"
            raise ValueError(f"prediction {out[i]} for {where} is not finite")
        return out


def _gp_hidden(hp: dict) -> tuple[int, ...]:
    return tuple(int(h) for h in hp["hidden"])


def _task_xy(ds: Dataset, task: TaskId) -> tuple[np.ndarray, np.ndarray]:
    records = ds.task_records(task)
    return ds.feature_matrix(records), ds.scores(records)


def _pooled_scaling(ds: Dataset) -> tuple[Scaler, dict[TaskId, tuple[np.ndarray, np.ndarray]]]:
    """One scaler fit on every row of ``ds``, and each task's scaled rows."""
    scaler = fit_scaler(ds.feature_matrix(ds.records))
    data = {}
    for task in sorted(ds.tasks):
        x_raw, y = _task_xy(ds, task)
        data[task] = (scaler.transform(x_raw), y)
    return scaler, data


def _fit_gp(data, multi_task: bool, hp: dict, seed: int) -> gp.GpState:
    return gp.fit_gp(data, multi_task=multi_task, lr=hp["lr"], epochs=hp["epochs"],
                     seed=seed, hidden=_gp_hidden(hp))


def _baseline_rows(predict_one, ds: Dataset, task: TaskId) -> RowPredict:
    def rows(x, pairs):
        if pairs is None:
            raise ValueError("the averaging baselines predict from (pivot, target) pairs")
        return [predict_one(ds, task, pivot, target) for pivot, target in pairs]

    return rows


def _linear_rows(model, scaler: Scaler, task: TaskId | None) -> RowPredict:
    return lambda x, pairs: [
        sparse_linear.predict_linear(model, row, task=task) for row in scaler.transform(x)
    ]


def _gp_rows(state: gp.GpState, scaler: Scaler, task: TaskId) -> RowPredict:
    return lambda x, pairs: [gp.predict_gp(state, row, task)[0] for row in scaler.transform(x)]


def _fit_awt(ds: Dataset, task: TaskId, hp: dict, seed: int) -> Predictor:
    return Predictor(_baseline_rows(baselines.predict_awt, ds, task))


def _fit_aat(ds: Dataset, task: TaskId, hp: dict, seed: int) -> Predictor:
    return Predictor(_baseline_rows(baselines.predict_aat, ds, task))


def _fit_lasso(ds: Dataset, task: TaskId, hp: dict, seed: int) -> Predictor:
    x_raw, y = _task_xy(ds, task)
    x_std, scaler = standardize(x_raw, x_raw)
    model = sparse_linear.fit_lasso(x_std, y, hp["lambda"], hp["tol"], hp["max_iter"])
    return Predictor(_linear_rows(model, scaler, None), model, scaler)


def _fit_gbt(ds: Dataset, task: TaskId, hp: dict, seed: int) -> Predictor:
    x_raw, y = _task_xy(ds, task)
    scaler = fit_scaler(x_raw)
    model = baselines.fit_gbt(
        scaler.impute(x_raw), y, hp["n_estimators"], hp["max_depth"], hp["learning_rate"]
    )
    return Predictor(
        lambda x, pairs: [baselines.predict_gbt(model, row) for row in scaler.impute(x)]
    )


def _fit_dgpr(ds: Dataset, task: TaskId, hp: dict, seed: int) -> Predictor:
    x_raw, y = _task_xy(ds, task)
    x_std, scaler = standardize(x_raw, x_raw)
    state = _fit_gp({task: (x_std, y)}, False, hp, seed)
    return Predictor(_gp_rows(state, scaler, task))


def _fit_group_lasso(
    ds: Dataset, tasks: Sequence[TaskId], hp: dict, seed: int
) -> dict[TaskId, Predictor]:
    all_tasks = sorted(ds.tasks)
    xs, ys, scalers = [], [], {}
    for task in all_tasks:
        x_raw, y = _task_xy(ds, task)
        x_std, scalers[task] = standardize(x_raw, x_raw)
        xs.append(x_std)
        ys.append(y)
    model = sparse_linear.fit_group_lasso(
        xs, ys, hp["lambda_group"], hp["tol"], hp["max_iter"], tasks=all_tasks
    )
    return {
        task: Predictor(_linear_rows(model, scalers[task], task), model, scalers[task])
        for task in tasks
    }


def _fit_cmf(
    ds: Dataset, tasks: Sequence[TaskId], hp: dict, seed: int
) -> dict[TaskId, Predictor]:
    train_pairs = sorted({(r.pivot, r.target) for r in ds.records})
    x_pairs_raw = np.array([ds.features[p].as_array() for p in train_pairs])
    imputer = fit_scaler(x_pairs_raw)
    rank = min(hp["d_latent"], len(ds.tasks), len(train_pairs))  # the highest fit_cmf accepts
    model = factorization.fit_cmf(
        [(r.task, (r.pivot, r.target), r.score) for r in ds.records],
        train_pairs, imputer.impute(x_pairs_raw), rank, hp["reg"], hp["alpha"],
        hp["sweeps"], seed, hp["restarts"],
    )

    def cmf_rows(task: TaskId) -> RowPredict:
        def rows(x, pairs):
            x = imputer.impute(x)
            if pairs is None:
                return [factorization.predict_cold_start(model, task, row) for row in x]
            return [
                factorization.predict_cmf(model, task, pair)
                if pair in model.pair_index
                else factorization.predict_cold_start(model, task, row)
                for pair, row in zip(pairs, x)
            ]

        return rows

    return {task: Predictor(cmf_rows(task)) for task in tasks}


def _fit_mdgpr(
    ds: Dataset, tasks: Sequence[TaskId], hp: dict, seed: int
) -> dict[TaskId, Predictor]:
    scaler, data = _pooled_scaling(ds)
    state = _fit_gp(data, True, hp, seed)
    return {task: Predictor(_gp_rows(state, scaler, task)) for task in tasks}


def _fit_maml(
    ds: Dataset, tasks: Sequence[TaskId], hp: dict, seed: int, meta_tasks: Sequence[TaskId]
) -> dict[TaskId, Predictor]:
    if not meta_tasks:
        raise ValueError("maml requires at least one helper task")
    scaler, data = _pooled_scaling(ds)
    cfg = meta.MamlConfig(
        inner_steps=hp["inner_steps"],
        inner_lr=hp["inner_lr"],
        outer_lr=hp["outer_lr"],
        meta_epochs=hp["meta_epochs"],
        net_shape=(len(scaler.mean), *_gp_hidden(hp), 1),
    )
    theta = meta.meta_train({task: data[task] for task in meta_tasks}, cfg, seed)

    def net_rows(task: TaskId) -> RowPredict:
        adapted = meta.adapt(theta, *data[task], cfg)
        return lambda x, pairs: meta.predict_net(adapted, scaler.transform(x))

    return {task: Predictor(net_rows(task)) for task in tasks}


#: Kinds fit once per requested task, on that task's rows only.
_PER_TASK_FITS = {
    "awt": _fit_awt, "aat": _fit_aat, "lasso": _fit_lasso, "gbt": _fit_gbt, "dgpr": _fit_dgpr,
}
#: Kinds fit once, jointly, on every task of the dataset; the helper curve's kinds.
_JOINT_FITS = {"group-lasso": _fit_group_lasso, "cmf": _fit_cmf, "mdgpr": _fit_mdgpr}
JOINT_KINDS = tuple(_JOINT_FITS)


def fit_predictors(
    spec: ModelSpec,
    ds: Dataset,
    tasks: Sequence[TaskId],
    seed: int,
    meta_tasks: Sequence[TaskId] | None = None,
) -> dict[TaskId, Predictor]:
    """Fit ``spec.kind`` on ``ds``; a predictor for each of ``tasks``.

    lasso, gbt and dgpr fit once per requested task; group-lasso, cmf and
    mdgpr fit once on every task of ``ds``. maml meta-trains once on
    ``meta_tasks`` (every task of ``ds`` when None), in that order, then
    adapts to each requested task's rows. awt and aat fit nothing.
    """
    hp = spec.merged()
    if spec.kind == "maml":
        meta_tasks = sorted(ds.tasks) if meta_tasks is None else meta_tasks
        return _fit_maml(ds, tasks, hp, seed, meta_tasks)
    if spec.kind in _JOINT_FITS:
        return _JOINT_FITS[spec.kind](ds, tasks, hp, seed)
    return {task: _PER_TASK_FITS[spec.kind](ds, task, hp, seed) for task in tasks}


def _fit_and_predict(
    spec: ModelSpec,
    train: Dataset,
    test_records: Sequence[PerformanceRecord],
    eval_task: TaskId,
    seed: int,
) -> np.ndarray:
    """Fit on a fold's train side, then predict its test rows.

    maml meta-trains on the helper tasks only, never on the eval task.
    """
    helpers = [t for t in sorted(train.tasks) if t != eval_task]
    predictor = fit_predictors(spec, train, [eval_task], seed, meta_tasks=helpers)[eval_task]
    pairs = [(r.pivot, r.target) for r in test_records]
    return predictor.predict(train.feature_matrix(test_records), pairs)


# ---------------------------------------------------------------------------
# Protocol runners

def protocol_folds(ds: Dataset, protocol: str, eval_task: TaskId) -> list[Fold]:
    """The folds of ``eval_task`` under ``protocol``. bench/tracing.py wraps the
    split makers by name, so they are called through this module's globals."""
    if protocol == "lolo":
        return make_lolo_splits(ds, eval_task)
    if protocol == "llro":
        return make_llro_split(ds, eval_task)
    raise ValueError(f"unknown protocol {protocol!r}")


def _check_fold(ds: Dataset, eval_task: TaskId, fold: Fold) -> None:
    """Test holds only eval-task rows of the held-out targets, train none, and
    together they hold every record object of ``ds``."""
    held_out = set(fold.held_out.split(";"))
    if not all(r.task == eval_task and r.target in held_out for r in fold.test.records):
        raise RuntimeError(f"test side holds a row that is not an eval-task row of {fold.held_out!r}")
    for r in fold.train.records:
        if r.task == eval_task and r.target in held_out:
            raise RuntimeError(f"leakage: held-out language {r.target!r} present in eval-task train rows")
    if sorted(map(id, fold.train.records + fold.test.records)) != sorted(map(id, ds.records)):
        raise RuntimeError("the fold's train and test sides do not hold every record")


def _fold_seed(spec: ModelSpec, fold_index: int) -> int:
    return spec.seed * 100003 + fold_index


def run_folds(ds: Dataset, spec: ModelSpec, protocol: str, eval_task: TaskId,
              folds: Sequence[Fold]) -> dict:
    """Check, fit and score each fold of ``eval_task``: the task's block of
    report.json, its folds' records with their absolute errors, and ``mae``,
    the mean over folds of each fold's MAE. A fold whose fit or prediction
    fails (a prediction that is not finite included) raises a RuntimeError
    that names the held-out target under lolo and the protocol otherwise.
    """
    fold_blocks, fold_maes = [], []
    for i, fold in enumerate(folds):
        _check_fold(ds, eval_task, fold)
        test = fold.test.records
        try:
            preds = _fit_and_predict(spec, fold.train, test, eval_task, _fold_seed(spec, i))
        except Exception as err:
            context = f", held-out {fold.held_out!r}" if protocol == "lolo" else f" under {protocol}"
            raise RuntimeError(
                f"model {spec.kind!r} failed on task {eval_task!r}{context}: {err}"
            ) from err
        records = [
            {"pivot": r.pivot, "target": r.target, "y": r.score, "yhat": yhat,
             "abs_err": abs(r.score - yhat)}
            for r, yhat in zip(test, map(float, preds))
        ]
        fold_blocks.append({"held_out": fold.held_out, "records": records})
        fold_maes.append(float(np.mean([r["abs_err"] for r in records])))
    return {
        "task": eval_task,
        "n_targets": len(ds.targets(eval_task)),
        "mae": float(np.mean(fold_maes)),
        "folds": fold_blocks,
    }


def run_lolo(ds: Dataset, spec: ModelSpec, eval_task: TaskId) -> dict:
    """One fold per target language of the eval task; helpers keep all data."""
    return run_folds(ds, spec, "lolo", eval_task, protocol_folds(ds, "lolo", eval_task))


def run_llro(ds: Dataset, spec: ModelSpec, eval_task: TaskId) -> dict:
    """Single split: train on class 4-5 target languages, test on class <= 3."""
    return run_folds(ds, spec, "llro", eval_task, protocol_folds(ds, "llro", eval_task))


def aggregate(spec: ModelSpec, protocol: str, task_blocks: Iterable[dict]) -> dict:
    """The report.json result of ``spec`` under ``protocol`` from its task blocks.

    Adds the macro average of the task MAEs over tasks and the low-data
    average over the tasks with at most ``LOW_DATA_MAX_TARGETS`` targets
    (None when there is none).
    """
    blocks = list(task_blocks)
    if not blocks:
        raise ValueError("no task blocks to aggregate")
    low = [b["mae"] for b in blocks if b["n_targets"] <= LOW_DATA_MAX_TARGETS]
    return {
        "model": spec.to_dict(),
        "protocol": protocol,
        "per_task_mae": dict(sorted({b["task"]: b["mae"] for b in blocks}.items())),
        "macro_average_mae": float(np.mean([b["mae"] for b in blocks])),
        "low_data_average_mae": float(np.mean(low)) if low else None,
        "tasks": blocks,
    }


def helper_curve(
    ds: Dataset, spec: ModelSpec, eval_task: TaskId
) -> list[tuple[int, float]]:
    """LOLO MAE of the eval task as helper tasks are added one at a time.

    Helpers enter in sorted-name order, so the curve is deterministic. Every
    kind's curve starts at no helpers (cmf fits with the rank its tasks allow).
    """
    helpers = sorted(ds.tasks - {eval_task})
    curve = []
    for k in range(len(helpers) + 1):
        keep = set(helpers[:k]) | {eval_task}
        sub = ds.restrict([r for r in ds.records if r.task in keep])
        curve.append((k, run_lolo(sub, spec, eval_task)["mae"]))
    return curve


# ---------------------------------------------------------------------------
# Report rendering

def render_table(report_dicts: Sequence[dict]) -> str:
    """Text table of MAE x 100 per task and model, with the two average rows."""
    if not report_dicts:
        return "(no results)\n"
    models = [d["model"]["kind"] for d in report_dicts]
    task_sizes: dict[str, int] = {}
    for d in report_dicts:
        for t in d["tasks"]:
            task_sizes[t["task"]] = t["n_targets"]
    tasks = sorted(task_sizes, key=lambda t: (task_sizes[t], t))

    def cell(d: dict, task: str) -> str:
        mae = d["per_task_mae"].get(task)
        return f"{100 * mae:.2f}" if mae is not None else "-"

    header = ["Task", "|T|", *models]
    rows = [[t, str(task_sizes[t]), *(cell(d, t) for d in report_dicts)] for t in tasks]
    avg = [
        "Average",
        "",
        *(f"{100 * d['macro_average_mae']:.2f}" for d in report_dicts),
    ]
    low = ["Average (|T| <= 10)", ""]
    for d in report_dicts:
        v = d["low_data_average_mae"]
        low.append(f"{100 * v:.2f}" if v is not None else "-")
    all_rows = [header, *rows, avg, low]
    widths = [max(len(r[i]) for r in all_rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(all_rows):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    protocol = report_dicts[0]["protocol"]
    return f"Protocol: {protocol} (MAE x 100)\n" + "\n".join(lines) + "\n"
