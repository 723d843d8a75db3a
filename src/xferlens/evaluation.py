"""Evaluation harness: run any model kind under LOLO or LLRO, collect
per-record absolute errors, and aggregate them into a report.

Single-task kinds (lasso, gbt, dgpr, and the within-task baseline) are fit on
the eval task's train rows only; multi-task kinds additionally see the full
data of every helper task, including the held-out language, mirroring the
test protocols. Folds are independent and may be evaluated concurrently
(``XFERLENS_THREADS``); results merge in fold order so output is
deterministic either way.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import baselines, factorization, gp, meta, sparse_linear
from .data import (
    Dataset,
    LangId,
    PerformanceRecord,
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

#: Kinds whose training data includes the helper tasks.
MULTI_TASK_KINDS = frozenset({"aat", "group-lasso", "cmf", "mdgpr", "maml"})

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
            raise ValueError(f"unknown model kind {self.kind!r}")
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


@dataclass(frozen=True)
class PredictionRecord:
    pivot: LangId
    target: LangId
    y_true: float
    y_pred: float

    @property
    def abs_err(self) -> float:
        return abs(self.y_true - self.y_pred)


@dataclass(frozen=True)
class FoldResult:
    held_out: str
    records: tuple[PredictionRecord, ...]

    @property
    def mae(self) -> float:
        return float(np.mean([r.abs_err for r in self.records]))


@dataclass(frozen=True)
class TaskFragment:
    task: TaskId
    protocol: str
    n_targets: int
    folds: tuple[FoldResult, ...]

    @property
    def task_mae(self) -> float:
        """Mean over folds (i.e. held-out languages) of the per-fold MAE."""
        return float(np.mean([f.mae for f in self.folds]))


@dataclass(frozen=True)
class EvalReport:
    spec: ModelSpec
    protocol: str
    fragments: tuple[TaskFragment, ...]

    @property
    def per_task_mae(self) -> dict[TaskId, float]:
        return {f.task: f.task_mae for f in self.fragments}

    @property
    def macro_average(self) -> float:
        return float(np.mean([f.task_mae for f in self.fragments]))

    @property
    def low_data_average(self) -> float | None:
        low = [f.task_mae for f in self.fragments if f.n_targets <= LOW_DATA_MAX_TARGETS]
        return float(np.mean(low)) if low else None


# ---------------------------------------------------------------------------
# Model adapters

def _gp_hidden(hp: dict) -> tuple[int, ...]:
    return tuple(int(h) for h in hp["hidden"])


def _fit_and_predict(
    spec: ModelSpec,
    train: Dataset,
    test_records: Sequence[PerformanceRecord],
    eval_task: TaskId,
    seed: int,
) -> list[float]:
    kind = spec.kind
    hp = spec.merged()

    if kind == "awt":
        return [
            baselines.predict_awt(train, eval_task, r.pivot, r.target) for r in test_records
        ]
    if kind == "aat":
        return [
            baselines.predict_aat(train, eval_task, r.pivot, r.target) for r in test_records
        ]

    eval_records = train.task_records(eval_task)
    x_eval_raw = train.feature_matrix(eval_records)
    y_eval = train.scores(eval_records)
    x_test_raw = train.feature_matrix(test_records)

    if kind == "lasso":
        x_std, scaler = standardize(x_eval_raw, x_eval_raw)
        model = sparse_linear.fit_lasso(x_std, y_eval, hp["lambda"], hp["tol"], hp["max_iter"])
        return [
            sparse_linear.predict_linear(model, scaler.transform(row)) for row in x_test_raw
        ]

    if kind == "gbt":
        scaler = fit_scaler(x_eval_raw)
        model = baselines.fit_gbt(
            scaler.impute(x_eval_raw),
            y_eval,
            hp["n_estimators"],
            hp["max_depth"],
            hp["learning_rate"],
            seed,
        )
        return [baselines.predict_gbt(model, scaler.impute(row)) for row in x_test_raw]

    if kind == "dgpr":
        x_std, scaler = standardize(x_eval_raw, x_eval_raw)
        state = gp.fit_gp(
            {eval_task: (x_std, y_eval)},
            multi_task=False,
            lr=hp["lr"],
            epochs=hp["epochs"],
            seed=seed,
            hidden=_gp_hidden(hp),
        )
        return [
            gp.predict_gp(state, scaler.transform(row), eval_task)[0] for row in x_test_raw
        ]

    tasks = sorted(train.tasks)

    if kind == "group-lasso":
        xs, ys, scalers = [], [], {}
        for task in tasks:
            recs = train.task_records(task)
            x_raw = train.feature_matrix(recs)
            x_std, scalers[task] = standardize(x_raw, x_raw)
            xs.append(x_std)
            ys.append(train.scores(recs))
        model = sparse_linear.fit_group_lasso(
            xs, ys, hp["lambda_group"], hp["tol"], hp["max_iter"], tasks=tasks
        )
        scaler = scalers[eval_task]
        return [
            sparse_linear.predict_linear(model, scaler.transform(row), task=eval_task)
            for row in x_test_raw
        ]

    if kind == "cmf":
        pairs = sorted({(r.pivot, r.target) for r in train.records})
        x_pairs_raw = np.array([train.features[p].as_array() for p in pairs])
        imputer = fit_scaler(x_pairs_raw)
        model = factorization.fit_cmf(
            [(r.task, (r.pivot, r.target), r.score) for r in train.records],
            pairs,
            imputer.impute(x_pairs_raw),
            hp["d_latent"],
            hp["reg"],
            hp["alpha"],
            hp["sweeps"],
            seed,
            hp["restarts"],
        )
        preds = []
        for r, row in zip(test_records, x_test_raw):
            pair = (r.pivot, r.target)
            if pair in model.pair_index:
                preds.append(factorization.predict_cmf(model, eval_task, pair))
            else:
                preds.append(
                    factorization.predict_cold_start(model, eval_task, imputer.impute(row))
                )
        return preds

    if kind == "mdgpr":
        x_all_raw = train.feature_matrix(train.records)
        scaler = fit_scaler(x_all_raw)
        data = {}
        for task in tasks:
            recs = train.task_records(task)
            data[task] = (scaler.transform(train.feature_matrix(recs)), train.scores(recs))
        state = gp.fit_gp(
            data,
            multi_task=True,
            lr=hp["lr"],
            epochs=hp["epochs"],
            seed=seed,
            hidden=_gp_hidden(hp),
        )
        return [
            gp.predict_gp(state, scaler.transform(row), eval_task)[0] for row in x_test_raw
        ]

    if kind == "maml":
        helpers = [t for t in tasks if t != eval_task]
        if not helpers:
            raise ValueError("maml requires at least one helper task")
        x_all_raw = train.feature_matrix(train.records)
        scaler = fit_scaler(x_all_raw)
        helper_data = {}
        for task in helpers:
            recs = train.task_records(task)
            helper_data[task] = (
                scaler.transform(train.feature_matrix(recs)),
                train.scores(recs),
            )
        n_features = x_all_raw.shape[1]
        cfg = meta.MamlConfig(
            inner_steps=hp["inner_steps"],
            inner_lr=hp["inner_lr"],
            outer_lr=hp["outer_lr"],
            meta_epochs=hp["meta_epochs"],
            net_shape=(n_features, *_gp_hidden(hp), 1),
        )
        theta = meta.meta_train(helper_data, cfg, seed)
        adapted = meta.adapt(theta, scaler.transform(x_eval_raw), y_eval, cfg)
        return [float(v) for v in meta.predict_net(adapted, scaler.transform(x_test_raw))]

    raise ValueError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# Protocol runners

def _fold_workers() -> int:
    try:
        return max(0, int(os.environ.get("XFERLENS_THREADS", "0")))
    except ValueError:
        return 0


def _map_ordered(fn, items):
    workers = _fold_workers()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _check_fold_integrity(
    train: Dataset, eval_task: TaskId, held_out_targets: set[LangId], full_counts: dict[TaskId, int]
) -> None:
    """Structural guards: no held-out eval rows in train, helpers at full size."""
    for r in train.records:
        if r.task == eval_task and r.target in held_out_targets:
            raise RuntimeError(
                f"leakage: held-out language {r.target!r} present in eval-task train rows"
            )
    counts: dict[TaskId, int] = {}
    for r in train.records:
        counts[r.task] = counts.get(r.task, 0) + 1
    for task, full in full_counts.items():
        if task != eval_task and counts.get(task, 0) != full:
            raise RuntimeError(f"helper task {task!r} lost records in a fold")


def _fold_seed(spec: ModelSpec, fold_index: int) -> int:
    return spec.seed * 100003 + fold_index


def run_lolo(ds: Dataset, spec: ModelSpec, eval_task: TaskId) -> TaskFragment:
    """One fold per target language of the eval task; helpers keep all data."""
    splits = make_lolo_splits(ds, eval_task)
    full_counts = {t: len(ds.task_records(t)) for t in ds.tasks}

    def run_fold(arg: tuple[int, object]) -> FoldResult:
        i, split = arg
        _check_fold_integrity(split.train, eval_task, {split.held_out}, full_counts)
        try:
            preds = _fit_and_predict(
                spec, split.train, split.test.records, eval_task, _fold_seed(spec, i)
            )
        except Exception as err:
            raise RuntimeError(
                f"model {spec.kind!r} failed on task {eval_task!r}, "
                f"held-out {split.held_out!r}: {err}"
            ) from err
        records = tuple(
            PredictionRecord(r.pivot, r.target, r.score, float(p))
            for r, p in zip(split.test.records, preds)
        )
        return FoldResult(split.held_out, records)

    folds = _map_ordered(run_fold, list(enumerate(splits)))
    return TaskFragment(eval_task, "lolo", len(splits), tuple(folds))


def run_llro(ds: Dataset, spec: ModelSpec, eval_task: TaskId) -> TaskFragment:
    """Single split: train on class 4-5 target languages, test on class <= 3."""
    train, test = make_llro_split(ds, eval_task)
    held_out_targets = {r.target for r in test.records}
    full_counts = {t: len(ds.task_records(t)) for t in ds.tasks}
    _check_fold_integrity(train, eval_task, held_out_targets, full_counts)
    try:
        preds = _fit_and_predict(spec, train, test.records, eval_task, _fold_seed(spec, 0))
    except Exception as err:
        raise RuntimeError(
            f"model {spec.kind!r} failed on task {eval_task!r} under llro: {err}"
        ) from err
    records = tuple(
        PredictionRecord(r.pivot, r.target, r.score, float(p))
        for r, p in zip(test.records, preds)
    )
    fold = FoldResult(";".join(sorted(held_out_targets)), records)
    return TaskFragment(eval_task, "llro", len(ds.targets(eval_task)), (fold,))


def run_protocol(ds: Dataset, spec: ModelSpec, protocol: str, eval_task: TaskId) -> TaskFragment:
    if protocol == "lolo":
        return run_lolo(ds, spec, eval_task)
    if protocol == "llro":
        return run_llro(ds, spec, eval_task)
    raise ValueError(f"unknown protocol {protocol!r}")


def aggregate(spec: ModelSpec, fragments: Iterable[TaskFragment]) -> EvalReport:
    """Macro averages over tasks, plus the low-data average (<= 10 targets)."""
    fragments = tuple(fragments)
    if not fragments:
        raise ValueError("no fragments to aggregate")
    protocols = {f.protocol for f in fragments}
    if len(protocols) != 1:
        raise ValueError(f"mixed protocols {sorted(protocols)}")
    return EvalReport(spec, fragments[0].protocol, fragments)


def helper_curve(
    ds: Dataset, spec: ModelSpec, eval_task: TaskId
) -> list[tuple[int, float]]:
    """LOLO MAE of the eval task as helper tasks are added one at a time.

    Helpers enter in sorted-name order, so the curve is deterministic.
    """
    helpers = sorted(ds.tasks - {eval_task})
    curve = []
    for k in range(len(helpers) + 1):
        keep = set(helpers[:k]) | {eval_task}
        sub = ds.restrict([r for r in ds.records if r.task in keep])
        fragment = run_lolo(sub, spec, eval_task)
        curve.append((k, fragment.task_mae))
    return curve


# ---------------------------------------------------------------------------
# Report serialization and rendering

def report_to_dict(report: EvalReport) -> dict:
    return {
        "model": report.spec.to_dict(),
        "protocol": report.protocol,
        "per_task_mae": {t: m for t, m in sorted(report.per_task_mae.items())},
        "macro_average_mae": report.macro_average,
        "low_data_average_mae": report.low_data_average,
        "tasks": [
            {
                "task": f.task,
                "n_targets": f.n_targets,
                "mae": f.task_mae,
                "folds": [
                    {
                        "held_out": fold.held_out,
                        "records": [
                            {
                                "pivot": r.pivot,
                                "target": r.target,
                                "y": r.y_true,
                                "yhat": r.y_pred,
                                "abs_err": r.abs_err,
                            }
                            for r in fold.records
                        ],
                    }
                    for fold in f.folds
                ],
            }
            for f in report.fragments
        ],
    }


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
