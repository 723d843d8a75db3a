"""Domain types, CSV ingestion, split construction, and standardization.

The dataset model is deliberately small: performance records keyed by
(model, task, pivot, target), one feature vector per (pivot, target) pair,
and optional per-language metadata (resource class, pre-training word count).
Datasets and splits are immutable after construction.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

#: Canonical feature order used everywhere a feature matrix is built.
FEATURE_NAMES = ("o_sw", "s_syn", "s_pho", "s_gen", "d_geo", "size", "wmrr", "fert", "pcw")

LANG_CODE_RE = re.compile(r"^[a-z]{2,3}(-[a-z0-9]+)*$")

LangId = str
TaskId = str

_SCORE_COLUMNS = ["model", "task", "pivot", "target", "score"]
_FEATURE_COLUMNS = ["pivot", "target", *FEATURE_NAMES]
_META_COLUMNS = ["lang", "class", "pretrain_words"]

# Feature ranges checked on construction; size and wmrr are unconstrained here.
_UNIT_RANGE = ("o_sw", "s_syn", "s_pho", "s_gen", "pcw")


class DataError(ValueError):
    """Schema or invariant violation in an input file, with file/line context."""

    def __init__(self, message: str, path: object = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(prefix + message)


def validate_lang(code: str) -> str:
    if not LANG_CODE_RE.match(code):
        raise ValueError(f"invalid language code {code!r}")
    return code


@dataclass(frozen=True)
class PerformanceRecord:
    """One observed zero-shot score for (model, task, pivot, target)."""

    model: str
    task: TaskId
    pivot: LangId
    target: LangId
    score: float

    def __post_init__(self):
        if not self.task:
            raise ValueError("task name must be non-empty")
        validate_lang(self.pivot)
        validate_lang(self.target)
        if self.pivot == self.target:
            raise ValueError(f"pivot equals target ({self.pivot})")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score out of range [0, 1]: {self.score}")


@dataclass(frozen=True)
class FeatureVector:
    """Feature values for a (pivot, target) pair; absent names sit in `missing`."""

    pivot: LangId
    target: LangId
    values: dict[str, float]
    missing: frozenset[str] = frozenset()

    def __post_init__(self):
        validate_lang(self.pivot)
        validate_lang(self.target)
        names = set(self.values) | set(self.missing)
        if names != set(FEATURE_NAMES):
            unknown = names - set(FEATURE_NAMES)
            if unknown:
                raise ValueError(f"unknown feature names {sorted(unknown)}")
            raise ValueError(
                f"feature names incomplete, missing {sorted(set(FEATURE_NAMES) - names)}"
            )
        overlap = set(self.values) & set(self.missing)
        if overlap:
            raise ValueError(f"features both present and missing: {sorted(overlap)}")
        for name in _UNIT_RANGE:
            v = self.values.get(name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} out of range [0, 1]: {v}")
        d_geo = self.values.get("d_geo")
        if d_geo is not None and d_geo < 0:
            raise ValueError(f"d_geo must be non-negative: {d_geo}")
        fert = self.values.get("fert")
        if fert is not None and fert < 1.0:
            raise ValueError(f"fert must be >= 1: {fert}")

    def as_array(self) -> np.ndarray:
        """Dense vector in FEATURE_NAMES order with NaN for missing entries."""
        return np.array(
            [self.values.get(name, np.nan) for name in FEATURE_NAMES], dtype=float
        )


@dataclass(frozen=True)
class LanguageMeta:
    """Resource-class taxonomy entry and pre-training corpus size for a language."""

    lang: LangId
    resource_class: int
    pretrain_words: float

    def __post_init__(self):
        validate_lang(self.lang)
        if self.resource_class not in range(6):
            raise ValueError(f"resource class must be in 0..5: {self.resource_class}")
        if self.pretrain_words <= 0:
            raise ValueError(f"pretrain_words must be positive: {self.pretrain_words}")


@dataclass(frozen=True)
class Dataset:
    """Records plus the feature and metadata tables they refer to."""

    records: tuple[PerformanceRecord, ...]
    features: dict[tuple[LangId, LangId], FeatureVector]
    meta: dict[LangId, LanguageMeta] = field(default_factory=dict)

    @property
    def tasks(self) -> frozenset[TaskId]:
        return frozenset(r.task for r in self.records)

    def task_records(self, task: TaskId) -> tuple[PerformanceRecord, ...]:
        return tuple(r for r in self.records if r.task == task)

    def targets(self, task: TaskId) -> tuple[LangId, ...]:
        """Distinct target languages of a task, sorted."""
        return tuple(sorted({r.target for r in self.records if r.task == task}))

    def restrict(self, records: Iterable[PerformanceRecord]) -> "Dataset":
        """Same feature/meta tables, different record subset."""
        return Dataset(tuple(records), self.features, self.meta)

    def feature_matrix(self, records: Sequence[PerformanceRecord]) -> np.ndarray:
        """Stacked feature rows (NaN marks missing values) for the given records."""
        return np.array(
            [self.features[(r.pivot, r.target)].as_array() for r in records], dtype=float
        ).reshape(len(records), len(FEATURE_NAMES))

    def scores(self, records: Sequence[PerformanceRecord]) -> np.ndarray:
        return np.array([r.score for r in records], dtype=float)


# ---------------------------------------------------------------------------
# CSV ingestion

def read_csv_rows(path: str | Path) -> list[tuple[int, list[str]]]:
    """CSV rows with their 1-based line numbers; comment lines (#...) skipped."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as err:
        raise DataError(str(err), path=path) from err
    return [
        (lineno, row)
        for lineno, row in enumerate(rows, start=1)
        if row and not row[0].lstrip().startswith("#")
    ]


def _check_header(path: Path, header: list[str], expected: list[str], optional: tuple[str, ...] = ()):
    header = [h.strip() for h in header]
    allowed = expected + [c for c in optional if c not in expected]
    if header[: len(expected)] != expected or any(c not in allowed for c in header):
        raise DataError(
            f"bad header {header!r}, expected {expected!r}"
            + (f" with optional {list(optional)!r}" if optional else ""),
            path=path,
            line=1,
        )
    return header


def _parse_float(cell: str, what: str, path: Path, line: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DataError(f"could not parse {what} {cell!r} as a number", path=path, line=line) from None


def load_scores_csv(path: str | Path) -> list[tuple[int, PerformanceRecord]]:
    """Parse scores.csv into (line, record) pairs.

    The optional ``scale`` column (``unit`` or ``percent``, default ``unit``)
    divides percentage scores by 100 before the [0, 1] range check.
    """
    path = Path(path)
    rows = read_csv_rows(path)
    if not rows:
        raise DataError("empty file", path=path, line=1)
    header = _check_header(path, rows[0][1], _SCORE_COLUMNS, optional=("scale",))
    has_scale = "scale" in header
    out: list[tuple[int, PerformanceRecord]] = []
    seen: set[tuple[str, str, str, str]] = set()
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise DataError(f"expected {len(header)} cells, got {len(row)}", path=path, line=lineno)
        model, task, pivot, target, score_cell = (c.strip() for c in row[:5])
        scale = row[5].strip() if has_scale and len(row) > 5 else "unit"
        if scale == "":
            scale = "unit"
        if scale not in ("unit", "percent"):
            raise DataError(f"scale must be 'unit' or 'percent', got {scale!r}", path=path, line=lineno)
        score = _parse_float(score_cell, "score", path, lineno)
        if scale == "percent":
            score /= 100.0
        if not 0.0 <= score <= 1.0:
            raise DataError(f"score out of range [0, 1]: {score}", path=path, line=lineno)
        key = (model, task, pivot, target)
        if key in seen:
            raise DataError(f"duplicate record for {key}", path=path, line=lineno)
        seen.add(key)
        try:
            record = PerformanceRecord(model, task, pivot, target, score)
        except ValueError as err:
            raise DataError(str(err), path=path, line=lineno) from None
        out.append((lineno, record))
    return out


def load_features_csv(path: str | Path) -> dict[tuple[LangId, LangId], FeatureVector]:
    """Parse features.csv; empty cells mark missing feature values."""
    path = Path(path)
    rows = read_csv_rows(path)
    if not rows:
        raise DataError("empty file", path=path, line=1)
    _check_header(path, rows[0][1], _FEATURE_COLUMNS)
    out: dict[tuple[LangId, LangId], FeatureVector] = {}
    for lineno, row in rows[1:]:
        if len(row) != len(_FEATURE_COLUMNS):
            raise DataError(
                f"expected {len(_FEATURE_COLUMNS)} cells, got {len(row)}", path=path, line=lineno
            )
        pivot, target = row[0].strip(), row[1].strip()
        values: dict[str, float] = {}
        missing: set[str] = set()
        for name, cell in zip(FEATURE_NAMES, row[2:]):
            cell = cell.strip()
            if cell == "":
                missing.add(name)
            else:
                values[name] = _parse_float(cell, name, path, lineno)
        try:
            fv = FeatureVector(pivot, target, values, frozenset(missing))
        except ValueError as err:
            raise DataError(str(err), path=path, line=lineno) from None
        if (pivot, target) in out:
            raise DataError(f"duplicate feature row for ({pivot}, {target})", path=path, line=lineno)
        out[(pivot, target)] = fv
    return out


def load_meta_csv(path: str | Path) -> dict[LangId, LanguageMeta]:
    path = Path(path)
    rows = read_csv_rows(path)
    if not rows:
        raise DataError("empty file", path=path, line=1)
    _check_header(path, rows[0][1], _META_COLUMNS)
    out: dict[LangId, LanguageMeta] = {}
    for lineno, row in rows[1:]:
        if len(row) != 3:
            raise DataError(f"expected 3 cells, got {len(row)}", path=path, line=lineno)
        lang = row[0].strip()
        try:
            cls = int(row[1])
        except ValueError:
            raise DataError(f"could not parse class {row[1]!r} as an integer", path=path, line=lineno) from None
        words = _parse_float(row[2].strip(), "pretrain_words", path, lineno)
        try:
            meta = LanguageMeta(lang, cls, words)
        except ValueError as err:
            raise DataError(str(err), path=path, line=lineno) from None
        if lang in out:
            raise DataError(f"duplicate metadata row for {lang}", path=path, line=lineno)
        out[lang] = meta
    return out


def load_dataset(
    scores_path: str | Path,
    features_path: str | Path,
    meta_path: str | Path | None = None,
) -> Dataset:
    """Load and cross-validate the three CSV inputs into a Dataset.

    Tasks are keyed by name alone, so the scores must all come from one
    multilingual model; a second ``model`` value is rejected, not pooled.
    """
    scored = load_scores_csv(scores_path)
    features = load_features_csv(features_path)
    meta = load_meta_csv(meta_path) if meta_path is not None else {}
    for lineno, record in scored:
        if record.model != scored[0][1].model:
            raise DataError(
                f"model {record.model!r} differs from {scored[0][1].model!r}: "
                "a scores file holds one model's scores",
                path=Path(scores_path),
                line=lineno,
            )
        if (record.pivot, record.target) not in features:
            raise DataError(
                f"no feature row for pair ({record.pivot}, {record.target})",
                path=Path(scores_path),
                line=lineno,
            )
    return Dataset(tuple(r for _, r in scored), features, meta)


# ---------------------------------------------------------------------------
# CSV writers (round-trip counterparts of the loaders)

def _fmt(v: float) -> str:
    return repr(float(v))


def write_scores_csv(records: Iterable[PerformanceRecord], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SCORE_COLUMNS)
        for r in records:
            writer.writerow([r.model, r.task, r.pivot, r.target, _fmt(r.score)])


def write_features_csv(
    features: Mapping[tuple[LangId, LangId], FeatureVector], path: str | Path
) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_FEATURE_COLUMNS)
        for pair in sorted(features):
            fv = features[pair]
            row = [fv.pivot, fv.target]
            for name in FEATURE_NAMES:
                row.append(_fmt(fv.values[name]) if name in fv.values else "")
            writer.writerow(row)


def write_meta_csv(meta: Mapping[LangId, LanguageMeta], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_META_COLUMNS)
        for lang in sorted(meta):
            m = meta[lang]
            writer.writerow([m.lang, str(m.resource_class), _fmt(m.pretrain_words)])


def save_dataset(ds: Dataset, directory: str | Path) -> dict[str, Path]:
    """Write scores/features/meta CSVs into a directory; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "scores": directory / "scores.csv",
        "features": directory / "features.csv",
        "meta": directory / "meta.csv",
    }
    write_scores_csv(ds.records, paths["scores"])
    write_features_csv(ds.features, paths["features"])
    write_meta_csv(ds.meta, paths["meta"])
    return paths


# ---------------------------------------------------------------------------
# Split construction

@dataclass(frozen=True)
class LoloSplit:
    train: Dataset
    test: Dataset
    held_out: LangId


def _partition(ds: Dataset, eval_task: TaskId, held_out: set[LangId]) -> tuple[Dataset, Dataset]:
    """(train, test): eval-task rows whose target is in ``held_out`` go to
    test, every other row to train, both in record order."""
    train, test = [], []
    for r in ds.records:
        (test if r.task == eval_task and r.target in held_out else train).append(r)
    return ds.restrict(train), ds.restrict(test)


def make_lolo_splits(ds: Dataset, eval_task: TaskId) -> list[LoloSplit]:
    """Leave-one-language-out folds for ``eval_task``.

    Each fold holds out one target language of the eval task; the train side
    keeps the remaining eval-task records plus the complete data of every
    helper task (including the held-out language).
    """
    if eval_task not in ds.tasks:
        raise ValueError(f"unknown task {eval_task!r}")
    targets = ds.targets(eval_task)
    if len(targets) < 2:
        raise ValueError(f"task {eval_task!r} has fewer than 2 target languages")
    return [LoloSplit(*_partition(ds, eval_task, {t}), held_out=t) for t in targets]


def make_llro_split(ds: Dataset, eval_task: TaskId) -> tuple[Dataset, Dataset]:
    """Leave-low-resource-languages-out split for ``eval_task``.

    Eval-task targets of resource class <= 3 form the test side; classes 4 and
    5 stay in train. Helper tasks retain all of their languages.
    """
    if eval_task not in ds.tasks:
        raise ValueError(f"unknown task {eval_task!r}")
    targets = ds.targets(eval_task)
    for target in targets:
        if target not in ds.meta:
            raise ValueError(f"missing taxonomy entry for language {target!r}")
    low = {t for t in targets if ds.meta[t].resource_class <= 3}
    if not low:
        raise ValueError(f"empty test side: no class <= 3 targets in task {eval_task!r}")
    if len(low) == len(targets):
        raise ValueError(f"empty train side: no class 4-5 targets in task {eval_task!r}")
    return _partition(ds, eval_task, low)


# ---------------------------------------------------------------------------
# Standardization

@dataclass(frozen=True)
class Scaler:
    """Train-fold feature statistics; missing values impute to the train mean.

    Constant dimensions keep scale 1 so they transform to exactly 0.
    """

    mean: np.ndarray
    scale: np.ndarray

    def impute(self, x: np.ndarray) -> np.ndarray:
        x = np.array(x, dtype=float, copy=True)
        idx = np.where(np.isnan(x))
        x[idx] = self.mean[idx[-1]]
        return x

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (self.impute(x) - self.mean) / self.scale


def fit_scaler(train: np.ndarray) -> Scaler:
    train = np.asarray(train, dtype=float)
    if train.ndim != 2 or train.shape[0] == 0:
        raise ValueError("train feature matrix must be non-empty and 2-D")
    with np.errstate(invalid="ignore"):
        mean = np.nanmean(train, axis=0)
    mean = np.where(np.isnan(mean), 0.0, mean)  # all-missing dimension
    imputed = np.where(np.isnan(train), mean, train)
    # Detect constant dimensions by exact equality: their computed mean can be
    # off by an ulp, and dividing that noise by a rounding-level std would blow
    # it up to order-one values.
    constant = imputed.max(axis=0) == imputed.min(axis=0)
    mean = np.where(constant, imputed[0], mean)
    std = imputed.std(axis=0)  # population std, matching the imputed train matrix
    scale = np.where(constant | (std == 0), 1.0, std)
    return Scaler(mean=mean, scale=scale)


def standardize(train: np.ndarray, apply_to: np.ndarray) -> tuple[np.ndarray, Scaler]:
    """Zero-mean unit-variance transform of ``apply_to`` with train-only statistics."""
    scaler = fit_scaler(train)
    return scaler.transform(apply_to), scaler
