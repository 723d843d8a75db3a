"""Domain types, CSV ingestion, split construction, and standardization.

The dataset model is deliberately small: performance records keyed by
(model, task, pivot, target), one feature vector per (pivot, target) pair,
and optional per-language metadata (resource class, pre-training word count).
Datasets and folds are immutable after construction; a protocol's split
maker returns a list of ``Fold``.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

#: Canonical feature order used everywhere a feature matrix is built.
FEATURE_NAMES = ("o_sw", "s_syn", "s_pho", "s_gen", "d_geo", "size", "wmrr", "fert", "pcw")

LANG_CODE_RE = re.compile(r"^[a-z]{2,3}(-[a-z0-9]+)*$")

LangId = str
TaskId = str
T = TypeVar("T")

_SCORE_COLUMNS = ["model", "task", "pivot", "target", "score"]
_FEATURE_COLUMNS = ["pivot", "target", *FEATURE_NAMES]
_META_COLUMNS = ["lang", "class", "pretrain_words"]

# Feature ranges checked on construction; size and wmrr need only be finite.
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
        for name, v in self.values.items():
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite: {v}")
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
        if not (math.isfinite(self.pretrain_words) and self.pretrain_words > 0):
            raise ValueError(f"pretrain_words must be positive and finite: {self.pretrain_words}")


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

def read_csv_rows(
    path: str | Path,
) -> tuple[tuple[int, list[str]], Iterator[tuple[int, list[str]]]]:
    """A CSV file's header cells and its other rows, each with its 1-based line number.

    Blank and comment lines (#...) are skipped, so the header is the first
    other line; a file without one is an ``empty file`` error on line 1. The
    rows are parsed as they are consumed, so a loader holds one row at a time,
    not the whole file.
    """
    rows = _csv_rows(path)
    header = next(rows, None)
    if header is None:
        raise DataError("empty file", path=path, line=1)
    return header, rows


def _csv_rows(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """Each row with the line it starts on: a quoted cell can span lines."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            lineno = 1
            for row in reader:
                # A first cell without "#" is no comment: one cheap test for most rows.
                if row and ("#" not in row[0] or not row[0].lstrip().startswith("#")):
                    yield lineno, row
                lineno = reader.line_num + 1
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(str(err), path=path) from err


def read_table(path: str | Path, columns: Sequence[str], parse: Callable[[list[str]], T],
               key: Callable[[T], Hashable] | None = None, what: str = "row",
               optional: Sequence[str] = ()) -> list[tuple[int, T]]:
    """(line, ``parse(cells)``) for each row of a table CSV.

    The header is ``columns``, then any of ``optional``, no column twice; a
    row has one cell per header column. ``parse`` gets the cells stripped, and
    a ValueError it raises becomes a DataError at the row's line. A second
    row with the ``key`` of an earlier one is a ``duplicate <what> for <key>``
    error.
    """
    path = Path(path)
    (header_line, header), rows = read_csv_rows(path)
    header = [h.strip() for h in header]
    if (header[: len(columns)] != list(columns) or len(set(header)) != len(header)
            or any(c not in (*columns, *optional) for c in header)):
        extra = f" with optional {list(optional)!r}" if optional else ""
        raise DataError(f"bad header {header!r}, expected {list(columns)!r}{extra}", path,
                        header_line)
    out: list[tuple[int, T]] = []
    seen: set[Hashable] = set()
    for lineno, row in rows:
        if len(row) != len(header):
            raise DataError(f"expected {len(header)} cells, got {len(row)}", path, lineno)
        try:
            item = parse([*map(str.strip, row)])
        except ValueError as err:
            raise DataError(str(err), path, lineno) from None
        if key is not None:
            if (k := key(item)) in seen:
                raise DataError(f"duplicate {what} for {k}", path, lineno)
            seen.add(k)
        out.append((lineno, item))
    return out


def parse_number(cell: str, column: str, kind: type = float):
    """``kind(cell)``, a float or an int, of a plain decimal: ``kind`` alone
    would also take non-ASCII digits and ``_`` separators. An error names the
    column and the cell."""
    try:
        if cell.isascii() and "_" not in cell:
            return kind(cell)
    except ValueError:
        pass
    what = "an integer" if kind is int else "a number"
    raise ValueError(f"could not parse {column} {cell!r} as {what}")


def _score_row(cells: list[str]) -> PerformanceRecord:
    model, task, pivot, target, score, *scale = cells
    scale = scale[0] if scale and scale[0] else "unit"
    if scale not in ("unit", "percent"):
        raise ValueError(f"scale must be 'unit' or 'percent', got {scale!r}")
    value = parse_number(score, "score")
    return PerformanceRecord(model, task, pivot, target, value / 100.0 if scale == "percent" else value)


def load_scores_csv(path: str | Path) -> list[tuple[int, PerformanceRecord]]:
    """Parse scores.csv into (line, record) pairs.

    The optional ``scale`` column (``unit`` or ``percent``, default ``unit``)
    divides percentage scores by 100 before the [0, 1] range check.
    """
    return read_table(path, _SCORE_COLUMNS, _score_row, optional=("scale",),
                      key=lambda r: (r.model, r.task, r.pivot, r.target), what="record")


def _feature_row(cells: list[str]) -> FeatureVector:
    pivot, target, *cells = cells
    values = {name: parse_number(cell, name) for name, cell in zip(FEATURE_NAMES, cells) if cell}
    return FeatureVector(pivot, target, values, frozenset(FEATURE_NAMES).difference(values))


def load_features_csv(path: str | Path) -> dict[tuple[LangId, LangId], FeatureVector]:
    """Parse features.csv; empty cells mark missing feature values."""
    rows = read_table(path, _FEATURE_COLUMNS, _feature_row,
                      key=lambda fv: f"({fv.pivot}, {fv.target})", what="feature row")
    return {(fv.pivot, fv.target): fv for _, fv in rows}


def _meta_row(cells: list[str]) -> LanguageMeta:
    lang, cls, words = cells
    return LanguageMeta(lang, parse_number(cls, "class", int), parse_number(words, "pretrain_words"))


def load_meta_csv(path: str | Path) -> dict[LangId, LanguageMeta]:
    rows = read_table(path, _META_COLUMNS, _meta_row, key=lambda m: m.lang, what="metadata row")
    return {m.lang: m for _, m in rows}


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
    if not scored:
        raise DataError("no score rows after the header", path=Path(scores_path))
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


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]],
              stamp: str | None = None) -> None:
    """Write a header and rows, after an optional stamp line (outputs carry one)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if stamp is not None:
            fh.write(stamp + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_features_csv(
    features: Mapping[tuple[LangId, LangId], FeatureVector], path: str | Path
) -> None:
    rows = (
        [fv.pivot, fv.target, *(_fmt(fv.values[n]) if n in fv.values else "" for n in FEATURE_NAMES)]
        for _, fv in sorted(features.items())
    )
    write_csv(path, _FEATURE_COLUMNS, rows)


def save_dataset(ds: Dataset, directory: str | Path) -> dict[str, Path]:
    """Write scores/features/meta CSVs into a directory; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "scores": directory / "scores.csv",
        "features": directory / "features.csv",
        "meta": directory / "meta.csv",
    }
    write_csv(paths["scores"], _SCORE_COLUMNS,
              ([r.model, r.task, r.pivot, r.target, _fmt(r.score)] for r in ds.records))
    write_features_csv(ds.features, paths["features"])
    write_csv(paths["meta"], _META_COLUMNS,
              ([m.lang, str(m.resource_class), _fmt(m.pretrain_words)]
               for _, m in sorted(ds.meta.items())))
    return paths


# ---------------------------------------------------------------------------
# Split construction

@dataclass(frozen=True)
class Fold:
    """``test`` holds the eval-task rows of the held-out targets, ``train`` every
    other row; ``held_out`` joins those targets, sorted, with ``;``."""

    train: Dataset
    test: Dataset
    held_out: str


def _partition(ds: Dataset, eval_task: TaskId, held_out: set[LangId]) -> Fold:
    """The fold holding out the eval-task rows whose target is in ``held_out``;
    both sides keep record order."""
    train, test = [], []
    for r in ds.records:
        (test if r.task == eval_task and r.target in held_out else train).append(r)
    return Fold(ds.restrict(train), ds.restrict(test), ";".join(sorted(held_out)))


def make_lolo_splits(ds: Dataset, eval_task: TaskId) -> list[Fold]:
    """Leave-one-language-out folds for ``eval_task``, one per target.

    Each fold holds out one target language of the eval task; the train side
    keeps the remaining eval-task records plus the complete data of every
    helper task (including the held-out language).
    """
    if eval_task not in ds.tasks:
        raise ValueError(f"unknown task {eval_task!r}")
    targets = ds.targets(eval_task)
    if len(targets) < 2:
        raise ValueError(f"task {eval_task!r} has fewer than 2 target languages")
    return [_partition(ds, eval_task, {t}) for t in targets]


def make_llro_split(ds: Dataset, eval_task: TaskId) -> list[Fold]:
    """Leave-low-resource-languages-out split for ``eval_task``, a one-fold list.

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
    return [_partition(ds, eval_task, low)]


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


def _moments(train: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column means of the present values, the matrix imputed with them, and population stds."""
    with np.errstate(invalid="ignore", over="ignore"):
        empty = np.isnan(train).all(axis=0)  # mean 0, without np.nanmean's warning
        mean = np.nanmean(np.where(empty, 0.0, train) if empty.any() else train, axis=0)
        imputed = np.where(np.isnan(train), mean, train)
        return mean, imputed, imputed.std(axis=0)


def fit_scaler(train: np.ndarray) -> Scaler:
    train = np.asarray(train, dtype=float)
    if train.ndim != 2 or train.shape[0] == 0:
        raise ValueError("train feature matrix must be non-empty and 2-D")
    infinite = np.isinf(train).any(axis=0)
    if infinite.any():
        raise ValueError(f"train feature column {int(np.argmax(infinite))} holds an infinite value")
    mean, imputed, std = _moments(train)
    # A column whose sum or squares overflow: fit it divided by its largest
    # |value| and scale the statistics back.
    big = ~np.isfinite(std)
    if big.any():
        peak = np.nanmax(np.abs(train[:, big]), axis=0)
        big_mean, _, big_std = _moments(train[:, big] / peak)
        mean[big], std[big] = big_mean * peak, big_std * peak
        imputed = np.where(np.isnan(train), mean, train)
    # Detect constant dimensions by exact equality: their computed mean can be
    # off by an ulp, and dividing that noise by a rounding-level std would blow
    # it up to order-one values.
    constant = imputed.max(axis=0) == imputed.min(axis=0)
    mean = np.where(constant, imputed[0], mean)
    scale = np.where(constant | (std == 0), 1.0, std)
    return Scaler(mean=mean, scale=scale)


def standardize(train: np.ndarray, apply_to: np.ndarray) -> tuple[np.ndarray, Scaler]:
    """Zero-mean unit-variance transform of ``apply_to`` with train-only statistics."""
    scaler = fit_scaler(train)
    return scaler.transform(apply_to), scaler
