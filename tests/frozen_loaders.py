"""A frozen copy of the five table loaders as they stood before they shared
``data.read_table``: scores, features and metadata (``data``), WALS and
tokenizer statistics (``features``), each with its own header check,
cell-count check, number parsing and duplicate rule.

``test_frozen_reference`` checks the package's loaders against it. Keep this
file as it is: it is the fixed point the comparison is made against, not code
to refactor along with the package. It shares only the file-level reading
(``read_csv_rows``: comment lines, line numbers, an empty file) and the
domain types with the package.
"""

from __future__ import annotations

from pathlib import Path

from xferlens.data import (
    _FEATURE_COLUMNS,
    _META_COLUMNS,
    _SCORE_COLUMNS,
    FEATURE_NAMES,
    DataError,
    FeatureVector,
    LangId,
    LanguageMeta,
    PerformanceRecord,
    read_csv_rows,
    validate_lang,
)
from xferlens.features import TokenizationStats, WalsTable


def _check_header(path: Path, header: list[str], expected: list[str], optional: tuple[str, ...] = ()):
    header = [h.strip() for h in header]
    allowed = expected + [c for c in optional if c not in expected]
    if (header[: len(expected)] != expected or any(c not in allowed for c in header)
            or len(set(header)) != len(header)):
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
    (_, header), rows = read_csv_rows(path)
    header = _check_header(path, header, _SCORE_COLUMNS, optional=("scale",))
    has_scale = "scale" in header
    out: list[tuple[int, PerformanceRecord]] = []
    seen: set[tuple[str, str, str, str]] = set()
    for lineno, row in rows:
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
    (_, header), rows = read_csv_rows(path)
    _check_header(path, header, _FEATURE_COLUMNS)
    out: dict[tuple[LangId, LangId], FeatureVector] = {}
    for lineno, row in rows:
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
    (_, header), rows = read_csv_rows(path)
    _check_header(path, header, _META_COLUMNS)
    out: dict[LangId, LanguageMeta] = {}
    for lineno, row in rows:
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


def load_wals_csv(path: str | Path) -> WalsTable:
    """Long-format CSV ``lang,feature_value``."""
    path = Path(path)
    (_, header), rows = read_csv_rows(path)
    if [h.strip() for h in header] != ["lang", "feature_value"]:
        raise DataError(f"bad header {header!r}, expected lang,feature_value", path=path, line=1)
    acc: dict[LangId, set[str]] = {}
    for lineno, row in rows:
        if len(row) != 2:
            raise DataError(f"expected 2 cells, got {len(row)}", path=path, line=lineno)
        lang, fv = row[0].strip(), row[1].strip()
        if not fv:
            raise DataError("empty feature-value identifier", path=path, line=lineno)
        if lang not in acc:
            try:
                validate_lang(lang)
            except ValueError as err:
                raise DataError(str(err), path=path, line=lineno) from None
        acc.setdefault(lang, set()).add(fv)
    return WalsTable({lang: frozenset(v) for lang, v in acc.items()})


def load_stats_csv(path: str | Path) -> dict[LangId, TokenizationStats]:
    """CSV ``lang,word_count,subword_count,continued_word_count``."""
    path = Path(path)
    (_, header), rows = read_csv_rows(path)
    expected = ["lang", "word_count", "subword_count", "continued_word_count"]
    if [h.strip() for h in header] != expected:
        raise DataError(f"bad header {header!r}, expected {expected!r}", path=path, line=1)
    out: dict[LangId, TokenizationStats] = {}
    for lineno, row in rows:
        if len(row) != 4:
            raise DataError(f"expected 4 cells, got {len(row)}", path=path, line=lineno)
        lang = row[0].strip()
        try:
            counts = [int(c) for c in row[1:]]
        except ValueError:
            raise DataError(f"could not parse counts {row[1:]!r}", path=path, line=lineno) from None
        try:
            stats = TokenizationStats(lang, *counts)
        except ValueError as err:
            raise DataError(str(err), path=path, line=lineno) from None
        if lang in out:
            raise DataError(f"duplicate stats row for {lang}", path=path, line=lineno)
        out[lang] = stats
    return out
