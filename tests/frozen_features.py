"""A frozen copy of the feature code as it stood before each resource was
parsed once and the WALS feature-values were ranked once per table: a
typology row parsed cell by cell over its full padded width, a vocabulary
line stripped twice, ``wmrr`` ranking the whole table on every call, and
``geo_distance`` copying both vectors into float lists. It also keeps the
forms of that time that the package has since changed: ``FeatureResources``
holding every vocabulary in a dict, and a CSV reader that returns the whole
file as a list of rows.

``test_frozen_reference`` checks the package's loaders and feature table
against it. Keep this file as it is: it is the fixed point the comparison is
made against, not code to refactor along with the package.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from xferlens.data import FEATURE_NAMES, DataError, FeatureVector, LangId, LanguageMeta
from xferlens.features import (
    _KIND_FEATURE,
    TokenizationStats,
    TypologyVector,
    VocabSet,
    WalsTable,
    pretrain_size_feature,
    subword_overlap,
    tokenizer_metrics,
    typo_similarity,
)


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


@dataclass
class FeatureResources:
    """Raw resources from which the feature table is assembled.

    Every field is optional; features whose inputs are absent for a pair end
    up in that pair's missing mask.
    """

    vocabs: dict[LangId, VocabSet] = field(default_factory=dict)
    typology: dict[tuple[LangId, str], TypologyVector] = field(default_factory=dict)
    wals: WalsTable | None = None
    stats: dict[LangId, TokenizationStats] = field(default_factory=dict)
    meta: dict[LangId, LanguageMeta] = field(default_factory=dict)

    def languages(self) -> list[LangId]:
        langs: set[LangId] = set(self.vocabs)
        langs.update(lang for lang, _ in self.typology)
        if self.wals is not None:
            langs.update(self.wals.rows)
        langs.update(self.stats)
        langs.update(self.meta)
        return sorted(langs)


def geo_distance(a: TypologyVector, b: TypologyVector, scale: float = 1.0) -> float:
    """Euclidean distance between geography vectors, divided by ``scale``.

    Pass the in-set maximum pairwise distance (see
    :func:`max_geo_distance`) as the scale to normalize into [0, 1].
    """
    if a.kind != "geography" or b.kind != "geography":
        raise ValueError("geo_distance requires geography vectors")
    if len(a.dims) != len(b.dims):
        raise ValueError("geography vectors have different dimensionality")
    d = math.dist([float(x) for x in a.dims], [float(x) for x in b.dims])
    if scale <= 0.0:
        return 0.0 if d == 0.0 else d
    return d / scale


def max_geo_distance(vectors: Iterable[TypologyVector]) -> float:
    """Maximum pairwise Euclidean distance among the given geography vectors."""
    vs = list(vectors)
    best = 0.0
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            best = max(best, geo_distance(vs[i], vs[j], scale=1.0))
    return best


def wmrr(
    t: LangId, wals: WalsTable, meta: Mapping[LangId, LanguageMeta]
) -> float:
    """Mean reciprocal rank of a language's typological feature-values.

    Every feature-value in the table is weighted by the total pre-training
    words of the languages possessing it and ranked in descending weight
    (competition ranking: ties share the smallest rank of the tied block).
    Languages without metadata contribute zero weight. The reciprocal ranks
    are summed exactly (``math.fsum``), so the result does not depend on the
    iteration order of the language's feature-value set.
    """
    if t not in wals.rows or not wals.rows[t]:
        raise ValueError(f"language {t!r} absent from the WALS table")
    if not meta:
        raise ValueError("empty language metadata")
    mass: dict[str, float] = {}
    for lang, fvs in wals.rows.items():
        words = meta[lang].pretrain_words if lang in meta else 0.0
        for fv in fvs:
            mass[fv] = mass.get(fv, 0.0) + words
    ascending = sorted(mass.values())
    # rank = 1 + the number of masses strictly greater than this one
    ranks = [1 + len(ascending) - bisect_right(ascending, mass[fv]) for fv in wals.rows[t]]
    return math.fsum(1.0 / rank for rank in ranks) / len(ranks)


def build_feature_table(
    resources: FeatureResources,
    pairs: Iterable[tuple[LangId, LangId]] | None = None,
    pivots: Iterable[LangId] | None = None,
) -> dict[tuple[LangId, LangId], FeatureVector]:
    """One FeatureVector per directed (pivot, target) pair.

    With no explicit ``pairs``, all ordered pairs over the resource languages
    are produced (optionally restricted to the given pivots). A pair with no
    computable feature at all is an error.
    """
    langs = resources.languages()
    if pairs is None:
        pivot_set = sorted(set(pivots)) if pivots is not None else langs
        pairs = [(p, t) for p in pivot_set for t in langs if p != t]
    else:
        pairs = list(pairs)

    geo_vectors = [
        resources.typology[(lang, "geography")]
        for lang in langs
        if (lang, "geography") in resources.typology
    ]
    geo_scale = max_geo_distance(geo_vectors) if len(geo_vectors) >= 2 else 0.0

    table: dict[tuple[LangId, LangId], FeatureVector] = {}
    for pivot, target in pairs:
        values: dict[str, float] = {}

        if pivot in resources.vocabs and target in resources.vocabs:
            values["o_sw"] = subword_overlap(resources.vocabs[pivot], resources.vocabs[target])

        for kind, name in _KIND_FEATURE.items():
            va = resources.typology.get((pivot, kind))
            vb = resources.typology.get((target, kind))
            if va is not None and vb is not None:
                sim = typo_similarity(va, vb)
                if sim is not None:
                    values[name] = min(max(sim, 0.0), 1.0)

        ga = resources.typology.get((pivot, "geography"))
        gb = resources.typology.get((target, "geography"))
        if ga is not None and gb is not None:
            values["d_geo"] = geo_distance(ga, gb, scale=geo_scale)

        if target in resources.meta:
            values["size"] = pretrain_size_feature(resources.meta[target])

        if resources.wals is not None and target in resources.wals.rows and resources.meta:
            values["wmrr"] = wmrr(target, resources.wals, resources.meta)

        if target in resources.stats:
            fert, pcw = tokenizer_metrics(resources.stats[target])
            values["fert"] = fert
            values["pcw"] = pcw

        if not values:
            raise ValueError(f"no resources at all for pair ({pivot}, {target})")
        missing = frozenset(set(FEATURE_NAMES) - set(values))
        table[(pivot, target)] = FeatureVector(pivot, target, values, missing)
    return table


def load_vocab_file(path: str | Path, lang: LangId) -> VocabSet:
    """One subword token per line, UTF-8."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as err:
        raise DataError(str(err), path=path) from err
    tokens = frozenset(line.strip() for line in lines if line.strip())
    if not tokens:
        raise DataError("empty vocabulary file", path=path)
    return VocabSet(lang, tokens)


def load_typology_csv(path: str | Path) -> dict[tuple[LangId, str], TypologyVector]:
    """CSV ``lang,kind,d0,d1,...`` with empty cells for missing dimensions.

    Kinds may have different dimensionalities inside one fixed-width file:
    each kind's width is the longest trailing extent among its rows, so cells
    beyond a kind's width are just padding. Interior empty cells stay missing.
    """
    path = Path(path)
    rows = read_csv_rows(path)
    if not rows:
        raise DataError("empty file", path=path, line=1)
    header = [h.strip() for h in rows[0][1]]
    if header[:2] != ["lang", "kind"] or len(header) < 3:
        raise DataError(f"bad header {header!r}, expected lang,kind,d0,...", path=path, line=1)
    parsed: list[tuple[int, LangId, str, list[float | None]]] = []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise DataError(f"expected {len(header)} cells, got {len(row)}", path=path, line=lineno)
        lang, kind = row[0].strip(), row[1].strip()
        dims: list[float | None] = []
        for cell in row[2:]:
            cell = cell.strip()
            if cell == "":
                dims.append(None)
            else:
                try:
                    dims.append(float(cell))
                except ValueError:
                    raise DataError(f"could not parse dimension {cell!r}", path=path, line=lineno) from None
        parsed.append((lineno, lang, kind, dims))

    widths: dict[str, int] = {}
    for lineno, lang, kind, dims in parsed:
        extent = max((i + 1 for i, d in enumerate(dims) if d is not None), default=0)
        if extent == 0:
            raise DataError(f"typology row for ({lang}, {kind}) is entirely empty", path=path, line=lineno)
        widths[kind] = max(widths.get(kind, 0), extent)

    out: dict[tuple[LangId, str], TypologyVector] = {}
    for lineno, lang, kind, dims in parsed:
        width = widths[kind]
        padded = tuple(dims[:width]) + (None,) * max(0, width - len(dims))
        try:
            vec = TypologyVector(lang, kind, padded)
        except ValueError as err:
            raise DataError(str(err), path=path, line=lineno) from None
        if (lang, kind) in out:
            raise DataError(f"duplicate typology row for ({lang}, {kind})", path=path, line=lineno)
        out[(lang, kind)] = vec
    return out

