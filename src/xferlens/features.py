"""Feature computation from raw linguistic resources.

Produces the nine-feature table consumed by the regressors: subword-vocabulary
overlap, typology-vector similarities, normalized geographic distance,
log pre-training size, weighted mean reciprocal rank of typological
feature-values, and the two tokenizer-quality metrics.

Each resource is parsed once: a typology row only up to its last non-empty
cell, a vocabulary line stripped once. The vocabularies stream through
:func:`vocab_overlaps`, the pivots' first; it keeps the pivots' and drops
every other one as soon as its overlaps are computed. Work shared by all
pairs is done once per table: the WALS feature-value ranking
(:func:`feature_value_ranks`) and the geographic scale
(:func:`max_geo_distance`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import takewhile
from operator import not_
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .data import (
    FEATURE_NAMES,
    DataError,
    FeatureVector,
    LangId,
    LanguageMeta,
    parse_number,
    read_csv_rows,
    read_table,
    validate_lang,
)

TYPOLOGY_KINDS = ("syntax", "phonology", "genetic", "geography")

#: typology kind -> feature name of the derived pairwise value
_KIND_FEATURE = {"syntax": "s_syn", "phonology": "s_pho", "genetic": "s_gen"}


@dataclass(frozen=True)
class VocabSet:
    """Subword vocabulary (set of distinct subword types) of one language."""

    lang: LangId
    tokens: frozenset[str]

    def __post_init__(self):
        validate_lang(self.lang)
        if not self.tokens:
            raise ValueError(f"empty vocabulary for {self.lang}")


@dataclass(frozen=True)
class TypologyVector:
    """One typology vector; None marks unobserved dimensions.

    Observed dimensions must be finite, so the float copy ``_array`` can mark
    the unobserved ones with NaN.
    """

    lang: LangId
    kind: str
    dims: tuple[float | None, ...]
    _array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        validate_lang(self.lang)
        if self.kind not in TYPOLOGY_KINDS:
            raise ValueError(f"unknown typology kind {self.kind!r}")
        if not self.dims:
            raise ValueError("typology vector must have at least one dimension")
        array = np.array(self.dims, dtype=float)  # None becomes NaN
        if np.count_nonzero(~np.isfinite(array)) != self.dims.count(None):
            i, d = next(
                (i, d) for i, d in enumerate(self.dims) if d is not None and not math.isfinite(d)
            )
            raise ValueError(f"non-finite typology dimension d{i}: {d!r}")
        if self.kind == "geography" and None in self.dims:
            raise ValueError("geography vectors must be fully observed")
        object.__setattr__(self, "_array", array)


@dataclass(frozen=True)
class WalsTable:
    """Language -> set of typological feature-value identifiers (e.g. '81A=SVO')."""

    rows: dict[LangId, frozenset[str]]

    def __post_init__(self):
        for lang, values in self.rows.items():
            validate_lang(lang)
            if any(not v for v in values):
                raise ValueError(f"empty feature-value identifier for {lang}")


@dataclass(frozen=True)
class TokenizationStats:
    """Counts from tokenizing a per-language corpus sample."""

    lang: LangId
    word_count: int
    subword_count: int
    continued_word_count: int

    def __post_init__(self):
        validate_lang(self.lang)
        if self.word_count < 1:
            raise ValueError("word_count must be positive")
        if self.subword_count < self.word_count:
            raise ValueError("subword_count must be >= word_count")
        if not 0 <= self.continued_word_count <= self.word_count:
            raise ValueError("continued_word_count must be in [0, word_count]")


# ---------------------------------------------------------------------------
# Individual feature formulas

def subword_overlap(vp: VocabSet, vt: VocabSet) -> float:
    """Fraction of unique subword types common to both vocabularies."""
    inter = len(vp.tokens & vt.tokens)
    return inter / (len(vp.tokens) + len(vt.tokens) - inter)


def typo_similarity(a: TypologyVector, b: TypologyVector) -> float | None:
    """Cosine similarity over dimensions observed in both vectors.

    Returns None (missing) when no dimension is shared, or when a shared
    subvector has zero norm and the cosine is undefined.
    """
    if a.kind != b.kind:
        raise ValueError(f"typology kind mismatch: {a.kind} vs {b.kind}")
    if a.kind == "geography":
        raise ValueError("use geo_distance for geography vectors")
    if len(a.dims) != len(b.dims):
        raise ValueError("typology vectors have different dimensionality")
    shared = ~(np.isnan(a._array) | np.isnan(b._array))
    if not shared.any():
        return None
    va = a._array[shared]
    vb = b._array[shared]
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        return None
    return float(va @ vb / (na * nb))


def geo_distance(a: TypologyVector, b: TypologyVector, scale: float = 1.0) -> float:
    """Euclidean distance between geography vectors, divided by ``scale``.

    Pass the in-set maximum pairwise distance (see
    :func:`max_geo_distance`) as the scale to normalize into [0, 1].
    """
    if a.kind != "geography" or b.kind != "geography":
        raise ValueError("geo_distance requires geography vectors")
    if len(a.dims) != len(b.dims):
        raise ValueError("geography vectors have different dimensionality")
    d = math.dist(a.dims, b.dims)
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


def pretrain_size_feature(meta: LanguageMeta) -> float:
    """log10 of the pre-training corpus word count."""
    return math.log10(meta.pretrain_words)


def feature_value_ranks(
    wals: WalsTable, meta: Mapping[LangId, LanguageMeta]
) -> dict[str, int]:
    """Rank of every feature-value in the table, for :func:`wmrr`.

    Every feature-value is weighted by the total pre-training words of the
    languages possessing it and ranked in descending weight (competition
    ranking: ties share the smallest rank of the tied block). Languages
    without metadata contribute zero weight.
    """
    mass: dict[str, float] = {}
    for lang, fvs in wals.rows.items():
        words = meta[lang].pretrain_words if lang in meta else 0.0
        for fv in fvs:
            mass[fv] = mass.get(fv, 0.0) + words
    ascending = sorted(mass.values())
    # rank = 1 + the number of masses strictly greater than this one
    return {fv: 1 + len(ascending) - bisect_right(ascending, m) for fv, m in mass.items()}


def wmrr(
    t: LangId,
    wals: WalsTable,
    meta: Mapping[LangId, LanguageMeta],
    ranks: Mapping[str, int] | None = None,
) -> float:
    """Mean reciprocal rank of a language's typological feature-values.

    The ranks are those of :func:`feature_value_ranks`; pass ``ranks`` from it
    to rank the table once for many languages. The reciprocal ranks are
    summed exactly (``math.fsum``), so the result does not depend on the
    iteration order of the language's feature-value set.
    """
    if t not in wals.rows or not wals.rows[t]:
        raise ValueError(f"language {t!r} absent from the WALS table")
    if not meta:
        raise ValueError("empty language metadata")
    if ranks is None:
        ranks = feature_value_ranks(wals, meta)
    fvs = wals.rows[t]
    return math.fsum(1.0 / ranks[fv] for fv in fvs) / len(fvs)


def tokenizer_metrics(stats: TokenizationStats) -> tuple[float, float]:
    """(fertility, proportion of continued words) of a tokenizer on a language.

    Fertility is subwords per tokenized word; the proportion counts words the
    tokenizer continued across at least two tokens.
    """
    fert = stats.subword_count / stats.word_count
    pcw = stats.continued_word_count / stats.word_count
    return fert, pcw


# ---------------------------------------------------------------------------
# Table assembly

@dataclass(frozen=True)
class VocabOverlaps:
    """What the feature table needs of the subword vocabularies: the languages
    that have one, and ``o_sw`` for each (pivot, target) pair of them."""

    langs: frozenset[LangId] = frozenset()
    overlaps: Mapping[tuple[LangId, LangId], float] = field(default_factory=dict)


def vocab_overlaps(pivots: Iterable[VocabSet], others: Iterable[VocabSet] = ()) -> VocabOverlaps:
    """Subword overlap of each pivot's vocabulary with every other one.

    Each iterable is consumed once, one VocabSet at a time, the pivots first.
    A pivot is compared both ways with the pivots before it and kept; any
    other vocabulary is compared with every pivot and dropped. So the pivots
    and one other vocabulary are all that is alive at once. With no
    ``others``, every vocabulary is a pivot.
    """
    held: list[VocabSet] = []
    langs: set[LangId] = set()
    overlaps: dict[tuple[LangId, LangId], float] = {}
    for vocab in pivots:
        langs.add(vocab.lang)
        for p in held:
            overlaps[(p.lang, vocab.lang)] = subword_overlap(p, vocab)
            overlaps[(vocab.lang, p.lang)] = subword_overlap(vocab, p)
        held.append(vocab)
    for vocab in others:
        langs.add(vocab.lang)
        for p in held:
            overlaps[(p.lang, vocab.lang)] = subword_overlap(p, vocab)
    return VocabOverlaps(frozenset(langs), overlaps)


@dataclass
class FeatureResources:
    """Raw resources from which the feature table is assembled.

    Every field is optional; features whose inputs are absent for a pair end
    up in that pair's missing mask. ``vocabs`` comes from
    :func:`vocab_overlaps`, with the pivots later given to
    :func:`build_feature_table`.
    """

    vocabs: VocabOverlaps = field(default_factory=VocabOverlaps)
    typology: dict[tuple[LangId, str], TypologyVector] = field(default_factory=dict)
    wals: WalsTable | None = None
    stats: dict[LangId, TokenizationStats] = field(default_factory=dict)
    meta: dict[LangId, LanguageMeta] = field(default_factory=dict)

    def languages(self) -> list[LangId]:
        langs: set[LangId] = set(self.vocabs.langs)
        langs.update(lang for lang, _ in self.typology)
        if self.wals is not None:
            langs.update(self.wals.rows)
        langs.update(self.stats)
        langs.update(self.meta)
        return sorted(langs)


def build_feature_table(
    resources: FeatureResources,
    pivots: Iterable[LangId] | None = None,
) -> dict[tuple[LangId, LangId], FeatureVector]:
    """One FeatureVector per directed (pivot, target) pair: all ordered pairs
    over the resource languages, optionally restricted to the given pivots.
    A pivot that no resource names, and a pair with no computable feature at
    all, are errors.
    """
    langs = resources.languages()
    pivot_set = sorted(set(pivots)) if pivots is not None else langs
    unknown = sorted(set(pivot_set) - set(langs))
    if unknown:
        raise ValueError(f"no resource has pivot {', '.join(map(repr, unknown))}")
    pairs = [(p, t) for p in pivot_set for t in langs if p != t]

    geo_vectors = [
        resources.typology[(lang, "geography")]
        for lang in langs
        if (lang, "geography") in resources.typology
    ]
    geo_scale = max_geo_distance(geo_vectors) if len(geo_vectors) >= 2 else 0.0
    wals_ranks = (
        feature_value_ranks(resources.wals, resources.meta)
        if resources.wals is not None and resources.meta
        else None
    )

    table: dict[tuple[LangId, LangId], FeatureVector] = {}
    for pivot, target in pairs:
        values: dict[str, float] = {}

        if pivot in resources.vocabs.langs and target in resources.vocabs.langs:
            values["o_sw"] = resources.vocabs.overlaps[(pivot, target)]

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

        if wals_ranks is not None and target in resources.wals.rows:
            values["wmrr"] = wmrr(target, resources.wals, resources.meta, wals_ranks)

        if target in resources.stats:
            fert, pcw = tokenizer_metrics(resources.stats[target])
            values["fert"] = fert
            values["pcw"] = pcw

        if not values:
            raise ValueError(f"no resources at all for pair ({pivot}, {target})")
        missing = frozenset(set(FEATURE_NAMES) - set(values))
        table[(pivot, target)] = FeatureVector(pivot, target, values, missing)
    return table


# ---------------------------------------------------------------------------
# Resource loaders

def load_vocab_file(path: str | Path, lang: LangId) -> VocabSet:
    """One subword token per line, UTF-8; surrounding whitespace and blank lines are dropped."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(str(err), path=path) from err
    tokens = set(map(str.strip, lines))
    tokens.discard("")
    if not tokens:
        raise DataError("empty vocabulary file", path=path)
    try:
        # A frozenset copied from a set is sized for its count, half the hash
        # table of one grown token by token: less memory, faster intersections.
        return VocabSet(lang, frozenset(tokens))
    except ValueError as err:
        raise DataError(str(err), path=path) from None


def load_typology_csv(path: str | Path) -> dict[tuple[LangId, str], TypologyVector]:
    """CSV ``lang,kind,d0,d1,...`` with empty cells for missing dimensions.

    Kinds may have different dimensionalities inside one fixed-width file:
    each row is parsed only up to its last non-empty cell, and each kind's
    width is the longest such extent among its rows, so cells beyond a
    kind's width are just padding. Interior empty cells stay missing.
    """
    path = Path(path)
    (header_line, header), rows = read_csv_rows(path)
    header = [h.strip() for h in header]
    if header[:2] != ["lang", "kind"] or len(header) < 3:
        raise DataError(f"bad header {header!r}, expected lang,kind,d0,...", path=path,
                        line=header_line)
    parsed: list[tuple[int, LangId, str, tuple[float | None, ...]]] = []
    for lineno, row in rows:
        if len(row) != len(header):
            raise DataError(f"expected {len(header)} cells, got {len(row)}", path=path, line=lineno)
        cells = row[2:]
        padding = len(list(takewhile(not_, map(str.strip, reversed(cells)))))
        cells = [cell.strip() for cell in cells[: len(cells) - padding]]
        try:
            # One test of the row for what parse_number tests per cell.
            joined = "".join(cells)
            if not joined.isascii() or "_" in joined:
                raise ValueError
            dims = tuple([float(cell) if cell else None for cell in cells])
        except ValueError:
            for cell in filter(None, cells):  # find the first cell parse_number rejects
                try:
                    parse_number(cell, "dimension")
                except ValueError:
                    raise DataError(f"could not parse dimension {cell!r}", path=path, line=lineno) from None
        parsed.append((lineno, row[0].strip(), row[1].strip(), dims))

    widths: dict[str, int] = {}
    for lineno, lang, kind, dims in parsed:
        if not dims:
            raise DataError(f"typology row for ({lang}, {kind}) is entirely empty", path=path, line=lineno)
        widths[kind] = max(widths.get(kind, 0), len(dims))

    out: dict[tuple[LangId, str], TypologyVector] = {}
    for lineno, lang, kind, dims in parsed:
        try:
            vec = TypologyVector(lang, kind, dims + (None,) * (widths[kind] - len(dims)))
        except ValueError as err:
            raise DataError(str(err), path=path, line=lineno) from None
        if (lang, kind) in out:
            raise DataError(f"duplicate typology row for ({lang}, {kind})", path=path, line=lineno)
        out[(lang, kind)] = vec
    return out


def load_wals_csv(path: str | Path) -> WalsTable:
    """Long-format CSV ``lang,feature_value``; a repeated row adds nothing."""
    acc: dict[LangId, set[str]] = {}

    def add(cells: list[str]) -> None:
        lang, fv = cells
        if not fv:
            raise ValueError("empty feature-value identifier")
        if lang not in acc:  # each language is validated once, on its first row
            acc[validate_lang(lang)] = set()
        acc[lang].add(fv)

    read_table(path, ["lang", "feature_value"], add)
    return WalsTable({lang: frozenset(v) for lang, v in acc.items()})


_STATS_COUNTS = ("word_count", "subword_count", "continued_word_count")


def _stats_row(cells: list[str]) -> TokenizationStats:
    lang, *counts = cells
    return TokenizationStats(lang, *(parse_number(c, name, int) for name, c in zip(_STATS_COUNTS, counts)))


def load_stats_csv(path: str | Path) -> dict[LangId, TokenizationStats]:
    """CSV ``lang,word_count,subword_count,continued_word_count``."""
    rows = read_table(path, ["lang", *_STATS_COUNTS], _stats_row, key=lambda s: s.lang, what="stats row")
    return {s.lang: s for _, s in rows}
