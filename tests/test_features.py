import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xferlens import cli, features
from xferlens.data import FEATURE_NAMES, DataError, LanguageMeta, load_features_csv, write_features_csv
from xferlens.features import (
    FeatureResources,
    TokenizationStats,
    TypologyVector,
    VocabSet,
    WalsTable,
    build_feature_table,
    geo_distance,
    load_typology_csv,
    max_geo_distance,
    pretrain_size_feature,
    subword_overlap,
    tokenizer_metrics,
    typo_similarity,
    vocab_overlaps,
    wmrr,
)

# ---------------------------------------------------------------------------
# Independent oracles (deliberately written with explicit loops)

def cosine_oracle(dims_a, dims_b):
    """Cosine over the shared observed index set, by explicit enumeration."""
    shared = [
        i for i in range(len(dims_a)) if dims_a[i] is not None and dims_b[i] is not None
    ]
    if not shared:
        return None
    dot = sum(dims_a[i] * dims_b[i] for i in shared)
    na = math.sqrt(sum(dims_a[i] ** 2 for i in shared))
    nb = math.sqrt(sum(dims_b[i] ** 2 for i in shared))
    if na == 0 or nb == 0:
        return None
    return dot / (na * nb)


def wmrr_oracle(lang, rows, words):
    """Exhaustive ranking: list every feature-value, weigh, rank, average 1/rank."""
    all_fvs = sorted({fv for fvs in rows.values() for fv in fvs})
    mass = {}
    for fv in all_fvs:
        total = 0.0
        for other, fvs in rows.items():
            if fv in fvs:
                total += words.get(other, 0.0)
        mass[fv] = total
    recip = []
    for fv in sorted(rows[lang]):
        rank = 1
        for other_fv in all_fvs:
            if mass[other_fv] > mass[fv]:
                rank += 1
        recip.append(1.0 / rank)
    return sum(recip) / len(recip)


# Earlier implementations of the three per-pair formulas, kept verbatim as
# bitwise references: the current ones must give the same floats.

def overlap_union_oracle(ta, tb):
    """Intersection over an explicitly built union set."""
    return len(ta & tb) / len(ta | tb)


def cosine_list_oracle(dims_a, dims_b):
    """Cosine over the shared cells, collected into lists one by one."""
    va, vb = [], []
    for da, db in zip(dims_a, dims_b):
        if da is not None and db is not None:
            va.append(da)
            vb.append(db)
    if not va:
        return None
    va = np.array(va, dtype=float)
    vb = np.array(vb, dtype=float)
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        return None
    return float(va @ vb / (na * nb))


def rank_scan_oracle(lang, wals, meta):
    """Competition rank of each of a language's feature-values, by a linear scan."""
    mass = {}
    for other, fvs in wals.rows.items():
        words = meta[other].pretrain_words if other in meta else 0.0
        for fv in fvs:
            mass[fv] = mass.get(fv, 0.0) + words
    all_masses = sorted(mass.values(), reverse=True)
    return {fv: 1 + sum(1 for m in all_masses if m > mass[fv]) for fv in wals.rows[lang]}


def longest_match_tokenize(word, pieces):
    """Greedy longest-match toy tokenizer; unknown chars become single tokens."""
    tokens = []
    pos = 0
    while pos < len(word):
        match = None
        for end in range(len(word), pos, -1):
            if word[pos:end] in pieces:
                match = word[pos:end]
                break
        if match is None:
            match = word[pos]
        tokens.append(match)
        pos += len(match)
    return tokens


# ---------------------------------------------------------------------------

class TestSubwordOverlap:
    def test_hand_example(self):
        a = VocabSet("en", frozenset({"a", "b"}))
        b = VocabSet("de", frozenset({"b", "c"}))
        assert subword_overlap(a, b) == 1 / 3

    def test_identical(self):
        v = VocabSet("en", frozenset({"x", "y", "z"}))
        assert subword_overlap(v, v) == 1.0

    def test_disjoint(self):
        a = VocabSet("en", frozenset({"a"}))
        b = VocabSet("de", frozenset({"b"}))
        assert subword_overlap(a, b) == 0.0

    @given(
        st.sets(st.sampled_from("abcdefgh"), min_size=1, max_size=8),
        st.sets(st.sampled_from("abcdefgh"), min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_identity(self, ta, tb):
        a = VocabSet("aa", frozenset(ta))
        b = VocabSet("ab", frozenset(tb))
        assert subword_overlap(a, b) == subword_overlap(b, a)
        assert (subword_overlap(a, b) == 1.0) == (ta == tb)

    @given(
        st.frozensets(st.text("abcdefghij", min_size=1, max_size=3), min_size=1, max_size=60),
        st.frozensets(st.text("abcdefghij", min_size=1, max_size=3), min_size=1, max_size=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_union_oracle(self, ta, tb):
        assert subword_overlap(VocabSet("aa", ta), VocabSet("ab", tb)) == overlap_union_oracle(ta, tb)


#: unobserved, zero (for zero-norm shared subvectors) or an observed value
TYPOLOGY_CELLS = st.one_of(st.none(), st.just(0.0), st.floats(-1e6, 1e6))


class TestTypoSimilarity:
    def test_identical_binary(self):
        v = TypologyVector("en", "syntax", (1.0, 0.0, 1.0))
        assert typo_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        a = TypologyVector("en", "syntax", (1.0, 0.0))
        b = TypologyVector("de", "syntax", (0.0, 1.0))
        assert typo_similarity(a, b) == pytest.approx(0.0)

    def test_no_shared_dims_is_missing(self):
        a = TypologyVector("en", "syntax", (1.0, None))
        b = TypologyVector("de", "syntax", (None, 1.0))
        assert typo_similarity(a, b) is None

    def test_kind_mismatch(self):
        a = TypologyVector("en", "syntax", (1.0,))
        b = TypologyVector("de", "phonology", (1.0,))
        with pytest.raises(ValueError, match="mismatch"):
            typo_similarity(a, b)

    def test_interleaved_missing_matches_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            dims_a = tuple(
                float(rng.uniform(0, 1)) if rng.uniform() > 0.4 else None for _ in range(n)
            )
            dims_b = tuple(
                float(rng.uniform(0, 1)) if rng.uniform() > 0.4 else None for _ in range(n)
            )
            a = TypologyVector("en", "genetic", dims_a)
            b = TypologyVector("de", "genetic", dims_b)
            expected = cosine_oracle(dims_a, dims_b)
            got = typo_similarity(a, b)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-12)

    def test_scale_invariance(self):
        a = TypologyVector("en", "phonology", (0.2, None, 0.8, 0.1))
        b = TypologyVector("de", "phonology", (0.4, 0.5, None, 0.9))
        scaled_a = TypologyVector("en", "phonology", tuple(None if d is None else 3.0 * d for d in a.dims))
        scaled_b = TypologyVector("de", "phonology", tuple(None if d is None else 7.0 * d for d in b.dims))
        assert typo_similarity(a, b) == pytest.approx(typo_similarity(scaled_a, scaled_b))

    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.lists(TYPOLOGY_CELLS, min_size=n, max_size=n),
                st.lists(TYPOLOGY_CELLS, min_size=n, max_size=n),
            )
        )
    )
    @example(([1.0, None], [None, 1.0]))  # no shared dimension
    @example(([0.0, 0.5, None], [0.3, None, 0.2]))  # zero-norm shared subvector
    @example(([None, None], [None, None]))
    @settings(max_examples=300, deadline=None)
    def test_equals_list_oracle(self, dims):
        dims_a, dims_b = dims
        a = TypologyVector("aa", "genetic", tuple(dims_a))
        b = TypologyVector("ab", "genetic", tuple(dims_b))
        assert typo_similarity(a, b) == cosine_list_oracle(dims_a, dims_b)

    @pytest.mark.parametrize("kind", ["syntax", "geography"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_dimension_rejected(self, kind, value):
        with pytest.raises(ValueError, match="non-finite typology dimension d1"):
            TypologyVector("aa", kind, (0.5, value, 1.0))

    def test_symmetry_and_bound(self):
        a = TypologyVector("en", "syntax", (0.3, 0.9, None, 0.5))
        b = TypologyVector("de", "syntax", (0.1, None, 0.2, 0.8))
        s1 = typo_similarity(a, b)
        s2 = typo_similarity(b, a)
        assert s1 == s2
        assert abs(s1) <= 1.0 + 1e-12


class TestGeoDistance:
    def geo(self, lang, *coords):
        return TypologyVector(lang, "geography", tuple(float(c) for c in coords))

    def test_identical_is_zero(self):
        v = self.geo("en", 1.0, 2.0)
        assert geo_distance(v, v, scale=5.0) == 0.0

    def test_max_pair_normalizes_to_one(self):
        vs = [self.geo("aa", 0, 0), self.geo("ab", 3, 4), self.geo("ac", 1, 1)]
        scale = max_geo_distance(vs)
        assert scale == 5.0
        assert geo_distance(vs[0], vs[1], scale) == 1.0

    def test_middle_pair_hand_ratio(self):
        vs = [self.geo("aa", 0, 0), self.geo("ab", 3, 4), self.geo("ac", 0, 2)]
        scale = max_geo_distance(vs)
        # Hand computation: max pair is (0,0)-(3,4) = 5; (0,0)-(0,2) = 2.
        assert geo_distance(vs[0], vs[2], scale) == pytest.approx(2.0 / 5.0)

    def test_triangle_inequality_unnormalized(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a, b, c = (self.geo(code, *rng.uniform(-10, 10, 2)) for code in ("aa", "ab", "ac"))
            assert geo_distance(a, c, 1.0) <= geo_distance(a, b, 1.0) + geo_distance(b, c, 1.0) + 1e-12

    def test_kind_mismatch(self):
        a = self.geo("en", 0, 0)
        b = TypologyVector("de", "syntax", (1.0, 1.0))
        with pytest.raises(ValueError):
            geo_distance(a, b)


class TestPretrainSize:
    def test_million(self):
        assert pretrain_size_feature(LanguageMeta("de", 5, 1_000_000)) == pytest.approx(6.0)

    def test_one_word(self):
        assert pretrain_size_feature(LanguageMeta("de", 0, 1.0)) == 0.0

    def test_log_identity(self):
        assert pretrain_size_feature(LanguageMeta("de", 5, 3_162_278)) == pytest.approx(
            6.5, abs=1e-6
        )


class TestWmrr:
    def meta(self, words):
        return {lang: LanguageMeta(lang, 5, w) for lang, w in words.items()}

    def test_single_feature_value(self):
        wals = WalsTable({"de": frozenset({"81A=SVO"})})
        assert wmrr("de", wals, self.meta({"de": 100.0})) == 1.0

    def test_two_feature_values(self):
        # Masses: f1 held by en (10), f2 held by de (5); de holds only f2.
        wals = WalsTable({"en": frozenset({"f1"}), "de": frozenset({"f2"})})
        meta = self.meta({"en": 10.0, "de": 5.0})
        assert wmrr("de", wals, meta) == 0.5

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(11)
        langs = ["aa", "ab", "ac", "ad"]
        fvs = [f"f{i}" for i in range(5)]
        for _ in range(25):
            rows = {
                lang: frozenset(fv for fv in fvs if rng.uniform() > 0.4) for lang in langs
            }
            rows = {k: v for k, v in rows.items() if v}
            if not rows:
                continue
            words = {lang: float(rng.integers(1, 1000)) for lang in langs}
            wals = WalsTable(rows)
            meta = self.meta(words)
            for lang in rows:
                assert wmrr(lang, wals, meta) == pytest.approx(
                    wmrr_oracle(lang, rows, words), abs=1e-12
                )

    def test_scaling_invariance(self):
        wals = WalsTable(
            {"aa": frozenset({"f1", "f2"}), "ab": frozenset({"f2", "f3"}), "ac": frozenset({"f3"})}
        )
        words = {"aa": 7.0, "ab": 3.0, "ac": 11.0}
        base = wmrr("aa", wals, self.meta(words))
        scaled = wmrr("aa", wals, self.meta({k: 1000.0 * v for k, v in words.items()}))
        assert base == pytest.approx(scaled)

    def test_ties_share_smallest_rank(self):
        # f1 and f2 tie at mass 10, f3 has 5: ranks 1, 1, 3.
        wals = WalsTable(
            {"aa": frozenset({"f1"}), "ab": frozenset({"f2"}), "ac": frozenset({"f3"})}
        )
        meta = self.meta({"aa": 10.0, "ab": 10.0, "ac": 5.0})
        assert wmrr("aa", wals, meta) == 1.0
        assert wmrr("ac", wals, meta) == pytest.approx(1.0 / 3.0)

    @given(
        st.dictionaries(
            st.sampled_from(["aa", "ab", "ac", "ad", "ae"]),
            st.frozensets(st.sampled_from([f"f{i}" for i in range(8)]), min_size=1),
            min_size=1,
        ),
        st.dictionaries(
            st.sampled_from(["aa", "ab", "ac", "ad", "ae"]),
            st.sampled_from([1.0, 2.0, 5.0, 10.0, 1e6]),  # few values: masses tie often
            min_size=1,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_ranks_and_value_match_linear_scan(self, rows, words):
        wals = WalsTable(rows)
        meta = self.meta(words)
        for lang in rows:
            ranks = rank_scan_oracle(lang, wals, meta)
            assert wmrr(lang, wals, meta) == math.fsum(1.0 / r for r in ranks.values()) / len(ranks)
            # A probe language without metadata adds no mass, so its one
            # feature-value keeps its rank and wmrr is exactly 1 / rank.
            for fv, rank in ranks.items():
                probe = WalsTable({**rows, "zz": frozenset({fv})})
                assert wmrr("zz", probe, meta) == 1.0 / rank

    def test_absent_language(self):
        wals = WalsTable({"aa": frozenset({"f1"})})
        with pytest.raises(ValueError, match="absent"):
            wmrr("zz", wals, self.meta({"aa": 1.0}))


class TestTokenizerMetrics:
    def test_no_split_tokenizer(self):
        stats = TokenizationStats("de", 100, 100, 0)
        assert tokenizer_metrics(stats) == (1.0, 0.0)

    def test_arithmetic(self):
        stats = TokenizationStats("de", 4, 7, 3)
        assert tokenizer_metrics(stats) == (1.75, 0.75)

    def test_toy_tokenizer_fixture(self):
        pieces = {"under", "stand", "ing", "over", "s"}
        words = ["under", "standing", "overs", "under", "a"]
        # Hand count: under->1 token; standing->stand+ing (2, continued);
        # overs->over+s (2, continued); under->1; a->1 (unknown char).
        subword_total = 0
        continued = 0
        for word in words:
            tokens = longest_match_tokenize(word, pieces)
            subword_total += len(tokens)
            continued += 1 if len(tokens) >= 2 else 0
        assert (subword_total, continued) == (7, 2)
        stats = TokenizationStats("en", len(words), subword_total, continued)
        fert, pcw = tokenizer_metrics(stats)
        assert fert == pytest.approx(7 / 5)
        assert pcw == pytest.approx(2 / 5)

    def test_fert_one_iff_pcw_zero(self):
        # A tokenizer that never merges words: fert == 1 exactly when pcw == 0.
        for words, subwords, cont in [(10, 10, 0), (10, 13, 3), (5, 6, 1)]:
            fert, pcw = tokenizer_metrics(TokenizationStats("de", words, subwords, cont))
            assert (fert == 1.0) == (pcw == 0.0)

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            TokenizationStats("de", 4, 3, 0)  # subwords < words
        with pytest.raises(ValueError):
            TokenizationStats("de", 4, 5, 5)  # continued > words


class TestBuildFeatureTable:
    def full_resources(self):
        langs = ["aa", "ab"]
        res = FeatureResources()
        res.vocabs = vocab_overlaps(
            [VocabSet("aa", frozenset({"x", "y"})), VocabSet("ab", frozenset({"y", "z"}))]
        )
        for lang, base in zip(langs, (0.0, 1.0)):
            res.typology[(lang, "syntax")] = TypologyVector(lang, "syntax", (1.0, base))
            res.typology[(lang, "phonology")] = TypologyVector(lang, "phonology", (0.5, 0.5))
            res.typology[(lang, "genetic")] = TypologyVector(lang, "genetic", (1.0, 1.0))
            res.typology[(lang, "geography")] = TypologyVector(lang, "geography", (base, 0.0))
        res.wals = WalsTable({"aa": frozenset({"f1"}), "ab": frozenset({"f1", "f2"})})
        res.stats = {
            "aa": TokenizationStats("aa", 10, 12, 2),
            "ab": TokenizationStats("ab", 10, 15, 4),
        }
        res.meta = {
            "aa": LanguageMeta("aa", 5, 1e6),
            "ab": LanguageMeta("ab", 3, 1e5),
        }
        return res

    def test_two_languages_full_resources(self):
        table = build_feature_table(self.full_resources())
        assert set(table) == {("aa", "ab"), ("ab", "aa")}
        for fv in table.values():
            assert not fv.missing
            assert set(fv.values) == set(FEATURE_NAMES)

    def test_wals_absence_goes_to_missing_mask(self):
        res = self.full_resources()
        res.wals = WalsTable({"aa": frozenset({"f1"})})  # ab absent
        table = build_feature_table(res)
        assert "wmrr" in table[("aa", "ab")].missing
        assert "wmrr" in table[("ab", "aa")].values

    def test_round_trips_through_csv(self, tmp_path):
        table = build_feature_table(self.full_resources())
        path = tmp_path / "features.csv"
        write_features_csv(table, path)
        assert load_features_csv(path) == table

    def test_no_resources_pair_errors(self):
        # Each language has typology of a kind the other lacks: no feature
        # of the pair can be computed.
        res = FeatureResources()
        res.typology[("aa", "syntax")] = TypologyVector("aa", "syntax", (1.0,))
        res.typology[("ab", "phonology")] = TypologyVector("ab", "phonology", (1.0,))
        with pytest.raises(ValueError, match=r"no resources at all for pair \(aa, ab\)"):
            build_feature_table(res, pivots=["aa"])

    def test_pivot_restriction(self):
        table = build_feature_table(self.full_resources(), pivots=["aa"])
        assert set(table) == {("aa", "ab")}

    def test_one_formula_call_per_pair(self, monkeypatch):
        # The benchmark's traced invariant counts one wmrr call per pair; a
        # per-target memo in build_feature_table would break it.
        res = FeatureResources()
        langs = ["aa", "ab", "ac", "ad", "ae"]
        pivots = ["aa", "ab", "ac"]
        for i, lang in enumerate(langs):
            for kind in ("syntax", "phonology", "genetic"):
                res.typology[(lang, kind)] = TypologyVector(lang, kind, (1.0, float(i), None))
            res.meta[lang] = LanguageMeta(lang, 5, 10.0 ** (i + 3))
        res.wals = WalsTable({lang: frozenset({"f0", f"f{i % 2 + 1}"}) for i, lang in enumerate(langs)})
        calls = {}
        for name in ("wmrr", "subword_overlap", "typo_similarity"):
            def counted(*args, _name=name, _fn=getattr(features, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(features, name, counted)
        vocabs = [VocabSet(lang, frozenset({"x", f"t{i}", f"t{i + 1}"})) for i, lang in enumerate(langs)]
        res.vocabs = vocab_overlaps(
            (v for v in vocabs if v.lang in pivots), (v for v in vocabs if v.lang not in pivots)
        )
        table = build_feature_table(res, pivots=pivots)
        assert len(table) == 12
        assert calls == {"wmrr": 12, "subword_overlap": 12, "typo_similarity": 3 * 12}
        for (pivot, target), fv in table.items():
            adjacent = abs(langs.index(pivot) - langs.index(target)) == 1
            assert fv.values["o_sw"] == (2 / 4 if adjacent else 1 / 5)


class TestVocabOverlaps:
    LANGS = ["aa", "ab", "ac", "ad", "ae", "af", "ag", "ah"]

    @staticmethod
    def vocab(i, lang):
        return VocabSet(lang, frozenset({"x", f"t{i}", f"t{i + 1}", f"u{i % 3}"}))

    @pytest.mark.parametrize("pivots", [["ab", "ae"], ["aa", "ab"], ["ah"], ["ac", "zz"], None])
    def test_holds_only_pivots_and_pending(self, pivots):
        # Only the pivots stay live, plus the one other VocabSet that the
        # consumer's loop variable still holds while the next one is made.
        live = weakref.WeakSet()
        named = set(self.LANGS if pivots is None else pivots)
        bound = len(named & set(self.LANGS)) + 1

        def stream(is_pivot):
            for i, lang in enumerate(self.LANGS):
                if (lang in named) == is_pivot:
                    assert len(live) <= bound, (lang, sorted(v.lang for v in live))
                    vocab = self.vocab(i, lang)
                    live.add(vocab)
                    yield vocab
                    del vocab

        result = vocab_overlaps(stream(True), stream(False))
        assert len(live) == 0  # the result keeps no vocabulary
        assert result.langs == frozenset(self.LANGS)
        vocabs = {lang: self.vocab(i, lang) for i, lang in enumerate(self.LANGS)}
        expected = {
            (p, t): subword_overlap(vocabs[p], vocabs[t])
            for p in sorted(named & set(vocabs)) for t in self.LANGS if t != p
        }
        assert result.overlaps == expected

    @pytest.mark.parametrize("pivots", [["ad", "ah"], ["ah"]])
    def test_cli_holds_only_pivots_and_one_more(self, tmp_path, monkeypatch, pivots):
        # Pivots that sort in the middle and last of the directory: the CLI
        # reads their files first, so no other vocabulary waits for them.
        vocab_dir = tmp_path / "vocabs"
        vocab_dir.mkdir()
        for i, lang in enumerate(self.LANGS):
            (vocab_dir / f"{lang}.txt").write_text("\n".join(sorted(self.vocab(i, lang).tokens)) + "\n")
        live = weakref.WeakSet()
        real = cli.load_vocab_file

        def load(path, lang):
            assert len(live) <= len(pivots) + 1, (lang, sorted(v.lang for v in live))
            vocab = real(path, lang)
            live.add(vocab)
            return vocab

        monkeypatch.setattr(cli, "load_vocab_file", load)
        assert cli.main(["features", "--vocab-dir", str(vocab_dir), "--pivots", ",".join(pivots),
                         "--out", str(tmp_path / "features.csv")]) == 0
        table = load_features_csv(tmp_path / "features.csv")
        assert set(table) == {(p, t) for p in pivots for t in self.LANGS if t != p}


class TestTypologyCsv:
    def test_per_kind_widths_in_one_file(self, tmp_path):
        # Geography uses 2 of the 3 columns; syntax uses all 3 with an
        # interior gap. Trailing padding must not count as missing.
        path = tmp_path / "typology.csv"
        path.write_text(
            "lang,kind,d0,d1,d2\n"
            "aa,geography,0.0,1.0,\n"
            "ab,geography,3.0,4.0,\n"
            "aa,syntax,1.0,,0.5\n"
            "ab,syntax,0.0,1.0,1.0\n"
        )
        vectors = load_typology_csv(path)
        assert vectors[("aa", "geography")].dims == (0.0, 1.0)
        assert vectors[("aa", "syntax")].dims == (1.0, None, 0.5)
        assert typo_similarity(vectors[("aa", "syntax")], vectors[("ab", "syntax")]) is not None

    def test_entirely_empty_row_rejected(self, tmp_path):
        path = tmp_path / "typology.csv"
        path.write_text("lang,kind,d0,d1\naa,syntax,,\n")
        with pytest.raises(DataError, match="entirely empty"):
            load_typology_csv(path)

    @pytest.mark.parametrize(
        "row", ["ab,geography,3.0,nan", "ab,syntax,nan,1.0", "ab,syntax,inf,1.0", "ab,syntax,1.0,-inf"]
    )
    def test_non_finite_cell_rejected_with_line(self, tmp_path, row):
        path = tmp_path / "typology.csv"
        path.write_text(f"lang,kind,d0,d1\naa,geography,0.0,1.0\naa,syntax,1.0,0.0\n{row}\n")
        with pytest.raises(DataError, match=r"typology\.csv:4: non-finite typology dimension"):
            load_typology_csv(path)

    @pytest.mark.parametrize("cell", ["1_0", "\u0663", " 2\uff10 "])  # _, Arabic-Indic 3, full-width 0
    def test_only_plain_decimals_parse(self, tmp_path, cell):
        path = tmp_path / "typology.csv"
        path.write_text(f"lang,kind,d0,d1,d2\naa,syntax,1.0,0.0,\nab,syntax,0.5,{cell},\n")
        with pytest.raises(DataError) as err:
            load_typology_csv(path)
        assert str(err.value) == f"{path}:3: could not parse dimension {cell.strip()!r}"

    def test_bad_header_named_at_its_line(self, tmp_path):
        path = tmp_path / "typology.csv"
        path.write_text("# stamp\n\nlang,d0,d1\naa,1.0,0.0\n")
        with pytest.raises(DataError) as err:
            load_typology_csv(path)
        assert str(err.value).startswith(f"{path}:3: bad header ['lang', 'd0', 'd1']")
