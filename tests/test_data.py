import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import planted_dataset, random_layouts, simple_dataset
from xferlens.data import (
    FEATURE_NAMES,
    DataError,
    Dataset,
    FeatureVector,
    LanguageMeta,
    PerformanceRecord,
    fit_scaler,
    load_dataset,
    load_features_csv,
    load_meta_csv,
    load_scores_csv,
    make_llro_split,
    make_lolo_splits,
    save_dataset,
    standardize,
)
from xferlens.features import load_stats_csv, load_wals_csv

SCORES_HEADER = "model,task,pivot,target,score\n"
FEATURES_HEADER = "pivot,target," + ",".join(FEATURE_NAMES) + "\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def feature_row(pivot, target, value=0.5):
    cells = [pivot, target] + [str(value)] * 4 + ["0.2", "6.0", "0.9", "1.5", "0.1"]
    return ",".join(cells) + "\n"


class TestLoadDataset:
    def test_three_row_parse(self, tmp_path):
        scores = write(
            tmp_path,
            "scores.csv",
            SCORES_HEADER
            + "m,post,en,de,0.8\n"
            + "m,post,en,fr,0.6\n"
            + "m,ner,en,de,0.7\n",
        )
        features = write(
            tmp_path,
            "features.csv",
            FEATURES_HEADER + feature_row("en", "de") + feature_row("en", "fr"),
        )
        ds = load_dataset(scores, features)
        assert len(ds.records) == 3
        assert ds.tasks == {"post", "ner"}
        assert ds.records[0].score == 0.8

    def test_score_out_of_range(self, tmp_path):
        scores = write(tmp_path, "scores.csv", SCORES_HEADER + "m,t,en,de,1.2\n")
        features = write(tmp_path, "features.csv", FEATURES_HEADER + feature_row("en", "de"))
        with pytest.raises(DataError, match=r"scores\.csv:2.*out of range"):
            load_dataset(scores, features)

    def test_line_numbers_count_lines_inside_quoted_cells(self, tmp_path):
        scores = write(
            tmp_path, "scores.csv", SCORES_HEADER + 'm,"t\nx",en,de,0.5\nm,u,en,de,1.5\n'
        )
        features = write(tmp_path, "features.csv", FEATURES_HEADER + feature_row("en", "de"))
        with pytest.raises(DataError, match=r"scores\.csv:4: .*out of range"):
            load_dataset(scores, features)

    def test_pivot_equals_target(self, tmp_path):
        scores = write(tmp_path, "scores.csv", SCORES_HEADER + "m,t,en,en,0.5\n")
        features = write(tmp_path, "features.csv", FEATURES_HEADER + feature_row("en", "de"))
        with pytest.raises(DataError, match="pivot equals target"):
            load_dataset(scores, features)

    def test_duplicate_record(self, tmp_path):
        scores = write(
            tmp_path, "scores.csv", SCORES_HEADER + "m,t,en,de,0.5\nm,t,en,de,0.6\n"
        )
        features = write(tmp_path, "features.csv", FEATURES_HEADER + feature_row("en", "de"))
        with pytest.raises(DataError, match=r"scores\.csv:3.*duplicate"):
            load_dataset(scores, features)

    def test_second_model_rejected_with_line(self, tmp_path):
        scores = write(
            tmp_path,
            "scores.csv",
            SCORES_HEADER + "m,t,en,de,0.5\nm,t,en,fr,0.6\nm2,t,en,de,0.7\nm,u,en,de,0.4\n",
        )
        features = write(
            tmp_path,
            "features.csv",
            FEATURES_HEADER + feature_row("en", "de") + feature_row("en", "fr"),
        )
        with pytest.raises(DataError, match=r"scores\.csv:4: model 'm2' differs from 'm'"):
            load_dataset(scores, features)

    def test_unmatched_feature_row(self, tmp_path):
        scores = write(tmp_path, "scores.csv", SCORES_HEADER + "m,t,en,sw,0.5\n")
        features = write(tmp_path, "features.csv", FEATURES_HEADER + feature_row("en", "de"))
        with pytest.raises(DataError, match="no feature row"):
            load_dataset(scores, features)

    def test_missing_column(self, tmp_path):
        scores = write(tmp_path, "scores.csv", "model,task,pivot,target\nm,t,en,de\n")
        features = write(tmp_path, "features.csv", FEATURES_HEADER + feature_row("en", "de"))
        with pytest.raises(DataError, match="bad header"):
            load_dataset(scores, features)

    def test_extra_column(self, tmp_path):
        scores = write(
            tmp_path, "scores.csv", "model,task,pivot,target,score,bogus\nm,t,en,de,0.5,x\n"
        )
        features = write(tmp_path, "features.csv", FEATURES_HEADER + feature_row("en", "de"))
        with pytest.raises(DataError, match="bad header"):
            load_dataset(scores, features)

    def test_percent_scale(self, tmp_path):
        scores = write(
            tmp_path,
            "scores.csv",
            "model,task,pivot,target,score,scale\n"
            + "m,t,en,de,85,percent\n"
            + "m,t,en,fr,0.25,unit\n"
            + "m,t,en,hi,0.5,\n",
        )
        features = write(
            tmp_path,
            "features.csv",
            FEATURES_HEADER
            + feature_row("en", "de")
            + feature_row("en", "fr")
            + feature_row("en", "hi"),
        )
        ds = load_dataset(scores, features)
        assert [r.score for r in ds.records] == [0.85, 0.25, 0.5]

    def test_missing_feature_cells(self, tmp_path):
        scores = write(tmp_path, "scores.csv", SCORES_HEADER + "m,t,en,de,0.5\n")
        features = write(
            tmp_path,
            "features.csv",
            FEATURES_HEADER + "en,de,0.3,,,0.1,0.2,6.0,,1.5,0.1\n",
        )
        ds = load_dataset(scores, features)
        fv = ds.features[("en", "de")]
        assert fv.missing == {"s_syn", "s_pho", "wmrr"}
        arr = fv.as_array()
        assert np.isnan(arr[1]) and np.isnan(arr[2]) and np.isnan(arr[6])

    def test_comment_lines_skipped(self, tmp_path):
        scores = write(
            tmp_path,
            "scores.csv",
            "# config_hash=abc seed=0\n" + SCORES_HEADER + "m,t,en,de,0.5\n",
        )
        features = write(tmp_path, "features.csv", FEATURES_HEADER + feature_row("en", "de"))
        assert len(load_dataset(scores, features).records) == 1

    def test_meta_loading(self, tmp_path):
        scores = write(tmp_path, "scores.csv", SCORES_HEADER + "m,t,en,de,0.5\n")
        features = write(tmp_path, "features.csv", FEATURES_HEADER + feature_row("en", "de"))
        meta = write(tmp_path, "meta.csv", "lang,class,pretrain_words\nde,5,1e9\n")
        ds = load_dataset(scores, features, meta)
        assert ds.meta["de"].resource_class == 5

    def test_bad_meta_class(self, tmp_path):
        scores = write(tmp_path, "scores.csv", SCORES_HEADER + "m,t,en,de,0.5\n")
        features = write(tmp_path, "features.csv", FEATURES_HEADER + feature_row("en", "de"))
        meta = write(tmp_path, "meta.csv", "lang,class,pretrain_words\nde,7,1e9\n")
        with pytest.raises(DataError, match=r"meta\.csv:2"):
            load_dataset(scores, features, meta)

    @pytest.mark.parametrize(
        "cells",
        [
            "0.3,0.5,0.5,0.1,nan,6.0,0.9,1.5,0.1",  # d_geo
            "0.3,0.5,0.5,0.1,0.2,inf,0.9,1.5,0.1",  # size
            "0.3,0.5,0.5,0.1,0.2,6.0,-inf,1.5,0.1",  # wmrr
            "0.3,0.5,0.5,0.1,0.2,6.0,0.9,nan,0.1",  # fert
            "0.3,0.5,0.5,0.1,nan,inf,0.9,1.5,0.1",  # d_geo and size
        ],
    )
    def test_non_finite_feature_cell_rejected_with_line(self, tmp_path, cells):
        scores = write(tmp_path, "scores.csv", SCORES_HEADER + "m,t,en,de,0.5\nm,t,en,fr,0.5\n")
        features = write(
            tmp_path, "features.csv", FEATURES_HEADER + feature_row("en", "de") + f"en,fr,{cells}\n"
        )
        with pytest.raises(DataError, match=r"features\.csv:3: .* must be finite"):
            load_dataset(scores, features)

    @pytest.mark.parametrize("words", ["nan", "inf"])
    def test_non_finite_meta_words_rejected_with_line(self, tmp_path, words):
        scores = write(tmp_path, "scores.csv", SCORES_HEADER + "m,t,en,de,0.5\n")
        features = write(tmp_path, "features.csv", FEATURES_HEADER + feature_row("en", "de"))
        meta = write(tmp_path, "meta.csv", f"lang,class,pretrain_words\nen,5,1e9\nde,5,{words}\n")
        with pytest.raises(DataError, match=r"meta\.csv:3: pretrain_words must be positive and finite"):
            load_dataset(scores, features, meta)


# Per table loader: header, a valid row, that row with one cell its parser
# rejects, the parser's error, and the duplicate error (None: repeated rows
# are one row).
TABLES = {
    "scores": (load_scores_csv, SCORES_HEADER, "m,t,en,de,0.5", "m,t,en,de,x",
               "could not parse score 'x' as a number", "duplicate record for ('m', 't', 'en', 'de')"),
    "features": (load_features_csv, FEATURES_HEADER, feature_row("en", "de").strip(),
                 "en,de,,x,0.5,0.5,0.2,6.0,0.9,1.5,0.1",
                 "could not parse s_syn 'x' as a number", "duplicate feature row for (en, de)"),
    "meta": (load_meta_csv, "lang,class,pretrain_words\n", "de,5,1e9", "de, five ,1e9",
             "could not parse class 'five' as an integer", "duplicate metadata row for de"),
    "wals": (load_wals_csv, "lang,feature_value\n", "de,81A=SVO", "De,81A=SVO",
             "invalid language code 'De'", None),
    "stats": (load_stats_csv, "lang,word_count,subword_count,continued_word_count\n", "de,10,12,2",
              "de,10,y,2", "could not parse subword_count 'y' as an integer", "duplicate stats row for de"),
}


class TestTableLoaders:
    @pytest.mark.parametrize("fault", ["bad header", "cell count", "unparseable cell", "duplicate row"])
    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_error_names_file_and_line(self, tmp_path, table, fault):
        load, header, row, bad_row, bad_cell_error, duplicate_error = TABLES[table]
        n = header.count(",") + 1
        line, message, last = {
            "bad header": (1, "bad header ", row),
            "cell count": (4, f"expected {n} cells, got {n + 1}", row + ",0"),
            "unparseable cell": (4, bad_cell_error, bad_row),
            "duplicate row": (4, duplicate_error, row),
        }[fault]
        if fault == "bad header":
            header = header.rstrip("\n") + ",bogus\n"
        path = write(tmp_path, f"{table}.csv", f"{header}{row}\n# a comment\n{last}\n")
        if message is None:  # WALS: a repeated (language, feature-value) pair adds nothing
            assert load(path).rows == {"de": frozenset({"81A=SVO"})}
            return
        with pytest.raises(DataError) as err:
            load(path)
        assert str(err.value).startswith(f"{path}:{line}: {message}")
        assert (err.value.path, err.value.line) == (path, line)

    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_bad_header_named_at_its_line(self, tmp_path, table):
        load, header, row, *_ = TABLES[table]
        path = write(tmp_path, f"{table}.csv", f"# stamp\n\n{header.rstrip()},bogus\n{row}\n")
        with pytest.raises(DataError) as err:
            load(path)
        assert str(err.value).startswith(f"{path}:3: bad header ")

    @pytest.mark.parametrize("table, row, message", [
        ("meta", "de,\u0663,1e9", "could not parse class '\u0663' as an integer"),  # Arabic-Indic 3
        ("meta", "de,3,1_000", "could not parse pretrain_words '1_000' as a number"),
        ("features", "en,de,0.5,1_0,0.5,0.5,0.2,6.0,0.9,1.5,0.1",
         "could not parse s_syn '1_0' as a number"),
        ("scores", "m,t,en,de,0.\uff15", "could not parse score '0.\uff15' as a number"),
        ("stats", "de,1_0,12,2", "could not parse word_count '1_0' as an integer"),
    ])
    def test_only_plain_decimals_parse(self, tmp_path, table, row, message):
        load, header, *_ = TABLES[table]
        path = write(tmp_path, f"{table}.csv", f"{header}{row}\n")
        with pytest.raises(DataError) as err:
            load(path)
        assert str(err.value) == f"{path}:2: {message}"


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path):
        ds = simple_dataset()
        paths = save_dataset(ds, tmp_path / "out")
        again = load_dataset(paths["scores"], paths["features"], paths["meta"])
        assert again == ds

    def test_planted_round_trip(self, tmp_path):
        ds = planted_dataset(
            {"a": ["de", "fr", "hi"], "b": ["de", "hi"]},
            weights=np.zeros(9),
            seed=3,
        )
        paths = save_dataset(ds, tmp_path)
        again = load_dataset(paths["scores"], paths["features"], paths["meta"])
        assert again == ds

    def test_planted_meta_independent_of_hash_seed(self):
        root = Path(__file__).resolve().parents[1]
        code = (
            "import numpy as np\n"
            "from helpers import lang_codes, planted_dataset\n"
            "ds = planted_dataset({'A': lang_codes(12)}, np.zeros(9))\n"
            "print(sorted((m.lang, m.resource_class, m.pretrain_words) for m in ds.meta.values()))\n"
        )
        outputs = []
        for hash_seed in ("0", "1"):
            env = {
                **os.environ,
                "PYTHONPATH": os.pathsep.join([str(root / "tests"), str(root / "src")]),
                "PYTHONHASHSEED": hash_seed,
            }
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0].startswith("[(") and outputs[0] == outputs[1]


class TestLoloSplits:
    def test_two_task_example(self):
        # Task A targets {de, hi}; task B targets {de, hi, sw}.
        ds = planted_dataset(
            {"A": ["de", "hi"], "B": ["de", "hi", "sw"]}, weights=np.zeros(9), seed=0
        )
        splits = make_lolo_splits(ds, "A")
        assert len(splits) == 2
        de_split = next(s for s in splits if s.held_out == "de")
        assert {(r.task, r.target) for r in de_split.test.records} == {("A", "de")}
        train_pairs = {(r.task, r.target) for r in de_split.train.records}
        assert ("A", "hi") in train_pairs
        assert ("A", "de") not in train_pairs
        # Helper task B keeps everything, including the held-out language.
        assert {t for k, t in train_pairs if k == "B"} == {"de", "hi", "sw"}

    def test_single_task_three_targets(self):
        ds = planted_dataset({"A": ["de", "fr", "hi"]}, weights=np.zeros(9), seed=1)
        splits = make_lolo_splits(ds, "A")
        assert len(splits) == 3
        assert all(len(s.train.records) == 2 for s in splits)

    def test_single_target_errors(self):
        ds = planted_dataset({"A": ["de"], "B": ["de", "fr"]}, weights=np.zeros(9), seed=2)
        with pytest.raises(ValueError, match="fewer than 2"):
            make_lolo_splits(ds, "A")

    def test_partition_property(self):
        ds = planted_dataset(
            {"A": ["de", "fr", "hi", "sw"], "B": ["de", "fr"]}, weights=np.zeros(9), seed=4
        )
        splits = make_lolo_splits(ds, "A")
        eval_records = set(ds.task_records("A"))
        seen = []
        for s in splits:
            for r in s.test.records:
                seen.append(r)
                assert r not in s.train.records
        assert sorted(seen, key=lambda r: r.target) == sorted(
            eval_records, key=lambda r: r.target
        )


class TestLlroSplit:
    def test_basic_split(self):
        ds = planted_dataset(
            {"A": ["de", "fr", "sw"], "B": ["de", "sw"]},
            weights=np.zeros(9),
            seed=5,
            classes={"de": 5, "fr": 5, "sw": 1},
        )
        (fold,) = make_llro_split(ds, "A")
        train, test = fold.train, fold.test
        assert {r.target for r in test.records} == {"sw"}
        assert {r.target for r in train.records if r.task == "A"} == {"de", "fr"}
        # Helper task keeps all languages, including low-resource ones.
        assert {r.target for r in train.records if r.task == "B"} == {"de", "sw"}

    def test_all_high_resource_errors(self):
        ds = planted_dataset(
            {"A": ["de", "fr"]}, weights=np.zeros(9), seed=6, classes={"de": 5, "fr": 4}
        )
        with pytest.raises(ValueError, match="empty test side"):
            make_llro_split(ds, "A")

    def test_class_boundary(self):
        ds = planted_dataset(
            {"A": ["fr", "hi", "bn"]},
            weights=np.zeros(9),
            seed=7,
            classes={"fr": 5, "hi": 3, "bn": 3},
        )
        (fold,) = make_llro_split(ds, "A")
        train, test = fold.train, fold.test
        assert {r.target for r in test.records} == {"hi", "bn"}

    def test_missing_taxonomy_errors(self):
        ds = planted_dataset({"A": ["de", "fr"]}, weights=np.zeros(9), seed=8)
        stripped = Dataset(ds.records, ds.features, {})
        with pytest.raises(ValueError, match="taxonomy"):
            make_llro_split(stripped, "A")

    def test_disjoint_train_test_languages(self):
        ds = planted_dataset(
            {"A": ["de", "fr", "sw", "hi"]},
            weights=np.zeros(9),
            seed=9,
            classes={"de": 5, "fr": 4, "sw": 0, "hi": 2},
        )
        (fold,) = make_llro_split(ds, "A")
        train, test = fold.train, fold.test
        train_langs = {r.target for r in train.records if r.task == "A"}
        test_langs = {r.target for r in test.records}
        assert not train_langs & test_langs


class TestSplitProperties:
    """Fold invariants over random layouts: several pivots, missing feature
    cells, dropped records and shuffled record order."""

    @staticmethod
    def assert_fold(ds, eval_task, train, test, held_out):
        held = [r for r in ds.records if r.task == eval_task and r.target in held_out]
        assert test.records == tuple(held)
        assert train.records == tuple(r for r in ds.records if r not in set(held))
        assert not any(r.task == eval_task and r.target in held_out for r in train.records)
        for helper in ds.tasks - {eval_task}:
            assert train.task_records(helper) == ds.task_records(helper)

    @given(random_layouts())
    @settings(max_examples=40, deadline=None)
    def test_lolo_folds_partition_the_eval_task(self, ds):
        for eval_task in sorted(ds.tasks):
            targets = ds.targets(eval_task)
            if len(targets) < 2:
                with pytest.raises(ValueError, match="fewer than 2"):
                    make_lolo_splits(ds, eval_task)
                continue
            splits = make_lolo_splits(ds, eval_task)
            assert tuple(s.held_out for s in splits) == targets
            tested = [r for s in splits for r in s.test.records]
            assert len(tested) == len(set(tested))
            assert set(tested) == set(ds.task_records(eval_task))
            for s in splits:
                self.assert_fold(ds, eval_task, s.train, s.test, {s.held_out})

    @given(random_layouts())
    @settings(max_examples=40, deadline=None)
    def test_llro_tests_exactly_the_low_resource_rows(self, ds):
        for eval_task in sorted(ds.tasks):
            classes = {t: ds.meta[t].resource_class for t in ds.targets(eval_task)}
            low = {t for t, c in classes.items() if c <= 3}
            if not low:
                with pytest.raises(ValueError, match="empty test side"):
                    make_llro_split(ds, eval_task)
            elif low == set(classes):
                with pytest.raises(ValueError, match="empty train side"):
                    make_llro_split(ds, eval_task)
            else:
                (fold,) = make_llro_split(ds, eval_task)
                train, test = fold.train, fold.test
                self.assert_fold(ds, eval_task, train, test, low)


class TestStandardize:
    def test_two_point_population_std(self):
        train = np.array([[1.0], [3.0]])
        out, _ = standardize(train, train)
        np.testing.assert_allclose(out, [[-1.0], [1.0]])

    def test_constant_dim_maps_to_zero(self):
        train = np.array([[5.0], [5.0], [5.0]])
        out, _ = standardize(train, train)
        np.testing.assert_array_equal(out, np.zeros((3, 1)))

    def test_test_value_at_train_mean(self):
        train = np.array([[1.0], [3.0]])
        out, _ = standardize(train, np.array([[2.0]]))
        np.testing.assert_array_equal(out, [[0.0]])

    def test_missing_imputed_with_train_mean(self):
        train = np.array([[1.0], [np.nan], [3.0]])
        scaler = fit_scaler(train)
        assert scaler.mean[0] == 2.0
        np.testing.assert_array_equal(scaler.transform(np.array([[np.nan]])), [[0.0]])

    def test_overflowing_column_gets_a_finite_scale(self):
        # The squares of +-1e200 overflow; a column of finite values is fitted
        # without overflow, and its neighbour keeps the bits it has alone.
        train = np.array([[1e200, 0.5], [-1e200, 0.25], [1e200, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaler = fit_scaler(train)
            out = scaler.transform(train)
        assert np.isfinite(scaler.mean).all() and np.isfinite(scaler.scale).all()
        np.testing.assert_allclose(out[:, 0], [0.5**0.5, -(2**0.5), 0.5**0.5])
        alone = fit_scaler(train[:, 1:])
        assert (scaler.mean[1], scaler.scale[1]) == (alone.mean[0], alone.scale[0])

    def test_all_missing_column_imputes_zero_without_a_warning(self):
        train = np.array([[np.nan, 0.5, 1.0], [np.nan, 0.25, 2.0], [np.nan, 2.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaler = fit_scaler(train)
            out = scaler.transform(train)
        assert (scaler.mean[0], scaler.scale[0]) == (0.0, 1.0)
        np.testing.assert_array_equal(out[:, 0], [0.0, 0.0, 0.0])
        alone = fit_scaler(train[:, 1:])
        np.testing.assert_array_equal(scaler.mean[1:], alone.mean)
        np.testing.assert_array_equal(scaler.scale[1:], alone.scale)

    def test_leakage_free(self):
        rng = np.random.default_rng(0)
        train = rng.standard_normal((5, 3))
        test = rng.standard_normal((4, 3))
        _, scaler = standardize(train, test)
        mutated = test * 100.0 + 7.0
        _, scaler2 = standardize(train, mutated)
        np.testing.assert_array_equal(scaler.mean, scaler2.mean)
        np.testing.assert_array_equal(scaler.scale, scaler2.scale)

    @given(
        st.lists(
            # Rounding keeps squared deviations out of denormal range, where
            # the computed std would lose precision.
            st.floats(min_value=-100, max_value=100, allow_nan=False).map(
                lambda v: round(v, 6)
            ),
            min_size=2,
            max_size=12,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_transformed_train_is_centered(self, values):
        train = np.array(values)[:, None]
        out, _ = standardize(train, train)
        assert abs(out.mean()) < 1e-6
        std = out.std()
        assert std == pytest.approx(1.0, abs=1e-6) or std == pytest.approx(0.0, abs=1e-12)


class TestTypeInvariants:
    def test_record_rejects_bad_lang(self):
        with pytest.raises(ValueError, match="language code"):
            PerformanceRecord("m", "t", "EN", "de", 0.5)

    def test_feature_vector_partition(self):
        with pytest.raises(ValueError, match="incomplete"):
            FeatureVector("en", "de", {"o_sw": 0.5})

    def test_feature_vector_range(self):
        values = {n: 0.5 for n in FEATURE_NAMES}
        values["fert"] = 0.5
        with pytest.raises(ValueError, match="fert"):
            FeatureVector("en", "de", values)

    @pytest.mark.parametrize(
        "name, value",
        [("o_sw", "nan"), ("d_geo", "nan"), ("size", "inf"), ("wmrr", "-inf"), ("fert", "inf")],
    )
    def test_feature_vector_rejects_non_finite(self, name, value):
        values = {n: 0.5 for n in FEATURE_NAMES}
        values["fert"] = 1.5
        values[name] = float(value)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            FeatureVector("en", "de", values)

    def test_meta_class_range(self):
        with pytest.raises(ValueError, match="resource class"):
            LanguageMeta("de", 6, 100.0)
