import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lang_codes, planted_dataset, random_feature_vector, random_layouts
from xferlens import factorization, meta
from xferlens.cli import main
from xferlens.data import (
    Dataset,
    Fold,
    PerformanceRecord,
    _partition,
    load_dataset,
    make_llro_split,
    make_lolo_splits,
    save_dataset,
)
from xferlens.evaluation import (
    MODEL_KINDS,
    ModelSpec,
    _check_fold,
    aggregate,
    fit_predictors,
    helper_curve,
    render_table,
    run_folds,
    run_llro,
    run_lolo,
)


def tiny_dataset(scores, classes=None):
    """One-task dataset from {lang: score} with random features."""
    rng = np.random.default_rng(0)
    features = {("en", lang): random_feature_vector("en", lang, rng) for lang in scores}
    records = tuple(
        PerformanceRecord("m", "T", "en", lang, s) for lang, s in sorted(scores.items())
    )
    meta = {}
    if classes:
        from xferlens.data import LanguageMeta

        meta = {lang: LanguageMeta(lang, cls, 1e6) for lang, cls in classes.items()}
    return Dataset(records, features, meta)


def fold_mae(fold):
    return float(np.mean([r["abs_err"] for r in fold["records"]]))


class TestModelSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            ModelSpec("boosted-zebra")

    def test_unknown_hyperparameter(self):
        with pytest.raises(ValueError, match="unknown hyperparameters"):
            ModelSpec("lasso", {"alpha": 1.0})

    def test_defaults_merged(self):
        spec = ModelSpec("gbt", {"max_depth": 3})
        merged = spec.merged()
        assert merged["max_depth"] == 3
        assert merged["n_estimators"] == 100


class TestRunLolo:
    def test_awt_hand_computed_folds(self):
        # Scores 0.2, 0.4, 0.9: fold errors are |0.2-0.65|, |0.4-0.55|, |0.9-0.3|
        # = 0.45, 0.15, 0.60, whose mean is 0.40.
        ds = tiny_dataset({"aa": 0.2, "ab": 0.4, "ac": 0.9})
        block = run_lolo(ds, ModelSpec("awt"), "T")
        np.testing.assert_allclose(sorted(map(fold_mae, block["folds"])), [0.15, 0.45, 0.60])
        assert block["mae"] == pytest.approx(0.40)

    def test_perfect_model_zero_error(self):
        # Constant scores make the within-task average an exact oracle.
        ds = tiny_dataset({"aa": 0.5, "ab": 0.5, "ac": 0.5})
        assert run_lolo(ds, ModelSpec("awt"), "T")["mae"] == 0.0

    def test_planted_linear_group_lasso_beats_awt(self):
        w = np.zeros(9)
        w[1], w[3] = 0.10, 0.12
        langs = lang_codes(10)
        ds = planted_dataset(
            {"A": langs, "B": langs, "C": langs, "D": langs}, w, noise=0.01, seed=1
        )
        gl = run_lolo(ds, ModelSpec("group-lasso"), "A")["mae"]
        awt = run_lolo(ds, ModelSpec("awt"), "A")["mae"]
        assert gl < awt

    def test_fit_failure_carries_fold_context(self):
        ds = planted_dataset({"A": lang_codes(3)}, np.zeros(9), seed=2)
        with pytest.raises(RuntimeError, match="maml.*task 'A'.*held-out"):
            run_lolo(ds, ModelSpec("maml"), "A")  # no helper tasks

    def test_non_finite_prediction_fails_the_fold(self):
        # A large inner learning rate makes maml diverge: every prediction is nan.
        langs = lang_codes(6)
        w = np.zeros(9)
        w[1] = 0.1
        tasks = {"A": langs[:4], "B": langs, "C": langs[1:], "D": langs[:5], "E": langs[2:]}
        ds = planted_dataset(tasks, w, seed=1)
        spec = ModelSpec("maml", {"meta_epochs": 20, "inner_lr": 2.0})
        with pytest.raises(RuntimeError, match=r"maml.*task 'A', held-out 'aa'.*not finite"):
            run_lolo(ds, spec, "A")


class TestRunLlro:
    def test_awt_hand_check_on_four_records(self):
        # Train targets (class>=4): 0.8 and 0.6, mean 0.7. Test targets share it.
        ds = tiny_dataset(
            {"aa": 0.8, "ab": 0.6, "ac": 0.5, "ad": 0.9},
            classes={"aa": 5, "ab": 4, "ac": 1, "ad": 2},
        )
        block = run_llro(ds, ModelSpec("awt"), "T")
        errors = sorted(r["abs_err"] for r in block["folds"][0]["records"])
        np.testing.assert_allclose(errors, [0.2, 0.2])
        assert block["mae"] == pytest.approx(0.2)

    def test_empty_low_resource_side_errors(self):
        ds = tiny_dataset({"aa": 0.8, "ab": 0.6}, classes={"aa": 5, "ab": 4})
        with pytest.raises(ValueError, match="empty test side"):
            run_llro(ds, ModelSpec("awt"), "T")

    def test_planted_multi_task_beats_within_task_mean(self):
        w = np.zeros(9)
        w[1], w[3] = 0.10, 0.12
        langs = lang_codes(12)
        classes = {lang: (5 if i % 2 == 0 else 2) for i, lang in enumerate(langs)}
        ds = planted_dataset(
            {"A": langs, "B": langs, "C": langs}, w, noise=0.01, seed=3, classes=classes
        )
        gl = run_llro(ds, ModelSpec("group-lasso"), "A")["mae"]
        awt = run_llro(ds, ModelSpec("awt"), "A")["mae"]
        assert gl < awt


class TestProtocolIntegrity:
    def four_task_dataset(self, seed=0):
        langs = lang_codes(8)
        return planted_dataset(
            {"A": langs[:5], "B": langs, "C": langs[2:], "D": langs[:6]},
            np.zeros(9),
            seed=seed,
        )

    def test_lolo_leakage_and_helper_retention(self):
        ds = self.four_task_dataset()
        full = {t: len(ds.task_records(t)) for t in ds.tasks}
        for split in make_lolo_splits(ds, "A"):
            train_eval = [
                r for r in split.train.records if r.task == "A" and r.target == split.held_out
            ]
            assert not train_eval
            for helper in ("B", "C", "D"):
                count = sum(1 for r in split.train.records if r.task == helper)
                assert count == full[helper]

    def test_all_eval_tasks_pass_structural_checks(self):
        ds = self.four_task_dataset(seed=1)
        for task in sorted(ds.tasks):
            block = run_lolo(ds, ModelSpec("awt"), task)
            assert len(block["folds"]) == len(ds.targets(task))


class TestFoldGuard:
    """run_folds rejects, before its fit, a fold that breaks one condition of
    the guard. Each bad fold below breaks exactly one: the other two hold."""

    @staticmethod
    def two_pivot_dataset():
        langs = lang_codes(3)
        tasks = {"A": langs, "B": langs}
        en = planted_dataset(tasks, np.zeros(9), seed=0, pivot="en")
        zu = planted_dataset(tasks, np.zeros(9), seed=1, pivot="zu")
        return Dataset(en.records + zu.records, {**en.features, **zu.features}, en.meta)

    @pytest.mark.parametrize("bad, message", [
        ("eval row of a held-out target in train", "leakage: held-out language 'aa'"),
        ("helper row in test", "test side holds a row that is not an eval-task row of 'aa'"),
        ("helper row dropped", "do not hold every record"),
    ])
    def test_bad_fold_raises(self, bad, message):
        ds = self.two_pivot_dataset()
        good = make_lolo_splits(ds, "A")[0]
        assert good.held_out == "aa" and len(good.test.records) == 2  # one per pivot
        train, test = good.train.records, good.test.records
        helper = next(r for r in train if r.task == "B" and r.target == "aa")
        without = tuple(r for r in train if r is not helper)
        sides = {
            "eval row of a held-out target in train": (train + test[:1], test[1:]),
            "helper row in test": (without, test + (helper,)),
            "helper row dropped": (without, test),
        }[bad]
        fold = Fold(ds.restrict(sides[0]), ds.restrict(sides[1]), good.held_out)
        with pytest.raises(RuntimeError, match=re.escape(message)):
            run_folds(ds, ModelSpec("awt"), "lolo", "A", [fold])

    @given(random_layouts(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_proper_subset_of_targets_partitions_and_passes(self, ds, data):
        for eval_task in sorted(ds.tasks):
            targets = ds.targets(eval_task)
            if len(targets) < 2:
                continue
            held = data.draw(st.sets(st.sampled_from(targets), min_size=1,
                                     max_size=len(targets) - 1))
            fold = _partition(ds, eval_task, held)
            _check_fold(ds, eval_task, fold)
            is_held = [r.task == eval_task and r.target in held for r in ds.records]
            assert fold.test.records == tuple(r for r, h in zip(ds.records, is_held) if h)
            assert fold.train.records == tuple(r for r, h in zip(ds.records, is_held) if not h)
            assert fold.held_out == ";".join(sorted(held))


class TestFoldProperties:
    """awt gives one fold per split, over random multi-pivot layouts with
    missing feature cells."""

    @staticmethod
    def assert_fold_rows(fold, test):
        got = [(r["pivot"], r["target"], r["y"]) for r in fold["records"]]
        assert got == [(r.pivot, r.target, r.score) for r in test.records]

    @given(random_layouts(complete=True))
    @settings(max_examples=20, deadline=None)
    def test_awt_one_fold_per_split(self, ds):
        spec = ModelSpec("awt")
        for eval_task in sorted(ds.tasks):
            splits = make_lolo_splits(ds, eval_task)
            block = run_lolo(ds, spec, eval_task)
            assert [f["held_out"] for f in block["folds"]] == [s.held_out for s in splits]
            for fold, split in zip(block["folds"], splits):
                self.assert_fold_rows(fold, split.test)
            try:
                [test] = [f.test for f in make_llro_split(ds, eval_task)]
            except ValueError as err:
                with pytest.raises(ValueError, match=re.escape(str(err))):
                    run_llro(ds, spec, eval_task)
                continue
            block = run_llro(ds, spec, eval_task)
            assert block["n_targets"] == len(ds.targets(eval_task))
            (fold,) = block["folds"]
            assert fold["held_out"] == ";".join(sorted({r.target for r in test.records}))
            self.assert_fold_rows(fold, test)


class TestAllKindsSmoke:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_every_kind_runs_lolo(self, kind):
        w = np.zeros(9)
        w[1] = 0.1
        langs = lang_codes(6)
        ds = planted_dataset({"A": langs[:4], "B": langs, "C": langs}, w, seed=4)
        light = {
            "dgpr": {"epochs": 10},
            "mdgpr": {"epochs": 10},
            "maml": {"meta_epochs": 10},
            "gbt": {"n_estimators": 10, "max_depth": 3},
            "cmf": {"sweeps": 10, "d_latent": 2},
        }
        spec = ModelSpec(kind, light.get(kind, {}), seed=0)
        block = run_lolo(ds, spec, "A")
        assert len(block["folds"]) == 4
        assert np.isfinite(block["mae"])


class TestFitPredictors:
    def five_tasks(self):
        langs = lang_codes(6)
        return planted_dataset(
            {"A": langs[:4], "B": langs, "C": langs[1:], "D": langs[:5], "E": langs[2:]},
            np.zeros(9),
            seed=8,
        )

    def test_cmf_uses_factors_only_when_pairs_are_given(self, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(factorization, name)

            def predict(*args):
                calls.append(name)
                return real(*args)

            return predict

        for name in ("predict_cmf", "predict_cold_start"):
            monkeypatch.setattr(factorization, name, counted(name))
        ds = self.five_tasks()
        spec = ModelSpec("cmf", {"sweeps": 3, "d_latent": 2}, seed=0)
        predictor = fit_predictors(spec, ds, ["A"], seed=0)["A"]
        records = ds.task_records("A")
        x = ds.feature_matrix(records)
        predictor.predict(x, [(r.pivot, r.target) for r in records])
        assert calls == ["predict_cmf"] * len(records)
        calls.clear()
        predictor.predict(x)
        assert calls == ["predict_cold_start"] * len(records)

    def test_maml_meta_trains_on_the_given_tasks(self, monkeypatch):
        seen = []
        real = meta.meta_train

        def meta_train(helper_tasks, *args):
            seen.append(list(helper_tasks))
            return real(helper_tasks, *args)

        monkeypatch.setattr(meta, "meta_train", meta_train)
        ds = self.five_tasks()
        spec = ModelSpec("maml", {"meta_epochs": 2}, seed=0)
        fit_predictors(spec, ds, ["A", "B"], seed=0)  # explain: every task
        assert seen == [["A", "B", "C", "D", "E"]]
        block = run_lolo(ds, spec, "A")  # a protocol: the helpers only
        assert seen[1:] == [["B", "C", "D", "E"]] * len(block["folds"])

    def test_maml_predictors_survive_later_fits(self):
        # meta_train reuses its buffers from one adapt call to the next; the
        # network each predictor adapted must not live in them.
        ds = self.five_tasks()
        spec = ModelSpec("maml", {"meta_epochs": 3, "inner_lr": 0.05}, seed=0)
        predictors = fit_predictors(spec, ds, ["A", "B"], seed=0)
        x = {task: ds.feature_matrix(ds.task_records(task)) for task in ("A", "B")}
        before = {task: predictors[task].predict(x[task]).tobytes() for task in ("A", "B")}
        fit_predictors(spec, ds, ["A", "C"], seed=1)
        assert {task: predictors[task].predict(x[task]).tobytes() for task in ("A", "B")} == before


class TestAggregate:
    def block(self, task, mae, n_targets):
        rec = {"pivot": "en", "target": "de", "y": 0.5, "yhat": 0.5 + mae, "abs_err": mae}
        return {"task": task, "n_targets": n_targets, "mae": mae,
                "folds": [{"held_out": "de", "records": [rec]}]}

    def test_macro_average(self):
        blocks = [self.block("b", 0.04, 12), self.block("a", 0.02, 12)]
        report = aggregate(ModelSpec("awt"), "lolo", blocks)
        assert report["macro_average_mae"] == pytest.approx(0.03)
        assert report["low_data_average_mae"] is None
        assert report["per_task_mae"] == {"a": 0.02, "b": 0.04}
        assert list(report["per_task_mae"]) == ["a", "b"]
        assert report["model"] == ModelSpec("awt").to_dict()
        assert report["protocol"] == "lolo"
        assert report["tasks"] == blocks

    def test_single_task_both_averages_equal(self):
        report = aggregate(ModelSpec("awt"), "llro", [self.block("a", 0.05, 7)])
        assert report["macro_average_mae"] == pytest.approx(0.05)
        assert report["low_data_average_mae"] == pytest.approx(0.05)

    def test_boundary_task_with_ten_targets_is_low_data(self):
        report = aggregate(
            ModelSpec("awt"), "lolo", [self.block("a", 0.02, 10), self.block("b", 0.06, 11)]
        )
        assert report["low_data_average_mae"] == pytest.approx(0.02)

    def test_no_blocks_rejected(self):
        with pytest.raises(ValueError, match="no task blocks"):
            aggregate(ModelSpec("awt"), "lolo", [])

    def test_reaggregation_from_raw_records(self):
        ds = tiny_dataset({"aa": 0.2, "ab": 0.4, "ac": 0.9})
        payload = aggregate(ModelSpec("awt"), "lolo", [run_lolo(ds, ModelSpec("awt"), "T")])
        for task_block in payload["tasks"]:
            recomputed = np.mean(
                [
                    np.mean([abs(r["y"] - r["yhat"]) for r in fold["records"]])
                    for fold in task_block["folds"]
                ]
            )
            assert task_block["mae"] == pytest.approx(recomputed)
        assert payload["macro_average_mae"] == pytest.approx(
            np.mean([t["mae"] for t in payload["tasks"]])
        )


class TestReportBlocks:
    @pytest.mark.parametrize("kind", ["awt", "lasso"])
    def test_run_lolo_is_the_task_block_evaluate_writes(self, kind, tmp_path):
        langs = lang_codes(5)
        w = np.zeros(9)
        w[1] = 0.1
        paths = save_dataset(planted_dataset({"A": langs[:4], "B": langs}, w, seed=3), tmp_path)
        out = tmp_path / "out"
        args = ["evaluate", "--scores", str(paths["scores"]), "--features", str(paths["features"]),
                "--models", kind, "--protocol", "lolo", "--task", "A", "--seed", "4",
                "--out", str(out)]
        assert main(args) == 0
        (result,) = json.loads((out / "report.json").read_text())["results"]
        ds = load_dataset(paths["scores"], paths["features"])
        assert result["tasks"] == [run_lolo(ds, ModelSpec(kind, {}, 4), "A")]


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["gbt", "cmf", "mdgpr"])
    def test_same_seed_identical_report(self, kind):
        langs = lang_codes(5)
        ds = planted_dataset({"A": langs, "B": langs}, np.zeros(9), seed=5)
        light = {"cmf": {"sweeps": 5, "d_latent": 2}, "mdgpr": {"epochs": 5}}
        spec = ModelSpec(kind, light.get(kind, {"n_estimators": 5}), seed=9)
        one = aggregate(spec, "lolo", [run_lolo(ds, spec, "A")])
        two = aggregate(spec, "lolo", [run_lolo(ds, spec, "A")])
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


class TestHelperCurve:
    def test_curve_lengths_and_determinism(self):
        langs = lang_codes(5)
        ds = planted_dataset({"A": langs, "B": langs, "C": langs}, np.zeros(9), seed=7)
        spec = ModelSpec("group-lasso", {}, seed=0)
        curve = helper_curve(ds, spec, "A")
        assert [k for k, _ in curve] == [0, 1, 2]
        assert curve == helper_curve(ds, spec, "A")


class TestRenderTable:
    def test_table_contains_average_rows(self):
        ds = tiny_dataset({"aa": 0.2, "ab": 0.4, "ac": 0.9})
        spec = ModelSpec("awt")
        table = render_table([aggregate(spec, "lolo", [run_lolo(ds, spec, "T")])])
        assert "Average (|T| <= 10)" in table
        assert "awt" in table
        # MAE x 100 of the hand example: 0.40 -> "40.00"
        assert "40.00" in table


def test_every_package_export_resolves():
    import xferlens

    assert [name for name in xferlens.__all__ if not hasattr(xferlens, name)] == []
