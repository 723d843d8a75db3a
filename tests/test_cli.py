import csv
import json

import numpy as np
import pytest

from helpers import lang_codes, planted_dataset
from xferlens.cli import main
from xferlens.data import FEATURE_NAMES, load_features_csv, save_dataset


@pytest.fixture
def toy_paths(tmp_path):
    langs = lang_codes(5)
    w = np.zeros(9)
    w[1] = 0.1
    ds = planted_dataset({"A": langs[:4], "B": langs}, w, seed=0)
    return save_dataset(ds, tmp_path / "data")


@pytest.fixture
def five_task_paths(tmp_path):
    """Five tasks: cmf's default d_latent of 5 needs at least five."""
    langs = lang_codes(6)
    w = np.zeros(9)
    w[1] = 0.1
    tasks = {"A": langs[:4], "B": langs, "C": langs[1:], "D": langs[:5], "E": langs[2:]}
    return save_dataset(planted_dataset(tasks, w, seed=1), tmp_path / "data5")


def write_resources(tmp_path):
    vocab_dir = tmp_path / "vocabs"
    vocab_dir.mkdir()
    (vocab_dir / "aa.txt").write_text("x\ny\nz\n")
    (vocab_dir / "ab.txt").write_text("y\nz\n")
    (vocab_dir / "ac.txt").write_text("z\nq\n")
    typology = tmp_path / "typology.csv"
    rows = ["lang,kind,d0,d1"]
    for lang, a, b in (("aa", 0.0, 0.0), ("ab", 1.0, 0.0), ("ac", 0.0, 2.0)):
        rows.append(f"{lang},geography,{a},{b}")
        rows.append(f"{lang},syntax,1.0,{a}")
        rows.append(f"{lang},phonology,0.5,0.5")
        rows.append(f"{lang},genetic,1.0,1.0")
    typology.write_text("\n".join(rows) + "\n")
    wals = tmp_path / "wals.csv"
    wals.write_text("lang,feature_value\naa,f1\nab,f1\nab,f2\nac,f2\n")
    stats = tmp_path / "stats.csv"
    stats.write_text(
        "lang,word_count,subword_count,continued_word_count\n"
        "aa,10,12,2\nab,10,15,4\nac,10,10,0\n"
    )
    meta = tmp_path / "meta.csv"
    meta.write_text("lang,class,pretrain_words\naa,5,1000000\nab,3,100000\nac,1,1000\n")
    return vocab_dir, typology, wals, stats, meta


class TestFeaturesCommand:
    def test_full_resources_write_all_pairs(self, tmp_path, capsys):
        vocab_dir, typology, wals, stats, meta = write_resources(tmp_path)
        out = tmp_path / "features.csv"
        code = main(
            [
                "features",
                "--vocab-dir", str(vocab_dir),
                "--typology", str(typology),
                "--wals", str(wals),
                "--stats", str(stats),
                "--meta", str(meta),
                "--out", str(out),
            ]
        )
        assert code == 0
        table = load_features_csv(out)
        assert len(table) == 6  # 3 languages, all ordered pairs
        assert "wrote 6 pair rows" in capsys.readouterr().out

    def test_missing_wals_warns_and_leaves_wmrr_empty(self, tmp_path, capsys):
        vocab_dir, typology, _, stats, meta = write_resources(tmp_path)
        out = tmp_path / "features.csv"
        code = main(
            [
                "features",
                "--vocab-dir", str(vocab_dir),
                "--typology", str(typology),
                "--wals", str(tmp_path / "nope.csv"),
                "--stats", str(stats),
                "--meta", str(meta),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "warning" in capsys.readouterr().err
        table = load_features_csv(out)
        assert all("wmrr" in fv.missing for fv in table.values())

    def test_corrupt_csv_exits_two_with_line(self, tmp_path, capsys):
        vocab_dir, typology, wals, stats, meta = write_resources(tmp_path)
        stats.write_text("lang,word_count,subword_count,continued_word_count\naa,ten,12,2\n")
        code = main(
            [
                "features",
                "--vocab-dir", str(vocab_dir),
                "--typology", str(typology),
                "--wals", str(wals),
                "--stats", str(stats),
                "--meta", str(meta),
                "--out", str(tmp_path / "f.csv"),
            ]
        )
        assert code == 2
        assert ":2" in capsys.readouterr().err  # line number in the diagnostic


class TestEvaluateCommand:
    def run_eval(self, toy_paths, out_dir, extra=()):
        return main(
            [
                "evaluate",
                "--scores", str(toy_paths["scores"]),
                "--features", str(toy_paths["features"]),
                "--meta", str(toy_paths["meta"]),
                "--models", "awt,lasso",
                "--protocol", "lolo",
                "--seed", "3",
                "--out", str(out_dir),
                *extra,
            ]
        )

    def test_table_cells_present(self, toy_paths, tmp_path, capsys):
        code = self.run_eval(toy_paths, tmp_path / "out")
        assert code == 0
        out = capsys.readouterr().out
        assert "awt" in out and "lasso" in out
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert {r["model"]["kind"] for r in payload["results"]} == {"awt", "lasso"}
        tasks = {t["task"] for r in payload["results"] for t in r["tasks"]}
        assert tasks == {"A", "B"}
        assert (tmp_path / "out" / "records.csv").exists()
        assert (tmp_path / "out" / "task_mae.csv").exists()
        assert (tmp_path / "out" / "table.txt").exists()

    def test_rerun_byte_identical(self, toy_paths, tmp_path):
        assert self.run_eval(toy_paths, tmp_path / "one") == 0
        assert self.run_eval(toy_paths, tmp_path / "two") == 0
        one = (tmp_path / "one" / "report.json").read_bytes()
        two = (tmp_path / "two" / "report.json").read_bytes()
        assert one == two

    def test_single_task_maml_fails_partially(self, tmp_path, capsys):
        ds = planted_dataset({"A": lang_codes(4)}, np.zeros(9), seed=1)
        paths = save_dataset(ds, tmp_path / "d")
        code = main(
            [
                "evaluate",
                "--scores", str(paths["scores"]),
                "--features", str(paths["features"]),
                "--models", "awt,maml",
                "--protocol", "lolo",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 3
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["failures"]
        assert {r["model"]["kind"] for r in payload["results"]} == {"awt"}

    def test_multi_model_scores_exit_two(self, toy_paths, tmp_path, capsys):
        lines = toy_paths["scores"].read_text().splitlines()
        lines[2] = lines[2].replace("toy-model", "other-model", 1)
        toy_paths["scores"].write_text("\n".join(lines) + "\n")
        code = self.run_eval(toy_paths, tmp_path / "out")
        assert code == 2
        assert "scores.csv:3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_model_exit_two(self, toy_paths, tmp_path, capsys):
        code = main(
            [
                "evaluate",
                "--scores", str(toy_paths["scores"]),
                "--features", str(toy_paths["features"]),
                "--models", "zebra",
                "--protocol", "lolo",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2

    def test_config_file_with_flag_override(self, toy_paths, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "schema_version=1\n"
            f"scores={toy_paths['scores']}\n"
            f"features={toy_paths['features']}\n"
            "models=awt\n"
            "protocol=llro\n"
            f"out={tmp_path / 'cfg_out'}\n"
            "seed=5\n"
        )
        code = main(["evaluate", "--config", str(cfg), "--protocol", "lolo",
                     "--meta", str(toy_paths["meta"])])
        assert code == 0
        payload = json.loads((tmp_path / "cfg_out" / "report.json").read_text())
        assert payload["protocol"] == "lolo"  # flag overrode the config
        assert payload["seed"] == 5

    def test_config_file_requires_schema_version(self, toy_paths, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scores=x\n")
        assert main(["evaluate", "--config", str(cfg)]) == 2
        assert "schema_version" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("seed=abc", "seed must be an integer"),
            ("sede=5", "unknown key 'sede'"),
            ("helper_curve=yes", "helper_curve must be 'true' or 'false'"),
        ],
    )
    def test_config_file_bad_entry_exit_two(self, toy_paths, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "schema_version=1\n"
            f"scores={toy_paths['scores']}\n"
            f"features={toy_paths['features']}\n"
            "models=awt\n"
            "protocol=lolo\n"
            f"out={tmp_path / 'cfg_out'}\n"
            f"{line}\n"
        )
        assert main(["evaluate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:7: " in err and message in err
        assert not (tmp_path / "cfg_out").exists()

    def test_llro_protocol(self, tmp_path):
        langs = lang_codes(6)
        classes = {lang: (5 if i % 2 == 0 else 2) for i, lang in enumerate(langs)}
        ds = planted_dataset({"A": langs, "B": langs}, np.zeros(9), seed=2, classes=classes)
        paths = save_dataset(ds, tmp_path / "d")
        code = main(
            [
                "evaluate",
                "--scores", str(paths["scores"]),
                "--features", str(paths["features"]),
                "--meta", str(paths["meta"]),
                "--models", "awt",
                "--protocol", "llro",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0

    def test_helper_curve_emitted(self, toy_paths, tmp_path):
        code = main(
            [
                "evaluate",
                "--scores", str(toy_paths["scores"]),
                "--features", str(toy_paths["features"]),
                "--models", "group-lasso",
                "--protocol", "lolo",
                "--task", "A",
                "--out", str(tmp_path / "out"),
                "--helper-curve",
            ]
        )
        assert code == 0
        lines = (tmp_path / "out" / "helper_curve.csv").read_text().splitlines()
        assert lines[1] == "model,task,n_helpers,mae,mae_scaled"
        rows = [l for l in lines if l.startswith("group-lasso")]
        assert len(rows) == 2  # helpers 0 and 1

    def test_cmf_helper_curve_starts_at_d_latent_minus_one(self, five_task_paths, tmp_path):
        code = main(
            [
                "evaluate",
                "--scores", str(five_task_paths["scores"]),
                "--features", str(five_task_paths["features"]),
                "--models", "cmf",
                "--protocol", "lolo",
                "--task", "A",
                "--out", str(tmp_path / "out"),
                "--helper-curve",
            ]
        )
        assert code == 0
        lines = (tmp_path / "out" / "helper_curve.csv").read_text().splitlines()
        rows = list(csv.reader(l for l in lines if l.startswith("cmf")))
        assert [row[2] for row in rows] == ["4"]  # d_latent 5: four helpers, five tasks


class TestExplainCommand:
    def test_group_lasso_rows_per_task_feature(self, toy_paths, tmp_path):
        code = main(
            [
                "explain",
                "--scores", str(toy_paths["scores"]),
                "--features", str(toy_paths["features"]),
                "--model", "group-lasso",
                "--method", "linear-shap",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        with open(tmp_path / "out" / "attribution.csv", newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        assert rows[0] == ["model", "task", "feature", "value", "method"]
        body = rows[1:]
        assert len(body) == 2 * len(FEATURE_NAMES)  # 2 tasks x 9 features
        assert {r[4] for r in body} == {"linear-shap"}

    def test_model_file_reproduces_attribution(self, toy_paths, tmp_path):
        base_args = [
            "explain",
            "--scores", str(toy_paths["scores"]),
            "--features", str(toy_paths["features"]),
            "--model", "group-lasso",
            "--method", "linear-shap",
        ]
        assert main(base_args + ["--out", str(tmp_path / "fit")]) == 0
        model_file = tmp_path / "fit" / "model.json"
        assert model_file.exists()
        assert main(base_args + ["--model-file", str(model_file), "--out", str(tmp_path / "reuse")]) == 0
        fit_csv = (tmp_path / "fit" / "attribution.csv").read_bytes()
        reuse_csv = (tmp_path / "reuse" / "attribution.csv").read_bytes()
        assert fit_csv == reuse_csv

    def test_model_file_kind_mismatch_exit_two(self, toy_paths, tmp_path):
        args = [
            "explain",
            "--scores", str(toy_paths["scores"]),
            "--features", str(toy_paths["features"]),
            "--model", "group-lasso",
            "--method", "linear-shap",
            "--out", str(tmp_path / "fit"),
        ]
        assert main(args) == 0
        code = main(
            [
                "explain",
                "--scores", str(toy_paths["scores"]),
                "--features", str(toy_paths["features"]),
                "--model", "lasso",
                "--method", "linear-shap",
                "--model-file", str(tmp_path / "fit" / "model.json"),
                "--out", str(tmp_path / "bad"),
            ]
        )
        assert code == 2

    def test_gbt_linear_shap_exit_four(self, toy_paths, tmp_path, capsys):
        code = main(
            [
                "explain",
                "--scores", str(toy_paths["scores"]),
                "--features", str(toy_paths["features"]),
                "--model", "gbt",
                "--method", "linear-shap",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 4
        assert "permutation" in capsys.readouterr().err

    def test_gbt_permutation_writes_csv(self, toy_paths, tmp_path):
        code = main(
            [
                "explain",
                "--scores", str(toy_paths["scores"]),
                "--features", str(toy_paths["features"]),
                "--model", "gbt",
                "--method", "permutation",
                "--repeats", "2",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        content = (tmp_path / "out" / "attribution.csv").read_text()
        assert "permutation" in content


    def run_permutation(self, paths, kind, out_dir):
        return main(
            [
                "explain",
                "--scores", str(paths["scores"]),
                "--features", str(paths["features"]),
                "--model", kind,
                "--method", "permutation",
                "--repeats", "1",
                "--out", str(out_dir),
            ]
        )

    @pytest.mark.parametrize(
        "kind", ["lasso", "gbt", "dgpr", "group-lasso", "cmf", "mdgpr", "maml"]
    )
    def test_permutation_every_feature_kind(self, five_task_paths, tmp_path, kind):
        assert self.run_permutation(five_task_paths, kind, tmp_path / "one") == 0
        with open(tmp_path / "one" / "attribution.csv", newline="") as fh:
            body = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
        per_task = {}
        for row in body:
            assert row[0] == kind and row[4] == "permutation"
            assert np.isfinite(float(row[3]))
            per_task[row[1]] = per_task.get(row[1], 0) + 1
        assert per_task == {task: len(FEATURE_NAMES) for task in "ABCDE"}
        assert self.run_permutation(five_task_paths, kind, tmp_path / "two") == 0
        one = (tmp_path / "one" / "attribution.csv").read_bytes()
        assert one == (tmp_path / "two" / "attribution.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["awt", "aat"])
    def test_permutation_baseline_exit_two(self, toy_paths, tmp_path, capsys, kind):
        assert self.run_permutation(toy_paths, kind, tmp_path / "out") == 2
        assert "no feature pathway" in capsys.readouterr().err

    def test_multi_model_scores_exit_two(self, toy_paths, tmp_path, capsys):
        lines = toy_paths["scores"].read_text().splitlines()
        lines[-1] = lines[-1].replace("toy-model", "other-model", 1)
        toy_paths["scores"].write_text("\n".join(lines) + "\n")
        assert self.run_permutation(toy_paths, "lasso", tmp_path / "out") == 2
        assert f"scores.csv:{len(lines)}" in capsys.readouterr().err


class TestReportCommand:
    def test_renders_table_from_json(self, toy_paths, tmp_path, capsys):
        assert TestEvaluateCommand().run_eval(toy_paths, tmp_path / "out") == 0
        capsys.readouterr()
        code = main(["report", "--report", str(tmp_path / "out" / "report.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "Average" in out and "awt" in out

    def test_missing_report_exit_two(self, tmp_path, capsys):
        assert main(["report", "--report", str(tmp_path / "nope.json")]) == 2
