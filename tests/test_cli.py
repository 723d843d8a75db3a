import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import lang_codes, planted_dataset
from xferlens import evaluation, numerics
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
    """Five tasks: enough for cmf's full default rank (d_latent 5)."""
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


    @pytest.mark.parametrize(
        "row, line", [("ab,geography,nan,0.0", 6), ("ac,syntax,1.0,inf", 11)]
    )
    def test_non_finite_typology_cell_exits_two_with_line(self, tmp_path, capsys, row, line):
        vocab_dir, typology, wals, stats, meta = write_resources(tmp_path)
        lines = typology.read_text().splitlines()
        lines[line - 1] = row
        typology.write_text("\n".join(lines) + "\n")
        out = tmp_path / "f.csv"
        code = main(["features", "--typology", str(typology), "--meta", str(meta), "--out", str(out)])
        assert code == 2
        assert f"typology.csv:{line}: non-finite typology dimension" in capsys.readouterr().err
        assert not out.exists()

    def test_vocab_file_named_after_no_language_exits_two_with_path(self, tmp_path, capsys):
        vocab_dir, _, _, _, meta = write_resources(tmp_path)
        bad = vocab_dir / "English.txt"
        bad.write_text("x\ny\n")
        out = tmp_path / "f.csv"
        code = main(["features", "--vocab-dir", str(vocab_dir), "--meta", str(meta), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}: invalid language code 'English'\n"
        assert not out.exists()

    def test_wals_row_with_bad_language_exits_two_with_line(self, tmp_path, capsys):
        _, _, wals, _, meta = write_resources(tmp_path)
        wals.write_text("lang,feature_value\naa,f1\nFrench,f1\nab,f2\nFrench,f2\n")
        out = tmp_path / "f.csv"
        code = main(["features", "--wals", str(wals), "--meta", str(meta), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {wals}:3: invalid language code 'French'\n"
        assert not out.exists()

    def test_pivot_in_no_resource_exits_two(self, tmp_path, capsys):
        vocab_dir, typology, wals, stats, meta = write_resources(tmp_path)
        out = tmp_path / "f.csv"
        argv = ["features", "--vocab-dir", str(vocab_dir), "--typology", str(typology),
                "--wals", str(wals), "--stats", str(stats), "--meta", str(meta), "--out", str(out)]
        assert main([*argv, "--pivots", "aa,zz"]) == 2
        assert capsys.readouterr().err == "error: no resource has pivot 'zz'\n"
        assert not out.exists()
        # A pivot named by one resource alone keeps its rows of target-side features.
        meta.write_text(meta.read_text() + "ad,2,5000\n")
        assert main([*argv, "--pivots", "ad"]) == 0
        table = load_features_csv(out)
        assert sorted(table) == [("ad", "aa"), ("ad", "ab"), ("ad", "ac")]
        assert all("o_sw" in fv.missing and "size" in fv.values for fv in table.values())

    def test_out_into_a_missing_directory(self, tmp_path):
        vocab_dir, typology, wals, stats, meta = write_resources(tmp_path)
        out = tmp_path / "new" / "dir" / "features.csv"
        assert main(["features", "--vocab-dir", str(vocab_dir), "--meta", str(meta),
                     "--out", str(out)]) == 0
        assert len(load_features_csv(out)) == 6

    def test_pivot_list_entries_stripped(self, tmp_path):
        vocab_dir, *_, meta = write_resources(tmp_path)
        out = tmp_path / "f.csv"
        assert main(["features", "--vocab-dir", str(vocab_dir), "--meta", str(meta),
                     "--pivots", "ab, ac,", "--out", str(out)]) == 0
        assert sorted({pivot for pivot, _ in load_features_csv(out)}) == ["ab", "ac"]

    def test_first_bad_vocab_file_in_sorted_order_reported(self, tmp_path, capsys):
        # ab sorts before the pivot ac, whose file is read first; ac's error
        # must not be the one reported.
        vocab_dir, _, _, _, meta = write_resources(tmp_path)
        (vocab_dir / "ab.txt").write_text(" \n\n")
        (vocab_dir / "ac.txt").write_text("\n")
        out = tmp_path / "f.csv"
        code = main(["features", "--vocab-dir", str(vocab_dir), "--meta", str(meta),
                     "--pivots", "ac", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {vocab_dir / 'ab.txt'}: empty vocabulary file\n"
        assert not out.exists()

    def test_bad_pivot_file_reported_before_a_later_bad_file(self, tmp_path, capsys):
        vocab_dir, _, _, _, meta = write_resources(tmp_path)
        (vocab_dir / "ab.txt").write_text("\n")
        (vocab_dir / "ac.txt").write_bytes(b"\xff\n")
        out = tmp_path / "f.csv"
        code = main(["features", "--vocab-dir", str(vocab_dir), "--meta", str(meta),
                     "--pivots", "ab", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {vocab_dir / 'ab.txt'}: empty vocabulary file\n"
        assert not out.exists()

    def test_vocab_dir_that_is_a_file_exits_two_naming_it(self, tmp_path, capsys):
        _, _, wals, _, meta = write_resources(tmp_path)
        out = tmp_path / "f.csv"
        assert main(["features", "--vocab-dir", str(wals), "--meta", str(meta),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {wals}: --vocab-dir is not a directory\n"
        assert not out.exists()

    def test_vocab_dir_without_a_vocabulary_warns(self, tmp_path, capsys):
        *_, meta = write_resources(tmp_path)
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "f.csv"
        assert main(["features", "--vocab-dir", str(empty), "--meta", str(meta),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == (f"warning: vocab directory {str(empty)!r} has no "
                                           "*.txt file, features left missing\n")
        assert all("o_sw" in fv.missing for fv in load_features_csv(out).values())

    def test_output_independent_of_hash_seed(self, tmp_path):
        # wmrr sums one reciprocal rank per feature-value of a language; the
        # values sit in a frozenset whose order follows the string hash seed.
        rng = np.random.default_rng(4)
        langs = lang_codes(8)
        wals = tmp_path / "wals.csv"
        wals.write_text(
            "lang,feature_value\n"
            + "".join(f"{lang},f{i}\n" for lang in langs for i in range(60) if rng.uniform() < 0.5)
        )
        meta = tmp_path / "meta.csv"
        meta.write_text(
            "lang,class,pretrain_words\n"
            + "".join(f"{lang},3,{int(rng.integers(1, 10**6))}\n" for lang in langs)
        )
        src = Path(__file__).resolve().parents[1] / "src"
        outputs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"features_{hash_seed}.csv"
            env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed}
            proc = subprocess.run(
                [sys.executable, "-m", "xferlens.cli", "features", "--wals", str(wals),
                 "--meta", str(meta), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


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

    def test_config_hash_follows_file_contents(self, toy_paths, tmp_path):
        def stamp(out_dir):
            return (out_dir / "table.txt").read_text().splitlines()[0]

        assert self.run_eval(toy_paths, tmp_path / "one") == 0
        moved = {key: Path(shutil.copy(path, tmp_path / f"moved_{path.name}"))
                 for key, path in toy_paths.items()}
        assert self.run_eval(moved, tmp_path / "two") == 0
        assert stamp(tmp_path / "two") == stamp(tmp_path / "one")
        lines = moved["scores"].read_text().splitlines()
        cells = lines[-1].split(",")
        cells[4] = "0.25" if cells[4] != "0.25" else "0.5"
        moved["scores"].write_text("\n".join([*lines[:-1], ",".join(cells)]) + "\n")
        assert self.run_eval(moved, tmp_path / "three") == 0
        assert stamp(tmp_path / "three") != stamp(tmp_path / "one")

    def test_cmf_with_fewer_tasks_than_d_latent(self, toy_paths, tmp_path):
        # two tasks, d_latent 5: the factorization's rank is capped at 2
        code = self.run_eval(toy_paths, tmp_path / "out", ["--models", "cmf"])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["failures"] == []
        assert [r["model"]["kind"] for r in payload["results"]] == ["cmf"]
        assert {t["task"] for r in payload["results"] for t in r["tasks"]} == {"A", "B"}

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

    def test_non_finite_prediction_is_a_failed_cell(self, five_task_paths, tmp_path, monkeypatch):
        # A diverging maml predicts nan; strict JSON has no NaN, so the cell fails.
        diverging = {**evaluation._DEFAULT_HYPERPARAMS["maml"], "meta_epochs": 20, "inner_lr": 2.0}
        monkeypatch.setitem(evaluation._DEFAULT_HYPERPARAMS, "maml", diverging)
        out = tmp_path / "out"
        code = main(["evaluate", "--scores", str(five_task_paths["scores"]),
                     "--features", str(five_task_paths["features"]), "--models", "awt,maml",
                     "--protocol", "lolo", "--task", "A", "--out", str(out)])
        assert code == 3

        def no_constants(name):
            raise AssertionError(f"report.json holds {name}")

        payload = json.loads((out / "report.json").read_text(), parse_constant=no_constants)
        assert [(f["model"], f["task"]) for f in payload["failures"]] == [("maml", "A")]
        assert "not finite" in payload["failures"][0]["error"]
        assert {r["model"]["kind"] for r in payload["results"]} == {"awt"}
        assert "nan" not in (out / "records.csv").read_text()

    def test_missing_lapack_routine_fails_only_the_gp_cells(self, toy_paths, tmp_path, monkeypatch):
        numerics.lapack.cache_clear()
        monkeypatch.setattr(numerics, "_SYMBOLS", ("no_such_{}_",))
        out = tmp_path / "out"
        try:
            code = main(["evaluate", "--scores", str(toy_paths["scores"]),
                         "--features", str(toy_paths["features"]), "--models", "lasso,dgpr",
                         "--protocol", "lolo", "--out", str(out)])
        finally:
            numerics.lapack.cache_clear()
        assert code == 3
        payload = json.loads((out / "report.json").read_text())
        assert [(f["model"], f["task"]) for f in payload["failures"]] == [("dgpr", "A"), ("dgpr", "B")]
        assert all("has no dpotrs" in f["error"] for f in payload["failures"])
        assert {r["model"]["kind"] for r in payload["results"]} == {"lasso"}
        rows = list(csv.DictReader((out / "records.csv").read_text().splitlines()[1:]))
        assert rows and {row["model"] for row in rows} == {"lasso"}

    def test_blas_without_thread_control_changes_no_output(self, toy_paths, tmp_path, monkeypatch):
        # An OpenBLAS with no set_num_threads routine keeps its own threads,
        # and every command still runs.
        records = []
        try:
            for name, symbols in (("pinned", numerics._THREAD_SYMBOLS), ("unpinned", ("no_such_",))):
                numerics.single_thread_blas.cache_clear()
                monkeypatch.setattr(numerics, "_THREAD_SYMBOLS", symbols)
                code = main(["evaluate", "--scores", str(toy_paths["scores"]),
                             "--features", str(toy_paths["features"]), "--models", "lasso,dgpr",
                             "--protocol", "lolo", "--out", str(tmp_path / name)])
                assert code == 0
                records.append((tmp_path / name / "records.csv").read_bytes())
            assert numerics.single_thread_blas() is False
        finally:
            numerics.single_thread_blas.cache_clear()
        assert records[0] == records[1]

    def test_multi_model_scores_exit_two(self, toy_paths, tmp_path, capsys):
        lines = toy_paths["scores"].read_text().splitlines()
        lines[2] = lines[2].replace("toy-model", "other-model", 1)
        toy_paths["scores"].write_text("\n".join(lines) + "\n")
        code = self.run_eval(toy_paths, tmp_path / "out")
        assert code == 2
        assert "scores.csv:3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_feature_exit_two(self, toy_paths, tmp_path, capsys):
        lines = toy_paths["features"].read_text().splitlines()
        cells = lines[2].split(",")
        cells[2 + FEATURE_NAMES.index("d_geo")] = "nan"
        lines[2] = ",".join(cells)
        toy_paths["features"].write_text("\n".join(lines) + "\n")
        assert self.run_eval(toy_paths, tmp_path / "out") == 2
        assert "features.csv:3: d_geo must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_header_column_exit_two(self, toy_paths, tmp_path, capsys):
        lines = toy_paths["scores"].read_text().splitlines()
        lines[0] += ",scale,scale"
        lines[1:] = [line + ",unit,percent" for line in lines[1:]]
        toy_paths["scores"].write_text("\n".join(lines) + "\n")
        assert self.run_eval(toy_paths, tmp_path / "out") == 2
        assert "scores.csv:1: bad header" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_llro_without_meta_exit_two(self, toy_paths, tmp_path, capsys):
        code = main(
            [
                "evaluate",
                "--scores", str(toy_paths["scores"]),
                "--features", str(toy_paths["features"]),
                "--models", "awt",
                "--protocol", "llro",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "--protocol llro needs --meta" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_header_only_scores_exit_two(self, toy_paths, tmp_path, capsys):
        toy_paths["scores"].write_text("model,task,pivot,target,score\n")
        assert self.run_eval(toy_paths, tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: {toy_paths['scores']}: no score rows after the header\n"
        assert not (tmp_path / "out").exists()

    def test_negative_seed_exit_two_before_any_fit(self, toy_paths, tmp_path, capsys):
        assert self.run_eval(toy_paths, tmp_path / "out", ["--models", "awt,dgpr", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_empty_models_exit_two(self, toy_paths, tmp_path, capsys):
        assert self.run_eval(toy_paths, tmp_path / "out", ["--models", ","]) == 2
        assert "--models names no model kind" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--task", "A", "--task", "B", "--task", "B"], "--task repeats 'B'"),
            (["--models", "awt,lasso,awt"], "--models repeats 'awt'"),
        ],
    )
    def test_repeated_entry_exit_two(self, toy_paths, tmp_path, capsys, extra, message):
        # Counted twice, a task would weigh double in the averages and repeat
        # its rows in records.csv.
        assert self.run_eval(toy_paths, tmp_path / "out", extra) == 2
        assert message in capsys.readouterr().err
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

    def test_config_task_list_entries_stripped(self, toy_paths, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "schema_version=1\n"
            f"scores={toy_paths['scores']}\n"
            f"features={toy_paths['features']}\n"
            "models=awt\n"
            "protocol=lolo\n"
            "tasks = B, A,\n"
            f"out={tmp_path / 'cfg_out'}\n"
        )
        assert main(["evaluate", "--config", str(cfg)]) == 0
        payload = json.loads((tmp_path / "cfg_out" / "report.json").read_text())
        assert [t["task"] for t in payload["results"][0]["tasks"]] == ["B", "A"]

    def test_config_file_requires_schema_version(self, toy_paths, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scores=x\n")
        assert main(["evaluate", "--config", str(cfg)]) == 2
        assert "schema_version" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("seed=abc", "seed must be an integer"),
            ("seed=\u0663", "seed must be an integer"),  # an Arabic-Indic 3
            ("seed=1_0", "seed must be an integer"),
            ("seed=-1", "--seed must be >= 0, got '-1'"),
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

    @pytest.mark.parametrize("command, flag", [("evaluate", "--seed"), ("explain", "--seed"),
                                               ("explain", "--repeats")])
    @pytest.mark.parametrize("value", ["1_0", "\u0663"])  # int() reads 10 and 3
    def test_integer_flag_takes_only_ascii_digits(self, toy_paths, tmp_path, capsys,
                                                  command, flag, value):
        argv = {
            "evaluate": ["evaluate", "--models", "awt", "--protocol", "lolo"],
            "explain": ["explain", "--model", "lasso", "--method", "permutation"],
        }[command]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--scores", str(toy_paths["scores"]),
                  "--features", str(toy_paths["features"]), "--out", str(tmp_path / "out"),
                  flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be an integer in ASCII digits, got {value!r}" in err
        assert not (tmp_path / "out").exists()

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

    def test_llro_meta_without_an_eval_target_exit_two_before_any_fit(self, tmp_path, capsys):
        langs = lang_codes(6)
        classes = {lang: (5 if i % 2 == 0 else 2) for i, lang in enumerate(langs)}
        ds = planted_dataset({"A": langs[:4], "B": langs}, np.zeros(9), seed=2, classes=classes)
        paths = save_dataset(ds, tmp_path / "d")
        meta = paths["meta"]
        meta.write_text("".join(line for line in meta.read_text().splitlines(keepends=True)
                                if not line.startswith(f"{langs[5]},")))
        args = ["evaluate", "--scores", str(paths["scores"]), "--features", str(paths["features"]),
                "--meta", str(meta), "--models", "awt", "--protocol", "llro"]
        # Only B has langs[5] as a target, so a run on A alone needs no class for it.
        assert main(args + ["--task", "A", "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        assert main(args + ["--out", str(tmp_path / "all")]) == 2
        assert capsys.readouterr().err == (
            f"error: {meta}: no class for language {langs[5]!r}, a target of task 'B': "
            "--protocol llro needs one\n"
        )
        meta.write_text("lang,class,pretrain_words\n")
        assert main(args + ["--out", str(tmp_path / "all")]) == 2
        assert capsys.readouterr().err == (
            f"error: {meta}: no class for language {langs[0]!r}, a target of task 'A': "
            "--protocol llro needs one\n"
        )
        assert not (tmp_path / "all").exists()

    @pytest.mark.parametrize("protocol, extra, message", [
        ("lolo", [], "task 'A' has fewer than 2 target languages"),
        ("llro", [], "empty test side: no class <= 3 targets in task 'A'"),
        ("lolo", ["--task", "B", "--task", "Z"], "unknown task 'Z'"),
    ])
    def test_task_the_protocol_cannot_split_exit_two_before_any_fit(
            self, tmp_path, capsys, monkeypatch, protocol, extra, message):
        # A's one target is of class 5; B splits under either protocol.
        langs = lang_codes(3)
        classes = {langs[0]: 5, langs[1]: 2, langs[2]: 5}
        ds = planted_dataset({"A": langs[:1], "B": langs}, np.zeros(9), seed=2, classes=classes)
        paths = save_dataset(ds, tmp_path / "d")
        fits = []
        fit = evaluation.fit_predictors
        monkeypatch.setattr(evaluation, "fit_predictors", lambda *a, **k: fits.append(a) or fit(*a, **k))
        out = tmp_path / "out"
        code = main(["evaluate", "--scores", str(paths["scores"]), "--features",
                     str(paths["features"]), "--meta", str(paths["meta"]), "--models",
                     "awt,lasso", "--protocol", protocol, "--out", str(out), *extra])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert fits == [] and not out.exists()

    def test_folds_built_once_per_task_through_evaluation(self, toy_paths, tmp_path, monkeypatch):
        # bench/tracing.py times split construction by wrapping
        # evaluation.make_lolo_splits by name: evaluate must call the split
        # makers through that module attribute, once per eval task.
        calls = []
        make = evaluation.make_lolo_splits
        monkeypatch.setattr(evaluation, "make_lolo_splits",
                            lambda ds, task: calls.append(task) or make(ds, task))
        assert self.run_eval(toy_paths, tmp_path / "out") == 0
        assert calls == ["A", "B"]

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

    def test_cmf_helper_curve_starts_at_zero_helpers(self, five_task_paths, tmp_path):
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
        # From the eval task alone (rank 1) to all four helpers (rank d_latent 5).
        assert [row[2] for row in rows] == ["0", "1", "2", "3", "4"]
        assert max(float(row[4]) for row in rows) == 1.0


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

    @pytest.mark.parametrize("model, method", [
        ("lasso", "linear-shap"), ("group-lasso", "linear-shap"), ("gbt", "permutation"),
    ])
    def test_header_only_scores_exit_two(self, toy_paths, tmp_path, capsys, model, method):
        toy_paths["scores"].write_text("model,task,pivot,target,score\n")
        code = main(["explain", "--scores", str(toy_paths["scores"]),
                     "--features", str(toy_paths["features"]), "--model", model,
                     "--method", method, "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {toy_paths['scores']}: no score rows after the header\n"
        assert not (tmp_path / "out").exists()

    def test_negative_seed_exit_two(self, toy_paths, tmp_path, capsys):
        code = main(["explain", "--scores", str(toy_paths["scores"]),
                     "--features", str(toy_paths["features"]), "--model", "dgpr",
                     "--method", "permutation", "--seed", "-1", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_zero_repeats_exit_two_before_loading(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.csv")  # loading it would fail with another error
        code = main(["explain", "--scores", absent, "--features", absent, "--model", "gbt",
                     "--method", "permutation", "--repeats", "0", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "error: --repeats must be >= 1, got 0\n"
        assert not (tmp_path / "out").exists()

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

    def test_lasso_on_a_feature_whose_squares_overflow(self, toy_paths, tmp_path):
        # Every size cell at +-1e200: the scaler's std must not overflow to inf,
        # so model.json holds finite scales that --model-file accepts.
        lines = toy_paths["features"].read_text().splitlines()
        for i in range(1, len(lines)):
            cells = lines[i].split(",")
            cells[2 + FEATURE_NAMES.index("size")] = "1e200" if i % 2 else "-1e200"
            lines[i] = ",".join(cells)
        toy_paths["features"].write_text("\n".join(lines) + "\n")
        base_args = [
            "explain",
            "--scores", str(toy_paths["scores"]),
            "--features", str(toy_paths["features"]),
            "--model", "lasso",
            "--method", "linear-shap",
        ]
        assert main(base_args + ["--out", str(tmp_path / "fit")]) == 0
        model_file = tmp_path / "fit" / "model.json"
        assert main(base_args + ["--model-file", str(model_file), "--out", str(tmp_path / "reuse")]) == 0
        fit_csv = (tmp_path / "fit" / "attribution.csv").read_bytes()
        assert fit_csv == (tmp_path / "reuse" / "attribution.csv").read_bytes()

    def test_model_file_without_a_task_of_the_scores_exit_two(self, toy_paths, tmp_path, capsys):
        base_args = [
            "explain",
            "--scores", str(toy_paths["scores"]),
            "--features", str(toy_paths["features"]),
            "--model", "lasso",
            "--method", "linear-shap",
        ]
        assert main(base_args + ["--out", str(tmp_path / "fit")]) == 0
        artifact = json.loads((tmp_path / "fit" / "model.json").read_text())
        artifact["tasks"].remove("A")
        del artifact["scalers"]["A"], artifact["models"]["A"]
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps(artifact))
        capsys.readouterr()
        assert main(base_args + ["--model-file", str(partial), "--out", str(tmp_path / "reuse")]) == 2
        assert capsys.readouterr().err == f"error: {partial}: no model for task 'A' of the scores\n"
        assert not (tmp_path / "reuse").exists()

    def test_model_files_differing_in_one_weight_get_different_stamps(self, toy_paths, tmp_path):
        base_args = [
            "explain",
            "--scores", str(toy_paths["scores"]),
            "--features", str(toy_paths["features"]),
            "--model", "lasso",
            "--method", "linear-shap",
        ]
        assert main(base_args + ["--out", str(tmp_path / "fit")]) == 0
        artifact = json.loads((tmp_path / "fit" / "model.json").read_text())
        artifact["models"]["A"]["weights"][0] += 0.25
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(artifact))
        stamps = []
        for name, path in (("reuse", tmp_path / "fit" / "model.json"), ("edited", edited)):
            assert main(base_args + ["--model-file", str(path), "--out", str(tmp_path / name)]) == 0
            stamps.append((tmp_path / name / "attribution.csv").read_text().splitlines()[0])
        assert stamps[0].startswith("# config_hash=")
        assert stamps[0] != stamps[1]

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

    @pytest.mark.parametrize("content", [
        '{"kind": "lasso"}', "[1, 2]",
        '{"kind": "lasso", "tasks": ["A", "A"], "scalers": {}, "models": {}}',
    ])
    def test_malformed_model_file_exit_two(self, toy_paths, tmp_path, capsys, content):
        model_file = tmp_path / "model.json"
        model_file.write_text(content)
        code = main(
            [
                "explain",
                "--scores", str(toy_paths["scores"]),
                "--features", str(toy_paths["features"]),
                "--model", "lasso",
                "--method", "linear-shap",
                "--model-file", str(model_file),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert f"{model_file}: malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_model_file_with_a_scale_not_above_zero_exit_two(self, toy_paths, tmp_path, capsys,
                                                            scale):
        base_args = [
            "explain",
            "--scores", str(toy_paths["scores"]),
            "--features", str(toy_paths["features"]),
            "--model", "lasso",
            "--method", "linear-shap",
        ]
        assert main(base_args + ["--out", str(tmp_path / "fit")]) == 0
        artifact = json.loads((tmp_path / "fit" / "model.json").read_text())
        artifact["scalers"]["A"]["scale"][1] = scale  # 0 divides the feature into inf and nan
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(artifact))
        capsys.readouterr()
        assert main(base_args + ["--model-file", str(edited), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {edited}: malformed file, expected scalers['A'] with 9-entry mean and scale, "
            "every scale > 0\n")
        assert not (tmp_path / "out").exists()

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

    def test_stamp_covers_repeats_and_meta(self, toy_paths, tmp_path):
        stamps = set()
        for i, extra in enumerate((["--repeats", "1"], ["--repeats", "2"],
                                   ["--repeats", "1", "--meta", str(toy_paths["meta"])])):
            out = tmp_path / f"out{i}"
            assert main(["explain", "--scores", str(toy_paths["scores"]),
                         "--features", str(toy_paths["features"]), "--model", "lasso",
                         "--method", "permutation", "--out", str(out), *extra]) == 0
            stamps.add((out / "attribution.csv").read_text().splitlines()[0])
        assert len(stamps) == 3

    def test_permutation_cmf_with_fewer_tasks_than_d_latent(self, toy_paths, tmp_path):
        assert self.run_permutation(toy_paths, "cmf", tmp_path / "out") == 0
        with open(tmp_path / "out" / "attribution.csv", newline="") as fh:
            body = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
        assert sorted(row[1] for row in body) == ["A"] * 9 + ["B"] * 9

    @pytest.mark.parametrize("kind", ["awt", "aat"])
    def test_permutation_baseline_exit_two(self, toy_paths, tmp_path, capsys, kind):
        assert self.run_permutation(toy_paths, kind, tmp_path / "out") == 2
        assert "no feature pathway" in capsys.readouterr().err

    def test_non_finite_feature_exit_two(self, toy_paths, tmp_path, capsys):
        lines = toy_paths["features"].read_text().splitlines()
        cells = lines[-1].split(",")
        cells[2 + FEATURE_NAMES.index("size")] = "inf"
        lines[-1] = ",".join(cells)
        toy_paths["features"].write_text("\n".join(lines) + "\n")
        assert self.run_permutation(toy_paths, "lasso", tmp_path / "out") == 2
        assert f"features.csv:{len(lines)}: size must be finite" in capsys.readouterr().err

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

    def test_out_into_a_missing_directory(self, toy_paths, tmp_path, capsys):
        assert TestEvaluateCommand().run_eval(toy_paths, tmp_path / "out") == 0
        capsys.readouterr()
        table = tmp_path / "new" / "dir" / "table.txt"
        assert main(["report", "--report", str(tmp_path / "out" / "report.json"),
                     "--out", str(table)]) == 0
        assert table.read_text(encoding="utf-8") == capsys.readouterr().out

    def test_missing_report_exit_two(self, tmp_path, capsys):
        assert main(["report", "--report", str(tmp_path / "nope.json")]) == 2

    def test_malformed_report_exit_two(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text('{"results": [{"protocol": "lolo"}]}')
        assert main(["report", "--report", str(report)]) == 2
        assert f"{report}: malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [{}, {"schema_version": 1, "kind": "lasso", "tasks": ["A"],
                                              "scalers": {}, "models": {}}])
    def test_object_without_results_exit_two(self, tmp_path, capsys, payload):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(payload))
        assert main(["report", "--report", str(report)]) == 2
        assert capsys.readouterr().err == (f"error: {report}: malformed file, expected an object "
                                           "with a results list\n")

    def test_empty_results_list_renders_no_results(self, tmp_path, capsys):
        # What an evaluate run whose every cell failed writes.
        report = tmp_path / "report.json"
        report.write_text('{"results": []}')
        assert main(["report", "--report", str(report)]) == 0
        assert capsys.readouterr().out == "(no results)\n"


def single_row_task_scores(toy_paths):
    """The toy scores with task B cut to its first row."""
    lines = toy_paths["scores"].read_text().splitlines(keepends=True)
    rows_b = [line for line in lines if line.split(",")[1:2] == ["B"]]
    toy_paths["scores"].write_text("".join(line for line in lines if line not in rows_b[1:]))
    return toy_paths["scores"]


def input_error_argv(command, toy_paths, tmp_path, out):
    """Arguments that give ``command`` an input error, and a part of its message."""
    if command == "features":
        vocab_dir, _, _, _, meta = write_resources(tmp_path)
        return ["features", "--vocab-dir", str(vocab_dir), "--meta", str(meta),
                "--pivots", "aa,zz", "--out", str(out)], "no resource has pivot 'zz'"
    if command == "evaluate":
        return ["evaluate", "--scores", str(toy_paths["scores"]),
                "--features", str(toy_paths["features"]), "--models", "awt,bogus",
                "--protocol", "lolo", "--out", str(out)], "unknown model kind 'bogus'"
    if command == "explain":  # the fit rejects the data: not a check of the CLI's own
        return ["explain", "--scores", str(single_row_task_scores(toy_paths)),
                "--features", str(toy_paths["features"]), "--model", "dgpr",
                "--method", "permutation", "--out", str(out)], \
            "task 'B' needs at least 2 training points"
    missing = tmp_path / "nope.json"
    return ["report", "--report", str(missing), "--out", str(out)], f"{missing}: "


@pytest.mark.parametrize("command", ["features", "evaluate", "explain", "report"])
def test_input_error_exits_two_with_one_line(toy_paths, tmp_path, capsys, command):
    out = tmp_path / "out"
    argv, message = input_error_argv(command, toy_paths, tmp_path, out)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["features", "evaluate", "explain", "report"])
def test_out_under_a_regular_file_exits_two(toy_paths, tmp_path, capsys, monkeypatch, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    data = ["--scores", str(toy_paths["scores"]), "--features", str(toy_paths["features"])]
    argv = {
        "features": ["features", "--meta", str(write_resources(tmp_path)[4])],
        "evaluate": ["evaluate", *data, "--models", "awt", "--protocol", "lolo"],
        "explain": ["explain", *data, "--model", "lasso", "--method", "permutation"],
        "report": ["report", "--report", str(tmp_path / "run" / "report.json")],
    }[command]
    if command == "report":
        assert TestEvaluateCommand().run_eval(toy_paths, tmp_path / "run") == 0
        capsys.readouterr()
    fits = []
    monkeypatch.setattr(evaluation, "fit_predictors", lambda *a: fits.append(a))
    assert main([*argv, "--out", str(blocker / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err and err.count("\n") == 1, err
    assert "Traceback" not in err and not fits


@pytest.mark.parametrize("file", ["scores", "config", "vocab"])
def test_non_utf8_input_exits_two_naming_the_file(toy_paths, tmp_path, capsys, file):
    out = tmp_path / "out"
    if file == "scores":
        bad = toy_paths["scores"]
        argv = ["evaluate", "--scores", str(bad), "--features", str(toy_paths["features"]),
                "--models", "awt", "--protocol", "lolo", "--out", str(out)]
    elif file == "config":
        bad = tmp_path / "run.cfg"
        argv = ["evaluate", "--config", str(bad)]
    else:
        vocab_dir = write_resources(tmp_path)[0]
        bad = vocab_dir / "ab.txt"
        argv = ["features", "--vocab-dir", str(vocab_dir), "--out", str(out)]
    bad.write_bytes(b"\xff\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1
    assert not out.exists()


GOLDEN_SCORES = """model,task,pivot,target,score
m,A,en,aa,0.61
m,A,en,ab,0.42
m,A,en,ac,0.55
m,A,en,ad,0.3
m,B,en,aa,0.71
m,B,en,ab,0.52
m,B,en,ac,0.66
m,B,en,ad,0.38
m,B,en,ae,0.47
m,C,en,ab,0.58
m,C,en,ac,0.49
m,C,en,ae,0.35
"""
GOLDEN_META = "lang,class,pretrain_words\nen,5,3e9\naa,5,1e8\nab,4,1e7\nac,2,1e5\nad,1,1e4\nae,3,1e6\n"
#: sha256 of each output of `evaluate --models awt,aat` on the golden inputs.
#: awt and aat average scores without a BLAS call, so the bytes do not depend
#: on the BLAS build; a change to any output format or float operation shows.
GOLDEN_SHA256 = {
    "lolo": {
        "report.json": "44076fff27321d8836170c389a09203aa4e3859fecdc360ae08da766df6dc81b",
        "records.csv": "66738c0600240b7dc0c1d498b0c33efb4637991f0aa8b1465871a4351b0e0539",
        "task_mae.csv": "394861190830df92a4a01581c21d998e832d2555d6c860d0d611c9488bb44fb3",
        "table.txt": "59ba9f632d772a5c9360cb67bf6578152706ce081edb65dc394f654a0cc4db81",
    },
    "llro": {
        "report.json": "ca8df314b6f0a77bd03c4731b725c187c1bd24211c8fdf1abe23c2c5f5a91338",
        "records.csv": "09a28d277682d630c0d71e30474319cfb61ab4d4763f180d7fddc4af4064f7dc",
        "task_mae.csv": "8109374ae5ab124f84726100b1fc3a2140967e5b42416d174ab8edbccd1d9356",
        "table.txt": "9fba6e9bcfc6506a449b0ce2ac8ecd06ad13cde92a66ddc5ef97e3246b0af3c6",
    },
}


#: sha256 of `explain --method linear-shap` outputs on the golden inputs. Only
#: the first feature column varies, so each fit has one active weight.
GOLDEN_EXPLAIN_SHA256 = {
    "lasso": {
        "model.json": "6665a529e5335d94a171f954d93c24e5e52c5f38acb8d9803b58f94af9dbb321",
        "attribution.csv": "31725f5a88d9b98355926373895346c9f4f7d6be10b152b0d31e0bfc7a830633",
    },
    "group-lasso": {
        "model.json": "2f1768f21415efc90b2d2cf3a21be064ba4be36cac8a61b6f86a74ffdf101e26",
        "attribution.csv": "b6177714eaf1bfbd481e202f7562172015eeb365aa3bb8881ab7e59cd9dbee7a",
    },
}


@pytest.fixture
def golden_paths(tmp_path):
    (tmp_path / "scores.csv").write_text(GOLDEN_SCORES)
    (tmp_path / "features.csv").write_text(
        "pivot,target," + ",".join(FEATURE_NAMES) + "\n"
        + "".join(f"en,{lang},0.{i},0.5,0.5,0.5,0.2,6.0,0.9,1.5,0.1\n"
                  for i, lang in enumerate(("aa", "ab", "ac", "ad", "ae"), start=1))
    )
    (tmp_path / "meta.csv").write_text(GOLDEN_META)
    return [f"--{name}={tmp_path / name}.csv" for name in ("scores", "features", "meta")]


def sha256_of(out: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


class TestEvaluateGolden:
    @pytest.mark.parametrize("protocol", ["lolo", "llro"])
    def test_averaging_baselines_outputs_pinned(self, protocol, golden_paths, tmp_path):
        out = tmp_path / "out"
        code = main(["evaluate", *golden_paths, "--models", "awt,aat",
                     "--protocol", protocol, "--seed", "0", "--out", str(out)])
        assert code == 0
        assert sha256_of(out, GOLDEN_SHA256[protocol]) == GOLDEN_SHA256[protocol]

    @pytest.mark.parametrize("kind", ["lasso", "group-lasso"])
    def test_linear_shap_outputs_pinned(self, kind, golden_paths, tmp_path):
        args = ["explain", *golden_paths, "--model", kind, "--method", "linear-shap"]
        assert main([*args, "--out", str(tmp_path / "fit")]) == 0
        assert sha256_of(tmp_path / "fit", GOLDEN_EXPLAIN_SHA256[kind]) == GOLDEN_EXPLAIN_SHA256[kind]
        assert main([*args, "--model-file", str(tmp_path / "fit" / "model.json"),
                     "--out", str(tmp_path / "reuse")]) == 0
        assert (sha256_of(tmp_path / "reuse", ["attribution.csv"])["attribution.csv"]
                == GOLDEN_EXPLAIN_SHA256[kind]["attribution.csv"])
