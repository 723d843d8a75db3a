"""The benchmark's tracer (bench/tracing.py) wraps package attributes by
name; installing it must find every one of them."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_every_wrapped_attribute():
    # A subprocess, so that the wrappers never reach the modules other tests use.
    code = "\n".join(
        [
            "import sys",
            "sys.path[:0] = ['bench', 'src']",
            "import tracing",
            "tracing.install(tracing.Tracer())",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_bench_smoke_passes():
    # bench/smoke.py drives xferlens.cli.main and load_dataset, so a package
    # change can break it; tier-1 runs it whole rather than collecting it.
    proc = subprocess.run(
        [sys.executable, "bench/smoke.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize(
    "workload", ["llro-multitask", "lolo-singletask", "multipivot-pipeline", "explain-permutation"]
)
def test_traced_pass_is_correct(tmp_path, workload):
    # One short traced pass of each workload: the GP, MAML and GBT kernels,
    # and the one run of `features`. "correct" holds every traced invariant
    # (the counts the tracer derives from calls included: explain's one GBT
    # fit per task and one predict_gbt per row, one wmrr per feature pair),
    # outputs such as features.csv byte-identical across the two passes, and
    # each cell's MAE or attribution against bench/reference.json.
    # A copy of the checkout, so that the generated inputs stay in tmp_path.
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_work"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
