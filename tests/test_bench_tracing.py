"""The benchmark's tracer (bench/tracing.py) wraps package attributes by
name; installing it must find every one of them."""

import subprocess
import sys
from pathlib import Path

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
