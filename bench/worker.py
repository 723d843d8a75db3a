"""Child process of the benchmark: a fresh interpreter that runs one
workload's commands closed-loop through ``xferlens.cli.main``.

Usage: ``python3 bench/worker.py SPEC.json`` with the working directory at the
checkout root and ``src`` on ``PYTHONPATH``. The spec's ``mode`` is either

* ``setup``: import ``xferlens.cli``, read the inputs once with
  ``load_dataset`` and print the ``time.monotonic()`` reading at that point;
* ``run``: repeat the commands in passes, pass ``p`` on input set
  ``p % len(sets)``, and write per-command wall times, output digests, peak
  RSS, the environment and (with ``trace``) the spans to the spec's
  ``result`` file. Timed mode runs every input set once, then keeps starting
  passes while one more fits in ``seconds``, and runs the calibration loop
  before the first command of each pass and after every command; trace mode
  runs one untraced and one traced pass.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

MAX_PASSES = 20
CALIBRATION_LOOPS = 700_000
CALIBRATION_ARRAY_OPS = 14_000


def calibration_seconds() -> float:
    """Wall time of a fixed mix of interpreter steps and small numpy operations.

    It runs no xferlens code, so its time moves only with the speed the host
    gives this process at that moment; run.py divides pass times by it.
    It allocates next to nothing, so it leaves the worker's peak RSS alone.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    a = np.arange(64.0)
    for _ in range(CALIBRATION_ARRAY_OPS):
        a = (a * 1.0001 + 1.0) / 1.0001
    return time.perf_counter() - start


def blas_info() -> list[dict]:
    """Configuration and live thread count of each bundled OpenBLAS."""
    import numpy
    import scipy

    out = []
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            entry = {"package": pkg.__name__, "library": Path(path).name}
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    if threads is not None and "threads" not in entry:
                        threads.argtypes, threads.restype = [], ctypes.c_int
                        entry["threads"] = threads()
                    if config is not None and "config" not in entry:
                        config.argtypes, config.restype = [], ctypes.c_char_p
                        entry["config"] = config().decode()
            out.append(entry)
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_info(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "thread_env": {
            k: os.environ[k]
            for k in ("XFERLENS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def _digest(path: Path) -> tuple[str, int]:
    try:
        data = path.read_bytes()
    except OSError:
        return "missing", 0
    return hashlib.sha256(data).hexdigest(), len(data)


def run_command(cli, cmd: dict, out_dir: str, tracer, workload: str) -> dict:
    argv = [a.replace("{out}", out_dir) for a in cmd["argv"]]
    captured_out, captured_err = io.StringIO(), io.StringIO()
    span = (
        tracer.span("cli.main", "cli", workload=workload, command=cmd["id"], kind=cmd["kind"])
        if tracer is not None
        else contextlib.nullcontext()
    )
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured_out), contextlib.redirect_stderr(captured_err):
        with span:
            try:
                code = cli.main(argv)
            except SystemExit as exit_:
                code = exit_.code if isinstance(exit_.code, int) else 2
            except Exception:  # noqa: BLE001 - a crashed command is a failed operation
                code = -1
                captured_err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    digests, written = {}, 0
    for out in cmd["outputs"]:
        digests[out], size = _digest(Path(out.replace("{out}", out_dir)))
        written += size
    return {
        "id": cmd["id"], "seconds": seconds, "code": code,
        "stderr": captured_err.getvalue()[-2000:], "digests": digests, "bytes": written,
    }


def run(spec: dict) -> dict:
    import xferlens.cli as cli

    import tracing

    passes, tracer = [], None
    start = time.perf_counter()
    while len(passes) < MAX_PASSES:
        p = len(passes)
        out_dir = f"{spec['out_root']}/p{p}"
        commands = spec["sets"][p % len(spec["sets"])]
        if spec["trace"]:
            if p == 1:
                tracer = tracing.Tracer()
                tracing.install(tracer)
            pass_start = time.perf_counter()
            cmds = [run_command(cli, c, out_dir, tracer, spec["workload"]) for c in commands]
            passes.append({"commands": cmds, "seconds": time.perf_counter() - pass_start})
            if p == 1:
                break
            continue
        calibration, cmds = [calibration_seconds()], []
        for c in commands:
            cmds.append(run_command(cli, c, out_dir, None, spec["workload"]))
            calibration.append(calibration_seconds())
        passes.append({"commands": cmds, "seconds": sum(c["seconds"] for c in cmds),
                       "calibration": calibration})
        elapsed = time.perf_counter() - start
        if p + 1 >= len(spec["sets"]) and elapsed * (p + 2) / (p + 1) > spec["seconds"]:
            break
    result = {
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": environment(),
    }
    if tracer is not None:
        result["trace"] = {
            "spans": tracer.spans,
            "counters": [[n, k, *v] for (n, k), v in sorted(tracer.counters.items())],
            "counter_layer": tracer.counter_layer,
            "open_frames": tracer.open_frames(),
        }
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    if spec["mode"] == "setup":
        import xferlens.cli  # noqa: F401 - importing the CLI is part of set-up
        from xferlens.data import load_dataset

        load_dataset(*spec["load"])
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
