"""xferlens benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S   # every workload

Run from the root of a checkout. The run generates three input sets from
``--seed`` under ``.bench_work/<workload>/``, then starts a fresh interpreter
(see worker.py) that calls ``xferlens.cli.main`` for the workload's commands
one after another, in passes that cycle through the input sets, while another
pass fits in ``--seconds``. The child's environment has no thread-count
variables and a fixed ``PYTHONHASHSEED``, so BLAS keeps its default threading.

Every pass is checked: exit codes, ``failures`` in report.json, per-(kind,
task) MAE (or permutation importance) against reference.json, and outputs
byte-identical to the first pass on the same input set. One operation is one
(command, kind, task) cell per pass; ``attempted``/``failed`` count them.

With ``--trace 0`` the last line holds the end-to-end metrics: ``run_s``
(median time of one pass over all commands), ``setup_s`` (median over fresh
interpreters of spawn -> ``xferlens.cli`` imported -> inputs read with
``load_dataset``) and ``peak_rss_mb``. Both times are taken at a reference
host speed: each pass's or probe's wall time is scaled by
``CALIBRATION_REF_S`` over the mean time of a fixed calibration loop run
before, between and after its commands (see ``reference_speed``). With
``--trace 1`` one untraced and one traced pass run on the first input set,
and the last line holds the per-layer metrics of the traced pass
(tracing.py), the per-kind wall times of the untraced one, and the tracing
overhead; the invariant checks must hold.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import generate
import tracing
from worker import calibration_seconds
from workloads import WORKLOADS, Command, commands

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
SETUP_SAMPLES = 7
# A timed run cycles its passes through this many input sets generated from
# the seed, so that its median averages the seed-dependent work of the
# solvers (line-search steps, sweeps to converge) over independent inputs.
INPUT_SETS = 3
# Median time of worker.calibration_seconds() on the 2-vCPU VM (Xeon, 2.1 GHz)
# the benchmark was written on; reported times are in seconds at that speed.
CALIBRATION_REF_S = 0.1
CHILD_TIMEOUT_S = 150
EXIT_OK, EXIT_PARTIAL = 0, 3
THREAD_VARS = ("XFERLENS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(["src", *filter(None, [env.get("PYTHONPATH")])])
    return env


def spawn_worker(spec: dict, spec_path: Path, timeout: float) -> subprocess.CompletedProcess:
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    return subprocess.run(
        [sys.executable, str((BENCH / "worker.py").relative_to(ROOT)), str(spec_path)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
    )


def reference_speed(seconds: float, calibration: list[float]) -> float:
    """A wall time scaled to the reference host speed.

    The host this benchmark runs on may share its processors: on a 2-vCPU VM
    the same command took anywhere from 1.0 to 2.0 s within two minutes, and
    the calibration loop slowed with it. Dividing by the mean time of the
    loops run around and within the timed work cancels most of that drift; a
    change to xferlens still moves the result in full, because the loop runs
    none of its code.
    """
    return seconds * CALIBRATION_REF_S / statistics.mean(calibration)


def setup_seconds(load: list[str], work: Path) -> tuple[list[float], list[float]]:
    """Spawn-to-ready times of fresh interpreters importing the CLI and loading
    the inputs: (wall seconds, seconds at the reference speed)."""
    raw, calibration = [], [calibration_seconds()]
    for i in range(SETUP_SAMPLES):
        spawned = time.monotonic()
        proc = spawn_worker({"mode": "setup", "load": load}, work / f"setup{i}.json", 60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        raw.append(json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - spawned)
        calibration.append(calibration_seconds())
    return raw, [reference_speed(t, calibration[i:i + 2]) for i, t in enumerate(raw)]


def input_digest(digests: dict[str, str]) -> str:
    lines = "".join(f"{path} {sha}\n" for path, sha in sorted(digests.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def read_csv_body(path: Path) -> list[list[str]]:
    """Rows of a CLI output CSV, without its stamp and header lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[2:]


def cell_values(cmd: Command, out_dir: Path) -> tuple[dict[str, float], set[str]]:
    """Checked value per 'kind/task' cell and the cells the CLI reported failed."""
    values, failed = {}, set()
    if cmd.argv[0] == "evaluate":
        base = out_dir / cmd.kind
        report = json.loads((base / "report.json").read_text(encoding="utf-8"))
        failed = {f"{f['model']}/{f['task']}" for f in report["failures"]}
        for kind, task, mae in read_csv_body(base / "task_mae.csv"):
            values[f"{kind}/{task}"] = float(mae)
    elif cmd.argv[0] == "explain":
        for kind, task, _, value, _ in read_csv_body(out_dir / cmd.kind / "attribution.csv"):
            key = f"{kind}/{task}"
            values[key] = values.get(key, 0.0) + abs(float(value))
    return values, failed


def check_passes(passes: list[dict], cmd_sets: list[list[Command]], out_root: Path,
                 references: list[dict] | None, tolerance: dict,
                 ) -> tuple[int, int, list[str], list[dict[str, float]]]:
    """(attempted, failed, problems, values of each input set's first pass).

    Pass ``p`` ran input set ``p % len(cmd_sets)``. A cell fails when its
    command exits non-zero (for the partial-failure exit 3 only the cells
    listed in report.json ``failures``), when it has no value, when its value
    is outside the reference tolerance (or, for a seed with no reference, not
    in ``[0, tolerance["unrecorded_max"]]``), or when its command's outputs
    differ from the first pass on the same input set.
    """
    attempted, failed, problems = 0, 0, []
    first_values: list[dict[str, float]] = [{} for _ in cmd_sets]
    for p, run in enumerate(passes):
        k = p % len(cmd_sets)
        reference = references[k] if references is not None else None
        for i, (cmd, res) in enumerate(zip(cmd_sets[k], run["commands"])):
            where = f"pass {p} (set {k}) {cmd.id}"
            cells = [f"{cmd.kind}/{t}" for t in cmd.tasks]
            attempted += len(cells)
            bad: set[str] = set()
            if res["code"] not in (EXIT_OK, EXIT_PARTIAL):
                problems.append(f"{where}: exit {res['code']}: {res['stderr'].strip()[-300:]}")
                bad.update(cells)
            elif cmd.kind != "features":
                try:
                    values, reported = cell_values(cmd, out_root / f"p{p}")
                except (OSError, ValueError, KeyError) as err:
                    problems.append(f"{where}: unreadable outputs: {err}")
                    values, reported = {}, set()
                for cell in sorted(reported):
                    problems.append(f"{where}: {cell} listed in failures")
                bad.update(reported)
                for cell in cells:
                    if cell in reported:
                        continue
                    if cell not in values:
                        problems.append(f"{where}: no value for {cell}")
                        bad.add(cell)
                    elif reference is None:
                        if not 0.0 <= values[cell] <= tolerance["unrecorded_max"]:
                            problems.append(f"{where}: {cell} = {values[cell]!r}, outside "
                                            f"[0, {tolerance['unrecorded_max']}]")
                            bad.add(cell)
                    elif cell not in reference or abs(values[cell] - reference[cell]) > max(
                            tolerance["abs"], tolerance["rel"] * abs(reference[cell])):
                        problems.append(f"{where}: {cell} = {values[cell]!r}, "
                                        f"reference {reference.get(cell)!r}")
                        bad.add(cell)
                if p == k:
                    first_values[k].update(values)
            if p > k and res["digests"] != passes[k]["commands"][i]["digests"]:
                problems.append(f"{where}: outputs differ from pass {k}")
                bad.update(cells)
            failed += len(bad)
    return attempted, failed, problems, first_values


def run_workload(name: str, seed: int, seconds: float, trace: bool, update_reference: bool) -> dict:
    workload = WORKLOADS[name]
    work = Path(".bench_work") / name  # relative to the checkout root, the working directory
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    make = generate.paper_table if workload.inputs == "paper" else generate.multipivot_resources
    input_sets = [make(seed, work / "inputs" / f"set{k}", k) for k in range(INPUT_SETS)]
    digests = generate.sha256_tree(work / "inputs")
    digest = input_digest(digests)
    (work / "inputs.sha256").write_text(
        "".join(f"{sha}  {path}\n" for path, sha in sorted(digests.items())), encoding="utf-8")
    # A traced run makes both its passes on the first input set.
    cmd_sets = [commands(workload, inputs, work / f"features{k}.csv")
                for k, inputs in enumerate(input_sets[:1] if trace else input_sets)]

    started = time.monotonic()
    spec = {
        "mode": "run", "workload": name, "seconds": seconds, "trace": trace,
        "sets": [[{"id": c.id, "argv": list(c.argv), "kind": c.kind, "outputs": list(c.outputs)}
                  for c in cmds] for cmds in cmd_sets],
        "out_root": str(work / "out"), "result": str(work / "result.json"),
    }
    proc = spawn_worker(spec, work / "spec.json", CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {proc.stderr.strip()[-1000:]}")
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))

    reference_doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    known_digest = reference_doc["inputs"].get(workload.inputs, {}).get(str(seed))
    references = reference_doc["values"].get(name, {}).get(str(seed))
    attempted, failed, problems, values = check_passes(
        result["passes"], cmd_sets, work / "out", references, reference_doc["tolerance"])
    if known_digest is not None and known_digest != digest:
        problems.append(f"generated inputs {digest[:16]} differ from the reference's {known_digest[:16]}")

    passes = result["passes"]
    pass_s = [p["seconds"] for p in passes]
    kind_s = {
        c.kind: statistics.median(p["commands"][i]["seconds"] for p in passes[:1 if trace else None])
        for i, c in enumerate(cmd_sets[0])
    }
    if trace:
        view = tracing.TraceView(result["trace"])
        traced = passes[1]
        metrics = tracing.layer_metrics(view, sum(c["bytes"] for c in traced["commands"]))
        for kind in tracing.KINDS:
            metrics[f"kind_s.{kind}"] = (kind_s.get(kind, 0.0), "s")
        metrics["features_s"] = (kind_s.get("features", 0.0), "s")
        metrics["trace.overhead_ratio"] = (traced["seconds"] / passes[0]["seconds"], "ratio")
        traced_wall = sum(c["seconds"] for c in traced["commands"])
        records = {c.kind: work / "out" / "p1" / c.kind / "records.csv"
                   for c in cmd_sets[0] if c.argv[0] == "evaluate"}
        test_rows = {kind: len(read_csv_body(path)) if path.exists() else 0
                     for kind, path in records.items()}
        for check, holds, detail in tracing.invariants(view, metrics, traced_wall, test_rows):
            print(f"invariant {'ok  ' if holds else 'FAIL'} {check}: {detail}")
            if not holds:
                problems.append(f"invariant failed: {check} ({detail})")
    else:
        inputs = input_sets[0]
        features = inputs.get("features", work / "features0.csv")
        setup_raw, setup = setup_seconds([str(inputs["scores"]), str(features), str(inputs["meta"])], work)
        scaled = [reference_speed(p["seconds"], p["calibration"]) for p in passes]
        print(f"at the reference speed: pass seconds {', '.join(f'{s:.3f}' for s in scaled)}; "
              f"set-up seconds {', '.join(f'{s:.3f}' for s in setup)} "
              f"(wall {', '.join(f'{s:.3f}' for s in setup_raw)})")
        metrics = {
            "run_s": (statistics.median(scaled), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        }

    if update_reference and not trace and not problems and failed == 0:
        reference_doc["inputs"].setdefault(workload.inputs, {})[str(seed)] = digest
        reference_doc["values"].setdefault(name, {})[str(seed)] = values
        REFERENCE.write_text(json.dumps(reference_doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    env = result["environment"]
    print(f"workload {name} seed {seed}: {workload.why}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, affinity {env['affinity']}, PYTHONHASHSEED {env['pythonhashseed']}, "
          f"thread variables {env['thread_env'] or 'none'}")
    for blas in env["openblas"]:
        print(f"  {blas['package']} {blas['library']}: {blas.get('config', '?')}, "
              f"{blas.get('threads', '?')} threads in effect")
    print(f"inputs: {len(digests)} files, sha256 of the digest list {digest}"
          f" ({'matches reference' if known_digest == digest else 'no reference for this seed'})")
    for path, sha in sorted(digests.items())[:12]:
        print(f"  {sha}  {path}")
    if len(digests) > 12:
        print(f"  ... {len(digests) - 12} more in {work / 'inputs.sha256'}")
    print(f"passes: {len(passes)} in {time.monotonic() - started:.1f} s, pass seconds "
          + ", ".join(f"{s:.3f}" for s in pass_s))
    for kind, s in kind_s.items():
        print(f"  {'features_s' if kind == 'features' else 'kind_s.' + kind} {s:.4f} s")
    ceiling = reference_doc["tolerance"]["unrecorded_max"]
    print(f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted} operations); values "
          + ("checked against the reference" if references is not None else
             f"not recorded for this seed, checked only for range [0, {ceiling}]"))
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value:.6g} {unit}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help="record this run's inputs digest and values in reference.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "xferlens" / "cli.py").is_file():
        print(f"error: no xferlens sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         args.update_reference)
        except (RuntimeError, subprocess.TimeoutExpired) as err:
            print(f"error: workload {name}: {err}", file=sys.stderr)
            return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
