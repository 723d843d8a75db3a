"""The benchmark's four workloads: which inputs each generates and which CLI
commands it runs, one after another, from a single process.

Why each workload exists (see README.md for the per-layer map):

* ``llro-multitask``: the multi-task solvers (gp, meta, factorization) fit
  on all but one task; data, features and cli do almost nothing.
* ``lolo-singletask``: many small (7-row) Python-bound fits in baselines
  (GBT) and gp (DGPR); contrasts with llro-multitask for the same gp code.
* ``multipivot-pipeline``: the only workload running ``features``; data and
  evaluation do O(records x folds) split, integrity and baseline scans.
* ``explain-permutation``: one full-data fit per task, then ~2.7k single-row
  predictions and ``Scaler.transform`` calls per kind.

Every pass takes a few seconds, so a timed run holds several passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from generate import MULTIPIVOT_TASK_SIZES, N_PIVOTS, TABLE_TASK_SIZES, lang_codes, task_names

PAPER_TASKS = tuple(task_names(len(TABLE_TASK_SIZES)))
MULTIPIVOT_TASKS = tuple(task_names(len(MULTIPIVOT_TASK_SIZES)))
#: Placeholder in an argv for the per-pass output directory.
OUT = "{out}"
# Half the CLI's default of 10, so that an explain pass fits five times in a run.
EXPLAIN_REPEATS = 5


@dataclass(frozen=True)
class Command:
    id: str
    argv: tuple[str, ...]
    kind: str  # model kind, or "features"
    tasks: tuple[str, ...]  # one operation per (kind, task) cell
    outputs: tuple[str, ...]  # files whose bytes must repeat across passes


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: str  # "paper" or "multipivot"
    steps: tuple[tuple, ...]  # ("evaluate", kind, protocol, tasks) | ("explain", kind) | ("features",)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "llro-multitask",
            "multi-task GP, MAML and CMF fits on m~50 problems dominate; data/features/cli idle",
            "paper",
            tuple(("evaluate", k, "llro", PAPER_TASKS[-2:]) for k in ("mdgpr", "maml", "cmf")),
        ),
        Workload(
            "lolo-singletask",
            "8 folds of 7-row GBT and DGPR fits: small Python-bound fits, BLAS barely matters",
            "paper",
            tuple(("evaluate", k, "lolo", (PAPER_TASKS[3],)) for k in ("gbt", "dgpr")),
        ),
        Workload(
            "multipivot-pipeline",
            "features from raw resources for 5 pivots, then LOLO baselines and linear models on 620 records",
            "multipivot",
            (("features",),)
            + tuple(("evaluate", k, "lolo", MULTIPIVOT_TASKS[-2:])
                    for k in ("awt", "aat", "lasso", "group-lasso")),
        ),
        Workload(
            "explain-permutation",
            "permutation importance: a fit per task, then ~2.7k single-row predictions per kind",
            "paper",
            tuple(("explain", k) for k in ("gbt", "dgpr", "cmf")),
        ),
    )
}


def commands(workload: Workload, inputs: dict[str, Path], features_out: Path) -> list[Command]:
    """Concrete commands, with every path relative to the checkout root.

    ``features_out`` is where a ``features`` step writes the table that the
    later steps read, for inputs that have no features table of their own.
    """
    out = []
    scores = ["--scores", str(inputs["scores"]), "--meta", str(inputs["meta"])]
    features = str(inputs.get("features", features_out))
    for step in workload.steps:
        if step[0] == "features":
            pivots = ",".join(lang_codes(N_PIVOTS, skip=()))
            argv = (
                "features", "--vocab-dir", str(inputs["vocab_dir"]), "--typology",
                str(inputs["typology"]), "--wals", str(inputs["wals"]), "--stats",
                str(inputs["stats"]), "--meta", str(inputs["meta"]), "--pivots", pivots,
                "--out", features,
            )
            out.append(Command("features", argv, "features", ("-",), (features,)))
        elif step[0] == "evaluate":
            _, kind, protocol, tasks = step
            task_args = [a for t in tasks for a in ("--task", t)]
            argv = (
                "evaluate", *scores, "--features", features, "--models", kind,
                "--protocol", protocol, *task_args, "--seed", "0", "--out", f"{OUT}/{kind}",
            )
            outputs = tuple(f"{OUT}/{kind}/{f}" for f in ("report.json", "records.csv", "task_mae.csv"))
            out.append(Command(f"evaluate-{kind}", argv, kind, tasks, outputs))
        else:
            _, kind = step
            argv = (
                "explain", *scores, "--features", features, "--model", kind,
                "--method", "permutation", "--repeats", str(EXPLAIN_REPEATS), "--seed", "0",
                "--out", f"{OUT}/{kind}",
            )
            outputs = (f"{OUT}/{kind}/attribution.csv",)
            out.append(Command(f"explain-{kind}", argv, kind, PAPER_TASKS, outputs))
    return out
