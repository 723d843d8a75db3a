"""Smoke test of the benchmark itself, on tiny inputs (a few seconds).

    python3 bench/smoke.py            # or: python3 -m pytest bench/smoke.py

Covers generator determinism and guarantees, the operation counting behind
``attempted``/``failed`` (with a tiny input on which ``aat`` must fail), and
the self-time arithmetic of the tracer on a synthetic span tree.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import generate  # noqa: E402
import tracing  # noqa: E402
from run import check_passes  # noqa: E402
from worker import run_command  # noqa: E402
from workloads import Command  # noqa: E402


def _digests_under_hash_seed(kind: str, hash_seed: str, out: Path) -> dict:
    code = (
        "import sys, json; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
        "import generate as g; "
        f"g.{kind}(7, Path(sys.argv[2])); print(json.dumps(g.sha256_tree(Path(sys.argv[2]))))"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH), str(out)],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout)


def test_generator_is_deterministic_across_hash_seeds():
    with tempfile.TemporaryDirectory() as tmp:
        for kind in ("paper_table", "multipivot_resources"):
            a = _digests_under_hash_seed(kind, "1", Path(tmp) / f"{kind}-a")
            b = _digests_under_hash_seed(kind, "2", Path(tmp) / f"{kind}-b")
            assert a and a == b, kind
        other = generate.paper_table(8, Path(tmp) / "other")
        assert generate.sha256_tree(other["scores"].parent) != _digests_under_hash_seed(
            "paper_table", "3", Path(tmp) / "again")


def test_generator_guarantees():
    from xferlens.data import load_dataset

    with tempfile.TemporaryDirectory() as tmp:
        paths = generate.paper_table(3, Path(tmp))
        ds = load_dataset(paths["scores"], paths["features"], paths["meta"])
    sizes = sorted(Counter(r.task for r in ds.records).values(), reverse=True)
    assert tuple(sizes) == generate.TABLE_TASK_SIZES and len(ds.records) == sum(sizes)
    assert {r.model for r in ds.records} == {generate.MODEL_NAME}
    for task in ds.tasks:
        classes = [ds.meta[t].resource_class for t in ds.targets(task)]
        assert min(classes) <= 3 and max(classes) >= 4, task
    tasks_per_target = Counter(r.target for r in ds.records)
    assert min(tasks_per_target.values()) >= 2


def _tiny_aat_inputs(root: Path) -> dict[str, Path]:
    """Two tasks; target 'ad' is only in task B, so aat cannot score it."""
    from xferlens.data import FEATURE_NAMES

    (root / "scores.csv").write_text(
        "model,task,pivot,target,score\n"
        "m,A,en,aa,0.5\nm,A,en,ab,0.6\nm,A,en,ac,0.7\n"
        "m,B,en,aa,0.4\nm,B,en,ab,0.5\nm,B,en,ac,0.6\nm,B,en,ad,0.3\n"
    )
    rows = [f"en,{t}," + ",".join(str(0.05 * (i + j + 1)) if n != "fert" else "1.5"
                                  for j, n in enumerate(FEATURE_NAMES))
            for i, t in enumerate(("aa", "ab", "ac", "ad"))]
    (root / "features.csv").write_text("pivot,target," + ",".join(FEATURE_NAMES) + "\n"
                                       + "\n".join(rows) + "\n")
    (root / "meta.csv").write_text("lang,class,pretrain_words\naa,5,1e9\nab,4,1e8\nac,2,1e6\nad,1,1e5\nen,5,1e10\n")
    return {n: root / f"{n}.csv" for n in ("scores", "features", "meta")}


def _run_cmd(cmd: Command, out_dir: Path) -> dict:
    from xferlens import cli

    spec = {"id": cmd.id, "argv": list(cmd.argv), "kind": cmd.kind, "outputs": list(cmd.outputs)}
    return run_command(cli, spec, str(out_dir), None, "smoke")


def test_operation_counting():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = _tiny_aat_inputs(tmp)
        cmds = []
        for kind in ("aat", "awt"):
            argv = ("evaluate", "--scores", str(paths["scores"]), "--features", str(paths["features"]),
                    "--meta", str(paths["meta"]), "--models", kind, "--protocol", "lolo",
                    "--out", f"{{out}}/{kind}")
            outputs = tuple(f"{{out}}/{kind}/{f}" for f in ("report.json", "records.csv", "task_mae.csv"))
            cmds.append(Command(f"evaluate-{kind}", argv, kind, ("A", "B"), outputs))
        passes = [{"commands": [_run_cmd(c, tmp / "out" / f"p{p}") for c in cmds]} for p in (0, 1)]
        assert passes[0]["commands"][0]["code"] == 3  # partial failure: aat on B

        tol = {"abs": 1e-4, "rel": 0.01, "unrecorded_max": 5.0}
        attempted, failed, problems, (values,) = check_passes(passes, [cmds], tmp / "out", None, tol)
        assert (attempted, failed) == (8, 2), problems  # aat/B in both passes
        assert set(values) == {"aat/A", "awt/A", "awt/B"}

        reference = dict(values, **{"awt/B": values["awt/B"] * 1.05})
        attempted, failed, problems, _ = check_passes(passes, [cmds], tmp / "out", [reference], tol)
        assert (attempted, failed) == (8, 4), problems  # plus awt/B off the reference twice

        low = dict(tol, unrecorded_max=min(values.values()) / 2)
        attempted, failed, problems, _ = check_passes(passes, [cmds], tmp / "out", None, low)
        assert (attempted, failed) == (8, 8), problems  # no reference: every value above the range

        attempted, failed, problems, _ = check_passes(passes, [cmds, cmds], tmp / "out", None, tol)
        assert (attempted, failed) == (8, 2), problems  # two input sets: no pass repeats a set

        passes[1]["commands"][1]["digests"] = {k: "0" * 64 for k in passes[1]["commands"][1]["digests"]}
        attempted, failed, problems, _ = check_passes(passes, [cmds], tmp / "out", None, tol)
        assert (attempted, failed) == (8, 4), problems  # awt's pass-1 outputs no longer repeat


def test_self_time_arithmetic():
    def span(i, parent, layer, start, end, counted=0.0):
        return {"id": i, "parent": parent, "name": f"s{i}", "layer": layer,
                "start": start, "end": end, "counted": counted, "attrs": {}}

    spans = [
        span(0, None, "cli", 0.0, 10.0, counted=1.0),
        span(1, 0, "evaluation", 1.0, 4.0),
        span(2, 0, "gp", 3.0, 6.0),  # overlaps span 1: the union [1, 6] is covered once
        span(3, 1, "data", 2.0, 3.0),
    ]
    assert tracing.self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}
    counters = {("numerics.x", ""): (5, 1.0, 0.75, 0), ("data.y", ""): (2, 0.25, 0.25, 0)}
    layers = tracing.layer_self_times(spans, counters, {"numerics.x": "numerics", "data.y": "data"})
    assert layers["cli"] == 4.0 and layers["numerics"] == 0.75 and layers["data"] == 1.25
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4)]) == 3.0


def test_live_tracer_accounts_for_all_time():
    import time

    tracer = tracing.Tracer()

    class Owner:
        @staticmethod
        def leaf():
            time.sleep(0.002)

        @staticmethod
        def inner():
            Owner.leaf()
            time.sleep(0.001)

    tracer.wrap(Owner, "leaf", "numerics.leaf", "numerics", False)
    tracer.wrap(Owner, "inner", "gp.inner", "gp", True)
    with tracer.span("cli.main", "cli", kind="mdgpr"):
        for _ in range(3):
            Owner.inner()
        Owner.leaf()
    root = tracer.spans[0]
    view = tracing.TraceView({
        "spans": tracer.spans, "open_frames": tracer.open_frames(),
        "counter_layer": tracer.counter_layer,
        "counters": [[n, k, *v] for (n, k), v in tracer.counters.items()],
    })
    assert view.calls("numerics.leaf", "mdgpr") == 4 and len(view.named("gp.inner", kind="mdgpr")) == 3
    layers = tracing.layer_self_times(view.spans, view.counters, view.counter_layer)
    assert abs(sum(layers.values()) - (root["end"] - root["start"])) < 1e-9
    assert layers["numerics"] >= 0.008 and layers["gp"] >= 0.003
    assert tracer.open_frames() == 0


def test_coverage_catches_a_blind_wrapper():
    """A fit reached around its wrapper leaves the fit count at 0 and fails."""
    def span(i, parent, name, **attrs):
        return {"id": i, "parent": parent, "name": name, "layer": name.split(".")[0],
                "start": float(i), "end": float(i) + 0.5, "counted": 0.0, "attrs": attrs}

    ctx = {"command": "evaluate-gbt", "kind": "gbt"}
    spans = [span(0, None, "cli.main", **ctx)]
    spans += [span(1 + i, 0, "evaluation.fold", fold=i, **ctx) for i in range(3)]
    trace = {"spans": spans, "open_frames": 0, "counter_layer": {"baselines.predict_gbt": "baselines"},
             "counters": [["baselines.predict_gbt", "gbt", 3, 0.1, 0.1, 0]]}
    checks = tracing.coverage(tracing.TraceView(trace), {"gbt": 3})
    assert [holds for _, holds, _ in checks] == [True, False, True], checks
    trace["spans"] += [span(4 + i, 1 + i, "baselines.fit_gbt", **ctx) for i in range(3)]
    assert all(holds for _, holds, _ in tracing.coverage(tracing.TraceView(trace), {"gbt": 3}))
    assert not all(holds for _, holds, _ in tracing.coverage(tracing.TraceView(trace), {"gbt": 4}))


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except Exception as err:  # noqa: BLE001 - report every test, then fail
                failures += 1
                print(f"FAIL {name}: {type(err).__name__}: {err}")
    sys.exit(1 if failures else 0)
