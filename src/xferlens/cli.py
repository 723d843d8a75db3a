"""Command-line surface: feature extraction, evaluation, attribution, and
report rendering as reproducible runs.

Every output file embeds the config hash and seed; the hash covers the
options and the contents of the input files, not their paths. Reruns with
identical inputs are byte-identical, under any ``OPENBLAS_NUM_THREADS``:
:func:`main` runs numpy's OpenBLAS on one thread. Exit codes: 0 success,
2 input error, 3 partial model failure, 4 invalid method combination.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import evaluation, explain, numerics
# fit_gbt, predict_gbt, fit_scaler and standardize are unused here but stay
# module attributes: bench/tracing.py installs its wrappers through them.
from .baselines import fit_gbt, predict_gbt  # noqa: F401
from .data import (
    FEATURE_NAMES,
    DataError,
    Dataset,
    Scaler,
    load_dataset,
    load_meta_csv,
    write_csv,
    write_features_csv,
)
from .data import fit_scaler, standardize  # noqa: F401
from .evaluation import MODEL_KINDS, ModelSpec
from .features import (
    FeatureResources,
    build_feature_table,
    load_stats_csv,
    load_typology_csv,
    load_vocab_file,
    load_wals_csv,
    vocab_overlaps,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PARTIAL = 3
EXIT_METHOD = 4

LINEAR_KINDS = ("lasso", "group-lasso")

_CONFIG_KEYS = (
    "scores", "features", "meta", "models", "protocol", "tasks", "seed", "out", "helper_curve",
)


def _run_hash(scores: str, features: str, meta: str | None, **options) -> str:
    """The config hash of a run: its ``options`` and the sha256 of each input
    file's bytes, so an edited file changes the stamp and a moved copy keeps it."""
    for key, path in (("scores", scores), ("features", features), ("meta", meta)):
        try:
            options[key] = hashlib.sha256(Path(path).read_bytes()).hexdigest() if path else None
        except OSError as err:
            raise DataError(str(err), path=path) from err
    canonical = json.dumps(options, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _stamp(config_hash: str, seed: int) -> str:
    return f"# config_hash={config_hash} seed={seed}"


def _integer(text: str) -> int:
    """A plain decimal integer: ASCII digits after an optional sign. ``int()``
    alone also reads ``1_0`` as 10 and non-ASCII digits such as ``\u0663`` as 3."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"must be an integer in ASCII digits, got {text!r}")
    return int(text)


def _check_seed(seed: int) -> int:
    """Reject a negative seed before any fit: numpy's generators take none."""
    if seed < 0:
        raise DataError(f"--seed must be >= 0, got {seed}")
    return seed


def _load_config_file(path: str) -> dict[str, str]:
    """Key=value config lines; requires a schema_version entry.

    Unknown keys, a ``seed`` that is not a non-negative integer and a
    ``helper_curve`` other than ``true``/``false`` are rejected with their line.
    """
    out: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(str(err), path=path) from err
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"expected key=value, got {line!r}", path=path, line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in (*_CONFIG_KEYS, "schema_version"):
            raise DataError(f"unknown key {key!r}, expected one of {_CONFIG_KEYS}",
                            path=path, line=lineno)
        if key == "seed":
            try:
                seed = _integer(value)
            except argparse.ArgumentTypeError as err:
                raise DataError(f"seed {err}", path=path, line=lineno) from None
            if seed < 0:
                raise DataError(f"--seed must be >= 0, got {value!r}", path=path, line=lineno)
        if key == "helper_curve" and value not in ("true", "false"):
            raise DataError(f"helper_curve must be 'true' or 'false', got {value!r}",
                            path=path, line=lineno)
        out[key] = value
    version = out.pop("schema_version", None)
    if version != str(SCHEMA_VERSION):
        raise DataError(
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}", path=path
        )
    return out


def _names(value: str | None) -> list[str]:
    """The entries of a comma-separated list, stripped, without empty ones."""
    return [name for name in map(str.strip, (value or "").split(",")) if name]


# ---------------------------------------------------------------------------
# features subcommand

def cmd_features(args: argparse.Namespace) -> int:
    resources = FeatureResources()
    warnings: list[str] = []

    def missing(label: str, path: str) -> bool:
        if path and not Path(path).exists():
            warnings.append(f"warning: {label} file {path!r} not found, features left missing")
            return True
        return False

    pivots = _names(args.pivots) or None
    if args.vocab_dir and not missing("vocab", args.vocab_dir):
        if not Path(args.vocab_dir).is_dir():
            raise DataError("--vocab-dir is not a directory", path=args.vocab_dir)
        files = sorted(Path(args.vocab_dir).glob("*.txt"))
        if not files:
            warnings.append(f"warning: vocab directory {args.vocab_dir!r} has no *.txt file, features left missing")
        named = set(pivots or (vf.stem for vf in files))  # every file is a pivot without --pivots
        try:
            resources.vocabs = vocab_overlaps(
                (load_vocab_file(vf, vf.stem) for vf in files if vf.stem in named),
                (load_vocab_file(vf, vf.stem) for vf in files if vf.stem not in named),
            )
        except DataError:
            for vf in files:  # report the first bad file in sorted order, not the first read
                load_vocab_file(vf, vf.stem)
            raise
    if args.typology and not missing("typology", args.typology):
        resources.typology = load_typology_csv(args.typology)
    if args.wals and not missing("wals", args.wals):
        resources.wals = load_wals_csv(args.wals)
    if args.stats and not missing("stats", args.stats):
        resources.stats = load_stats_csv(args.stats)
    if args.meta and not missing("meta", args.meta):
        resources.meta = load_meta_csv(args.meta)
    table = build_feature_table(resources, pivots=pivots)

    for w in warnings:
        print(w, file=sys.stderr)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_features_csv(table, args.out)

    by_lang: dict[str, int] = {}
    for (_, target), fv in table.items():
        by_lang[target] = max(by_lang.get(target, 0), len(fv.values))
    print(f"wrote {len(table)} pair rows to {args.out}")
    for lang in sorted(by_lang):
        print(f"  {lang}: {by_lang[lang]}/9 features available")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate subcommand

def _resolve_evaluate_args(args: argparse.Namespace) -> dict:
    config: dict[str, str] = {}
    if args.config:
        config = _load_config_file(args.config)
    resolved = {
        "scores": args.scores or config.get("scores"),
        "features": args.features or config.get("features"),
        "meta": args.meta or config.get("meta"),
        "models": args.models or config.get("models"),
        "protocol": args.protocol or config.get("protocol"),
        "tasks": args.task or _names(config.get("tasks")),
        "seed": _check_seed(args.seed if args.seed is not None else int(config.get("seed", "0"))),
        "out": args.out or config.get("out"),
        "helper_curve": args.helper_curve or config.get("helper_curve") == "true",
    }
    for key in ("scores", "features", "models", "protocol", "out"):
        if not resolved[key]:
            raise DataError(f"missing required option --{key}")
    if resolved["protocol"] not in evaluation.PROTOCOLS:
        raise DataError(f"protocol must be one of {evaluation.PROTOCOLS}")
    if resolved["protocol"] == "llro" and not resolved["meta"]:
        raise DataError("--protocol llro needs --meta: the language classes pick its targets")
    return resolved


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _resolve_evaluate_args(args)
    ds = load_dataset(cfg["scores"], cfg["features"], cfg["meta"])
    kinds = _names(cfg["models"])
    if not kinds:
        raise DataError("--models names no model kind")
    seed = cfg["seed"]
    specs = [ModelSpec(kind, {}, seed) for kind in kinds]
    tasks = cfg["tasks"] or sorted(ds.tasks)
    for option, names in (("--models", kinds), ("--task", tasks)):
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise DataError(f"{option} repeats {', '.join(map(repr, repeated))}")
    if cfg["protocol"] == "llro":  # its split reads the class of every eval-task target
        for task in tasks:
            unclassed = [t for t in ds.targets(task) if t not in ds.meta]
            if unclassed:
                raise DataError(f"no class for language {unclassed[0]!r}, a target of task "
                                f"{task!r}: --protocol llro needs one", path=cfg["meta"])
    # Before any fit: a task the protocol cannot split (or unknown) exits 2.
    folds = {task: evaluation.protocol_folds(ds, cfg["protocol"], task) for task in tasks}
    config_hash = _run_hash(cfg["scores"], cfg["features"], cfg["meta"],
                            models=kinds, protocol=cfg["protocol"], tasks=tasks, seed=seed)

    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = _stamp(config_hash, seed)

    results, failures = [], []
    curves: list[tuple[str, str, int, float]] = []
    for spec in specs:
        kind, blocks = spec.kind, []
        for task in tasks:
            try:
                blocks.append(evaluation.run_folds(ds, spec, cfg["protocol"], task, folds[task]))
            except Exception as err:  # noqa: BLE001 - cell failures must not stop the run
                failures.append({"model": kind, "task": task, "error": str(err)})
        if blocks:
            results.append(evaluation.aggregate(spec, cfg["protocol"], blocks))
        if cfg["helper_curve"] and kind in evaluation.JOINT_KINDS:
            for task in tasks:
                try:
                    for n_helpers, mae in evaluation.helper_curve(ds, spec, task):
                        curves.append((kind, task, n_helpers, mae))
                except Exception as err:  # noqa: BLE001
                    failures.append(
                        {"model": kind, "task": task, "error": f"helper curve: {err}"}
                    )

    payload = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash,
        "seed": seed,
        "protocol": cfg["protocol"],
        "results": results,
        "failures": failures,
    }
    (out_dir / "report.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )

    record_rows = [
        [result["model"]["kind"], result["protocol"], block["task"], fold["held_out"],
         r["pivot"], r["target"], repr(r["y"]), repr(r["yhat"]), repr(r["abs_err"])]
        for result in results for block in result["tasks"]
        for fold in block["folds"] for r in fold["records"]
    ]
    write_csv(out_dir / "records.csv",
              ["model", "protocol", "task", "heldout", "pivot", "target", "y", "yhat", "abs_err"],
              record_rows, stamp)

    mae_rows = [
        [result["model"]["kind"], task, repr(mae)]
        for result in results
        for task, mae in sorted(result["per_task_mae"].items())
    ]
    write_csv(out_dir / "task_mae.csv", ["model", "task", "mae"], mae_rows, stamp)

    if cfg["helper_curve"]:
        max_by_pair: dict[tuple[str, str], float] = {}
        for kind, task, _, mae in curves:
            max_by_pair[kind, task] = max(max_by_pair.get((kind, task), 0.0), mae)
        curve_rows = [
            [kind, task, str(k), repr(mae), repr(mae / max_by_pair[(kind, task)] if max_by_pair[(kind, task)] > 0 else 0.0)]
            for kind, task, k, mae in curves
        ]
        write_csv(out_dir / "helper_curve.csv",
                  ["model", "task", "n_helpers", "mae", "mae_scaled"], curve_rows, stamp)

    table = evaluation.render_table(results)
    (out_dir / "table.txt").write_text(stamp + "\n" + table, encoding="utf-8")
    print(table, end="")
    if failures:
        for f in failures:
            print(f"failed: {f['model']} on {f['task']}: {f['error']}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# explain subcommand

def _fit_linear_artifact(ds: Dataset, kind: str, seed: int) -> dict:
    """Fit the linear model on the full dataset; returns a JSON-able artifact
    carrying the weights and the per-task feature scalers needed to apply it."""
    tasks = sorted(ds.tasks)
    predictors = evaluation.fit_predictors(ModelSpec(kind, {}, seed), ds, tasks, seed)
    scalers = {
        task: {"mean": p.scaler.mean.tolist(), "scale": p.scaler.scale.tolist()}
        for task, p in predictors.items()
    }
    if kind == "group-lasso":
        m = predictors[tasks[0]].model
        models = {"joint": {"kind": kind, "weights": m.weights.tolist(),
                            "intercepts": m.intercepts.tolist(), "lambda_group": m.lam,
                            "tasks": list(m.tasks)}}
    else:
        models = {t: {"kind": kind, "weights": p.model.weights[:, 0].tolist(),
                      "intercept": float(p.model.intercepts[0]), "lambda": p.model.lam}
                  for t, p in predictors.items()}
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "tasks": tasks,
            "scalers": scalers, "models": models}


def _numbers(value, shape: tuple[int, ...] = ()) -> bool:
    """True for a finite number (shape ()) or a nested list of them of this shape."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        return False
    return arr.dtype.kind in "iuf" and arr.shape == shape and bool(np.isfinite(arr).all())


def _linear_weights(a, kind: str) -> dict[str, tuple[Scaler, np.ndarray]]:
    """Each task's feature scaler and weight vector in a ``kind`` model file
    (as _fit_linear_artifact writes it); a ValueError names what it lacks."""
    if not (isinstance(a, dict) and isinstance(a.get("tasks"), list)
            and all(isinstance(t, str) for t in a["tasks"])
            and isinstance(a.get("scalers"), dict) and isinstance(a.get("models"), dict)):
        raise ValueError("an object with kind, tasks, scalers and models")
    if a.get("kind") != kind:
        raise ValueError(f"a {kind!r} model, not {a.get('kind')!r}")
    n, tasks = len(FEATURE_NAMES), a["tasks"]
    if len(set(tasks)) != len(tasks):
        raise ValueError("a tasks list that names each task once")
    scalers = {}
    for task in tasks:
        s = a["scalers"].get(task)
        if not (isinstance(s, dict) and _numbers(s.get("mean"), (n,))
                and _numbers(s.get("scale"), (n,)) and min(s["scale"]) > 0):
            raise ValueError(f"scalers[{task!r}] with {n}-entry mean and scale, every scale > 0")
        scalers[task] = Scaler(np.asarray(s["mean"], dtype=float),
                               np.asarray(s["scale"], dtype=float))
    if kind == "group-lasso":
        m = a["models"].get("joint")
        if not (isinstance(m, dict) and m.get("kind") == "group-lasso" and m.get("tasks") == tasks
                and _numbers(m.get("weights"), (n, len(tasks)))
                and _numbers(m.get("intercepts"), (len(tasks),)) and _numbers(m.get("lambda_group"))):
            raise ValueError(f"models['joint'], a group-lasso model with {n} x {len(tasks)} weights")
        weights = np.asarray(m["weights"], dtype=float).T  # one row per task
    else:
        for task in tasks:
            m = a["models"].get(task)
            if not (isinstance(m, dict) and m.get("kind") == "lasso"
                    and _numbers(m.get("weights"), (n,))
                    and _numbers(m.get("intercept")) and _numbers(m.get("lambda"))):
                raise ValueError(f"models[{task!r}], a lasso model with {n} weights")
        weights = [np.asarray(a["models"][task]["weights"], dtype=float) for task in tasks]
    return {task: (scalers[task], w) for task, w in zip(tasks, weights)}


def _report_results(payload) -> list:
    """The results of a report.json (as cmd_evaluate writes it) for render_table;
    a ValueError names what it lacks."""
    results = payload.get("results") if isinstance(payload, dict) else None
    if not isinstance(results, list):
        raise ValueError("an object with a results list")
    for i, r in enumerate(results):
        if not (isinstance(r, dict) and isinstance(r.get("model"), dict)
                and isinstance(r["model"].get("kind"), str) and isinstance(r.get("protocol"), str)
                and isinstance(r.get("per_task_mae"), dict)
                and all(_numbers(v) for v in r["per_task_mae"].values())
                and _numbers(r.get("macro_average_mae")) and "low_data_average_mae" in r
                and (r["low_data_average_mae"] is None or _numbers(r["low_data_average_mae"]))
                and isinstance(r.get("tasks"), list)
                and all(isinstance(t, dict) and isinstance(t.get("task"), str)
                        and isinstance(t.get("n_targets"), int) for t in r["tasks"])):
            raise ValueError(f"results[{i}] with model.kind, protocol, per_task_mae, "
                             "macro_average_mae, low_data_average_mae and tasks")
    return results


def _read_json(path: str, parse):
    """``parse`` of a JSON input; a JSON error, or the ValueError in which
    ``parse`` names what the structure lacks, is a DataError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise DataError(str(err), path=path) from err
    try:
        return parse(payload)
    except ValueError as err:
        raise DataError(f"malformed file, expected {err}", path=path) from None


def _permutation_predictors(ds: Dataset, kind: str, seed: int):
    """Per-task predictors of a full-data fit; maml meta-trains on every task."""
    if kind in ("awt", "aat"):
        raise DataError(f"model kind {kind!r} has no feature pathway for permutation importance")
    return evaluation.fit_predictors(ModelSpec(kind, {}, seed), ds, sorted(ds.tasks), seed)


def cmd_explain(args: argparse.Namespace) -> int:
    if args.method == "linear-shap" and args.model not in LINEAR_KINDS:
        print(
            f"error: linear-shap requires a linear model kind {LINEAR_KINDS}, "
            f"got {args.model!r}; use --method permutation instead",
            file=sys.stderr,
        )
        return EXIT_METHOD
    _check_seed(args.seed)
    if args.method == "permutation" and args.repeats < 1:
        raise DataError(f"--repeats must be >= 1, got {args.repeats}")
    ds = load_dataset(args.scores, args.features, args.meta)
    out_dir = Path(args.out)
    # Checked before any fit, but not created: a fit that rejects its data writes nothing.
    if any(p.exists() and not p.is_dir() for p in (out_dir, *out_dir.parents)):
        raise DataError("--out is not a directory and cannot be made one", path=args.out)
    artifact, per_task = None, []  # (task, one value per feature)
    if args.method == "linear-shap":
        if args.model_file:
            artifact, weights = _read_json(args.model_file,
                                           lambda a: (a, _linear_weights(a, args.model)))
            unlisted = sorted(ds.tasks - weights.keys())
            if unlisted:
                raise DataError(f"no model for task {', '.join(map(repr, unlisted))} "
                                "of the scores", path=args.model_file)
        else:
            artifact = _fit_linear_artifact(ds, args.model, args.seed)
            weights = _linear_weights(artifact, args.model)
        for task, (scaler, w) in weights.items():
            if task in ds.tasks:
                x_std = scaler.transform(ds.feature_matrix(ds.task_records(task)))
                phi = explain.linear_shap(w, x_std, x_std.mean(axis=0))
                per_task.append((task, np.abs(phi).mean(axis=0)))
    else:
        predictors = _permutation_predictors(ds, args.model, args.seed)
        for task in sorted(ds.tasks):
            recs = ds.task_records(task)
            if len(recs) < 2:
                print(f"warning: task {task!r} has one record, too few to permute", file=sys.stderr)
                continue
            x_raw, y = ds.feature_matrix(recs), ds.scores(recs)
            try:  # permuting a column keeps the rows: row i is the task's i-th record
                per_task.append((task, explain.permutation_importance(
                    predictors[task].predict, x_raw, y, repeats=args.repeats, seed=args.seed)))
            except ValueError as err:
                raise ValueError(f"model {args.model!r} failed on task {task!r}: {err}") from err
    options = {"model": args.model, "method": args.method, "repeats": args.repeats,
               "seed": args.seed}
    if artifact is not None:
        # The model itself, fitted or loaded: two model files get two stamps,
        # and a saved model.json reproduces the stamp of the run that wrote it.
        options["artifact"] = {k: v for k, v in artifact.items() if k not in ("config_hash", "seed")}
    config_hash = _run_hash(args.scores, args.features, args.meta, **options)

    out_dir.mkdir(parents=True, exist_ok=True)
    if artifact is not None and not args.model_file:
        artifact_out = dict(artifact, config_hash=config_hash, seed=args.seed)
        (out_dir / "model.json").write_text(
            json.dumps(artifact_out, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    path = out_dir / "attribution.csv"
    rows = [[args.model, task, name, repr(float(v)), args.method]
            for task, values in per_task for name, v in zip(FEATURE_NAMES, values)]
    write_csv(path, ["model", "task", "feature", "value", "method"], rows, _stamp(config_hash, args.seed))
    print(f"wrote {len(rows)} attribution rows to {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report subcommand

def cmd_report(args: argparse.Namespace) -> int:
    table = evaluation.render_table(_read_json(args.report, _report_results))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(table, encoding="utf-8")
    print(table, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xferlens",
        description="Predict zero-shot cross-lingual transfer performance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_feat = sub.add_parser("features", help="compute the feature table from raw resources")
    p_feat.add_argument("--vocab-dir", help="directory of <lang>.txt subword vocabularies")
    p_feat.add_argument("--typology", help="typology vectors CSV (lang,kind,d0,...)")
    p_feat.add_argument("--wals", help="WALS long-format CSV (lang,feature_value)")
    p_feat.add_argument("--stats", help="tokenization stats CSV")
    p_feat.add_argument("--meta", help="language metadata CSV (lang,class,pretrain_words)")
    p_feat.add_argument("--pivots", help="comma-separated pivot languages (default: all)")
    p_feat.add_argument("--out", required=True, help="output features.csv path")
    p_feat.set_defaults(func=cmd_features)

    p_eval = sub.add_parser("evaluate", help="run models under a test protocol")
    p_eval.add_argument("--config", help="key=value config file (flags override)")
    p_eval.add_argument("--scores")
    p_eval.add_argument("--features")
    p_eval.add_argument("--meta")
    p_eval.add_argument("--models", help="comma-separated model kinds")
    p_eval.add_argument("--protocol", choices=evaluation.PROTOCOLS)
    p_eval.add_argument("--task", action="append", help="eval task (repeatable; default all)")
    p_eval.add_argument("--seed", type=_integer, default=None)
    p_eval.add_argument("--out", help="output directory")
    p_eval.add_argument("--helper-curve", action="store_true", help="emit helper-count curve data")
    p_eval.set_defaults(func=cmd_evaluate)

    p_exp = sub.add_parser("explain", help="feature attribution for a fitted model")
    p_exp.add_argument("--scores", required=True)
    p_exp.add_argument("--features", required=True)
    p_exp.add_argument("--meta")
    p_exp.add_argument("--model", required=True, choices=MODEL_KINDS)
    p_exp.add_argument("--method", choices=("linear-shap", "permutation"), default="linear-shap")
    p_exp.add_argument("--model-file", help="previously saved linear model JSON")
    p_exp.add_argument("--repeats", type=_integer, default=10)
    p_exp.add_argument("--seed", type=_integer, default=0)
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.set_defaults(func=cmd_explain)

    p_rep = sub.add_parser("report", help="render the text table from a report JSON")
    p_rep.add_argument("--report", required=True)
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    numerics.single_thread_blas()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:  # a DataError, a fit's ValueError or LinAlgError, an unwritable --out
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
