"""Command-line surface: feature extraction, evaluation, attribution, and
report rendering as reproducible runs.

Every output file embeds the config hash and seed; reruns with identical
inputs are byte-identical. Exit codes: 0 success, 2 input error, 3 partial
model failure, 4 invalid method combination.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import evaluation, explain, sparse_linear
# fit_gbt, predict_gbt, fit_scaler and standardize are unused here but stay
# module attributes: bench/tracing.py installs its wrappers through them.
from .baselines import fit_gbt, predict_gbt  # noqa: F401
from .data import (  # noqa: F401
    FEATURE_NAMES,
    DataError,
    Dataset,
    Scaler,
    fit_scaler,
    load_dataset,
    load_meta_csv,
    standardize,
    write_features_csv,
)
from .evaluation import MODEL_KINDS, ModelSpec
from .features import (
    FeatureResources,
    build_feature_table,
    load_stats_csv,
    load_typology_csv,
    load_vocab_file,
    load_wals_csv,
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


def _config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _stamp(config_hash: str, seed: int) -> str:
    return f"# config_hash={config_hash} seed={seed}"


def _write_csv(path: Path, header: list[str], rows: list[list[str]], stamp: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(stamp + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_config_file(path: str) -> dict[str, str]:
    """Key=value config lines; requires a schema_version entry.

    Unknown keys, a ``seed`` that is not an integer and a ``helper_curve``
    other than ``true``/``false`` are rejected with their line.
    """
    out: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as err:
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
        if key == "seed" and not re.fullmatch(r"[+-]?\d+", value):
            raise DataError(f"seed must be an integer, got {value!r}", path=path, line=lineno)
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

    try:
        if args.vocab_dir and not missing("vocab", args.vocab_dir):
            for vf in sorted(Path(args.vocab_dir).glob("*.txt")):
                vocab = load_vocab_file(vf, vf.stem)
                resources.vocabs[vocab.lang] = vocab
        if args.typology and not missing("typology", args.typology):
            resources.typology = load_typology_csv(args.typology)
        if args.wals and not missing("wals", args.wals):
            resources.wals = load_wals_csv(args.wals)
        if args.stats and not missing("stats", args.stats):
            resources.stats = load_stats_csv(args.stats)
        if args.meta and not missing("meta", args.meta):
            resources.meta = load_meta_csv(args.meta)
        pivots = args.pivots.split(",") if args.pivots else None
        table = build_feature_table(resources, pivots=pivots)
    except (DataError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT

    for w in warnings:
        print(w, file=sys.stderr)
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
        "tasks": args.task or (config.get("tasks", "").split(",") if config.get("tasks") else []),
        "seed": args.seed if args.seed is not None else int(config.get("seed", "0")),
        "out": args.out or config.get("out"),
        "helper_curve": args.helper_curve or config.get("helper_curve") == "true",
    }
    for key in ("scores", "features", "models", "protocol", "out"):
        if not resolved[key]:
            raise DataError(f"missing required option --{key}")
    if resolved["protocol"] not in evaluation.PROTOCOLS:
        raise DataError(f"protocol must be one of {evaluation.PROTOCOLS}")
    return resolved


def cmd_evaluate(args: argparse.Namespace) -> int:
    try:
        cfg = _resolve_evaluate_args(args)
        ds = load_dataset(cfg["scores"], cfg["features"], cfg["meta"])
        kinds = [k.strip() for k in cfg["models"].split(",") if k.strip()]
        for kind in kinds:
            if kind not in MODEL_KINDS:
                raise DataError(f"unknown model kind {kind!r}, choose from {MODEL_KINDS}")
        tasks = cfg["tasks"] or sorted(ds.tasks)
        for task in tasks:
            if task not in ds.tasks:
                raise DataError(f"unknown task {task!r}")
    except DataError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT

    seed = cfg["seed"]
    config_hash = _config_hash(
        {
            "scores": str(cfg["scores"]),
            "features": str(cfg["features"]),
            "meta": str(cfg["meta"]) if cfg["meta"] else None,
            "models": kinds,
            "protocol": cfg["protocol"],
            "tasks": tasks,
            "seed": seed,
        }
    )
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = _stamp(config_hash, seed)

    results = []
    failures = []
    curves: list[tuple[str, str, int, float]] = []
    for kind in kinds:
        spec = ModelSpec(kind, {}, seed)
        fragments = []
        for task in tasks:
            try:
                fragments.append(evaluation.run_protocol(ds, spec, cfg["protocol"], task))
            except Exception as err:  # noqa: BLE001 - cell failures must not stop the run
                failures.append({"model": kind, "task": task, "error": str(err)})
        if fragments:
            results.append(evaluation.report_to_dict(evaluation.aggregate(spec, fragments)))
        if cfg["helper_curve"] and kind in ("group-lasso", "cmf", "mdgpr"):
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

    record_rows: list[list[str]] = []
    for result in results:
        for task_block in result["tasks"]:
            for fold in task_block["folds"]:
                for r in fold["records"]:
                    record_rows.append(
                        [
                            result["model"]["kind"],
                            result["protocol"],
                            task_block["task"],
                            fold["held_out"],
                            r["pivot"],
                            r["target"],
                            repr(r["y"]),
                            repr(r["yhat"]),
                            repr(r["abs_err"]),
                        ]
                    )
    _write_csv(
        out_dir / "records.csv",
        ["model", "protocol", "task", "heldout", "pivot", "target", "y", "yhat", "abs_err"],
        record_rows,
        stamp,
    )

    mae_rows = [
        [result["model"]["kind"], task, repr(mae)]
        for result in results
        for task, mae in sorted(result["per_task_mae"].items())
    ]
    _write_csv(out_dir / "task_mae.csv", ["model", "task", "mae"], mae_rows, stamp)

    if cfg["helper_curve"]:
        max_by_pair: dict[tuple[str, str], float] = {}
        for kind, task, _, mae in curves:
            key = (kind, task)
            max_by_pair[key] = max(max_by_pair.get(key, 0.0), mae)
        curve_rows = [
            [kind, task, str(k), repr(mae), repr(mae / max_by_pair[(kind, task)] if max_by_pair[(kind, task)] > 0 else 0.0)]
            for kind, task, k, mae in curves
        ]
        _write_csv(
            out_dir / "helper_curve.csv",
            ["model", "task", "n_helpers", "mae", "mae_scaled"],
            curve_rows,
            stamp,
        )

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
        models = {"joint": sparse_linear.linear_model_to_dict(predictors[tasks[0]].model)}
    else:
        models = {t: sparse_linear.linear_model_to_dict(p.model) for t, p in predictors.items()}
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "tasks": tasks,
            "scalers": scalers, "models": models}


def _attribution_rows_from_artifact(ds: Dataset, artifact: dict):
    kind = artifact["kind"]
    rows = []
    joint = (
        sparse_linear.linear_model_from_dict(artifact["models"]["joint"])
        if kind == "group-lasso"
        else None
    )
    for task in artifact["tasks"]:
        if task not in ds.tasks:
            continue
        entry = artifact["scalers"][task]
        scaler = Scaler(np.asarray(entry["mean"]), np.asarray(entry["scale"]))
        x_std = scaler.transform(ds.feature_matrix(ds.task_records(task)))
        background = x_std.mean(axis=0)
        if kind == "group-lasso":
            values = explain.mean_abs_shap(joint, task, x_std, background)
        else:
            model = sparse_linear.linear_model_from_dict(artifact["models"][task])
            values = explain.mean_abs_shap(model, None, x_std, background)
        rows.extend((kind, task, name, value, "linear-shap") for name, value in values.items())
    return rows


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
    try:
        ds = load_dataset(args.scores, args.features, args.meta)
        artifact = None
        if args.method == "linear-shap":
            if args.model_file:
                artifact = json.loads(Path(args.model_file).read_text(encoding="utf-8"))
                if artifact.get("kind") != args.model:
                    raise DataError(
                        f"model file holds a {artifact.get('kind')!r} model, not {args.model!r}"
                    )
            else:
                artifact = _fit_linear_artifact(ds, args.model, args.seed)
            rows = _attribution_rows_from_artifact(ds, artifact)
        else:
            predictors = _permutation_predictors(ds, args.model, args.seed)
            rows = []
            for task in sorted(ds.tasks):
                recs = ds.task_records(task)
                if len(recs) < 2:
                    continue
                x_raw = ds.feature_matrix(recs)
                y = ds.scores(recs)
                imp = explain.permutation_importance(
                    predictors[task].predict, x_raw, y, repeats=args.repeats, seed=args.seed
                )
                rows.extend(
                    (args.model, task, name, float(v), "permutation")
                    for name, v in zip(FEATURE_NAMES, imp)
                )
    except (DataError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARTIAL

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_hash = _config_hash(
        {
            "scores": str(args.scores),
            "features": str(args.features),
            "model": args.model,
            "method": args.method,
            "seed": args.seed,
        }
    )
    if artifact is not None and not args.model_file:
        artifact_out = dict(artifact, config_hash=config_hash, seed=args.seed)
        (out_dir / "model.json").write_text(
            json.dumps(artifact_out, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    path = out_dir / "attribution.csv"
    _write_csv(
        path,
        ["model", "task", "feature", "value", "method"],
        [[kind, task, feature, repr(float(value)), method]
         for kind, task, feature, value, method in rows],
        _stamp(config_hash, args.seed),
    )
    print(f"wrote {len(rows)} attribution rows to {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report subcommand

def cmd_report(args: argparse.Namespace) -> int:
    try:
        payload = json.loads(Path(args.report).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    table = evaluation.render_table(payload.get("results", []))
    if args.out:
        Path(args.out).write_text(table, encoding="utf-8")
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
    p_eval.add_argument("--seed", type=int, default=None)
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
    p_exp.add_argument("--repeats", type=int, default=10)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.set_defaults(func=cmd_explain)

    p_rep = sub.add_parser("report", help="render the text table from a report JSON")
    p_rep.add_argument("--report", required=True)
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
