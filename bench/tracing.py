"""In-memory tracing of one benchmark pass, installed from outside the package.

Wrappers replace the module attributes through which each layer is called
(``xferlens.evaluation.make_lolo_splits``, ``xferlens.gp.cholesky``,
``xferlens.cli.fit_gbt``, ...). Coarse calls become spans with a parent link
and the workload/command/kind/task/fold they ran under. Hot inner calls
(per-row predict, ``Scaler.transform``, MLP calls, Cholesky, feature
formulas) only bump a counter and a summed timer. Both kinds of frame sit on
one stack, so the time a counter spends inside a span is subtracted from
that span's self time and credited to the counter's layer; layer self times
therefore add up to the traced wall time.

Spans stay in memory and are written out once, when the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict

LAYERS = (
    "cli", "data", "evaluation", "features", "baselines", "sparse_linear",
    "factorization", "gp", "meta", "numerics", "explain",
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        # (name, kind) -> [calls, total_s, self_s, units]
        self.counters: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counter_layer: dict[str, str] = {}
        self._stack: list[_Open] = []

    # -- frames --------------------------------------------------------------
    def _enter(self, name: str, layer: str, record: bool, attrs: dict) -> "_Open":
        top = self._stack[-1] if self._stack else None
        ctx = dict(top.ctx) if top else {}
        ctx.update(attrs)
        # Inside a counter everything is folded into that counter.
        if top is not None and top.span_id is None:
            record = False
        frame = _Open(name, layer, ctx)
        if record:
            frame.span_id = len(self.spans)
            parent = next((f.span_id for f in reversed(self._stack) if f.span_id is not None), None)
            self.spans.append({"id": frame.span_id, "parent": parent, "name": name,
                               "layer": layer, "start": 0.0, "end": 0.0, "counted": 0.0,
                               "attrs": ctx})
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: "_Open", units: int = 0, extra: dict | None = None) -> None:
        end = time.perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"trace stack out of order at {frame.name}")
        dur = end - frame.start
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += dur
            if frame.span_id is None:
                parent.counted_s += dur
        if frame.span_id is not None:
            span = self.spans[frame.span_id]
            span["start"], span["end"], span["counted"] = frame.start, end, frame.counted_s
            if extra:
                span["attrs"].update(extra)
        else:
            c = self.counters[(frame.name, frame.ctx.get("kind", ""))]
            c[0] += 1
            c[1] += dur
            c[2] += dur - frame.child_s
            c[3] += units
            self.counter_layer[frame.name] = frame.layer

    @contextlib.contextmanager
    def span(self, name: str, layer: str, **attrs):
        frame = self._enter(name, layer, True, attrs)
        try:
            yield
        finally:
            self._exit(frame)

    def open_frames(self) -> int:
        return len(self._stack)

    # -- wrappers ------------------------------------------------------------
    def traced(self, fn, name: str, layer: str, record: bool,
               attrs_of=None, on_return=None, units_of=None):
        """``fn`` wrapped in a span (``record``) or a counter.

        ``attrs_of`` and ``units_of`` read the bound arguments, defaults
        included; ``on_return`` reads the result and adds attributes to the
        span.
        """
        sig = inspect.signature(fn) if (attrs_of or units_of) else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if sig is not None:
                call = sig.bind(*args, **kwargs)
                call.apply_defaults()
                bound = call.arguments
            frame = tracer._enter(name, layer, record, attrs_of(bound) if attrs_of else {})
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(
                    frame,
                    units=units_of(bound) if units_of else 0,
                    extra=on_return(result) if (on_return and result is not None) else None,
                )

        return traced

    def wrap(self, owner, attr: str, name: str, layer: str, record: bool, **kw) -> None:
        """Replace ``owner.attr`` by a traced version of itself."""
        setattr(owner, attr, self.traced(getattr(owner, attr), name, layer, record, **kw))


class _Open:
    """One open call on the trace stack."""

    __slots__ = ("name", "layer", "ctx", "span_id", "start", "child_s", "counted_s")

    def __init__(self, name, layer, ctx):
        self.name, self.layer, self.ctx = name, layer, ctx
        self.span_id = None
        self.start = self.child_s = self.counted_s = 0.0


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the xferlens package."""
    from xferlens import (
        baselines, cli, data, evaluation, explain, factorization, features, gp, meta,
        sparse_linear,
    )

    def span(owner, attr, name, layer, **kw):
        tracer.wrap(owner, attr, name, layer, True, **kw)

    def count(owner, attr, name, layer, **kw):
        tracer.wrap(owner, attr, name, layer, False, **kw)

    # data
    span(cli, "load_dataset", "data.load_dataset", "data")
    span(cli, "load_meta_csv", "data.load_meta_csv", "data")
    span(cli, "write_features_csv", "data.write_features_csv", "data")
    for name in ("make_lolo_splits", "make_llro_split"):
        span(evaluation, name, "data.split", "data")
    count(data.Dataset, "task_records", "data.task_records", "data")
    count(data.Dataset, "feature_matrix", "data.feature_matrix", "data",
          units_of=lambda a: len(a["records"]))
    count(data.Scaler, "transform", "data.scaler_transform", "data")
    count(data.Scaler, "impute", "data.scaler_impute", "data")
    for owner in (evaluation, cli):
        count(owner, "fit_scaler", "data.fit_scaler", "data")
        count(owner, "standardize", "data.standardize", "data")

    # evaluation
    for name in ("run_lolo", "run_llro"):
        span(evaluation, name, f"evaluation.{name}", "evaluation",
             attrs_of=lambda a: {"kind": a["spec"].kind, "task": a["eval_task"]})
    # The fold index, recovered by inverting evaluation._fold_seed.
    span(evaluation, "_fit_and_predict", "evaluation.fold", "evaluation",
         attrs_of=lambda a: {"fold": a["seed"] - a["spec"].seed * 100003})

    # features
    for name in ("load_vocab_file", "load_typology_csv", "load_wals_csv", "load_stats_csv"):
        span(cli, name, "features.load", "features")
    span(cli, "build_feature_table", "features.build", "features",
         on_return=lambda table: {"pairs": len(table)})
    for name in ("subword_overlap", "typo_similarity", "geo_distance", "max_geo_distance",
                 "wmrr", "tokenizer_metrics", "pretrain_size_feature"):
        count(features, name, f"features.{name}", "features")

    # baselines
    count(baselines, "predict_awt", "baselines.predict_awt", "baselines")
    count(baselines, "predict_aat", "baselines.predict_aat", "baselines")
    for owner in (baselines, cli):
        span(owner, "fit_gbt", "baselines.fit_gbt", "baselines",
             on_return=lambda m: {"trees": len(m.trees)})
        count(owner, "predict_gbt", "baselines.predict_gbt", "baselines")

    # sparse_linear
    for name in ("fit_lasso", "fit_group_lasso"):
        span(sparse_linear, name, f"sparse_linear.{name}", "sparse_linear",
             on_return=lambda m: {"sweeps": m.n_iter, "converged": m.converged})
    count(sparse_linear, "predict_linear", "sparse_linear.predict_linear", "sparse_linear")

    # factorization
    span(factorization, "fit_cmf", "factorization.fit_cmf", "factorization",
         attrs_of=lambda a: {"sweeps": a["sweeps"], "restarts": a["restarts"]})
    count(factorization, "_objective", "factorization.objective", "factorization")
    count(factorization, "predict_cmf", "factorization.predict_cmf", "factorization")
    count(factorization, "predict_cold_start", "factorization.predict_cold_start", "factorization")

    # gp
    span(gp, "fit_gp", "gp.fit_gp", "gp",
         attrs_of=lambda a: {"gp_kind": "mdgpr" if a["multi_task"] else "dgpr",
                             "epochs": a["epochs"]},
         on_return=lambda st: {"epochs_run": len(st.mll_trace) - 1})
    count(gp, "predict_gp", "gp.predict_gp", "gp")
    count(gp, "cholesky", "gp.cholesky", "numerics")
    count(gp, "cho_solve", "gp.cho_solve", "gp")
    count(gp, "mlp_forward", "gp.mlp_forward", "numerics")
    count(gp, "mlp_backward", "gp.mlp_backward", "numerics")

    # meta
    span(meta, "meta_train", "meta.meta_train", "meta",
         attrs_of=lambda a: {"helpers": len(a["helper_tasks"]),
                             "meta_epochs": a["cfg"].meta_epochs})
    count(meta, "adapt", "meta.adapt", "meta")
    count(meta, "mlp_forward", "meta.mlp_forward", "numerics")
    count(meta, "mlp_backward", "meta.mlp_backward", "numerics")
    count(meta, "predict_net", "meta.predict_net", "meta", units_of=lambda a: len(a["x"]))

    # explain
    original_importance = explain.permutation_importance

    @functools.wraps(original_importance)
    def permutation_importance(predict, *args, **kwargs):
        counted = tracer.traced(predict, "explain.predict", "explain", False,
                                units_of=lambda a: len(a["x"]))
        return original_importance(counted, *args, **kwargs)

    explain.permutation_importance = permutation_importance
    span(explain, "permutation_importance", "explain.permutation_importance", "explain")
    span(cli, "_permutation_predictors", "cli.permutation_predictors", "cli")


# ---------------------------------------------------------------------------
# Post-hoc arithmetic over the written spans

def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of intervals (overlaps counted once)."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part covered by child spans and counters."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - union_length(children[s["id"]]) - s.get("counted", 0.0)
        for s in spans
    }


def layer_self_times(spans: list[dict], counters: dict, counter_layer: dict) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for sid, t in self_times(spans).items():
        out[spans[sid]["layer"]] += t
    for (name, _), (_, _, self_s, _) in counters.items():
        out[counter_layer[name]] += self_s
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics and the invariants that show the wrappers saw every call

KINDS = ("awt", "aat", "lasso", "gbt", "dgpr", "group-lasso", "cmf", "mdgpr", "maml")


class TraceView:
    """Read-only queries over one traced pass as written by the worker."""

    def __init__(self, trace: dict):
        self.spans = trace["spans"]
        self.counter_layer = trace["counter_layer"]
        self.counters = {(n, k): (calls, total, self_s, units)
                         for n, k, calls, total, self_s, units in trace["counters"]}
        self.open_frames = trace["open_frames"]

    def named(self, name: str, **attrs) -> list[dict]:
        return [s for s in self.spans if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in attrs.items())]

    def span_s(self, name: str, **attrs) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name, **attrs))

    def attr_sum(self, name: str, attr: str) -> float:
        return sum(s["attrs"].get(attr, 0) for s in self.named(name))

    def counter(self, name: str, kind: str | None = None) -> tuple[int, float, float, int]:
        rows = [v for (n, k), v in self.counters.items() if n == name and kind in (None, k)]
        return (sum(r[0] for r in rows), sum(r[1] for r in rows),
                sum(r[2] for r in rows), sum(r[3] for r in rows))

    def calls(self, name: str, kind: str | None = None) -> int:
        return self.counter(name, kind)[0]

    def total(self, name: str, kind: str | None = None) -> float:
        return self.counter(name, kind)[1]

    def self_s(self, name: str) -> float:
        return self.counter(name)[2]

    def cmf_sweeps(self) -> float:
        """ALS sweeps run: each restart evaluates the objective once, then 3x per sweep."""
        restarts = self.attr_sum("factorization.fit_cmf", "restarts")
        return (self.calls("factorization.objective") - restarts) / 3.0


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(view: TraceView, traced_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit) for one traced pass."""
    v = view
    m: dict[str, tuple[float, str]] = {}
    m["data.load_s"] = (v.span_s("data.load_dataset"), "s")
    m["data.split_s"] = (v.span_s("data.split"), "s")
    m["data.task_records_calls"] = (v.calls("data.task_records"), "count")
    m["data.task_records_s"] = (v.total("data.task_records"), "s")
    m["data.feature_matrix_s"] = (v.total("data.feature_matrix"), "s")
    m["data.feature_matrix_rows"] = (v.counter("data.feature_matrix")[3], "count")
    m["data.scaler_transform_calls"] = (v.calls("data.scaler_transform"), "count")
    m["data.scaler_s"] = (v.self_s("data.scaler_transform") + v.self_s("data.scaler_impute"), "s")
    m["evaluation.folds"] = (len(v.named("evaluation.fold")), "count")

    m["features.build_s"] = (v.span_s("features.build"), "s")
    m["features.load_s"] = (v.span_s("features.load"), "s")
    m["features.wmrr_s"] = (v.total("features.wmrr"), "s")
    m["features.wmrr_calls"] = (v.calls("features.wmrr"), "count")
    m["features.overlap_s"] = (v.total("features.subword_overlap"), "s")
    m["features.typology_s"] = (
        sum(v.self_s(f"features.{n}") for n in ("typo_similarity", "geo_distance", "max_geo_distance")),
        "s",
    )
    m["features.pairs"] = (v.attr_sum("features.build", "pairs"), "count")

    m["baselines.awt_s"] = (v.total("baselines.predict_awt"), "s")
    m["baselines.aat_s"] = (v.total("baselines.predict_aat"), "s")
    m["baselines.baseline_calls"] = (
        v.calls("baselines.predict_awt") + v.calls("baselines.predict_aat"), "count")
    gbt_fit_s, trees = v.span_s("baselines.fit_gbt"), v.attr_sum("baselines.fit_gbt", "trees")
    m["baselines.gbt_fit_s"] = (gbt_fit_s, "s")
    m["baselines.gbt_trees"] = (trees, "count")
    m["baselines.gbt_fit_ms_per_tree"] = (_ratio(gbt_fit_s, trees, 1e3), "ms")
    m["baselines.gbt_predict_s"] = (v.total("baselines.predict_gbt"), "s")
    m["baselines.gbt_predict_calls"] = (v.calls("baselines.predict_gbt"), "count")

    for short, name in (("lasso", "fit_lasso"), ("group_lasso", "fit_group_lasso")):
        fits = v.named(f"sparse_linear.{name}")
        fit_s, sweeps = v.span_s(f"sparse_linear.{name}"), v.attr_sum(f"sparse_linear.{name}", "sweeps")
        m[f"sparse_linear.{short}_fit_s"] = (fit_s, "s")
        m[f"sparse_linear.{short}_sweeps"] = (sweeps, "count")
        m[f"sparse_linear.{short}_unconverged"] = (
            sum(1 for s in fits if not s["attrs"].get("converged", True)), "count")
    m["sparse_linear.group_lasso_ms_per_sweep"] = (
        _ratio(m["sparse_linear.group_lasso_fit_s"][0], m["sparse_linear.group_lasso_sweeps"][0], 1e3),
        "ms",
    )

    cmf_s, sweeps = v.span_s("factorization.fit_cmf"), v.cmf_sweeps()
    m["factorization.cmf_fit_s"] = (cmf_s, "s")
    m["factorization.cmf_sweeps"] = (sweeps, "count")
    m["factorization.cmf_ms_per_sweep"] = (_ratio(cmf_s, sweeps, 1e3), "ms")
    m["factorization.predict_s"] = (
        v.total("factorization.predict_cmf") + v.total("factorization.predict_cold_start"), "s")
    m["factorization.cold_start_calls"] = (v.calls("factorization.predict_cold_start"), "count")

    for kind in ("mdgpr", "dgpr"):
        fit_s = v.span_s("gp.fit_gp", gp_kind=kind)
        m[f"gp.fit_s.{kind}"] = (fit_s, "s")
        m[f"gp.ms_per_mll_eval.{kind}"] = (_ratio(fit_s, v.calls("gp.cholesky", kind), 1e3), "ms")
    m["gp.cholesky_s"] = (v.total("gp.cholesky"), "s")
    m["gp.cho_solve_s"] = (v.total("gp.cho_solve"), "s")
    fits = v.named("gp.fit_gp")
    epochs = sum(s["attrs"]["epochs_run"] for s in fits)
    m["gp.fit_calls"] = (len(fits), "count")
    m["gp.epochs"] = (epochs, "count")
    m["gp.early_stops"] = (sum(1 for s in fits if s["attrs"]["epochs_run"] < s["attrs"]["epochs"]), "count")
    m["gp.mll_evals"] = (v.calls("gp.cholesky"), "count")
    m["gp.mll_evals_per_epoch"] = (_ratio(v.calls("gp.cholesky"), epochs), "ratio")
    m["gp.predict_s"] = (v.total("gp.predict_gp"), "s")
    m["gp.predict_calls"] = (v.calls("gp.predict_gp"), "count")

    mlp_calls = v.calls("meta.mlp_forward") + v.calls("meta.mlp_backward")
    m["meta.train_s"] = (v.span_s("meta.meta_train"), "s")
    m["meta.adapt_calls"] = (v.calls("meta.adapt"), "count")
    m["meta.mlp_calls"] = (mlp_calls, "count")
    m["meta.us_per_mlp_call"] = (
        _ratio(v.total("meta.mlp_forward") + v.total("meta.mlp_backward"), mlp_calls, 1e6), "us")

    m["explain.permutation_s"] = (v.span_s("explain.permutation_importance"), "s")
    m["explain.predict_calls"] = (v.calls("explain.predict"), "count")
    m["explain.fit_s"] = (v.span_s("cli.permutation_predictors"), "s")

    for layer, seconds in layer_self_times(v.spans, v.counters, v.counter_layer).items():
        m[f"{layer}.self_s"] = (seconds, "s")
    m["cli.bytes_written"] = (traced_bytes, "bytes")
    return m


# The span of each model kind's fit, and the counters its per-row predictions
# go through; the fit runs once per fold (evaluate) or per task (explain).
FIT_SPAN = {
    "gbt": "baselines.fit_gbt", "dgpr": "gp.fit_gp", "mdgpr": "gp.fit_gp",
    "lasso": "sparse_linear.fit_lasso", "group-lasso": "sparse_linear.fit_group_lasso",
    "cmf": "factorization.fit_cmf", "maml": "meta.meta_train",
}
ROW_COUNTERS = {
    "awt": ("baselines.predict_awt",), "aat": ("baselines.predict_aat",),
    "lasso": ("sparse_linear.predict_linear",), "group-lasso": ("sparse_linear.predict_linear",),
    "gbt": ("baselines.predict_gbt",), "dgpr": ("gp.predict_gp",), "mdgpr": ("gp.predict_gp",),
    "cmf": ("factorization.predict_cmf", "factorization.predict_cold_start"),
    "maml": ("meta.predict_net",),  # one batched call per fold; its units are rows
}


def coverage(view: TraceView, test_rows: dict[str, int]) -> list[tuple[str, bool, str]]:
    """Checks that tie the wrappers' counts to the work the CLI reports.

    ``test_rows`` maps each evaluated kind to the rows of its records.csv.
    A wrapper that misses its calls (say, because the package reaches the
    function through a reference taken at import time) leaves its count at
    0 and fails here.
    """
    v = view

    def rows_predicted(kind: str) -> int:
        return sum(v.counter(name, kind)[3 if kind == "maml" else 0] for name in ROW_COUNTERS[kind])

    out = []
    for main in v.named("cli.main"):
        command, kind = main["attrs"]["command"], main["attrs"]["kind"]
        if command.startswith("evaluate-"):
            folds = len(v.named("evaluation.fold", kind=kind))
            out.append((f"{command}: folds > 0", folds > 0, f"{folds} folds"))
            if kind in FIT_SPAN:
                fits = len(v.named(FIT_SPAN[kind], kind=kind))
                out.append((f"{command}: {FIT_SPAN[kind]} spans = folds", fits == folds,
                            f"{fits} vs {folds}"))
            rows = rows_predicted(kind)
            out.append((f"{command}: per-row predictions = rows of records.csv",
                        rows == test_rows[kind] > 0, f"{rows} vs {test_rows[kind]}"))
        elif command.startswith("explain-"):
            tasks = len(v.named("explain.permutation_importance", kind=kind))
            fits = len(v.named(FIT_SPAN[kind], kind=kind))
            expected = 1 if kind in ("cmf", "group-lasso", "mdgpr", "maml") else tasks
            out.append((f"{command}: {FIT_SPAN[kind]} spans = {'1' if expected == 1 else 'tasks'}",
                        tasks > 0 and fits == expected, f"{fits} vs {expected} ({tasks} tasks)"))
            rows, per_row = v.counter("explain.predict", kind)[3], rows_predicted(kind)
            out.append((f"{command}: per-row predictions = rows given to the predictors",
                        per_row == rows > 0, f"{per_row} vs {rows}"))
        elif command == "features":
            pairs, wmrr = v.attr_sum("features.build", "pairs"), v.calls("features.wmrr")
            out.append(("features: wmrr calls = pairs", wmrr == pairs > 0, f"{wmrr} vs {pairs}"))
    return out


def invariants(view: TraceView, metrics: dict, traced_wall_s: float,
               test_rows: dict[str, int]) -> list[tuple[str, bool, str]]:
    """(name, holds, detail) for each check that the wrappers caught every call."""
    v = view
    val = {k: x for k, (x, _) in metrics.items()}
    out = coverage(view, test_rows)
    out.append((
        "gp.mll_evals >= gp.epochs + gp.fit_calls",
        val["gp.mll_evals"] >= val["gp.epochs"] + val["gp.fit_calls"],
        f"{val['gp.mll_evals']} vs {val['gp.epochs']} + {val['gp.fit_calls']}",
    ))
    maml_folds = len(v.named("evaluation.fold", kind="maml"))
    expected = sum(s["attrs"]["meta_epochs"] * s["attrs"]["helpers"]
                   for s in v.named("meta.meta_train")) + maml_folds
    out.append((
        "meta.adapt_calls = folds x (meta_epochs x helpers + 1)",
        val["meta.adapt_calls"] == expected,
        f"{val['meta.adapt_calls']} vs {expected}",
    ))
    expected = sum(s["attrs"]["restarts"] * s["attrs"]["sweeps"] for s in v.named("factorization.fit_cmf"))
    out.append((
        "factorization.cmf_sweeps = fits x restarts x sweeps",
        val["factorization.cmf_sweeps"] == expected,
        f"{val['factorization.cmf_sweeps']} vs {expected}",
    ))
    layer_sum = sum(val[f"{layer}.self_s"] for layer in LAYERS)
    out.append((
        "layer self times add up to the traced wall time",
        abs(layer_sum - traced_wall_s) <= 0.01 * traced_wall_s,
        f"{layer_sum:.4f} s vs {traced_wall_s:.4f} s",
    ))
    out.append(("every traced frame closed", v.open_frames == 0, f"{v.open_frames} open"))
    return out
