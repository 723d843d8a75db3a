"""Seeded generator of the benchmark's input files.

Every value comes from ``numpy.random.default_rng`` streams derived from the
seed and every collection is written in sorted order, so one seed gives
byte-identical files under any ``PYTHONHASHSEED``. Two shapes are produced:

* ``paper_table``: scores, features and metadata shaped like the source
  paper's table, scaled down (5 tasks with 20/16/10/8/6 targets, one pivot,
  60 records), with a few missing feature cells.
* ``multipivot_resources``: raw feature resources for 5 pivots and 30
  targets (subword vocabularies, URIEL-sized typology vectors, WALS values,
  tokenizer stats, metadata) plus a scores table of 11 tasks at 0.75x the
  paper shape for every pivot (620 records).

Both guarantee, for every seed: each task has targets of resource class 4-5
and of class <= 3 (so LLRO is defined), each target appears in at least two
tasks (so ``aat`` has helpers), and one ``model`` value.
"""

from __future__ import annotations

import csv
import hashlib
import string
from pathlib import Path

import numpy as np

# The paper's table has 11 tasks with 40/33/20/15/11/10/9/7/7/6/5 targets
# (163 records). The benchmark halves it and keeps its five largest tasks, and
# gives the multi-pivot table 5 pivots and 30 targets, so that one pass of any
# workload takes a few seconds and a timed run is a median over several passes.
TABLE_TASK_SIZES = (20, 16, 10, 8, 6)
MULTIPIVOT_TASK_SIZES = (30, 25, 15, 11, 8, 8, 7, 5, 5, 5, 5)
N_PIVOTS = 5
MODEL_NAME = "mlm-base"
PIVOT = "en"

FEATURE_NAMES = ("o_sw", "s_syn", "s_pho", "s_gen", "d_geo", "size", "wmrr", "fert", "pcw")
FEATURE_RANGES = {
    "o_sw": (0.0, 1.0),
    "s_syn": (0.0, 1.0),
    "s_pho": (0.0, 1.0),
    "s_gen": (0.0, 1.0),
    "d_geo": (0.0, 1.0),
    "size": (4.0, 9.0),
    "wmrr": (0.05, 1.0),
    "fert": (1.0, 3.0),
    "pcw": (0.0, 1.0),
}
MISSING_SHARE = 0.04

# URIEL-sized typology vectors.
TYPOLOGY_DIMS = {"syntax": 103, "phonology": 28, "genetic": 3718, "geography": 299}
TYPOLOGY_MISSING = {"syntax": 0.35, "phonology": 0.25, "genetic": 0.0, "geography": 0.0}
VOCAB_TYPES = 20_000
WALS_FEATURES = 192
WALS_PER_LANG = 100
N_FAMILIES = 8


def task_names(n: int) -> list[str]:
    return [f"t{i:02d}" for i in range(n)]


def lang_codes(n: int, skip: tuple[str, ...] = (PIVOT,)) -> list[str]:
    codes = []
    for a in string.ascii_lowercase:
        for b in string.ascii_lowercase:
            if a + b not in skip:
                codes.append(a + b)
            if len(codes) == n:
                return codes
    raise ValueError("too many languages requested")


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def task_membership(langs: list[str], sizes: tuple[int, ...], rng: np.random.Generator):
    """Targets of each task and the resource class of every language.

    Languages sit on a circle where every run of five holds two high-resource
    (class 4-5) and three low-resource (class <= 3) languages. Task 0 takes
    the whole circle; the other tasks take consecutive arcs that together
    wrap it at least once, so every language is in at least two tasks and
    every task of five or more targets mixes both class groups.
    """
    n = len(langs)
    if n % 5 or sizes[0] != n or min(sizes) < 5 or sum(sizes[1:]) < n:
        raise ValueError("task sizes do not allow the class and coverage guarantees")
    order = [langs[i] for i in rng.permutation(n)]
    high_slots = [i for i in range(n) if i % 5 in (0, 3)]
    classes = {}
    for i, lang in enumerate(order):
        high = i in high_slots
        classes[lang] = int(rng.integers(4, 6)) if high else int(rng.integers(0, 4))
    members = {0: sorted(order)}
    start = int(rng.integers(n))
    for t, size in enumerate(sizes[1:], start=1):
        members[t] = sorted(order[(start + k) % n] for k in range(size))
        start = (start + size) % n
    return members, classes


def _planted_scores(n_tasks: int, rng: np.random.Generator):
    """Weights of the planted model 0.5 + offset_t + z . (shared + deviation_t)."""
    n = len(FEATURE_NAMES)
    shared = rng.normal(0.0, 0.06, size=n)
    deviation = rng.normal(0.0, 0.02, size=(n_tasks, n))
    offsets = rng.normal(0.0, 0.05, size=n_tasks)
    return shared, deviation, offsets


def _score(z: np.ndarray, t: int, planted, rng: np.random.Generator) -> float:
    shared, deviation, offsets = planted
    y = 0.5 + offsets[t] + float(z @ (shared + deviation[t])) + 0.02 * rng.standard_normal()
    return float(np.clip(y, 0.01, 0.99))


def paper_table(seed: int, out_dir: Path, variant: int = 0) -> dict[str, Path]:
    """scores.csv, features.csv and meta.csv shaped like the paper's table;
    ``variant`` picks one of several independent tables for the seed."""
    rng = np.random.default_rng([seed, 1, variant])
    out_dir.mkdir(parents=True, exist_ok=True)
    langs = lang_codes(TABLE_TASK_SIZES[0])
    members, classes = task_membership(langs, TABLE_TASK_SIZES, rng)
    tasks = task_names(len(TABLE_TASK_SIZES))

    bounds = [FEATURE_RANGES[name] for name in FEATURE_NAMES]
    feature_rows, z_by_lang = [], {}
    for lang in langs:
        values = [float(rng.uniform(lo, hi)) for lo, hi in bounds]
        # Standardized with the uniform distribution's own mean and std.
        z_by_lang[lang] = np.array(
            [(v - (lo + hi) / 2.0) / ((hi - lo) / np.sqrt(12.0)) for v, (lo, hi) in zip(values, bounds)]
        )
        missing = rng.random(len(FEATURE_NAMES)) < MISSING_SHARE
        feature_rows.append(
            [PIVOT, lang] + ["" if m else _fmt(v) for v, m in zip(values, missing)]
        )

    planted = _planted_scores(len(tasks), rng)
    score_rows = []
    for t, task in enumerate(tasks):
        for lang in members[t]:
            score_rows.append(
                [MODEL_NAME, task, PIVOT, lang, _fmt(_score(z_by_lang[lang], t, planted, rng))]
            )

    meta_rows = [[PIVOT, "5", _fmt(3.0e9)]]
    for lang in langs:
        cls = classes[lang]
        words = 10.0 ** (4.0 + cls + float(rng.uniform(0.0, 1.0)))
        meta_rows.append([lang, str(cls), _fmt(words)])
    meta_rows.sort()

    paths = {
        "scores": out_dir / "scores.csv",
        "features": out_dir / "features.csv",
        "meta": out_dir / "meta.csv",
    }
    _write_csv(paths["scores"], ["model", "task", "pivot", "target", "score"], score_rows)
    _write_csv(paths["features"], ["pivot", "target", *FEATURE_NAMES], feature_rows)
    _write_csv(paths["meta"], ["lang", "class", "pretrain_words"], meta_rows)
    return paths


def _token_strings(count: int, rng: np.random.Generator) -> list[str]:
    """Distinct subword-like strings: a base-26 code, a random prefix marker."""
    letters = string.ascii_lowercase
    marks = rng.random(count) < 0.4
    out = []
    for i in range(count):
        code, k = [], i
        while True:
            code.append(letters[k % 26])
            k //= 26
            if k == 0:
                break
        out.append(("_" if marks[i] else "") + "".join(code))
    return out


def multipivot_resources(seed: int, out_dir: Path, variant: int = 0) -> dict[str, Path]:
    """Raw feature resources for 35 languages plus a multi-pivot scores table;
    ``variant`` picks one of several independent sets for the seed."""
    rng = np.random.default_rng([seed, 2, variant])
    out_dir.mkdir(parents=True, exist_ok=True)
    pivots = lang_codes(N_PIVOTS, skip=())
    targets = lang_codes(N_PIVOTS + MULTIPIVOT_TASK_SIZES[0], skip=())[N_PIVOTS:]
    langs = pivots + targets
    members, classes = task_membership(targets, MULTIPIVOT_TASK_SIZES, rng)
    for p in pivots:
        classes[p] = 5
    family = {lang: int(rng.integers(N_FAMILIES)) for lang in langs}

    # Subword vocabularies: half from the family's pool, half from a shared one.
    pool = _token_strings(N_FAMILIES * 30_000 + 60_000, rng)
    shared_pool = pool[N_FAMILIES * 30_000:]
    vocab_dir = out_dir / "vocabs"
    vocab_dir.mkdir(exist_ok=True)
    for lang in langs:
        fam = family[lang]
        own = rng.choice(30_000, size=VOCAB_TYPES // 2, replace=False) + fam * 30_000
        common = rng.choice(len(shared_pool), size=VOCAB_TYPES // 2, replace=False)
        tokens = sorted({pool[i] for i in own} | {shared_pool[i] for i in common})
        (vocab_dir / f"{lang}.txt").write_text("\n".join(tokens) + "\n", encoding="utf-8")

    # Typology vectors in one fixed-width CSV; narrower kinds are padded.
    width = max(TYPOLOGY_DIMS.values())
    fam_protos = {
        kind: rng.random((N_FAMILIES, dims)) for kind, dims in TYPOLOGY_DIMS.items()
    }
    typo_rows = []
    for lang in langs:
        fam = family[lang]
        for kind, dims in TYPOLOGY_DIMS.items():
            if kind == "genetic":
                vec = np.zeros(dims)
                vec[rng.choice(dims, size=12, replace=False)] = 1.0
                vec[fam * 40:(fam + 1) * 40] = 1.0
            elif kind == "geography":
                vec = np.clip(fam_protos[kind][fam] + rng.normal(0.0, 0.1, dims), 0.0, 1.0)
            else:
                flip = rng.random(dims) < 0.2
                vec = np.where(flip, 1.0 - fam_protos[kind][fam], fam_protos[kind][fam])
                vec = (vec > 0.5).astype(float)
            missing = rng.random(dims) < TYPOLOGY_MISSING[kind]
            cells = ["" if m else _fmt(v) for v, m in zip(vec, missing)]
            typo_rows.append([lang, kind] + cells + [""] * (width - dims))
    typo_header = ["lang", "kind"] + [f"d{i}" for i in range(width)]

    # WALS: each language takes one value for 100 of the 192 features.
    wals_rows = []
    n_values = rng.integers(2, 8, size=WALS_FEATURES)
    for lang in langs:
        feats = rng.choice(WALS_FEATURES, size=WALS_PER_LANG, replace=False)
        for f in sorted(feats):
            value = int(rng.integers(n_values[f])) if rng.random() < 0.5 else family[lang] % n_values[f]
            wals_rows.append([lang, f"{f + 1}A={value + 1}"])

    stats_rows, meta_rows = [], []
    for lang in langs:
        words = int(rng.integers(50_000, 200_000))
        fert = float(rng.uniform(1.1, 2.8))
        cont = int(words * float(rng.uniform(0.05, 0.6)))
        stats_rows.append([lang, str(words), str(int(words * fert)), str(cont)])
        cls = classes[lang]
        meta_rows.append([lang, str(cls), _fmt(10.0 ** (4.0 + cls + float(rng.uniform(0.0, 1.0))))])

    # Scores: planted on language-level latent traits, for every pivot.
    trait = {lang: rng.normal(0.0, 1.0, size=len(FEATURE_NAMES)) for lang in langs}
    planted = _planted_scores(len(MULTIPIVOT_TASK_SIZES), rng)
    score_rows = []
    for t, task in enumerate(task_names(len(MULTIPIVOT_TASK_SIZES))):
        for pivot in pivots:
            for target in members[t]:
                z = 0.5 * (trait[target] + 0.3 * trait[pivot])
                score_rows.append([MODEL_NAME, task, pivot, target, _fmt(_score(z, t, planted, rng))])

    paths = {
        "vocab_dir": vocab_dir,
        "typology": out_dir / "typology.csv",
        "wals": out_dir / "wals.csv",
        "stats": out_dir / "stats.csv",
        "meta": out_dir / "meta.csv",
        "scores": out_dir / "scores.csv",
    }
    _write_csv(paths["typology"], typo_header, typo_rows)
    _write_csv(paths["wals"], ["lang", "feature_value"], wals_rows)
    _write_csv(paths["stats"], ["lang", "word_count", "subword_count", "continued_word_count"], stats_rows)
    _write_csv(paths["meta"], ["lang", "class", "pretrain_words"], sorted(meta_rows))
    _write_csv(paths["scores"], ["model", "task", "pivot", "target", "score"], score_rows)
    return paths


def sha256_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by its relative path."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out
