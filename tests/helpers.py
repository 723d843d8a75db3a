"""Shared builders for synthetic datasets used across the test suite."""

from __future__ import annotations

import string
import zlib
from typing import Callable, Mapping

import numpy as np
from hypothesis import strategies as st

from xferlens import gp
from xferlens.data import (
    FEATURE_NAMES,
    Dataset,
    FeatureVector,
    LanguageMeta,
    PerformanceRecord,
)
from xferlens.numerics import MlpParams, mlp_from_vector

# Generator ranges per feature, respecting the domain invariants.
_FEATURE_RANGES = {
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


def lang_codes(n: int) -> list[str]:
    codes = []
    for a in string.ascii_lowercase:
        for b in string.ascii_lowercase:
            code = a + b
            if code == "en":
                continue
            codes.append(code)
            if len(codes) == n:
                return codes
    raise ValueError("too many languages requested")


def random_feature_vector(pivot: str, target: str, rng: np.random.Generator) -> FeatureVector:
    values = {
        name: float(rng.uniform(lo, hi)) for name, (lo, hi) in _FEATURE_RANGES.items()
    }
    return FeatureVector(pivot, target, values)


def standardized_row(fv: FeatureVector) -> np.ndarray:
    """Feature row mapped through the generator's own (analytic) statistics."""
    out = []
    for name in FEATURE_NAMES:
        lo, hi = _FEATURE_RANGES[name]
        mean = (lo + hi) / 2.0
        std = (hi - lo) / np.sqrt(12.0)
        out.append((fv.values[name] - mean) / std)
    return np.array(out)


def planted_dataset(
    task_langs: dict[str, list[str]],
    weights: np.ndarray,
    noise: float = 0.01,
    seed: int = 0,
    pivot: str = "en",
    classes: dict[str, int] | None = None,
) -> Dataset:
    """Scores generated as y = 0.5 + w . z(features) + eps, shared across tasks.

    ``z`` standardizes features with the generator's analytic statistics, so
    the relationship stays exactly linear in the raw features. Raises if any
    score would leave [0, 1]; shrink the weights instead of clipping.
    """
    rng = np.random.default_rng(seed)
    weights = np.asarray(weights, dtype=float)
    all_langs = sorted({lang for langs in task_langs.values() for lang in langs})
    features = {}
    for lang in all_langs:
        features[(pivot, lang)] = random_feature_vector(pivot, lang, rng)
    records = []
    for task in sorted(task_langs):
        for lang in task_langs[task]:
            z = standardized_row(features[(pivot, lang)])
            score = 0.5 + float(weights @ z) + noise * float(rng.standard_normal())
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"generated score {score} outside [0, 1]; shrink the weights")
            records.append(PerformanceRecord("toy-model", task, pivot, lang, score))
    meta = {}
    for lang in all_langs + [pivot]:
        cls = classes.get(lang, 5) if classes else 5
        meta[lang] = LanguageMeta(lang, cls, 10.0 ** (3 + zlib.crc32(lang.encode()) % 5))
    return Dataset(tuple(records), features, meta)


def grad_check(
    f: Callable[[np.ndarray], tuple[float, np.ndarray]],
    at: np.ndarray,
    step: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a parameter vector to ``(value, gradient)``. The relative error
    for coordinate j uses the denominator ``max(1, |analytic_j|, |numeric_j|)``.
    """
    at = np.asarray(at, dtype=float)
    value, grad = f(at)
    if not np.isfinite(value):
        raise ValueError("objective is not finite at the evaluation point")
    grad = np.asarray(grad, dtype=float)
    if grad.shape != at.shape:
        raise ValueError("gradient shape does not match parameter vector")
    worst = 0.0
    for j in range(at.size):
        e = np.zeros_like(at)
        e[j] = step
        fp = f(at + e)[0]
        fm = f(at - e)[0]
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError("objective is not finite near the evaluation point")
        numeric = (fp - fm) / (2.0 * step)
        denom = max(1.0, abs(grad[j]), abs(numeric))
        worst = max(worst, abs(grad[j] - numeric) / denom)
    return worst


def mll_function(
    data_by_task: Mapping[str, tuple[np.ndarray, np.ndarray]],
    multi_task: bool,
    seed: int = 0,
    hidden: tuple[int, ...] = gp.DEFAULT_HIDDEN,
    init_noise_variance: float = 0.01,
) -> tuple[Callable[[np.ndarray], tuple[float, np.ndarray]], np.ndarray]:
    """The GP's marginal log-likelihood as a checkable function of its parameter vector.

    Returns ``(f, x0)`` where ``f(vec) -> (mll, grad)`` and ``x0`` is the
    seeded initialization that ``gp.fit_gp`` starts from, for ``grad_check``.
    """
    prob, _, _ = gp._build_problem(data_by_task, multi_task, hidden)
    vec0 = gp._init_vec(prob, seed, init_noise_variance)

    def f(vec: np.ndarray) -> tuple[float, np.ndarray]:
        lik = likelihood(prob, vec)
        return lik.mll, gradient(prob, lik)

    return f, vec0


def likelihood(prob: gp._Problem, vec: np.ndarray) -> gp._Likelihood:
    """``gp._likelihood`` at a copy of ``vec``, in a new point of its own and
    inside the fit's errstate scope, as ``gp.fit_gp`` evaluates it."""
    lik = gp._Likelihood(prob, np.array(vec, dtype=float))
    with np.errstate(**gp._QUIET):
        return gp._likelihood(prob, lik)


def gradient(prob: gp._Problem, lik: gp._Likelihood) -> np.ndarray:
    """``gp._gradient`` at the point ``likelihood`` returned, inside the
    fit's errstate scope; the result is ``lik.grad``."""
    with np.errstate(**gp._QUIET):
        return gp._gradient(prob, lik)


def noise_slice(prob: gp._Problem) -> slice:
    """The per-task log noise variances in the GP's parameter vector."""
    start = prob.n_mlp + 2
    return slice(start, start + prob.n_tasks)


def mlp_params(weights: list[np.ndarray], biases: list[np.ndarray]) -> MlpParams:
    """A network with copies of the given layers, in one flat vector."""
    sizes = (weights[0].shape[0], *(w.shape[1] for w in weights))
    return mlp_from_vector(sizes, np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair]))


def simple_dataset() -> Dataset:
    """Two tasks over a handful of languages with hand-picked scores."""
    pivot = "en"
    langs = ["de", "fr", "hi", "sw"]
    rng = np.random.default_rng(7)
    features = {(pivot, lang): random_feature_vector(pivot, lang, rng) for lang in langs}
    scores = {
        ("taskA", "de"): 0.8,
        ("taskA", "fr"): 0.6,
        ("taskA", "hi"): 0.4,
        ("taskB", "de"): 0.7,
        ("taskB", "fr"): 0.5,
        ("taskB", "hi"): 0.55,
        ("taskB", "sw"): 0.3,
    }
    records = tuple(
        PerformanceRecord("toy-model", task, pivot, lang, s)
        for (task, lang), s in sorted(scores.items())
    )
    meta = {
        "en": LanguageMeta("en", 5, 1e9),
        "de": LanguageMeta("de", 5, 1e8),
        "fr": LanguageMeta("fr", 4, 1e8),
        "hi": LanguageMeta("hi", 3, 1e6),
        "sw": LanguageMeta("sw", 1, 1e5),
    }
    return Dataset(records, features, meta)


@st.composite
def random_layouts(draw, complete: bool = False) -> Dataset:
    """Datasets over one to three pivots, with missing feature cells.

    Pivots and targets come from disjoint language pools, and each task
    draws at least two targets, scored under every pivot; unless
    ``complete``, some of those (pivot, target) records are dropped. Records
    come in a drawn order, and every language has a drawn resource class.
    """
    pool = lang_codes(9)
    pivots = draw(st.lists(st.sampled_from(pool[:3]), min_size=1, max_size=3, unique=True))
    targets = pool[3:]
    records = []
    for t in range(draw(st.integers(1, 4))):
        task_targets = draw(
            st.lists(st.sampled_from(targets), min_size=2, max_size=len(targets), unique=True)
        )
        for pivot in pivots:
            for target in task_targets:
                if complete or draw(st.integers(0, 4)) > 0:
                    score = draw(st.floats(0.0, 1.0))
                    records.append(PerformanceRecord("toy-model", f"T{t}", pivot, target, score))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n_features = len(FEATURE_NAMES)
    features = {}
    for pivot in pivots:
        for target in targets:
            values = random_feature_vector(pivot, target, rng).values
            mask = draw(st.lists(st.booleans(), min_size=n_features, max_size=n_features))
            missing = frozenset(name for name, m in zip(FEATURE_NAMES, mask) if m)
            kept = {name: v for name, v in values.items() if name not in missing}
            features[(pivot, target)] = FeatureVector(pivot, target, kept, missing)
    meta = {lang: LanguageMeta(lang, draw(st.integers(0, 5)), 1e6) for lang in pool}
    return Dataset(tuple(draw(st.permutations(records))), features, meta)
