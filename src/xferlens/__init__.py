"""xferlens: predict zero-shot cross-lingual transfer performance.

Fits single-task and multi-task regressors (averaging baselines, Lasso,
gradient-boosted trees, Group Lasso, collective matrix factorization,
deep-kernel Gaussian processes, and MAML) over linguistic and model features,
evaluates them under leave-one-language-out and leave-low-resource-out
protocols, and attributes predictions to features.
"""

from .data import (
    FEATURE_NAMES,
    DataError,
    Dataset,
    FeatureVector,
    LanguageMeta,
    PerformanceRecord,
    Scaler,
    load_dataset,
    make_llro_split,
    make_lolo_splits,
    save_dataset,
    standardize,
)
from .evaluation import (
    MODEL_KINDS,
    ModelSpec,
    aggregate,
    run_llro,
    run_lolo,
)

__version__ = "0.1.0"

__all__ = [
    "FEATURE_NAMES",
    "MODEL_KINDS",
    "DataError",
    "Dataset",
    "FeatureVector",
    "LanguageMeta",
    "ModelSpec",
    "PerformanceRecord",
    "Scaler",
    "aggregate",
    "load_dataset",
    "make_llro_split",
    "make_lolo_splits",
    "run_llro",
    "run_lolo",
    "save_dataset",
    "standardize",
    "__version__",
]
