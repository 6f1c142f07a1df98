"""Load forecasting with scarce history.

A pretrained encoder-decoder transformer that fine-tunes on days of data,
six classical baselines, Bayesian hyperparameter search, and an experiment
harness that scores everything over rolling origins at multiple horizons.
"""

from .baselines import BASELINE_IDS, MODEL_ORDER, create_baseline
from .corpus import GeneratorSpec, build_corpus, generate_series
from .errors import (
    ConfigError,
    DataError,
    DomainError,
    InsufficientDataError,
    LoadcastError,
    NumericError,
    OptimizationError,
    ShapeError,
    StateError,
)
from .harness import (
    ExperimentSpec,
    SelectionVerdict,
    compare_models,
    run_experiment,
    select_model,
)
from .hyperopt import BOResult, Dimension, SearchSpace, bo_optimize
from .metrics import MetricReport, MetricTriple, aggregate_runs, mae, mape, percent_reduction, rmse
from .report import emit_plot, emit_report
from .series import (
    CaseId,
    CaseSplit,
    NormalizationParams,
    TimeSeries,
    fit_normalizer,
    load_csv,
    make_windows,
    split_case,
)
from .transformer import TransformerConfig, TransformerForecaster

__version__ = "0.1.0"

__all__ = [
    "BASELINE_IDS",
    "BOResult",
    "CaseId",
    "CaseSplit",
    "ConfigError",
    "DataError",
    "Dimension",
    "DomainError",
    "ExperimentSpec",
    "GeneratorSpec",
    "InsufficientDataError",
    "LoadcastError",
    "MetricReport",
    "MetricTriple",
    "MODEL_ORDER",
    "NormalizationParams",
    "NumericError",
    "OptimizationError",
    "SearchSpace",
    "SelectionVerdict",
    "ShapeError",
    "StateError",
    "TimeSeries",
    "TransformerConfig",
    "TransformerForecaster",
    "aggregate_runs",
    "bo_optimize",
    "build_corpus",
    "compare_models",
    "create_baseline",
    "emit_plot",
    "emit_report",
    "fit_normalizer",
    "generate_series",
    "load_csv",
    "mae",
    "make_windows",
    "mape",
    "percent_reduction",
    "rmse",
    "run_experiment",
    "select_model",
    "split_case",
    "__version__",
]
