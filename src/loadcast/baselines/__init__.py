"""The six benchmark forecasters behind a shared fit/predict contract.

Every model consumes the same supervised window set (load lags plus the
target hour's sin/cos clock) and predicts one step ahead; multi-step
forecasts come from the harness feeding predictions back recursively.
"""

from ..errors import ConfigError
from .neural import LSTMModel, MLPModel, lstm_cell_step
from .simple import LinearModel, PersistenceModel, pm_forecast
from .trees import GradientBoostedTrees, RegressionTree, best_split

# Canonical ordering, tsfm then the baselines in table order: the fixed
# tie-break sequence for model selection and the column order of reports.
_FACTORIES = {
    "pm": PersistenceModel,
    "lr": LinearModel,
    "rt": RegressionTree,
    "gbt": GradientBoostedTrees,
    "mlp": MLPModel,
    "lstm": LSTMModel,
}
BASELINE_IDS = tuple(_FACTORIES)
MODEL_ORDER = ("tsfm",) + BASELINE_IDS


def create_baseline(model_id: str, hyperparams: dict | None = None):
    """Instantiate a baseline by id with benchmark-table defaults."""
    try:
        factory = _FACTORIES[model_id]
    except KeyError:
        raise ConfigError(
            f"unknown baseline {model_id!r}; expected one of {BASELINE_IDS}"
        ) from None
    return factory(**(hyperparams or {}))


__all__ = [
    "BASELINE_IDS",
    "GradientBoostedTrees",
    "LSTMModel",
    "LinearModel",
    "MLPModel",
    "MODEL_ORDER",
    "PersistenceModel",
    "RegressionTree",
    "best_split",
    "create_baseline",
    "lstm_cell_step",
    "pm_forecast",
]
