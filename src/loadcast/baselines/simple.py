"""Persistence and linear-regression baselines."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, InsufficientDataError, require_integer
from ..series import SupervisedWindowSet, TimeSeries

RIDGE_LAMBDA = 1e-8


def pm_forecast(history, horizon: int) -> np.ndarray:
    """Persistence forecast: every future hour copies the last observed value."""
    require_integer("horizon", horizon)
    if horizon < 0:
        raise ConfigError(f"horizon must be >= 0, got {horizon}")
    values = history.values if isinstance(history, TimeSeries) else np.asarray(history, dtype=np.float64)
    if values.size == 0:
        raise InsufficientDataError("persistence forecast needs a non-empty history")
    return np.full(horizon, float(values[-1]))


class PersistenceModel:
    """The copy rule cast into the shared one-step window interface.

    One-step prediction is the newest lag in the window, which makes the
    recursive multi-step forecast a constant vector (the copy rule's fixed
    point). There is nothing to fit.
    """

    def __init__(self):
        self.window_length: int | None = None

    def fit(self, windows: SupervisedWindowSet, seed: int = 0) -> "PersistenceModel":
        self.window_length = windows.window_length
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if self.window_length is None:
            raise InsufficientDataError("model is not fitted")
        return features[:, self.window_length - 1].copy()


class LinearModel:
    """Ordinary least squares with an intercept and a tiny ridge fallback.

    Scarce-history design matrices can be rank-deficient (constant columns,
    more lags than rows); when that happens the coefficients come from
    (X'X + lambda I) beta = X'y with lambda = RIDGE_LAMBDA = 1e-8.
    """

    def __init__(self):
        self.weights: np.ndarray | None = None
        self.intercept = 0.0

    def fit(self, windows: SupervisedWindowSet, seed: int = 0) -> "LinearModel":
        x, y = windows.inputs, windows.targets
        design = np.column_stack([x, np.ones(len(x))])
        solution, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < design.shape[1]:
            gram = design.T @ design + RIDGE_LAMBDA * np.eye(design.shape[1])
            solution = np.linalg.solve(gram, design.T @ y)
        self.weights = solution[:-1]
        self.intercept = float(solution[-1])
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise InsufficientDataError("model is not fitted")
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        return features @ self.weights + self.intercept
