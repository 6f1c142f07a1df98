"""Tests for the GP-guided hyper-parameter search."""

import warnings

import numpy as np
import pytest

from loadcast.baselines import create_baseline
from loadcast.errors import ConfigError, ConfigWarning, OptimizationError
from loadcast.hyperopt import (
    BOResult,
    Dimension,
    SearchSpace,
    Trial,
    bo_optimize,
)
from loadcast.series import SupervisedWindowSet

QUADRATIC_SPACE = SearchSpace((Dimension("x", "linear", 0.0, 1.0),))


def quadratic(point):
    return (point["x"] - 0.3) ** 2


def test_dimension_from_unit_endpoints():
    d_int = Dimension("n", "int", 2, 9)
    assert d_int.from_unit(0.0) == 2
    assert d_int.from_unit(1.0) == 9
    d_lin = Dimension("a", "linear", -1.0, 3.0)
    np.testing.assert_allclose(d_lin.from_unit(0.0), -1.0)
    np.testing.assert_allclose(d_lin.from_unit(0.5), 1.0)
    np.testing.assert_allclose(d_lin.from_unit(1.0), 3.0)
    d_log = Dimension("lr", "log", 1e-4, 1e-1)
    np.testing.assert_allclose(d_log.from_unit(0.0), 1e-4, rtol=1e-12)
    np.testing.assert_allclose(d_log.from_unit(1.0), 1e-1, rtol=1e-12)
    np.testing.assert_allclose(d_log.from_unit(0.5), np.sqrt(1e-4 * 1e-1), rtol=1e-12)


def test_dimension_from_unit_clips_out_of_range():
    d = Dimension("n", "int", 0, 4)
    assert d.from_unit(-0.5) == 0
    assert d.from_unit(1.5) == 4


def test_dimension_validation():
    with pytest.raises(ConfigError):
        Dimension("x", "triangular", 0.0, 1.0)
    with pytest.raises(ConfigError):
        Dimension("x", "linear", 2.0, 1.0)
    with pytest.raises(ConfigError):
        Dimension("x", "log", 0.0, 1.0)
    with pytest.raises(ConfigError):
        Dimension("x", "categorical")


def test_dimension_cardinality():
    assert Dimension("n", "int", 3, 7).cardinality() == 5
    assert Dimension("x", "linear", 0.0, 1.0).cardinality() is None


def test_search_space_validation_and_counting():
    with pytest.raises(ConfigError):
        SearchSpace(())
    with pytest.raises(ConfigError):
        SearchSpace((Dimension("x", "linear"), Dimension("x", "linear")))
    finite = SearchSpace((Dimension("a", "int", 1, 3), Dimension("b", "int", 0, 1)))
    assert finite.point_count() == 6
    assert QUADRATIC_SPACE.point_count() is None


def test_bo_optimize_converges_on_quadratic():
    for seed in range(5):
        result = bo_optimize(quadratic, QUADRATIC_SPACE, budget=30, seed=seed)
        assert abs(result.best.point["x"] - 0.3) < 0.05, f"seed {seed}"
        assert result.best.objective < 0.05**2


def test_bo_optimize_is_deterministic():
    a = bo_optimize(quadratic, QUADRATIC_SPACE, budget=20, seed=7)
    b = bo_optimize(quadratic, QUADRATIC_SPACE, budget=20, seed=7)
    assert [t.point for t in a.trials] == [t.point for t in b.trials]
    assert [t.objective for t in a.trials] == [t.objective for t in b.trials]
    assert a.best.point == b.best.point


def test_bo_optimize_budget_guard():
    with pytest.raises(ConfigError):
        bo_optimize(quadratic, QUADRATIC_SPACE, budget=4, seed=0)


def test_bo_optimize_records_failures_and_moves_on():
    def flaky(point):
        if point["x"] < 0.5:
            raise ValueError("left half is poisoned")
        return point["x"]

    result = bo_optimize(flaky, QUADRATIC_SPACE, budget=25, seed=1)
    assert result.failures
    assert all("ValueError" in failure["error"] for failure in result.failures)
    assert all(t.point["x"] >= 0.5 for t in result.trials)
    assert len(result.trials) + len(result.failures) == 25


def test_bo_optimize_rejects_non_finite_objectives():
    def leaky(point):
        return float("nan") if point["x"] > 0.5 else point["x"]

    result = bo_optimize(leaky, QUADRATIC_SPACE, budget=20, seed=2)
    assert all(np.isfinite(t.objective) for t in result.trials)
    assert any("non-finite" in failure["error"] for failure in result.failures)


def test_bo_optimize_raises_when_everything_fails():
    def broken(point):
        raise RuntimeError("always down")

    with pytest.raises(OptimizationError):
        bo_optimize(broken, QUADRATIC_SPACE, budget=8, seed=3)


def test_bo_optimize_stops_when_finite_space_is_exhausted():
    space = SearchSpace((Dimension("n", "int", 1, 4),))
    calls = []

    def objective(point):
        calls.append(point["n"])
        return float(point["n"])

    result = bo_optimize(objective, space, budget=50, seed=4)
    assert sorted(set(calls)) == sorted(calls)
    assert len(result.trials) <= 4
    assert result.best.point["n"] == min(calls)


def test_bo_optimize_best_is_the_earliest_minimum():
    space = SearchSpace((Dimension("n", "int", 1, 8),))
    result = bo_optimize(lambda point: float(point["n"] % 2), space, budget=8, seed=5)
    objectives = [t.objective for t in result.trials]
    assert objectives.count(0.0) == 4  # the space is exhausted: every even n ties
    assert result.best is result.trials[objectives.index(0.0)]


#: The low and high corners of each tunable baseline's tuning ranges, which
#: bracket its benchmark defaults by a factor of four, as keyword arguments.
TUNING_CORNERS = {
    "rt": ({"max_depth": 1, "max_leaves": 6}, {"max_depth": 16, "max_leaves": 100}),
    "gbt": ({"estimators": 125, "learning_rate": 0.0025, "subsample": 0.2, "min_child_samples": 22},
            {"estimators": 2000, "learning_rate": 0.04, "subsample": 1.0, "min_child_samples": 360}),
    "mlp": ({"layers": (4, 4, 1), "learning_rate": 0.00025, "batch": 2, "epochs": 50},
            {"layers": (64, 64, 1), "learning_rate": 0.004, "batch": 32, "epochs": 800}),
    "lstm": ({"lstm_units": (4, 2), "dense_units": (2, 1), "learning_rate": 0.00025, "batch": 2, "epochs": 50},
             {"lstm_units": (64, 32), "dense_units": (32, 1), "learning_rate": 0.004, "batch": 32, "epochs": 800}),
}


@pytest.mark.parametrize("model_id", sorted(TUNING_CORNERS))
def test_default_space_corners_build_and_fit(model_id):
    """Both corners of every tuning range are kwargs a baseline accepts and can fit."""
    rng = np.random.default_rng(21)
    lags = rng.uniform(size=(40, 8))
    windows = SupervisedWindowSet(
        np.hstack([lags, rng.uniform(-1.0, 1.0, size=(40, 2))]), lags.mean(axis=1),
        window_length=8, horizon_step=1,
    )
    for corner in TUNING_CORNERS[model_id]:
        kwargs = dict(corner)
        if "epochs" in kwargs:
            kwargs["epochs"] = 1
        model = create_baseline(model_id, kwargs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConfigWarning)
            model.fit(windows, seed=0)
        out = model.predict(windows.inputs)
        assert out.shape == (40,) and np.all(np.isfinite(out))
