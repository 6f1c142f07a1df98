"""Tests for the six benchmark forecasters and their shared interface."""

import warnings
from datetime import datetime

import numpy as np
import pytest

from loadcast.baselines import (
    BASELINE_IDS,
    GradientBoostedTrees,
    LSTMModel,
    LinearModel,
    MLPModel,
    MODEL_ORDER,
    PersistenceModel,
    RegressionTree,
    best_split,
    create_baseline,
    lstm_cell_step,
    pm_forecast,
)
from loadcast.errors import ConfigError, ConfigWarning, InsufficientDataError, ShapeError
from loadcast.nn import ParamStore
from loadcast.series import (
    SupervisedWindowSet,
    TimeSeries,
    fit_normalizer,
    make_windows,
)


def window_fixture(seed=0, length=80, window=12):
    """Normalized seasonal windows shared by the learned-model tests."""
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    values = 0.5 + 0.3 * np.sin(2 * np.pi * t / 24) + rng.normal(scale=0.03, size=length)
    series = TimeSeries(datetime(2024, 1, 1), values, name="fixture")
    normalizer = fit_normalizer(series)
    return make_windows(series.with_values(normalizer.apply(series.values)), window)


def brute_force_split(features, targets, min_child=1):
    """Reference scan that tries every (feature, midpoint) pair directly."""
    n = len(targets)
    parent = float(np.sum((targets - targets.mean()) ** 2))
    best = None
    for f in range(features.shape[1]):
        for threshold in np.unique(features[:, f])[:-1]:
            candidates = np.unique(features[:, f])
            upper = candidates[candidates > threshold].min()
            midpoint = (threshold + upper) / 2.0
            mask = features[:, f] <= midpoint
            left, right = targets[mask], targets[~mask]
            if len(left) < min_child or len(right) < min_child:
                continue
            sse = (
                float(np.sum((left - left.mean()) ** 2))
                + float(np.sum((right - right.mean()) ** 2))
            )
            gain = parent - sse
            if gain <= 1e-12:
                continue
            if best is None or gain > best[2] + 1e-12:
                best = (f, midpoint, gain)
    return best


def test_model_order_covers_all_baselines():
    assert MODEL_ORDER[0] == "tsfm"
    assert MODEL_ORDER[1:] == BASELINE_IDS


def test_create_baseline_registry():
    expected = {
        "pm": PersistenceModel,
        "lr": LinearModel,
        "rt": RegressionTree,
        "gbt": GradientBoostedTrees,
        "mlp": MLPModel,
        "lstm": LSTMModel,
    }
    for model_id, cls in expected.items():
        assert isinstance(create_baseline(model_id), cls)
    with pytest.raises(ConfigError):
        create_baseline("arima")


def test_create_baseline_forwards_hyperparams():
    tree = create_baseline("rt", {"max_depth": 2, "max_leaves": 3})
    assert tree.max_depth == 2
    assert tree.max_leaves == 3


def test_pm_forecast_copies_last_value():
    history = np.array([0.3, 0.8, 0.1, 0.55])
    np.testing.assert_allclose(pm_forecast(history, 5), np.full(5, 0.55), rtol=0)
    series = TimeSeries(datetime(2024, 1, 1), history, name="h")
    np.testing.assert_allclose(pm_forecast(series, 3), np.full(3, 0.55), rtol=0)
    with pytest.raises(InsufficientDataError):
        pm_forecast(np.array([]), 2)
    assert pm_forecast(history, 0).shape == (0,)


@pytest.mark.parametrize("horizon", [-1, 2.5, True])
def test_pm_forecast_horizon_must_be_a_count(horizon):
    """-1 raised numpy's ValueError, 2.5 a TypeError, and True forecast one hour."""
    with pytest.raises(ConfigError, match="horizon"):
        pm_forecast(np.array([0.3, 0.55]), horizon)


def test_persistence_model_predicts_newest_lag():
    windows = window_fixture(seed=1)
    model = PersistenceModel().fit(windows, seed=0)
    np.testing.assert_allclose(
        model.predict(windows.inputs), windows.inputs[:, windows.window_length - 1], rtol=0
    )


def test_persistence_model_unfitted_guard():
    with pytest.raises(InsufficientDataError):
        PersistenceModel().predict(np.zeros((1, 14)))


def test_linear_model_recovers_planted_coefficients():
    rng = np.random.default_rng(2)
    for trial in range(5):
        x = rng.normal(size=(60, 6))
        true_w = rng.normal(size=6)
        true_b = float(rng.normal())
        y = x @ true_w + true_b
        windows = SupervisedWindowSet(x, y, window_length=4, horizon_step=1)
        model = LinearModel().fit(windows, seed=trial)
        np.testing.assert_allclose(model.weights, true_w, atol=1e-8)
        np.testing.assert_allclose(model.intercept, true_b, atol=1e-8)
        fresh = rng.normal(size=(10, 6))
        np.testing.assert_allclose(model.predict(fresh), fresh @ true_w + true_b, atol=1e-8)


def test_linear_model_ridge_fallback_on_rank_deficiency():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 3))
    x = np.column_stack([x, x[:, 0]])  # duplicated column forces rank deficiency
    y = x[:, 0] * 2.0 + 1.0
    windows = SupervisedWindowSet(x, y, window_length=2, horizon_step=1)
    model = LinearModel().fit(windows, seed=0)
    np.testing.assert_allclose(model.predict(x), y, atol=1e-5)


def test_best_split_matches_brute_force():
    rng = np.random.default_rng(4)
    for trial in range(20):
        n = int(rng.integers(4, 21))
        features = rng.normal(size=(n, 3)).round(2)
        targets = rng.normal(size=n)
        expected = brute_force_split(features, targets)
        found = best_split(features, targets)
        assert (found is None) == (expected is None)
        if found is not None:
            assert found[0] == expected[0]
            np.testing.assert_allclose(found[1], expected[1], rtol=1e-12)
            np.testing.assert_allclose(found[2], expected[2], rtol=1e-10)


def test_best_split_is_sample_order_invariant():
    rng = np.random.default_rng(5)
    features = rng.normal(size=(15, 4))
    targets = rng.normal(size=15)
    reference = best_split(features, targets)
    for _ in range(5):
        perm = rng.permutation(15)
        shuffled = best_split(features[perm], targets[perm])
        assert shuffled[0] == reference[0]
        np.testing.assert_allclose(shuffled[1], reference[1], rtol=1e-12)
        np.testing.assert_allclose(shuffled[2], reference[2], rtol=1e-10)


def test_best_split_degenerate_cases():
    features = np.array([[0.0], [1.0], [2.0], [3.0]])
    assert best_split(features, np.ones(4)) is None
    assert best_split(np.ones((6, 2)), np.arange(6.0)) is None
    assert best_split(features[:2], np.array([0.0, 1.0]), min_child=2) is None


def test_best_split_min_child_bounds_partition_sizes():
    rng = np.random.default_rng(7)
    for trial in range(10):
        features = rng.normal(size=(14, 3))
        targets = rng.normal(size=14)
        found = best_split(features, targets, min_child=4)
        expected = brute_force_split(features, targets, min_child=4)
        assert (found is None) == (expected is None)
        if found is not None:
            left = int(np.sum(features[:, found[0]] <= found[1]))
            assert 4 <= left <= 10
            np.testing.assert_allclose(found[2], expected[2], rtol=1e-10)


def test_regression_tree_nails_step_function():
    features = np.linspace(0.0, 1.0, 16)[:, None]
    targets = np.where(features[:, 0] < 0.5, -1.0, 2.0)
    tree = RegressionTree(max_depth=1).fit_arrays(features, targets)
    np.testing.assert_allclose(tree.predict(features), targets, rtol=0)
    assert tree.leaf_count() == 2


def test_regression_tree_respects_caps():
    rng = np.random.default_rng(8)
    features = rng.normal(size=(200, 5))
    targets = rng.normal(size=200)
    tree = RegressionTree(max_depth=3, max_leaves=6).fit_arrays(features, targets)
    assert tree.depth() <= 3
    assert tree.leaf_count() <= 6


def test_regression_tree_guards():
    assert RegressionTree().root is None
    with pytest.raises(InsufficientDataError):
        RegressionTree().predict(np.zeros((2, 3)))
    with pytest.raises(InsufficientDataError):
        RegressionTree().fit_arrays(np.zeros((0, 3)), np.zeros(0))


@pytest.mark.parametrize("length", [40, 72, 120])  # 120: case2, 96 windows, more than min_child
def test_gbt_warns_when_no_tree_can_split(length):
    """The default min_child_samples at case1/case2 sizes (window 24) forbids every split."""
    window = 8 if length == 40 else 24
    windows = window_fixture(seed=10, length=length, window=window)
    model = GradientBoostedTrees(estimators=20)
    with pytest.warns(ConfigWarning, match="no tree can split"):
        model.fit(windows, seed=0)
    assert all(tree.leaf_count() == 1 for tree in model.trees)
    out = model.predict(windows.inputs)
    assert np.all(np.isfinite(out))
    assert np.ptp(out) == 0.0


def test_gbt_split_warning_boundary():
    """68 windows: 54 fit rows, 43 per tree; min_child 21 can still split, 22 cannot."""
    windows = window_fixture(seed=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConfigWarning)
        GradientBoostedTrees(estimators=3, min_child_samples=21).fit(windows, seed=0)
    with pytest.warns(ConfigWarning, match="each tree sees 43"):
        GradientBoostedTrees(estimators=3, min_child_samples=22).fit(windows, seed=0)


def test_gbt_is_deterministic_per_seed():
    windows = window_fixture(seed=11)
    a = GradientBoostedTrees(estimators=25, min_child_samples=5).fit(windows, seed=3)
    b = GradientBoostedTrees(estimators=25, min_child_samples=5).fit(windows, seed=3)
    probe = windows.inputs[:9]
    np.testing.assert_allclose(a.predict(probe), b.predict(probe), rtol=0)
    c = GradientBoostedTrees(estimators=25, min_child_samples=5).fit(windows, seed=4)
    assert not np.allclose(a.predict(probe), c.predict(probe))


def test_gbt_training_curve_improves():
    windows = window_fixture(seed=12)
    model = GradientBoostedTrees(estimators=40, min_child_samples=5).fit(windows, seed=0)
    curve = model.training_curve(windows.inputs, windows.targets)
    assert len(curve) == len(model.trees) + 1
    assert curve[-1] < curve[0]


def test_gbt_keeps_best_validation_prefix():
    windows = window_fixture(seed=13)
    model = GradientBoostedTrees(
        estimators=60, min_child_samples=5, early_stopping_rounds=5
    ).fit(windows, seed=1)
    assert 1 <= len(model.trees) <= 60


def test_gbt_too_few_windows_guard():
    windows = SupervisedWindowSet(np.zeros((1, 5)), np.zeros(1), window_length=3, horizon_step=1)
    with pytest.raises(InsufficientDataError):
        GradientBoostedTrees().fit(windows, seed=0)


def test_gbt_unfitted_guard_and_empty_ensemble():
    windows = window_fixture(seed=14)
    probe = windows.inputs[:3]
    with pytest.raises(InsufficientDataError, match="not fitted"):
        GradientBoostedTrees().predict(probe)
    empty = GradientBoostedTrees(estimators=0, min_child_samples=5).fit(windows, seed=0)
    assert empty.trees == []
    np.testing.assert_array_equal(empty.predict(probe), np.full(3, empty.initial))


def test_mlp_training_reduces_loss():
    windows = window_fixture(seed=15)
    model = MLPModel(epochs=30).fit(windows, seed=0)
    assert model.curve[-1] < model.curve[0]


def test_mlp_is_deterministic_and_seed_sensitive():
    windows = window_fixture(seed=16)
    probe = windows.inputs[:6]
    a = MLPModel(epochs=10).fit(windows, seed=2)
    b = MLPModel(epochs=10).fit(windows, seed=2)
    np.testing.assert_allclose(a.predict(probe), b.predict(probe), rtol=0)
    c = MLPModel(epochs=10).fit(windows, seed=3)
    assert not np.allclose(a.predict(probe), c.predict(probe))


def test_mlp_outputs_stay_in_unit_interval():
    windows = window_fixture(seed=17)
    model = MLPModel(epochs=5).fit(windows, seed=0)
    rng = np.random.default_rng(18)
    out = model.predict(rng.uniform(-2.0, 3.0, size=(40, windows.inputs.shape[1])))
    assert np.all(out > 0.0)
    assert np.all(out < 1.0)


def test_mlp_config_guards():
    with pytest.raises(ConfigError):
        MLPModel(layers=(16, 4))
    with pytest.raises(ConfigError):
        MLPModel(layers=())
    with pytest.raises(InsufficientDataError):
        MLPModel().predict(np.zeros((1, 14)))


@pytest.mark.parametrize("make", [lambda: MLPModel(epochs=1), lambda: LSTMModel(lstm_units=(4,), epochs=1)],
                         ids=["mlp", "lstm"])
def test_neural_predict_names_the_expected_feature_width(make):
    windows = window_fixture(seed=22, length=40, window=12)
    model = make().fit(windows, seed=0)
    assert model.predict(windows.inputs).shape == (len(windows),)
    for width in (30, 20, 13):
        with pytest.raises(ShapeError, match=r"\(rows, 14\)"):
            model.predict(np.zeros((3, width)))


def test_lstm_cell_step_matches_hand_computation():
    params = ParamStore()
    gains = {"input": 0.5, "forget": -0.25, "output": 0.75, "cell": 1.0}
    for gate, scale in gains.items():
        params.add(f"{gate}.w", np.array([[scale]]))
        params.add(f"{gate}.u", np.array([[scale / 2.0]]))
        params.add(f"{gate}.b", np.array([[0.1 * scale]]))
    x = np.array([[0.4], [-1.2]])
    h = np.array([[0.2], [0.5]])
    c = np.array([[-0.3], [0.8]])

    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    pre = {g: x * s + h * (s / 2.0) + 0.1 * s for g, s in gains.items()}
    i, f, o = sigmoid(pre["input"]), sigmoid(pre["forget"]), sigmoid(pre["output"])
    g = np.tanh(pre["cell"])
    c_expected = f * c + i * g
    h_expected = o * np.tanh(c_expected)

    h_next, c_next = lstm_cell_step(x, h, c, params)
    np.testing.assert_allclose(h_next.value, h_expected, rtol=1e-12)
    np.testing.assert_allclose(c_next.value, c_expected, rtol=1e-12)


def test_lstm_training_reduces_loss():
    windows = window_fixture(seed=19, length=48, window=8)
    model = LSTMModel(lstm_units=(4,), dense_units=(1,), epochs=6).fit(windows, seed=0)
    assert model.curve[-1] < model.curve[0]


def test_lstm_is_deterministic_per_seed():
    windows = window_fixture(seed=20, length=48, window=8)
    probe = windows.inputs[:5]
    a = LSTMModel(lstm_units=(4,), dense_units=(1,), epochs=3).fit(windows, seed=1)
    b = LSTMModel(lstm_units=(4,), dense_units=(1,), epochs=3).fit(windows, seed=1)
    np.testing.assert_allclose(a.predict(probe), b.predict(probe), rtol=0)


def test_lstm_outputs_stay_in_unit_interval():
    windows = window_fixture(seed=21, length=48, window=8)
    model = LSTMModel(lstm_units=(4,), dense_units=(1,), epochs=2).fit(windows, seed=0)
    out = model.predict(windows.inputs)
    assert np.all(out > 0.0)
    assert np.all(out < 1.0)


@pytest.mark.parametrize("cls", [MLPModel, LSTMModel])
@pytest.mark.parametrize("field, value", [("epochs", 2.5), ("epochs", True), ("batch", 2.5), ("batch", True)])
def test_training_epochs_and_batch_must_be_integers(cls, field, value):
    """2.5 failed inside `range` with a bare TypeError; True trained one epoch, or at batch 1."""
    with pytest.raises(ConfigError, match=f"{field} must be an integer, got {value!r}"):
        cls(**{field: value}).fit(window_fixture(seed=2), seed=0)


def test_lstm_config_guards():
    with pytest.raises(ConfigError):
        LSTMModel(lstm_units=())
    with pytest.raises(ConfigError):
        LSTMModel(dense_units=(4,))
    with pytest.raises(InsufficientDataError):
        LSTMModel().predict(np.zeros((1, 14)))
