"""Tests for the rolling-origin evaluation harness, reporting, and CLI."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import loadcast.nn.autodiff as ad
from loadcast import harness
from loadcast.baselines import MODEL_ORDER
from loadcast.cli import main as cli_main
from loadcast.corpus import GeneratorSpec, generate_series
from loadcast.errors import ConfigError, DataError, InsufficientDataError, ShapeError
from loadcast.harness import (
    ALLOWED_HORIZONS,
    ExperimentSpec,
    compare_models,
    derive_run_seed,
    load_spec,
    resolve_dataset,
    roll_forecasts,
    run_experiment,
    score_horizon,
    select_model,
)
from loadcast.metrics import MetricReport, MetricTriple, rmse
from loadcast.report import (
    emit_plot,
    emit_report,
    load_report,
    render_case_csv,
    render_comparison,
    render_text_table,
    write_forecasts,
)
from loadcast.series import fit_normalizer, read_json, split_case, write_csv, write_json
from loadcast.transformer import TransformerConfig, TransformerForecaster

#: A transformer small enough to pretrain inside the module suite.
TINY_TSFM = TransformerConfig(
    d_model=8, head_count=2, encoder_layers=1, decoder_layers=1, context_length=12, horizon_length=3
)


def seasonal_series(length=100, seed=0, noise=0.05):
    return generate_series(
        GeneratorSpec(family="seasonal", length=length, period=24, noise_std=noise, seed=seed)
    )


def pm_spec(horizons=(1, 4), runs=1):
    return ExperimentSpec(
        cases=("case1",), horizons_hours=horizons, models=("pm",), runs_per_model=runs
    )


class FlatStub:
    """Fake one-step model that always predicts the same constant."""

    def __init__(self, value=0.5):
        self.value = value

    def predict(self, features):
        return np.full(len(np.atleast_2d(features)), self.value)


class DoublingStub:
    """Fake one-step model returning twice the newest lag in the window."""

    def __init__(self, window):
        self.window = window

    def predict(self, features):
        features = np.atleast_2d(features)
        return 2.0 * features[:, self.window - 1]


def test_spec_validation_rejects_malformed_grids():
    good = dict(cases=("case1",), horizons_hours=(1,), models=("pm",))
    with pytest.raises(ConfigError):
        ExperimentSpec(**{**good, "cases": ()})
    with pytest.raises(ConfigError):
        ExperimentSpec(**{**good, "cases": ("case1", "case1")})
    with pytest.raises(ConfigError):
        ExperimentSpec(**{**good, "horizons_hours": ()})
    with pytest.raises(ConfigError):
        ExperimentSpec(**{**good, "horizons_hours": (3,)})
    with pytest.raises(ConfigError):
        ExperimentSpec(**{**good, "horizons_hours": (1, 1)})
    with pytest.raises(ConfigError):
        ExperimentSpec(**{**good, "models": ()})
    with pytest.raises(ConfigError):
        ExperimentSpec(**{**good, "models": ("arima",)})
    with pytest.raises(ConfigError):
        ExperimentSpec(**{**good, "models": ("pm", "pm")})
    with pytest.raises(ConfigError):
        ExperimentSpec(**good, runs_per_model=0)
    with pytest.raises(ConfigError):
        ExperimentSpec(**good, master_seed=-1)


def test_spec_normalizes_case_aliases():
    spec = ExperimentSpec(cases=("1", "Case2"), horizons_hours=(1,), models=("pm",))
    assert spec.cases == ("case1", "case2")


def test_spec_dict_round_trip():
    spec = ExperimentSpec(
        cases=("case1", "case3"),
        horizons_hours=(1, 6),
        models=("pm", "lr"),
        dataset={"family": "seasonal", "length": 256, "seed": 9},
        runs_per_model=4,
        master_seed=11,
        fine_tune=False,
    )
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


def test_spec_from_dict_guards():
    base = {"cases": ["case1"], "horizons_hours": [1], "models": ["pm"]}
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict({**base, "surprise": 1})
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict({"horizons_hours": [1], "models": ["pm"]})


@pytest.mark.parametrize("name,value", [
    ("fine_tune", "false"), ("fine_tune", 0), ("runs_per_model", 2.9), ("runs_per_model", True),
    ("runs_per_model", "3"), ("master_seed", 1.0), ("master_seed", False),
])
def test_spec_scalars_are_validated_not_coerced(name, value):
    base = {"cases": ["case1"], "horizons_hours": [1], "models": ["pm"]}
    with pytest.raises(ConfigError, match=name):
        ExperimentSpec.from_dict({**base, name: value})
    with pytest.raises(ConfigError, match=name):
        ExperimentSpec(cases=("case1",), horizons_hours=(1,), models=("pm",), **{name: value})


def test_spec_accepts_numpy_integers():
    spec = ExperimentSpec(cases=("case1",), horizons_hours=[np.int64(1), np.int32(24)], models=("pm",),
                          runs_per_model=np.int64(2), master_seed=np.uint8(7))
    assert (spec.runs_per_model, spec.master_seed) == (2, 7)
    assert spec.horizons_hours == (1, 24) and all(type(h) is int for h in spec.horizons_hours)


@pytest.mark.parametrize("name,value", [
    ("horizons_hours", [4.7]), ("horizons_hours", ["6"]), ("horizons_hours", [True]),
    ("horizons_hours", "16"), ("horizons_hours", 24), ("cases", 1), ("cases", "case1"),
    ("models", "pm"),
])
def test_spec_lists_are_validated_not_coerced(name, value):
    base = {"cases": ["case1"], "horizons_hours": [1], "models": ["pm"]}
    with pytest.raises(ConfigError, match=name):
        ExperimentSpec.from_dict({**base, name: value})


def test_load_spec_reads_json(tmp_path):
    payload = {
        "cases": ["case1"],
        "horizons_hours": [1, 4],
        "models": ["pm", "lr"],
        "runs_per_model": 2,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    spec = load_spec(str(path))
    assert spec.models == ("pm", "lr")
    assert spec.runs_per_model == 2


def test_load_spec_skips_a_byte_order_mark(tmp_path):
    """A spec saved with a UTF-8 byte-order mark once failed as 'Unexpected UTF-8 BOM'."""
    payload = {"cases": ["case1"], "horizons_hours": [1], "models": ["pm"]}
    path = tmp_path / "spec.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(payload).encode("utf-8"))
    assert load_spec(str(path)).cases == ("case1",)
    write_json(str(path), payload)
    assert path.read_bytes().startswith(b"{")  # no mark is written
    assert read_json(str(path)) == payload


def test_resolve_dataset_forms(tmp_path):
    series = seasonal_series(length=80, seed=1)
    csv_path = tmp_path / "series.csv"
    write_csv(series, str(csv_path))
    from_csv = resolve_dataset(
        ExperimentSpec(cases=("case1",), horizons_hours=(1,), models=("pm",), dataset=str(csv_path))
    )
    np.testing.assert_allclose(from_csv.values, series.values, rtol=0)

    recipe = {"family": "seasonal", "length": 80, "period": 24, "noise_std": 0.05, "seed": 1}
    from_recipe = resolve_dataset(
        ExperimentSpec(cases=("case1",), horizons_hours=(1,), models=("pm",), dataset=recipe)
    )
    np.testing.assert_allclose(from_recipe.values, series.values, rtol=0)

    with pytest.raises(ConfigError):
        resolve_dataset(ExperimentSpec(cases=("case1",), horizons_hours=(1,), models=("pm",)))
    with pytest.raises(ConfigError):
        resolve_dataset(
            ExperimentSpec(
                cases=("case1",), horizons_hours=(1,), models=("pm",),
                dataset={"family": "seasonal", "length": 80, "volume": 11},
            )
        )


def test_derive_run_seed_is_deterministic_and_collision_free():
    assert derive_run_seed(0, "pm", "case1", 0) == derive_run_seed(0, "pm", "case1", 0)
    seen = set()
    for model in ("tsfm", "pm", "lr"):
        for case in ("case1", "case2"):
            for run in range(10):
                seen.add(derive_run_seed(7, model, case, run))
    assert len(seen) == 60
    assert all(0 <= s < 2**32 for s in seen)


def test_score_horizon_alignment_and_guard():
    preds = np.arange(12.0).reshape(4, 3)
    norm_test = np.array([10.0, 11.0, 12.0, 13.0])
    actual, forecast = score_horizon(preds, norm_test, 2)
    np.testing.assert_allclose(actual, [11.0, 12.0, 13.0], rtol=0)
    np.testing.assert_allclose(forecast, [1.0, 4.0, 7.0], rtol=0)
    with pytest.raises(InsufficientDataError):
        score_horizon(preds, norm_test, 5)


def test_roll_forecasts_recursion_feeds_predictions_back():
    series = seasonal_series(length=100, seed=2)
    split = split_case(series, "case1")
    normalizer = fit_normalizer(split.train)
    full_norm = normalizer.apply(series.values)
    window = 24
    preds = roll_forecasts(DoublingStub(window), series, 72, 3, normalizer)
    assert preds.shape == (28, 3)
    for origin in range(28):
        newest = full_norm[71 + origin]
        np.testing.assert_allclose(
            preds[origin], [2.0 * newest, 4.0 * newest, 8.0 * newest], rtol=1e-12
        )


def test_persistence_metrics_match_hand_rolled_values():
    series = seasonal_series(length=100, seed=3)
    normalizer = fit_normalizer(split_case(series, "case1").train)
    full_norm = normalizer.apply(series.values)
    report = run_experiment(pm_spec(horizons=(1, 4)), series=series)
    assert not report.errors
    for h in (1, 4):
        triple = report.get("pm", "case1", h)
        expected = rmse(full_norm[71 + h : 100], full_norm[71 : 100 - h])
        np.testing.assert_allclose(triple.rmse, expected, rtol=1e-12)


def test_deterministic_models_have_zero_run_variance():
    series = seasonal_series(length=110, seed=4)
    spec_one = ExperimentSpec(
        cases=("case1",), horizons_hours=(1, 6), models=("pm", "lr", "rt"), runs_per_model=1
    )
    spec_many = ExperimentSpec(
        cases=("case1",), horizons_hours=(1, 6), models=("pm", "lr", "rt"), runs_per_model=3
    )
    once = run_experiment(spec_one, series=series)
    many = run_experiment(spec_many, series=series)
    assert once.entries.keys() == many.entries.keys()
    for key, triple in once.entries.items():
        np.testing.assert_allclose(triple.rmse, many.entries[key].rmse, rtol=1e-12)
        np.testing.assert_allclose(triple.mape, many.entries[key].mape, rtol=1e-12)


def test_short_test_slice_errors_only_the_unreachable_horizon():
    series = seasonal_series(length=75, seed=5)  # case1 leaves a 3-point test slice
    report = run_experiment(pm_spec(horizons=(1, 4)), series=series)
    assert ("pm", "case1", 1) in report.entries
    assert ("pm", "case1", 4) in report.errors
    assert "InsufficientDataError" in report.errors[("pm", "case1", 4)]


def zero_actual_series(length=100, train_len=72, at=80):
    """Seasonal series whose held-out value at `at` equals the minimum of the
    first train_len values, so it normalizes to exactly 0 and its MAPE is
    undefined."""
    series = seasonal_series(length=length, seed=3)
    values = series.values.copy()
    values[at] = values[:train_len].min()
    return series.with_values(values)


def test_zero_actual_loses_only_the_mape_of_its_cells(tmp_path):
    series = zero_actual_series()
    full_norm = fit_normalizer(split_case(series, "case1").train).apply(series.values)
    report = run_experiment(pm_spec(horizons=(1, 4)), series=series)
    assert not report.errors
    for h in (1, 4):
        triple = report.get("pm", "case1", h)
        assert triple.mape is None
        assert triple.rmse == rmse(full_norm[71 + h : 100], full_norm[71 : 100 - h])
    report.entries[("lr", "case1", 1)] = MetricTriple(rmse=0.05, mae=0.04, mape=0.02)
    table = compare_models(report, "lr")
    assert table[("pm", "case1", 1)]["mape"] is None
    assert table[("pm", "case1", 1)]["rmse"] is not None
    emit_report(report, str(tmp_path))
    assert load_report(str(tmp_path)).entries == report.entries
    assert json.loads((tmp_path / "report.json").read_text())["entries"]["pm|case1|1"]["mape"] is None
    csv_lines = (tmp_path / "metrics_case1.csv").read_text().splitlines()
    rows = {line.split(",")[0]: line.split(",") for line in csv_lines}
    one = report.get("pm", "case1", 1)
    assert rows["pm"][1:4] == [f"{one.rmse:.6f}", f"{one.mae:.6f}", "ERR"]
    assert rows["pm"][6] == "ERR"
    assert rows["lr"][1:] == ["0.050000", "0.040000", "2.000000", "", "", ""]
    tables = (tmp_path / "tables.txt").read_text()
    assert tables.count("ERR") == 2
    assert "errored cells: 0" in tables


def test_select_model_survives_a_missing_mape():
    series = zero_actual_series(length=64, train_len=48, at=60)
    verdict = select_model(series, ("lr", "pm"), criterion="mape", seed=0)
    assert verdict.validation_scores["lr"].mape is None
    assert verdict.validation_scores["lr"].rmse > 0
    assert verdict.chosen_model == "pm"  # every MAPE is missing: MODEL_ORDER decides


def test_fit_failure_marks_every_horizon_of_the_cell(monkeypatch):
    series = seasonal_series(length=100, seed=6)

    def explode(model_id, train, seed, **kwargs):
        raise RuntimeError("fit went sideways")

    monkeypatch.setattr(harness, "fit_case_model", explode)
    report = harness.run_experiment(pm_spec(horizons=(1, 4), runs=3), series=series)
    assert not report.entries
    assert set(report.errors) == {("pm", "case1", 1), ("pm", "case1", 4)}
    assert "RuntimeError" in report.errors[("pm", "case1", 1)]


def test_fit_failure_in_a_later_run_keeps_an_earlier_scoring_error(monkeypatch):
    series = seasonal_series(length=75, seed=6)  # 3 test points: the 4 h cell cannot score
    real, calls = harness.fit_case_model, []

    def fail_run_one(model_id, train, seed, **kwargs):
        calls.append(seed)
        if len(calls) == 2:
            raise RuntimeError("run 1 fit failed")
        return real(model_id, train, seed, **kwargs)

    monkeypatch.setattr(harness, "fit_case_model", fail_run_one)
    sink: dict = {}
    report = harness.run_experiment(pm_spec(horizons=(1, 4), runs=3), series=series, trajectory_sink=sink)
    assert len(calls) == 2  # the fit failure ends the cell's runs
    assert not report.entries
    assert report.errors[("pm", "case1", 4)].startswith("InsufficientDataError: test slice of 3 points")
    assert report.errors[("pm", "case1", 1)] == "RuntimeError: run 1 fit failed"
    np.testing.assert_allclose(sink[("pm", "case1")], np.full(4, series.values[71]), rtol=1e-12)


def test_case_split_failure_errors_all_models_of_the_case():
    series = seasonal_series(length=100, seed=7)
    spec = ExperimentSpec(
        cases=("case1", "case2"), horizons_hours=(1,), models=("pm", "lr"), runs_per_model=1
    )
    report = run_experiment(spec, series=series)  # case2 needs 120 train points
    assert ("pm", "case1", 1) in report.entries
    assert ("lr", "case1", 1) in report.entries
    assert ("pm", "case2", 1) in report.errors
    assert ("lr", "case2", 1) in report.errors


def test_run_experiment_passes_only_the_training_slice_to_fits(monkeypatch):
    series = seasonal_series(length=110, seed=8)
    seen = []
    real = harness.fit_case_model

    def spy(model_id, train, seed, **kwargs):
        seen.append((model_id, np.array(train.values)))
        return real(model_id, train, seed, **kwargs)

    monkeypatch.setattr(harness, "fit_case_model", spy)
    spec = ExperimentSpec(
        cases=("case1",), horizons_hours=(1,), models=("pm", "lr"), runs_per_model=2
    )
    harness.run_experiment(spec, series=series)
    assert len(seen) == 4
    for _, train_values in seen:
        assert train_values.shape == (72,)
        np.testing.assert_array_equal(train_values, series.values[:72])


def test_poisoned_test_region_cannot_change_fitted_forecasts():
    base = seasonal_series(length=110, seed=9)
    rng = np.random.default_rng(99)
    poisoned_values = base.values.copy()
    poisoned_values[72:] = rng.uniform(0.0, 5.0, size=len(base) - 72)
    poisoned = base.with_values(poisoned_values)
    spec = ExperimentSpec(
        cases=("case1",), horizons_hours=(1, 4), models=("pm", "lr"), runs_per_model=1
    )
    clean_sink: dict = {}
    poisoned_sink: dict = {}
    run_experiment(spec, series=base, trajectory_sink=clean_sink)
    run_experiment(spec, series=poisoned, trajectory_sink=poisoned_sink)
    for key, trajectory in clean_sink.items():
        np.testing.assert_allclose(trajectory, poisoned_sink[key], rtol=1e-12)


def test_trajectory_sink_records_first_origin_persistence_forecast():
    series = seasonal_series(length=100, seed=10)
    sink: dict = {}
    run_experiment(pm_spec(horizons=(1, 4)), series=series, trajectory_sink=sink)
    trajectory = sink[("pm", "case1")]
    np.testing.assert_allclose(trajectory, np.full(4, series.values[71]), rtol=1e-12)


@pytest.fixture(scope="module")
def tiny_artifact(tmp_path_factory):
    """A TINY_TSFM transformer pretrained for one epoch, saved as an artifact."""
    corpus = [seasonal_series(length=96, seed=30 + i) for i in range(3)]
    model = TransformerForecaster(TINY_TSFM, init_seed=0)
    model.pretrain(corpus, epochs=1, seed=0, batch_size=32)
    path = str(tmp_path_factory.mktemp("tiny") / "tiny.bin")
    model.save(path)
    return path


def tsfm_fitted_directly(artifact, train, fine_tune, seed):
    """The tsfm model fit_case_model should build, written out step by step."""
    model = TransformerForecaster.load(artifact).clone()
    if fine_tune:
        model.fine_tune(train, seed=seed)
    else:
        model.set_normalizer(fit_normalizer(train))
    return model


@pytest.fixture(scope="module")
def sweep_models(tiny_artifact):
    """A 30-origin case1 series and every model id fit on its training
    slice, the trained ones briefly (tsfm zero-shot)."""
    series = seasonal_series(length=72 + 30, seed=33)
    train = split_case(series, "case1").train
    base = TransformerForecaster.load(tiny_artifact)
    quick = {"gbt": {"estimators": 5, "min_child_samples": 2}, "mlp": {"epochs": 1}, "lstm": {"epochs": 1}}
    models = {
        model_id: harness.fit_case_model(model_id, train, 4, base_transformer=base, fine_tune=False,
                                         hyperparams=quick.get(model_id))
        for model_id in MODEL_ORDER
    }
    return series, fit_normalizer(train), models


@pytest.mark.parametrize("model_id", MODEL_ORDER)
def test_roll_forecasts_rejects_a_horizon_below_one(sweep_models, model_id):
    series, normalizer, models = sweep_models
    for h_max in (0, -1):
        with pytest.raises(ConfigError, match="h_max"):
            roll_forecasts(models[model_id], series, 72, h_max, normalizer)


@pytest.mark.parametrize("model_id", MODEL_ORDER)
def test_roll_forecasts_never_reads_past_an_origin(sweep_models, model_id):
    """Rows 0..o stay exactly as they were whatever happens from index
    train_len + o on: no later actual reaches an earlier origin, also in the
    sweeps that read the whole test slice at once (tsfm, lstm)."""
    series, normalizer, models = sweep_models
    model = models[model_id]
    clean = roll_forecasts(model, series, 72, 24, normalizer)
    rng = np.random.default_rng(5)
    for origin in (0, 1, 13, 29):
        values = series.values.copy()
        values[72 + origin :] += rng.uniform(-3.0, 3.0, size=len(values) - 72 - origin)
        perturbed = roll_forecasts(model, series.with_values(values), 72, 24, normalizer)
        np.testing.assert_array_equal(perturbed[: origin + 1], clean[: origin + 1])
        if origin < 29:  # the perturbation does reach the later rows
            assert not np.array_equal(perturbed[origin + 1 :], clean[origin + 1 :])


def test_transformer_roll_is_one_batch_of_raw_contexts(sweep_models):
    series, normalizer, models = sweep_models
    tsfm = models["tsfm"]
    width = tsfm.config.context_length
    contexts = np.stack([series.values[72 + o - width : 72 + o] for o in range(len(series) - 72)])
    expected = normalizer.apply(tsfm.forecast_batch(contexts, 5))
    np.testing.assert_array_equal(roll_forecasts(tsfm, series, 72, 5, normalizer), expected)


def test_roll_forecasts_sweeps_in_bounded_origin_blocks(tiny_artifact, monkeypatch):
    """A 600-origin sweep reaches no kernel in batches over ROLL_ROWS + 1
    rows; the LSTM's prefix pass adds up to h_max - 1 starts to its block."""
    series = seasonal_series(length=72 + 600, seed=34)
    train = split_case(series, "case1").train
    normalizer = fit_normalizer(train)
    base = TransformerForecaster.load(tiny_artifact)
    models = {model_id: harness.fit_case_model(model_id, train, 4, base_transformer=base, fine_tune=False,
                                               hyperparams={"epochs": 1} if model_id == "lstm" else None)
              for model_id in ("tsfm", "lstm")}
    batches = {"tsfm": [], "lstm": []}
    forecast_batch, recurrence = TransformerForecaster.forecast_batch, ad.lstm_recurrence

    def spy_forecast_batch(self, histories, horizon_hours):
        batches["tsfm"].append(len(histories))
        return forecast_batch(self, histories, horizon_hours)

    def spy_recurrence(projected, *args, **kwargs):
        batches["lstm"].append(projected.shape[1])
        return recurrence(projected, *args, **kwargs)

    monkeypatch.setattr(TransformerForecaster, "forecast_batch", spy_forecast_batch)
    monkeypatch.setattr(ad, "lstm_recurrence", spy_recurrence)
    for model in models.values():
        assert roll_forecasts(model, series, 72, 24, normalizer).shape == (600, 24)
    assert harness.ROLL_ROWS % 8 == 0
    assert sum(batches["tsfm"]) == 600 and max(batches["tsfm"]) <= harness.ROLL_ROWS + 1
    assert batches["lstm"] and max(batches["lstm"]) <= harness.ROLL_ROWS + 1 + 24 - 1


@pytest.mark.parametrize("fine_tune", [True, False])
def test_run_experiment_scores_the_transformer(tiny_artifact, fine_tune):
    series = seasonal_series(length=100, seed=31)
    spec = ExperimentSpec(
        cases=("case1",), horizons_hours=(1, 4), models=("tsfm", "pm"), runs_per_model=2,
        fine_tune=fine_tune, pretrained_artifact=tiny_artifact,
    )
    sink: dict = {}
    report = run_experiment(spec, series=series, trajectory_sink=sink)
    assert not report.errors
    for h in (1, 4):
        triple = report.get("tsfm", "case1", h)
        assert np.isfinite([triple.rmse, triple.mae, triple.mape]).all()

    train = split_case(series, "case1").train
    normalizer = fit_normalizer(train)
    model = tsfm_fitted_directly(tiny_artifact, train, fine_tune, derive_run_seed(0, "tsfm", "case1", 0))
    preds = roll_forecasts(model, series, len(train), 4, normalizer)
    np.testing.assert_array_equal(sink[("tsfm", "case1")], normalizer.invert(preds[0]))


@pytest.mark.parametrize("fine_tune", [True, False])
def test_select_model_scores_the_transformer(tiny_artifact, fine_tune):
    series = seasonal_series(length=100, seed=32)
    verdict = select_model(
        series, ("tsfm", "pm", "lr"), seed=3, pretrained_artifact=tiny_artifact, fine_tune=fine_tune
    )
    assert set(verdict.validation_scores) == {"tsfm", "pm", "lr"}
    head = series.slice(0, 75)  # the default validation fraction holds out the last 25 points
    normalizer = fit_normalizer(head)
    model = tsfm_fitted_directly(tiny_artifact, head, fine_tune, 3)
    preds = roll_forecasts(model, series, 75, 1, normalizer)
    expected = MetricTriple.from_arrays(*score_horizon(preds, normalizer.apply(series.values[75:]), 1))
    assert verdict.validation_scores["tsfm"] == expected


def test_compare_models_fixture_and_edge_cases():
    entries = {
        ("tsfm", "case1", 1): MetricTriple(rmse=0.033, mae=0.02, mape=0.01),
        ("pm", "case1", 1): MetricTriple(rmse=0.051, mae=0.04, mape=0.02),
        ("lr", "case1", 1): MetricTriple(rmse=0.0, mae=0.0, mape=0.0),
    }
    report = MetricReport(entries=entries, run_count=1)
    report.errors[("gbt", "case1", 1)] = "RuntimeError: died"
    table = compare_models(report, "tsfm")
    np.testing.assert_allclose(table[("pm", "case1", 1)]["rmse"], 35.294117647, atol=1e-6)
    assert table[("tsfm", "case1", 1)]["rmse"] == 0.0
    assert table[("lr", "case1", 1)]["rmse"] is None  # zero peer error
    assert table[("gbt", "case1", 1)]["rmse"] is None  # errored cell
    with pytest.raises(ConfigError):
        compare_models(report, "mlp")


def test_compare_models_missing_reference_cell_is_none():
    entries = {
        ("tsfm", "case1", 1): MetricTriple(rmse=0.033, mae=0.02, mape=0.01),
        ("pm", "case2", 1): MetricTriple(rmse=0.051, mae=0.04, mape=0.02),
    }
    report = MetricReport(entries=entries, run_count=1)
    table = compare_models(report, "tsfm")
    assert table[("pm", "case2", 1)]["rmse"] is None


def test_select_model_prefers_lower_validation_error():
    values = np.linspace(10.0, 30.0, 64)
    series = seasonal_series(length=64, seed=11).with_values(values)
    verdict = select_model(series, ("pm", "lr"), criterion="rmse", seed=0)
    assert verdict.chosen_model == "lr"
    assert verdict.validation_scores["lr"].rmse < verdict.validation_scores["pm"].rmse
    assert set(verdict.validation_scores) == {"pm", "lr"}


def test_select_model_breaks_ties_by_model_order(monkeypatch):
    series = seasonal_series(length=64, seed=12)
    monkeypatch.setattr(harness, "fit_case_model", lambda *a, **k: FlatStub(0.5))
    verdict = harness.select_model(series, ("lr", "pm"), criterion="rmse", seed=0)
    assert verdict.chosen_model == "pm"
    assert (
        verdict.validation_scores["pm"].rmse == verdict.validation_scores["lr"].rmse
    )


def test_select_model_guards():
    series = seasonal_series(length=64, seed=13)
    with pytest.raises(ConfigError):
        select_model(series, ())
    with pytest.raises(ConfigError):
        select_model(series, ("arima",))
    with pytest.raises(ConfigError, match="repeated model ids"):
        select_model(series, ("lr", "pm", "lr"))  # a spec with the same repeat is rejected too
    with pytest.raises(ConfigError):
        select_model(series, ("pm",), criterion="r2")
    with pytest.raises(ConfigError):
        select_model(series, ("pm",), validation_fraction=0.6)
    with pytest.raises(ConfigError):
        select_model(series, ("tsfm",))  # no artifact named
    with pytest.raises(InsufficientDataError):
        select_model(seasonal_series(length=64, seed=13).slice(0, 8), ("pm",))


def test_emit_report_writes_deterministic_artifacts(tmp_path):
    series = seasonal_series(length=75, seed=14)  # 3-point test errors 4h cells
    report = run_experiment(pm_spec(horizons=(1, 4)), series=series)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    paths_a = emit_report(report, str(dir_a))
    emit_report(report, str(dir_b))
    names = [p.rsplit("/", 1)[-1] for p in paths_a]
    assert names == ["report.json", "metrics_case1.csv", "tables.txt"]
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    tables = (dir_a / "tables.txt").read_text()
    assert "ERR" in tables
    assert "errored cells: 1" in tables
    csv_text = (dir_a / "metrics_case1.csv").read_text()
    assert csv_text.splitlines()[0].startswith("model,rmse_1h,mae_1h,mape_pct_1h")
    assert "ERR" in csv_text


def test_report_round_trip_through_disk(tmp_path):
    series = seasonal_series(length=100, seed=15)
    report = run_experiment(pm_spec(horizons=(1, 4), runs=2), series=series)
    emit_report(report, str(tmp_path))
    loaded = load_report(str(tmp_path))
    assert loaded.run_count == report.run_count
    assert loaded.entries.keys() == report.entries.keys()
    for key, triple in report.entries.items():
        np.testing.assert_allclose(loaded.entries[key].rmse, triple.rmse, rtol=1e-12)
    assert loaded.errors == report.errors


def test_empty_report_rendering_raises():
    with pytest.raises(DataError):
        emit_report(MetricReport(entries={}, run_count=1), "unused")


def test_render_comparison_contains_fixture_percentages():
    entries = {
        ("tsfm", "case1", 1): MetricTriple(rmse=0.033, mae=0.033, mape=0.033),
        ("pm", "case1", 1): MetricTriple(rmse=0.051, mae=0.051, mape=0.051),
    }
    report = MetricReport(entries=entries, run_count=1)
    text = render_comparison(compare_models(report, "tsfm"), "tsfm")
    assert "+35.29" in text
    assert "pm" in text


def test_unknown_model_ids_follow_the_fixed_order_by_name():
    triple = MetricTriple(rmse=0.1, mae=0.1, mape=0.1)
    report = MetricReport(entries={
        (m, c, 1): triple for c in ("case2", "case1") for m in ("zeta", "pm", "alpha", "tsfm")
    })
    expected = ["tsfm", "pm", "alpha", "zeta"]
    csv_rows = render_case_csv(report, "case1").splitlines()[1:]
    assert [row.split(",")[0] for row in csv_rows] == expected
    table_rows = [row for row in render_text_table(report).splitlines() if " | 0.1" in row]
    assert [row.split()[0] for row in table_rows] == expected * 2
    lines = render_comparison(compare_models(report, "tsfm"), "tsfm").splitlines()[3:]
    assert [(line.split()[1], line.split()[0]) for line in lines] == (
        [("case1", m) for m in expected] + [("case2", m) for m in expected]
    )


def test_forecast_payload_round_trip(tmp_path):
    series = seasonal_series(length=100, seed=16)
    sink: dict = {}
    run_experiment(pm_spec(horizons=(1, 4)), series=series, trajectory_sink=sink)
    path = tmp_path / "forecasts.json"
    write_forecasts(sink, series, str(path))
    payload = read_json(str(path))
    assert "case1" in payload
    block = payload["case1"]
    np.testing.assert_allclose(block["forecasts"]["pm"], sink[("pm", "case1")], rtol=1e-12)
    np.testing.assert_allclose(block["actual"], series.values[72:76], rtol=1e-12)


def test_emit_plot_produces_standalone_svg(tmp_path):
    actual = [1.0, 2.0, 1.5, 1.8]
    forecasts = {"pm": [1.1, 1.9, 1.6, 1.7], "lr": [0.9, 2.1, 1.4, 1.9]}
    path = tmp_path / "plot.svg"
    emit_plot(actual, forecasts, str(path), title="demo")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 3
    assert "demo" in text


def test_emit_plot_escapes_title_and_model_names(tmp_path):
    path = tmp_path / "plot.svg"
    emit_plot([1.0, 2.0, 1.5], {"lr & rt": [1.1, 1.9, 1.4]}, str(path), title="tsfm <case1>")
    root = ET.parse(path).getroot()
    texts = [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts[0] == "tsfm <case1>"
    assert texts[-2:] == ["actual", "lr & rt"]


def test_emit_plot_guards(tmp_path):
    with pytest.raises(ShapeError):
        emit_plot([1.0, 2.0], {"pm": [1.0]}, str(tmp_path / "x.svg"))
    path = tmp_path / "bare.svg"
    emit_plot([1.0, 2.0, 3.0], {}, str(path))
    assert path.read_text().count("<polyline") == 1


def write_run_artifacts(tmp_path, length=100, horizons=(1, 4)):
    spec_payload = {
        "cases": ["case1"],
        "horizons_hours": list(horizons),
        "models": ["pm"],
        "runs_per_model": 1,
        "dataset": {
            "family": "seasonal",
            "length": length,
            "period": 24,
            "noise_std": 0.05,
            "seed": 21,
        },
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_payload))
    out_dir = tmp_path / "report"
    return spec_path, out_dir


def test_cli_run_compare_plot_flow(tmp_path, capsys):
    spec_path, out_dir = write_run_artifacts(tmp_path)
    code = cli_main(["run", "--spec", str(spec_path), "--out", str(out_dir)])
    assert code == 0
    for name in ("report.json", "metrics_case1.csv", "tables.txt", "forecasts.json"):
        assert (out_dir / name).exists()
    capsys.readouterr()

    assert cli_main(["compare", "--report", str(out_dir), "--reference", "pm"]) == 0
    out = capsys.readouterr().out
    assert "pm" in out

    plot_path = tmp_path / "plot.svg"
    code = cli_main(
        ["plot", "--report", str(out_dir), "--cell", "pm:case1:4h", "--out", str(plot_path)]
    )
    assert code == 0
    assert plot_path.read_text().startswith("<svg")


def test_cli_run_reports_errored_cells_with_exit_two(tmp_path, capsys):
    spec_path, out_dir = write_run_artifacts(tmp_path, length=75)
    code = cli_main(["run", "--spec", str(spec_path), "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert "errored cells: 1" in captured.err
    assert (out_dir / "report.json").exists()


def test_cli_select_prints_verdict(tmp_path, capsys):
    series = seasonal_series(length=64, seed=22)
    csv_path = tmp_path / "history.csv"
    write_csv(series, str(csv_path))
    code = cli_main(["select", "--data", str(csv_path), "--candidates", "pm,lr"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("chosen: ")
    assert "rmse" in out


def test_cli_select_reports_a_csv_that_is_not_utf8_as_one_error_line(tmp_path, capsys):
    csv_path = tmp_path / "history.csv"
    write_csv(seasonal_series(length=64, seed=22), str(csv_path))
    csv_path.write_bytes(csv_path.read_bytes().replace(b"load", b"lo\xffad", 1))
    code = cli_main(["select", "--data", str(csv_path), "--candidates", "pm,lr"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("loadcast: error: ") and err.count("\n") == 1 and "history.csv" in err


def test_cli_select_zero_shot_transformer(tmp_path, capsys, tiny_artifact):
    csv_path = tmp_path / "history.csv"
    write_csv(seasonal_series(length=100, seed=33), str(csv_path))
    argv = ["select", "--data", str(csv_path), "--candidates", "tsfm,pm", "--artifact", tiny_artifact]
    assert cli_main(argv + ["--zero-shot"]) == 0
    zero_shot = capsys.readouterr().out
    assert cli_main(argv) == 0
    fine_tuned = capsys.readouterr().out
    assert "tsfm" in zero_shot and zero_shot.count("rmse") == 2
    assert zero_shot != fine_tuned  # the flag reaches select_model


def test_cli_run_data_override_and_verbose_progress(tmp_path, capsys):
    spec_path, out_dir = write_run_artifacts(tmp_path, horizons=(1,))
    payload = json.loads(spec_path.read_text())
    missing = str(tmp_path / "missing.csv")  # --data must win over the spec's dataset
    spec_path.write_text(json.dumps({**payload, "runs_per_model": 2, "dataset": missing}))
    csv_path = tmp_path / "series.csv"
    series = seasonal_series(length=100, seed=34)
    write_csv(series, str(csv_path))
    argv = ["run", "--spec", str(spec_path), "--data", str(csv_path), "--out", str(out_dir), "--verbose"]
    assert cli_main(argv) == 0
    assert capsys.readouterr().err.splitlines() == ["  pm case1 run 1/2", "  pm case1 run 2/2"]
    expected = run_experiment(ExperimentSpec(cases=("case1",), horizons_hours=(1,), models=("pm",),
                                             runs_per_model=2), series=series)
    assert load_report(str(out_dir)).get("pm", "case1", 1) == expected.get("pm", "case1", 1)


def test_cli_select_prints_err_for_a_missing_mape(tmp_path, capsys):
    csv_path = tmp_path / "history.csv"
    write_csv(zero_actual_series(length=64, train_len=48, at=60), str(csv_path))
    code = cli_main(["select", "--data", str(csv_path), "--candidates", "pm,lr"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("mape ERR") == 2


def test_cli_fatal_errors_exit_one(tmp_path, capsys):
    assert cli_main(["run", "--spec", str(tmp_path / "missing.json")]) == 1
    assert "error" in capsys.readouterr().err
    scalar_spec = tmp_path / "scalar.json"  # a spec error, not a traceback
    scalar_spec.write_text(json.dumps({"cases": ["case1"], "horizons_hours": 24, "models": ["pm"]}))
    assert cli_main(["run", "--spec", str(scalar_spec)]) == 1
    assert "loadcast: error: horizons_hours must be a list" in capsys.readouterr().err

    spec_path, out_dir = write_run_artifacts(tmp_path)
    cli_main(["run", "--spec", str(spec_path), "--out", str(out_dir)])
    capsys.readouterr()
    assert cli_main(["plot", "--report", str(out_dir), "--cell", "pm:case1"]) == 1
    assert cli_main(["plot", "--report", str(out_dir), "--cell", "pm:case9:1h"]) == 1
    capsys.readouterr()


def test_cli_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        cli_main(["bogus-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli_main(["run"])  # --spec is required
    assert exc.value.code == 1


def test_cli_pretrain_writes_artifact(tmp_path, capsys):
    out = tmp_path / "model.bin"
    code = cli_main(
        [
            "pretrain",
            "--out", str(out),
            "--series-count", "3",
            "--series-length", "64",
            "--epochs", "1",
            "--batch-size", "64",
        ]
    )
    assert code == 0
    assert out.exists()
    assert (tmp_path / "model.bin.json").exists()
    assert "state hash" in capsys.readouterr().out


@pytest.mark.parametrize("batch, epochs", [("0", "1"), ("-5", "1"), ("64", "-1")])
def test_cli_pretrain_rejects_bad_batch_and_epochs(tmp_path, capsys, batch, epochs):
    """A batch below 1 once crashed or trained nothing; negative epochs wrote an untrained artifact."""
    out = tmp_path / "model.bin"
    code = cli_main(
        ["pretrain", "--out", str(out), "--series-count", "3", "--series-length", "64",
         "--epochs", epochs, "--batch-size", batch]
    )
    assert code == 1
    assert "loadcast: error: training needs batch >= 1 and epochs >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_rejects_a_non_string_pretrained_artifact(tmp_path, capsys):
    spec_path, out_dir = write_run_artifacts(tmp_path)
    payload = json.loads(spec_path.read_text())
    spec_path.write_text(json.dumps({**payload, "models": ["tsfm"], "pretrained_artifact": 5}))
    assert cli_main(["run", "--spec", str(spec_path), "--out", str(out_dir)]) == 1
    assert "loadcast: error: pretrained_artifact must be a path string, got 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, message",
    [("seed", -1, "seed must be >= 0"), ("seed", 1.5, "seed must be an integer"),
     ("length", 100.5, "length must be an integer"), ("period", 24.0, "period must be an integer"),
     ("length", True, "length must be an integer"), ("trend_slope", "x", "trend_slope must be a number"),
     ("noise_std", True, "noise_std must be a number"),
     ("outlier_rate", "0.01", "outlier_rate must be a number")],
)
def test_cli_run_rejects_non_integer_recipe_fields(tmp_path, capsys, field, value, message):
    """Integer fields must be integers and float fields real numbers; a bool is neither."""
    spec_path, out_dir = write_run_artifacts(tmp_path)
    payload = json.loads(spec_path.read_text())
    payload["dataset"][field] = value
    spec_path.write_text(json.dumps(payload))
    assert cli_main(["run", "--spec", str(spec_path), "--out", str(out_dir)]) == 1
    assert f"loadcast: error: {message}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_run_rejects_a_dataset_that_is_not_a_path_or_recipe(tmp_path, capsys):
    spec_path, out_dir = write_run_artifacts(tmp_path)
    payload = json.loads(spec_path.read_text())
    spec_path.write_text(json.dumps({**payload, "dataset": 5}))
    assert cli_main(["run", "--spec", str(spec_path), "--out", str(out_dir)]) == 1
    assert "loadcast: error: dataset must be a CSV path or a recipe object, got 5" in capsys.readouterr().err


def test_cli_select_rejects_repeated_candidates(tmp_path, capsys):
    csv_path = tmp_path / "history.csv"
    write_csv(seasonal_series(length=64, seed=22), str(csv_path))
    assert cli_main(["select", "--data", str(csv_path), "--candidates", "lr,lr"]) == 1
    assert "loadcast: error: repeated model ids in ['lr', 'lr']" in capsys.readouterr().err


MALFORMED_JSON = {"truncated": '{"cases": ["case1"', "scalar": "5", "list": '["case1"]'}


def write_malformed_artifacts(tmp_path, text):
    """A spec, report.json, forecasts.json and model sidecar that all hold `text`."""
    spec_path = tmp_path / "spec.json"
    report_dir = tmp_path / "report"
    report_dir.mkdir()
    weights = str(tmp_path / "model.bin")
    TransformerForecaster(TINY_TSFM, init_seed=0).save(weights)
    sidecar = tmp_path / "model.bin.json"
    for path in (spec_path, report_dir / "report.json", report_dir / "forecasts.json", sidecar):
        path.write_text(text)
    return spec_path, report_dir, weights


@pytest.mark.parametrize("kind", sorted(MALFORMED_JSON))
def test_json_readers_reject_malformed_files(tmp_path, kind):
    spec_path, report_dir, weights = write_malformed_artifacts(tmp_path, MALFORMED_JSON[kind])
    readers = (
        lambda: load_spec(str(spec_path)),
        lambda: load_report(str(report_dir)),
        lambda: read_json(str(report_dir / "forecasts.json")),
        lambda: TransformerForecaster.load(weights),
    )
    message = "not valid JSON" if kind == "truncated" else "expected a JSON object"
    for read in readers:
        with pytest.raises(DataError, match=message):
            read()


def tsfm_spec(tmp_path, weights):
    """A valid spec that runs tsfm from the artifact at `weights`."""
    spec_path = tmp_path / "good.json"
    spec_path.write_text(json.dumps({
        "cases": ["case1"], "horizons_hours": [1], "models": ["tsfm"],
        "dataset": {"family": "trend", "length": 100}, "pretrained_artifact": weights,
    }))
    return spec_path


@pytest.mark.parametrize("kind", sorted(MALFORMED_JSON))
def test_cli_reports_a_malformed_json_file_as_an_error(tmp_path, capsys, kind):
    spec_path, report_dir, weights = write_malformed_artifacts(tmp_path, MALFORMED_JSON[kind])
    commands = (
        ["run", "--spec", str(spec_path), "--out", str(tmp_path / "out")],
        ["compare", "--report", str(report_dir)],
        ["plot", "--report", str(report_dir), "--cell", "pm:case1:1h", "--out", str(tmp_path / "p.svg")],
        # the sidecar is malformed
        ["run", "--spec", str(tsfm_spec(tmp_path, weights)), "--out", str(tmp_path / "out")],
    )
    for argv in commands:
        assert cli_main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("loadcast: error: ") and "JSON" in err, (argv, err)


_SIDECAR = {"config": TINY_TSFM.to_dict(), "normalizer": None, "trained": "untrained",
            "pretrain_learning_rate": 0.001}
WRONG_SHAPE_JSON = {
    "sidecar_empty": ("sidecar", {}, "model state lacks config, normalizer, trained"),
    "sidecar_config_list": ("sidecar", {**_SIDECAR, "config": []}, "model state needs a config object"),
    "sidecar_rate_text": ("sidecar", {**_SIDECAR, "pretrain_learning_rate": "fast"},
                          "a numeric pretrain_learning_rate"),
    "sidecar_config_key": ("sidecar", {**_SIDECAR, "config": {"width": 3}},
                           "malformed model state: TypeError"),
    "sidecar_normalizer": ("sidecar", {**_SIDECAR, "normalizer": {"min_value": 0.0}},
                           "malformed model state: KeyError"),
    "forecasts_int_case": ("forecasts", {"case1": 5}, "case 'case1' is not an object holding a 'forecasts' object"),
    "forecasts_list": ("forecasts", {"case1": {"forecasts": []}}, "is not an object holding a 'forecasts' object"),
    "forecasts_text": ("forecasts", {"case1": {"forecasts": {"pm": [1.0, "x"]}, "actual": [1.0, 2.0]}},
                       "pm on case1 needs 'actual' and forecast lists of numbers"),
    "forecasts_no_actual": ("forecasts", {"case1": {"forecasts": {"pm": [1.0]}}}, "lists of numbers"),
}


@pytest.mark.parametrize("kind", sorted(WRONG_SHAPE_JSON))
def test_cli_reports_a_json_object_of_the_wrong_shape_as_an_error(tmp_path, capsys, kind):
    """A well-formed JSON object of the wrong shape once ended in a KeyError
    (a sidecar holding {}) or a TypeError (forecasts.json holding {"case1": 5})."""
    artifact, payload, message = WRONG_SHAPE_JSON[kind]
    _, report_dir, weights = write_malformed_artifacts(tmp_path, json.dumps(payload))
    if artifact == "sidecar":
        argv = ["run", "--spec", str(tsfm_spec(tmp_path, weights)), "--out", str(tmp_path / "out")]
    else:
        argv = ["plot", "--report", str(report_dir), "--cell", "pm:case1:1h", "--out", str(tmp_path / "p.svg")]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("loadcast: error: ") and message in err, err


def test_every_exported_name_resolves():
    import loadcast
    import loadcast.nn

    for module in (loadcast, loadcast.nn):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names what it does not define: {missing}"


def _one_error_line(err):
    return err.startswith("loadcast: error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("value", [True, 24.0])
def test_cli_select_reports_a_sidecar_config_field_that_is_not_an_integer(tmp_path, capsys, value):
    """A sidecar with "context_length": true or 24.0 once ended in a TypeError traceback."""
    weights = str(tmp_path / "model.bin")
    TransformerForecaster(TINY_TSFM, init_seed=0).save(weights)
    sidecar = read_json(weights + ".json")
    sidecar["config"]["context_length"] = value
    write_json(weights + ".json", sidecar)
    csv_path = tmp_path / "history.csv"
    write_csv(seasonal_series(length=64, seed=23), str(csv_path))
    assert cli_main(["select", "--data", str(csv_path), "--candidates", "tsfm,pm", "--artifact", weights]) == 1
    err = capsys.readouterr().err
    assert _one_error_line(err) and "context_length must be an integer" in err, err


def test_cli_compare_reports_a_report_of_the_wrong_shape_in_one_line(tmp_path, capsys):
    report_dir = tmp_path / "report"
    report_dir.mkdir()
    (report_dir / "report.json").write_text(json.dumps({"entries": {"x": 5}}))
    assert cli_main(["compare", "--report", str(report_dir), "--reference", "tsfm"]) == 1
    err = capsys.readouterr().err
    assert _one_error_line(err) and "report entries key 'x'" in err, err
