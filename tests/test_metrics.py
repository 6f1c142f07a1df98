"""Tests for the error metrics, aggregation, and comparison arithmetic."""

import math

import numpy as np
import pytest

from loadcast.errors import DataError, DomainError, ShapeError
from loadcast.metrics import (
    MAPE_EPSILON,
    MetricReport,
    MetricTriple,
    aggregate_runs,
    mae,
    mape,
    percent_reduction,
    rmse,
)


def _loop_mae(a, f):
    return sum(abs(x - y) for x, y in zip(a, f)) / len(a)


def _loop_rmse(a, f):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, f)) / len(a))


def _loop_mape(a, f):
    return sum(abs((x - y) / x) for x, y in zip(a, f)) / len(a)


def test_metrics_match_loop_oracles():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        actual = rng.uniform(0.5, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        forecast = actual + rng.normal(0.0, 0.7, size=n)
        np.testing.assert_allclose(mae(actual, forecast), _loop_mae(actual, forecast), atol=1e-12)
        np.testing.assert_allclose(rmse(actual, forecast), _loop_rmse(actual, forecast), atol=1e-12)
        np.testing.assert_allclose(mape(actual, forecast), _loop_mape(actual, forecast), atol=1e-12)


def test_rmse_dominates_mae():
    """Quadratic mean of |errors| is at least their arithmetic mean."""
    for seed in range(30):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, 2.0, size=25)
        f = rng.normal(0.0, 2.0, size=25)
        assert rmse(a, f) >= mae(a, f) - 1e-15


def test_perfect_forecast_scores_zero():
    a = np.array([1.0, -2.0, 3.5])
    assert mae(a, a) == 0.0
    assert rmse(a, a) == 0.0
    assert mape(a, a) == 0.0


def test_metrics_reject_bad_shapes_and_values():
    with pytest.raises(ShapeError):
        mae([1.0, 2.0], [1.0])
    with pytest.raises(DataError):
        rmse([], [])
    with pytest.raises(DataError):
        mae([np.nan], [1.0])
    with pytest.raises(DataError):
        rmse([1.0], [np.inf])


def test_mape_guards_zero_actuals():
    with pytest.raises(DomainError):
        mape([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(DomainError):
        mape([MAPE_EPSILON / 2.0], [1.0])
    # just above the guard is allowed
    assert mape([1e-7], [1e-7]) == 0.0


def test_mape_is_a_fraction():
    # 50% error stored as 0.5
    assert math.isclose(mape([2.0], [1.0]), 0.5)


def test_percent_reduction_fixture_and_signs():
    np.testing.assert_allclose(percent_reduction(0.033, 0.051), 35.294117647, rtol=1e-9)
    assert percent_reduction(0.5, 0.5) == 0.0
    assert percent_reduction(0.6, 0.5) < 0.0
    with pytest.raises(DomainError):
        percent_reduction(0.1, 0.0)
    with pytest.raises(DomainError):
        percent_reduction(math.inf, 1.0)


def test_metric_triple_validation_and_scaling():
    t = MetricTriple(rmse=0.2, mae=0.1, mape=0.05)
    s = MetricTriple(*(2.0 * v for v in (t.rmse, t.mae, t.mape)))
    np.testing.assert_allclose([s.rmse, s.mae, s.mape], [0.4, 0.2, 0.1])
    assert t.as_dict() == {"rmse": 0.2, "mae": 0.1, "mape": 0.05}
    with pytest.raises(DataError):
        MetricTriple(rmse=-0.1, mae=0.0, mape=0.0)
    with pytest.raises(DataError):
        MetricTriple(rmse=math.nan, mae=0.0, mape=0.0)


def test_metric_triple_from_arrays():
    a = np.array([1.0, 2.0, 4.0])
    f = np.array([1.5, 1.5, 4.0])
    t = MetricTriple.from_arrays(a, f)
    np.testing.assert_allclose(t.mae, mae(a, f))
    np.testing.assert_allclose(t.rmse, rmse(a, f))
    np.testing.assert_allclose(t.mape, mape(a, f))


def test_aggregate_runs_is_the_mean():
    triples = [
        MetricTriple(rmse=0.1, mae=0.05, mape=0.01),
        MetricTriple(rmse=0.3, mae=0.15, mape=0.03),
    ]
    agg = aggregate_runs(triples)
    np.testing.assert_allclose([agg.rmse, agg.mae, agg.mape], [0.2, 0.1, 0.02], atol=1e-15)
    one = aggregate_runs(triples[:1])
    assert one == triples[0]
    with pytest.raises(DataError):
        aggregate_runs([])


def test_missing_mape_is_carried_not_raised():
    a = np.array([0.0, 0.5, 1.0])
    f = np.array([0.1, 0.4, 1.0])
    t = MetricTriple.from_arrays(a, f)
    assert t.mape is None
    assert (t.rmse, t.mae) == (rmse(a, f), mae(a, f))
    assert t.as_dict()["mape"] is None
    scored = MetricTriple(rmse=0.1, mae=0.05, mape=0.01)
    assert aggregate_runs([scored, t]).mape is None
    assert aggregate_runs([scored, t]).rmse == float(np.mean([0.1, t.rmse]))
    report = MetricReport(entries={("pm", "case1", 1): t})
    assert MetricReport.from_dict(report.to_dict()).entries == report.entries


def test_metric_report_round_trip_and_views():
    report = MetricReport(run_count=5)
    report.entries[("pm", "case1", 1)] = MetricTriple(0.1, 0.08, 0.02)
    report.entries[("lr", "case1", 4)] = MetricTriple(0.2, 0.16, 0.04)
    report.errors[("rt", "case2", 1)] = "NumericError: boom"
    back = MetricReport.from_dict(report.to_dict())
    assert back.run_count == 5
    assert back.entries == report.entries
    assert back.errors == report.errors
    assert back.get("pm", "case1", 1) == report.entries[("pm", "case1", 1)]
    assert back.get("pm", "case9", 1) is None
    assert set(back.models()) == {"pm", "lr", "rt"}
    assert back.cases() == ["case1", "case2"]
    assert back.horizons() == [1, 4]


WRONG_SHAPE_REPORTS = {
    "entry_key": ({"entries": {"x": 5}}, "report entries key 'x' is not model|case|horizon"),
    "entry_value": ({"entries": {"tsfm|case1|1": 5}}, "report entries 'tsfm|case1|1'"),
    "entry_text_rmse": ({"entries": {"tsfm|case1|1": {"rmse": "0.1", "mae": 0.1, "mape": None}}},
                        "report entries 'tsfm|case1|1'"),
    "run_count_text": ({"run_count": "x"}, "report run_count must be an integer, got 'x'"),
    "run_count_zero": ({"run_count": 0}, "report run_count must be positive, got 0"),
    "entry_bool_rmse": ({"entries": {"pm|case1|1": {"rmse": True, "mae": 0.1, "mape": 1.0}}},
                        "report entries 'pm|case1|1': rmse must be a number, got True"),
    "error_horizon": ({"errors": {"tsfm|case1|zz": "NumericError: boom"}},
                      "report errors key 'tsfm|case1|zz' is not model|case|horizon"),
    "entries_list": ({"entries": []}, "report entries must be an object, got list"),
}


@pytest.mark.parametrize("kind", sorted(WRONG_SHAPE_REPORTS))
def test_metric_report_from_dict_names_what_is_wrong(kind):
    """Each payload once ended in a ValueError, TypeError or AttributeError."""
    payload, message = WRONG_SHAPE_REPORTS[kind]
    with pytest.raises(DataError) as exc:
        MetricReport.from_dict(payload)
    assert str(exc.value).startswith(message)
