"""Tests for series ingestion, normalization, windowing, and case splits."""

import math
from datetime import datetime, timedelta

import numpy as np
import pytest

from loadcast.errors import ConfigError, DataError, InsufficientDataError
from loadcast.series import (
    CASE_TRAIN_DAYS,
    CaseId,
    NormalizationParams,
    TimeSeries,
    VALIDATION_TAIL,
    fit_normalizer,
    holdout_count,
    hour_features,
    load_csv,
    make_windows,
    split_case,
    write_csv,
)

START = datetime(2021, 6, 1)


def _series(values, start=START, name="s"):
    return TimeSeries(start=start, values=values, name=name)


def test_series_validation_rejects_bad_values():
    with pytest.raises(DataError):
        _series([])
    with pytest.raises(DataError):
        _series([[1.0, 2.0]])
    with pytest.raises(DataError):
        _series([1.0, np.nan])
    with pytest.raises(DataError):
        _series([1.0, np.inf])


def test_series_values_are_read_only():
    s = _series([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        s.values[0] = 9.0


def test_timestamps_and_hours():
    s = _series([0.0] * 30, start=datetime(2021, 6, 1, 22))
    assert s.timestamp(0) == datetime(2021, 6, 1, 22)
    assert s.timestamp(3) == datetime(2021, 6, 2, 1)
    assert s.timestamp(len(s) - 1) == datetime(2021, 6, 3, 3)
    hours = s.hour_of_day(np.arange(len(s)))
    assert hours[0] == 22.0
    assert hours[2] == 0.0
    np.testing.assert_allclose(hours, [(22 + i) % 24 for i in range(30)])
    assert s.hour_of_day(5) == hours[5]


def test_hour_of_day_on_arrays_past_the_end_matches_the_inline_formula():
    for start in (datetime(2021, 6, 1, 22, 30, 15), START):
        s = _series([0.0] * 10, start=start)
        index = 7 + np.arange(40)  # runs 37 points past the last index, 9
        start_hour = start.hour + start.minute / 60.0 + start.second / 3600.0
        expected = (start_hour + index.astype(np.float64)) % 24.0
        assert s.hour_of_day(index).tobytes() == expected.tobytes()
        assert all(s.hour_of_day(int(i)) == h for i, h in zip(index, expected))


def test_timestamp_and_slice_accept_numpy_integers():
    s = _series(np.arange(30.0), start=datetime(2021, 6, 1, 22))
    assert s.timestamp(np.int64(3)) == s.timestamp(3) == datetime(2021, 6, 2, 1)
    assert s.timestamp(np.int32(0)) == s.start
    sub = s.slice(np.int64(3), np.int64(7))
    assert sub.start == datetime(2021, 6, 2, 1)
    np.testing.assert_array_equal(sub.values, [3.0, 4.0, 5.0, 6.0])
    assert s.hour_of_day(np.int64(5)) == s.hour_of_day(5) == 3.0


def test_holdout_count_takes_the_newest_fifth_from_five_samples_on():
    assert [holdout_count(n) for n in (4, 5, 7, 10)] == [0, 1, 1, 2]
    for n in range(2, 61):  # GBT's max(1, ...) form, which never binds from n = 5
        assert holdout_count(n) == (max(1, int(round(0.2 * n))) if n >= 5 else 0)
    assert VALIDATION_TAIL == 0.2


def test_slice_shifts_start_and_checks_bounds():
    s = _series(np.arange(10.0))
    sub = s.slice(3, 7)
    assert len(sub) == 4
    assert sub.start == START + timedelta(hours=3)
    np.testing.assert_array_equal(sub.values, [3.0, 4.0, 5.0, 6.0])
    with pytest.raises(InsufficientDataError):
        s.slice(5, 5)
    with pytest.raises(InsufficientDataError):
        s.slice(0, 11)


def test_with_values_keeps_length():
    s = _series([1.0, 2.0, 3.0])
    t = s.with_values([4.0, 5.0, 6.0])
    assert t.start == s.start
    with pytest.raises(DataError):
        s.with_values([1.0, 2.0])


def test_hour_features_lie_on_unit_circle():
    rng = np.random.default_rng(0)
    hours = rng.uniform(0.0, 24.0, size=200)
    sin_h, cos_h = hour_features(hours)
    np.testing.assert_allclose(sin_h**2 + cos_h**2, np.ones(200), atol=1e-12)
    sin0, cos0 = hour_features(0.0)
    np.testing.assert_allclose([sin0, cos0], [0.0, 1.0], atol=1e-12)
    sin6, cos6 = hour_features(6.0)
    np.testing.assert_allclose([sin6, cos6], [1.0, 0.0], atol=1e-12)
    # one full day wraps around
    s24, c24 = hour_features(24.0)
    np.testing.assert_allclose([s24, c24], [0.0, 1.0], atol=1e-12)


def test_csv_round_trip_is_exact(tmp_path):
    for seed in range(5):
        values = np.random.default_rng(seed).normal(5.0, 2.0, size=50)
        s = _series(values, start=datetime(2022, 1, 1, 7))
        path = tmp_path / f"series_{seed}.csv"
        write_csv(s, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.values, s.values)
        assert back.start == s.start


def test_load_csv_forward_fills_short_gaps(tmp_path):
    path = tmp_path / "gap.csv"
    lines = ["timestamp,load"]
    lines.append("2021-01-01T00:00:00,1.0")
    lines.append("2021-01-01T01:00:00,2.0")
    lines.append("2021-01-01T04:00:00,5.0")  # 2 missing hours
    path.write_text("\n".join(lines) + "\n")
    s = load_csv(path)
    np.testing.assert_array_equal(s.values, [1.0, 2.0, 2.0, 2.0, 5.0])


def test_load_csv_rejects_long_gaps_and_disorder(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "timestamp,load\n2021-01-01T00:00:00,1.0\n2021-01-01T05:00:00,2.0\n"
    )
    with pytest.raises(DataError):
        load_csv(path)  # 4 missing hours > fill limit
    path.write_text(
        "timestamp,load\n2021-01-01T02:00:00,1.0\n2021-01-01T01:00:00,2.0\n"
    )
    with pytest.raises(DataError):
        load_csv(path)
    path.write_text("timestamp,load\n2021-01-01T00:30:00,1.0\n2021-01-01T01:15:00,2.0\n")
    with pytest.raises(DataError):
        load_csv(path)  # off the hourly grid
    path.write_text("time,load\n2021-01-01T00:00:00,1.0\n")
    with pytest.raises(DataError):
        load_csv(path)  # wrong header
    path.write_text("timestamp,load\n")
    with pytest.raises(DataError):
        load_csv(path)  # no rows


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbftimestamp,load\n2021-01-01T00:00:00,1.0\n2021-01-01T01:00:00,2.0\n")
    np.testing.assert_array_equal(load_csv(path).values, [1.0, 2.0])


def test_load_csv_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"timestamp,load\n2021-01-01T00:00:00,1.0\xff\n")
    with pytest.raises(DataError, match="latin1.csv: not UTF-8"):
        load_csv(path)


def test_normalizer_maps_train_range_to_unit_interval():
    for seed in range(5):
        values = np.random.default_rng(seed).uniform(10.0, 50.0, size=100)
        norm = fit_normalizer(values)
        scaled = norm.apply(values)
        assert math.isclose(float(scaled.min()), 0.0, abs_tol=1e-15)
        assert math.isclose(float(scaled.max()), 1.0, abs_tol=1e-15)
        np.testing.assert_allclose(norm.invert(scaled), values, rtol=1e-12)


def test_normalizer_rejects_degenerate_input():
    with pytest.raises(DataError):
        fit_normalizer(np.full(10, 3.25))
    with pytest.raises(InsufficientDataError):
        fit_normalizer(np.array([1.0]))
    with pytest.raises(DataError):
        NormalizationParams(2.0, 2.0)
    with pytest.raises(DataError):
        NormalizationParams(0.0, np.inf)


def test_normalization_params_round_trip():
    norm = NormalizationParams(1.5, 4.5)
    back = NormalizationParams.from_dict(norm.to_dict())
    assert back == norm
    assert norm.span == 3.0


def test_make_windows_matches_loop_oracle():
    """Window rows are consecutive lags; the last two features encode the target hour."""
    rng = np.random.default_rng(1)
    values = rng.uniform(0.0, 1.0, size=40)
    s = _series(values, start=datetime(2021, 3, 5, 13))
    window = 6
    ws = make_windows(s, window=window)
    n = 40 - window
    assert len(ws) == n
    assert ws.inputs.shape[1] == window + 2
    hours = s.hour_of_day(np.arange(len(s)))
    for i in range(n):
        np.testing.assert_array_equal(ws.inputs[i, :window], values[i : i + window])
        target_idx = i + window
        assert ws.targets[i] == values[target_idx]
        sin_h, cos_h = hour_features(hours[target_idx])
        np.testing.assert_allclose(ws.inputs[i, window:], [sin_h, cos_h], atol=1e-12)


def test_make_windows_guards():
    s = _series(np.arange(10.0))
    with pytest.raises(InsufficientDataError):
        make_windows(s, window=10)
    with pytest.raises(ConfigError):
        make_windows(s, window=0)


def test_case_split_sizes_follow_day_counts():
    s = _series(np.random.default_rng(0).uniform(1.0, 2.0, size=24 * 31))
    expected = {"case1": 72, "case2": 120, "case3": 168, "case4": 360, "case5": 720}
    for case_id, days in CASE_TRAIN_DAYS.items():
        split = split_case(s, case_id)
        assert len(split.train) == expected[case_id.value] == days * 24
        assert len(split.train) + len(split.test) == len(s)
        assert split.test.start == split.train.timestamp(len(split.train) - 1) + timedelta(hours=1)
        np.testing.assert_array_equal(
            np.concatenate([split.train.values, split.test.values]), s.values
        )


def test_case_split_accepts_string_ids_and_guards_length():
    s = _series(np.arange(80.0))
    split = split_case(s, "case1")
    assert split.case_id is CaseId.CASE1
    assert CASE_TRAIN_DAYS[split.case_id] == 3
    with pytest.raises(InsufficientDataError):
        split_case(s, "case2")
    with pytest.raises(ConfigError):
        split_case(s, "case9")


def test_case_id_parser_variants():
    assert CaseId.parse("Case 3") is CaseId.CASE3
    assert CaseId.parse("5") is CaseId.CASE5
    with pytest.raises(ConfigError):
        CaseId.parse("case0")
