"""Time series ingestion, normalization, windowing, case splits, and artifact JSON.

Everything in this module is pure and timezone-naive. A series is an hourly
univariate load record; all downstream models consume either a raw series
(the transformer) or supervised windows built from it (the baselines).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from enum import Enum

import numpy as np

from .errors import ConfigError, DataError, InsufficientDataError

#: Longest run of consecutive missing hours that forward-fill will repair.
MAX_FILL_GAP = 3

HOURS_PER_DAY = 24

#: Share of the newest samples a model holds out to watch early stopping.
VALIDATION_TAIL = 0.2


class CaseId(str, Enum):
    """The five train/test partitions with growing training history."""

    CASE1 = "case1"
    CASE2 = "case2"
    CASE3 = "case3"
    CASE4 = "case4"
    CASE5 = "case5"

    @classmethod
    def parse(cls, text: str) -> "CaseId":
        key = text.strip().lower().replace("_", "").replace(" ", "")
        for case in cls:
            if key == case.value or key == case.value.replace("case", ""):
                return case
        raise ConfigError(f"unknown case id: {text!r}")


#: Training days per case.
CASE_TRAIN_DAYS: dict[CaseId, int] = {
    CaseId.CASE1: 3,
    CaseId.CASE2: 5,
    CaseId.CASE3: 7,
    CaseId.CASE4: 15,
    CaseId.CASE5: 30,
}


def _as_readonly_f64(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """Hourly univariate load values: index i is the hour start + i h."""

    start: datetime
    values: np.ndarray
    name: str = "series"

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly_f64(self.values))
        if self.values.ndim != 1 or self.values.size == 0:
            raise DataError(f"series {self.name!r}: values must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.values)):
            raise DataError(f"series {self.name!r}: values contain non-finite entries")

    def __len__(self) -> int:
        return int(self.values.size)

    def timestamp(self, index: int) -> datetime:
        return self.start + timedelta(hours=int(index))

    def hour_of_day(self, index):
        """Fractional hour-of-day at `index`, an int or an integer array.

        Indices past the last point continue the same clock, which is how
        forecasts name the hours they target.
        """
        start_hour = self.start.hour + self.start.minute / 60.0 + self.start.second / 3600.0
        return (start_hour + index) % 24.0

    def slice(self, start_index: int, stop_index: int, name: str | None = None) -> "TimeSeries":
        """Sub-series covering [start_index, stop_index), with shifted start."""
        if not (0 <= start_index < stop_index <= len(self)):
            raise InsufficientDataError(
                f"slice [{start_index}, {stop_index}) out of range for series of length {len(self)}"
            )
        return TimeSeries(
            start=self.timestamp(start_index),
            values=self.values[start_index:stop_index],
            name=name or self.name,
        )

    def with_values(self, values, name: str | None = None) -> "TimeSeries":
        """Same time axis, different values (must keep the length)."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != self.values.shape:
            raise DataError("with_values must preserve the series length")
        return TimeSeries(self.start, arr, name or self.name)


@dataclass(frozen=True)
class NormalizationParams:
    """Min-max scaling fitted on a training slice only."""

    min_value: float
    max_value: float

    def __post_init__(self):
        if not (math.isfinite(self.min_value) and math.isfinite(self.max_value)):
            raise DataError("normalization bounds must be finite")
        if not self.max_value > self.min_value:
            raise DataError(
                f"degenerate normalization range [{self.min_value}, {self.max_value}]"
            )

    @property
    def span(self) -> float:
        return self.max_value - self.min_value

    def apply(self, x):
        return (np.asarray(x, dtype=np.float64) - self.min_value) / self.span

    def invert(self, y):
        return np.asarray(y, dtype=np.float64) * self.span + self.min_value

    def to_dict(self) -> dict:
        return {"min_value": self.min_value, "max_value": self.max_value}

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationParams":
        return cls(min_value=float(d["min_value"]), max_value=float(d["max_value"]))


@dataclass(frozen=True)
class SupervisedWindowSet:
    """(input window, target) pairs: lagged loads plus target-hour features."""

    inputs: np.ndarray  # (n, window_length + 2), float64
    targets: np.ndarray  # (n,), float64
    window_length: int
    horizon_step: int

    def __post_init__(self):
        object.__setattr__(self, "inputs", _as_readonly_f64(self.inputs))
        object.__setattr__(self, "targets", _as_readonly_f64(self.targets))
        if self.inputs.ndim != 2 or self.targets.ndim != 1:
            raise DataError("inputs must be 2-D and targets 1-D")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise DataError("inputs and targets must pair up one-to-one")

    def __len__(self) -> int:
        return int(self.targets.size)


@dataclass(frozen=True)
class CaseSplit:
    """Chronological train/test partition for one case."""

    case_id: CaseId
    train: TimeSeries
    test: TimeSeries


def hour_features(hour_of_day) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic (sin, cos) encoding of hour-of-day over a 24 h period."""
    angle = 2.0 * np.pi * np.asarray(hour_of_day, dtype=np.float64) / 24.0
    return np.sin(angle), np.cos(angle)


def load_csv(path) -> TimeSeries:
    """Read an hourly `timestamp,load` CSV into a validated TimeSeries.

    Gaps of up to MAX_FILL_GAP consecutive missing hours are forward-filled
    with the last observed value; longer gaps and non-monotone timestamps are
    rejected. A leading byte-order mark is skipped; bytes that are not
    UTF-8 are a DataError.
    """
    rows: list[tuple[datetime, float]] = []
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            if [c.strip().lower() for c in header[:2]] != ["timestamp", "load"]:
                raise DataError(f"{path}: expected header 'timestamp,load', got {header!r}")
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) < 2:
                    raise DataError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
                try:
                    ts = datetime.fromisoformat(row[0].strip())
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad timestamp {row[0]!r}") from None
                try:
                    load = float(row[1])
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad load value {row[1]!r}") from None
                if not math.isfinite(load):
                    raise DataError(f"{path}:{lineno}: non-finite load value")
                rows.append((ts, load))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None

    if not rows:
        raise DataError(f"{path}: no data rows")

    start = rows[0][0]
    values: list[float] = [rows[0][1]]
    hour = timedelta(hours=1)
    for i in range(1, len(rows)):
        prev_ts, _ = rows[i - 1]
        ts, load = rows[i]
        delta = ts - prev_ts
        if delta <= timedelta(0):
            raise DataError(
                f"{path}: timestamps not strictly increasing at {ts.isoformat()}"
            )
        steps = delta / hour
        if abs(steps - round(steps)) > 1e-9:
            raise DataError(
                f"{path}: timestamp {ts.isoformat()} is not aligned to the hourly grid"
            )
        missing = int(round(steps)) - 1
        if missing > MAX_FILL_GAP:
            raise DataError(
                f"{path}: gap of {missing} missing hours before {ts.isoformat()} "
                f"exceeds the {MAX_FILL_GAP} h fill limit"
            )
        values.extend([values[-1]] * missing)  # forward fill
        values.append(load)

    name = str(path).rsplit("/", 1)[-1]
    if name.lower().endswith(".csv"):
        name = name[:-4]
    return TimeSeries(start=start, values=values, name=name)


def write_csv(series: TimeSeries, path) -> None:
    """Write a TimeSeries as a `timestamp,load` CSV that load_csv round-trips.

    Values use repr() so every float64 survives the text round trip exactly.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("timestamp,load\n")
        for i, value in enumerate(series.values.tolist()):
            handle.write(f"{series.timestamp(i).isoformat()},{value!r}\n")


def read_json(path) -> dict:
    """Read a JSON object from `path`: a spec, report, forecast or model sidecar.
    A leading byte-order mark is skipped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
            raise DataError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    return payload


def write_json(path, payload: dict) -> None:
    """Write `payload` as indented, key-sorted JSON and a newline: equal payloads, equal bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def fit_normalizer(series: TimeSeries | np.ndarray) -> NormalizationParams:
    """Fit min-max bounds on a training slice (and nothing else)."""
    values = series.values if isinstance(series, TimeSeries) else np.asarray(series, dtype=np.float64)
    if values.size < 2:
        raise InsufficientDataError("need at least 2 points to fit a normalizer")
    lo, hi = float(np.min(values)), float(np.max(values))
    if not hi > lo:
        raise DataError("constant series: degenerate normalization range")
    return NormalizationParams(min_value=lo, max_value=hi)


def holdout_count(n: int) -> int:
    """How many of n chronological samples to hold out, newest first, for
    early stopping: the VALIDATION_TAIL share, and none when n < 5."""
    return int(round(VALIDATION_TAIL * n)) if n >= 5 else 0


def sequence_windows(values: np.ndarray, context: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (context, next-horizon) pair of a 1-D array, oldest first, as
    contiguous (n, context) and (n, horizon) arrays: the windows of
    pretraining, fine-tuning and (at horizon 1) `make_windows`."""
    if len(values) < context + horizon:
        raise InsufficientDataError(f"need at least {context + horizon} points, got {len(values)}")
    pairs = np.lib.stride_tricks.sliding_window_view(values, context + horizon)
    return np.ascontiguousarray(pairs[:, :context]), np.ascontiguousarray(pairs[:, context:])


def make_windows(series: TimeSeries, window: int) -> SupervisedWindowSet:
    """Slide one-step supervised pairs over an already-normalized series.

    Each input is `window` consecutive load values plus the (sin, cos)
    encoding of the hour of its target, the value right after the window.
    """
    if window < 1:
        raise ConfigError("window must be positive")
    lags, targets = sequence_windows(series.values, window, 1)
    sin_h, cos_h = hour_features(series.hour_of_day(np.arange(window, len(series))))
    inputs = np.column_stack([lags, sin_h, cos_h])
    return SupervisedWindowSet(inputs=inputs, targets=targets[:, 0], window_length=window, horizon_step=1)


def origin_windows(values: np.ndarray, train_len: int, width: int) -> np.ndarray:
    """The `width` values before every rolling origin of the test slice.

    Row o ends just before index train_len + o, so there is one row per
    test point; shape (len(values) - train_len, width), a read-only view.
    """
    test_len = len(values) - train_len
    if test_len < 1:
        raise InsufficientDataError("no test points after the training slice")
    if train_len < width:
        raise InsufficientDataError(f"training slice shorter than the {width}-point window")
    return np.lib.stride_tricks.sliding_window_view(values, width)[train_len - width : len(values) - width]


def split_case(series: TimeSeries, case_id: CaseId) -> CaseSplit:
    """First {3,5,7,15,30} days of data become the training slice; the rest is test."""
    if not isinstance(case_id, CaseId):
        case_id = CaseId.parse(str(case_id))
    days = CASE_TRAIN_DAYS[case_id]
    train_points = days * HOURS_PER_DAY
    if len(series) < train_points + 1:
        raise InsufficientDataError(
            f"{case_id.value} needs more than {train_points} points, series has {len(series)}"
        )
    train = series.slice(0, train_points, name=f"{series.name}:{case_id.value}:train")
    test = series.slice(train_points, len(series), name=f"{series.name}:{case_id.value}:test")
    return CaseSplit(case_id=case_id, train=train, test=test)
