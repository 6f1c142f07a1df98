"""Point-forecast error metrics, multi-run aggregation, and model comparison arithmetic.

MAPE is stored as a fraction; multiply by 100 at rendering time only.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import DataError, DomainError, ShapeError

#: Smallest |actual| admitted by mape before the ratio is considered singular.
MAPE_EPSILON = 1e-8


def _checked_pair(actual, forecast) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=np.float64)
    f = np.asarray(forecast, dtype=np.float64)
    if a.shape != f.shape:
        raise ShapeError(f"actual {a.shape} and forecast {f.shape} differ in shape")
    if a.size == 0:
        raise DataError("empty input vectors")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(f))):
        raise DataError("metric inputs must be finite")
    return a.ravel(), f.ravel()


def mae(actual, forecast) -> float:
    a, f = _checked_pair(actual, forecast)
    return float(np.mean(np.abs(a - f)))


def rmse(actual, forecast) -> float:
    a, f = _checked_pair(actual, forecast)
    return float(np.sqrt(np.mean((a - f) ** 2)))


def mape(actual, forecast) -> float:
    """Mean absolute percentage error, as a fraction."""
    a, f = _checked_pair(actual, forecast)
    if np.any(np.abs(a) <= MAPE_EPSILON):
        raise DomainError("mape undefined: an actual value is (numerically) zero")
    return float(np.mean(np.abs((a - f) / a)))


def percent_reduction(candidate: float, baseline: float) -> float:
    """How much smaller (in %) the candidate error is than the baseline error.

    Negative when the candidate is worse.
    """
    if not (math.isfinite(candidate) and math.isfinite(baseline)):
        raise DomainError("percent_reduction requires finite inputs")
    if baseline <= 0:
        raise DomainError(f"baseline must be positive, got {baseline}")
    return 100.0 * (baseline - candidate) / baseline


@dataclass(frozen=True)
class MetricTriple:
    """RMSE/MAE/MAPE for one (model, case, horizon) cell.

    mape is None when an actual value is (numerically) zero; RMSE and MAE
    still score.
    """

    rmse: float
    mae: float
    mape: float | None

    def __post_init__(self):
        for name in METRICS:
            v = getattr(self, name)
            if name == "mape" and v is None:
                continue
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise DataError(f"{name} must be a number, got {v!r}")
            if not math.isfinite(v) or v < 0:
                raise DataError(f"{name} must be finite and non-negative, got {v}")

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_arrays(cls, actual, forecast) -> "MetricTriple":
        try:
            percentage = mape(actual, forecast)
        except DomainError:
            percentage = None
        return cls(rmse=rmse(actual, forecast), mae=mae(actual, forecast), mape=percentage)


#: The metric names, in the order reports, comparisons and selection use them.
METRICS = tuple(f.name for f in fields(MetricTriple))


def aggregate_runs(per_run: list[MetricTriple]) -> MetricTriple:
    """Arithmetic mean of each metric over repeated runs; MAPE is None if any run lacks it."""
    if not per_run:
        raise DataError("cannot aggregate an empty run list")
    mapes = [t.mape for t in per_run]
    return MetricTriple(
        rmse=float(np.mean([t.rmse for t in per_run])),
        mae=float(np.mean([t.mae for t in per_run])),
        mape=None if None in mapes else float(np.mean(mapes)),
    )


#: Key of one report cell: (model_id, case_id value, horizon_hours).
CellKey = tuple[str, str, int]


@dataclass
class MetricReport:
    """Per (model, case, horizon) metrics, each averaged over run_count runs."""

    entries: dict[CellKey, MetricTriple] = field(default_factory=dict)
    run_count: int = 1
    errors: dict[CellKey, str] = field(default_factory=dict)

    def models(self) -> list[str]:
        seen: list[str] = []
        for model, _, _ in list(self.entries) + list(self.errors):
            if model not in seen:
                seen.append(model)
        return seen

    def cases(self) -> list[str]:
        return sorted({case for _, case, _ in list(self.entries) + list(self.errors)})

    def horizons(self) -> list[int]:
        return sorted({h for _, _, h in list(self.entries) + list(self.errors)})

    def get(self, model: str, case: str, horizon: int) -> MetricTriple | None:
        return self.entries.get((model, case, horizon))

    def to_dict(self) -> dict:
        return {
            "run_count": self.run_count,
            "entries": {
                f"{m}|{c}|{h}": t.as_dict() for (m, c, h), t in sorted(self.entries.items())
            },
            "errors": {f"{m}|{c}|{h}": msg for (m, c, h), msg in sorted(self.errors.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricReport":
        """The report `to_dict` wrote; a payload of another shape is a
        DataError that names the bad key or field."""
        run_count = d.get("run_count", 1)
        if isinstance(run_count, bool) or not isinstance(run_count, int):
            raise DataError(f"report run_count must be an integer, got {run_count!r}")
        if run_count < 1:
            raise DataError(f"report run_count must be positive, got {run_count}")
        cells: dict[str, dict] = {"entries": {}, "errors": {}}
        for name, parsed in cells.items():
            table = d.get(name, {})
            if not isinstance(table, dict):
                raise DataError(f"report {name} must be an object, got {type(table).__name__}")
            for key, value in table.items():
                parts = key.split("|")
                if len(parts) != 3 or not parts[2].isdecimal():
                    raise DataError(f"report {name} key {key!r} is not model|case|horizon")
                try:
                    parsed[(parts[0], parts[1], int(parts[2]))] = MetricTriple(**value) if name == "entries" else value
                except (DataError, TypeError) as exc:
                    raise DataError(f"report {name} {key!r}: {exc}") from None
        return cls(entries=cells["entries"], run_count=run_count, errors=cells["errors"])
