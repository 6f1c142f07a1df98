"""Synthetic pretraining corpus: families of trend/seasonal/noisy/spiked series.

The real multi-domain pretraining data behind large forecasting models is not
available, so this module fabricates a desk-scale stand-in that spans the
same axes of variation: seasonality at several periods, trends, noise levels,
outliers, and random walks. Everything is a pure function of its seeds.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import ConfigError, require_integer
from .series import TimeSeries

FAMILIES = ("trend", "seasonal", "trend_seasonal", "noisy", "outlier_spiked", "random_walk")
#: Families whose series add a linear trend, and those that add a sinusoid.
TREND_FAMILIES = ("trend", "trend_seasonal")
SEASONAL_FAMILIES = ("seasonal", "trend_seasonal", "outlier_spiked")
PERIODS = (12, 24, 168)
MIN_LENGTH = 64
MAX_OUTLIER_RATE = 0.05
CORPUS_EPOCH = datetime(2020, 1, 1)

DEFAULT_SERIES_COUNT = 200
DEFAULT_SERIES_LENGTH = 512


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one synthetic series."""

    family: str
    length: int
    period: int | None = None
    trend_slope: float = 0.0
    noise_std: float = 0.0
    outlier_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        for name in ("length", "seed") + (("period",) if self.period is not None else ()):
            require_integer(name, getattr(self, name))
        for name in ("trend_slope", "noise_std", "outlier_rate"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.length < MIN_LENGTH:
            raise ConfigError(f"length must be >= {MIN_LENGTH}, got {self.length}")
        if not 0.0 <= self.outlier_rate <= MAX_OUTLIER_RATE:
            raise ConfigError(
                f"outlier_rate must be in [0, {MAX_OUTLIER_RATE}], got {self.outlier_rate}"
            )
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.family in SEASONAL_FAMILIES and (self.period is None or self.period < 2):
            raise ConfigError(f"family {self.family!r} needs a period >= 2")


def generate_series(spec: GeneratorSpec) -> TimeSeries:
    """Deterministically realize one series from its spec.

    The random draws are ordered so that two specs differing only in
    outlier_rate share the identical base series; spikes then multiply a
    subset of positions by a factor in [2, 4].
    """
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.length, dtype=np.float64)
    base_level = rng.uniform(1.5, 3.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    amplitude = rng.uniform(0.3, 1.0)

    # Each family is the base level plus its parts, added in this order.
    values = np.full(spec.length, base_level)
    if spec.family in TREND_FAMILIES:
        values = values + spec.trend_slope * t
    if spec.family in SEASONAL_FAMILIES:
        values = values + amplitude * np.sin(2.0 * np.pi * t / spec.period + phase)
    if spec.family == "random_walk":
        steps = rng.normal(0.0, max(spec.noise_std, 0.02), size=spec.length)
        values = values + np.cumsum(steps)
    elif spec.noise_std > 0:
        values = values + rng.normal(0.0, spec.noise_std, size=spec.length)

    # Drawn unconditionally so the rate-0 twin consumes the same stream.
    spike_positions = rng.uniform(size=spec.length) < spec.outlier_rate
    spike_factors = rng.uniform(2.0, 4.0, size=spec.length)
    if spec.family == "outlier_spiked":
        values = np.where(spike_positions, values * spike_factors, values)

    return TimeSeries(CORPUS_EPOCH, values, name=f"{spec.family}_{spec.seed}")


def draw_specs(
    spec_count: int,
    master_seed: int,
    series_length: int = DEFAULT_SERIES_LENGTH,
    exclude_families: tuple[str, ...] = (),
) -> list[GeneratorSpec]:
    """Stratified draw of generator recipes cycling over the kept families."""
    if spec_count < 1:
        raise ConfigError(f"spec_count must be >= 1, got {spec_count}")
    for family in exclude_families:
        if family not in FAMILIES:
            raise ConfigError(f"cannot exclude unknown family {family!r}")
    kept = tuple(f for f in FAMILIES if f not in exclude_families)
    if not kept:
        raise ConfigError("all families excluded")
    rng = np.random.default_rng(master_seed)
    specs = []
    for i in range(spec_count):
        family = kept[i % len(kept)]
        period = int(rng.choice(PERIODS))
        slope = float(rng.uniform(-0.004, 0.004))
        noise = float(rng.uniform(0.0, 0.08))
        rate = float(rng.uniform(0.01, MAX_OUTLIER_RATE))
        seed = int(rng.integers(0, 2**31 - 1))
        specs.append(
            GeneratorSpec(
                family=family,
                length=series_length,
                period=period,
                trend_slope=slope,
                noise_std=noise if family != "noisy" else noise + 0.1,
                outlier_rate=rate if family == "outlier_spiked" else 0.0,
                seed=seed,
            )
        )
    return specs


def build_corpus(
    spec_count: int = DEFAULT_SERIES_COUNT,
    master_seed: int = 0,
    series_length: int = DEFAULT_SERIES_LENGTH,
    exclude_families: tuple[str, ...] = (),
) -> list[TimeSeries]:
    """Generate the full corpus; a pure function of its arguments."""
    return [
        generate_series(spec)
        for spec in draw_specs(spec_count, master_seed, series_length, exclude_families)
    ]
