"""Tests for the synthetic pretraining corpus generators."""

import numpy as np
import pytest

from loadcast.corpus import (
    FAMILIES,
    PERIODS,
    GeneratorSpec,
    build_corpus,
    draw_specs,
    generate_series,
)
from loadcast.errors import ConfigError


def test_generate_series_is_deterministic():
    spec = GeneratorSpec(family="seasonal", length=128, period=24, noise_std=0.03, seed=5)
    a = generate_series(spec)
    b = generate_series(spec)
    np.testing.assert_array_equal(a.values, b.values)
    assert len(a) == 128


def test_each_family_produces_its_shape():
    """Spot-check the structural signature of every family."""
    trend = generate_series(GeneratorSpec(family="trend", length=100, trend_slope=0.01, seed=0))
    diffs = np.diff(trend.values)
    np.testing.assert_allclose(diffs, np.full(99, 0.01), atol=1e-12)

    seasonal = generate_series(GeneratorSpec(family="seasonal", length=96, period=24, seed=1))
    np.testing.assert_allclose(seasonal.values[:72], seasonal.values[24:], atol=1e-12)

    both = generate_series(
        GeneratorSpec(family="trend_seasonal", length=96, period=24, trend_slope=0.02, seed=2)
    )
    detrended = both.values - 0.02 * np.arange(96)
    np.testing.assert_allclose(detrended[:72], detrended[24:], atol=1e-10)

    noisy = generate_series(GeneratorSpec(family="noisy", length=400, noise_std=0.1, seed=3))
    assert 0.05 < float(np.std(noisy.values)) < 0.2

    walk = generate_series(GeneratorSpec(family="random_walk", length=300, noise_std=0.05, seed=4))
    steps = np.diff(walk.values)
    assert 0.02 < float(np.std(steps)) < 0.1


def test_outlier_twin_shares_the_base_series():
    """Setting the spike rate to zero must not change the underlying draw."""
    for seed in range(5):
        base = GeneratorSpec(family="outlier_spiked", length=200, period=24,
                             noise_std=0.02, outlier_rate=0.0, seed=seed)
        spiked = GeneratorSpec(family="outlier_spiked", length=200, period=24,
                               noise_std=0.02, outlier_rate=0.05, seed=seed)
        clean = generate_series(base).values
        dirty = generate_series(spiked).values
        spikes = dirty != clean
        assert spikes.any(), "a 5% rate over 200 points should fire at least once"
        np.testing.assert_array_equal(dirty[~spikes], clean[~spikes])
        ratio = dirty[spikes] / clean[spikes]
        assert np.all(ratio >= 2.0) and np.all(ratio <= 4.0)


def _family_chain(spec):
    """generate_series as one branch per family: the reference its composition must match."""
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.length, dtype=np.float64)
    base_level = rng.uniform(1.5, 3.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    amplitude = rng.uniform(0.3, 1.0)
    if spec.family == "trend":
        values = base_level + spec.trend_slope * t
    elif spec.family == "seasonal":
        values = base_level + amplitude * np.sin(2.0 * np.pi * t / spec.period + phase)
    elif spec.family == "trend_seasonal":
        values = (
            base_level
            + spec.trend_slope * t
            + amplitude * np.sin(2.0 * np.pi * t / spec.period + phase)
        )
    elif spec.family == "noisy":
        values = np.full(spec.length, base_level)
    elif spec.family == "outlier_spiked":
        values = base_level + amplitude * np.sin(2.0 * np.pi * t / spec.period + phase)
    else:
        steps = rng.normal(0.0, max(spec.noise_std, 0.02), size=spec.length)
        values = base_level + np.cumsum(steps)
    if spec.family != "random_walk" and spec.noise_std > 0:
        values = values + rng.normal(0.0, spec.noise_std, size=spec.length)
    spike_positions = rng.uniform(size=spec.length) < spec.outlier_rate
    spike_factors = rng.uniform(2.0, 4.0, size=spec.length)
    if spec.family == "outlier_spiked":
        values = np.where(spike_positions, values * spike_factors, values)
    return values


@pytest.mark.parametrize("family", FAMILIES)
def test_generate_series_matches_the_family_chain_bitwise(family):
    for seed in (0, 3, 11, 2024):
        for noise in (0.0, 0.05):
            for rate in (0.0, 0.04):
                spec = GeneratorSpec(family=family, length=160, period=PERIODS[seed % 3],
                                     trend_slope=0.003, noise_std=noise, outlier_rate=rate, seed=seed)
                assert generate_series(spec).values.tobytes() == _family_chain(spec).tobytes()


def test_generator_spec_validation():
    with pytest.raises(ConfigError):
        GeneratorSpec(family="cubist", length=100)
    with pytest.raises(ConfigError):
        GeneratorSpec(family="trend", length=10)
    with pytest.raises(ConfigError):
        GeneratorSpec(family="seasonal", length=100)  # missing period
    with pytest.raises(ConfigError):
        GeneratorSpec(family="seasonal", length=100, period=24, outlier_rate=0.2)
    with pytest.raises(ConfigError):
        GeneratorSpec(family="trend", length=100, noise_std=-0.1)


def test_draw_specs_cycles_kept_families():
    specs = draw_specs(12, master_seed=0)
    families = [s.family for s in specs]
    assert families == list(FAMILIES) * 2
    assert all(s.period in PERIODS for s in specs if s.period is not None)
    kept = draw_specs(10, master_seed=0, exclude_families=("seasonal", "random_walk"))
    assert all(s.family not in ("seasonal", "random_walk") for s in kept)
    with pytest.raises(ConfigError):
        draw_specs(5, 0, exclude_families=("nope",))
    with pytest.raises(ConfigError):
        draw_specs(5, 0, exclude_families=FAMILIES)
    with pytest.raises(ConfigError):
        draw_specs(0, 0)


def test_draw_specs_only_spikes_outlier_family():
    specs = draw_specs(30, master_seed=2)
    for s in specs:
        if s.family == "outlier_spiked":
            assert 0.01 <= s.outlier_rate <= 0.05
        else:
            assert s.outlier_rate == 0.0


def test_build_corpus_is_reproducible():
    a = build_corpus(8, master_seed=3, series_length=64)
    b = build_corpus(8, master_seed=3, series_length=64)
    assert len(a) == 8
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.values, y.values)
    c = build_corpus(8, master_seed=4, series_length=64)
    assert any(not np.array_equal(x.values, z.values) for x, z in zip(a, c))

