"""Tests for the encoder-decoder forecaster and its attention pieces."""

import json
from datetime import datetime

import numpy as np
import pytest

from loadcast.corpus import GeneratorSpec, build_corpus, generate_series
from loadcast.errors import ConfigError, DataError, InsufficientDataError, ShapeError, StateError
from loadcast.nn import ParamStore, Tensor, no_grad
from loadcast.nn import autodiff as ad
from loadcast.series import NormalizationParams, TimeSeries, fit_normalizer
from loadcast.transformer import (
    TransformerConfig,
    TransformerForecaster,
    _CachedLayer,
    _causal_mask,
    attention_weights,
    multi_head_attention,
    positional_encoding,
)

TINY = TransformerConfig(
    d_model=8,
    head_count=2,
    encoder_layers=1,
    decoder_layers=1,
    context_length=12,
    horizon_length=3,
)


def tiny_corpus(count=5, length=64):
    specs = [
        GeneratorSpec(family="seasonal", length=length, period=12, noise_std=0.05, seed=70 + i)
        for i in range(count)
    ]
    return [generate_series(spec) for spec in specs]


def pretrained_tiny(seed=0):
    model = TransformerForecaster(TINY, init_seed=seed)
    model.pretrain(tiny_corpus(), epochs=2, learning_rate=1e-3, seed=seed, batch_size=32)
    return model


def test_positional_encoding_matches_formula():
    pe = positional_encoding(10, 6)
    for pos in range(10):
        for i in range(3):
            angle = pos / 10000.0 ** (2 * i / 6)
            np.testing.assert_allclose(pe[pos, 2 * i], np.sin(angle), rtol=0, atol=1e-15)
            np.testing.assert_allclose(pe[pos, 2 * i + 1], np.cos(angle), rtol=0, atol=1e-15)


def test_positional_encoding_first_row_alternates():
    pe = positional_encoding(4, 8)
    np.testing.assert_allclose(pe[0, 0::2], 0.0, atol=0)
    np.testing.assert_allclose(pe[0, 1::2], 1.0, atol=0)


def test_positional_encoding_guards():
    with pytest.raises(ConfigError):
        positional_encoding(8, 7)
    with pytest.raises(ConfigError):
        positional_encoding(0, 8)
    pe = positional_encoding(3, 4)
    with pytest.raises(ValueError):
        pe[0, 0] = 5.0


def test_attention_weights_rows_are_stochastic():
    rng = np.random.default_rng(11)
    for _ in range(5):
        q = rng.normal(size=(6, 4))
        k = rng.normal(size=(9, 4))
        w = attention_weights(q, k)
        assert w.shape == (6, 9)
        assert np.all(w > 0)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=1e-12)


def test_attention_weights_causal_mask_zeroes_future():
    rng = np.random.default_rng(12)
    q = rng.normal(size=(5, 4))
    w = attention_weights(q, q, causal=True)
    upper = np.triu_indices(5, k=1)
    np.testing.assert_allclose(w[upper], 0.0, atol=0)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=1e-12)


def test_scaled_dot_attention_matches_direct_computation():
    rng = np.random.default_rng(13)
    for _ in range(5):
        q = rng.normal(size=(4, 6))
        k = rng.normal(size=(7, 6))
        v = rng.normal(size=(7, 3))
        scores = q @ k.T / np.sqrt(6)
        shifted = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = shifted / shifted.sum(axis=-1, keepdims=True)
        expected = weights @ v
        np.testing.assert_allclose(ad.attention(q, k, v, 1, None).value, expected, rtol=1e-12)


def test_scaled_dot_attention_uniform_when_queries_are_zero():
    rng = np.random.default_rng(14)
    k = rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 2))
    out = ad.attention(np.zeros((3, 4)), k, v, 1, None).value
    np.testing.assert_allclose(out, np.broadcast_to(v.mean(axis=0), (3, 2)), rtol=1e-12)


def test_scaled_dot_attention_shape_guards():
    rng = np.random.default_rng(16)
    with pytest.raises(ShapeError):
        ad.attention(rng.normal(size=(3, 4)), rng.normal(size=(3, 5)), rng.normal(size=(3, 2)), 1, None)
    with pytest.raises(ShapeError):
        ad.attention(rng.normal(size=(3, 4)), rng.normal(size=(5, 4)), rng.normal(size=(4, 2)), 1, None)


def test_causal_suffix_queries_match_rows_of_the_square_case():
    """The newest tq queries against all tk keys see what they see in the full pass."""
    rng = np.random.default_rng(31)
    q, k, v = (rng.normal(size=(2, 6, 4)) for _ in range(3))
    weights = attention_weights(q, k, causal=True)
    out = ad.attention(q, k, v, 1, _causal_mask(6, 6)).value
    for tq in range(1, 7):
        np.testing.assert_allclose(attention_weights(q[:, -tq:], k, causal=True), weights[:, -tq:], rtol=0, atol=1e-15)
        suffix = ad.attention(q[:, -tq:], k, v, 1, _causal_mask(tq, 6)).value
        np.testing.assert_allclose(suffix, out[:, -tq:], rtol=0, atol=1e-14)


def _attention_store(rng, d, prefix=""):
    store = ParamStore()
    for name in ("wq", "wk", "wv", "wo"):
        store.add(prefix + name, rng.normal(scale=0.3, size=(d, d)))
    return store


def test_multi_head_attention_single_head_identity_projections():
    rng = np.random.default_rng(17)
    store = ParamStore()
    for name in ("wq", "wk", "wv", "wo"):
        store.add(name, np.eye(8))
    x = rng.normal(size=(2, 5, 8))
    out = multi_head_attention(x, store, head_count=1)
    assert isinstance(out, Tensor)  # array input, Tensor output
    np.testing.assert_allclose(out.value, ad.attention(x, x, x, 1, None).value, rtol=1e-13)


def test_multi_head_attention_is_permutation_equivariant():
    rng = np.random.default_rng(18)
    store = _attention_store(rng, 8)
    x = rng.normal(size=(1, 6, 8))
    perm = rng.permutation(6)
    out = multi_head_attention(x, store, head_count=2).value
    permuted = multi_head_attention(x[:, perm], store, head_count=2).value
    np.testing.assert_allclose(permuted, out[:, perm], rtol=1e-10, atol=1e-12)


def test_cached_layer_extends_self_attention_and_reuses_cross_keys():
    """The decoder's array step, one position at a time, against the taped
    attention over every position; its keys and values go into buffers."""
    rng = np.random.default_rng(32)
    model = TransformerForecaster(TINY, init_seed=0)
    store = model.params
    for name in ("wq", "wk", "wv", "wo"):
        for kind in ("self.", "cross."):
            store.get("dec0." + kind + name).value[...] = rng.normal(scale=0.3, size=(8, 8))
    x = rng.normal(size=(3, 5, 8))
    source = rng.normal(size=(3, 7, 8))
    full = multi_head_attention(x, store, head_count=2, causal=True, prefix="dec0.self.").value
    cross = multi_head_attention(x, store, head_count=2, kv=source, prefix="dec0.cross.").value
    layer = _CachedLayer(store, "dec0.", TINY, source, steps=5)
    keys = layer.cross_keys
    for t in range(5):
        step = layer.self_attention(x[:, t], t)
        np.testing.assert_allclose(step, full[:, t], rtol=0, atol=1e-14)
        assert layer.keys.shape == (3, 5, 8)  # projected keys, heads not split
        np.testing.assert_allclose(layer.keys[:, : t + 1], x[:, : t + 1] @ store.get("dec0.self.wk").value,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(layer.values[:, : t + 1], x[:, : t + 1] @ store.get("dec0.self.wv").value,
                                   rtol=0, atol=1e-14)
        step = layer.cross_attention(x[:, t], t)
        np.testing.assert_allclose(step, cross[:, t], rtol=0, atol=1e-14)
        assert layer.cross_keys is keys


def test_multi_head_attention_head_count_guard():
    rng = np.random.default_rng(19)
    store = _attention_store(rng, 8)
    with pytest.raises(ConfigError):
        multi_head_attention(rng.normal(size=(1, 4, 8)), store, head_count=3)
    with pytest.raises(ShapeError):
        multi_head_attention(rng.normal(size=(4, 8)), store, head_count=2)


def test_config_validation():
    with pytest.raises(ConfigError):
        TransformerConfig(d_model=30, head_count=4)
    with pytest.raises(ConfigError):
        TransformerConfig(d_model=7, head_count=7)
    with pytest.raises(ConfigError):
        TransformerConfig(conv_kernel_width=4)
    with pytest.raises(ConfigError):
        TransformerConfig(pool_range=2)
    with pytest.raises(ConfigError):
        TransformerConfig(encoder_layers=0)


@pytest.mark.parametrize("value", [True, 24.0, "2"], ids=["bool", "float", "text"])
@pytest.mark.parametrize("field", ["d_model", "context_length", "horizon_length", "pool_range"])
def test_config_fields_must_be_integers(field, value):
    """`True` once loaded as a one-value context; 24.0 or "2" failed later, inside numpy."""
    with pytest.raises(ConfigError, match=f"{field} must be an integer, got {value!r}"):
        TransformerConfig(**{field: value})
    assert TransformerConfig(**{field: np.int64(3 if field == "pool_range" else 4)})  # numpy integers pass


def test_config_round_trip():
    cfg = TransformerConfig(d_model=16, head_count=2, context_length=18, horizon_length=4)
    assert TransformerConfig.from_dict(cfg.to_dict()) == cfg


def teacher_forced(model, context, seed):
    """One-shot decode of the horizon_length values that follow `seed` (teacher forcing)."""
    with no_grad():
        return model._head(model._decode(seed, model._encode(context))).value


def test_decoder_is_strictly_causal():
    """Changing teacher-forced input j leaves predictions up to step j untouched."""
    model = TransformerForecaster(TINY, init_seed=3)
    rng = np.random.default_rng(20)
    context = rng.normal(size=(2, 12))
    seed = rng.normal(size=(2, 2))
    base = teacher_forced(model, context, seed)
    for j in range(2):
        bumped = seed.copy()
        bumped[:, j] += 1.0
        out = teacher_forced(model, context, bumped)
        assert np.array_equal(out[:, : j + 1], base[:, : j + 1])
        assert not np.array_equal(out[:, j + 1 :], base[:, j + 1 :])


def test_autoregressive_decode_matches_teacher_forcing_on_own_outputs():
    model = TransformerForecaster(TINY, init_seed=4)
    rng = np.random.default_rng(21)
    context = rng.normal(size=(3, 12))
    generated = model._generate(context, TINY.horizon_length)
    replayed = teacher_forced(model, context, generated[:, :-1])
    np.testing.assert_allclose(replayed, generated, rtol=1e-10)


def test_forecast_guards():
    model = TransformerForecaster(TINY, init_seed=7)
    history = np.linspace(0.0, 1.0, 20)
    with pytest.raises(StateError):
        model.forecast(history, 3)
    model.set_normalizer(NormalizationParams(0.0, 1.0))
    with pytest.raises(ConfigError):
        model.forecast(history, 0)
    with pytest.raises(InsufficientDataError):
        model.forecast(history[:5], 3)
    for rows in (history, history[None, None, :]):  # forecast_batch takes (B, T) only
        with pytest.raises(ShapeError):
            model.forecast_batch(rows, 3)


@pytest.mark.parametrize("horizon", [2.5, True, "3", 3.0], ids=["fraction", "bool", "text", "whole_float"])
def test_forecast_horizon_must_be_an_integer(horizon):
    """2.5 failed inside `range` with a bare TypeError, and True forecast one hour."""
    model = TransformerForecaster(TINY, init_seed=7)
    model.set_normalizer(NormalizationParams(0.0, 1.0))
    with pytest.raises(ConfigError, match=f"horizon_hours must be an integer, got {horizon!r}"):
        model.forecast(np.linspace(0.0, 1.0, 20), horizon)
    assert model.forecast_batch(np.zeros((2, 12)), np.int64(2)).shape == (2, 2)  # numpy integers pass


def test_forecast_batch_of_no_rows_is_empty():
    """The encoder passes once concatenated an empty list and raised numpy's ValueError."""
    model = TransformerForecaster(TINY, init_seed=7)
    model.set_normalizer(NormalizationParams(0.0, 1.0))
    for horizon in (1, 5):
        forecast = model.forecast_batch(np.zeros((0, 15)), horizon)
        assert forecast.shape == (0, horizon) and forecast.dtype == np.float64
    with pytest.raises(InsufficientDataError):
        model.forecast_batch(np.zeros((0, 5)), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "neg_inf"])
def test_forecast_batch_rejects_non_finite_contexts(bad):
    """A NaN in the context once came back as an all-NaN forecast with no warning."""
    model = TransformerForecaster(TINY, init_seed=7)
    model.set_normalizer(NormalizationParams(0.0, 1.0))
    histories = np.random.default_rng(0).uniform(size=(4, 20))
    histories[2, -3] = bad
    histories[3, -1] = bad
    with pytest.raises(DataError, match="history row 2 holds a non-finite value in its last 12 points"):
        model.forecast_batch(histories, 3)
    with pytest.raises(DataError, match="history row 0 "):
        model.forecast(histories[3], 3)
    histories[2:, -12:] = 0.5  # the columns before the context are not read
    histories[:, 0] = bad
    assert np.isfinite(model.forecast_batch(histories, 3)).all()


def test_forecast_recursion_consistent_across_chunking():
    """One long forecast equals forecasting in native-horizon chunks."""
    model = pretrained_tiny(seed=1)
    rng = np.random.default_rng(24)
    history = rng.uniform(0.2, 0.9, size=(2, 30))
    model.set_normalizer(NormalizationParams(0.0, 1.0))
    full = model.forecast_batch(history, 8)
    first = model.forecast_batch(history, 3)
    extended = np.concatenate([history, first], axis=1)
    rest = model.forecast_batch(extended, 5)
    np.testing.assert_allclose(full, np.concatenate([first, rest], axis=1), rtol=1e-12)


def test_forecast_uses_normalizer_round_trip():
    model = pretrained_tiny(seed=2)
    shifted = NormalizationParams(10.0, 14.0)
    model.set_normalizer(shifted)
    rng = np.random.default_rng(25)
    base = rng.uniform(0.0, 1.0, size=(1, 16))
    raw = model.forecast_batch(10.0 + 4.0 * base, 3)
    model.set_normalizer(NormalizationParams(0.0, 1.0))
    unit = model.forecast_batch(base, 3)
    np.testing.assert_allclose(raw, 10.0 + 4.0 * unit, rtol=1e-10)


def test_pretrain_reduces_training_loss():
    model = TransformerForecaster(TINY, init_seed=0)
    curve = model.pretrain(tiny_corpus(), epochs=3, learning_rate=1e-3, seed=0, batch_size=32)
    assert len(curve) == 3
    assert curve[-1] < curve[0]
    assert model.trained == "pretrained"


def test_pretrain_guards():
    model = TransformerForecaster(TINY, init_seed=0)
    with pytest.raises(InsufficientDataError):
        model.pretrain([], epochs=1)
    stub = TimeSeries(datetime(2024, 1, 1), np.linspace(0.0, 1.0, 10), name="short")
    with pytest.raises(InsufficientDataError):
        model.pretrain([stub], epochs=1)


def test_pretrain_is_deterministic():
    a = TransformerForecaster(TINY, init_seed=9)
    b = TransformerForecaster(TINY, init_seed=9)
    curve_a = a.pretrain(tiny_corpus(), epochs=2, seed=5, batch_size=32)
    curve_b = b.pretrain(tiny_corpus(), epochs=2, seed=5, batch_size=32)
    assert curve_a == curve_b
    assert a.state_hash() == b.state_hash()


def test_pretrain_at_the_conftest_shape_is_deterministic():
    """Default config, batch 256, trend_seasonal left out: the shape of the conftest PRETRAIN_RECIPE."""
    corpus = build_corpus(2, master_seed=3, series_length=256 + 29, exclude_families=("trend_seasonal",))
    hashes = []
    for _ in range(2):
        model = TransformerForecaster(TransformerConfig(), init_seed=4)
        model.pretrain(corpus, epochs=1, learning_rate=1e-3, seed=6, batch_size=256)
        hashes.append(model.state_hash())
    assert hashes[0] == hashes[1]


def test_fine_tune_requires_pretrained_state():
    model = TransformerForecaster(TINY, init_seed=0)
    series = generate_series(GeneratorSpec(family="seasonal", length=64, period=12, seed=2))
    with pytest.raises(StateError):
        model.fine_tune(series, epochs=1)


def test_fine_tune_updates_state_and_normalizer():
    model = pretrained_tiny(seed=3)
    series = generate_series(GeneratorSpec(family="seasonal", length=64, period=12, seed=3))
    before = model.state_hash()
    curve = model.fine_tune(series, epochs=3, seed=1)
    expected = fit_normalizer(series)
    assert model.trained == "fine_tuned"
    assert model.state_hash() != before
    assert 1 <= len(curve) <= 3
    np.testing.assert_allclose(
        [model.normalizer.min_value, model.normalizer.max_value],
        [expected.min_value, expected.max_value],
        rtol=0,
    )


def test_fine_tune_insufficient_history_guard():
    model = pretrained_tiny(seed=4)
    with pytest.raises(InsufficientDataError):
        model.fine_tune(np.linspace(0.0, 1.0, 12), epochs=1)


@pytest.mark.parametrize("bad", [{"epochs": -1}, {"epochs": 1.5}, {"learning_rate": np.nan}, {"learning_rate": -1.0}],
                         ids=["negative_epochs", "fractional_epochs", "nan_rate", "negative_rate"])
def test_a_failed_fine_tune_leaves_the_model_unchanged(bad):
    """The target's normalizer once replaced the model's before training checked its arguments."""
    model = pretrained_tiny(seed=5)
    normalizer, weights = model.normalizer, model.state_hash()
    series = generate_series(GeneratorSpec(family="seasonal", length=64, period=12, seed=5))
    with pytest.raises(ConfigError):
        model.fine_tune(series, **{"epochs": 1, **bad})
    assert model.normalizer is normalizer
    assert model.state_hash() == weights and model.trained == "pretrained"


def test_zero_shot_forecast_never_mutates_weights():
    model = pretrained_tiny(seed=5)
    model.set_normalizer(NormalizationParams(0.0, 1.0))
    before = model.state_hash()
    rng = np.random.default_rng(26)
    model.forecast_batch(rng.uniform(size=(4, 20)), 6)
    model.forecast(rng.uniform(size=12), 3)
    assert model.state_hash() == before


def test_clone_is_independent():
    model = pretrained_tiny(seed=6)
    twin = model.clone()
    assert twin.state_hash() == model.state_hash()
    series = generate_series(GeneratorSpec(family="seasonal", length=64, period=12, seed=4))
    original = model.state_hash()
    twin.fine_tune(series, epochs=2, seed=0)
    assert model.state_hash() == original
    assert twin.state_hash() != original


def test_save_load_round_trip(tmp_path):
    model = pretrained_tiny(seed=7)
    series = generate_series(GeneratorSpec(family="seasonal", length=64, period=12, seed=5))
    model.fine_tune(series, epochs=2, seed=2)
    path = str(tmp_path / "model.bin")
    model.save(path)
    loaded = TransformerForecaster.load(path)
    assert loaded.state_hash() == model.state_hash()
    assert loaded.config == model.config
    assert loaded.trained == "fine_tuned"
    rng = np.random.default_rng(27)
    history = rng.uniform(0.1, 0.9, size=(2, 18))
    np.testing.assert_allclose(
        loaded.forecast_batch(history, 4), model.forecast_batch(history, 4), rtol=0, atol=0
    )


def _reference_sidecar(model) -> bytes:
    """Reference sidecar writer, its field list written out in full."""
    sidecar = {
        "config": model.config.to_dict(),
        "normalizer": model.normalizer.to_dict() if model.normalizer else None,
        "trained": model.trained,
        "pretrain_learning_rate": model.pretrain_learning_rate,
        "provenance": model.provenance,
    }
    return (json.dumps(sidecar, indent=2, sort_keys=True) + "\n").encode("utf-8")


def test_clone_and_save_load_rebuild_the_same_model(tmp_path):
    untrained = TransformerForecaster(TINY, init_seed=9)
    tuned = pretrained_tiny(seed=9)
    tuned.fine_tune(generate_series(GeneratorSpec(family="seasonal", length=64, period=12, seed=6)),
                    epochs=1, seed=3)
    for name, model in (("untrained", untrained), ("tuned", tuned)):
        path = str(tmp_path / f"{name}.bin")
        model.save(path)
        with open(path + ".json", "rb") as fh:
            assert fh.read() == _reference_sidecar(model)
        for copy in (TransformerForecaster.load(path), model.clone()):
            assert copy.state_hash() == model.state_hash()
            assert copy.normalizer == model.normalizer
            assert copy.trained == model.trained
            assert copy.pretrain_learning_rate == model.pretrain_learning_rate
            assert copy.provenance == model.provenance
            assert copy.config == model.config


def test_load_missing_sidecar_raises(tmp_path):
    model = pretrained_tiny(seed=8)
    path = str(tmp_path / "model.bin")
    model.save(path)
    (tmp_path / "model.bin.json").unlink()
    with pytest.raises(StateError):
        TransformerForecaster.load(path)


@pytest.mark.parametrize("field, value", [("context_length", True), ("context_length", 24.0), ("horizon_length", 6.5)])
def test_load_rejects_a_sidecar_config_field_that_is_not_an_integer(tmp_path, field, value):
    path = str(tmp_path / "model.bin")
    TransformerForecaster(TINY, init_seed=0).save(path)
    with open(path + ".json", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    sidecar["config"][field] = value
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh)
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        TransformerForecaster.load(path)
