"""Tests for the autodiff substrate: tensors, layers, Adam, and gradient checks."""

import contextlib
import ctypes
import inspect
import os
import platform
import struct
import subprocess
import sys
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest

import loadcast
import loadcast.nn.autodiff as ad
from loadcast.baselines import MLPModel
from loadcast.corpus import GeneratorSpec, generate_series
from loadcast.errors import ConfigError, DataError, NumericError, ShapeError, StateError
from loadcast.nn import (
    ParamStore,
    Tensor,
    adam_update,
    conv_pool_forward,
    glorot_init,
    grad_check,
    layer_norm,
    no_grad,
    residual_wrap,
    train_minibatch,
)
from loadcast.nn import adam
from loadcast.nn.adam import BETA1, BETA2, EPSILON, EARLY_STOP_PATIENCE
from loadcast import transformer
from loadcast.series import SupervisedWindowSet
from loadcast.transformer import TransformerConfig, TransformerForecaster


def _numeric_grad(fn, x, h=1e-6):
    """Central-difference gradient of a scalar function of one array."""
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    for i in range(flat_x.size):
        keep = flat_x[i]
        flat_x[i] = keep + h
        up = fn(x)
        flat_x[i] = keep - h
        down = fn(x)
        flat_x[i] = keep
        flat_g[i] = (up - down) / (2.0 * h)
    return grad


def _check_op(build, shape, seed, atol=1e-6):
    """Compare the backward pass against central differences for one op."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, size=shape)
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    loss = ad.tsum(ad.mul(out, out))
    loss.backward()

    def scalar(arr):
        val = build(Tensor(arr.copy())).value
        return float(np.sum(val * val))

    np.testing.assert_allclose(t.grad, _numeric_grad(scalar, x), atol=atol)


def test_elementwise_op_gradients():
    for seed, build in enumerate(
        [
            lambda t: ad.add(t, 2.0),
            lambda t: ad.sub(3.0, t),
            lambda t: ad.mul(t, -1.5),
            lambda t: ad.scale(t, 0.3),
            ad.relu,
            ad.sigmoid,
            ad.tanh,
            ad.exp,
        ]
    ):
        _check_op(build, (4, 3), seed)


def test_sigmoid_matches_three_exp_formula_bitwise():
    """The single-exp sigmoid equals the old form that evaluated exp(-|x|) three times."""

    def three_exp(x):
        return np.where(
            x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x)))
        )

    rng = np.random.default_rng(16)
    tiny = np.finfo(np.float64).tiny
    edges = [750.0, -750.0, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, tiny / 3, -tiny / 3, 36.7, -36.7]
    x = np.concatenate([edges, rng.normal(0.0, 30.0, size=100_000)])
    expected = three_exp(x)
    np.testing.assert_array_equal(ad.sigmoid(x).value.view(np.int64), expected.view(np.int64))
    in_place = x.copy()
    ad._sigmoid(in_place, out=in_place, work=np.empty_like(x))
    np.testing.assert_array_equal(in_place.view(np.int64), expected.view(np.int64))


def test_index_gradient_scatters_back():
    _check_op(lambda t: ad.index(t, (slice(None), -1)), (4, 3), 13)
    x = Tensor(np.arange(5.0), requires_grad=True)
    ad.tsum(ad.index(x, np.array([1, 1, 3]))).backward()
    np.testing.assert_array_equal(x.grad, [0.0, 2.0, 0.0, 1.0, 0.0])


def test_log_gradient_on_positive_input():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.5, 2.0, size=(3, 3))
    t = Tensor(x.copy(), requires_grad=True)
    ad.tsum(ad.log(t)).backward()
    np.testing.assert_allclose(t.grad, 1.0 / x, atol=1e-12)


def test_matmul_gradients():
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    loss = ad.tsum(ad.matmul(a, b))
    loss.backward()
    np.testing.assert_allclose(a.grad, np.ones((4, 5)) @ b.value.T, atol=1e-12)
    np.testing.assert_allclose(b.grad, a.value.T @ np.ones((4, 5)), atol=1e-12)


def test_broadcast_gradient_folds_back():
    """A (1, n) bias added to an (m, n) matrix accumulates over rows."""
    bias = Tensor(np.zeros((1, 4)), requires_grad=True)
    x = Tensor(np.ones((5, 4)))
    ad.tsum(ad.add(x, bias)).backward()
    np.testing.assert_array_equal(bias.grad, np.full((1, 4), 5.0))


def test_reduction_and_shape_op_gradients():
    _check_op(lambda t: ad.tsum(t, axis=0, keepdims=True), (4, 3), 10)
    _check_op(lambda t: ad.mean(t, axis=1, keepdims=True), (4, 3), 11)
    _check_op(lambda t: ad.reshape(t, (3, 4)), (4, 3), 12)
    _check_op(lambda t: ad.transpose(t, (1, 0)), (4, 3), 13)
    _check_op(lambda t: ad.concat([t, ad.mul(t, 2.0)], axis=-1), (4, 3), 14)


def test_softmax_rows_sum_to_one_and_grad():
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 2.0, size=(6, 5))
    out = ad.softmax(Tensor(x))
    np.testing.assert_allclose(out.value.sum(axis=-1), np.ones(6), atol=1e-12)
    _check_op(ad.softmax, (4, 5), 15)


def test_softmax_mask_zeroes_banned_positions():
    x = np.zeros((2, 3, 3))
    keep = np.tril(np.ones((3, 3), dtype=bool))  # True = may attend
    out = ad.softmax(Tensor(x), mask=keep).value
    assert np.all(out[:, ~keep] == 0.0)
    np.testing.assert_allclose(out.sum(axis=-1), np.ones((2, 3)), atol=1e-12)
    # row 0 can only attend to itself
    np.testing.assert_allclose(out[:, 0, 0], np.ones(2), atol=1e-12)


def test_layer_norm_statistics_and_grad():
    rng = np.random.default_rng(4)
    x = rng.normal(3.0, 2.5, size=(7, 8))
    gamma = Tensor(np.ones((1, 8)))
    beta = Tensor(np.zeros((1, 8)))
    out = ad.layer_norm(Tensor(x), gamma, beta).value
    np.testing.assert_allclose(out.mean(axis=-1), np.zeros(7), atol=1e-9)
    np.testing.assert_allclose(out.var(axis=-1), np.ones(7), atol=1e-4)
    g6, b6 = Tensor(np.ones((1, 6))), Tensor(np.zeros((1, 6)))
    _check_op(lambda t: ad.layer_norm(t, g6, b6), (5, 6), 16, atol=1e-5)


def test_layer_norm_affine_parameters_receive_gradients():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(4, 6)))
    gamma = Tensor(rng.normal(size=(1, 6)), requires_grad=True)
    beta = Tensor(rng.normal(size=(1, 6)), requires_grad=True)
    ad.tsum(ad.layer_norm(x, gamma, beta)).backward()
    assert gamma.grad is not None and np.any(gamma.grad != 0.0)
    np.testing.assert_allclose(beta.grad, np.full((1, 6), 4.0), atol=1e-12)


def test_conv1d_same_known_values():
    """[1,2,3] filtered by [0,1,1] under zero padding gives [3,5,3]."""
    x = Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1))
    w = Tensor(np.array([0.0, 1.0, 1.0]).reshape(3, 1, 1))
    b = Tensor(np.zeros((1, 1)))
    out = ad.conv1d_same(x, w, b).value
    np.testing.assert_allclose(out.ravel(), [3.0, 5.0, 3.0], atol=1e-12)


def test_conv_and_pool_gradients():
    rng = np.random.default_rng(6)
    w = Tensor(rng.normal(size=(3, 2, 2)))
    b = Tensor(rng.normal(size=(1, 2)))
    _check_op(lambda t: ad.conv1d_same(t, w, b), (2, 6, 2), 17, atol=1e-5)
    _check_op(lambda t: ad.conv1d_same(t, w, b, causal=True), (2, 6, 2), 18, atol=1e-5)
    _check_op(lambda t: ad.maxpool1d_same(t, 3), (2, 7, 2), 19, atol=1e-5)
    _check_op(lambda t: ad.maxpool1d_same(t, 3, causal=True), (2, 7, 2), 20, atol=1e-5)


def test_causal_conv_ignores_the_future():
    rng = np.random.default_rng(7)
    w = Tensor(rng.normal(size=(3, 1, 1)))
    b = Tensor(np.zeros((1, 1)))
    x = rng.normal(size=(1, 8, 1))
    y = x.copy()
    y[0, 5:, 0] += 10.0
    out_x = ad.conv1d_same(Tensor(x), w, b, causal=True).value
    out_y = ad.conv1d_same(Tensor(y), w, b, causal=True).value
    np.testing.assert_array_equal(out_x[0, :5, 0], out_y[0, :5, 0])
    pool_x = ad.maxpool1d_same(Tensor(x), 3, causal=True).value
    pool_y = ad.maxpool1d_same(Tensor(y), 3, causal=True).value
    np.testing.assert_array_equal(pool_x[0, :5, 0], pool_y[0, :5, 0])


def test_mse_matches_definition():
    rng = np.random.default_rng(8)
    p = rng.normal(size=(5, 3))
    t = rng.normal(size=(5, 3))
    out = ad.mse(Tensor(p), t)
    np.testing.assert_allclose(out.value, np.mean((p - t) ** 2), atol=1e-12)
    pred = Tensor(p.copy(), requires_grad=True)
    ad.mse(pred, t).backward()
    np.testing.assert_allclose(pred.grad, 2.0 * (p - t) / p.size, atol=1e-12)


def test_no_grad_blocks_graph_building():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        out = ad.mul(x, 3.0)
    assert out._parents == ()
    y = ad.mul(x, 3.0)
    assert y._parents != ()


def test_backward_survives_very_deep_chains():
    """The iterative traversal must not hit the recursion limit."""
    x = Tensor(np.array([[1.0]]), requires_grad=True)
    out = x
    for _ in range(5000):
        out = ad.add(out, 1.0)
    ad.tsum(out).backward()
    np.testing.assert_allclose(x.grad, [[1.0]])


def test_polymorphic_ops_return_plain_arrays_for_plain_inputs():
    x = np.random.default_rng(9).normal(size=(3, 4))
    gamma, beta = np.ones((1, 4)), np.zeros((1, 4))
    out = layer_norm(x, gamma, beta)
    assert isinstance(out, np.ndarray)
    assert isinstance(layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)), Tensor)


def test_residual_wrap_identity_and_shape_guard():
    x = np.random.default_rng(10).normal(size=(4, 5))
    np.testing.assert_array_equal(residual_wrap(np.zeros_like(x), x), x)
    with pytest.raises(ShapeError):
        residual_wrap(np.zeros((4, 4)), x)


def test_conv_pool_forward_preserves_length():
    rng = np.random.default_rng(11)
    for seed in range(4):
        t = int(np.random.default_rng(seed).integers(4, 12))
        x = rng.normal(size=(2, t, 3))
        w = rng.normal(size=(3, 3, 3))
        b = rng.normal(size=(1, 3))
        out = conv_pool_forward(x, w, b, pool_range=3)
        assert out.shape == (2, t, 3)


def test_param_store_round_trip_and_hash(tmp_path):
    rng = np.random.default_rng(12)
    store = ParamStore()
    store.add("layer.w", rng.normal(size=(4, 3)))
    store.add("layer.b", np.zeros((1, 3)))
    digest = store.state_hash()
    path = str(tmp_path / "weights.bin")
    store.save(path)
    loaded = ParamStore.load(path)
    assert loaded.state_hash() == digest
    np.testing.assert_array_equal(loaded.get("layer.w").value, store.get("layer.w").value)
    store.get("layer.w").value[0, 0] += 1.0
    assert store.state_hash() != digest


def test_param_store_load_rejects_a_name_that_is_not_utf8(tmp_path):
    path = tmp_path / "weights.bin"
    path.write_bytes(b"SLNN" + struct.pack("<II", 1, 1) + b"\xff" + struct.pack("<II", 1, 1) + bytes(8))
    with pytest.raises(DataError, match="not UTF-8"):
        ParamStore.load(str(path))


def test_param_store_rejects_shape_mismatch_on_load():
    a = ParamStore()
    a.add("w", np.zeros((2, 2)))
    b = ParamStore()
    b.add("w", np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        a.load_values_from(b)


def test_glorot_init_scale():
    rng = np.random.default_rng(13)
    w = glorot_init(rng, 400, 400, (400, 400))
    bound = np.sqrt(6.0 / 800.0)
    assert float(np.max(np.abs(w))) <= bound + 1e-12
    assert float(np.std(w)) > 0.3 * bound


def test_adam_update_matches_hand_computation():
    store = ParamStore()
    store.add("w", np.array([[1.0, -2.0]]))
    p = store.get("w")
    grad = np.array([[0.5, -1.5]])
    p.grad[...] = grad
    adam_update(store, learning_rate=0.1, step=1)
    m = (1 - BETA1) * grad / (1 - BETA1)
    v = (1 - BETA2) * grad**2 / (1 - BETA2)
    expected = np.array([[1.0, -2.0]]) - 0.1 * m / (np.sqrt(v) + EPSILON)
    np.testing.assert_allclose(p.value, expected, atol=1e-12)
    np.testing.assert_array_equal(p.grad, np.zeros((1, 2)))


def test_adam_two_steps_track_moments():
    store = ParamStore()
    store.add("w", np.array([[0.0]]))
    p = store.get("w")
    m = v = 0.0
    value = 0.0
    for step in (1, 2):
        g = float(step)
        p.grad[...] = g
        adam_update(store, learning_rate=0.01, step=step)
        m = BETA1 * m + (1 - BETA1) * g
        v = BETA2 * v + (1 - BETA2) * g * g
        mh = m / (1 - BETA1**step)
        vh = v / (1 - BETA2**step)
        value -= 0.01 * mh / (np.sqrt(vh) + EPSILON)
    np.testing.assert_allclose(p.value, [[value]], atol=1e-15)


def _adam_allocating(params, learning_rate, step):
    """The formula adam_update computes in place, written with temporaries."""
    correction1 = 1.0 - BETA1**step
    correction2 = 1.0 - BETA2**step
    for param in params:
        grad = param.grad
        param.m[...] = BETA1 * param.m + (1.0 - BETA1) * grad
        param.v[...] = BETA2 * param.v + (1.0 - BETA2) * grad * grad
        m_hat = param.m / correction1
        v_hat = param.v / correction2
        param.value[...] -= learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
        param.grad[...] = 0.0


def test_adam_update_is_bitwise_the_allocating_formula():
    rng = np.random.default_rng(14)
    fast, slow = ParamStore(), ParamStore()
    for i, shape in enumerate([(1, 1), (1, 7), (5, 3), (32, 32), (96, 32), (1, 4)]):
        value = rng.normal(size=shape)
        fast.add(f"p{i}", value)
        slow.add(f"p{i}", value)
    for step in range(1, 6):
        for a, b in zip(fast, slow):
            grad = rng.normal(scale=10.0 ** rng.integers(-8, 3), size=a.shape)
            grad[rng.random(a.shape) < 0.2] = 0.0
            a.grad[...] = grad
            b.grad[...] = grad
        adam_update(fast, learning_rate=1e-3 * step, step=step)
        _adam_allocating(slow, learning_rate=1e-3 * step, step=step)
        for a, b in zip(fast, slow):
            for buffer in ("value", "m", "v", "grad"):
                assert np.array_equal(getattr(a, buffer), getattr(b, buffer)), (a.name, buffer, step)


def test_adam_guards():
    store = ParamStore()
    store.add("w", np.zeros((1, 1)))
    before = store.state_hash()
    for rate in (0.0, np.nan, np.inf):  # a NaN or infinite rate would write non-finite weights
        with pytest.raises(ConfigError, match="learning rate"):
            adam_update(store, learning_rate=rate, step=1)
    assert store.state_hash() == before
    with pytest.raises(ConfigError):
        adam_update(store, learning_rate=0.1, step=0)
    store.get("w").grad[...] = np.inf
    with pytest.raises(NumericError) as err:
        adam_update(store, learning_rate=0.1, step=1)
    assert "w" in str(err.value)


def test_adam_update_checks_every_gradient_before_writing():
    store = ParamStore()
    store.add("a", np.ones((1, 2)))
    store.add("b", np.ones((2, 2)))
    store.add("c", np.ones((1, 1)))
    store.get("a").grad[...] = 1.0
    store.get("b").grad[0, 1] = np.nan
    store.get("c").grad[...] = np.inf
    before = store.state_hash()
    buffers = {(p.name, kind): getattr(p, kind).copy() for p in store for kind in ("grad", "m", "v")}
    with pytest.raises(NumericError) as err:
        adam_update(store, learning_rate=0.1, step=1)
    assert "'b'" in str(err.value)
    assert store.state_hash() == before
    for (name, kind), copy in buffers.items():
        assert np.array_equal(getattr(store.get(name), kind), copy, equal_nan=True), (name, kind)


def _flat_views_hold(store):
    """Every Param buffer is a view into the store's flat array of its kind, laid out in order."""
    offset = 0
    for param in store:
        for kind in ("value", "grad", "m", "v"):
            flat, view = getattr(store, kind), getattr(param, kind)
            assert view.flags.c_contiguous and view.shape == param.shape, (param.name, kind)
            assert np.shares_memory(view, flat[offset : offset + view.size]), (param.name, kind)
            assert not np.shares_memory(view, flat[:offset]), (param.name, kind)
            assert not np.shares_memory(view, flat[offset + view.size :]), (param.name, kind)
        offset += param.value.size
    assert all(getattr(store, kind).size == offset for kind in ("value", "grad", "m", "v"))
    return True


def test_param_store_buffers_are_views_into_flat_arrays(tmp_path):
    rng = np.random.default_rng(21)
    store = ParamStore()
    first = store.add("a", rng.normal(size=(3, 2)))
    first.grad[...] = 2.0
    first.m[...] = 0.5
    values = {"a": first.value.copy()}
    for name, shape in (("b", (1, 4)), ("d", (1, 1)), ("c", (5, 5))):  # "d" fits in spare room
        values[name] = rng.normal(size=shape)
        store.add(name, values[name])
        assert _flat_views_hold(store)
    # A growing add moves every buffer into the new flat arrays, contents intact.
    assert store.get("a") is first
    assert np.all(first.grad == 2.0) and np.all(first.m == 0.5) and not store.get("c").m.any()
    for name, value in values.items():
        np.testing.assert_array_equal(store.get(name).value, value)

    path = str(tmp_path / "store.bin")
    store.save(path)
    loaded = ParamStore.load(path)
    assert _flat_views_hold(loaded) and loaded.state_hash() == store.state_hash()

    snapshot = store.snapshot()
    store.value += 1.0
    store.restore(snapshot)
    assert _flat_views_hold(store) and loaded.state_hash() == store.state_hash()
    assert all(not np.shares_memory(array, store.value) for array in snapshot.values())


def test_transformer_clone_store_is_flat():
    model = TransformerForecaster(TransformerConfig(d_model=8, head_count=2, encoder_layers=1,
                                                    decoder_layers=1), init_seed=3)
    twin = model.clone()
    assert _flat_views_hold(twin.params) and twin.state_hash() == model.state_hash()
    assert not np.shares_memory(twin.params.value, model.params.value)


def test_tensor_from_store_sees_the_next_adam_step():
    store = ParamStore()
    store.add("w", np.array([[1.0, -2.0]]))
    store.add("b", np.array([[0.5]]))
    w = store.tensor("w")
    ad.tsum(ad.mul(w, np.array([[3.0, -1.0]]))).backward()
    assert w.grad is store.get("w").grad
    np.testing.assert_array_equal(store.grad, [3.0, -1.0, 0.0])
    adam_update(store, learning_rate=0.1, step=1)
    np.testing.assert_allclose(w.value, [[0.9, -1.9]], rtol=1e-8)  # lr * g / (|g| + eps)
    assert np.shares_memory(w.value, store.value)


def test_the_allocator_setting_applies_on_glibc():
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("mallopt is glibc's")
    assert ad._keep_freed_memory() is True


def test_the_allocator_setting_is_a_silent_no_op_without_mallopt(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ad._keep_freed_memory() is False


def test_each_step_releases_the_previous_tape_before_the_next_forward():
    rng = np.random.default_rng(4)
    store = ParamStore()
    store.add("w", rng.normal(size=(3, 1)))
    x, y = rng.normal(size=(12, 3)), rng.normal(size=(12, 1))
    roots = []

    def loss_fn(chosen, batch_rows):
        # The root's value is created by its node and held only by the tape.
        assert all(root() is None for root in roots)
        loss = ad.mse(ad.matmul(Tensor(x[chosen]), store.tensor("w")), y[chosen], batch_rows)
        roots.append(weakref.ref(loss.value))
        return loss

    train_minibatch(store, loss_fn, 12, 2, 4, 0.01, np.random.default_rng(0))
    assert len(roots) == 6


def _pretrain_peak_bytes(epochs):
    """tracemalloc's peak over one batch-64 pretrain call on 64 windows."""
    corpus = [generate_series(GeneratorSpec(family="seasonal", length=93, period=24, noise_std=0.05, seed=1))]
    model = TransformerForecaster(TransformerConfig(), init_seed=0)
    tracemalloc.start()
    try:
        model.pretrain(corpus, epochs=epochs, batch_size=64)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_three_training_steps_peak_no_higher_than_one():
    # One tape at a time, in buffers the next step reuses: more steps add no memory.
    one, three = _pretrain_peak_bytes(1), _pretrain_peak_bytes(3)
    assert three <= 1.1 * one, (three, one)


def _pretrain_peak_and_pass_tape(monkeypatch, length, epochs, batch):
    """tracemalloc's peak over one pretrain call on a `length`-point series,
    and the bytes one forward pass's tape holds at its shape."""
    tapes = []
    train = transformer.train_minibatch

    def measured_train(params, loss_fn, sample_count, epochs, batch, *rest, **options):
        rows = min(batch, sample_count, adam.PASS_ROWS)
        held = tracemalloc.get_traced_memory()[0]
        loss = loss_fn(np.arange(rows), rows)
        tapes.append(tracemalloc.get_traced_memory()[0] - held)
        del loss
        return train(params, loss_fn, sample_count, epochs, batch, *rest, **options)

    monkeypatch.setattr(transformer, "train_minibatch", measured_train)
    corpus = [generate_series(GeneratorSpec(family="seasonal", length=length, period=24, noise_std=0.05, seed=1))]
    model = TransformerForecaster(TransformerConfig(), init_seed=0)
    tracemalloc.start()
    try:
        model.pretrain(corpus, epochs=epochs, batch_size=batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tapes) == 1
    return peak, tapes[0]


def test_pretrain_call_peaks_at_little_more_than_one_forward_tape(monkeypatch):
    # Backward spends each pass's tape, and each pass's loss goes before the
    # next forward run: a call holds about one tape, whatever its steps.
    peak, tape = _pretrain_peak_and_pass_tape(monkeypatch, 93, epochs=3, batch=64)
    assert peak <= 1.3 * tape, (peak, tape)


def test_one_batch_256_pretrain_step_peaks_at_little_more_than_one_pass_tape(monkeypatch):
    # 256 windows, one step: eight 32-row passes, one tape at a time.
    peak, tape = _pretrain_peak_and_pass_tape(monkeypatch, 285, epochs=1, batch=256)
    assert peak <= 1.3 * tape, (peak, tape)


#: One warm batch-256 pretrain step, then the minor page faults of the next
#: one, in a fresh process: the heap then holds only what that work left.
_FAULTS_OF_A_WARM_STEP = """
import resource
from loadcast.corpus import GeneratorSpec, generate_series
from loadcast.transformer import TransformerConfig, TransformerForecaster
corpus = [generate_series(GeneratorSpec(family="seasonal", length=285, period=24, noise_std=0.05, seed=1))]
model = TransformerForecaster(TransformerConfig(), init_seed=0)
model.pretrain(corpus, epochs=1, batch_size=256)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
model.pretrain(corpus, epochs=1, batch_size=256)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_a_warm_batch_256_pretrain_step_faults_few_pages():
    # glibc keeps each pass's freed tape in its heap, so once a step has run,
    # the next one reuses those pages instead of faulting in fresh ones
    # (about 25,000 a step under glibc's defaults).
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the allocator setting is glibc's")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(loadcast.__file__)))
    run = subprocess.run([sys.executable, "-c", _FAULTS_OF_A_WARM_STEP], env=env, capture_output=True,
                         text=True, check=True)
    faults = int(run.stdout)
    assert faults <= 200, faults


def _save_per_param(store, path):
    """The writer before the flat store: one record per Param's own value array."""
    with open(path, "wb") as fh:
        fh.write(b"SLNN")
        fh.write(struct.pack("<I", 1))
        for param in store:
            encoded = param.name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<II", *param.value.shape))
            fh.write(np.ascontiguousarray(param.value, dtype="<f8").tobytes())


def test_param_store_save_bytes_match_the_per_param_writer(tmp_path):
    rng = np.random.default_rng(22)
    store = ParamStore()
    for name, shape in (("enc.w", (4, 3)), ("enc.b", (1, 3)), ("head", (3, 1)), ("one", (1, 1))):
        store.add(name, rng.normal(size=shape))
    store.get("enc.w").grad[...] = rng.normal(size=(4, 3))
    adam_update(store, learning_rate=0.01, step=1)
    flat, reference = tmp_path / "flat.bin", tmp_path / "reference.bin"
    store.save(str(flat))
    _save_per_param(store, str(reference))
    assert flat.read_bytes() == reference.read_bytes()


def _line_problem(seed=0, n=10):
    """A two-parameter store (slope w, intercept b) and its batch-MSE loss_fn."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 1))
    y = 3.0 * x[:, 0] - 1.0 + rng.normal(scale=0.1, size=n)
    store = ParamStore()
    store.add("w", np.array([[0.5]]))
    store.add("b", np.array([[0.0]]))

    def loss_fn(chosen, batch_rows):
        pred = ad.add(ad.matmul(Tensor(x[chosen]), store.tensor("w")), store.tensor("b"))
        return ad.mse(ad.reshape(pred, (len(chosen),)), y[chosen], batch_rows)

    return store, loss_fn, n


def test_train_minibatch_stops_early_and_restores_the_best_epoch():
    store, loss_fn, n = _line_problem()
    script = iter([3.0, 2.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0])
    seen = []

    def validation():
        seen.append(store.snapshot())
        return next(script)

    curve = train_minibatch(store, loss_fn, n, 20, 4, 0.05, np.random.default_rng(1), validation)
    assert EARLY_STOP_PATIENCE == 5
    assert len(curve) == len(seen) == 7  # best at epoch 2, then five stale epochs
    for name, value in seen[1].items():
        assert np.array_equal(store.get(name).value, value)
    assert not np.array_equal(store.get("w").value, seen[-1]["w"])


def test_train_minibatch_without_validation_runs_every_epoch(monkeypatch):
    store, loss_fn, n = _line_problem()
    monkeypatch.setattr(store, "snapshot", lambda: pytest.fail("snapshot without validation"))
    monkeypatch.setattr(store, "restore", lambda state: pytest.fail("restore without validation"))
    steps = []
    monkeypatch.setattr(adam, "adam_update", lambda params, lr, step: steps.append(step))
    curve = train_minibatch(store, loss_fn, n, 6, 4, 0.05, np.random.default_rng(1))
    assert len(curve) == 6
    assert steps == list(range(1, 6 * 3 + 1))  # ceil(10 / 4) = 3 batches an epoch


def test_train_minibatch_runs_a_batch_as_passes_with_one_update(monkeypatch):
    store, loss_fn, n = _line_problem()
    whole, whole_loss, _ = _line_problem()
    passes, steps = [], []

    def recorded_loss(chosen, batch_rows):
        passes.append((len(chosen), batch_rows))
        return loss_fn(chosen, batch_rows)

    def recorded_update(params, learning_rate, step):
        steps.append(step)
        adam_update(params, learning_rate, step)

    monkeypatch.setattr(adam, "adam_update", recorded_update)
    monkeypatch.setattr(adam, "PASS_ROWS", 3)
    curve = train_minibatch(store, recorded_loss, n, 2, 8, 0.05, np.random.default_rng(1))
    assert passes == [(3, 8), (3, 8), (2, 8), (2, 2)] * 2 and steps == [1, 2, 3, 4]
    with monkeypatch.context() as patch:
        patch.setattr(adam, "PASS_ROWS", 8)  # the reference: every batch in one pass
        expected = train_minibatch(whole, whole_loss, n, 2, 8, 0.05, np.random.default_rng(1))
    np.testing.assert_allclose(curve, expected, rtol=1e-14)
    np.testing.assert_allclose(store.value, whole.value, rtol=1e-12)
    passes.clear()

    def second_pass_nan(chosen, batch_rows):
        loss = recorded_loss(chosen, batch_rows)
        return ad.scale(loss, np.nan) if len(passes) == 2 else loss

    with pytest.raises(NumericError):  # after the first pass added its gradients
        train_minibatch(store, second_pass_nan, n, 1, 8, 0.05, np.random.default_rng(1))
    assert len(passes) == 2 and not store.grad.any()


def test_a_baseline_batch_over_pass_rows_runs_as_passes_with_one_update(monkeypatch):
    # 80 windows at batch 40: each batch is a 32-row and an 8-row pass, each
    # weighted by the batch's 40 rows, then one Adam step.
    rng = np.random.default_rng(9)
    lags = rng.uniform(size=(80, 6))
    windows = SupervisedWindowSet(np.hstack([lags, rng.uniform(-1.0, 1.0, size=(80, 2))]), lags.mean(axis=1),
                                  window_length=6, horizon_step=1)
    passes, steps = [], []
    mse = ad.mse

    def recorded_mse(prediction, target, count=None):
        passes.append((len(target), count))
        return mse(prediction, target, count)

    monkeypatch.setattr(ad, "mse", recorded_mse)
    monkeypatch.setattr(adam, "adam_update", lambda params, lr, step: steps.append(step))
    MLPModel(epochs=2, batch=40).fit(windows, seed=0)
    assert passes == [(32, 40), (8, 40)] * 4 and steps == [1, 2, 3, 4]


def test_train_minibatch_rejects_a_non_finite_loss_before_any_step(monkeypatch):
    store, loss_fn, n = _line_problem()
    before = store.state_hash()
    monkeypatch.setattr(adam, "adam_update", lambda *args: pytest.fail("Adam stepped"))
    with pytest.raises(NumericError):
        train_minibatch(store, lambda chosen, batch_rows: ad.scale(loss_fn(chosen, batch_rows), np.nan), n, 3, 4,
                        0.05, np.random.default_rng(1))
    assert store.state_hash() == before
    for param in store:
        assert not param.grad.any() and not param.m.any() and not param.v.any()


def test_train_minibatch_resets_optimizer_state():
    fresh, fresh_loss, n = _line_problem()
    used, used_loss, _ = _line_problem()
    for param in used:
        param.m[...] = 0.7
        param.v[...] = 2.5
        param.grad[...] = -1.0
    a = train_minibatch(fresh, fresh_loss, n, 5, 4, 0.05, np.random.default_rng(2))
    b = train_minibatch(used, used_loss, n, 5, 4, 0.05, np.random.default_rng(2))
    assert a == b
    for p, q in zip(fresh, used):
        for buffer in ("value", "m", "v", "grad"):
            assert np.array_equal(getattr(p, buffer), getattr(q, buffer)), (p.name, buffer)


def test_grad_check_accepts_correct_gradients():
    rng = np.random.default_rng(14)
    store = ParamStore()
    store.add("w", rng.normal(size=(3, 2)))
    store.add("b", rng.normal(size=(1, 2)))
    x = rng.normal(size=(6, 3))
    t = rng.normal(size=(6, 2))

    def forward():
        out = ad.add(ad.matmul(Tensor(x), store.tensor("w")), store.tensor("b"))
        return ad.mse(ad.tanh(out), t)

    assert grad_check(forward, store, probe_count=12, rng=np.random.default_rng(0)) < 1e-6


def test_grad_check_flags_an_inconsistent_model():
    """A forward pass whose probe-time loss disagrees with its gradient must fail."""
    rng = np.random.default_rng(15)
    store = ParamStore()
    store.add("w", rng.normal(size=(3, 3)))
    x = rng.normal(size=(5, 3))

    def forward():
        out = ad.matmul(Tensor(x), store.tensor("w"))
        if not ad.grad_enabled():
            out = ad.scale(out, 1.1)  # finite differences see a warped loss
        return ad.mse(out, np.zeros((5, 3)))

    assert grad_check(forward, store, probe_count=9, rng=np.random.default_rng(1)) > 1e-2


def test_param_requires_two_dimensional_values():
    store = ParamStore()
    with pytest.raises(ShapeError):
        store.add("w", np.zeros(3))
    store.add("a", np.zeros((2, 2)))
    with pytest.raises(StateError):
        store.add("a", np.zeros((2, 2)))
    assert store.value.size == 4


def _zero_then_add(tensor, grad, shared=False):
    """The gradient rule before first-write adoption: a fresh zero buffer, then +=.

    Nothing is adopted, so `shared` makes no difference here.
    """
    if tensor.requires_grad:
        if tensor.grad is None:
            tensor.grad = np.zeros_like(tensor.value)
        tensor.grad += ad._unbroadcast(grad, tensor.value.shape)


def _leaf_grads_both_rules(monkeypatch, make_leaves, build, passes=1):
    """Leaf gradients after `passes` forward/backward passes, under adoption and under the old rule."""
    results = []
    for rule in (None, _zero_then_add):
        with monkeypatch.context() as patch:
            if rule is not None:
                patch.setattr(ad, "_accumulate", rule)
            leaves = make_leaves()
            for _ in range(passes):
                build(*leaves).backward()
            results.append([leaf.grad.copy() for leaf in leaves])
    return results


def _weighted_sum(out, seed=0):
    return ad.tsum(ad.mul(out, Tensor(np.random.default_rng(seed).normal(size=out.value.shape))))


def _leaves(*shapes, seed=1):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]


def _residual(x, w):
    """x + x @ w: both branches of the add end at the leaf x."""
    return _weighted_sum(ad.add(x, ad.matmul(x, w)))


def _hidden_residual(x, w):
    """h + h @ w with h = x @ w: the branches meet at h, then at the leaves."""
    h = ad.matmul(x, w)
    return _weighted_sum(ad.add(h, ad.matmul(h, w)))


def _three_parent_node(handed):
    """A node over three leaves whose backward function returns its one
    gradient array for all three, recording that array in `handed`."""

    def build(a, b, c):
        def backward(g):
            handed.append(g)
            return g, g, g

        return _weighted_sum(ad._make(a.value + b.value + c.value, (a, b, c), backward))

    return build


def test_make_hands_one_array_to_the_first_parent_and_copies_to_the_others():
    handed = []
    a, b, c = _leaves((3, 4), (3, 4), (3, 4))
    _three_parent_node(handed)(a, b, c).backward()
    assert a.grad is handed[0]
    for x, y in ((b, a), (c, a), (c, b)):
        assert not np.shares_memory(x.grad, y.grad)
    for leaf in (b, c):
        np.testing.assert_array_equal(leaf.grad, handed[0])


@pytest.mark.parametrize("count", [2, 4])
def test_make_rejects_a_backward_without_one_gradient_per_parent(count):
    """Too few gradients would silently leave the trailing parents without one."""
    a, b, c = _leaves((3, 4), (3, 4), (3, 4))
    out = _weighted_sum(ad._make(a.value + b.value + c.value, (a, b, c), lambda g: (g,) * count))
    with pytest.raises(ValueError):
        out.backward()


#: Public functions of nn.autodiff that `_op` does not build: tape plumbing,
#: the array kernels the decode step and the LSTM sweep call, and the ops
#: that compose others or take lists, which call `_make` themselves.
_NOT_OPS = {"astensor", "no_grad", "grad_enabled", "mean", "concat", "dense_stack",
            "attention_probabilities", "attention_forward", "layer_norm_forward", "lstm_recurrence"}
_OP_CODE = ad._op(0)(lambda: (None, None)).__code__  # the body every `_op` op runs
_PUBLIC_FUNCTIONS = sorted(name for name, fn in inspect.getmembers(ad, inspect.isfunction)
                           if not name.startswith("_") and fn.__module__ == ad.__name__)


def _op_samples():
    """Per op, small array arguments (the first n) and the arguments after them."""
    rng = np.random.default_rng(29)
    x, y, q, k, v = (rng.normal(size=(2, 5, 4)) for _ in range(5))
    gamma, beta = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
    return {
        "add": ((x, y), ()), "sub": ((x, y), ()), "mul": ((x, y), ()), "scale": ((x,), (1.5,)),
        "matmul": ((x, rng.normal(size=(4, 3))), ()), "relu": ((x,), ()), "sigmoid": ((x,), ()),
        "tanh": ((x,), ()), "exp": ((x,), ()), "log": ((np.abs(x) + 0.5,), ()), "tsum": ((x,), (1,)),
        "reshape": ((x,), ((10, 4),)), "transpose": ((x,), ((0, 2, 1),)), "index": ((x,), ((slice(None), -1),)),
        "softmax": ((x,), (np.tril(np.ones((5, 4), bool)),)),
        "attention": ((q, k, v), (2, np.tril(np.ones((5, 5), bool)))),
        "layer_norm": ((x, gamma, beta), ()), "add_layer_norm": ((x, y, gamma, beta), ()),
        "conv1d_same": ((x, rng.normal(size=(3, 4, 3)), rng.normal(size=(1, 3))), (True,)),
        "maxpool1d_same": ((x,), (3,)),
        "conv_relu_pool": ((x, rng.normal(size=(3, 4, 4)), rng.normal(size=(1, 4))), (3, True)),
        "lstm_layer": ((x, rng.normal(size=(4, 12)), rng.normal(size=(3, 12)), rng.normal(size=(1, 12))), ()),
        "mse": ((x,), (y,)),
    }


@pytest.mark.parametrize("name", sorted(set(_PUBLIC_FUNCTIONS) | _NOT_OPS))
def test_every_public_autodiff_op_is_an_array_forward_put_on_the_tape(name):
    """The op contract: each public op is `_op` over a forward on arrays, whose
    value is bitwise the op's with gradients on and under no_grad; a
    hand-rolled op, or one without a sample here, fails."""
    fn = getattr(ad, name)
    if name in _NOT_OPS:
        assert fn.__code__ is not _OP_CODE
        return
    assert hasattr(fn, "__wrapped__") and fn.__code__ is _OP_CODE, f"{name} is not built by _op"
    arrays, rest = _op_samples()[name]
    expected = np.asarray(fn.__wrapped__(*[a.copy() for a in arrays], *rest)[0])
    for taped in (True, False):
        with contextlib.nullcontext() if taped else no_grad():
            out = fn(*[Tensor(a.copy(), requires_grad=True) for a in arrays], *rest)
        assert (out._backward is not None) == taped
        assert out.value.shape == expected.shape
        assert out.value.tobytes() == expected.tobytes()


def test_make_hand_over_gives_the_zero_then_add_gradients_over_two_passes(monkeypatch):
    """A second pass adds into every adopted array: had two parents adopted
    one array, each would see the other's additions too."""
    new, old = _leaf_grads_both_rules(monkeypatch, lambda: _leaves((3, 4), (3, 4), (3, 4)), _three_parent_node([]),
                                      passes=2)
    upstream = np.random.default_rng(0).normal(size=(3, 4))
    for x, y in zip(new, old):
        np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(x, 2.0 * upstream)


def test_first_write_gradients_for_a_tensor_added_to_itself(monkeypatch):
    new, old = _leaf_grads_both_rules(
        monkeypatch, lambda: _leaves((3, 4)), lambda x: _weighted_sum(ad.add(ad.add(x, x), x))
    )
    np.testing.assert_array_equal(new[0], old[0])
    np.testing.assert_array_equal(new[0], 3.0 * np.random.default_rng(0).normal(size=(3, 4)))


def test_first_write_gradients_for_a_residual_meeting_at_one_leaf(monkeypatch):
    new, old = _leaf_grads_both_rules(monkeypatch, lambda: _leaves((5, 4), (4, 4)), _residual)
    for a, b in zip(new, old):
        np.testing.assert_array_equal(a, b)
    x, w = _leaves((5, 4), (4, 4))
    upstream = np.random.default_rng(0).normal(size=(5, 4))
    np.testing.assert_allclose(new[0], upstream + upstream @ w.value.T, rtol=1e-12)
    np.testing.assert_allclose(new[1], x.value.T @ upstream, rtol=1e-12)


def test_first_write_gradients_through_reshape_transpose_and_concat_views(monkeypatch):
    def build(x, w):
        joined = ad.concat([ad.reshape(x, (6, 4)), ad.transpose(x, (1, 0))], axis=0)  # (12, 4)
        return _weighted_sum(ad.add(joined, ad.matmul(joined, w)))

    new, old = _leaf_grads_both_rules(monkeypatch, lambda: _leaves((4, 6), (4, 4)), build)
    for a, b in zip(new, old):
        np.testing.assert_array_equal(a, b)


def test_first_write_gradients_accumulate_over_two_backward_passes(monkeypatch):
    new, old = _leaf_grads_both_rules(monkeypatch, lambda: _leaves((5, 4), (4, 4)), _hidden_residual, passes=2)
    once, _ = _leaf_grads_both_rules(monkeypatch, lambda: _leaves((5, 4), (4, 4)), _hidden_residual)
    for a, b, single in zip(new, old, once):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(a, 2.0 * single, rtol=1e-12)


def test_param_store_gradient_buffer_keeps_its_identity(monkeypatch):
    """adam_update reads Param.grad, so backward must add into that array, never replace it."""
    stores = []
    for rule in (None, _zero_then_add):
        with monkeypatch.context() as patch:
            if rule is not None:
                patch.setattr(ad, "_accumulate", rule)
            store = ParamStore()
            for name, leaf in zip(("x", "w"), _leaves((5, 4), (4, 4))):
                store.add(name, leaf.value)
            buffers = [p.grad for p in store]
            tensors = [store.tensor("x"), store.tensor("w")]
            _hidden_residual(*tensors).backward()
            assert all(p.grad is buf and t.grad is buf for p, buf, t in zip(store, buffers, tensors))
            stores.append(store)
    new, old = stores
    for name in ("x", "w"):
        np.testing.assert_array_equal(new.get(name).grad, old.get(name).grad)
    g = new.get("w").grad.copy()
    before = new.get("w").value.copy()
    adam_update(new, learning_rate=0.01, step=1)
    np.testing.assert_allclose(before - new.get("w").value, 0.01 * g / (np.abs(g) + EPSILON), rtol=1e-12)
