"""Fast kernels against the plain code they replace.

The fused LSTM layer is checked against `lstm_cell_step` unrolled on the
tape, the array tree walks against a per-row walk and a per-tree sum, the
transformer's cached decoding against re-running the decoder over the
whole generated prefix at every step, and the im2col conv, shifted-max
pool and one-GEMM matmul against the einsum, argmax and batched kernels.
"""

import warnings

import numpy as np
import pytest

import loadcast.nn.autodiff as ad
from loadcast.baselines import GradientBoostedTrees, LSTMModel, RegressionTree, lstm_cell_step
from loadcast.baselines.neural import LSTM_GATES
from loadcast.errors import ShapeError
from loadcast.nn import ParamStore, Tensor, grad_check, no_grad
from loadcast.series import NormalizationParams, SupervisedWindowSet
from loadcast.transformer import TransformerConfig, TransformerForecaster


def _lstm_store(rng, units, width=1):
    """Per-gate parameters for a stack of LSTM layers, named as LSTMModel names them."""
    params = ParamStore()
    for layer, n in enumerate(units):
        for gate in LSTM_GATES:
            params.add(f"lstm{layer}.{gate}.w", rng.normal(scale=0.6, size=(width, n)))
            params.add(f"lstm{layer}.{gate}.u", rng.normal(scale=0.6, size=(n, n)))
            params.add(f"lstm{layer}.{gate}.b", rng.normal(scale=0.3, size=(1, n)))
        width = n
    return params


def _fused_stack(x, params, units):
    for layer in range(len(units)):
        joined = [
            ad.concat([params.tensor(f"lstm{layer}.{gate}.{kind}") for gate in LSTM_GATES], axis=1)
            for kind in ("w", "u", "b")
        ]
        x = ad.lstm_layer(x, *joined)
    return x


def _unrolled_stack(x, params, units):
    """Hidden states per step from lstm_cell_step, one tape node per gate op."""
    batch, steps = x.value.shape[:2]
    sequence = [ad.index(x, (slice(None), t)) for t in range(steps)]
    for layer, n in enumerate(units):
        h, c = Tensor(np.zeros((batch, n))), Tensor(np.zeros((batch, n)))
        outputs = []
        for x_t in sequence:
            h, c = lstm_cell_step(x_t, h, c, params, prefix=f"lstm{layer}.")
            outputs.append(h)
        sequence = outputs
    return sequence


CASES = [
    (1, 5, (16, 8)),  # one row
    (3, 1, (16, 8)),  # one step
    (4, 6, (16, 8)),  # the LSTMModel default widths
    (2, 7, (4, 2)),  # the narrowest tuning corner
]


@pytest.mark.parametrize("batch,steps,units", CASES)
def test_lstm_layer_matches_unrolled_cell_steps(batch, steps, units):
    rng = np.random.default_rng(batch * 100 + steps)
    params = _lstm_store(rng, units)
    x_value = rng.normal(size=(batch, steps, 1))
    weights = rng.normal(size=(batch, steps, units[-1]))

    x_fused = Tensor(x_value.copy(), requires_grad=True)
    fused = _fused_stack(x_fused, params, units)
    ad.tsum(ad.mul(fused, weights)).backward()
    fused_grads = {p.name: p.grad.copy() for p in params}
    params.zero_grads()

    x_tape = Tensor(x_value.copy(), requires_grad=True)
    steps_out = _unrolled_stack(x_tape, params, units)
    loss = ad.tsum(ad.mul(steps_out[0], weights[:, 0]))
    for t in range(1, steps):
        loss = ad.add(loss, ad.tsum(ad.mul(steps_out[t], weights[:, t])))
    loss.backward()

    reference = np.stack([h.value for h in steps_out], axis=1)
    np.testing.assert_allclose(fused.value, reference, rtol=0, atol=1e-12)
    for p in params:
        np.testing.assert_allclose(fused_grads[p.name], p.grad, rtol=0, atol=1e-10, err_msg=p.name)
    np.testing.assert_allclose(x_fused.grad, x_tape.grad, rtol=0, atol=1e-10)


@pytest.mark.parametrize("batch,steps,units", CASES)
def test_lstm_layer_passes_grad_check(batch, steps, units):
    rng = np.random.default_rng(batch * 10 + steps)
    params = _lstm_store(rng, units)
    x = rng.normal(size=(batch, steps, 1))
    target = rng.uniform(-0.5, 0.5, size=(batch, steps, units[-1]))

    def forward():
        return ad.mse(_fused_stack(Tensor(x), params, units), target)

    assert grad_check(forward, params, probe_count=60, rng=np.random.default_rng(0)) < 1e-4


def test_lstm_layer_keeps_no_tape_under_no_grad():
    rng = np.random.default_rng(3)
    params = _lstm_store(rng, (4,))
    x = rng.normal(size=(2, 5, 1))
    with ad.no_grad():
        out = _fused_stack(Tensor(x), params, (4,))
    assert out._backward is None and out._parents == ()
    np.testing.assert_array_equal(out.value, _fused_stack(Tensor(x), params, (4,)).value)


def test_lstm_layer_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        ad.lstm_layer(np.zeros((2, 3, 1)), np.zeros((1, 8)), np.zeros((2, 8)), np.zeros((1, 4)))


class _TapeLSTM(LSTMModel):
    """LSTMModel with the per-step, per-gate tape forward the fused layer replaced."""

    def _forward(self, features):
        sequence = Tensor(features[:, : self.window_length, None])
        last = _unrolled_stack(sequence, self.params, self.lstm_units)[-1]
        h = ad.concat([last, Tensor(features[:, self.window_length :])], axis=1)
        for idx in range(1, len(self.dense_units) + 1):
            h = ad.add(ad.matmul(h, self.params.tensor(f"dense.w{idx}")), self.params.tensor(f"dense.b{idx}"))
            h = ad.sigmoid(h) if idx == len(self.dense_units) else ad.relu(h)
        return ad.reshape(h, (features.shape[0],))


def test_lstm_model_loss_curve_matches_tape_reference():
    rng = np.random.default_rng(4)
    t = np.arange(60)
    lags = 0.5 + 0.3 * np.sin(2 * np.pi * (t[:, None] + np.arange(8)) / 24)
    lags += rng.normal(scale=0.03, size=lags.shape)
    clock = np.column_stack([np.sin(t), np.cos(t)])
    windows = SupervisedWindowSet(
        np.hstack([lags, clock]), rng.uniform(0.2, 0.8, 60), window_length=8, horizon_step=1
    )
    fused = LSTMModel(epochs=10).fit(windows, seed=5)
    tape = _TapeLSTM(epochs=10).fit(windows, seed=5)
    np.testing.assert_allclose(fused.curve, tape.curve, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fused.predict(windows.inputs), tape.predict(windows.inputs), rtol=1e-12)
    assert fused.params.names() == tape.params.names()


def _per_row_walk(tree, features):
    """The pointer-chasing walk: one row at a time, one node at a time."""
    out = np.empty(len(features))
    for r, row in enumerate(features):
        k = 0
        while tree.feature[k] >= 0:
            k = tree.left[k] if row[tree.feature[k]] <= tree.threshold[k] else tree.right[k]
        out[r] = tree.value[k]
    return out


def _random_tree_data(rng):
    n, d = int(rng.integers(2, 200)), int(rng.integers(1, 6))
    features = rng.normal(size=(n, d))
    features[:, 0] = np.round(features[:, 0], 1)  # ties in the split scan
    targets = rng.normal(size=n) + 2.0 * (features[:, 0] > 0)
    probe = rng.normal(size=(64, d))
    probe[::9, 0] = np.nan  # a failed comparison goes right, as in a per-row walk
    return features, targets, probe


def test_tree_array_walk_matches_per_row_walk():
    rng = np.random.default_rng(6)
    leaf_only = 0
    for _ in range(40):
        features, targets, probe = _random_tree_data(rng)
        tree = RegressionTree(
            max_depth=int(rng.integers(1, 7)),
            max_leaves=int(rng.integers(2, 30)),
            min_child_samples=int(rng.integers(1, 60)),
        ).fit_arrays(features, targets)
        leaf_only += tree.root.is_leaf
        assert tree.leaf_count() == (len(tree.feature) + 1) // 2
        np.testing.assert_array_equal(tree.predict(probe), _per_row_walk(tree, probe))
    assert 0 < leaf_only < 40


def test_gbt_predict_matches_sequential_per_tree_sum():
    rng = np.random.default_rng(7)
    for seed in range(6):
        features, targets, probe = _random_tree_data(rng)
        windows = SupervisedWindowSet(features, targets, window_length=features.shape[1], horizon_step=1)
        model = GradientBoostedTrees(
            estimators=int(rng.integers(1, 60)), min_child_samples=int(rng.integers(1, 40)),
            early_stopping_rounds=10, inner_depth=int(rng.integers(1, 4)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model.fit(windows, seed=seed)
        expected = np.full(len(probe), model.initial)
        for tree in model.trees:
            expected += model.learning_rate * _per_row_walk(tree, probe)
        np.testing.assert_array_equal(model.predict(probe), expected)


def test_tree_dict_round_trip_predicts_identically():
    rng = np.random.default_rng(8)
    for min_child in (1, 500):  # a split tree and a leaf-only one
        features, targets, probe = _random_tree_data(rng)
        tree = RegressionTree(max_depth=5, min_child_samples=min_child).fit_arrays(features, targets)
        payload = tree.to_dict()
        clone = RegressionTree.from_dict(payload)
        assert clone.to_dict() == payload
        assert (clone.depth(), clone.leaf_count()) == (tree.depth(), tree.leaf_count())
        np.testing.assert_array_equal(clone.predict(probe), tree.predict(probe))
    empty = RegressionTree().to_dict()
    assert empty["nodes"] == [] and RegressionTree.from_dict(empty).root is None


def _prefix_recompute(model, contexts, steps):
    """The uncached decode: the whole generated prefix through the decoder at every step."""
    with no_grad():
        encoded = model._encode(contexts)
        generated = np.zeros((contexts.shape[0], 0))
        for _ in range(steps):
            hidden = model._head(model._decode(generated, encoded)).value
            generated = np.concatenate([generated, hidden[:, -1:]], axis=1)
    return generated


class _PrefixRecomputeForecaster(TransformerForecaster):
    def _generate(self, contexts, steps):
        return _prefix_recompute(self, contexts, steps)


TINY = TransformerConfig(d_model=8, head_count=2, encoder_layers=1, decoder_layers=1,
                         context_length=12, horizon_length=3)
DECODER_CONFIGS = [
    TransformerConfig(),
    TINY,
    TransformerConfig(d_model=8, head_count=2, context_length=12, horizon_length=1),
] + [
    TransformerConfig(d_model=8, head_count=2, context_length=12, horizon_length=4,
                      conv_kernel_width=k, pool_range=p)
    for k in (1, 3, 5) for p in (1, 3, 5)
]


@pytest.mark.parametrize("config", DECODER_CONFIGS, ids=lambda c: f"d{c.d_model}-h{c.horizon_length}-k{c.conv_kernel_width}-p{c.pool_range}")
def test_cached_generation_matches_prefix_recompute(config):
    model = TransformerForecaster(config, init_seed=9)
    rng = np.random.default_rng(10)
    for batch in (1, 5):
        contexts = rng.uniform(-0.2, 1.2, size=(batch, config.context_length))
        for steps in range(1, config.horizon_length + 1):
            np.testing.assert_allclose(
                model._generate(contexts, steps), _prefix_recompute(model, contexts, steps), rtol=0, atol=1e-12
            )
        generated = model.forward(contexts)
        replayed = model.forward(contexts, decoder_seed=generated[:, :-1])
        np.testing.assert_allclose(replayed, generated, rtol=0, atol=1e-12)


def test_cached_forecast_batch_matches_prefix_recompute():
    """A 24 h recursive forecast: four 6-step chunks, each re-encoding the shifted window."""
    model = TransformerForecaster(init_seed=11)
    reference = _PrefixRecomputeForecaster(init_seed=0)
    reference.params.load_values_from(model.params)
    normalizer = NormalizationParams(10.0, 14.0)
    model.set_normalizer(normalizer)
    reference.set_normalizer(normalizer)
    histories = np.random.default_rng(12).uniform(10.0, 14.0, size=(6, 40))
    np.testing.assert_allclose(
        model.forecast_batch(histories, 24), reference.forecast_batch(histories, 24), rtol=0, atol=1e-12
    )


def _einsum_conv(x, weights, bias, causal=False):
    """conv1d_same as an einsum over a sliding-window view, the kernel im2col replaced."""
    k, cin, cout = weights.value.shape
    t = x.value.shape[-2]
    left = k - 1 if causal else k // 2
    xpad = np.pad(x.value, [(0, 0)] * (x.value.ndim - 2) + [(left, k - 1 - left), (0, 0)])
    xw = np.lib.stride_tricks.sliding_window_view(xpad, k, axis=-2)
    value = np.einsum("...tck,kcd->...td", xw, weights.value) + bias.value

    def backward(g):
        ad._accumulate(weights, np.einsum("mck,md->kcd", xw.reshape(-1, cin, k), g.reshape(-1, cout)))
        dxpad = np.zeros_like(xpad)
        for j in range(k):
            dxpad[..., j : j + t, :] += g @ weights.value[j].T
        ad._accumulate(x, dxpad[..., left : left + t, :])
        ad._accumulate(bias, g)

    return ad._make(value, (x, weights, bias), backward)


def _argmax_pool(x, pool_range, causal=False):
    """maxpool1d_same by argmax over a sliding-window view, the kernel shifted maxima replaced."""
    t = x.value.shape[-2]
    left = pool_range - 1 if causal else pool_range // 2
    pad_spec = [(0, 0)] * (x.value.ndim - 2) + [(left, pool_range - 1 - left), (0, 0)]
    xpad = np.pad(x.value, pad_spec, constant_values=-np.inf)
    xw = np.lib.stride_tricks.sliding_window_view(xpad, pool_range, axis=-2)
    arg = xw.argmax(axis=-1)
    value = np.take_along_axis(xw, arg[..., None], axis=-1)[..., 0]

    def backward(g):
        dxpad = np.zeros_like(xpad)
        for j in range(pool_range):
            dxpad[..., j : j + t, :] += g * (arg == j)
        ad._accumulate(x, dxpad[..., left : left + t, :])

    return ad._make(value, (x,), backward)


def _batched_matmul(a, b):
    """matmul with numpy's batched product and a batched weight gradient summed back."""
    value = a.value @ b.value

    def backward(g):
        ad._accumulate(a, g @ np.swapaxes(b.value, -1, -2))
        ad._accumulate(b, np.swapaxes(a.value, -1, -2) @ g)

    return ad._make(value, (a, b), backward)


def _value_and_grads(op, arrays, seed):
    """op's output and the gradients of sum(output * C) for a fixed random C, one per input."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*leaves)
    weights = np.random.default_rng(seed).normal(size=out.value.shape)
    ad.tsum(ad.mul(out, Tensor(weights))).backward()
    return [out.value] + [leaf.grad for leaf in leaves]


def _assert_near(actual, expected, tol=1e-12):
    """Agreement relative to the largest reference entry, so near-zero entries do not blow it up."""
    for a, e in zip(actual, expected):
        assert a.shape == e.shape
        assert np.max(np.abs(a - e)) <= tol * np.max(np.abs(e)), np.max(np.abs(a - e))


CONV_SHAPES = [(9, 3), (4, 9, 3)]  # (T, Cin) and (N, T, Cin)


@pytest.mark.parametrize("causal", [False, True], ids=["centered", "causal"])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("shape", CONV_SHAPES, ids=["2d", "3d"])
def test_im2col_conv_matches_einsum_kernel(shape, k, causal):
    rng = np.random.default_rng(30 + k)
    arrays = [rng.normal(size=shape), rng.normal(size=(k, 3, 4)), rng.normal(size=(1, 4))]
    new = _value_and_grads(lambda x, w, b: ad.conv1d_same(x, w, b, causal=causal), arrays, seed=k)
    old = _value_and_grads(lambda x, w, b: _einsum_conv(x, w, b, causal=causal), arrays, seed=k)
    _assert_near(new, old)


@pytest.mark.parametrize("causal", [False, True], ids=["centered", "causal"])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_im2col_conv_passes_grad_check(k, causal):
    rng = np.random.default_rng(40 + k)
    store = ParamStore()
    store.add("x", rng.normal(size=(2 * 7, 3)))
    store.add("w", rng.normal(size=(k * 3, 4)))
    store.add("b", rng.normal(size=(1, 4)))
    target = rng.normal(size=(2, 7, 4))

    def forward():
        x = ad.reshape(store.tensor("x"), (2, 7, 3))
        w = ad.reshape(store.tensor("w"), (k, 3, 4))
        return ad.mse(ad.tanh(ad.conv1d_same(x, w, store.tensor("b"), causal=causal)), target)

    assert grad_check(forward, store, probe_count=40, rng=np.random.default_rng(k)) < 1e-4


def _tied_pool_input(rng, shape):
    """ReLU of small integers (many zero ties) with constant plateaus along time."""
    x = np.maximum(rng.integers(-3, 4, size=shape).astype(np.float64), 0.0)
    x[..., 2:7, 0] = 1.5  # a plateau longer than any window
    x[..., :, -1] = 0.0  # an all-zero channel
    return x


@pytest.mark.parametrize("causal", [False, True], ids=["centered", "causal"])
@pytest.mark.parametrize("pool_range", [3, 5])
@pytest.mark.parametrize("shape", [(11, 4), (3, 11, 4)], ids=["2d", "3d"])
def test_shifted_max_pool_is_bitwise_the_argmax_kernel(shape, pool_range, causal):
    x = _tied_pool_input(np.random.default_rng(50 + pool_range), shape)
    new = _value_and_grads(lambda t: ad.maxpool1d_same(t, pool_range, causal=causal), [x], seed=pool_range)
    old = _value_and_grads(lambda t: _argmax_pool(t, pool_range, causal=causal), [x], seed=pool_range)
    for a, e in zip(new, old):
        np.testing.assert_array_equal(a.view(np.int64), e.view(np.int64))


MATMUL_SHAPES = [
    ((5, 7, 4), (4, 3)),  # a batch of sequences times a weight matrix
    ((6, 1, 4), (4, 3)),  # one row per batch entry (a cached decoding step)
    ((2, 3, 5, 4), (4, 3)),
    ((7, 4), (4, 3)),
]


@pytest.mark.parametrize("a_shape,b_shape", MATMUL_SHAPES, ids=str)
def test_folded_matmul_matches_batched_product(a_shape, b_shape):
    rng = np.random.default_rng(len(a_shape))
    arrays = [rng.normal(size=a_shape), rng.normal(size=b_shape)]
    new = _value_and_grads(ad.matmul, arrays, seed=1)
    old = _value_and_grads(_batched_matmul, arrays, seed=1)
    _assert_near(new, old)


def test_folded_matmul_on_a_transposed_view_and_a_vector():
    rng = np.random.default_rng(60)
    arrays = [rng.normal(size=(5, 4, 7)), rng.normal(size=(4, 3))]
    new = _value_and_grads(lambda a, w: ad.matmul(ad.transpose(a, (0, 2, 1)), w), arrays, seed=2)
    old = _value_and_grads(lambda a, w: _batched_matmul(ad.transpose(a, (0, 2, 1)), w), arrays, seed=2)
    _assert_near(new, old)
    # (k,) @ (k, n): the batched kernel cannot transpose a vector; check against the formulas.
    vector, weights = rng.normal(size=4), rng.normal(size=(4, 3))
    value, dv, dw = _value_and_grads(ad.matmul, [vector, weights], seed=3)
    upstream = np.random.default_rng(3).normal(size=3)
    _assert_near([value, dv, dw], [vector @ weights, weights @ upstream, np.outer(vector, upstream)])


def test_folded_matmul_skips_inputs_without_gradient():
    rng = np.random.default_rng(61)
    constant, w = Tensor(rng.normal(size=(5, 7, 4))), Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    ad.tsum(ad.matmul(constant, w)).backward()
    assert constant.grad is None
    _assert_near([w.grad], [constant.value.reshape(-1, 4).T @ np.ones((35, 3))])


def test_folded_matmul_passes_grad_check():
    rng = np.random.default_rng(62)
    store = ParamStore()
    store.add("x", rng.normal(size=(2 * 5, 4)))
    store.add("w", rng.normal(size=(4, 3)))
    target = rng.normal(size=(2, 5, 3))

    def forward():
        return ad.mse(ad.tanh(ad.matmul(ad.reshape(store.tensor("x"), (2, 5, 4)), store.tensor("w"))), target)

    assert grad_check(forward, store, probe_count=30, rng=np.random.default_rng(0)) < 1e-4
