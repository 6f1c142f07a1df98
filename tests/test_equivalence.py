"""Fast kernels against the plain code they replace.

The fused LSTM layer is checked against `lstm_cell_step` unrolled on the
tape, its feature-major recurrence and backpropagation through time bitwise
against the batch-major ones they replaced, the LSTM's prefix-state rolling
sweep against the per-step `predict` recursion, the transformer's encoder
passes against one encode over the whole block, the array tree walks against a per-row walk and a per-tree sum, the
transformer's cached decoding against re-running the decoder over the
whole generated prefix at every step, `roll_forecasts`' origin blocks
against one `roll` over every origin, the im2col conv, shifted-max pool
and one-GEMM matmul against the einsum, argmax and batched kernels,
`nn.train_minibatch` against the two training loops it replaced (and
its 32-row passes of a batch-256 step against one pass over the batch),
`dense_stack` and the one-node `mse` against the per-layer tape, the
in-place softmax and layer_norm against their allocating forms, the
all-columns `best_split` against the per-feature scan, the fused
attention, add_layer_norm and conv_relu_pool nodes against the tape of
small ops each replaced (down to a whole teacher-forced pass), and
`series.sequence_windows`, `make_windows`, the one-window `forecast_batch`
loop and the array-only cached conv step against the code each replaced.
"""

import warnings
import weakref
from datetime import datetime

import numpy as np
import pytest

import loadcast.nn.adam as adam
import loadcast.nn.autodiff as ad
from loadcast.baselines import GradientBoostedTrees, LSTMModel, MLPModel, RegressionTree, lstm_cell_step, trees
from loadcast.baselines.neural import LSTM_GATES, _add_dense
from loadcast.corpus import GeneratorSpec, generate_series
from loadcast.errors import ConfigError, InsufficientDataError, NumericError, ShapeError
from loadcast.nn import ParamStore, Tensor, adam_update, glorot_init, grad_check, no_grad, train_minibatch
from loadcast.series import (VALIDATION_TAIL, NormalizationParams, SupervisedWindowSet, TimeSeries, fit_normalizer,
                             hour_features, make_windows, sequence_windows)
from loadcast import harness, transformer
from loadcast.transformer import (
    ATTENTION_WEIGHT_NAMES,
    TransformerConfig,
    TransformerForecaster,
    _causal_mask,
    _guarded_normalize,
    multi_head_attention,
)


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
    """LSTMModel with the per-gate parameters and the per-step, per-gate tape
    forward that the joined parameters and the fused layer replaced."""

    def _build(self, rng):
        params = ParamStore()
        input_dim = 1
        for layer, units in enumerate(self.lstm_units):
            for gate in LSTM_GATES:
                prefix = f"lstm{layer}.{gate}"
                params.add(f"{prefix}.w", glorot_init(rng, input_dim, units, (input_dim, units)))
                params.add(f"{prefix}.u", glorot_init(rng, units, units, (units, units)))
                bias = np.ones((1, units)) if gate == "forget" else np.zeros((1, units))
                params.add(f"{prefix}.b", bias)
            input_dim = units
        return _add_dense(params, rng, "dense.", self.lstm_units[-1] + 2, self.dense_units)

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


@pytest.mark.parametrize("units", [(16, 8), (4, 2, 3)])
def test_lstm_model_stores_the_per_gate_draws_joined(units):
    joined = LSTMModel(lstm_units=units)._build(np.random.default_rng(6))
    per_gate = _TapeLSTM(lstm_units=units)._build(np.random.default_rng(6))
    for layer in range(len(units)):
        for kind in ("w", "u", "b"):
            gates = [per_gate.tensor(f"lstm{layer}.{gate}.{kind}").value for gate in LSTM_GATES]
            _assert_bitwise(joined.tensor(f"lstm{layer}.{kind}").value, np.concatenate(gates, axis=1))
    dense = [name for name in per_gate.names() if name.startswith("dense.")]
    assert joined.names() == [f"lstm{k}.{kind}" for k in range(len(units)) for kind in "wub"] + dense
    for name in dense:
        _assert_bitwise(joined.tensor(name).value, per_gate.tensor(name).value)


def test_lstm_recurrence_resumes_from_a_saved_state():
    """A nonzero initial state through the shared kernel: against the cell
    unrolled from that state, and bitwise against one uninterrupted pass.
    The kernel's states are feature-major (n, B); the cell's are (B, n)."""
    rng = np.random.default_rng(7)
    params = _lstm_store(rng, (5,), width=3)
    w, u, b = (np.concatenate([params.get(f"lstm0.{gate}.{kind}").value for gate in LSTM_GATES], axis=1)
               for kind in "wub")
    x = rng.normal(size=(9, 4, 3))
    h0, c0 = rng.normal(scale=0.5, size=(2, 4, 5))
    projected = (x.reshape(-1, 3) @ w).reshape(9, 4, 20)
    hidden, cells, _, _ = ad.lstm_recurrence(projected, u, b, h0.T, c0.T)
    assert hidden.shape == cells.shape == (10, 5, 4)
    h, c = Tensor(h0), Tensor(c0)
    for t in range(9):
        h, c = lstm_cell_step(x[t], h, c, params, prefix="lstm0.")
        np.testing.assert_allclose(hidden[t + 1].T, h.value, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cells[t + 1].T, c.value, rtol=0, atol=1e-12)
    resumed_h, resumed_c, _, _ = ad.lstm_recurrence(projected[4:], u, b, hidden[4], cells[4])
    _assert_bitwise(resumed_h, hidden[4:])
    _assert_bitwise(resumed_c, cells[4:])


def _batch_major_recurrence(projected, u, b, h0, c0, record=False):
    """`ad.lstm_recurrence` before its states went feature-major: h0 and c0
    (B, n), hidden and cells (T + 1, B, n), gates (T, B, 4n) and squashed
    (T, B, n), each elementwise pass over strided (B, n) column blocks."""
    steps, batch, _ = projected.shape
    n = u.shape[0]
    keep = steps if record else 1
    gates = np.empty((keep, batch, 4 * n))
    squashed = np.empty((keep, batch, n))
    hidden = np.empty((steps + 1, batch, n))
    cells = np.empty((steps + 1, batch, n))
    hidden[0], cells[0] = h0, c0
    ig = np.empty((batch, n))
    work = np.empty((batch, 3 * n))
    for t in range(steps):
        z, tc, c = gates[t if record else 0], squashed[t if record else 0], cells[t + 1]
        np.matmul(hidden[t], u, out=z)
        np.add(projected[t], z, out=z)
        z += b
        ad._sigmoid(z[:, : 3 * n], out=z[:, : 3 * n], work=work)
        np.tanh(z[:, 3 * n :], out=z[:, 3 * n :])
        np.multiply(z[:, n : 2 * n], cells[t], out=c)
        c += np.multiply(z[:, :n], z[:, 3 * n :], out=ig)
        np.tanh(c, out=tc)
        np.multiply(z[:, 2 * n : 3 * n], tc, out=hidden[t + 1])
    return hidden, cells, gates, squashed


def _batch_major_lstm_layer(x, w, u, b):
    """`ad.lstm_layer` on the batch-major recurrence, with the batch-major
    backpropagation through time it replaced."""
    x, w, u, b = ad.astensor(x), ad.astensor(w), ad.astensor(u), ad.astensor(b)
    batch, steps, width = x.value.shape
    n = u.value.shape[0]
    tracked = ad.grad_enabled() and any(t.requires_grad for t in (x, w, u, b))
    inputs = x.value.transpose(1, 0, 2).reshape(-1, width)
    projected = (inputs @ w.value).reshape(steps, batch, 4 * n)
    zero = np.zeros((batch, n))
    hidden, cells, gates, squashed = _batch_major_recurrence(projected, u.value, b.value, zero, zero, record=tracked)

    def backward(grad):
        grad = grad.transpose(1, 0, 2)
        i, f, o, g = (gates[..., k * n : (k + 1) * n] for k in range(4))
        mult = np.empty(gates.shape)
        blocks = [mult[..., k * n : (k + 1) * n] for k in range(4)]
        work = np.empty(squashed.shape)
        for out, left, gate in ((blocks[0], g, i), (blocks[1], cells[:-1], f), (blocks[2], squashed, o)):
            np.multiply(left, gate, out=out)
            out *= np.subtract(1.0, gate, out=work)
        np.subtract(1.0, np.multiply(g, g, out=work), out=work)
        np.multiply(i, work, out=blocks[3])
        through = squashed * squashed
        np.subtract(1.0, through, out=through)
        np.multiply(o, through, out=through)
        u_t = u.value.T
        d_z = np.empty(gates.shape)
        dh_next, dc, dh, carried = np.zeros((batch, n)), np.zeros((batch, n)), np.empty((batch, n)), np.empty((batch, n))
        for t in range(steps - 1, -1, -1):
            np.add(grad[t], dh_next, out=dh)
            dc += np.multiply(dh, through[t], out=carried)
            m, dz = mult[t], d_z[t]
            np.multiply(dc, m[:, :n], out=dz[:, :n])
            np.multiply(dc, m[:, n : 2 * n], out=dz[:, n : 2 * n])
            np.multiply(dh, m[:, 2 * n : 3 * n], out=dz[:, 2 * n : 3 * n])
            np.multiply(dc, m[:, 3 * n :], out=dz[:, 3 * n :])
            dc *= f[t]
            np.matmul(dz, u_t, out=dh_next)
        flat = d_z.reshape(-1, 4 * n)
        ad._accumulate(w, inputs.T @ flat)
        ad._accumulate(u, hidden[:-1].reshape(-1, n).T @ flat)
        ad._accumulate(b, flat.sum(axis=0, keepdims=True))
        if x.requires_grad:
            ad._accumulate(x, (flat @ w.value.T).reshape(steps, batch, width).transpose(1, 0, 2))

    return ad._make(hidden[1:].transpose(1, 0, 2), (x, w, u, b), backward)


FEATURE_MAJOR_BATCHES = [1, 3, 5, 8, 9, 33, 257, 279]


@pytest.mark.parametrize("units", [16, 8, 4])
@pytest.mark.parametrize("batch", FEATURE_MAJOR_BATCHES)
def test_feature_major_recurrence_is_bitwise_the_batch_major_one(batch, units):
    """Hidden, cells, gates and tanh(c) from a nonzero state, with and
    without recording every step."""
    rng = np.random.default_rng(batch * 100 + units)
    projected = rng.normal(size=(24, batch, 4 * units))
    u = rng.normal(scale=0.6, size=(units, 4 * units))
    b = rng.normal(scale=0.3, size=(1, 4 * units))
    h0, c0 = rng.normal(scale=0.5, size=(2, batch, units))
    for record in (False, True):
        got = ad.lstm_recurrence(projected, u, b, h0.T, c0.T, record=record)
        for name, value, expected in zip(("hidden", "cells", "gates", "squashed"), got,
                                         _batch_major_recurrence(projected, u, b, h0, c0, record=record)):
            assert value.shape[1:] == expected.shape[:0:-1], name
            _assert_bitwise(value.transpose(0, 2, 1), expected)


@pytest.mark.parametrize("units", [16, 8, 4])
@pytest.mark.parametrize("batch", FEATURE_MAJOR_BATCHES)
def test_feature_major_lstm_layer_is_bitwise_the_batch_major_one(batch, units):
    """A two-layer stack, so the lower layer's backward takes the upper
    layer's input gradient: outputs and every w, u, b and x gradient."""
    rng = np.random.default_rng(batch * 10 + units)
    x_value = rng.normal(size=(batch, 7, 3))
    layers = [[rng.normal(scale=0.6, size=(width, 4 * units)), rng.normal(scale=0.6, size=(units, 4 * units)),
               rng.normal(scale=0.3, size=(1, 4 * units))] for width in (3, units)]
    weights = rng.normal(size=(batch, 7, units))
    runs = []
    for layer_fn in (ad.lstm_layer, _batch_major_lstm_layer):
        x = Tensor(x_value, requires_grad=True)
        params = [[Tensor(value, requires_grad=True) for value in layer] for layer in layers]
        out = x
        for layer in params:
            out = layer_fn(out, *layer)
        ad.tsum(ad.mul(out, weights)).backward()
        runs.append([out.value, x.grad] + [p.grad for layer in params for p in layer])
    for got, expected in zip(*runs):
        _assert_bitwise(got, expected)


class _PredictOnly:
    """A model seen through `predict` alone, so `roll_forecasts` runs the
    per-step recursion: the reference for the LSTM's prefix-state sweep."""

    def __init__(self, model):
        self.predict = model.predict


def _lstm_sweep_inputs(units, origins):
    data = generate_series(GeneratorSpec(family="trend_seasonal", length=72 + 769, period=24,
                                         trend_slope=0.001, noise_std=0.05, seed=len(units)))
    train = data.slice(0, 72)
    model = harness.fit_case_model("lstm", train, 3, hyperparams={"lstm_units": units, "epochs": 2})
    return model, data.slice(0, 72 + origins), fit_normalizer(train)


LSTM_SWEEP_UNITS = [(16, 8), (4,), (6, 5, 3)]


@pytest.mark.parametrize("units", LSTM_SWEEP_UNITS, ids=str)
@pytest.mark.parametrize("origins", [2, 5, 40])
@pytest.mark.parametrize("h_max", [1, 6, 24, 27])
def test_lstm_roll_is_bitwise_the_predict_recursion(units, origins, h_max):
    model, view, normalizer = _lstm_sweep_inputs(units, origins)
    swept = harness.roll_forecasts(model, view, 72, h_max, normalizer)
    _assert_bitwise(swept, harness.roll_forecasts(_PredictOnly(model), view, 72, h_max, normalizer))


@pytest.mark.parametrize("units", LSTM_SWEEP_UNITS, ids=str)
def test_lstm_roll_matches_the_predict_recursion_at_one_origin(units):
    """One origin is the exception to bitwise: the recursion then multiplies
    one-row matrices, which numpy sends to GEMV, while the prefix pass runs
    several starts through GEMM; the two sum in different orders, about
    1e-16 apart."""
    model, view, normalizer = _lstm_sweep_inputs(units, 1)
    for h_max in (1, 6, 24):
        np.testing.assert_allclose(
            harness.roll_forecasts(model, view, 72, h_max, normalizer),
            harness.roll_forecasts(_PredictOnly(model), view, 72, h_max, normalizer),
            rtol=0, atol=1e-15,
        )


def _roll_block_inputs(model_id, origins):
    """A model with its own `roll`, a 72-point training slice followed by
    `origins` test points, and the training slice's normalizer."""
    if model_id != "tsfm":
        return _lstm_sweep_inputs(ROLL_BLOCK_LSTMS[model_id], origins)
    view = generate_series(GeneratorSpec(family="seasonal", length=72 + origins, period=24,
                                         noise_std=0.05, seed=origins))
    normalizer = fit_normalizer(view.slice(0, 72))
    model = TransformerForecaster(TransformerConfig(), init_seed=4)
    model.set_normalizer(normalizer)
    return model, view, normalizer


ROLL_BLOCK_LSTMS = {"lstm-16-8": (16, 8), "lstm-6-5-3": (6, 5, 3)}
# (ROLL_ROWS, origins): one-row tails (33 over 16 and 32, 257 and 769 over
# 256), a longer tail and whole blocks; the transformer also sweeps 768
# origins in 16-, 100- and 384-row blocks.
ROLL_BLOCK_CASES = [(model_id, rows, origins) for model_id in ("tsfm", *ROLL_BLOCK_LSTMS)
                    for rows, origins in [(16, 33), (16, 40), (16, 48), (32, 33), (32, 40), (32, 48),
                                          (256, 257), (256, 769)]]
ROLL_BLOCK_CASES += [("tsfm", rows, 768) for rows in (16, 100, 384)]


@pytest.mark.parametrize("model_id,rows,origins", ROLL_BLOCK_CASES)
def test_roll_forecasts_in_origin_blocks_is_bitwise_one_pass(monkeypatch, model_id, rows, origins):
    model, view, normalizer = _roll_block_inputs(model_id, origins)
    monkeypatch.setattr(harness, "ROLL_ROWS", rows)
    _assert_bitwise(harness.roll_forecasts(model, view, 72, 24, normalizer), model.roll(view, 72, 24, normalizer))


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


def _loop_leaf_sum(model, probe):
    """GradientBoostedTrees.predict before the one-pass sum: the kept trees'
    gathered leaves added to `initial` one tree at a time in a Python loop."""
    out = np.full(len(probe), model.initial)
    joint, starts = model._stacked
    start = np.broadcast_to(starts[:, None], (len(starts), len(probe)))
    for leaf in joint.value[joint._descend(probe, start)]:
        out += model.learning_rate * leaf
    return out


def test_gbt_one_pass_leaf_sum_is_bitwise_the_loop():
    rng = np.random.default_rng(11)
    fitted = 0
    for seed in range(6):
        features, targets, probe = _random_tree_data(rng)
        windows = SupervisedWindowSet(features, targets, window_length=features.shape[1], horizon_step=1)
        model = GradientBoostedTrees(estimators=int(rng.integers(20, 80)), min_child_samples=2,
                                     early_stopping_rounds=10, inner_depth=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model.fit(windows, seed=seed)
        if len(model.trees) > 1:
            fitted += 1
            _assert_bitwise(model.predict(probe), _loop_leaf_sum(model, probe))
    assert fitted >= 4


def test_causal_mask_is_a_cached_read_only_lower_triangle():
    for tq, tk in ((1, 1), (3, 3), (1, 5), (4, 7)):
        mask = _causal_mask(tq, tk)
        np.testing.assert_array_equal(mask, np.tril(np.ones((tq, tk), dtype=bool), k=tk - tq))
        assert _causal_mask(tq, tk) is mask and not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0] = False


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
        generated = model._generate(contexts, config.horizon_length)
        with no_grad():
            replayed = model._forward_teacher(contexts, generated).value
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


def _reference_minibatch_train(params, forward_loss, sample_count, epochs, batch, learning_rate, rng):
    """The neural baselines' own loop before nn.train_minibatch."""
    curve = []
    step = 0
    for _ in range(epochs):
        order = rng.permutation(sample_count)
        total = 0.0
        for lo in range(0, sample_count, batch):
            chosen = order[lo : lo + batch]
            loss = forward_loss(chosen, len(chosen))
            if not np.isfinite(loss.value):
                raise NumericError("training loss became non-finite")
            loss.backward()
            step += 1
            adam_update(params, learning_rate, step)
            total += float(loss.value) * len(chosen)
        curve.append(total / sample_count)
    return curve


def _reference_run_epochs(model, contexts, targets, epochs, learning_rate, rng, batch_size,
                          val_contexts=None, val_targets=None, patience=5):
    """TransformerForecaster's own loop before nn.train_minibatch."""
    n = contexts.shape[0]
    for param in model.params:
        param.m[...] = 0.0
        param.v[...] = 0.0
    model.params.zero_grads()
    curve = []
    best_val = np.inf
    best_state = None
    stale = 0
    step = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, batch_size):
            batch = order[lo : lo + batch_size]
            loss = ad.mse(model._forward_teacher(contexts[batch], targets[batch]), targets[batch])
            loss.backward()
            step += 1
            adam_update(model.params, learning_rate, step)
            total += float(loss.value) * len(batch)
        curve.append(total / n)
        if val_contexts is not None:
            with no_grad():
                val_pred = model._forward_teacher(val_contexts, val_targets)
                val_loss = float(np.mean((val_pred.value - val_targets) ** 2))
            if val_loss < best_val - 1e-12:
                best_val = val_loss
                best_state = model.params.snapshot()
                stale = 0
            else:
                stale += 1
                if stale >= patience:
                    break
    if best_state is not None:
        model.params.restore(best_state)
    return curve


def _seasonal_windows(length=90, window=12, seed=6):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    lags = 0.5 + 0.3 * np.sin(2 * np.pi * (t[:, None] + np.arange(window)) / 24)
    lags += rng.normal(scale=0.03, size=lags.shape)
    clock = np.column_stack([np.sin(t), np.cos(t)])
    targets = np.clip(lags[:, -1] + rng.normal(scale=0.05, size=length), 0.05, 0.95)
    return SupervisedWindowSet(np.hstack([lags, clock]), targets, window_length=window, horizon_step=1)


def _three_step_setup(case):
    """(params, loss_fn, sample_count, batch, learning_rate) for one of the
    four training jobs, over sample counts that make three steps an epoch,
    the last one short."""
    rng = np.random.default_rng(3)
    if case in ("pretrain", "fine_tune"):
        model = TransformerForecaster(TransformerConfig(), init_seed=1)
        recipe = GeneratorSpec(family="seasonal", length=109, period=24, noise_std=0.05, seed=8)
        if case == "fine_tune":
            model.pretrain(_small_corpus(), epochs=1, batch_size=64)
            model.params.m.fill(0.0)  # the reference loop does not reset Adam's moments
            model.params.v.fill(0.0)
            recipe = GeneratorSpec(family="trend_seasonal", length=109, period=24, noise_std=0.2, seed=9)
        values = _guarded_normalize(generate_series(recipe).values)
        contexts, targets = sequence_windows(values, 24, 6)
        return model.params, model._teacher_losses(contexts, targets)[0], len(contexts), 32, 1e-3
    windows = _seasonal_windows(length=20)
    x, y = windows.inputs, windows.targets
    model = MLPModel() if case == "mlp" else LSTMModel()
    model.window_length = windows.window_length
    model.params = model._build(x.shape[1], rng) if case == "mlp" else model._build(rng)
    return (model.params, lambda rows, batch_rows: ad.mse(model._forward(x[rows]), y[rows], batch_rows),
            len(y), model.batch, 1e-3)


@pytest.mark.parametrize("case", ["pretrain", "fine_tune", "mlp", "lstm"])
def test_training_steps_match_a_plain_step_loop(case):
    params, loss_fn, count, batch, rate = _three_step_setup(case)
    assert -(-count // batch) == 3 and count % batch
    curve = train_minibatch(params, loss_fn, count, 2, batch, rate, np.random.default_rng(5))
    fresh_params, fresh_loss, *_ = _three_step_setup(case)
    expected = _reference_minibatch_train(fresh_params, fresh_loss, count, 2, batch, rate, np.random.default_rng(5))
    np.testing.assert_array_equal(curve, expected)
    assert params.state_hash() == fresh_params.state_hash()


def _shared_parent_value(op):
    """A loss in which a view of p's value (`op`) runs its backward pass
    before `mul`, which reads p's value after it."""

    def build(x, w):
        p = ad.matmul(x, w)
        return ad.add(op(p), ad.mul(p, p))

    return build


#: Graphs whose nodes share memory: a gradient handed to two parents, views
#: of a gradient, and views of a value that a later backward function reads.
_SHARED_MEMORY_CASES = {
    # add hands its gradient to the first parent and a copy to the second
    "add_shared_gradient": lambda x, w: ad.add(ad.scale(x, 2.0), ad.scale(x, 3.0)),
    "add_layer_norm_y_copy": lambda x, w: ad.add_layer_norm(
        ad.scale(x, 2.0), ad.scale(x, 3.0), Tensor(np.full((1, 64), 1.5)), Tensor(np.full((1, 64), 0.25))),
    # axis 0 slices are contiguous, so each parent adopts a view of the gradient
    "concat_slices": lambda x, w: ad.concat([ad.scale(x, 2.0), ad.relu(x)], axis=0),
    "index_slice": _shared_parent_value(lambda p: ad.index(p, (slice(None), slice(None)))),
    "reshape_view": _shared_parent_value(lambda p: ad.reshape(p, p.shape)),
}


@pytest.mark.parametrize("case", sorted(_SHARED_MEMORY_CASES))
def test_tape_gives_back_only_memory_nothing_reads(case, monkeypatch):
    """Backward spends the tape, so Python frees each node's arrays once its
    backward function has run. The gradients are bitwise those of a tape
    whose every intermediate the caller still holds."""
    rng = np.random.default_rng(11)
    x0, w0 = rng.normal(size=(64, 64)), rng.normal(size=(64, 64)) / 8.0
    make = ad._make
    results = []
    for hold in (True, False):
        made = []  # every node the ops make, or only a weak reference to its value

        def recorded_make(value, parents, backward):
            out = make(value, parents, backward)
            made.append(out if hold else weakref.ref(out.value))
            return out

        with monkeypatch.context() as patch:
            patch.setattr(ad, "_make", recorded_make)
            x, w = Tensor(x0, requires_grad=True), Tensor(w0, requires_grad=True)
            out = _SHARED_MEMORY_CASES[case](x, w)
            loss = ad.mse(out, np.zeros(out.shape))
        loss.backward()
        if not hold:  # only what the caller holds outlives the spent tape
            alive = [ref() for ref in made if ref() is not None]
            assert all(value is out.value or value is loss.value for value in alive), len(alive)
        results.append((np.asarray(loss.value), x.grad, w.grad))
    for held, spent in zip(*results):
        if held is not None:
            _assert_bitwise(spent, held)


@pytest.mark.parametrize("make", [lambda: MLPModel(epochs=12), lambda: LSTMModel(epochs=3)])
def test_neural_baselines_train_bitwise_like_the_old_loop(make):
    windows = _seasonal_windows()
    x, y = windows.inputs, windows.targets
    model = make().fit(windows, seed=7)
    reference = make()
    reference.window_length = windows.window_length
    rng = np.random.default_rng(7)
    if isinstance(reference, MLPModel):
        reference.params = reference._build(x.shape[1], rng)
    else:
        reference.params = reference._build(rng)
    curve = _reference_minibatch_train(
        reference.params, lambda chosen, batch_rows: ad.mse(reference._forward(x[chosen]), y[chosen]),
        len(y), reference.epochs, reference.batch, reference.learning_rate, rng,
    )
    np.testing.assert_allclose(model.curve, curve, rtol=0, atol=0)
    assert len(model.curve) == reference.epochs
    assert model.params.state_hash() == reference.params.state_hash()


def _small_corpus():
    return [
        generate_series(GeneratorSpec(family="seasonal", length=64, period=12, noise_std=0.05, seed=70 + i))
        for i in range(5)
    ]


def test_pretrain_and_early_stopping_fine_tune_match_the_old_loop():
    corpus = _small_corpus()
    model = TransformerForecaster(TINY, init_seed=1)
    curve = model.pretrain(corpus, epochs=3, seed=2, batch_size=32)
    reference = TransformerForecaster(TINY, init_seed=1)
    pooled = [sequence_windows(_guarded_normalize(s.values), 12, 3) for s in corpus]
    contexts = np.concatenate([c for c, _ in pooled])
    targets = np.concatenate([t for _, t in pooled])
    expected = _reference_run_epochs(reference, contexts, targets, 3, 1e-3, np.random.default_rng(2), 32)
    np.testing.assert_allclose(curve, expected, rtol=0, atol=0)
    assert len(curve) == 3
    assert model.state_hash() == reference.state_hash()

    target = generate_series(
        GeneratorSpec(family="trend_seasonal", length=200, period=24, noise_std=0.3, seed=9)
    )
    tuned = model.clone()
    curve = tuned.fine_tune(target, epochs=40, learning_rate=5e-3, seed=4)
    values = fit_normalizer(target.values).apply(target.values)
    contexts, targets = sequence_windows(values, 12, 3)
    split = len(contexts) - int(round(VALIDATION_TAIL * len(contexts)))
    expected = _reference_run_epochs(
        reference, contexts[:split], targets[:split], 40, 5e-3, np.random.default_rng(4), 32,
        contexts[split:], targets[split:],
    )
    np.testing.assert_allclose(curve, expected, rtol=0, atol=0)
    assert len(curve) == len(expected) < 40  # early stopping fired and restored the best epoch
    assert tuned.state_hash() == reference.state_hash()


def _batch_256_windows():
    """256 default-config training windows: one pretrain batch."""
    series = generate_series(GeneratorSpec(family="seasonal", length=285, period=24, noise_std=0.05, seed=12))
    return series, *sequence_windows(_guarded_normalize(series.values), 24, 6)


def _one_batch_256_step(monkeypatch, passes):
    """One default-config batch-256 step: `pretrain` itself with passes,
    else `train_minibatch` on the same windows and seed in one pass
    (PASS_ROWS raised to the batch).
    Returns each forward pass's teacher-forced outputs, the gradient Adam
    reads and the step's loss."""
    series, contexts, targets = _batch_256_windows()
    model = TransformerForecaster(TransformerConfig(), init_seed=3)
    outputs, grads = [], []
    forward = model._forward_teacher

    def recorded_forward(c, t):
        out = forward(c, t)
        outputs.append(out.value)
        return out

    def recorded_update(params, learning_rate, step):
        grads.append(params.grad.copy())
        adam_update(params, learning_rate, step)

    model._forward_teacher = recorded_forward
    monkeypatch.setattr(adam, "adam_update", recorded_update)
    if passes:
        curve = model.pretrain([series], epochs=1, seed=0, batch_size=256)
    else:
        with monkeypatch.context() as patch:
            patch.setattr(adam, "PASS_ROWS", 256)
            curve = train_minibatch(model.params, model._teacher_losses(contexts, targets)[0], len(contexts),
                                    1, 256, 1e-3, np.random.default_rng(0))
    assert len(grads) == 1
    return outputs, grads[0], curve[0]


#: Largest gradient difference allowed between 32-row passes and one pass,
#: relative to the largest gradient entry: only the sums over rows reorder.
PASS_GRAD_RTOL = 1e-13


def test_batch_256_pretrain_step_in_32_row_passes_matches_one_pass(monkeypatch):
    outputs, grad, loss = _one_batch_256_step(monkeypatch, passes=True)
    one_outputs, one_grad, one_loss = _one_batch_256_step(monkeypatch, passes=False)
    assert [len(o) for o in outputs] == [adam.PASS_ROWS] * 8 and len(one_outputs) == 1
    _assert_bitwise(np.concatenate(outputs), one_outputs[0])  # every op is row-independent
    scale = np.abs(one_grad).max()
    assert np.abs(grad - one_grad).max() <= PASS_GRAD_RTOL * scale, np.abs(grad - one_grad).max() / scale
    assert abs(loss - one_loss) <= 1e-14 * one_loss


def test_held_out_loss_in_passes_is_bitwise_one_pass():
    _, contexts, targets = _batch_256_windows()
    contexts, targets = contexts[:100], targets[:100]  # passes of 32, 32, 32 and 4 rows
    model = TransformerForecaster(TransformerConfig(), init_seed=3)
    with no_grad():
        predicted = model._forward_teacher(contexts, targets).value
    assert model._teacher_losses(contexts, targets)[1]() == float(np.mean((predicted - targets) ** 2))


def test_pass_weighted_loss_passes_grad_check():
    _, contexts, targets = _batch_256_windows()
    model = TransformerForecaster(TransformerConfig(), init_seed=3)
    batch_loss = model._teacher_losses(contexts, targets)[0]
    n, rows = 80, adam.PASS_ROWS
    starts = range(0, n, rows)  # passes of 32, 32 and 16 rows

    def forward():
        # Every pass but the last backpropagates into the store here, as in
        # a training step; the last is returned with the earlier losses
        # added as a constant, so grad_check's backward() completes the sum.
        earlier = 0.0
        for lo in starts[:-1]:
            loss = batch_loss(np.arange(lo, lo + rows), n)
            loss.backward()
            earlier += float(loss.value)
        return ad.add(batch_loss(np.arange(starts[-1], n), n), earlier)

    with no_grad():
        whole = float(batch_loss(np.arange(n), n).value)
    np.testing.assert_allclose(float(forward().value), whole, rtol=1e-14)
    assert grad_check(forward, model.params, probe_count=30, rng=np.random.default_rng(2)) < 1e-4


def _tape_dense(h, weights, biases):
    """The per-layer tape dense_stack replaced: matmul, add, then ReLU or the sigmoid head."""
    for k, (w, b) in enumerate(zip(weights, biases)):
        h = ad.add(ad.matmul(h, w), b)
        h = ad.sigmoid(h) if k == len(weights) - 1 else ad.relu(h)
    return h


def _tape_mse(prediction, target, count=None):
    """The sub/mul/mean chain the one-node mse replaced (a mean over the whole target only)."""
    assert count in (None, np.size(target))
    diff = ad.sub(prediction, Tensor(np.asarray(target, dtype=np.float64)))
    return ad.mean(ad.mul(diff, diff))


def _assert_bitwise(actual, expected):
    """Equal bit patterns, so signed zeros count too."""
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


def _dense_store(rng, widths):
    params = ParamStore()
    for k, (fan_in, units) in enumerate(zip(widths[:-1], widths[1:]), start=1):
        params.add(f"w{k}", rng.normal(scale=0.8, size=(fan_in, units)))
        params.add(f"b{k}", rng.normal(scale=0.3, size=(1, units)))
    return params


def _dense_value_and_grads(stack, params, x_value, upstream, x_grad):
    """Output and gradients with plain leaves, which adopt their first gradient, so signed zeros show."""
    depth = len(params) // 2
    leaves = {p.name: Tensor(p.value.copy(), requires_grad=True) for p in params}
    x = Tensor(x_value.copy(), requires_grad=x_grad)
    out = stack(x, [leaves[f"w{k}"] for k in range(1, depth + 1)], [leaves[f"b{k}"] for k in range(1, depth + 1)])
    ad.tsum(ad.mul(out, Tensor(upstream))).backward()
    return [out.value] + [leaf.grad for leaf in leaves.values()] + ([x.grad] if x_grad else [])


@pytest.mark.parametrize("x_grad", [False, True], ids=["constant_x", "taped_x"])
@pytest.mark.parametrize("batch", [1, 9])
@pytest.mark.parametrize("widths", [(5, 1), (5, 16, 1), (26, 16, 16, 1)], ids=["depth1", "depth2", "depth3"])
def test_dense_stack_is_bitwise_the_per_layer_tape(widths, batch, x_grad):
    rng = np.random.default_rng(len(widths) * 10 + batch)
    params = _dense_store(rng, widths)
    x = rng.normal(size=(batch, widths[0]))
    upstream = rng.normal(size=(batch, 1))
    fused = _dense_value_and_grads(ad.dense_stack, params, x, upstream, x_grad)
    tape = _dense_value_and_grads(_tape_dense, params, x, upstream, x_grad)
    assert len(fused) == len(tape)
    for a, b in zip(fused, tape):
        _assert_bitwise(a, b)


@pytest.mark.parametrize("widths", [(5, 1), (5, 6, 1), (4, 6, 5, 1)], ids=["depth1", "depth2", "depth3"])
def test_dense_stack_passes_grad_check(widths):
    rng = np.random.default_rng(40 + len(widths))
    params = _dense_store(rng, widths)
    params.add("x", rng.normal(size=(7, widths[0])))
    depth = len(widths) - 1
    target = rng.uniform(0.1, 0.9, size=(7, 1))

    def forward():
        out = ad.dense_stack(params.tensor("x"), [params.tensor(f"w{k}") for k in range(1, depth + 1)],
                             [params.tensor(f"b{k}") for k in range(1, depth + 1)])
        return ad.mse(out, target)

    assert grad_check(forward, params, probe_count=40, rng=np.random.default_rng(0)) < 1e-4


def test_dense_stack_guards_and_keeps_no_tape_under_no_grad():
    with pytest.raises(ShapeError):
        ad.dense_stack(np.zeros((2, 3)), [np.zeros((3, 1))], [])
    rng = np.random.default_rng(44)
    params = _dense_store(rng, (3, 4, 1))
    with no_grad():
        out = ad.dense_stack(np.ones((2, 3)), [params.tensor("w1"), params.tensor("w2")],
                             [params.tensor("b1"), params.tensor("b2")])
    assert out._backward is None and out._parents == ()


@pytest.mark.parametrize("shape", [(1,), (8,), (4, 6)])
def test_one_node_mse_is_bitwise_the_tape_chain(shape):
    rng = np.random.default_rng(sum(shape))
    start, target = rng.normal(size=shape), rng.normal(size=shape)
    results = []
    for loss_fn in (ad.mse, _tape_mse):
        prediction = Tensor(start.copy(), requires_grad=True)
        loss = loss_fn(ad.scale(prediction, 1.5), target)
        ad.add(ad.scale(loss, 0.7), loss).backward()  # an upstream gradient that is not 1
        results.append((np.asarray(loss.value), prediction.grad))
    for a, b in zip(*results):
        _assert_bitwise(a, b)


def _old_softmax(logits, mask=None):
    """softmax before the in-place rewrite: np.where copies and allocating exp and divide."""
    if mask is not None:
        logits = np.where(mask, logits, -np.inf)
    m = np.max(logits, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(logits - m)
    denom = e.sum(axis=-1, keepdims=True)
    denom = np.where(denom == 0.0, 1.0, denom)
    return e / denom


def _old_layer_norm(x, gamma, beta):
    centered = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered**2).mean(axis=-1, keepdims=True) + ad.LAYER_NORM_EPSILON)
    return gamma * (centered * inv) + beta


def _masks(tq, tk):
    causal = np.tril(np.ones((tq, tk), dtype=bool), k=tk - tq)  # suffix queries when tq < tk
    blocked = causal.copy()
    blocked[0] = False  # a fully masked row
    return {"none": None, "causal": causal, "blocked_row": blocked}


@pytest.mark.parametrize("mask_name", ["none", "causal", "blocked_row"])
@pytest.mark.parametrize("shape", [(6, 6), (3, 7), (2, 3, 5, 5), (2, 3, 2, 6)], ids=["2d", "2d_suffix", "4d", "4d_suffix"])
def test_in_place_softmax_is_bitwise_the_allocating_kernel(shape, mask_name):
    rng = np.random.default_rng(shape[-1] * 7 + len(shape))
    logits = rng.normal(scale=3.0, size=shape)
    mask = _masks(*shape[-2:])[mask_name]
    out = ad.softmax(Tensor(logits), mask=mask).value
    _assert_bitwise(out, _old_softmax(logits, mask))
    if mask_name == "blocked_row":
        assert not out[..., 0, :].any()
    upstream = rng.normal(size=shape)
    x = Tensor(logits.copy(), requires_grad=True)
    ad.tsum(ad.mul(ad.softmax(x, mask=mask), upstream)).backward()
    value = _old_softmax(logits, mask)
    _assert_bitwise(x.grad, value * (upstream - (upstream * value).sum(axis=-1, keepdims=True)))


def _row_max_by_columns(x):
    """The row max as one np.maximum per column, which `_row_max` runs on many rows."""
    m = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j : j + 1], out=m)
    return m


# One-origin encoder and decoder attention (reduction), batch-32 and batch-768 (column loop).
@pytest.mark.parametrize("shape", [(1, 4, 24, 24), (1, 4, 1, 6), (32, 4, 24, 24), (768, 4, 1, 24)])
def test_row_max_is_bitwise_the_column_loop(shape):
    rng = np.random.default_rng(shape[0])
    x = rng.normal(scale=3.0, size=shape)
    rows = x.reshape(-1, shape[-1])
    rows[::3] = -np.inf  # fully masked rows
    rows[1::3, : shape[-1] // 2] = -np.inf  # partly masked rows
    rows[1, -1] = np.nan
    rows[2, 0] = np.nan
    got = ad._row_max(x)
    expected = _row_max_by_columns(x)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert np.isnan(got.reshape(-1)[[1, 2]]).all() and np.isneginf(got.reshape(-1)[0])


@pytest.mark.parametrize("shape", [(5, 8), (3, 4, 8)], ids=["2d", "3d"])
def test_in_place_layer_norm_is_bitwise_the_allocating_kernel(shape):
    rng = np.random.default_rng(len(shape))
    x = rng.normal(loc=2.0, scale=3.0, size=shape)
    gamma, beta = rng.normal(size=(1, 8)), rng.normal(size=(1, 8))
    _assert_bitwise(ad.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).value, _old_layer_norm(x, gamma, beta))


def _per_feature_split(features, targets, min_child=1):
    """best_split before the all-columns scan: one argsort and two cumsums per feature."""
    n = len(targets)
    if n < 2 * min_child:
        return None
    total = float(targets.sum())
    total_sq = float((targets * targets).sum())
    parent = total_sq - total * total / n
    best = None
    for f in range(features.shape[1]):
        column = features[:, f]
        order = np.argsort(column)
        xs = column[order]
        ys = targets[order]
        cut = np.nonzero(xs[:-1] < xs[1:])[0]
        if min_child > 1:
            cut = cut[(cut + 1 >= min_child) & (n - cut - 1 >= min_child)]
        if cut.size == 0:
            continue
        cum = np.cumsum(ys)
        cum_sq = np.cumsum(ys * ys)
        left_count = cut + 1
        right_count = n - left_count
        left_sse = cum_sq[cut] - cum[cut] ** 2 / left_count
        right_sse = (total_sq - cum_sq[cut]) - (total - cum[cut]) ** 2 / right_count
        gains = parent - left_sse - right_sse
        pick = int(np.argmax(gains))
        gain = float(gains[pick])
        if gain <= trees.MIN_GAIN:
            continue
        if best is None or gain > best[2]:
            best = (f, float((xs[cut[pick]] + xs[cut[pick] + 1]) / 2.0), gain)
    return best


def test_all_columns_split_matches_the_per_feature_scan():
    rng = np.random.default_rng(50)
    found = 0
    for _ in range(400):
        n, d = int(rng.integers(1, 160)), int(rng.integers(1, 28))
        features = rng.integers(0, int(rng.integers(1, 10)), size=(n, d)).astype(float)  # heavy ties
        if rng.random() < 0.3:
            features += rng.normal(size=features.shape)
        targets = rng.normal(size=n) * 10.0 ** rng.integers(-3, 3)
        if rng.random() < 0.3:
            targets = np.round(targets, 1)  # equal gains across features and cuts
        min_child = int(rng.integers(0, 30))
        expected = _per_feature_split(features, targets, min_child)
        assert trees.best_split(features, targets, min_child) == expected
        found += expected is not None
    assert 100 < found < 400


def test_trees_grow_identically_with_the_per_feature_scan(monkeypatch):
    windows = _seasonal_windows(length=300, window=24, seed=9)
    fitted = []
    for split in (trees.best_split, _per_feature_split):
        monkeypatch.setattr(trees, "best_split", split)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gbt = GradientBoostedTrees(estimators=40, min_child_samples=20).fit(windows, seed=3)
        rt = RegressionTree(max_depth=6, max_leaves=30).fit(windows)
        fitted.append((gbt, rt))
    (gbt, rt), (gbt_scan, rt_scan) = fitted
    assert gbt.initial == gbt_scan.initial and len(gbt.trees) == len(gbt_scan.trees)
    for tree, twin in zip(gbt.trees + [rt], gbt_scan.trees + [rt_scan]):
        for name in ("feature", "threshold", "left", "right", "value"):
            np.testing.assert_array_equal(getattr(tree, name), getattr(twin, name))
    assert any(len(tree.feature) > 1 for tree in gbt.trees)


@pytest.mark.parametrize("make", [lambda: MLPModel(epochs=12), lambda: LSTMModel(epochs=3)], ids=["mlp", "lstm"])
def test_neural_baselines_train_bitwise_like_the_per_layer_tape(monkeypatch, make):
    windows = _seasonal_windows()
    fused = make().fit(windows, seed=8)
    monkeypatch.setattr(ad, "dense_stack", _tape_dense)
    monkeypatch.setattr(ad, "mse", _tape_mse)
    tape = make().fit(windows, seed=8)
    np.testing.assert_allclose(fused.curve, tape.curve, rtol=0, atol=0)
    assert fused.params.state_hash() == tape.params.state_hash()
    _assert_bitwise(fused.predict(windows.inputs), tape.predict(windows.inputs))


def _split_heads(m, head_count):
    """The per-head view the tape built: reshape to (B, T, H, dh), then move the heads before time."""
    b, t, d = m.value.shape
    return ad.transpose(ad.reshape(m, (b, t, head_count, d // head_count)), (0, 2, 1, 3))


def _tape_attention(q, k, v, head_count, mask):
    """The tape `ad.attention` replaced: split heads, Q @ K^T, scale, softmax, @ V, merge the heads."""
    qh, kh, vh = (_split_heads(t, head_count) for t in (q, k, v))
    scores = ad.scale(ad.matmul(qh, ad.transpose(kh, (0, 1, 3, 2))), 1.0 / np.sqrt(qh.value.shape[-1]))
    heads = ad.matmul(ad.softmax(scores, mask=mask), vh)
    b, _, tq, _ = heads.value.shape
    return ad.reshape(ad.transpose(heads, (0, 2, 1, 3)), (b, tq, v.value.shape[-1]))


def _tape_multi_head_attention(x, params, head_count, causal=False, kv=None, prefix="", cache=None):
    """multi_head_attention on the tape `ad.attention` replaced (no decoding cache)."""
    assert cache is None
    x = ad.astensor(x)
    source = x if kv is None else ad.astensor(kv)
    q = ad.matmul(x, params.tensor(prefix + "wq"))
    k = ad.matmul(source, params.tensor(prefix + "wk"))
    v = ad.matmul(source, params.tensor(prefix + "wv"))
    mask = _causal_mask(q.value.shape[1], k.value.shape[1]) if causal else None
    return ad.matmul(_tape_attention(q, k, v, head_count, mask), params.tensor(prefix + "wo"))


def _tape_conv_pool(x, weights, bias, pool_range, causal=False):
    """conv_pool_forward's tape before it was one node."""
    return ad.maxpool1d_same(ad.relu(ad.conv1d_same(x, weights, bias, causal=causal)), pool_range, causal=causal)


class _TapeForecaster(TransformerForecaster):
    """The forecaster with add and layer_norm and the three-op conv block
    (attention comes from `_tape_multi_head_attention`, patched in)."""

    def _add_norm(self, prefix, h, sublayer):
        return ad.layer_norm(ad.add(h, sublayer), self.params.tensor(prefix + "g"), self.params.tensor(prefix + "b"))

    def _conv_block(self, prefix, x, causal=False, cache=None):
        assert cache is None
        cfg = self.config
        kernel = ad.reshape(self.params.tensor(prefix + "w"), (cfg.conv_kernel_width, cfg.d_model, cfg.d_model))
        return _tape_conv_pool(x, kernel, self.params.tensor(prefix + "b"), cfg.pool_range, causal=causal)


def _attention_store(rng, d):
    params = ParamStore()
    for name in ATTENTION_WEIGHT_NAMES:
        params.add(name, rng.normal(scale=0.4, size=(d, d)))
    return params


@pytest.mark.parametrize("mask_name", ["none", "causal", "blocked_row"])
@pytest.mark.parametrize("tq,tk", [(5, 5), (2, 6)], ids=["square", "suffix"])
@pytest.mark.parametrize("batch", [1, 9])
@pytest.mark.parametrize("head_count", [1, 2, 4])
def test_fused_attention_is_bitwise_the_tape(head_count, batch, tq, tk, mask_name):
    rng = np.random.default_rng(head_count * 100 + batch * 10 + tq)
    arrays = [rng.normal(size=(batch, tq, 8)), rng.normal(size=(batch, tk, 8)), rng.normal(size=(batch, tk, 8))]
    mask = _masks(tq, tk)[mask_name]
    fused = _value_and_grads(lambda q, k, v: ad.attention(q, k, v, head_count, mask), arrays, seed=tq)
    tape = _value_and_grads(lambda q, k, v: _tape_attention(q, k, v, head_count, mask), arrays, seed=tq)
    for a, b in zip(fused, tape):
        _assert_bitwise(a, b)
    if mask_name == "blocked_row":
        assert not fused[0][:, 0].any()


def test_attention_guards_its_shapes():
    q, k = np.zeros((2, 3, 8)), np.zeros((2, 4, 8))
    with pytest.raises(ShapeError):
        ad.attention(q, k, np.zeros((2, 5, 8)), 2)  # K/V row counts differ
    with pytest.raises(ShapeError):
        ad.attention(q, k, np.zeros((3, 4, 8)), 2)  # batch sizes differ
    with pytest.raises(ShapeError):
        ad.attention(q, np.zeros((2, 4, 6)), np.zeros((2, 4, 8)), 2)  # Q/K feature dims differ
    with pytest.raises(ShapeError):
        ad.attention(q, np.zeros((2, 4, 6)), np.zeros((2, 4, 8)), 4)  # ... and K's is not divisible
    with pytest.raises(ShapeError):
        ad.attention(q, np.zeros((4, 8)), np.zeros((4, 8)), 2)  # leading axes do not broadcast
    with pytest.raises(ConfigError):
        ad.attention(q, k, np.zeros((2, 4, 8)), 3)


def test_cached_cross_attention_is_bitwise_the_tape():
    """Keys and values projected once and reused give each step what projecting them again gives."""
    rng = np.random.default_rng(80)
    params = _attention_store(rng, 8)
    x, source = rng.normal(size=(3, 4, 8)), rng.normal(size=(3, 7, 8))
    cache = {}
    for t in range(4):
        row = x[:, t : t + 1]
        step = multi_head_attention(row, params, 2, kv=source, cache=cache).value
        _assert_bitwise(step, _tape_multi_head_attention(row, params, 2, kv=source).value)
        assert cache["k"].value.shape == (3, 7, 8)


def test_projection_matmuls_get_contiguous_gradients(monkeypatch):
    """With the heads split on the tape, the key projection's gradient reached
    its matmul as a (B, T, d) view whose feature axis had stride T, and the
    folded matmul copied it; the fused node writes every gradient contiguous."""
    rng = np.random.default_rng(81)
    params = _attention_store(rng, 8)
    matmul, seen = ad.matmul, {}

    def recording(a, b):
        out = matmul(a, b)
        names = [n for n in ATTENTION_WEIGHT_NAMES if getattr(b, "grad", None) is params.get(n).grad]
        if names and out._backward is not None:
            backward = out._backward

            def check(g):
                seen.setdefault(names[0], []).append(g.flags.c_contiguous)
                backward(g)

            out._backward = check
        return out

    monkeypatch.setattr(ad, "matmul", recording)
    x = Tensor(rng.normal(size=(3, 5, 8)), requires_grad=True)
    source = Tensor(rng.normal(size=(3, 6, 8)), requires_grad=True)
    out = ad.add(multi_head_attention(x, params, 2, causal=True), multi_head_attention(x, params, 2, kv=source))
    ad.tsum(ad.mul(out, Tensor(rng.normal(size=out.value.shape)))).backward()
    assert seen == {name: [True, True] for name in ATTENTION_WEIGHT_NAMES}


@pytest.mark.parametrize("x_grad", [False, True], ids=["constant_x", "taped_x"])
@pytest.mark.parametrize("shape", [(5, 8), (3, 4, 8)], ids=["2d", "3d"])
def test_add_layer_norm_is_bitwise_add_then_layer_norm(shape, x_grad):
    rng = np.random.default_rng(len(shape) + 10 * x_grad)
    arrays = [rng.normal(loc=1.0, scale=2.0, size=shape), rng.normal(size=shape),
              rng.normal(size=(1, 8)), rng.normal(size=(1, 8))]
    upstream = rng.normal(size=shape)
    results = []
    for op in (ad.add_layer_norm, lambda x, y, g, b: ad.layer_norm(ad.add(x, y), g, b)):
        x = Tensor(arrays[0].copy(), requires_grad=x_grad)
        rest = [Tensor(a.copy(), requires_grad=True) for a in arrays[1:]]
        out = op(x, *rest)
        ad.tsum(ad.mul(out, Tensor(upstream))).backward()
        results.append([out.value] + [t.grad for t in rest] + ([x.grad] if x_grad else []))
        if x_grad:  # x adopted the sum's gradient, so y holds its own copy
            assert not np.shares_memory(x.grad, rest[0].grad)
    for a, b in zip(*results):
        _assert_bitwise(a, b)


@pytest.mark.parametrize("causal", [False, True], ids=["centered", "causal"])
@pytest.mark.parametrize("k,pool_range", [(1, 1), (3, 1), (3, 3), (5, 3), (3, 5)])
@pytest.mark.parametrize("shape", [(9, 3), (4, 9, 3)], ids=["2d", "3d"])
def test_conv_relu_pool_is_bitwise_the_three_ops(shape, k, pool_range, causal):
    rng = np.random.default_rng(10 * k + pool_range)
    arrays = [rng.normal(size=shape), rng.normal(size=(k, 3, 4)), rng.normal(size=(1, 4))]
    fused = _value_and_grads(lambda x, w, b: ad.conv_relu_pool(x, w, b, pool_range, causal=causal), arrays, seed=k)
    tape = _value_and_grads(lambda x, w, b: _tape_conv_pool(x, w, b, pool_range, causal=causal), arrays, seed=k)
    for a, b in zip(fused, tape):
        _assert_bitwise(a, b)


def test_fused_nodes_keep_no_tape_under_no_grad():
    rng = np.random.default_rng(82)
    q, k, v, x, y = (Tensor(rng.normal(size=(2, 5, 8)), requires_grad=True) for _ in range(5))
    gamma, beta, bias = (Tensor(rng.normal(size=(1, 8)), requires_grad=True) for _ in range(3))
    weights = Tensor(rng.normal(size=(3, 8, 8)), requires_grad=True)
    with no_grad():
        outs = [ad.attention(q, k, v, 2, _masks(5, 5)["causal"]), ad.add_layer_norm(x, y, gamma, beta),
                ad.conv_relu_pool(x, weights, bias, 3, causal=True)]
    for out in outs:
        assert out._backward is None and out._parents == ()


def _fused_losses(rng):
    """Per fused node: its parameter store and a loss built on it."""
    q_target = rng.normal(size=(2, 5, 8))
    attention = ParamStore()
    for name, rows in (("q", 10), ("k", 12), ("v", 12)):
        attention.add(name, rng.normal(size=(rows, 8)))
    mask = _masks(5, 6)["blocked_row"]

    def attention_loss():
        q, k, v = (ad.reshape(attention.tensor(n), (2, -1, 8)) for n in ("q", "k", "v"))
        return ad.mse(ad.tanh(ad.attention(q, k, v, 2, mask)), q_target)

    norm = ParamStore()
    for name, shape in (("x", (10, 8)), ("y", (10, 8)), ("g", (1, 8)), ("b", (1, 8))):
        norm.add(name, rng.normal(size=shape))

    def norm_loss():
        x, y = (ad.reshape(norm.tensor(n), (2, 5, 8)) for n in ("x", "y"))
        return ad.mse(ad.add_layer_norm(x, y, norm.tensor("g"), norm.tensor("b")), q_target)

    conv = ParamStore()
    for name, shape in (("x", (14, 3)), ("w", (9, 4)), ("b", (1, 4))):
        conv.add(name, rng.normal(size=shape))
    conv_target = rng.normal(size=(2, 7, 4))

    def conv_loss():
        x, w = ad.reshape(conv.tensor("x"), (2, 7, 3)), ad.reshape(conv.tensor("w"), (3, 3, 4))
        return ad.mse(ad.tanh(ad.conv_relu_pool(x, w, conv.tensor("b"), 3, causal=True)), conv_target)

    return {"attention": (attention, attention_loss), "add_layer_norm": (norm, norm_loss),
            "conv_relu_pool": (conv, conv_loss)}


@pytest.mark.parametrize("node", ["attention", "add_layer_norm", "conv_relu_pool"])
def test_fused_nodes_pass_grad_check(node):
    params, loss = _fused_losses(np.random.default_rng(83))[node]
    assert grad_check(loss, params, probe_count=40, rng=np.random.default_rng(1)) < 1e-4


@pytest.mark.parametrize("fill", [0.0, -np.inf], ids=["zero", "neg_inf"])
@pytest.mark.parametrize("causal", [False, True], ids=["centered", "causal"])
@pytest.mark.parametrize("width", [1, 3, 5])
@pytest.mark.parametrize("shape", [(6, 3), (2, 6, 3)], ids=["2d", "3d"])
def test_pad_time_is_bitwise_np_pad(shape, width, causal, fill):
    x = np.random.default_rng(width).normal(size=shape)
    padded, left = ad._pad_time(x, width, causal, fill)
    assert left == (width - 1 if causal else width // 2)
    pad_spec = [(0, 0)] * (len(shape) - 2) + [(left, width - 1 - left), (0, 0)]
    _assert_bitwise(padded, np.pad(x, pad_spec, constant_values=fill))


def _teacher_pass(model, contexts, targets):
    """Teacher-forced predictions and every parameter's gradient of their MSE."""
    model.params.zero_grads()
    prediction = model._forward_teacher(contexts, targets)
    ad.mse(prediction, targets).backward()
    return [prediction.value] + [param.grad.copy() for param in model.params]


@pytest.mark.parametrize("batch", [32, 256])
@pytest.mark.parametrize("config", [TransformerConfig(), TINY], ids=["default", "tiny"])
def test_teacher_forced_pass_is_bitwise_the_unfused_tape(monkeypatch, config, batch):
    rng = np.random.default_rng(batch)
    contexts = rng.uniform(-0.2, 1.2, size=(batch, config.context_length))
    targets = rng.uniform(-0.2, 1.2, size=(batch, config.horizon_length))
    fused = _teacher_pass(TransformerForecaster(config, init_seed=5), contexts, targets)
    monkeypatch.setattr(transformer, "multi_head_attention", _tape_multi_head_attention)
    tape = _teacher_pass(_TapeForecaster(config, init_seed=5), contexts, targets)
    assert len(fused) == len(tape)
    for a, b in zip(fused, tape):
        _assert_bitwise(a, b)


def _two_view_windows(values, context, horizon):
    """The transformer's window builder before `series.sequence_windows`: one view per array."""
    n = len(values) - context - horizon + 1
    contexts = np.lib.stride_tricks.sliding_window_view(values, context)[:n]
    targets = np.lib.stride_tricks.sliding_window_view(values[context:], horizon)[:n]
    return np.ascontiguousarray(contexts), np.ascontiguousarray(targets)


@pytest.mark.parametrize("context, horizon", [(24, 6), (12, 3), (24, 1), (3, 1)])
def test_sequence_windows_is_bitwise_the_two_view_builder(context, horizon):
    values = np.random.default_rng(context * 10 + horizon).uniform(-1.0, 1.0, size=context + horizon + 40)
    for length in (len(values), context + horizon):  # the minimum length gives one pair
        pairs = sequence_windows(values[:length], context, horizon)
        assert pairs[0].shape == (length - context - horizon + 1, context)
        for got, expected in zip(pairs, _two_view_windows(values[:length], context, horizon)):
            assert got.flags.c_contiguous
            _assert_bitwise(got, expected)
    with pytest.raises(InsufficientDataError):
        sequence_windows(values[: context + horizon - 1], context, horizon)


def _own_view_make_windows(series, window):
    """make_windows' inputs and targets before it took them from `sequence_windows`."""
    n = len(series) - window
    lags = np.lib.stride_tricks.sliding_window_view(series.values, window)[:n]
    target_idx = np.arange(n) + window
    sin_h, cos_h = hour_features(series.hour_of_day(target_idx))
    return np.column_stack([lags, sin_h, cos_h]), series.values[target_idx]


@pytest.mark.parametrize("window", [1, 3, 24])
def test_make_windows_is_bitwise_its_own_view_builder(window):
    values = np.random.default_rng(window).uniform(0.0, 1.0, size=window + 30)
    for length in (len(values), window + 1):
        series = TimeSeries(datetime(2021, 3, 5, 13, 30), values[:length])
        windows = make_windows(series, window)
        inputs, targets = _own_view_make_windows(series, window)
        _assert_bitwise(windows.inputs, inputs)
        _assert_bitwise(windows.targets, targets)
    with pytest.raises(InsufficientDataError):
        make_windows(TimeSeries(datetime(2021, 3, 5), values[:window]), window)


def _chunk_loop_forecast(model, histories, horizon_hours):
    """forecast_batch's loop before it kept one window: a chunk list and a remaining counter."""
    ctx = model.config.context_length
    window = model.normalizer.apply(histories[:, -ctx:])
    chunks = []
    remaining = horizon_hours
    while remaining > 0:
        steps = min(model.config.horizon_length, remaining)
        predictions = model._generate(window, steps)
        chunks.append(predictions)
        window = np.concatenate([window, predictions], axis=1)[:, -ctx:]
        remaining -= steps
    return model.normalizer.invert(np.concatenate(chunks, axis=1))


@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("config", [TransformerConfig(), TINY], ids=["default", "tiny"])
def test_one_window_forecast_loop_is_bitwise_the_chunk_loop(config, batch):
    model = TransformerForecaster(config, init_seed=13)
    model.set_normalizer(NormalizationParams(10.0, 14.0))
    histories = np.random.default_rng(batch).uniform(10.0, 14.0, size=(batch, config.context_length + 7))
    for horizon in (1, 5, 6, 7, 13, 24):
        forecast = model.forecast_batch(histories, horizon)
        assert forecast.shape == (batch, horizon)
        _assert_bitwise(forecast, _chunk_loop_forecast(model, histories, horizon))


class _OnePassEncodeForecaster(TransformerForecaster):
    """`_generate` before the encoder ran in passes of PASS_ROWS contexts:
    one encode over the whole block."""

    def _generate(self, contexts, steps):
        with no_grad():
            encoded = self._encode(contexts)
            cache = [transformer._LayerCache(self.config, len(contexts)) for _ in range(self.config.decoder_layers)]
            generated = np.zeros((len(contexts), 0))
            for _ in range(steps):
                hidden = self._head(self._decode(generated, encoded, cache)).value
                generated = np.concatenate([generated, hidden], axis=1)
        return generated


@pytest.mark.parametrize("rows", [1, 31, 33, 257])
def test_encoder_passes_forecast_bitwise_the_one_pass_encode(rows):
    """Nine hours is two decoder chunks, so each row is encoded twice."""
    model = TransformerForecaster(init_seed=14)
    rng = np.random.default_rng(rows)
    for param in model.params:  # gains and biases that are not ones and zeros
        param.value[...] += rng.normal(scale=0.1, size=param.value.shape)
    reference = _OnePassEncodeForecaster(init_seed=0)
    reference.params.load_values_from(model.params)
    for forecaster in (model, reference):
        forecaster.set_normalizer(NormalizationParams(10.0, 14.0))
    histories = rng.uniform(10.0, 14.0, size=(rows, 30))
    _assert_bitwise(model.forecast_batch(histories, 9), reference.forecast_batch(histories, 9))


def _tensor_op_conv_step(model, prefix, x, cache):
    """The cached conv step as Tensor ops (matmul, add, relu), before it ran on arrays."""
    weights, bias = model.params.tensor(prefix + "w"), model.params.tensor(prefix + "b")
    window = np.concatenate([cache.conv_in, x.value], axis=1)
    cache.conv_in = window[:, 1:]
    activated = ad.relu(ad.add(ad.matmul(Tensor(window.reshape(window.shape[0], -1)), weights), bias))
    pooled = np.concatenate([cache.activated, activated.value[:, None]], axis=1)
    cache.activated = pooled[:, 1:]
    return Tensor(pooled.max(axis=1, keepdims=True))


@pytest.mark.parametrize("pool_range", [1, 3, 5])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_cached_conv_step_on_arrays_is_bitwise_the_tensor_ops(k, pool_range):
    config = TransformerConfig(d_model=8, head_count=2, context_length=12, horizon_length=4,
                               conv_kernel_width=k, pool_range=pool_range)
    model = TransformerForecaster(config, init_seed=k * 10 + pool_range)
    rng = np.random.default_rng(k + 7 * pool_range)
    model.params.get("dec0.conv.b").value[...] = rng.normal(size=(1, 8))  # a bias that is not zero
    rows = rng.normal(size=(5, 7, 8))
    arrays, tensors = transformer._LayerCache(config, 5), transformer._LayerCache(config, 5)
    with no_grad():
        for t in range(rows.shape[1]):
            row = Tensor(rows[:, t : t + 1])
            got = model._conv_block("dec0.conv.", row, causal=True, cache=arrays).value
            _assert_bitwise(got, _tensor_op_conv_step(model, "dec0.conv.", row, tensors).value)
            _assert_bitwise(arrays.conv_in, tensors.conv_in)
            _assert_bitwise(arrays.activated, tensors.activated)
