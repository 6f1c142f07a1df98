"""MLP and LSTM baselines trained with Adam on the shared autodiff substrate.

Both models keep the sigmoid output head, which pins predictions inside
(0, 1); that matches targets that were min-max normalized on the training
slice.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, InsufficientDataError
# adam_update is not called here; it stays importable from this module
# because the benchmark's tracer patches the name on it.
from ..nn import ParamStore, adam_update, glorot_init, train_minibatch  # noqa: F401
from ..nn import autodiff as ad
from ..nn.autodiff import Tensor, no_grad
from ..series import SupervisedWindowSet

LSTM_GATES = ("input", "forget", "output", "cell")


def lstm_cell_step(x, h, c, params: ParamStore, prefix: str = ""):
    """One LSTM cell update returning (h_next, c_next).

    Gate order: input/forget/output sigmoids and a tanh cell candidate, each
    from x @ W + h @ U + b with parameters named {prefix}{gate}.w/u/b.
    """
    x, h, c = ad.astensor(x), ad.astensor(h), ad.astensor(c)

    def gate(name: str, squash):
        pre = ad.add(
            ad.add(
                ad.matmul(x, params.tensor(f"{prefix}{name}.w")),
                ad.matmul(h, params.tensor(f"{prefix}{name}.u")),
            ),
            params.tensor(f"{prefix}{name}.b"),
        )
        return squash(pre)

    i = gate("input", ad.sigmoid)
    f = gate("forget", ad.sigmoid)
    o = gate("output", ad.sigmoid)
    g = gate("cell", ad.tanh)
    c_next = ad.add(ad.mul(f, c), ad.mul(i, g))
    h_next = ad.mul(o, ad.tanh(c_next))
    return h_next, c_next


def _add_dense(params: ParamStore, rng: np.random.Generator, prefix: str, fan_in: int,
               layers: tuple[int, ...]) -> ParamStore:
    """Add Glorot weights {prefix}w1.. and zero biases {prefix}b1.. for a dense stack."""
    for idx, units in enumerate(layers, start=1):
        params.add(f"{prefix}w{idx}", glorot_init(rng, fan_in, units, (fan_in, units)))
        params.add(f"{prefix}b{idx}", np.zeros((1, units)))
        fan_in = units
    return params


def _dense_forward(params: ParamStore, prefix: str, depth: int, h: Tensor) -> Tensor:
    """ReLU layers then a sigmoid output unit, one value per row."""
    layers = range(1, depth + 1)
    h = ad.dense_stack(h, [params.tensor(f"{prefix}w{idx}") for idx in layers],
                       [params.tensor(f"{prefix}b{idx}") for idx in layers])
    return ad.reshape(h, (h.value.shape[0],))


def _fit(model, windows: SupervisedWindowSet, seed: int, build):
    """Build the model's parameters with `build(rng)` and train them on the
    windows' MSE; the same generator then shuffles every epoch."""
    x, y = windows.inputs, windows.targets
    if len(y) == 0:
        raise InsufficientDataError("cannot fit on zero windows")
    rng = np.random.default_rng(seed)
    model.params = build(rng)
    model.curve = train_minibatch(
        model.params, lambda chosen: ad.mse(model._forward(x[chosen]), y[chosen]),
        len(y), model.epochs, model.batch, model.learning_rate, rng,
    )
    return model


def _predict(model, features: np.ndarray) -> np.ndarray:
    if model.params is None:
        raise InsufficientDataError("model is not fitted")
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    with no_grad():
        return model._forward(features).value


class MLPModel:
    """Dense ReLU stack with a sigmoid head, sized per the benchmark table."""

    def __init__(self, layers: tuple[int, ...] = (16, 16, 1), epochs: int = 200,
                 batch: int = 8, learning_rate: float = 1e-3):
        if not layers or layers[-1] != 1:
            raise ConfigError(f"layers must end with a single output unit, got {layers}")
        self.layers = tuple(layers)
        self.epochs = epochs
        self.batch = batch
        self.learning_rate = learning_rate
        self.params: ParamStore | None = None
        self.curve: list[float] = []

    def _build(self, input_dim: int, rng: np.random.Generator) -> ParamStore:
        return _add_dense(ParamStore(), rng, "", input_dim, self.layers)

    def _forward(self, features: np.ndarray) -> Tensor:
        return _dense_forward(self.params, "", len(self.layers), Tensor(features))

    def fit(self, windows: SupervisedWindowSet, seed: int = 0) -> "MLPModel":
        return _fit(self, windows, seed, lambda rng: self._build(windows.inputs.shape[1], rng))

    def predict(self, features: np.ndarray) -> np.ndarray:
        return _predict(self, features)


class LSTMModel:
    """Two stacked LSTM layers over the load-lag sequence, dense sigmoid head.

    The window's lag values form a (steps x 1 feature) sequence; the two
    hour-of-day features skip the recurrence and join the final hidden state
    at the dense stage.
    """

    def __init__(self, lstm_units: tuple[int, ...] = (16, 8), dense_units: tuple[int, ...] = (8, 1),
                 epochs: int = 200, batch: int = 8, learning_rate: float = 1e-3):
        if not lstm_units:
            raise ConfigError("need at least one LSTM layer")
        if not dense_units or dense_units[-1] != 1:
            raise ConfigError(f"dense_units must end with a single output, got {dense_units}")
        self.lstm_units = tuple(lstm_units)
        self.dense_units = tuple(dense_units)
        self.epochs = epochs
        self.batch = batch
        self.learning_rate = learning_rate
        self.params: ParamStore | None = None
        self.window_length: int | None = None
        self.curve: list[float] = []

    def _build(self, rng: np.random.Generator) -> ParamStore:
        params = ParamStore()
        input_dim = 1
        for layer, units in enumerate(self.lstm_units):
            # Drawn gate by gate, stored joined in LSTM_GATES order as lstm_layer reads them.
            joined = {"w": [], "u": [], "b": []}
            for gate in LSTM_GATES:
                joined["w"].append(glorot_init(rng, input_dim, units, (input_dim, units)))
                joined["u"].append(glorot_init(rng, units, units, (units, units)))
                joined["b"].append(np.ones((1, units)) if gate == "forget" else np.zeros((1, units)))
            for kind, blocks in joined.items():
                params.add(f"lstm{layer}.{kind}", np.concatenate(blocks, axis=1))
            input_dim = units
        # The dense stage reads the last hidden state plus the hour sin/cos.
        return _add_dense(params, rng, "dense.", self.lstm_units[-1] + 2, self.dense_units)

    def _forward(self, features: np.ndarray) -> Tensor:
        w = self.window_length
        sequence = Tensor(features[:, :w, None])
        for layer in range(len(self.lstm_units)):
            sequence = ad.lstm_layer(sequence, *(self.params.tensor(f"lstm{layer}.{k}") for k in "wub"))
        h = ad.concat([ad.index(sequence, (slice(None), -1)), Tensor(features[:, w:])], axis=1)
        return _dense_forward(self.params, "dense.", len(self.dense_units), h)

    def fit(self, windows: SupervisedWindowSet, seed: int = 0) -> "LSTMModel":
        self.window_length = windows.window_length
        return _fit(self, windows, seed, self._build)

    def predict(self, features: np.ndarray) -> np.ndarray:
        return _predict(self, features)
