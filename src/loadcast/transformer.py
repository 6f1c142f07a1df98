"""Encoder-decoder transformer forecaster with a pretrain/fine-tune workflow.

The model consumes a fixed-length window of normalized load values, embeds
each scalar into d_model dimensions, adds sinusoidal positional encodings,
and runs attention + convolutional feed-forward stacks. The decoder is
autoregressive with a learned start token and a causal mask; horizons beyond
the native decoder length are covered by feeding predictions back into the
context window (recursive forecasting).
"""

from __future__ import annotations

import functools
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConfigError, InsufficientDataError, ShapeError, StateError, require_integer
# adam_update is not called here; it stays importable from this module
# because the benchmark's tracer patches the name on it.
from .nn import adam_update, conv_pool_forward, glorot_init, train_minibatch  # noqa: F401
from .nn import autodiff as ad
from .nn.adam import PASS_ROWS
from .nn.autodiff import Tensor, no_grad
from .nn.params import ParamStore
from .series import (NormalizationParams, TimeSeries, fit_normalizer, holdout_count, origin_windows,
                     read_json, sequence_windows, write_json)

PE_BASE = 10000.0
FINE_TUNE_LR_FACTOR = 0.1
FINE_TUNE_BATCH = 32


@functools.lru_cache(maxsize=64)
def positional_encoding(seq_length: int, d_model: int) -> np.ndarray:
    """Sinusoidal position matrix: sin on even columns, cos on odd columns.

    Entry (pos, 2i) is sin(pos / 10000^(2i/d_model)) and (pos, 2i+1) is the
    matching cosine. Returned array is read-only and cached.
    """
    if d_model % 2 != 0:
        raise ConfigError(f"d_model must be even for sin/cos pairs, got {d_model}")
    if seq_length < 1 or d_model < 1:
        raise ConfigError("positional encoding dimensions must be positive")
    positions = np.arange(seq_length, dtype=np.float64)[:, None]
    i = np.arange(0, d_model, 2, dtype=np.float64)
    angles = positions / PE_BASE ** (i / d_model)
    pe = np.empty((seq_length, d_model))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    pe.setflags(write=False)
    return pe


@functools.lru_cache(maxsize=64)
def _causal_mask(tq: int, tk: int) -> np.ndarray:
    """True where a query may attend a key: the tq queries are the last tq of tk positions.

    With tq == tk this is the plain lower triangle; with fewer queries (a
    decoding step against cached keys) row i still sees keys 0 .. tk - tq + i.
    Returned array is read-only and cached.
    """
    mask = np.tril(np.ones((tq, tk), dtype=bool), k=tk - tq)
    mask.setflags(write=False)
    return mask


def attention_weights(q, k, causal: bool = False) -> np.ndarray:
    """The row-stochastic softmax(QK^T/sqrt(d)) matrix, without applying V."""
    q, k = ad.astensor(q).value, ad.astensor(k).value
    return ad.attention_probabilities(q, k, _causal_mask(q.shape[-2], k.shape[-2]) if causal else None)


ATTENTION_WEIGHT_NAMES = ("wq", "wk", "wv", "wo")


def multi_head_attention(x, params: ParamStore, head_count: int, causal: bool = False, kv=None, prefix: str = "",
                         cache: dict | None = None):
    """Project to Q/K/V, attend with head_count heads in one node, project back.

    Expects square projection matrices named {prefix}wq/wk/wv/wo in `params`.
    `kv` switches the key/value source for cross-attention. Takes (B, T, d)
    input, an array or a Tensor; returns a Tensor.

    `cache` is a dict that keeps the projected (B, T, d) keys and values
    between calls for incremental decoding. In self-attention the rows of
    `x` are the positions after the cached ones: their keys and values are
    appended and the queries attend to all of them. With `kv` the source is
    projected on the first call only and reused after.
    """
    xt = ad.astensor(x)
    if xt.value.ndim != 3:
        raise ShapeError(f"attention input must be (B, T, d), got shape {xt.value.shape}")
    q = ad.matmul(xt, params.tensor(prefix + "wq"))
    if cache and kv is not None:
        k, v = cache["k"], cache["v"]
    else:
        source = ad.astensor(kv) if kv is not None else xt
        k = ad.matmul(source, params.tensor(prefix + "wk"))
        v = ad.matmul(source, params.tensor(prefix + "wv"))
        if cache:
            k = ad.concat([cache["k"], k], axis=1)
            v = ad.concat([cache["v"], v], axis=1)
        if cache is not None:
            cache.update(k=k, v=v)
    mask = _causal_mask(q.value.shape[1], k.value.shape[1]) if causal else None
    heads = ad.attention(q, k, v, head_count, mask)
    return ad.matmul(heads, params.tensor(prefix + "wo"))


@dataclass(frozen=True)
class TransformerConfig:
    """Architecture dimensions; defaults keep training interactive on a CPU."""

    d_model: int = 32
    head_count: int = 4
    encoder_layers: int = 2
    decoder_layers: int = 2
    conv_kernel_width: int = 3
    pool_range: int = 3
    context_length: int = 24
    horizon_length: int = 6

    def __post_init__(self):
        for field in fields(self):
            require_integer(field.name, getattr(self, field.name))
            if getattr(self, field.name) < 1:
                raise ConfigError(f"{field.name} must be positive")
        if self.d_model % self.head_count != 0:
            raise ConfigError(
                f"d_model {self.d_model} must be divisible by head_count {self.head_count}"
            )
        if self.d_model % 2 != 0:
            raise ConfigError("d_model must be even for sinusoidal positional encoding")
        if self.conv_kernel_width % 2 == 0 or self.conv_kernel_width < 1:
            raise ConfigError("conv_kernel_width must be odd and positive")
        if self.pool_range % 2 == 0 or self.pool_range < 1:
            raise ConfigError("pool_range must be odd and positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "TransformerConfig":
        return cls(**payload)


class _LayerCache:
    """What one decoder layer keeps from the positions already decoded.

    The decoder is causal position by position, so an earlier position's
    hidden state never changes and a new position needs only: the projected
    (B, T, d) self-attention keys and values of every earlier position, the
    encoder's cross-attention keys and values (projected on the first step),
    the last conv_kernel_width - 1 conv inputs and the last pool_range - 1
    post-ReLU conv outputs. Before position 0 the conv rows are zeros and
    the pool rows -inf, the padding the full-sequence kernels use.
    """

    def __init__(self, config: TransformerConfig, batch: int):
        self.self_attn: dict = {}
        self.cross_attn: dict = {}
        self.conv_in = np.zeros((batch, config.conv_kernel_width - 1, config.d_model))
        self.activated = np.full((batch, config.pool_range - 1, config.d_model), -np.inf)


def _guarded_normalize(values: np.ndarray) -> np.ndarray:
    """Per-series min-max squeeze; constant series map to a flat 0.5."""
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-12:
        return np.full(values.shape, 0.5)
    return (values - lo) / (hi - lo)


class TransformerForecaster:
    """The pretrain/fine-tune/zero-shot forecaster built on the nn substrate."""

    TRAINED_STATES = ("untrained", "pretrained", "fine_tuned")

    def __init__(self, config: TransformerConfig | None = None, init_seed: int = 0):
        self.config = config or TransformerConfig()
        self.params = ParamStore()
        self.normalizer: NormalizationParams | None = None
        self.trained = "untrained"
        self.pretrain_learning_rate = 1e-3
        self.provenance: dict = {"init_seed": init_seed}
        self._init_params(init_seed)

    # ---- construction -----------------------------------------------------

    def _init_params(self, seed: int) -> None:
        cfg = self.config
        d, k = cfg.d_model, cfg.conv_kernel_width
        rng = np.random.default_rng(seed)

        def dense(name: str, rows: int, cols: int, fan_in: int, fan_out: int):
            self.params.add(name, glorot_init(rng, fan_in, fan_out, (rows, cols)))

        dense("embed.enc.w", 1, d, 1, d)
        self.params.add("embed.enc.b", np.zeros((1, d)))
        dense("embed.dec.w", 1, d, 1, d)
        self.params.add("embed.dec.b", np.zeros((1, d)))
        self.params.add("start", rng.normal(scale=0.1, size=(1, d)))

        def attention_block(prefix: str):
            for name in ATTENTION_WEIGHT_NAMES:
                dense(prefix + name, d, d, d, d)

        def conv_block(prefix: str):
            dense(prefix + "w", k * d, d, k * d, d)
            self.params.add(prefix + "b", np.zeros((1, d)))

        def norm_block(prefix: str):
            self.params.add(prefix + "g", np.ones((1, d)))
            self.params.add(prefix + "b", np.zeros((1, d)))

        for i in range(cfg.encoder_layers):
            attention_block(f"enc{i}.attn.")
            norm_block(f"enc{i}.ln1.")
            conv_block(f"enc{i}.conv.")
            norm_block(f"enc{i}.ln2.")
        for i in range(cfg.decoder_layers):
            attention_block(f"dec{i}.self.")
            norm_block(f"dec{i}.ln1.")
            attention_block(f"dec{i}.cross.")
            norm_block(f"dec{i}.ln2.")
            conv_block(f"dec{i}.conv.")
            norm_block(f"dec{i}.ln3.")
        dense("head.w", d, 1, d, 1)
        self.params.add("head.b", np.zeros((1, 1)))

    def clone(self) -> "TransformerForecaster":
        """Independent copy with the same weights; optimizer state starts fresh."""
        return self._from_state(self._state(), self.params)

    def set_normalizer(self, normalizer: NormalizationParams) -> None:
        self.normalizer = normalizer

    def state_hash(self) -> str:
        return self.params.state_hash()

    # ---- forward passes ---------------------------------------------------

    def _add_norm(self, prefix: str, h: Tensor, sublayer: Tensor) -> Tensor:
        """Residual sublayer output: layer_norm(h + sublayer) with the {prefix}g/b weights."""
        return ad.add_layer_norm(h, sublayer, self.params.tensor(prefix + "g"), self.params.tensor(prefix + "b"))

    def _embed(self, prefix: str, values: np.ndarray) -> Tensor:
        """Each scalar of the (B, T) `values` projected to d_model by {prefix}w/b."""
        b, t = values.shape
        return ad.add(ad.matmul(Tensor(values.reshape(b, t, 1)), self.params.tensor(prefix + "w")),
                      self.params.tensor(prefix + "b"))

    def _conv_block(self, prefix: str, x: Tensor, causal: bool = False, cache: _LayerCache | None = None) -> Tensor:
        """Conv, ReLU and max-pool over every position of `x`; with a cache,
        the causal block at the one new position `x` (B, 1, d) holds."""
        cfg = self.config
        weights, bias = self.params.get(prefix + "w"), self.params.get(prefix + "b")
        if cache is None:
            kernel = ad.reshape(weights.tensor(), (cfg.conv_kernel_width, cfg.d_model, cfg.d_model))
            return conv_pool_forward(x, kernel, bias.tensor(), cfg.pool_range, causal=causal)
        # The (k * d, d) weight matrix applied to the flattened window of the new input and
        # the k - 1 before it is the causal conv at that position (on arrays: decoding is no_grad).
        window = np.concatenate([cache.conv_in, x.value], axis=1)
        cache.conv_in = window[:, 1:]
        activated = window.reshape(window.shape[0], -1) @ weights.value
        activated += bias.value
        pooled = np.concatenate([cache.activated, np.maximum(activated, 0.0)[:, None]], axis=1)
        cache.activated = pooled[:, 1:]
        return Tensor(pooled.max(axis=1, keepdims=True))

    def _encode(self, contexts: np.ndarray) -> Tensor:
        cfg = self.config
        h = self._embed("embed.enc.", contexts)
        h = ad.add(h, Tensor(positional_encoding(contexts.shape[1], cfg.d_model)))
        for i in range(cfg.encoder_layers):
            p = f"enc{i}."
            h = self._add_norm(p + "ln1.", h, multi_head_attention(h, self.params, cfg.head_count, prefix=p + "attn."))
            h = self._add_norm(p + "ln2.", h, self._conv_block(p + "conv.", h))
        return h

    def _decode(self, previous: np.ndarray, encoded: Tensor, cache: list[_LayerCache] | None = None) -> Tensor:
        """Run the decoder on [start token, embedded previous values].

        previous: (B, m) with m >= 0 already-known (or generated) outputs.
        Without a cache, returns hidden states (B, m + 1, d_model) for all
        positions; position j predicts output step j + 1. With a cache that
        holds positions 0 .. m - 1, only position m runs, so the result is
        (B, 1, d_model), and the cache then holds it too.
        """
        cfg = self.config
        b = encoded.value.shape[0]
        d = cfg.d_model
        m = previous.shape[1]
        first = 0 if cache is None else m
        tokens = []
        if first == 0:
            tokens.append(ad.add(Tensor(np.zeros((b, 1, d))), ad.reshape(self.params.tensor("start"), (1, 1, d))))
        embedded = previous[:, max(first - 1, 0):]  # position j >= 1 embeds output j - 1
        if embedded.shape[1] > 0:
            tokens.append(self._embed("embed.dec.", embedded))
        h = ad.concat(tokens, axis=1) if len(tokens) > 1 else tokens[0]
        h = ad.add(h, Tensor(positional_encoding(m + 1, d)[first:]))
        for i in range(cfg.decoder_layers):
            p = f"dec{i}."
            layer = None if cache is None else cache[i]
            self_kv, cross_kv = (None, None) if layer is None else (layer.self_attn, layer.cross_attn)
            h = self._add_norm(p + "ln1.", h, multi_head_attention(h, self.params, cfg.head_count, causal=True, prefix=p + "self.", cache=self_kv))
            h = self._add_norm(p + "ln2.", h, multi_head_attention(h, self.params, cfg.head_count, kv=encoded, prefix=p + "cross.", cache=cross_kv))
            h = self._add_norm(p + "ln3.", h, self._conv_block(p + "conv.", h, causal=True, cache=layer))
        return h

    def _head(self, hidden: Tensor) -> Tensor:
        b, t, _ = hidden.value.shape
        out = ad.add(ad.matmul(hidden, self.params.tensor("head.w")), self.params.tensor("head.b"))
        return ad.reshape(out, (b, t))

    def _forward_teacher(self, contexts: np.ndarray, targets: np.ndarray) -> Tensor:
        """Teacher-forced predictions (B, horizon) for training loss."""
        encoded = self._encode(contexts)
        return self._head(self._decode(targets[:, :-1], encoded))

    def _generate(self, contexts: np.ndarray, steps: int) -> np.ndarray:
        """Autoregressive decode of `steps` <= horizon_length normalized values.

        The encoder runs in passes of PASS_ROWS contexts, whose (B, heads,
        T, T) attention scores stay small enough for a core's L2 cache (0.6
        MB at 32 rows, 4.7 MB at 256). Every encoder op is row-wise and its
        folded GEMMs see B * context_length rows, at the default 24 never
        one row nor an odd count, where a row's product can depend on the
        row count; so the passes give the one-pass bits. The decoder then
        runs on the whole block: each step runs it on the new position
        only, against a cache of what the earlier positions left behind
        (see `_LayerCache`).
        """
        b = contexts.shape[0]
        with no_grad():
            encoded = Tensor(np.concatenate([self._encode(contexts[lo : lo + PASS_ROWS]).value
                                             for lo in range(0, b, PASS_ROWS)]))
            cache = [_LayerCache(self.config, b) for _ in range(self.config.decoder_layers)]
            generated = np.zeros((b, 0))
            for _ in range(steps):
                hidden = self._head(self._decode(generated, encoded, cache)).value
                generated = np.concatenate([generated, hidden], axis=1)
        return generated

    # ---- inference --------------------------------------------------------

    def forecast(self, history, horizon_hours: int) -> np.ndarray:
        """Denormalized forecasts for the hours following `history`.

        history: TimeSeries or 1-D array with at least context_length values.
        Horizons past the native decoder length recurse: each round's
        predictions are appended to the context for the next round.
        """
        values = history.values if isinstance(history, TimeSeries) else np.asarray(history, dtype=np.float64)
        return self.forecast_batch(values[None, :], horizon_hours)[0]

    def forecast_batch(self, histories: np.ndarray, horizon_hours: int) -> np.ndarray:
        """Vectorized forecast over (B, >= context_length) rows of raw values,
        all B rows decoded as one batch (a rolling sweep comes here in
        blocks of at most `harness.ROLL_ROWS` origins)."""
        if horizon_hours < 1:
            raise ConfigError(f"horizon must be >= 1, got {horizon_hours}")
        if self.normalizer is None:
            raise StateError("no normalizer set; fine-tune or set_normalizer first")
        histories = np.asarray(histories, dtype=np.float64)
        if histories.ndim != 2:
            raise ShapeError(f"histories must be 2-D (batch, time), got shape {histories.shape}")
        ctx = self.config.context_length
        if histories.shape[1] < ctx:
            raise InsufficientDataError(
                f"history has {histories.shape[1]} points, need >= {ctx}"
            )
        window = self.normalizer.apply(histories[:, -ctx:])
        while window.shape[1] < ctx + horizon_hours:
            steps = min(self.config.horizon_length, ctx + horizon_hours - window.shape[1])
            window = np.concatenate([window, self._generate(window[:, -ctx:], steps)], axis=1)
        return self.normalizer.invert(window[:, ctx:])

    def roll(self, series: TimeSeries, train_len: int, h_max: int, normalizer) -> np.ndarray:
        """The rolling sweep of `harness.roll_forecasts` over the origins
        from train_len to the end of `series`: every origin's raw context
        decoded as one batch, scaled by the caller's normalizer."""
        contexts = origin_windows(series.values, train_len, self.config.context_length)
        return normalizer.apply(self.forecast_batch(contexts, h_max))

    # ---- training ---------------------------------------------------------

    def _teacher_losses(self, contexts: np.ndarray, targets: np.ndarray):
        """The closure pair train_minibatch takes over these windows: the
        taped MSE of the chosen rows as their share of the mean over a
        batch of `batch_rows` rows, and the MSE of all rows without a tape,
        predicted in passes of PASS_ROWS rows, which give one pass's bits
        and keep its arrays as small as a training pass's."""

        def batch_loss(chosen, batch_rows):
            return ad.mse(self._forward_teacher(contexts[chosen], targets[chosen]), targets[chosen],
                          batch_rows * targets.shape[1])

        def full_loss() -> float:
            with no_grad():
                predicted = np.concatenate([
                    self._forward_teacher(contexts[lo : lo + PASS_ROWS], targets[lo : lo + PASS_ROWS]).value
                    for lo in range(0, len(contexts), PASS_ROWS)])
            return float(np.mean((predicted - targets) ** 2))

        return batch_loss, full_loss

    def pretrain(
        self,
        corpus: list[TimeSeries],
        epochs: int = 10,
        learning_rate: float = 1e-3,
        seed: int = 0,
        batch_size: int = 256,
    ) -> list[float]:
        """Train on a corpus of series (each min-max squeezed on its own range).

        Windows from every series are pooled and shuffled each epoch; the
        loss is MSE on normalized values; `train_minibatch` runs a batch of
        more than PASS_ROWS windows as passes, one Adam step per batch.
        Returns the per-epoch training curve. With epochs=0 this is a no-op
        that leaves the model untrained.
        """
        if not corpus:
            raise InsufficientDataError("pretraining corpus is empty")
        cfg = self.config
        need = cfg.context_length + cfg.horizon_length
        all_contexts, all_targets = [], []
        for series in corpus:
            if len(series) < need:
                raise InsufficientDataError(
                    f"series {series.name!r} has {len(series)} points, need >= {need}"
                )
            values = _guarded_normalize(series.values)
            c, t = sequence_windows(values, cfg.context_length, cfg.horizon_length)
            all_contexts.append(c)
            all_targets.append(t)
        contexts = np.concatenate(all_contexts, axis=0)
        targets = np.concatenate(all_targets, axis=0)
        curve = train_minibatch(
            self.params, self._teacher_losses(contexts, targets)[0], len(contexts),
            epochs, batch_size, learning_rate, np.random.default_rng(seed),
        )
        if epochs > 0:
            self.trained = "pretrained"
            self.pretrain_learning_rate = learning_rate
            if self.normalizer is None:
                self.normalizer = NormalizationParams(0.0, 1.0)
            self.provenance.update(
                {"pretrain_seed": seed, "pretrain_epochs": epochs,
                 "pretrain_learning_rate": learning_rate, "corpus_series": len(corpus)}
            )
        return curve

    def fine_tune(
        self,
        target_train,
        epochs: int = 20,
        learning_rate: float | None = None,
        seed: int = 0,
    ) -> list[float]:
        """Continue training on the scarce target series at a reduced rate.

        Fits the model's normalizer on the target train slice, then runs MSE
        training in batches of FINE_TUNE_BATCH windows with early stopping
        monitored on the `holdout_count` newest windows. Requires a
        pretrained model.
        """
        if self.trained != "pretrained":
            raise StateError(f"fine_tune requires a pretrained model, state is {self.trained!r}")
        values = target_train.values if isinstance(target_train, TimeSeries) else np.asarray(target_train, dtype=np.float64)
        cfg = self.config
        if len(values) < cfg.context_length + 1:
            raise InsufficientDataError(
                f"target train has {len(values)} points, need >= {cfg.context_length + 1}"
            )
        if learning_rate is None:
            learning_rate = FINE_TUNE_LR_FACTOR * self.pretrain_learning_rate
        self.normalizer = fit_normalizer(values)
        normalized = self.normalizer.apply(values)
        horizon = min(cfg.horizon_length, len(values) - cfg.context_length)
        contexts, targets = sequence_windows(normalized, cfg.context_length, horizon)
        n = contexts.shape[0]
        val_count = holdout_count(n)
        validation = None
        if val_count > 0:
            split = n - val_count
            validation = self._teacher_losses(contexts[split:], targets[split:])[1]
            contexts, targets = contexts[:split], targets[:split]
        curve = train_minibatch(
            self.params, self._teacher_losses(contexts, targets)[0], len(contexts),
            epochs, FINE_TUNE_BATCH, learning_rate, np.random.default_rng(seed), validation,
        )
        if epochs > 0:
            self.trained = "fine_tuned"
            self.provenance.update({"fine_tune_seed": seed, "fine_tune_epochs": epochs})
        return curve

    # ---- persistence ------------------------------------------------------

    def _state(self) -> dict:
        """Everything but the weights: the sidecar `save` writes, and what
        `load` and `clone` rebuild a model from with `_from_state`."""
        return {
            "config": self.config.to_dict(),
            "normalizer": self.normalizer.to_dict() if self.normalizer else None,
            "trained": self.trained,
            "pretrain_learning_rate": self.pretrain_learning_rate,
            "provenance": self.provenance,
        }

    @classmethod
    def _from_state(cls, state: dict, params: ParamStore) -> "TransformerForecaster":
        """A model rebuilt from a `_state()` record and a store of its weights.
        A record of the wrong shape (a sidecar edited by hand) is a StateError."""
        missing = [key for key in ("config", "normalizer", "trained", "pretrain_learning_rate") if key not in state]
        if missing:
            raise StateError(f"model state lacks {', '.join(missing)}")
        if state["trained"] not in cls.TRAINED_STATES:
            raise StateError(f"unknown trained state {state['trained']!r}")
        config, normalizer = state["config"], state["normalizer"]
        rate, provenance = state["pretrain_learning_rate"], state.get("provenance", {})
        if (not isinstance(config, dict) or not isinstance(normalizer, (dict, type(None)))
                or isinstance(rate, bool) or not isinstance(rate, (int, float)) or not isinstance(provenance, dict)):
            raise StateError("model state needs a config object, a normalizer object or null, "
                             "a numeric pretrain_learning_rate and a provenance object")
        try:
            model = cls(TransformerConfig.from_dict(config), init_seed=0)
            model.normalizer = NormalizationParams.from_dict(normalizer) if normalizer else None
        except (KeyError, TypeError, ValueError) as exc:
            raise StateError(f"malformed model state: {type(exc).__name__}: {exc}") from None
        model.params.load_values_from(params)
        model.trained = state["trained"]
        model.pretrain_learning_rate = float(rate)
        model.provenance = dict(provenance)
        return model

    def save(self, path: str) -> None:
        """Write the weight binary at `path` and a JSON sidecar at path + '.json'."""
        self.params.save(path)
        write_json(path + ".json", self._state())

    @classmethod
    def load(cls, path: str) -> "TransformerForecaster":
        sidecar_path = path + ".json"
        if not os.path.exists(sidecar_path):
            raise StateError(f"missing model sidecar {sidecar_path}")
        return cls._from_state(read_json(sidecar_path), ParamStore.load(path))
