"""Adam optimizer operating in place on a ParamStore, and the minibatch loop
every trained model in the package runs on it."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, NumericError
from .params import ParamStore

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
EARLY_STOP_PATIENCE = 5


def adam_update(params: ParamStore, learning_rate: float, step: int) -> None:
    """One bias-corrected Adam step over every parameter; zeroes gradients after.

    `step` is the 1-based update count used for bias correction. Moment
    buffers live on the parameters themselves, so a store carries its own
    optimizer state across calls.
    """
    if step < 1:
        raise ConfigError(f"Adam step must be >= 1, got {step}")
    if learning_rate <= 0:
        raise ConfigError(f"learning rate must be positive, got {learning_rate}")
    correction1 = 1.0 - BETA1**step
    correction2 = 1.0 - BETA2**step
    for param in params:
        grad, m, v = param.grad, param.m, param.v
        if not np.isfinite(grad).all():
            raise NumericError(f"non-finite gradient in parameter {param.name!r}")
        # In place, in the order of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g
        # and value -= lr (m / c1) / (sqrt(v / c2) + eps), so every rounding
        # matches that formula; grad is spent once the moments hold it.
        work = np.multiply(grad, 1.0 - BETA2)
        work *= grad
        v *= BETA2
        v += work
        m *= BETA1
        grad *= 1.0 - BETA1
        m += grad
        np.divide(v, correction2, out=work)
        np.sqrt(work, out=work)
        work += EPSILON
        np.divide(m, correction1, out=grad)
        grad *= learning_rate
        grad /= work
        param.value -= grad
        grad.fill(0.0)


def train_minibatch(params: ParamStore, loss_fn, sample_count: int, epochs: int, batch: int,
                    learning_rate: float, rng: np.random.Generator, validation=None) -> list[float]:
    """Shuffled minibatch Adam training from fresh optimizer state.

    Each epoch draws one `rng.permutation(sample_count)` and walks it in
    slices of `batch`; `loss_fn(chosen)` returns the scalar loss Tensor of
    those sample indices. Returns the per-epoch sample-weighted mean loss.
    With `validation`, a zero-argument callable giving the held-out loss
    after each epoch, training stops after EARLY_STOP_PATIENCE epochs
    without a new best, and the weights of the best epoch are restored.
    """
    for param in params:
        param.m[...] = 0.0
        param.v[...] = 0.0
    params.zero_grads()
    curve: list[float] = []
    best_val, best_state, stale, step = np.inf, None, 0, 0
    for _ in range(epochs):
        order = rng.permutation(sample_count)
        total = 0.0
        for lo in range(0, sample_count, batch):
            chosen = order[lo : lo + batch]
            loss = loss_fn(chosen)
            if not np.isfinite(loss.value):
                raise NumericError("training loss became non-finite")
            loss.backward()
            step += 1
            adam_update(params, learning_rate, step)
            total += float(loss.value) * len(chosen)
        curve.append(total / sample_count)
        if validation is None:
            continue
        val_loss = validation()
        if val_loss < best_val - 1e-12:
            best_val, best_state, stale = val_loss, params.snapshot(), 0
        else:
            stale += 1
            if stale >= EARLY_STOP_PATIENCE:
                break
    if best_state is not None:
        params.restore(best_state)
    return curve
