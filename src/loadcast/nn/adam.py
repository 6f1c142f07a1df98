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
#: Rows per forward/backward pass: `train_minibatch` runs a larger batch as
#: consecutive passes of at most this many rows, so a batch-256 pretraining
#: step holds one 32-row tape at a time instead of one eight times its size.
PASS_ROWS = 32


def adam_update(params: ParamStore, learning_rate: float, step: int) -> None:
    """One bias-corrected Adam step over every parameter; zeroes gradients after.

    `step` is the 1-based update count used for bias correction. Moment
    buffers live in the store, so it carries its own optimizer state across
    calls. The update runs on the store's flat arrays, all parameters at
    once, and writes nothing unless every gradient is finite.
    """
    if step < 1:
        raise ConfigError(f"Adam step must be >= 1, got {step}")
    if learning_rate <= 0:
        raise ConfigError(f"learning rate must be positive, got {learning_rate}")
    grad, m, v = params.grad, params.m, params.v
    if not np.isfinite(grad).all():
        bad = next(p.name for p in params if not np.isfinite(p.grad).all())
        raise NumericError(f"non-finite gradient in parameter {bad!r}")
    correction1 = 1.0 - BETA1**step
    correction2 = 1.0 - BETA2**step
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
    params.value -= grad
    grad.fill(0.0)


def train_minibatch(params: ParamStore, loss_fn, sample_count: int, epochs: int, batch: int,
                    learning_rate: float, rng: np.random.Generator, validation=None) -> list[float]:
    """Shuffled minibatch Adam training from fresh optimizer state.

    Each epoch draws one `rng.permutation(sample_count)` and walks it in
    slices of `batch`. Returns the per-epoch sample-weighted mean loss.
    With `validation`, a zero-argument callable giving the held-out loss
    after each epoch, training stops after EARLY_STOP_PATIENCE epochs
    without a new best, and the weights of the best epoch are restored.

    A step is one Adam update per batch, run as forward/backward passes
    over consecutive slices of the batch of at most PASS_ROWS rows.
    `loss_fn(rows, batch_rows)` returns the loss Tensor of the sample
    indices `rows` as their share of the mean over all `batch_rows` rows of
    the batch, so the passes' losses sum to the batch's. Each backward pass
    adds into the store's gradient buffer, and the update reads their sum.
    A batch of at most PASS_ROWS rows is one pass; in a larger one only the
    sums over rows (weight gradients, the loss) change order.

    The call holds one tape at a time: `Tensor.backward` spends each
    pass's tape as it goes, and the pass's loss is released before the
    next pass's forward run, so a pass's arrays are freed before the next
    pass allocates its own (glibc keeps that memory for it; see
    `autodiff._keep_freed_memory`). Gradients reach the store through its
    parameter tensors.
    """
    if batch < 1 or epochs < 0:
        raise ConfigError(f"training needs batch >= 1 and epochs >= 0, got batch {batch}, epochs {epochs}")
    params.m.fill(0.0)
    params.v.fill(0.0)
    params.zero_grads()
    curve: list[float] = []
    best_val, best_state, stale, step = np.inf, None, 0, 0
    for _ in range(epochs):
        order = rng.permutation(sample_count)
        total = 0.0
        for lo in range(0, sample_count, batch):
            chosen = order[lo : lo + batch]
            batch_loss = 0.0
            for start in range(0, len(chosen), PASS_ROWS):
                loss = loss_fn(chosen[start : start + PASS_ROWS], len(chosen))
                if not np.isfinite(loss.value):
                    params.zero_grads()  # drop what earlier passes of the batch added
                    raise NumericError("training loss became non-finite")
                loss.backward()
                batch_loss += float(loss.value)
                del loss  # keep nothing of this pass while the next one runs
            step += 1
            adam_update(params, learning_rate, step)
            total += batch_loss * len(chosen)
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
