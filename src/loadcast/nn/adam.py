"""Adam optimizer operating in place on a ParamStore."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, NumericError
from .params import ParamStore

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


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
