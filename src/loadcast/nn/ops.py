"""Building-block layer operations shared by the transformer, MLP, and LSTM.

Each function accepts plain ndarrays or Tensors. Given at least one Tensor it
returns a Tensor wired into the backward tape; given only arrays it returns
an ndarray.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from . import autodiff
from .autodiff import Tensor, astensor


def _materialize(out: Tensor, *inputs) -> Tensor | np.ndarray:
    if any(isinstance(x, Tensor) for x in inputs):
        return out
    return out.value


def layer_norm(x, gamma, beta):
    """Normalize x over its last axis (population variance), then scale and shift."""
    out = autodiff.layer_norm(x, gamma, beta)
    return _materialize(out, x, gamma, beta)


def residual_wrap(sublayer_output, sublayer_input):
    """Residual connection: sublayer output plus the input that fed it."""
    a, b = astensor(sublayer_output), astensor(sublayer_input)
    if a.value.shape != b.value.shape:
        raise ShapeError(f"residual shapes differ: {a.value.shape} vs {b.value.shape}")
    return _materialize(autodiff.add(a, b), sublayer_output, sublayer_input)


def conv_pool_forward(x, weights, bias, pool_range: int, causal: bool = False):
    """Length-preserving feed-forward block: same-padded 1-D convolution,
    ReLU, then a stride-1 sliding max over pool_range.

    x: (..., T, Cin); weights: (K, Cin, Cout), odd K; bias: broadcastable
    to (Cout,). causal=True pads on the left only, so position t never reads
    positions after t (decoder use). One tape node (`autodiff.conv_relu_pool`).
    """
    wt = astensor(weights)
    if wt.value.ndim != 3:
        raise ShapeError(f"kernel must be (K, Cin, Cout), got shape {wt.value.shape}")
    out = autodiff.conv_relu_pool(x, wt, bias, pool_range, causal=causal)
    return _materialize(out, x, weights, bias)
