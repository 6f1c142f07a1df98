"""Numpy-backed neural substrate: autodiff tensors, parameter storage, Adam and
the minibatch training loop, layer primitives, and finite-difference gradient checking."""

from .adam import adam_update, train_minibatch
from .autodiff import Tensor, astensor, no_grad
from .gradcheck import grad_check
from .ops import conv_pool_forward, layer_norm, residual_wrap
from .params import Param, ParamStore, glorot_init

__all__ = [
    "Param",
    "ParamStore",
    "Tensor",
    "adam_update",
    "astensor",
    "conv_pool_forward",
    "glorot_init",
    "grad_check",
    "layer_norm",
    "no_grad",
    "residual_wrap",
    "train_minibatch",
]
