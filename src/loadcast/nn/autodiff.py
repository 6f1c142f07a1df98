"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray plus an optional node in the backward tape.
Ops build the tape only while gradients are enabled; inference runs the same
code under `no_grad()` with zero tape overhead. All math is 64-bit.
Single-parent ops (scale, relu, sigmoid, tanh, exp, log, reshape,
transpose, softmax, maxpool1d_same) build their node with `_unary`.

Fused ops are one node for what would otherwise be a chain of small ones,
with the chain's arithmetic in its order, so values and gradients are
bitwise the chain's: `attention` (split heads, QK^T, scale, mask, softmax,
@V, merged heads), `add_layer_norm` (add, then layer_norm), `conv_relu_pool`
(conv1d_same, relu, maxpool1d_same), and for the baselines `dense_stack`
and `mse`.

Gradient ownership: a tensor adopts the first gradient array it is handed
and adds later ones into it in place, so a handed-over array must not be
written again. An op gives its incoming gradient, or a view of it, to one
parent only; when the first parent of `add`, or the x of `add_layer_norm`,
adopts the sum's gradient, the second parent (y) adopts a copy.
ParamStore leaves keep their external `grad_buffer` and always add into it:
that buffer is a view into the store's flat gradient array, which
`adam_update` reads and zeroes as a whole.

Memory: every op allocates as numpy does. `Tensor.backward` spends the
tape as it goes, so Python frees each node's arrays once nothing reads
them, and at import `_keep_freed_memory` has glibc keep freed memory in
the heap, so the next pass reuses those pages instead of faulting in
fresh ones.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
from typing import Callable

import numpy as np

from ..errors import ConfigError, ShapeError

_GRAD_ENABLED = True

LAYER_NORM_EPSILON = 1e-5

#: glibc's mallopt parameter numbers (malloc.h) and the values set at import.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 256 << 20


def _keep_freed_memory() -> bool:
    """Have glibc keep freed memory for the next allocation; returns whether
    both settings applied. A libc without `mallopt` is left as it is.

    A training pass frees its tape and the next pass allocates the same
    arrays again. Under glibc's defaults the freed heap top is trimmed and
    large arrays get their own mappings, so every pass faults its pages
    back in. With these settings, arrays under _MMAP_THRESHOLD_BYTES come
    from the heap, and the heap is trimmed only when more than
    _TRIM_THRESHOLD_BYTES at its top are free. Both are needed: setting
    either one stops glibc raising the mmap threshold as large blocks are
    freed, so the trim setting alone would leave every array over 128 KiB
    to its own mapping.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no handle on the C library
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    applied = [mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES), mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)]
    return all(applied)


_keep_freed_memory()


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block (inference / finite differences)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def grad_enabled() -> bool:
    return _GRAD_ENABLED


class Tensor:
    """An ndarray value with an optional gradient and backward closure."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad: bool = False, grad_buffer: np.ndarray | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.requires_grad = requires_grad and _GRAD_ENABLED
        self.grad = grad_buffer  # leaves may share an external accumulation buffer
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def backward(self) -> None:
        """Reverse-accumulate d(self)/d(leaf) for every reachable leaf.

        self must be scalar-valued (size 1). This spends the tape: once a
        node's backward function has run, every consumer of the node has
        run too, so the node drops its closure and parents, and Python
        frees every array that no caller holds. A tensor the caller holds
        keeps its value and gradient, but a second backward through a
        spent tape reaches no leaf.
        """
        if self.value.size != 1:
            raise ShapeError("backward() requires a scalar output")
        # Iterative topological sort: a long chain of ops (thousands of
        # nodes) would overflow Python's recursion limit otherwise.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        if self.grad is None:
            self.grad = np.zeros(self.value.shape)
        self.grad += 1.0
        while order:
            node = order.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            node._backward, node._parents = None, ()


def astensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _make(value: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(value)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


def _accumulate(tensor: Tensor, grad: np.ndarray, shared: bool = False) -> None:
    """Add `grad` into tensor.grad, adopting it on the first write unless it is
    `shared` with another tensor, which gets a copy (see the module docstring)."""
    if not tensor.requires_grad:
        return
    reduced = _unbroadcast(grad, tensor.value.shape)
    if tensor.grad is not None:
        tensor.grad += reduced
    elif shared and reduced is grad:
        tensor.grad = reduced.copy()
    else:
        tensor.grad = reduced


def _unary(a: Tensor, value: np.ndarray, grad) -> Tensor:
    """A node with the one parent `a`, whose gradient is `grad(g)`."""
    return _make(value, (a,), lambda g: _accumulate(a, grad(g)))


def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    value = a.value + b.value

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g, shared=a.grad is g)

    return _make(value, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    value = a.value - b.value

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _make(value, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    value = a.value * b.value

    def backward(g):
        _accumulate(a, g * b.value)
        _accumulate(b, g * a.value)

    return _make(value, (a, b), backward)


def scale(a, factor: float) -> Tensor:
    a = astensor(a)
    return _unary(a, a.value * factor, lambda g: g * factor)


def matmul(a, b) -> Tensor:
    """a @ b. With a 2-D b, a's leading axes fold into rows, so the product
    and both gradients are single GEMMs instead of a loop over the batch."""
    a, b = astensor(a), astensor(b)
    fold = b.value.ndim == 2
    if fold:
        left = a.value.reshape(-1, a.value.shape[-1])
        value = (left @ b.value).reshape(a.value.shape[:-1] + b.value.shape[1:])
    else:
        left = a.value
        value = left @ b.value

    def backward(g):
        if fold:
            g = g.reshape(-1, g.shape[-1])
        if a.requires_grad:
            if fold:
                da = (g @ b.value.T).reshape(a.value.shape)
            else:
                da = g @ np.swapaxes(b.value, -1, -2)
            _accumulate(a, da)
        if b.requires_grad:
            _accumulate(b, np.swapaxes(left, -1, -2) @ g)

    return _make(value, (a, b), backward)


def relu(a) -> Tensor:
    a = astensor(a)
    return _unary(a, np.maximum(a.value, 0.0), lambda g: g * (a.value > 0.0))


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Logistic function split by sign for stability on large |x|.

    With e = exp(-|x|) it is 1 / (1 + e) for x >= 0 and e / (1 + e) below.
    The numerator max(x >= 0, e) picks 1 or e (e <= 1) without the
    data-dependent branching of np.where, which costs more than the exp.
    `out` may be x itself; `work`, if given, is scratch of x's shape.
    """
    e = np.abs(x, out=work)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(x >= 0, e, out=out)
    e += 1.0
    return np.divide(out, e, out=out)


def sigmoid(a) -> Tensor:
    a = astensor(a)
    value = _sigmoid(a.value)
    return _unary(a, value, lambda g: g * value * (1.0 - value))


def tanh(a) -> Tensor:
    a = astensor(a)
    value = np.tanh(a.value)
    return _unary(a, value, lambda g: g * (1.0 - value * value))


def exp(a) -> Tensor:
    a = astensor(a)
    value = np.exp(a.value)
    return _unary(a, value, lambda g: g * value)


def log(a) -> Tensor:
    a = astensor(a)
    return _unary(a, np.log(a.value), lambda g: g / a.value)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = astensor(a)
    value = a.value.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.value.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(gg, a.value.shape).copy())

    return _make(value, (a,), backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = astensor(a)
    count = a.value.size if axis is None else a.value.shape[axis]
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a, shape) -> Tensor:
    a = astensor(a)
    return _unary(a, a.value.reshape(shape), lambda g: g.reshape(a.value.shape))


def transpose(a, axes) -> Tensor:
    a = astensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _unary(a, a.value.transpose(axes), lambda g: g.transpose(inverse))


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [astensor(t) for t in tensors]
    sizes = [t.value.shape[axis] for t in tensors]
    shape = list(tensors[0].value.shape)
    shape[axis] = sum(sizes)
    value = np.concatenate([t.value for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(index)])

    return _make(value, tuple(tensors), backward)


def index(a, key) -> Tensor:
    """a[key] for any numpy index; the gradient is scattered back (repeats add)."""
    a = astensor(a)
    value = a.value[key]

    def backward(g):
        full = np.zeros(a.value.shape)
        np.add.at(full, key, g)
        _accumulate(a, full)

    return _make(value, (a,), backward)


def _row_max(x: np.ndarray) -> np.ndarray:
    """max over the last axis, keepdims. From 32 rows per column on, one
    np.maximum per column beats numpy's reduction, which costs about 0.1 us
    a row; below, as in a one-origin forecast, the reduction wins. Max is
    exact, so either order gives the same bits."""
    if math.prod(x.shape[:-1]) < 32 * x.shape[-1]:
        return x.max(axis=-1, keepdims=True)
    m = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j : j + 1], out=m)
    return m


def _softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax over the last axis, written to `out` (which may be
    `logits`). -inf entries get zero weight; a row of only -inf stays all zero."""
    m = _row_max(logits)
    np.copyto(m, 0.0, where=~np.isfinite(m))
    value = np.subtract(logits, m, out=out)
    np.exp(value, out=value)
    denom = value.sum(axis=-1, keepdims=True)
    np.copyto(denom, 1.0, where=denom == 0.0)
    value /= denom
    return value


def _softmax_grad(p: np.ndarray, g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The gradient g of softmax output p taken back to its logits, into `out` (which may be g)."""
    inner = (g * p).sum(axis=-1, keepdims=True)
    out = np.subtract(g, inner, out=out)
    out *= p
    return out


def softmax(a, mask: np.ndarray | None = None) -> Tensor:
    """Row-wise softmax over the last axis; masked-out entries get zero weight.

    `mask` is a boolean array broadcastable to a.shape with True = attend.
    The shift, exp and division run in place on one full-size array: the
    masked copy of the logits, or `a - max` without a mask.
    """
    a = astensor(a)
    logits = a.value if mask is None else np.where(mask, a.value, -np.inf)
    value = _softmax(logits, out=None if mask is None else logits)
    return _unary(a, value, lambda g: _softmax_grad(value, g))


def _heads(x: np.ndarray, head_count: int) -> np.ndarray:
    """(..., T, head_count * dh) as a (..., head_count, T, dh) view."""
    return np.swapaxes(x.reshape(x.shape[:-1] + (head_count, x.shape[-1] // head_count)), -2, -3)


def attention_probabilities(q: np.ndarray, k: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """softmax(Q K^T / sqrt(d)) over the keys for (..., Tq, d) queries and
    (..., Tk, d) keys, with no tape: the forward kernel of `attention`.
    `mask` (True = attend) broadcasts to (..., Tq, Tk); a query with no key
    left gets all-zero weights."""
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"Q/K feature dims differ: {q.shape[-1]} vs {k.shape[-1]}")
    probs = q @ np.swapaxes(k, -1, -2)
    probs *= 1.0 / np.sqrt(q.shape[-1])
    if mask is not None:
        np.copyto(probs, -np.inf, where=~mask)
    return _softmax(probs, out=probs)


def attention(q, k, v, head_count: int = 1, mask: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    q: (..., Tq, d); k: (..., Tk, d); v: (..., Tk, dv), with the same
    leading axes (they do not broadcast); `mask` (True =
    attend) broadcasts to (..., head_count, Tq, Tk), so a (Tq, Tk) mask
    serves every head. Each input splits into head_count heads along its
    feature axis as a view, every head attends with
    `attention_probabilities`, and the heads' outputs are written side by
    side into one contiguous (..., Tq, dv) array. The backward pass writes
    dQ, dK and dV the same way, each into a contiguous array of its input's
    shape, so the projections that made q, k and v get contiguous
    gradients. Every product and row sum repeats the matmul, scale, softmax
    and transpose tape this node replaced, so its values and gradients are
    bitwise that tape's.
    """
    q, k, v = astensor(q), astensor(k), astensor(v)
    if (not q.value.shape[:-2] == k.value.shape[:-2] == v.value.shape[:-2]
            or k.value.shape[-2] != v.value.shape[-2] or q.value.shape[-1] != k.value.shape[-1]):
        raise ShapeError(f"attention shapes q {q.value.shape}, k {k.value.shape}, v {v.value.shape} "
                         f"do not fit (..., Tq, d), (..., Tk, d), (..., Tk, dv)")
    if q.value.shape[-1] % head_count or v.value.shape[-1] % head_count:
        raise ConfigError(f"feature dims {q.value.shape[-1]}, {v.value.shape[-1]} "
                          f"not divisible by head_count {head_count}")
    qh, kh, vh = (_heads(t.value, head_count) for t in (q, k, v))
    probs = attention_probabilities(qh, kh, mask)
    value = np.empty(q.value.shape[:-1] + v.value.shape[-1:])
    np.matmul(probs, vh, out=_heads(value, head_count))
    factor = 1.0 / np.sqrt(qh.shape[-1])

    def product_into(t: Tensor, a: np.ndarray, b: np.ndarray) -> None:
        if t.requires_grad:
            grad = np.empty(t.value.shape)
            np.matmul(a, b, out=_heads(grad, head_count))
            _accumulate(t, grad)

    def backward(g):
        gh = _heads(g, head_count)
        dscores = gh @ np.swapaxes(vh, -1, -2)
        product_into(v, np.swapaxes(probs, -1, -2), gh)
        _softmax_grad(probs, dscores, out=dscores)
        dscores *= factor
        product_into(q, dscores, kh)
        product_into(k, np.swapaxes(dscores, -1, -2), qh)

    return _make(value, (q, k, v), backward)


def _layer_norm(s: np.ndarray, out: np.ndarray | None, inputs: tuple[Tensor, ...], gamma, beta, route) -> Tensor:
    """The node both layer norms build: normalize `s` over the last axis
    with population variance and LAYER_NORM_EPSILON, then scale and shift.
    `s - mu` is written to `out` (s itself when the caller made s) and
    scaled in place into xhat; `route` takes the gradient with respect to s
    to `inputs`. Each mean is a sum over the last axis divided by n, as
    np.mean computes it, and full-size temporaries are reused in place."""
    gamma, beta = astensor(gamma), astensor(beta)
    if gamma.value.shape[-1] != s.shape[-1] or beta.value.shape[-1] != s.shape[-1]:
        raise ShapeError("gamma/beta must match the normalized axis length")
    n = s.shape[-1]
    rows = s.shape[:-1] + (1,)
    mu = s.sum(axis=-1, keepdims=True)
    mu /= n
    xhat = np.subtract(s, mu, out=out)
    var = np.square(xhat).sum(axis=-1, keepdims=True)
    var /= n
    var += LAYER_NORM_EPSILON
    np.sqrt(var, out=var)
    inv = np.divide(1.0, var, out=var)
    xhat *= inv
    value = gamma.value * xhat
    value += beta.value

    def backward(g):
        _accumulate(gamma, g * xhat)
        dxhat = g * gamma.value
        s1 = dxhat.sum(axis=-1, keepdims=True)
        work = dxhat * xhat
        s2 = work.sum(axis=-1, keepdims=True)
        # (inv / n) * (n * dxhat - s1 - xhat * s2), evaluated in that order
        dx = np.multiply(dxhat, n, out=dxhat)
        dx -= s1
        dx -= np.multiply(xhat, s2, out=work)
        dx *= np.divide(inv, n, out=s1)
        route(dx)
        _accumulate(beta, g)

    return _make(value, inputs + (gamma, beta), backward)


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize x over its last axis (population variance), then scale by
    gamma and shift by beta."""
    x = astensor(x)
    return _layer_norm(x.value, None, (x,), gamma, beta, lambda dx: _accumulate(x, dx))


def add_layer_norm(x, y, gamma, beta) -> Tensor:
    """layer_norm(x + y, gamma, beta) as one node: a residual sublayer's
    output. The sum's gradient goes to x and y as `add` hands it over: when
    x adopts it, y adopts a copy."""
    x, y = astensor(x), astensor(y)
    s = x.value + y.value

    def route(ds):
        _accumulate(x, ds)
        _accumulate(y, ds, shared=x.grad is ds)

    return _layer_norm(s, s, (x, y), gamma, beta, route)


def _pad_time(x: np.ndarray, width: int, causal: bool, fill: float) -> tuple[np.ndarray, int]:
    """Pad the time axis (-2) for a same-length window of odd `width`; also
    returns the left pad. Slice writes into an empty array: np.pad costs
    about 190 us a call at the transformer's shapes."""
    left = width - 1 if causal else width // 2
    t = x.shape[-2]
    xpad = np.empty(x.shape[:-2] + (t + width - 1, x.shape[-1]))
    xpad[..., :left, :] = fill
    xpad[..., left : left + t, :] = x
    xpad[..., left + t :, :] = fill
    return xpad, left


def _conv(x: Tensor, weights: Tensor, bias: Tensor, causal: bool):
    """conv1d_same's value and the backward function that takes its output
    gradient to x, weights and bias."""
    k, cin, cout = weights.value.shape
    if k % 2 == 0:
        raise ConfigError(f"convolution kernel width must be odd, got {k}")
    if x.value.shape[-1] != cin:
        raise ShapeError(f"input channels {x.value.shape[-1]} != kernel channels {cin}")
    t = x.value.shape[-2]
    xpad, left = _pad_time(x.value, k, causal, 0.0)
    # (..., T, Cin, K) windows -> rows of [x[t], x[t + 1], ..., x[t + K - 1]]
    windows = np.lib.stride_tricks.sliding_window_view(xpad, k, axis=-2)
    cols = np.swapaxes(windows, -1, -2).copy().reshape(-1, k * cin)
    padded = xpad.shape  # the backward pass reads cols, not xpad
    kernel = weights.value.reshape(k * cin, cout)
    value = (cols @ kernel).reshape(x.value.shape[:-1] + (cout,))
    value += bias.value

    def backward(g):
        g2 = g.reshape(-1, cout)
        _accumulate(weights, (cols.T @ g2).reshape(k, cin, cout))
        dcols = (g2 @ kernel.T).reshape(x.value.shape[:-1] + (k, cin))
        dxpad = np.zeros(padded)
        for j in range(k):
            dxpad[..., j : j + t, :] += dcols[..., j, :]
        _accumulate(x, dxpad[..., left : left + t, :])
        _accumulate(bias, g)

    return value, backward


def conv1d_same(x, weights, bias, causal: bool = False) -> Tensor:
    """1-D convolution along the time axis, zero-padded to preserve length.

    x: (..., T, Cin); weights: (K, Cin, Cout) with odd K; bias: broadcastable
    to (Cout,). Output: (..., T, Cout). Centered windows by default; with
    causal=True all padding goes on the left so position t sees only <= t.
    Computed as im2col (Chellapilla et al., 2006): the (N*T, K*Cin) matrix of
    windows times the kernel as a (K*Cin, Cout) matrix, one GEMM each way.
    """
    x, weights, bias = astensor(x), astensor(weights), astensor(bias)
    value, backward = _conv(x, weights, bias, causal)
    return _make(value, (x, weights, bias), backward)


def _pool(x: np.ndarray, pool_range: int, causal: bool):
    """maxpool1d_same's value over x and the function that takes its output
    gradient to x's."""
    if pool_range % 2 == 0 or pool_range < 1:
        raise ConfigError(f"pool range must be odd and positive, got {pool_range}")
    t = x.shape[-2]
    xpad, left = _pad_time(x, pool_range, causal, -np.inf)
    value = xpad[..., :t, :].copy()
    for j in range(1, pool_range):
        np.maximum(value, xpad[..., j : j + t, :], out=value)

    def backward(g):
        dxpad = np.zeros(xpad.shape)
        unclaimed = np.full(value.shape, True)
        first = np.empty(value.shape, bool)
        routed = np.empty(value.shape)
        for j in range(pool_range):
            np.equal(xpad[..., j : j + t, :], value, out=first)
            first &= unclaimed
            unclaimed ^= first
            dxpad[..., j : j + t, :] += np.multiply(g, first, out=routed)
        return dxpad[..., left : left + t, :]

    return value, backward


def maxpool1d_same(x, pool_range: int, causal: bool = False) -> Tensor:
    """Sliding max over the time axis, stride 1, length-preserving.

    Edge windows shrink to whatever lies inside the sequence. With
    causal=True the window at position t covers [t - pool_range + 1, t].
    The max is pool_range - 1 shifted np.maximum passes; the gradient goes
    to the first window position holding the max, argmax's tie rule.
    """
    x = astensor(x)
    if pool_range == 1:
        return x
    value, backward = _pool(x.value, pool_range, causal)
    return _unary(x, value, backward)


def conv_relu_pool(x, weights, bias, pool_range: int, causal: bool = False) -> Tensor:
    """maxpool1d_same(relu(conv1d_same(x, weights, bias))) as one node, on
    the same kernels: the backward pass routes the pool gradient, masks it
    where the ReLU was off and runs the im2col backward, so values and
    gradients are bitwise those of the three ops."""
    x, weights, bias = astensor(x), astensor(weights), astensor(bias)
    conv, conv_backward = _conv(x, weights, bias, causal)
    activated = np.maximum(conv, 0.0, out=conv)
    value, pool_backward = (activated, None) if pool_range == 1 else _pool(activated, pool_range, causal)

    def backward(g):
        if pool_backward is not None:
            g = pool_backward(g)
        conv_backward(g * (activated > 0.0))

    return _make(value, (x, weights, bias), backward)


def lstm_recurrence(projected: np.ndarray, u: np.ndarray, b: np.ndarray, h0: np.ndarray,
                    c0: np.ndarray, record: bool = False):
    """The LSTM forward recurrence from a given state, without a tape.

    projected: (T, B, 4n), each step's input projection x_t @ w, time-major;
    u: (n, 4n); b: (1, 4n); h0, c0: (n, B), the state before the first step,
    feature-major. Gate rows run input, forget, output (sigmoid) then the
    cell candidate (tanh). Returns (hidden, cells, gates, squashed): hidden
    and cells are (T + 1, n, B) with the initial state at index 0. With
    `record`, gates (T, 4n, B) keeps every step's activated i, f, o, g and
    squashed (T, n, B) every tanh(c_t), as backpropagation through time
    reads them; without, both hold the last step only.

    States and gates are feature-major so that the sigmoid block, the tanh
    block and the cell and hidden updates each run on one contiguous block
    (Appleyard, Kocisky & Blunsom, arXiv:1604.01946). The step's product
    keeps its batch-major orientation, h^T @ u into a (B, 4n) scratch, and
    one transposed copy fills the gate block: written straight as u^T @ h
    into (4n, B), the product loses bits on some OpenBLAS kernels.
    """
    steps, batch, _ = projected.shape
    n = u.shape[0]
    keep = steps if record else 1
    gates = np.empty((keep, 4 * n, batch))
    squashed = np.empty((keep, n, batch))
    hidden = np.empty((steps + 1, n, batch))
    cells = np.empty((steps + 1, n, batch))
    hidden[0], cells[0] = h0, c0
    rows = np.empty((batch, 4 * n))
    ig = np.empty((n, batch))
    work = np.empty((3 * n, batch))
    for t in range(steps):
        z, tc, c = gates[t if record else 0], squashed[t if record else 0], cells[t + 1]
        np.matmul(hidden[t].T, u, out=rows)
        np.add(projected[t], rows, out=rows)
        rows += b
        z[...] = rows.T
        _sigmoid(z[: 3 * n], out=z[: 3 * n], work=work)
        np.tanh(z[3 * n :], out=z[3 * n :])
        np.multiply(z[n : 2 * n], cells[t], out=c)
        c += np.multiply(z[:n], z[3 * n :], out=ig)
        np.tanh(c, out=tc)
        np.multiply(z[2 * n : 3 * n], tc, out=hidden[t + 1])
    return hidden, cells, gates, squashed


def lstm_layer(x, w, u, b) -> Tensor:
    """One LSTM layer over a whole sequence as a single tape node.

    x: (B, T, in); w: (in, 4n); u: (n, 4n); b: (1, 4n). Gate columns run
    input, forget, output (sigmoid) then the cell candidate (tanh), so every
    step matches `baselines.lstm_cell_step` from a zero state. Returns the
    hidden sequence (B, T, n). The input projection is one GEMM over all
    steps and the recurrence, `lstm_recurrence`, one h @ u per step; the
    backward pass is an explicit backpropagation through time whose weight
    gradients are single GEMMs over all steps (Appleyard, Kocisky & Blunsom,
    arXiv:1604.01946). States, gates and their gradients are feature-major,
    (T, n, B) and (T, 4n, B), so each step's elementwise work runs on
    contiguous blocks; every product keeps the batch-major orientation of
    the (B, 4n) rows, whose bits would otherwise depend on the BLAS kernel:
    each step writes its gate gradients transposed into a (T, B, 4n) slab
    and takes dh from dz @ u^T. Without a tape, gates are kept for one step
    only. `LSTMModel.roll` runs the same recurrence from saved states: a
    rolling sweep computes each layer's (h, c) over the actual lags once per
    window start and resumes every origin from there over its own
    predictions.
    """
    x, w, u, b = astensor(x), astensor(w), astensor(u), astensor(b)
    batch, steps, width = x.value.shape
    n = u.value.shape[0]
    if w.value.shape != (width, 4 * n) or u.value.shape != (n, 4 * n) or b.value.shape != (1, 4 * n):
        raise ShapeError(
            f"lstm_layer shapes x {x.value.shape}, w {w.value.shape}, u {u.value.shape}, "
            f"b {b.value.shape} do not fit (B, T, in), (in, 4n), (n, 4n), (1, 4n)"
        )
    tracked = _GRAD_ENABLED and any(t.requires_grad for t in (x, w, u, b))
    inputs = x.value.transpose(1, 0, 2).reshape(-1, width)
    projected = (inputs @ w.value).reshape(steps, batch, 4 * n)
    zero = np.zeros((n, batch))
    hidden, cells, gates, squashed = lstm_recurrence(projected, u.value, b.value, zero, zero, record=tracked)

    def backward(grad):
        grad = np.ascontiguousarray(grad.transpose(1, 2, 0))
        i, f, o, g = (gates[:, k * n : (k + 1) * n] for k in range(4))
        # Per gate, d(pre-activation) / d(carried gradient), each evaluated
        # left to right as written: g i (1 - i), c f (1 - f), tanh(c) o (1 - o)
        # and i (1 - g g); and dh -> dc, o (1 - tanh(c) tanh(c)).
        mult = np.empty(gates.shape)
        blocks = [mult[:, k * n : (k + 1) * n] for k in range(4)]
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
        d_z = np.empty((steps, batch, 4 * n))
        dz = np.empty((4 * n, batch))
        dh_next = np.zeros((batch, n))
        dc, dh, carried = np.zeros((n, batch)), np.empty((n, batch)), np.empty((n, batch))
        for t in range(steps - 1, -1, -1):
            np.add(grad[t], dh_next.T, out=dh)
            dc += np.multiply(dh, through[t], out=carried)
            m = mult[t]
            np.multiply(dc, m[:n], out=dz[:n])
            np.multiply(dc, m[n : 2 * n], out=dz[n : 2 * n])
            np.multiply(dh, m[2 * n : 3 * n], out=dz[2 * n : 3 * n])
            np.multiply(dc, m[3 * n :], out=dz[3 * n :])
            dc *= f[t]
            d_z[t] = dz.T
            np.matmul(d_z[t], u_t, out=dh_next)
        flat = d_z.reshape(-1, 4 * n)
        _accumulate(w, inputs.T @ flat)
        _accumulate(u, hidden[:-1].transpose(0, 2, 1).reshape(-1, n).T @ flat)
        _accumulate(b, flat.sum(axis=0, keepdims=True))
        if x.requires_grad:
            _accumulate(x, (flat @ w.value.T).reshape(steps, batch, width).transpose(1, 0, 2))

    return _make(hidden[1:].transpose(2, 0, 1), (x, w, u, b), backward)


def dense_stack(x, weights, biases) -> Tensor:
    """A dense stack as a single tape node: h = relu(h @ w + b) for every
    layer but the last, which is sigmoid(h @ w + b).

    x: (B, in); weights[k]: (in_k, out_k); biases[k]: (1, out_k). Forward and
    backward repeat the matmul/add/relu/sigmoid tape's arithmetic in its
    order (sigmoid g * s * (1 - s), ReLU g * (z > 0), bias g summed over
    rows, weight h.T @ g, input g @ w.T), so values and gradients are
    bitwise those of the per-layer ops.
    """
    x = astensor(x)
    weights, biases = [astensor(w) for w in weights], [astensor(b) for b in biases]
    if not weights or len(weights) != len(biases):
        raise ShapeError(f"dense_stack needs one bias per weight, got {len(weights)} and {len(biases)}")
    outputs = [x.value]  # each layer's input, then the stack's output
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = outputs[-1] @ w.value
        z += b.value
        outputs.append(_sigmoid(z, out=z) if k == len(weights) - 1 else np.maximum(z, 0.0, out=z))

    def backward(g):
        s = outputs[-1]
        g = g * s
        g *= 1.0 - s
        for k in range(len(weights) - 1, -1, -1):
            w, h = weights[k], outputs[k]
            _accumulate(biases[k], g)
            if w.requires_grad:
                _accumulate(w, h.T @ g)
            if k > 0 or x.requires_grad:
                dh = g @ w.value.T
            if k > 0:  # h is a ReLU output, positive exactly where its input was
                g = np.multiply(dh, h > 0.0, out=dh)
            elif x.requires_grad:
                _accumulate(x, dh)

    return _make(outputs[-1], (x, *weights, *biases), backward)


def mse(prediction, target, count: int | None = None) -> Tensor:
    """Mean squared error against a constant target, as a single tape node.

    Value and gradient repeat the sub/mul/tsum/scale tape's arithmetic: the
    forward pass is (d * d).sum() * (1 / n) and the backward pass adds the
    product d * g / n twice, once for each factor of d * d. n is the
    target's size, or `count` if given: the size of a whole batch this
    target is a slice of, so the slices' losses sum to the batch mean and
    each element's gradient is bitwise the whole batch's.
    """
    prediction = astensor(prediction)
    target = np.asarray(target, dtype=np.float64)
    if prediction.value.shape != target.shape:
        raise ShapeError(f"prediction {prediction.value.shape} vs target {target.shape}")
    diff = prediction.value - target
    factor = 1.0 / (diff.size if count is None else count)
    value = (diff * diff).sum() * factor

    def backward(g):
        grad = np.broadcast_to(g * factor, diff.shape) * diff
        grad += grad
        _accumulate(prediction, grad)

    return _make(value, (prediction,), backward)
