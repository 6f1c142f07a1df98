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
adopts the sum's gradient, the second parent (y) adopts a copy. A node's
backward function returns whether a parent kept its incoming gradient or
a view of it (concat hands each parent a disjoint slice).
ParamStore leaves keep their external `grad_buffer` and always add into it:
that buffer is a view into the store's flat gradient array, which
`adam_update` reads and zeroes as a whole.

Inside a `workspace()` block, while gradients are on, the taped ops take
their full-size outputs, saved temporaries and gradients from the
block's `Workspace` instead of allocating them, with the same arithmetic
into the same layouts, so every value and gradient keeps its bits.
Arrays under WORKSPACE_FLOOR_BYTES are left to numpy. `Tensor.backward`
then lets go of each node once its backward function has run, since every
consumer of a node runs before it, and gives the node's own gradient and
output back for the step's later requests.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable

import numpy as np

from ..errors import ConfigError, ShapeError

_GRAD_ENABLED = True
_WORKSPACE: "Workspace | None" = None
_FLOAT, _BOOL = np.dtype(np.float64), np.dtype(bool)
#: Requests smaller than this many bytes bypass the workspace: numpy's own
#: allocator serves them faster than a workspace request's bookkeeping.
WORKSPACE_FLOOR_BYTES = 16384

LAYER_NORM_EPSILON = 1e-5


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


class Workspace:
    """The buffers one training step's arrays live in, handed back to the next step.

    A request first takes memory of its exact size that the step has given
    back (`give_back`), newest first. Otherwise it takes the next buffer in
    call order since the last `rewind()`: the same array when shape and
    dtype repeat, a view of it when it holds enough bytes, and a new buffer
    in its place when it does not. A step that repeats the previous step's
    calls, at the same or a smaller batch, so gets the same memory back
    instead of faulting in fresh pages. Rewind only once nothing reads the
    arrays handed out since the last rewind.
    """

    def __init__(self):
        self._buffers: list[np.ndarray] = []
        self._views: list[np.ndarray] = []
        self._given: dict[int, list[np.ndarray]] = {}  # flat uint8 memory by byte count
        self._next = 0

    @property
    def nbytes(self) -> int:
        """The bytes its buffers hold."""
        return sum(buffer.nbytes for buffer in self._buffers)

    def rewind(self) -> None:
        self._next = 0
        self._given.clear()

    def take(self, shape: tuple[int, ...], dtype: np.dtype = _FLOAT) -> np.ndarray:
        """An uninitialised array of `shape` and `dtype` (an np.dtype)."""
        if self._given:
            nbytes = math.prod(shape) * dtype.itemsize
            given = self._given.get(nbytes)
            if given:
                memory = given.pop()
                if not given:
                    del self._given[nbytes]
                return memory.view(dtype).reshape(shape)
        i = self._next
        self._next += 1
        if i < len(self._views) and self._views[i].shape == shape and self._views[i].dtype is dtype:
            return self._views[i]
        nbytes = math.prod(shape) * dtype.itemsize
        if i == len(self._buffers):
            self._buffers.append(np.empty(nbytes, np.uint8))
            self._views.append(self._buffers[i])
        elif self._buffers[i].size < nbytes:
            self._buffers[i] = np.empty(nbytes, np.uint8)
        self._views[i] = self._buffers[i][:nbytes].view(dtype).reshape(shape)
        return self._views[i]

    def give_back(self, array: np.ndarray) -> None:
        """Let this step's later requests reuse the memory of `array`, a
        C-contiguous array that nothing reads any more."""
        self._given.setdefault(array.nbytes, []).append(array.reshape(-1).view(np.uint8))


@contextlib.contextmanager
def workspace():
    """Serve the taped ops' arrays from one fresh Workspace inside the block,
    and drop it, with every buffer, on leaving."""
    global _WORKSPACE
    previous, _WORKSPACE = _WORKSPACE, Workspace()
    try:
        yield _WORKSPACE
    finally:
        _WORKSPACE = previous


def _buffer(shape: tuple[int, ...], other: tuple[int, ...] | None = None,
            dtype: np.dtype = _FLOAT) -> np.ndarray | None:
    """A workspace array of `shape`, broadcast against `other` if given,
    while a workspace is active and gradients are on and it holds at least
    WORKSPACE_FLOOR_BYTES; else None, so `out=_buffer(...)` leaves numpy to
    allocate as it does without `out`."""
    if _WORKSPACE is None or not _GRAD_ENABLED:
        return None
    if other is not None and other != shape:
        shape = np.broadcast_shapes(shape, other)
    if math.prod(shape) * dtype.itemsize < WORKSPACE_FLOOR_BYTES:
        return None
    return _WORKSPACE.take(shape, dtype)


def _empty(shape: tuple[int, ...], dtype: np.dtype = _FLOAT) -> np.ndarray:
    out = _buffer(shape, dtype=dtype)
    return np.empty(shape, dtype) if out is None else out


def _zeros(shape: tuple[int, ...]) -> np.ndarray:
    out = _buffer(shape)
    if out is None:
        return np.zeros(shape)
    out.fill(0.0)
    return out


def _copy(x: np.ndarray) -> np.ndarray:
    """A C-ordered copy of x."""
    out = _buffer(x.shape)
    if out is None:
        return x.copy()
    np.copyto(out, x)
    return out


def _release(*arrays: np.ndarray) -> None:
    """Give arrays that nothing reads any more back to the active workspace
    for the step's later requests; without one, a no-op. Arrays under
    WORKSPACE_FLOOR_BYTES, or not C-contiguous, are not given back."""
    if _WORKSPACE is not None and _GRAD_ENABLED:
        for array in arrays:
            if array.nbytes >= WORKSPACE_FLOOR_BYTES and array.flags.c_contiguous:
                _WORKSPACE.give_back(array)


def _reshape(x: np.ndarray, shape) -> np.ndarray:
    """x.reshape(shape), copying a non-contiguous x into a workspace array first."""
    out = None if x.flags.c_contiguous else _buffer(x.shape)
    if out is None:
        return x.reshape(shape)
    np.copyto(out, x)
    return out.reshape(shape)


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

        self must be scalar-valued (size 1). Inside a workspace this spends
        the tape: every node but self drops its value, gradient and parents
        once its backward function has run, and what it owns goes back to
        the workspace, so only self's value and the leaves' gradients remain.
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
            self.grad = _zeros(self.value.shape)
        self.grad += 1.0
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            kept = node._backward(node.grad)
            if _WORKSPACE is None or node is self:
                continue
            # Every consumer of node ran before it, so nothing reads its
            # arrays again; the root's value is the caller's loss.
            if not kept:
                _release(node.grad)
            if _owns_value(node):
                _release(node.value)
            node.value = node.grad = node._backward = None
            node._parents = ()


def _owns_value(node: Tensor) -> bool:
    """Whether node's value is no view of memory a parent's value lives in
    (as a reshape's or an index's can be). numpy gives every view the
    array that owns the memory as its base."""
    base = node.value.base
    return base is None or not any(base is p.value or base is p.value.base for p in node._parents)


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


def _accumulate(tensor: Tensor, grad: np.ndarray, shared: bool = False) -> bool:
    """Add `grad` into tensor.grad, adopting it on the first write unless it is
    `shared` with another tensor, which gets a copy (see the module docstring).
    Returns whether the tensor kept `grad`'s memory."""
    if not tensor.requires_grad:
        return False
    reduced = _unbroadcast(grad, tensor.value.shape)
    if tensor.grad is not None:
        tensor.grad += reduced
        return False
    if shared and reduced is grad:
        tensor.grad = _copy(reduced)
        return False
    tensor.grad = reduced
    return reduced is grad


def _unary(a: Tensor, value: np.ndarray, grad, views: bool = False) -> Tensor:
    """A node with the one parent `a`, whose gradient is `grad(g)`: a view
    of g if `views`, else a new array."""
    return _make(value, (a,), lambda g: _accumulate(a, grad(g)) and views)


def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    value = np.add(a.value, b.value, out=_buffer(a.value.shape, b.value.shape))

    def backward(g):
        kept = _accumulate(a, g)
        return _accumulate(b, g, shared=kept) or kept

    return _make(value, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    value = a.value - b.value

    def backward(g):
        kept = _accumulate(a, g)
        _accumulate(b, -g)
        return kept

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
        left = _reshape(a.value, (-1, a.value.shape[-1]))
        product = np.matmul(left, b.value, out=_buffer((left.shape[0], b.value.shape[1])))
        value = product.reshape(a.value.shape[:-1] + b.value.shape[1:])
    else:
        left = a.value
        value = left @ b.value

    def backward(g):
        if fold:
            g = _reshape(g, (-1, g.shape[-1]))
        if a.requires_grad:
            if fold:
                da = np.matmul(g, b.value.T, out=_buffer((g.shape[0], b.value.shape[0]))).reshape(a.value.shape)
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
    return _unary(a, _reshape(a.value, shape), lambda g: _reshape(g, a.value.shape), views=True)


def transpose(a, axes) -> Tensor:
    a = astensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _unary(a, a.value.transpose(axes), lambda g: g.transpose(inverse), views=True)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [astensor(t) for t in tensors]
    sizes = [t.value.shape[axis] for t in tensors]
    shape = list(tensors[0].value.shape)
    shape[axis] = sum(sizes)
    value = np.concatenate([t.value for t in tensors], axis=axis, out=_buffer(tuple(shape)))
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        kept = False
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            kept = _accumulate(t, g[tuple(index)]) or kept
        return kept

    return _make(value, tuple(tensors), backward)


def index(a, key) -> Tensor:
    """a[key] for any numpy index; the gradient is scattered back (repeats add)."""
    a = astensor(a)
    value = a.value[key]

    def backward(g):
        full = _zeros(a.value.shape)
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
    m = _copy(x[..., :1])
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
    denom = value.sum(axis=-1, keepdims=True, out=_buffer(m.shape))
    np.copyto(denom, 1.0, where=denom == 0.0)
    value /= denom
    _release(m, denom)
    return value


def _softmax_grad(p: np.ndarray, g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The gradient g of softmax output p taken back to its logits, into `out` (which may be g)."""
    gp = np.multiply(g, p, out=_buffer(g.shape, p.shape))
    inner = gp.sum(axis=-1, keepdims=True, out=_buffer(gp.shape[:-1] + (1,)))
    _release(gp)
    out = np.subtract(g, inner, out=out)
    _release(inner)
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
    out = _buffer(q.shape[:-1] + k.shape[-2:-1]) if q.shape[:-2] == k.shape[:-2] else None
    probs = np.matmul(q, np.swapaxes(k, -1, -2), out=out)
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
    value = _empty(q.value.shape[:-1] + v.value.shape[-1:])
    np.matmul(probs, vh, out=_heads(value, head_count))
    factor = 1.0 / np.sqrt(qh.shape[-1])

    def product_into(t: Tensor, a: np.ndarray, b: np.ndarray) -> None:
        if t.requires_grad:
            grad = _empty(t.value.shape)
            np.matmul(a, b, out=_heads(grad, head_count))
            _accumulate(t, grad)

    def backward(g):
        gh = _heads(g, head_count)
        dscores = np.matmul(gh, np.swapaxes(vh, -1, -2), out=_buffer(probs.shape))
        product_into(v, np.swapaxes(probs, -1, -2), gh)
        _softmax_grad(probs, dscores, out=dscores)
        dscores *= factor
        product_into(q, dscores, kh)
        product_into(k, np.swapaxes(dscores, -1, -2), qh)
        _release(dscores, probs)

    return _make(value, (q, k, v), backward)


def _layer_norm(s: np.ndarray, out: np.ndarray | None, inputs: tuple[Tensor, ...], gamma, beta, route) -> Tensor:
    """The node both layer norms build: normalize `s` over the last axis
    with population variance and LAYER_NORM_EPSILON, then scale and shift.
    `s - mu` is written to `out` (s itself when the caller made s) and
    scaled in place into xhat; `route` takes the gradient with respect to s
    to `inputs`. Each mean is a sum over the last axis divided by n, as
    np.mean computes it, and full-size temporaries are reused in place:
    above glibc's mmap threshold every fresh one costs page faults."""
    gamma, beta = astensor(gamma), astensor(beta)
    if gamma.value.shape[-1] != s.shape[-1] or beta.value.shape[-1] != s.shape[-1]:
        raise ShapeError("gamma/beta must match the normalized axis length")
    n = s.shape[-1]
    rows = s.shape[:-1] + (1,)
    mu = s.sum(axis=-1, keepdims=True, out=_buffer(rows))
    mu /= n
    xhat = np.subtract(s, mu, out=out)
    squares = np.square(xhat, out=_buffer(xhat.shape))
    var = squares.sum(axis=-1, keepdims=True, out=_buffer(rows))
    _release(mu, squares)
    var /= n
    var += LAYER_NORM_EPSILON
    np.sqrt(var, out=var)
    inv = np.divide(1.0, var, out=var)
    xhat *= inv
    value = np.multiply(gamma.value, xhat, out=_buffer(gamma.value.shape, xhat.shape))
    value += beta.value

    def backward(g):
        scaled = np.multiply(g, xhat, out=_buffer(g.shape, xhat.shape))
        if not _accumulate(gamma, scaled):
            _release(scaled)
        dxhat = np.multiply(g, gamma.value, out=_buffer(g.shape, gamma.value.shape))
        s1 = dxhat.sum(axis=-1, keepdims=True, out=_buffer(rows))
        work = np.multiply(dxhat, xhat, out=_buffer(dxhat.shape))
        s2 = work.sum(axis=-1, keepdims=True, out=_buffer(rows))
        # (inv / n) * (n * dxhat - s1 - xhat * s2), evaluated in that order
        dx = np.multiply(dxhat, n, out=dxhat)
        dx -= s1
        dx -= np.multiply(xhat, s2, out=work)
        dx *= np.divide(inv, n, out=s1)
        _release(s1, s2, work)
        route(dx)
        kept = _accumulate(beta, g)
        _release(xhat, inv)
        return kept

    return _make(value, inputs + (gamma, beta), backward)


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize x over its last axis (population variance), then scale by
    gamma and shift by beta."""
    x = astensor(x)
    return _layer_norm(x.value, _buffer(x.value.shape), (x,), gamma, beta, lambda dx: _accumulate(x, dx))


def add_layer_norm(x, y, gamma, beta) -> Tensor:
    """layer_norm(x + y, gamma, beta) as one node: a residual sublayer's
    output. The sum's gradient goes to x and y as `add` hands it over: when
    x adopts it, y adopts a copy."""
    x, y = astensor(x), astensor(y)
    s = np.add(x.value, y.value, out=_buffer(x.value.shape, y.value.shape))

    def route(ds):
        _accumulate(y, ds, shared=_accumulate(x, ds))

    return _layer_norm(s, s, (x, y), gamma, beta, route)


def _pad_time(x: np.ndarray, width: int, causal: bool, fill: float) -> tuple[np.ndarray, int]:
    """Pad the time axis (-2) for a same-length window of odd `width`; also
    returns the left pad. Slice writes into an empty array: np.pad costs
    about 190 us a call at the transformer's shapes."""
    left = width - 1 if causal else width // 2
    t = x.shape[-2]
    xpad = _empty(x.shape[:-2] + (t + width - 1, x.shape[-1]))
    xpad[..., :left, :] = fill
    xpad[..., left : left + t, :] = x
    xpad[..., left + t :, :] = fill
    return xpad, left


def _conv(x: Tensor, weights: Tensor, bias: Tensor, causal: bool):
    """conv1d_same's value and the backward function that takes its output
    gradient to x, weights and bias and returns whether bias kept the
    gradient's memory."""
    k, cin, cout = weights.value.shape
    if k % 2 == 0:
        raise ConfigError(f"convolution kernel width must be odd, got {k}")
    if x.value.shape[-1] != cin:
        raise ShapeError(f"input channels {x.value.shape[-1]} != kernel channels {cin}")
    t = x.value.shape[-2]
    xpad, left = _pad_time(x.value, k, causal, 0.0)
    # (..., T, Cin, K) windows -> rows of [x[t], x[t + 1], ..., x[t + K - 1]]
    windows = np.lib.stride_tricks.sliding_window_view(xpad, k, axis=-2)
    cols = _copy(np.swapaxes(windows, -1, -2)).reshape(-1, k * cin)
    padded = xpad.shape
    _release(xpad)  # the backward pass reads cols
    kernel = weights.value.reshape(k * cin, cout)
    value = np.matmul(cols, kernel, out=_buffer((cols.shape[0], cout))).reshape(x.value.shape[:-1] + (cout,))
    value += bias.value

    def backward(g):
        g2 = _reshape(g, (-1, cout))
        _accumulate(weights, (cols.T @ g2).reshape(k, cin, cout))
        dcols = np.matmul(g2, kernel.T, out=_buffer((g2.shape[0], k * cin))).reshape(x.value.shape[:-1] + (k, cin))
        dxpad = _zeros(padded)
        for j in range(k):
            dxpad[..., j : j + t, :] += dcols[..., j, :]
        _release(dcols)
        if not _accumulate(x, dxpad[..., left : left + t, :]):
            _release(dxpad)
        _release(cols)
        return _accumulate(bias, g)

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
    gradient to x's: it returns the time-padded gradient and x's view of it."""
    if pool_range % 2 == 0 or pool_range < 1:
        raise ConfigError(f"pool range must be odd and positive, got {pool_range}")
    t = x.shape[-2]
    xpad, left = _pad_time(x, pool_range, causal, -np.inf)
    value = _copy(xpad[..., :t, :])
    for j in range(1, pool_range):
        np.maximum(value, xpad[..., j : j + t, :], out=value)

    def backward(g):
        dxpad = _zeros(xpad.shape)
        unclaimed = _empty(value.shape, _BOOL)
        unclaimed.fill(True)
        first = _empty(value.shape, _BOOL)
        routed = _empty(value.shape)
        for j in range(pool_range):
            np.equal(xpad[..., j : j + t, :], value, out=first)
            first &= unclaimed
            unclaimed ^= first
            dxpad[..., j : j + t, :] += np.multiply(g, first, out=routed)
        _release(unclaimed, first, routed, xpad)
        return dxpad, dxpad[..., left : left + t, :]

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
    return _unary(x, value, lambda g: backward(g)[1])


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
        spent = []
        if pool_backward is not None:
            padded, g = pool_backward(g)
            spent.append(padded)
        on = np.greater(activated, 0.0, out=_buffer(activated.shape, dtype=_BOOL))
        if pool_backward is not None:  # else activated is this node's value
            spent.append(activated)
        masked = np.multiply(g, on, out=_buffer(g.shape, on.shape))
        _release(on, *spent)
        if not conv_backward(masked):
            _release(masked)

    return _make(value, (x, weights, bias), backward)


def lstm_recurrence(projected: np.ndarray, u: np.ndarray, b: np.ndarray, h0: np.ndarray,
                    c0: np.ndarray, record: bool = False):
    """The LSTM forward recurrence from a given state, without a tape.

    projected: (T, B, 4n), each step's input projection x_t @ w, time-major;
    u: (n, 4n); b: (1, 4n); h0, c0: (B, n), the state before the first step.
    Gate columns run input, forget, output (sigmoid) then the cell candidate
    (tanh). Returns (hidden, cells, gates, squashed): hidden and cells are
    (T + 1, B, n) with the initial state at index 0. With `record`, gates
    (T, B, 4n) keeps every step's activated i, f, o, g and squashed
    (T, B, n) every tanh(c_t), as backpropagation through time reads them;
    without, both hold the last step only. Each step is one h @ u and
    in-place elementwise work on contiguous blocks.
    """
    steps, batch, _ = projected.shape
    n = u.shape[0]
    keep = steps if record else 1
    gates = _empty((keep, batch, 4 * n))
    squashed = _empty((keep, batch, n))
    hidden = _empty((steps + 1, batch, n))
    cells = _empty((steps + 1, batch, n))
    hidden[0], cells[0] = h0, c0
    ig = _empty((batch, n))
    work = _empty((batch, 3 * n))
    for t in range(steps):
        z, tc, c = gates[t if record else 0], squashed[t if record else 0], cells[t + 1]
        np.matmul(hidden[t], u, out=z)
        np.add(projected[t], z, out=z)
        z += b
        _sigmoid(z[:, : 3 * n], out=z[:, : 3 * n], work=work)
        np.tanh(z[:, 3 * n :], out=z[:, 3 * n :])
        np.multiply(z[:, n : 2 * n], cells[t], out=c)
        c += np.multiply(z[:, :n], z[:, 3 * n :], out=ig)
        np.tanh(c, out=tc)
        np.multiply(z[:, 2 * n : 3 * n], tc, out=hidden[t + 1])
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
    arXiv:1604.01946). Work arrays are time-major, so each step touches
    contiguous blocks; without a tape, gates are kept for one step only.
    `LSTMModel.roll` runs the same recurrence from saved states: a rolling
    sweep computes each layer's (h, c) over the actual lags once per window
    start and resumes every origin from there over its own predictions.
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
    inputs = _reshape(x.value.transpose(1, 0, 2), (-1, width))
    projected = np.matmul(inputs, w.value, out=_buffer((inputs.shape[0], 4 * n))).reshape(steps, batch, 4 * n)
    zero = _zeros((batch, n))
    hidden, cells, gates, squashed = lstm_recurrence(projected, u.value, b.value, zero, zero, record=tracked)

    def backward(grad):
        grad = grad.transpose(1, 0, 2)
        i, f, o, g = (gates[..., k * n : (k + 1) * n] for k in range(4))
        # Per gate, d(pre-activation) / d(carried gradient), each evaluated
        # left to right as written: g i (1 - i), c f (1 - f), tanh(c) o (1 - o)
        # and i (1 - g g); and dh -> dc, o (1 - tanh(c) tanh(c)).
        mult = _empty(gates.shape)
        blocks = [mult[..., k * n : (k + 1) * n] for k in range(4)]
        work = _empty(squashed.shape)
        for out, left, gate in ((blocks[0], g, i), (blocks[1], cells[:-1], f), (blocks[2], squashed, o)):
            np.multiply(left, gate, out=out)
            out *= np.subtract(1.0, gate, out=work)
        np.subtract(1.0, np.multiply(g, g, out=work), out=work)
        np.multiply(i, work, out=blocks[3])
        through = np.multiply(squashed, squashed, out=_buffer(squashed.shape))
        np.subtract(1.0, through, out=through)
        np.multiply(o, through, out=through)
        u_t = u.value.T
        d_z = _empty(gates.shape)
        dh_next, dc, dh, carried = _zeros((batch, n)), _zeros((batch, n)), _empty((batch, n)), _empty((batch, n))
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
        _accumulate(w, inputs.T @ flat)
        _accumulate(u, hidden[:-1].reshape(-1, n).T @ flat)
        _accumulate(b, flat.sum(axis=0, keepdims=True))
        if x.requires_grad:
            dx = np.matmul(flat, w.value.T, out=_buffer((flat.shape[0], width)))
            _accumulate(x, dx.reshape(steps, batch, width).transpose(1, 0, 2))

    return _make(hidden[1:].transpose(1, 0, 2), (x, w, u, b), backward)


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
        z = np.matmul(outputs[-1], w.value, out=_buffer((outputs[-1].shape[0], w.value.shape[1])))
        z += b.value
        outputs.append(_sigmoid(z, out=z, work=_buffer(z.shape)) if k == len(weights) - 1
                       else np.maximum(z, 0.0, out=z))

    def backward(g):
        s = outputs[-1]
        g = np.multiply(g, s, out=_buffer(g.shape, s.shape))
        g *= np.subtract(1.0, s, out=_buffer(s.shape))
        for k in range(len(weights) - 1, -1, -1):
            w, h = weights[k], outputs[k]
            _accumulate(biases[k], g)
            if w.requires_grad:
                _accumulate(w, h.T @ g)
            if k > 0 or x.requires_grad:
                dh = np.matmul(g, w.value.T, out=_buffer((g.shape[0], w.value.shape[0])))
            if k > 0:  # h is a ReLU output, positive exactly where its input was
                g = np.multiply(dh, np.greater(h, 0.0, out=_buffer(h.shape, dtype=_BOOL)), out=dh)
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
    diff = np.subtract(prediction.value, target, out=_buffer(target.shape))
    factor = 1.0 / (diff.size if count is None else count)
    value = np.multiply(diff, diff, out=_buffer(diff.shape)).sum() * factor

    def backward(g):
        grad = np.multiply(np.broadcast_to(g * factor, diff.shape), diff, out=_buffer(diff.shape))
        grad += grad
        _accumulate(prediction, grad)

    return _make(value, (prediction,), backward)
