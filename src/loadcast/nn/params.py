"""Named parameter storage with Adam state and a flat binary file format.

Every parameter is a 2-D float64 matrix (vectors are stored 1xN, conv kernels
are flattened). That keeps the wire format trivial: a magic tag, a version,
then one (name, rows, cols, payload) record per parameter in insertion order.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterator

import numpy as np

from ..errors import DataError, ShapeError, StateError
from .autodiff import Tensor

MAGIC = b"SLNN"
FORMAT_VERSION = 1


class Param:
    """One named weight matrix plus its gradient and Adam moment buffers.

    The four buffers are the planes of `planes`, a (4, rows, cols) view into
    the flat arrays of the ParamStore that builds the Param; `value` is
    copied in and the rest start at zero.
    """

    __slots__ = ("name", "value", "grad", "m", "v")

    def __init__(self, name: str, value: np.ndarray, planes: np.ndarray):
        self.name = name
        planes[0] = value
        planes[1:] = 0.0
        self.value, self.grad, self.m, self.v = planes

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape  # type: ignore[return-value]

    def tensor(self) -> Tensor:
        """A leaf Tensor sharing this parameter's value and gradient buffers."""
        return Tensor(self.value, requires_grad=True, grad_buffer=self.grad)


class ParamStore:
    """Ordered collection of Params addressed by unique string names.

    `value`, `grad`, `m` and `v` are flat float64 arrays holding every
    parameter's buffer of that kind end to end in insertion order; each
    Param's buffers are 2-D views into them. `add` may reallocate the flat
    arrays and rebind every view, so take Tensors and array references
    only once the store is fully built. The optimizer's state is these
    arrays and nothing else.
    """

    def __init__(self):
        self._params: dict[str, Param] = {}
        # Rows value, grad, m, v; columns past the last parameter are spare,
        # so most adds append in place.
        self._buffer = np.empty((4, 0))
        self.value, self.grad, self.m, self.v = self._buffer

    def __len__(self) -> int:
        return len(self._params)

    def __iter__(self) -> Iterator[Param]:
        return iter(self._params.values())

    def names(self) -> list[str]:
        return list(self._params.keys())

    def add(self, name: str, value: np.ndarray) -> Param:
        if name in self._params:
            raise StateError(f"duplicate parameter name {name!r}")
        value = np.asarray(value, dtype=np.float64)
        if value.ndim != 2:
            raise ShapeError(f"parameter {name!r} must be 2-D, got shape {value.shape}")
        used = self.value.size
        end = used + value.size
        if end > self._buffer.shape[1]:  # doubling keeps building a store of n parameters linear
            grown = np.empty((4, max(2 * self._buffer.shape[1], end)))
            grown[:, :used] = self._buffer[:, :used]
            self._buffer = grown
            for p, planes in self._views(grown[:, :used]):
                p.value, p.grad, p.m, p.v = planes.reshape(4, *p.shape)
        param = Param(name, value, self._buffer[:, used:end].reshape(4, *value.shape))
        self._params[name] = param
        self.value, self.grad, self.m, self.v = self._buffer[:, :end]
        return param

    def _views(self, flat: np.ndarray) -> Iterator[tuple[Param, np.ndarray]]:
        """Each Param with its slice of `flat`'s last axis, laid out like `value`."""
        offset = 0
        for param in self:
            yield param, flat[..., offset : offset + param.value.size]
            offset += param.value.size

    def get(self, name: str) -> Param:
        try:
            return self._params[name]
        except KeyError:
            raise StateError(f"unknown parameter {name!r}") from None

    def tensor(self, name: str) -> Tensor:
        return self.get(name).tensor()

    def zero_grads(self) -> None:
        self.grad.fill(0.0)

    def state_hash(self) -> str:
        """SHA-256 over names, shapes and raw little-endian values.

        Two stores hash equal iff they hold bitwise-identical parameters, so
        the digest doubles as a tamper check for workflows that promise not
        to touch the weights.
        """
        digest = hashlib.sha256()
        for param in self:
            digest.update(param.name.encode("utf-8"))
            digest.update(struct.pack("<II", *param.shape))
            digest.update(np.ascontiguousarray(param.value, dtype="<f8").tobytes())
        return digest.hexdigest()

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            for param in self:
                encoded = param.name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<II", *param.shape))
                fh.write(np.ascontiguousarray(param.value, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path: str) -> "ParamStore":
        store = cls()
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != MAGIC:
            raise DataError(f"{path}: not a parameter file (bad magic)")
        if len(blob) < 8:
            raise DataError(f"{path}: truncated header")
        (version,) = struct.unpack_from("<I", blob, 4)
        if version != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported format version {version}")
        offset = 8
        while offset < len(blob):
            if offset + 4 > len(blob):
                raise DataError(f"{path}: truncated record header")
            (name_len,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            if offset + name_len + 8 > len(blob):
                raise DataError(f"{path}: truncated record")
            try:
                name = blob[offset : offset + name_len].decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{path}: parameter name at byte {offset} is not UTF-8") from None
            offset += name_len
            rows, cols = struct.unpack_from("<II", blob, offset)
            offset += 8
            nbytes = rows * cols * 8
            if offset + nbytes > len(blob):
                raise DataError(f"{path}: truncated payload for {name!r}")
            value = np.frombuffer(blob, dtype="<f8", count=rows * cols, offset=offset)
            offset += nbytes
            store.add(name, value.reshape(rows, cols))
        return store

    def load_values_from(self, other: "ParamStore") -> None:
        """Copy values in from a store with identical names and shapes."""
        if self.names() != other.names():
            raise StateError("parameter name mismatch between stores")
        for param in self:
            source = other.get(param.name)
            if source.shape != param.shape:
                raise ShapeError(
                    f"shape mismatch for {param.name!r}: {param.shape} vs {source.shape}"
                )
        self.value[...] = other.value

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of all current values, for checkpoint/rollback: one copy of
        the flat value array, handed out as one view per name."""
        return {param.name: view.reshape(param.shape) for param, view in self._views(self.value.copy())}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        for param in self:
            param.value[...] = snapshot[param.name]


def glorot_init(rng: np.random.Generator, fan_in: int, fan_out: int, shape: tuple[int, int]) -> np.ndarray:
    """Uniform Glorot draw sized by the layer fan, independent of storage shape."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
