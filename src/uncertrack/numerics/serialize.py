"""Flat binary weight container.

Layout: magic ``UNCERTRACK1``; then per block: u64 name length, utf-8 name,
u64 tensor count, and per tensor u64 rows, u64 cols, row-major f64 values.
All integers and floats little-endian.  Adam moments are not stored.

Values are float64 on disk whatever their dtype in memory: a float32 model's
weights widen exactly, so saving one and loading it back into a float32
model (``model.load_model``) round-trips bitwise.  ``load_weights`` returns
float64 blocks.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .params import ParamBlock
from .tape import NumericsError

__all__ = ["save_weights", "load_weights", "MAGIC"]

MAGIC = b"UNCERTRACK1"
_U64 = struct.Struct("<Q")


def save_weights(path, blocks: list[ParamBlock]) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        for block in blocks:
            name = block.name.encode("utf-8")
            f.write(_U64.pack(len(name)))
            f.write(name)
            f.write(_U64.pack(len(block.weights)))
            for w in block.weights:
                f.write(_U64.pack(w.shape[0]))
                f.write(_U64.pack(w.shape[1]))
                f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())


def _read_exact(f, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise NumericsError(f"weight file truncated while reading {what}")
    return data


def load_weights(path) -> list[ParamBlock]:
    path = Path(path)
    blocks = []
    with open(path, "rb") as f:
        if f.read(len(MAGIC)) != MAGIC:
            raise NumericsError(f"{path}: not a weight file (bad magic)")
        while True:
            head = f.read(_U64.size)
            if not head:
                break
            (name_len,) = _U64.unpack(head)
            name = _read_exact(f, name_len, "block name").decode("utf-8")
            (count,) = _U64.unpack(_read_exact(f, _U64.size, "tensor count"))
            weights = []
            for i in range(count):
                (rows,) = _U64.unpack(_read_exact(f, _U64.size, "rows"))
                (cols,) = _U64.unpack(_read_exact(f, _U64.size, "cols"))
                raw = _read_exact(f, rows * cols * 8, f"values of '{name}'")
                w = np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()
                if not np.all(np.isfinite(w)):
                    raise NumericsError(f"{path}: block '{name}' tensor {i} "
                                        f"holds a non-finite value")
                weights.append(w)
            blocks.append(ParamBlock(name=name, weights=weights))
    return blocks
