"""TDF: a minimal binary tensor file.

Layout, all little-endian:
    magic   4 bytes  b"TDF1"
    dtype   1 byte   1=float32, 2=float64, 3=int32
    rank    1 byte
    dims    rank x uint64
    payload row-major scalars

The payload length must equal element count x element size; trailing bytes
are rejected.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"TDF1"

_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("<i4")}
_CODE_FOR = {np.dtype(np.float32): 1, np.dtype(np.float64): 2, np.dtype(np.int32): 3}


class TDFError(ValueError):
    pass


def dumps(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr)
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)  # keeps rank-0 arrays rank 0
    code = _CODE_FOR.get(arr.dtype)
    if code is None:
        raise TDFError(f"unsupported dtype {arr.dtype}; use float32/float64/int32")
    head = MAGIC + struct.pack("<BB", code, arr.ndim)
    head += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    return head + arr.astype(_DTYPE_CODES[code]).tobytes()


def loads(blob: bytes) -> np.ndarray:
    if blob[:4] != MAGIC:
        raise TDFError("bad magic; not a TDF file")
    if len(blob) < 6:
        raise TDFError("truncated header")
    code, rank = struct.unpack_from("<BB", blob, 4)
    if code not in _DTYPE_CODES:
        raise TDFError(f"unknown dtype code {code}")
    off = 6
    if len(blob) < off + 8 * rank:
        raise TDFError("truncated dims")
    dims = struct.unpack_from(f"<{rank}Q", blob, off)
    off += 8 * rank
    dt = _DTYPE_CODES[code]
    count = int(np.prod(dims, dtype=np.int64)) if rank else 1
    expect = count * dt.itemsize
    payload = blob[off:]
    if len(payload) != expect:
        raise TDFError(f"payload length {len(payload)} != expected {expect}")
    return np.frombuffer(payload, dtype=dt).reshape(dims).copy()


def write(path, arr: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(dumps(arr))


def read(path) -> np.ndarray:
    """``loads`` of the file at ``path``; a refusal names the file."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        return loads(blob)
    except TDFError as exc:
        raise TDFError(f"{path}: {exc}") from None
