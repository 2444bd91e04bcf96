"""Reader and writer for the LXLT binary tensor file format.

Layout, all little-endian:

    offset  size        content
    0       4           magic bytes ``LXLT``
    4       1           format version, currently 1
    5       1           dtype code, 0 = IEEE-754 float32
    6       1           rank (number of dimensions)
    7       4 * rank    dimension sizes as uint32
    ...                 raw row-major float32 payload

Arrays are stored in single precision on disk; :func:`read_tensor` promotes
to float64 because all in-memory computation runs in double precision.
Zero-size dimensions are permitted (an empty target table is a valid file).
Non-finite values are refused in both directions.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .geometry import json_object
from .tensor_ops import Conv2DParams, LinearParams

MAGIC = b"LXLT"
VERSION = 1
DTYPE_FLOAT32 = 0

_HEADER = struct.Struct("<4sBBB")


class TensorFormatError(ValueError):
    """Malformed, truncated or unsupported LXLT data."""


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    """Serialize ``array`` to ``path``, casting the payload to float32."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim < 1 or arr.ndim > 255:
        raise TensorFormatError(f"rank {arr.ndim} outside the supported 1..255 range")
    arr = np.ascontiguousarray(arr)
    if arr.size and not np.all(np.isfinite(arr)):
        raise TensorFormatError("refusing to write non-finite values")
    for dim in arr.shape:
        if dim > 0xFFFFFFFF:
            raise TensorFormatError(f"dimension {dim} does not fit in uint32")
    header = _HEADER.pack(MAGIC, VERSION, DTYPE_FLOAT32, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = arr.astype("<f4").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(dims)
        fh.write(payload)


def read_tensor(path: str | Path) -> np.ndarray:
    """Deserialize an LXLT file into a float64 row-major array."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise TensorFormatError(f"{path}: file shorter than the fixed header")
    magic, version, dtype, rank = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise TensorFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise TensorFormatError(f"{path}: unsupported version {version}")
    if dtype != DTYPE_FLOAT32:
        raise TensorFormatError(f"{path}: unsupported dtype code {dtype}")
    if rank < 1:
        raise TensorFormatError(f"{path}: rank must be at least 1")
    dims_end = _HEADER.size + 4 * rank
    if len(blob) < dims_end:
        raise TensorFormatError(f"{path}: truncated dimension table")
    shape = struct.unpack_from(f"<{rank}I", blob, _HEADER.size)
    count = 1
    for dim in shape:
        count *= dim
    expected = dims_end + 4 * count
    if len(blob) < expected:
        raise TensorFormatError(f"{path}: payload truncated ({len(blob)} < {expected} bytes)")
    if len(blob) > expected:
        raise TensorFormatError(f"{path}: {len(blob) - expected} trailing bytes after payload")
    flat = np.frombuffer(blob, dtype="<f4", count=count, offset=dims_end)
    if not np.isfinite(flat).all():
        raise TensorFormatError(f"{path}: payload holds non-finite values")
    try:
        return flat.astype(np.float64).reshape(shape)
    except ValueError:  # an empty shape whose other sides overflow the address space
        raise TensorFormatError(f"{path}: shape {shape} is too large to represent") from None


def manifest_params(manifest: dict) -> dict:
    """A JSON manifest's ``params`` object, or the manifest itself."""
    return json_object(manifest.get("params", manifest), "manifest params")


def _read_weights(entry: dict, root: str | Path, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The (weights, bias) a manifest entry names; a missing or malformed entry is named."""
    try:
        return read_tensor(Path(root) / entry["weights"]), read_tensor(Path(root) / entry["bias"])
    except KeyError as exc:
        raise ValueError(f"{name}: manifest entry is missing {exc}") from None
    except TypeError:
        raise ValueError(
            f"{name}: manifest entry must map 'weights' and 'bias' to file names, got {entry!r}"
        ) from None


def read_conv(entry: dict, root: str | Path, name: str) -> Conv2DParams:
    """The same-padded convolution a manifest entry names."""
    return Conv2DParams.same(*_read_weights(entry, root, name))


def read_linear(entry: dict, root: str | Path, name: str) -> LinearParams:
    """The linear layer a manifest entry names."""
    return LinearParams(*_read_weights(entry, root, name))
