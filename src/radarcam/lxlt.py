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
Non-finite values are refused in both directions, and so are values that
overflow float32 when written.

A manifest is a JSON object that :func:`read_manifest` reads with
:func:`~radarcam.geometry.read_json`, by the field types of a dataclass
such as ``VTParams``, ``CSAFusionParams`` or ``ConcatFusionParams``: JSON
values are inline, and each ``np.ndarray`` field, such as the ``weights``
and ``bias`` of a ``Conv2DParams`` or ``LinearParams``, is the name of an
LXLT file relative to the manifest's directory. Any other key is refused.

Errors name the entry as a path of field names:
``manifest.params.post_convs[1].bias``,
``manifest.params.channel_mlp_image.layers[0]``.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .geometry import read_json

MAGIC = b"LXLT"
VERSION = 1
DTYPE_FLOAT32 = 0

_HEADER = struct.Struct("<4sBBB")


class TensorFormatError(ValueError):
    """Malformed, truncated or unsupported LXLT data."""


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    """Serialize ``array`` to ``path``, casting the payload to float32.

    Nothing is written when a value is NaN, infinite or beyond the float32
    range."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim < 1 or arr.ndim > 255:
        raise TensorFormatError(f"rank {arr.ndim} outside the supported 1..255 range")
    for dim in arr.shape:
        if dim > 0xFFFFFFFF:
            raise TensorFormatError(f"dimension {dim} does not fit in uint32")
    # A finite value beyond the float32 range casts to +-inf, so one check
    # of the cast payload refuses NaN, infinities and overflow alike.
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(arr, dtype="<f4")
    if not np.isfinite(payload).all():
        raise TensorFormatError("refusing to write values that are non-finite or outside the float32 range")
    header = _HEADER.pack(MAGIC, VERSION, DTYPE_FLOAT32, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}I", *arr.shape)
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


def read_manifest(tp, value, name: str, root: str | Path):
    """The ``tp`` that the JSON ``value`` holds, named ``name`` in errors and
    read as described in the module docstring, with LXLT file names
    relative to ``root``."""

    def array(file, path: str) -> np.ndarray:
        if not isinstance(file, str):
            raise ValueError(f"{path} must be a file name, got {file!r}")
        return read_tensor(Path(root) / file)

    return read_json(tp, value, name, array)
