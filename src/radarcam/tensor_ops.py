"""Dense numeric primitives: convolution, linear maps, activations and
pooling.

All operations are pure functions, evaluate forward only and compute in
float64 regardless of the input dtype or memory layout. Feature maps follow
the channels-first layout (C, H, W). Every convolution is same-padded at
stride 1, so :func:`conv2d` returns a map of its input's H and W,
C-contiguous. A dense convolution larger than 1x1 runs as one batched GEMM
per kernel column over overlapping views of a row-major (H, C, W) padded
copy, with no im2col buffer. Continuous-coordinate sampling belongs to the
view transformation (:mod:`radarcam.view_transform`), its only user.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided


class ShapeError(ValueError):
    """An input does not satisfy an operation's shape contract."""


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


@dataclass(frozen=True)
class Conv2DParams:
    """Parameters of a single 2D cross-correlation layer, same-padded at
    stride 1: its output keeps the input's H and W.

    ``weights`` has shape (out_ch, in_ch, kH, kW) with odd kernel sides,
    ``bias`` has shape (out_ch,).
    """

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = _as_f64(self.weights)
        b = _as_f64(self.bias)
        if w.ndim != 4:
            raise ShapeError(f"conv weights must be 4D, got shape {w.shape}")
        out_ch, _, kh, kw = w.shape
        if kh % 2 == 0 or kw % 2 == 0:
            raise ShapeError(f"kernel sides must be odd, got {kh}x{kw}")
        if b.shape != (out_ch,):
            raise ShapeError(f"bias shape {b.shape} does not match {out_ch} output channels")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @classmethod
    def same(cls, weights, bias) -> "Conv2DParams":
        """The constructor itself, kept because ``bench/workloads.py`` calls it."""
        return cls(weights, bias)

    @property
    def padding(self) -> tuple[int, int, int, int]:
        """Per-side zero padding (top, bottom, left, right) that keeps H and W."""
        ph, pw = (self.weights.shape[2] - 1) // 2, (self.weights.shape[3] - 1) // 2
        return (ph, ph, pw, pw)

    @property
    def stride(self) -> int:
        """Always 1, kept because ``bench/workloads.py`` reads it."""
        return 1

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class LinearParams:
    """Affine map y = W x + b with W of shape (out, in)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = _as_f64(self.weights)
        b = _as_f64(self.bias)
        if w.ndim != 2:
            raise ShapeError(f"linear weights must be 2D, got shape {w.shape}")
        if b.shape != (w.shape[0],):
            raise ShapeError(f"bias shape {b.shape} does not match {w.shape[0]} outputs")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def out_features(self) -> int:
        return self.weights.shape[0]

    @property
    def in_features(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class MLPParams:
    """A stack of linear layers with a rectifier between consecutive layers."""

    layers: tuple[LinearParams, ...]

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ShapeError("an MLP needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.out_features != b.in_features:
                raise ShapeError(
                    f"layer widths do not chain: {a.out_features} -> {b.in_features}"
                )
        object.__setattr__(self, "layers", layers)


def _zero_padded(x: np.ndarray, padding: tuple[int, int, int, int]) -> np.ndarray:
    """A zero-padded copy of the (C, H, W) map ``x``, (Hp, C, Wp) in memory.
    Only the borders are zeroed."""
    c, h, w = x.shape
    pt, pb, pl, pr = padding
    hp, wp = h + pt + pb, w + pl + pr
    buf = np.empty((hp, c, wp), dtype=np.float64)
    view = buf.transpose(1, 0, 2)  # (C, Hp, Wp)
    view[:, :pt] = 0.0
    view[:, pt + h :] = 0.0
    view[:, pt : pt + h, :pl] = 0.0
    view[:, pt : pt + h, pl + w :] = 0.0
    view[:, pt : pt + h, pl : pl + w] = x
    return buf


def conv2d(x: np.ndarray, params: Conv2DParams) -> np.ndarray:
    """2D cross-correlation, zero-padded to keep the map size.

    ``x`` is (C_in, H, W) with H, W >= 1; the result is a C-contiguous
    (C_out, H, W) array.

    A 1x1 conv is one GEMM over the (C_in, H·W) input plus the bias. Any
    other conv reads a zero-padded copy laid out (Hp, C_in, Wp), in which
    one row step is C_in·Wp elements: the kernel rows (ky, c) of every
    output row then form one K axis of stride Wp over overlapping views of
    the copy, with no im2col buffer (MEC lowering, arXiv 1706.06873). Each
    kernel column kx is one batched matmul, one GEMM of K = kh·C_in per
    output row, into an (H, C_out, W) accumulator. The transpose and the
    bias are then written to a fresh C-contiguous array.
    """
    x = _as_f64(x)
    if x.ndim != 3:
        raise ShapeError(f"conv2d input must be (C, H, W), got shape {x.shape}")
    out_ch, in_ch, kh, kw = params.weights.shape
    in_x, h, w = x.shape
    if in_x != in_ch:
        raise ShapeError(f"input has {in_x} channels, weights expect {in_ch}")
    if h < 1 or w < 1:
        raise ShapeError(f"input map {h}x{w} is empty")
    if kh == kw == 1:
        acc = np.matmul(params.weights[:, :, 0, 0], x.reshape(in_ch, h * w))
        return acc.reshape(out_ch, h, w) + params.bias[:, None, None]
    xp = _zero_padded(x, params.padding)
    # w_cols[kx] is (C_out, kh·C_in), its K axis in the views' (ky, c) order
    w_cols = params.weights.transpose(3, 0, 2, 1).reshape(kw, out_ch, kh * in_ch)
    shape = (h, kh * in_ch, w)
    acc = np.matmul(w_cols[0], as_strided(xp, shape, xp.strides, writeable=False))
    part = np.empty_like(acc)
    for kx in range(1, kw):
        np.matmul(w_cols[kx], as_strided(xp[:, :, kx:], shape, xp.strides, writeable=False), out=part)
        acc += part
    del xp, part  # the padded copy is freed before the output is allocated
    out = np.empty((out_ch, h, w), dtype=np.float64)
    np.add(acc.transpose(1, 0, 2), params.bias[:, None, None], out=out)
    return out


def linear(x: np.ndarray, params: LinearParams) -> np.ndarray:
    """Affine map of a vector: W x + b."""
    x = _as_f64(x)
    if x.ndim != 1:
        raise ShapeError(f"linear input must be a vector, got shape {x.shape}")
    if x.shape[0] != params.in_features:
        raise ShapeError(f"input length {x.shape[0]} != weight columns {params.in_features}")
    return params.weights @ x + params.bias


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(_as_f64(x), 0.0)


def mlp(x: np.ndarray, params: MLPParams) -> np.ndarray:
    """Apply the layer stack with a rectifier between consecutive layers."""
    out = _as_f64(x)
    last = len(params.layers) - 1
    for i, layer in enumerate(params.layers):
        out = linear(out, layer)
        if i != last:
            out = relu(out)
    return out


def softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Numerically stable softmax along ``axis`` (max subtraction)."""
    x = _as_f64(x)
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"axis {axis} invalid for shape {x.shape}")
    out = x - np.max(x, axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= np.sum(out, axis=axis, keepdims=True)
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, stable for large |x|: exp only ever
    sees -|x|, so it cannot overflow. The result is 1 / (1 + e) where
    x >= 0 and e / (1 + e) elsewhere, with e = exp(-|x|)."""
    x = _as_f64(x)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    out /= e + 1.0
    return out


def global_pool(x: np.ndarray, mode: str) -> np.ndarray:
    """Per-channel spatial reduction of a (C, H, W) map to a length-C vector."""
    x = _as_f64(x)
    if x.ndim != 3 or x.shape[1] < 1 or x.shape[2] < 1:
        raise ShapeError(f"global_pool input must be (C, H>=1, W>=1), got {x.shape}")
    if mode == "avg":
        return np.mean(x, axis=(1, 2))
    if mode == "max":
        return np.max(x, axis=(1, 2))
    raise ValueError(f"unknown pooling mode {mode!r}")
