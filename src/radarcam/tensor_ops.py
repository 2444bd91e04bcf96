"""Dense numeric primitives: convolution, linear maps, activations and
pooling.

All operations are pure functions, evaluate forward only and compute in
float64 regardless of the input dtype. Feature maps follow the channels-first
layout (C, H, W). Continuous-coordinate sampling belongs to the view
transformation (:mod:`radarcam.view_transform`), its only user.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """An input does not satisfy an operation's shape contract."""


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


@dataclass(frozen=True)
class Conv2DParams:
    """Parameters of a single 2D cross-correlation layer.

    ``weights`` has shape (out_ch, in_ch, kH, kW) with odd kernel sides,
    ``bias`` has shape (out_ch,). ``padding`` is per-side zero padding
    (top, bottom, left, right).
    """

    weights: np.ndarray
    bias: np.ndarray
    padding: tuple[int, int, int, int] = (0, 0, 0, 0)
    stride: int = 1

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
        if len(self.padding) != 4 or any(p < 0 for p in self.padding):
            raise ShapeError(f"padding must be 4 non-negative ints, got {self.padding}")
        if self.stride < 1:
            raise ShapeError(f"stride must be positive, got {self.stride}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)
        object.__setattr__(self, "padding", tuple(int(p) for p in self.padding))

    @classmethod
    def same(cls, weights, bias, stride: int = 1) -> "Conv2DParams":
        """Padding that preserves H and W for odd kernels at stride 1."""
        w = _as_f64(weights)
        if w.ndim != 4:
            raise ShapeError(f"conv weights must be 4D, got shape {w.shape}")
        ph, pw = (w.shape[2] - 1) // 2, (w.shape[3] - 1) // 2
        return cls(w, bias, (ph, ph, pw, pw), stride)

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


def conv2d(x: np.ndarray, params: Conv2DParams) -> np.ndarray:
    """2D cross-correlation with zero padding.

    ``x`` is (C_in, H, W); the result is (C_out, H', W') where the output
    extent follows the usual (H + pad - k) // stride + 1 rule.

    Computed as one GEMM per kernel tap over the flattened padded input: the
    output pixel (oy, ox) sits at flat column oy * Wp + ox, and tap (ky, kx)
    reads the contiguous columns shifted by ky * Wp + kx. The Wp - W' columns
    at the end of each accumulator row straddle two input rows and are
    cropped; a stride keeps every stride-th row and column.
    """
    x = _as_f64(x)
    if x.ndim != 3:
        raise ShapeError(f"conv2d input must be (C, H, W), got shape {x.shape}")
    out_ch, in_ch, kh, kw = params.weights.shape
    if x.shape[0] != in_ch:
        raise ShapeError(f"input has {x.shape[0]} channels, weights expect {in_ch}")
    pt, pb, pl, pr = params.padding
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr))) if any(params.padding) else x
    _, hp, wp = xp.shape
    if hp < kh or wp < kw:
        raise ShapeError(f"padded input {hp}x{wp} smaller than kernel {kh}x{kw}")
    flat = xp.reshape(in_ch, hp * wp)
    out_h, out_w = hp - kh + 1, wp - kw + 1
    span = (out_h - 1) * wp + out_w
    acc = np.zeros((out_ch, out_h * wp), dtype=np.float64)
    part = np.empty((out_ch, span), dtype=np.float64)
    for ky in range(kh):
        for kx in range(kw):
            shift = ky * wp + kx
            np.matmul(params.weights[:, :, ky, kx], flat[:, shift : shift + span], out=part)
            acc[:, :span] += part
    del part, flat, xp  # a padded copy is freed before the output is allocated
    out = acc.reshape(out_ch, out_h, wp)[:, :: params.stride, : out_w : params.stride]
    return out + params.bias[:, None, None]


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
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, stable for large |x|: exp only ever
    sees -|x|, so it cannot overflow."""
    x = _as_f64(x)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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


def channel_reduce(x: np.ndarray, mode: str) -> np.ndarray:
    """Reduce a (C, H, W) map across channels to (1, H, W)."""
    x = _as_f64(x)
    if x.ndim != 3 or x.shape[0] < 1:
        raise ShapeError(f"channel_reduce input must be (C>=1, H, W), got {x.shape}")
    if mode == "max":
        return np.max(x, axis=0, keepdims=True)
    if mode == "mean":
        return np.mean(x, axis=0, keepdims=True)
    raise ValueError(f"unknown reduction mode {mode!r}")
