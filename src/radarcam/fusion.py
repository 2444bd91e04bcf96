"""BEV feature fusion: a concatenation baseline and channel/spatial
attention fusion.

The attention fusion is CBAM-style (arXiv 1807.06521): per-modality channel
gates predicted from globally pooled mixed features (shared MLP over average
and max pooling, one MLP per modality), then per-modality spatial gate maps
from channel statistics of the mixed channel-gated features, then a mixing
conv over the gated maps. Both gates are sigmoids, so every weight lies in
[0, 1]: in float64 a sigmoid rounds to exactly 1 for logits above about 37
(``sigmoid(40.0) == 1.0``) and to exactly 0 below about -745
(``sigmoid(-746.0) == 0.0``).

No gated map is ever built. A conv is linear, so a per-channel gate in front
of it folds into its weights, as batch norm folds into a conv (arXiv
1712.05877): ``mid_conv`` and ``out_conv`` read the one concatenation of the
two maps with their input channels scaled by the channel gates. The spatial
gates, which vary per pixel, scale that concatenation in place before
``out_conv`` reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .tensor_ops import (
    Conv2DParams,
    MLPParams,
    ShapeError,
    conv2d,
    global_pool,
    mlp,
    sigmoid,
)


def _check_same_shape(f_radar: np.ndarray, f_image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    f_radar = np.asarray(f_radar, dtype=np.float64)
    f_image = np.asarray(f_image, dtype=np.float64)
    if f_radar.ndim != 3 or f_radar.shape != f_image.shape:
        raise ShapeError(
            f"modality maps must share a (C, Y, X) shape, got {f_radar.shape} and {f_image.shape}"
        )
    return f_radar, f_image


@dataclass(frozen=True)
class ConcatFusionParams:
    """Two consecutive 3x3 convolutions applied to the channel concatenation."""

    first: Conv2DParams
    second: Conv2DParams

    def __post_init__(self):
        if self.second.in_channels != self.first.out_channels:
            raise ShapeError(
                f"second takes {self.second.in_channels} channels, first gives {self.first.out_channels}"
            )


def concat_fusion(f_radar: np.ndarray, f_image: np.ndarray, params: ConcatFusionParams) -> np.ndarray:
    """Baseline fusion: concatenate on channels, then two 3x3 convolutions."""
    f_radar, f_image = _check_same_shape(f_radar, f_image)
    mixed = conv2d(np.concatenate([f_radar, f_image], axis=0), params.first)
    return conv2d(mixed, params.second)


@dataclass(frozen=True)
class CSAFusionParams:
    """Parameters of the channel + spatial attention fusion block.

    Channel MLPs bottleneck at floor(C / 3) but never below one unit; each
    modality owns one channel MLP (shared between average and max pooling)
    and one spatial convolution over the stacked channel max and mean.
    """

    in_conv: Conv2DParams
    channel_mlp_radar: MLPParams
    channel_mlp_image: MLPParams
    mid_conv: Conv2DParams
    spatial_conv_radar: Conv2DParams
    spatial_conv_image: Conv2DParams
    out_conv: Conv2DParams

    def __post_init__(self):
        c = self.in_conv.out_channels
        for name in ("in_conv", "mid_conv", "out_conv"):
            width = getattr(self, name).in_channels
            if width != 2 * c:
                raise ShapeError(f"{name} takes {width} channels, needs 2 x {c} (both modalities at in_conv's width)")
        for name, m in (("radar", self.channel_mlp_radar), ("image", self.channel_mlp_image)):
            if m.layers[0].in_features != c or m.layers[-1].out_features != c:
                raise ShapeError(f"channel MLP ({name}) must map {c} -> ... -> {c} features")
        for name, conv in (
            ("radar", self.spatial_conv_radar),
            ("image", self.spatial_conv_image),
        ):
            if conv.in_channels != 2 or conv.out_channels != 1:
                raise ShapeError(f"spatial conv ({name}) must map 2 channels to 1")

    @classmethod
    def bottleneck_width(cls, channels: int) -> int:
        return max(1, channels // 3)


def _fold_gates(conv: Conv2DParams, w_radar: np.ndarray, w_image: np.ndarray) -> Conv2DParams:
    """``conv`` with the channel gates folded into its input channels: the
    same conv of the concatenation of ``w_radar * f_radar`` and
    ``w_image * f_image``, read from the ungated concatenation."""
    gates = np.concatenate([w_radar, w_image])
    if gates.shape != (conv.in_channels,):
        raise ShapeError(f"channel gates hold {gates.shape} weights, the conv takes {conv.in_channels} channels")
    return replace(conv, weights=conv.weights * gates[:, None, None])


def channel_attention(x: np.ndarray, params: CSAFusionParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-modality channel gates predicted from the mixed feature.

    ``x`` is the (2C, Y, X) concatenation of the radar and image maps.
    Returns (w_radar, w_image), the length-C gate vectors: each modality's
    MLP of the average- and max-pooled ``in_conv`` output, summed, through
    a sigmoid.
    """
    f_in = conv2d(x, params.in_conv)
    gap = global_pool(f_in, "avg")
    gmp = global_pool(f_in, "max")
    w_radar = sigmoid(mlp(gap, params.channel_mlp_radar) + mlp(gmp, params.channel_mlp_radar))
    w_image = sigmoid(mlp(gap, params.channel_mlp_image) + mlp(gmp, params.channel_mlp_image))
    return w_radar, w_image


def spatial_attention(
    x: np.ndarray, w_radar: np.ndarray, w_image: np.ndarray, params: CSAFusionParams
) -> tuple[np.ndarray, np.ndarray]:
    """Per-modality spatial gates from channel statistics of the mixed map.

    ``x`` is the ungated (2C, Y, X) concatenation and ``w_radar``,
    ``w_image`` the channel gates, which ``mid_conv`` applies in its
    weights. The channel max and mean of its output are stacked into one
    (2, Y, X) map that each modality's spatial conv reads. Returns
    (s_radar, s_image), two (1, Y, X) gate maps that broadcast across
    channels.
    """
    f_mid = conv2d(x, _fold_gates(params.mid_conv, w_radar, w_image))
    stats = np.empty((2, *f_mid.shape[1:]))
    np.max(f_mid, axis=0, out=stats[0])
    np.mean(f_mid, axis=0, out=stats[1])
    s_radar = sigmoid(conv2d(stats, params.spatial_conv_radar))
    s_image = sigmoid(conv2d(stats, params.spatial_conv_image))
    return s_radar, s_image


def csa_fusion(f_radar: np.ndarray, f_image: np.ndarray, params: CSAFusionParams) -> np.ndarray:
    """Channel attention, spatial attention, then a final mixing conv.

    The concatenation of ``f_radar`` and ``f_image`` is built once; the
    spatial gates then scale it in place, half by half, and ``out_conv``
    reads it with the channel gates folded into its weights. The inputs are
    never written.
    """
    f_radar, f_image = _check_same_shape(f_radar, f_image)
    c = f_radar.shape[0]
    x = np.concatenate([f_radar, f_image], axis=0)
    w_radar, w_image = channel_attention(x, params)
    s_radar, s_image = spatial_attention(x, w_radar, w_image, params)
    x[:c] *= s_radar
    x[c:] *= s_image
    return conv2d(x, _fold_gates(params.out_conv, w_radar, w_image))
