"""BEV feature fusion: a concatenation baseline and channel/spatial
attention fusion.

The attention fusion predicts per-modality channel weights from globally
pooled mixed features (shared MLP over average and max pooling, one MLP per
modality) and per-modality spatial weight maps from channel statistics of
the mixed channel-attended features. Both gates are sigmoids, so every
weight lies in [0, 1]: in float64 a sigmoid rounds to exactly 1 for logits
above about 37 (``sigmoid(40.0) == 1.0``) and to exactly 0 below about -745
(``sigmoid(-746.0) == 0.0``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import lxlt
from .geometry import json_list, json_object
from .tensor_ops import (
    Conv2DParams,
    MLPParams,
    ShapeError,
    channel_reduce,
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
    and one 7x7 spatial convolution over the stacked channel max and mean.
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


def channel_attention(
    f_radar: np.ndarray, f_image: np.ndarray, params: CSAFusionParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-modality channel gates predicted from the mixed feature.

    Returns (mid_radar, mid_image, w_radar, w_image): the channel-attended
    maps and the length-C gate vectors.
    """
    f_radar, f_image = _check_same_shape(f_radar, f_image)
    f_in = conv2d(np.concatenate([f_radar, f_image], axis=0), params.in_conv)
    gap = global_pool(f_in, "avg")
    gmp = global_pool(f_in, "max")
    w_radar = sigmoid(mlp(gap, params.channel_mlp_radar) + mlp(gmp, params.channel_mlp_radar))
    w_image = sigmoid(mlp(gap, params.channel_mlp_image) + mlp(gmp, params.channel_mlp_image))
    mid_radar = w_radar[:, None, None] * f_radar
    mid_image = w_image[:, None, None] * f_image
    return mid_radar, mid_image, w_radar, w_image


def spatial_attention(
    mid_radar: np.ndarray, mid_image: np.ndarray, params: CSAFusionParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-modality spatial gates from channel statistics of the mixed map.

    Returns (out_radar, out_image, w_radar, w_image) where the weight maps
    are (1, Y, X) and broadcast across channels.
    """
    mid_radar, mid_image = _check_same_shape(mid_radar, mid_image)
    f_mid = conv2d(np.concatenate([mid_radar, mid_image], axis=0), params.mid_conv)
    stats = np.concatenate([channel_reduce(f_mid, "max"), channel_reduce(f_mid, "mean")], axis=0)
    w_radar = sigmoid(conv2d(stats, params.spatial_conv_radar))
    w_image = sigmoid(conv2d(stats, params.spatial_conv_image))
    out_radar = w_radar * mid_radar
    out_image = w_image * mid_image
    return out_radar, out_image, w_radar, w_image


def csa_fusion(f_radar: np.ndarray, f_image: np.ndarray, params: CSAFusionParams) -> np.ndarray:
    """Channel attention, spatial attention, then a final 3x3 mixing conv."""
    mid_radar, mid_image, _, _ = channel_attention(f_radar, f_image, params)
    out_radar, out_image, _, _ = spatial_attention(mid_radar, mid_image, params)
    return conv2d(np.concatenate([out_radar, out_image], axis=0), params.out_conv)


def _read_mlp(entry: dict, root: str | Path, name: str) -> MLPParams:
    layers = enumerate(json_list(json_object(entry, name).get("layers"), f"{name}.layers"))
    return MLPParams(tuple(lxlt.read_linear(layer, root, f"{name}.layers[{i}]") for i, layer in layers))


def csa_params_from_manifest(manifest: dict, root: str | Path) -> CSAFusionParams:
    """Load attention-fusion parameters from a JSON manifest of LXLT files."""
    params = lxlt.manifest_params(manifest)
    return CSAFusionParams(
        in_conv=lxlt.read_conv(params.get("in_conv"), root, "in_conv"),
        channel_mlp_radar=_read_mlp(params.get("channel_mlp_radar"), root, "channel_mlp_radar"),
        channel_mlp_image=_read_mlp(params.get("channel_mlp_image"), root, "channel_mlp_image"),
        mid_conv=lxlt.read_conv(params.get("mid_conv"), root, "mid_conv"),
        spatial_conv_radar=lxlt.read_conv(params.get("spatial_conv_radar"), root, "spatial_conv_radar"),
        spatial_conv_image=lxlt.read_conv(params.get("spatial_conv_image"), root, "spatial_conv_image"),
        out_conv=lxlt.read_conv(params.get("out_conv"), root, "out_conv"),
    )


def concat_params_from_manifest(manifest: dict, root: str | Path) -> ConcatFusionParams:
    """Load baseline-fusion parameters from a JSON manifest of LXLT files."""
    params = lxlt.manifest_params(manifest)
    return ConcatFusionParams(
        first=lxlt.read_conv(params.get("first"), root, "first"),
        second=lxlt.read_conv(params.get("second"), root, "second"),
    )
