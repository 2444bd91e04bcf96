"""Occupancy grids, intrinsics-embedded depth distributions, and the
occupancy-assisted depth-based sampling view transformation.

The view transformation lifts perspective-view image features to a
bird's-eye-view map: every voxel center is projected into the image, its
image feature is read bilinearly, its depth likelihood trilinearly from the
depth distribution volume, and the feature is gated once by the depth
likelihood and once by the radar occupancy. The two gated volumes are
concatenated on channels, folded over height and mixed by a conv stack.

Sampling uses the pixel-center convention: the center of pixel (row i,
col j) sits at continuous coordinate (u=j, v=i), depth bin k's midpoint at
bin coordinate k, and corners outside a map read as zero. Both reads go
through one n-linear corner builder: flat corner indices into the raveled
map plus one trailing zero cell, and per-corner weights. It is built per
call, only for voxels with at least one in-image corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import CameraIntrinsics, RigidTransform, json_number, project_points, scale_intrinsics
from .depth_supervision import DepthBinSpec, validate_depth_volume
from . import lxlt
from .tensor_ops import Conv2DParams, LinearParams, ShapeError, conv2d, linear, sigmoid, softmax


@dataclass(frozen=True)
class VoxelGridSpec:
    """Voxel counts and metric extents per axis, (min, max, count) each."""

    x: tuple[float, float, int]
    y: tuple[float, float, int]
    z: tuple[float, float, int]

    def __post_init__(self):
        for name in ("x", "y", "z"):
            lo, hi, count = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} axis extent must be finite, got [{lo}, {hi}]")
            if not float(count).is_integer():
                raise ValueError(f"{name} axis count must be a whole number, got {count}")
            if count < 1:
                raise ValueError(f"{name} axis needs at least one voxel, got {count}")
            if not lo < hi:
                raise ValueError(f"{name} axis extent must satisfy min < max, got [{lo}, {hi}]")
            object.__setattr__(self, name, (float(lo), float(hi), int(count)))

    @classmethod
    def from_dict(cls, data: dict) -> "VoxelGridSpec":
        def axis(name: str) -> tuple[float, float, int]:
            raw = data.get(name)
            if not isinstance(raw, (list, tuple)) or len(raw) != 3:
                raise ValueError(f"grid {name} must be [min, max, count], got {raw!r}")
            lo, hi, count = raw
            return (
                json_number(lo, f"grid {name} min"),
                json_number(hi, f"grid {name} max"),
                json_number(count, f"grid {name} count", whole=True),
            )

        if not isinstance(data, dict):
            raise ValueError("a grid spec must be a JSON object")
        return cls(axis("x"), axis("y"), axis("z"))

    @property
    def counts(self) -> tuple[int, int, int]:
        """(Z, Y, X) voxel counts."""
        return self.z[2], self.y[2], self.x[2]


def voxel_centers(spec: VoxelGridSpec) -> np.ndarray:
    """Metric cell-midpoint coordinates, shaped (3, Z, Y, X) in x, y, z order."""

    def centers(lo: float, hi: float, count: int) -> np.ndarray:
        step = (hi - lo) / count
        return lo + (np.arange(count, dtype=np.float64) + 0.5) * step

    xs = centers(*spec.x)
    ys = centers(*spec.y)
    zs = centers(*spec.z)
    nz, ny, nx = spec.counts
    out = np.empty((3, nz, ny, nx), dtype=np.float64)
    out[0] = xs[None, None, :]
    out[1] = ys[None, :, None]
    out[2] = zs[:, None, None]
    return out


@dataclass(frozen=True)
class OccupancyGrid:
    """Per-voxel occupancy probabilities, shaped (Z, Y, X), values in [0, 1]."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 3:
            raise ShapeError(f"occupancy grid must be (Z, Y, X), got shape {data.shape}")
        if data.size and not (data.min() >= 0.0 and data.max() <= 1.0):
            raise ValueError("occupancy values must lie in [0, 1]")
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class DepthDistributionMap:
    """Per-pixel depth distribution (D, H, W) at a given feature stride."""

    data: np.ndarray
    spec: DepthBinSpec
    stride: int

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError(f"stride must be positive, got {self.stride}")
        object.__setattr__(self, "data", validate_depth_volume(self.data, self.spec.num_bins))


@dataclass(frozen=True)
class VTParams:
    """Learnable-weight holders for the view transformation, loaded not trained."""

    occupancy_conv: Conv2DParams
    depth_conv: Conv2DParams
    embedding: LinearParams
    post_convs: tuple[Conv2DParams, Conv2DParams, Conv2DParams]
    use_extrinsics_embedding: bool = False

    def __post_init__(self):
        expected_in = 25 if self.use_extrinsics_embedding else 9
        if self.embedding.in_features != expected_in:
            raise ShapeError(
                f"embedding expects {self.embedding.in_features} inputs, "
                f"needs {expected_in} for this configuration"
            )
        if len(self.post_convs) != 3:
            raise ShapeError("the post-transform stack must hold exactly three convolutions")
        object.__setattr__(self, "post_convs", tuple(self.post_convs))


def occupancy_from_bev(f_bev_radar: np.ndarray, params: VTParams) -> OccupancyGrid:
    """Predict per-voxel occupancy from radar BEV features: sigmoid of a 1x1 conv."""
    logits = conv2d(f_bev_radar, params.occupancy_conv)
    return OccupancyGrid(sigmoid(logits))


def depth_distribution(
    f_pv: np.ndarray,
    intrinsics: CameraIntrinsics,
    params: VTParams,
    bins: DepthBinSpec,
    stride: int,
    extrinsics: RigidTransform | None = None,
) -> DepthDistributionMap:
    """Estimate per-pixel depth distributions with an intrinsics embedding.

    ``intrinsics`` must already be rescaled to the feature stride. The
    flattened (row-major) inverse intrinsic matrix is embedded by a linear
    layer into one scale per channel, features are gated channelwise, reduced
    to depth logits by a 1x1 conv, and normalized by softmax over bins. With
    ``use_extrinsics_embedding`` the flattened 4x4 extrinsic matrix is
    appended to the embedding input.
    """
    f_pv = np.asarray(f_pv, dtype=np.float64)
    if f_pv.ndim != 3:
        raise ShapeError(f"feature map must be (C, H, W), got shape {f_pv.shape}")
    emb_in = intrinsics.inverse_matrix().reshape(-1)
    if params.use_extrinsics_embedding:
        if extrinsics is None:
            raise ValueError("extrinsics embedding enabled but no extrinsics given")
        emb_in = np.concatenate([emb_in, extrinsics.matrix().reshape(-1)])
    scale = linear(emb_in, params.embedding)
    if scale.shape[0] != f_pv.shape[0]:
        raise ShapeError(
            f"embedding yields {scale.shape[0]} channels, features have {f_pv.shape[0]}"
        )
    logits = conv2d(f_pv * scale[:, None, None], params.depth_conv)
    return DepthDistributionMap(softmax(logits, axis=0), bins, stride)


def project_voxel_centers(
    grid: VoxelGridSpec,
    intrinsics: CameraIntrinsics,
    world_to_camera: RigidTransform,
    stride: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Project all voxel centers to feature-grid pixels.

    Returns flat arrays (u, v, depth, valid) over voxels in (Z, Y, X)
    row-major order; ``valid`` marks voxels in front of the camera. Pixel
    coordinates use the intrinsics rescaled to ``stride``.
    """
    cam = world_to_camera.apply_many(voxel_centers(grid).reshape(3, -1).T)
    return project_points(cam, scale_intrinsics(intrinsics, stride))


def _corners(coords: tuple[np.ndarray, ...], shape: tuple[int, ...]) -> tuple[list, list]:
    """Flat corner indices and weights of n-linear interpolation.

    ``coords`` holds one coordinate array per axis of ``shape``, leading axis
    first, with cell centers on integers. Returns one (index, weight) array
    pair per corner, corners ordered with the last axis varying fastest.
    Indices address the raveled map plus one trailing zero cell at
    ``prod(shape)``, which every corner outside the map reads. Each weight is
    the product of its per-axis factors, leading axis to trailing.
    """
    size = int(np.prod(shape))
    idx = [np.zeros(coords[0].shape, dtype=np.intp)]
    wts = [None]
    inside = [np.ones(coords[0].shape, dtype=bool)]
    for coord, n in zip(coords, shape):
        lo = np.floor(coord)
        frac = coord - lo
        lo = lo.astype(np.intp)
        factors = ((lo, 1.0 - frac), (lo + 1, frac))
        idx = [i * n + c for i in idx for c, _ in factors]
        wts = [f if w is None else w * f for w in wts for _, f in factors]
        inside = [ok & (c >= 0) & (c < n) for ok in inside for c, _ in factors]
    return [np.where(ok, i, size) for i, ok in zip(idx, inside)], wts


def _interpolate(table: np.ndarray, corners: tuple[list, list]) -> np.ndarray:
    """Weighted sum of ``table`` rows over the corners, in corner order."""
    idx, wts = corners
    bcast = (-1,) + (1,) * (table.ndim - 1)
    out = wts[0].reshape(bcast) * table[idx[0]]
    for i, w in zip(idx[1:], wts[1:]):
        out += w.reshape(bcast) * table[i]
    return out


def gather_gated(
    f_pv: np.ndarray,
    depth_volume: np.ndarray,
    occupancy: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    b: np.ndarray,
    valid: np.ndarray,
) -> np.ndarray:
    """The two gated feature halves of the sampling VT at N projected points.

    ``f_pv`` (C, H, W) is read bilinearly at (u, v), ``depth_volume``
    (D, H, W) trilinearly at (u, v, b) and each feature is multiplied once by
    that depth likelihood and once by the point's ``occupancy``; the result
    is (2, C, N). Points not ``valid`` or without an in-image bilinear
    corner are zero, and corners outside either map read zero.
    """
    c, h, w = f_pv.shape
    out = np.zeros((2, c, u.shape[0]), dtype=np.float64)
    sel = np.flatnonzero(valid & (u >= -1) & (u < w) & (v >= -1) & (v < h))
    u, v, b = u[sel], v[sel], b[sel]
    features = np.zeros((h * w + 1, c), dtype=np.float64)
    features[:-1] = f_pv.reshape(c, h * w).T
    f3d = _interpolate(features, _corners((v, u), (h, w)))
    depths = np.append(depth_volume.reshape(-1), 0.0)
    d3d = _interpolate(depths, _corners((b, v, u), depth_volume.shape))
    out[0, :, sel] = f3d * d3d[:, None]
    out[1, :, sel] = f3d * occupancy[sel, None]
    return out


def depth_to_bin_coordinate(depth: np.ndarray, spec: DepthBinSpec) -> np.ndarray:
    """Continuous bin coordinate with bin midpoints on integer positions."""
    return (np.asarray(depth, dtype=np.float64) - spec.d_min) / spec.bin_width - 0.5


def build_sample_volume(
    f_pv: np.ndarray,
    depth_volume: np.ndarray,
    bins: DepthBinSpec,
    stride: int,
    occupancy: np.ndarray,
    grid: VoxelGridSpec,
    intrinsics: CameraIntrinsics,
    world_to_camera: RigidTransform,
) -> np.ndarray:
    """Pre-convolution sampled volume of the view transformation.

    For every voxel the image feature is gated by the sampled depth
    likelihood and, separately, by the voxel's occupancy; the two C-channel
    volumes are concatenated and folded to a (2*C*Z, Y, X) map. Voxels behind
    the camera or sampling fully outside the image contribute zeros.
    """
    f_pv = np.asarray(f_pv, dtype=np.float64)
    if f_pv.ndim != 3:
        raise ShapeError(f"feature map must be (C, H, W), got shape {f_pv.shape}")
    depth_volume = np.asarray(depth_volume, dtype=np.float64)
    if depth_volume.shape != (bins.num_bins, *f_pv.shape[1:]):
        raise ShapeError(
            f"depth volume shape {depth_volume.shape} != (bins, H, W) "
            f"{(bins.num_bins, *f_pv.shape[1:])} of the feature map"
        )
    nz, ny, nx = grid.counts
    occupancy = np.asarray(occupancy, dtype=np.float64)
    if occupancy.shape != (nz, ny, nx):
        raise ShapeError(f"occupancy shape {occupancy.shape} != grid counts {(nz, ny, nx)}")
    u, v, depth, valid = project_voxel_centers(grid, intrinsics, world_to_camera, stride)
    b = depth_to_bin_coordinate(depth, bins)
    vol = gather_gated(f_pv, depth_volume, occupancy.reshape(-1), u, v, b, valid)
    return vol.reshape(2 * f_pv.shape[0] * nz, ny, nx)


def sample_vt(
    f_pv: np.ndarray,
    d_map: DepthDistributionMap,
    occupancy: OccupancyGrid,
    grid: VoxelGridSpec,
    intrinsics: CameraIntrinsics,
    world_to_camera: RigidTransform,
    params: VTParams,
) -> np.ndarray:
    """Occupancy-assisted depth-based sampling view transformation.

    Returns the (C, Y, X) BEV feature map produced by running the sampled
    volume through the three-convolution mixing stack.
    """
    vol = build_sample_volume(
        f_pv, d_map.data, d_map.spec, d_map.stride, occupancy.data,
        grid, intrinsics, world_to_camera,
    )
    out = vol
    for conv in params.post_convs:
        out = conv2d(out, conv)
    return out


def vt_params_from_manifest(manifest: dict, root: str | Path) -> VTParams:
    """Load view-transformation parameters from a JSON manifest of LXLT files."""
    params = lxlt.manifest_params(manifest)
    return VTParams(
        occupancy_conv=lxlt.read_conv(params["occupancy_conv"], root, "occupancy_conv"),
        depth_conv=lxlt.read_conv(params["depth_conv"], root, "depth_conv"),
        embedding=lxlt.read_linear(params["embedding"], root, "embedding"),
        post_convs=tuple(
            lxlt.read_conv(entry, root, f"post_convs[{i}]")
            for i, entry in enumerate(params["post_convs"])
        ),
        use_extrinsics_embedding=bool(params.get("use_extrinsics_embedding", False)),
    )

