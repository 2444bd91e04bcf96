"""Occupancy grids, intrinsics-embedded depth distributions, and the
occupancy-assisted depth-based sampling view transformation.

The view transformation lifts perspective-view image features to a
bird's-eye-view map: every voxel center is projected into the image, its
image feature is read bilinearly, its depth likelihood trilinearly from the
depth distribution volume, and the feature is gated once by the depth
likelihood and once by the radar occupancy. The two gated volumes are
concatenated on channels, folded over height and mixed by a conv stack.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import CameraIntrinsics, RigidTransform, project_points, scale_intrinsics
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
        for name, (lo, hi, count) in (("x", self.x), ("y", self.y), ("z", self.z)):
            if count < 1:
                raise ValueError(f"{name} axis needs at least one voxel, got {count}")
            if not lo < hi:
                raise ValueError(f"{name} axis extent must satisfy min < max, got [{lo}, {hi}]")

    @classmethod
    def from_dict(cls, data: dict) -> "VoxelGridSpec":
        def axis(name: str) -> tuple[float, float, int]:
            raw = data[name]
            return float(raw[0]), float(raw[1]), int(raw[2])

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


def _bilinear_gather(fmap: np.ndarray, u: np.ndarray, v: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Vectorized zero-padded bilinear read of (C, H, W) at many (u, v)."""
    c, h, w = fmap.shape
    x0 = np.floor(u).astype(np.intp)
    y0 = np.floor(v).astype(np.intp)
    fu = u - x0
    fv = v - y0
    out = np.zeros((c, u.shape[0]), dtype=np.float64)
    for dx, dy, wt in (
        (0, 0, (1.0 - fu) * (1.0 - fv)),
        (1, 0, fu * (1.0 - fv)),
        (0, 1, (1.0 - fu) * fv),
        (1, 1, fu * fv),
    ):
        xi = x0 + dx
        yi = y0 + dy
        m = valid & (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        if np.any(m):
            out[:, m] += wt[m] * fmap[:, yi[m], xi[m]]
    return out


def _trilinear_gather(
    volume: np.ndarray, u: np.ndarray, v: np.ndarray, b: np.ndarray, valid: np.ndarray
) -> np.ndarray:
    """Vectorized zero-padded trilinear read of (D, H, W) at many (u, v, b)."""
    d, h, w = volume.shape
    x0 = np.floor(u).astype(np.intp)
    y0 = np.floor(v).astype(np.intp)
    z0 = np.floor(b).astype(np.intp)
    fu = u - x0
    fv = v - y0
    fb = b - z0
    out = np.zeros(u.shape[0], dtype=np.float64)
    for dz in (0, 1):
        wz = fb if dz else (1.0 - fb)
        for dy in (0, 1):
            wy = fv if dy else (1.0 - fv)
            for dx in (0, 1):
                wx = fu if dx else (1.0 - fu)
                xi = x0 + dx
                yi = y0 + dy
                zi = z0 + dz
                m = valid & (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h) & (zi >= 0) & (zi < d)
                if np.any(m):
                    out[m] += (wz * wy * wx)[m] * volume[zi[m], yi[m], xi[m]]
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
    nz, ny, nx = grid.counts
    occupancy = np.asarray(occupancy, dtype=np.float64)
    if occupancy.shape != (nz, ny, nx):
        raise ShapeError(f"occupancy shape {occupancy.shape} != grid counts {(nz, ny, nx)}")
    u, v, depth, valid = project_voxel_centers(grid, intrinsics, world_to_camera, stride)
    f3d = _bilinear_gather(f_pv, u, v, valid)
    b = depth_to_bin_coordinate(depth, bins)
    d3d = _trilinear_gather(depth_volume, u, v, b, valid)
    occ = occupancy.reshape(-1)
    c = f_pv.shape[0]
    vol = np.concatenate([f3d * d3d, f3d * occ], axis=0)
    return vol.reshape(2 * c, nz, ny, nx).reshape(2 * c * nz, ny, nx)


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


def load_grid_spec(data: dict | str | Path) -> VoxelGridSpec:
    """Accept a grid spec as a dict or a path to its JSON file."""
    if isinstance(data, (str, Path)):
        with open(data) as fh:
            data = json.load(fh)
    return VoxelGridSpec.from_dict(data)
