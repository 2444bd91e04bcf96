"""Occupancy grids, intrinsics-embedded depth distributions, and the
occupancy-assisted depth-based sampling view transformation.

The view transformation lifts perspective-view image features to a
bird's-eye-view map: every voxel center is projected into the image, its
image feature is read bilinearly, its depth likelihood trilinearly from the
depth distribution volume, and the feature is gated once by the depth
likelihood and once by the radar occupancy. The two gated volumes are
concatenated on channels, folded over height into a (2*C*Z, Y, X) volume and
mixed by a conv stack.

Only voxels in front of the camera with an in-image bilinear corner sample
anything: the camera frustum, about 42% of the BEV cells at the benchmark's
largest size. Every other cell of the volume is zero, and every output of the
first conv whose receptive field holds only such cells equals its bias. So
the volume is never built whole. Its rows are split into bands of
``BAND_ROWS`` first-conv output rows; each band is cropped to the outputs
that read a sampled cell and holds the window of the volume those outputs
read, halo for the conv's padding included. The layout is derived per call
from the sampled cells and from the first conv's kernel, padding and stride.
Each frustum voxel is sampled once, and its gated rows are written into
every window that holds it. The windows are views into one zeroed buffer,
channels last in memory. The first conv runs on each window with no
padding; the rest of its output is its bias.

Sampling uses the pixel-center convention: the center of pixel (row i,
col j) sits at continuous coordinate (u=j, v=i), depth bin k's midpoint at
bin coordinate k, and corners outside a map read as zero. Both reads go
through one n-linear corner builder: flat corner indices into the raveled
map plus one trailing zero cell, and per-corner weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .geometry import CameraIntrinsics, RigidTransform, project_points, scale_intrinsics
from .geometry import json_list, json_number, json_object
from .depth_supervision import DepthBinSpec, validate_depth_volume
from . import lxlt
from .tensor_ops import Conv2DParams, LinearParams, ShapeError, conv2d, linear, sigmoid, softmax

# Output rows of the first post-transform conv per band.
BAND_ROWS = 8
# Voxels sampled per call, so that the gather's temporaries stay in cache.
GATHER_CHUNK = 8192


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
        """The grid from a JSON object mapping each axis to ``[min, max, count]``."""
        data = json_object(data, "grid")

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

    def __post_init__(self):
        if self.embedding.in_features != 9:
            raise ShapeError(
                f"embedding expects {self.embedding.in_features} inputs, "
                "needs 9 (the flattened inverse intrinsic matrix)"
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
) -> DepthDistributionMap:
    """Estimate per-pixel depth distributions with an intrinsics embedding.

    ``intrinsics`` must already be rescaled to the feature stride. The
    flattened (row-major) inverse intrinsic matrix is embedded by a linear
    layer into one scale per channel, features are gated channelwise, reduced
    to depth logits by a 1x1 conv, and normalized by softmax over bins.
    """
    f_pv = np.asarray(f_pv, dtype=np.float64)
    if f_pv.ndim != 3:
        raise ShapeError(f"feature map must be (C, H, W), got shape {f_pv.shape}")
    scale = linear(intrinsics.inverse_matrix().reshape(-1), params.embedding)
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
) -> np.ndarray:
    """The two gated feature halves of the sampling VT at N projected points.

    ``f_pv`` (C, H, W) is read bilinearly at (u, v), ``depth_volume``
    (D, H, W) trilinearly at (u, v, b), and each feature is multiplied once
    by that depth likelihood and once by the point's ``occupancy``; the
    result is (N, 2, C), the depth-gated half first. Corners outside either
    map read zero; coordinates must be finite. Points are sampled
    ``GATHER_CHUNK`` at a time.
    """
    c, h, w = f_pv.shape
    features = np.zeros((h * w + 1, c), dtype=np.float64)
    features[:-1] = f_pv.reshape(c, h * w).T
    depths = np.append(depth_volume.reshape(-1), 0.0)
    out = np.empty((u.shape[0], 2, c), dtype=np.float64)
    for start in range(0, u.shape[0], GATHER_CHUNK):
        part = slice(start, start + GATHER_CHUNK)
        f3d = _interpolate(features, _corners((v[part], u[part]), (h, w)))
        d3d = _interpolate(depths, _corners((b[part], v[part], u[part]), depth_volume.shape))
        np.multiply(f3d, d3d[:, None], out=out[part, 0])
        np.multiply(f3d, occupancy[part, None], out=out[part, 1])
    return out


def depth_to_bin_coordinate(depth: np.ndarray, spec: DepthBinSpec) -> np.ndarray:
    """Continuous bin coordinate with bin midpoints on integer positions."""
    return (np.asarray(depth, dtype=np.float64) - spec.d_min) / spec.bin_width - 0.5


class Band(NamedTuple):
    """One window of the first conv's input and the outputs it computes.

    Each pair is a [start, stop) range. ``rows`` and ``cols`` are grid rows
    and columns; they reach past the grid by the conv's padding, where the
    window holds zeros. ``out_rows`` and ``out_cols`` index the first conv's
    output, which the window yields under the conv with no padding.
    """

    rows: tuple[int, int]
    cols: tuple[int, int]
    out_rows: tuple[int, int]
    out_cols: tuple[int, int]


@dataclass(frozen=True)
class BandLayout:
    """The first conv's output extent and the bands that cover every output
    with a sampled cell in its receptive field; all others equal the bias."""

    out_shape: tuple[int, int]
    bands: tuple[Band, ...]


def band_layout(active: np.ndarray, conv: Conv2DParams) -> BandLayout:
    """Bands of ``BAND_ROWS`` output rows of ``conv`` over a (Y, X) map whose
    non-``active`` cells are zero.

    Each band is cropped to the first and last row and column of its
    outputs that read an active cell, and holds the input window those
    outputs read; a band without one is dropped.
    """
    _, _, kh, kw = conv.weights.shape
    pt, pb, pl, pr = conv.padding
    s = conv.stride
    padded = np.pad(active, ((pt, pb), (pl, pr)))
    hp, wp = padded.shape
    if hp < kh or wp < kw:
        raise ShapeError(f"padded input {hp}x{wp} smaller than kernel {kh}x{kw}")
    # active cells in each output's receptive field, from a summed-area table
    table = np.zeros((hp + 1, wp + 1), dtype=np.intp)
    table[1:, 1:] = padded.cumsum(axis=0).cumsum(axis=1)
    top, left = np.arange(0, hp - kh + 1, s), np.arange(0, wp - kw + 1, s)
    bottom, right = top + kh, left + kw
    reads = (
        table[bottom[:, None], right] - table[top[:, None], right]
        - table[bottom[:, None], left] + table[top[:, None], left]
    ) > 0
    bands = []
    for first in range(0, reads.shape[0], BAND_ROWS):
        block = reads[first : first + BAND_ROWS]
        rows, cols = np.flatnonzero(block.any(axis=1)), np.flatnonzero(block.any(axis=0))
        if rows.size == 0:
            continue
        r0, r1 = first + int(rows[0]), first + int(rows[-1]) + 1
        c0, c1 = int(cols[0]), int(cols[-1]) + 1
        window = ((r0 * s - pt, (r1 - 1) * s - pt + kh), (c0 * s - pl, (c1 - 1) * s - pl + kw))
        bands.append(Band(*window, (r0, r1), (c0, c1)))
    return BandLayout(reads.shape, tuple(bands))


def sample_bands(
    f_pv: np.ndarray,
    depth_volume: np.ndarray,
    bins: DepthBinSpec,
    stride: int,
    occupancy: np.ndarray,
    grid: VoxelGridSpec,
    intrinsics: CameraIntrinsics,
    world_to_camera: RigidTransform,
    conv: Conv2DParams,
) -> tuple[BandLayout, list[np.ndarray]]:
    """The sampled volume as the windows of ``conv``'s band layout.

    Returns the layout and one (2*C*Z, rows, cols) window per band: the
    window of the (2*C*Z, Y, X) sampled volume (depth-gated half first,
    channel c's Z heights together), zero past the grid. Every window is a
    view into one zeroed buffer.
    """
    f_pv = np.asarray(f_pv, dtype=np.float64)
    if f_pv.ndim != 3:
        raise ShapeError(f"feature map must be (C, H, W), got shape {f_pv.shape}")
    depth_volume = np.asarray(depth_volume, dtype=np.float64)
    c, h, w = f_pv.shape
    if depth_volume.shape != (bins.num_bins, h, w):
        raise ShapeError(
            f"depth volume shape {depth_volume.shape} != (bins, H, W) "
            f"{(bins.num_bins, h, w)} of the feature map"
        )
    nz, ny, nx = grid.counts
    occupancy = np.asarray(occupancy, dtype=np.float64)
    if occupancy.shape != (nz, ny, nx):
        raise ShapeError(f"occupancy shape {occupancy.shape} != grid counts {(nz, ny, nx)}")
    if conv.in_channels != 2 * c * nz:
        raise ShapeError(f"sampled volume has {2 * c * nz} channels, weights expect {conv.in_channels}")
    u, v, depth, valid = project_voxel_centers(grid, intrinsics, world_to_camera, stride)
    # voxels in front of the camera with at least one in-image bilinear corner
    inside = valid & (u >= -1) & (u < w) & (v >= -1) & (v < h)
    layout = band_layout(inside.reshape(nz, ny, nx).any(axis=0), conv)
    # the sampled voxels by BEV cell, then height: each band's voxels are a run
    cell, z = np.nonzero(inside.reshape(nz, ny * nx).T)
    voxel = z * (ny * nx) + cell
    y, x = np.divmod(cell, nx)
    b = depth_to_bin_coordinate(depth[voxel], bins)
    rows = gather_gated(f_pv, depth_volume, occupancy.reshape(-1)[voxel], u[voxel], v[voxel], b)
    sizes = [2 * c * nz * (y1 - y0) * (x1 - x0) for (y0, y1), (x0, x1), _, _ in layout.bands]
    buffer = np.zeros(sum(sizes), dtype=np.float64)
    windows = []
    for ((y0, y1), (x0, x1), _, _), flat in zip(layout.bands, np.split(buffer, np.cumsum(sizes)[:-1])):
        lo, hi = np.searchsorted(y, (y0, y1))
        pick = np.arange(lo, hi)[(x[lo:hi] >= x0) & (x[lo:hi] < x1)]
        cells = flat.reshape((y1 - y0) * (x1 - x0), 2, c, nz)
        cells[(y[pick] - y0) * (x1 - x0) + x[pick] - x0, :, :, z[pick]] = rows[pick]
        windows.append(flat.reshape(y1 - y0, x1 - x0, 2 * c * nz).transpose(2, 0, 1))
    return layout, windows


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
    volume through the three-convolution mixing stack; the first conv runs
    on the bands alone and its other outputs take its bias.
    """
    first, *rest = params.post_convs
    layout, windows = sample_bands(
        f_pv, d_map.data, d_map.spec, d_map.stride, occupancy.data,
        grid, intrinsics, world_to_camera, first,
    )
    out = np.empty((first.out_channels, *layout.out_shape), dtype=np.float64)
    out[:] = first.bias[:, None, None]
    unpadded = Conv2DParams(first.weights, first.bias, stride=first.stride)
    for band, window in zip(layout.bands, windows):
        out[:, slice(*band.out_rows), slice(*band.out_cols)] = conv2d(window, unpadded)
    for conv in rest:
        out = conv2d(out, conv)
    return out


def vt_params_from_manifest(manifest: dict, root: str | Path) -> VTParams:
    """Load view-transformation parameters from a JSON manifest of LXLT files."""
    params = lxlt.manifest_params(manifest)
    return VTParams(
        occupancy_conv=lxlt.read_conv(params.get("occupancy_conv"), root, "occupancy_conv"),
        depth_conv=lxlt.read_conv(params.get("depth_conv"), root, "depth_conv"),
        embedding=lxlt.read_linear(params.get("embedding"), root, "embedding"),
        post_convs=tuple(
            lxlt.read_conv(entry, root, f"post_convs[{i}]")
            for i, entry in enumerate(json_list(params.get("post_convs"), "post_convs"))
        ),
    )

