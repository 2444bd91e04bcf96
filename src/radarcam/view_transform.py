"""Radar occupancy, intrinsics-embedded depth distributions, and the
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
largest size. Every other cell of the volume is zero, so the volume is never
built whole: every voxel of the M cells that hold a frustum voxel is
gathered, cell-major then height, and the gather's output is then the first
conv's (M, Z*2*C) GEMM rows in (z, half, c) order, with no copy or scatter.
A voxel of such a cell outside the frustum reads no map and samples exact
zeros. The first conv's input channels are permuted once to the rows'
order, and as the conv is linear it runs on those rows alone as a sparse
convolution (arXiv 1711.10275): a GEMM gives every kernel tap's products
at the cells, and each tap adds them into an accumulator of padded
positions with a margin, at the cells' positions less a constant shift:
one fancy-indexed add per tap and chunk. The accumulator is cropped, and
the bias comes last. An output that reads no sampled cell is exactly the
bias. The other convs run densely.

The frustum streams through the first conv in chunks of
``max(1, GATHER_CHUNK // Z)`` cells, in ascending cell order: each chunk's
rows are gathered, multiplied by one GEMM and added into the one
accumulator, so neither the (M, Z*2*C) rows nor the (taps*C_out, M)
products ever exist whole (the memory-bounded lowering of MEC, arXiv
1706.06873). The adds into each accumulator element keep their order: an
output's tap (ky, kx) reads the cell at offset (ky - kh // 2, kx - kw // 2),
so taps in row-major order read cells in ascending order, and a later tap's
cell is never in an earlier chunk.

Sampling uses :mod:`radarcam.geometry`'s pixel convention: the center of
feature cell (row i, col j), where the depth targets put it, sits at
continuous coordinate (u=j, v=i), depth bin k's midpoint at bin coordinate
k, and corners outside a map read as zero. Both reads go through one
n-linear corner builder: flat corner indices into the raveled map and
per-corner weights. A corner outside the map reads cell 0 in its place, and
the value it reads is set to 0.0, so neither map is padded with a zero
cell: the features are read from one (H*W, C) table and the depth volume
in place, never copied.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from .geometry import CameraIntrinsics, RigidTransform, check_stride, project_points, sampler_coordinate, scale_intrinsics
from .depth_supervision import DepthBinSpec, validate_depth_volume
from .tensor_ops import CONV_BAND_BYTES, Conv2DParams, LinearParams, ShapeError, conv2d, sigmoid, softmax

# Voxels gathered per chunk of frustum cells, so that the gather's
# temporaries stay in cache and the first conv's input never exists whole.
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
class DepthDistributionMap:
    """Per-pixel depth distribution (D, H, W) at a given feature stride."""

    data: np.ndarray
    spec: DepthBinSpec
    stride: int

    def __post_init__(self):
        check_stride(self.stride)
        object.__setattr__(self, "data", validate_depth_volume(self.data, self.spec.num_bins))


@dataclass(frozen=True)
class VTParams:
    """Learnable-weight holders for the view transformation, loaded not trained.
    Every layer width that does not depend on the input is checked here, once."""

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
        if self.embedding.out_features != self.depth_conv.in_channels:
            raise ShapeError(
                f"embedding yields {self.embedding.out_features} channel scales, "
                f"depth_conv takes {self.depth_conv.in_channels} channels"
            )
        if len(self.post_convs) != 3:
            raise ShapeError("the post-transform stack must hold exactly three convolutions")
        for i, (prev, conv) in enumerate(zip(self.post_convs, self.post_convs[1:])):
            if conv.in_channels != prev.out_channels:
                raise ShapeError(
                    f"post_convs[{i + 1}] takes {conv.in_channels} channels, post_convs[{i}] gives {prev.out_channels}"
                )
        object.__setattr__(self, "post_convs", tuple(self.post_convs))


def occupancy_from_bev(f_bev_radar: np.ndarray, params: VTParams) -> np.ndarray:
    """Per-voxel occupancy from radar BEV features: the sigmoid of a 1x1 conv, one
    output channel per height, as the (Z, Y, X) float64 array :func:`sample_cells` checks."""
    return sigmoid(conv2d(f_bev_radar, params.occupancy_conv))


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
    to depth logits by a 1x1 conv, and normalized by softmax over bins. The
    conv is linear, so the channel scales go into its weights, not into a
    scaled copy of the features. ``f_pv`` (C, H, W) must have the conv's
    input width, which :func:`conv2d` checks.
    """
    embedding, conv = params.embedding, params.depth_conv
    scale = embedding.weights @ intrinsics.inverse_matrix().reshape(-1) + embedding.bias
    logits = conv2d(f_pv, replace(conv, weights=conv.weights * scale[:, None, None]))
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
    coordinates are the samplers' at ``stride`` (``geometry.sampler_coordinate``).
    """
    cam = world_to_camera.apply_many(voxel_centers(grid).reshape(3, -1).T)
    u, v, depth, valid = project_points(cam, scale_intrinsics(intrinsics, stride))
    return sampler_coordinate(u), sampler_coordinate(v), depth, valid


def _corners(coords: tuple[np.ndarray, ...], shape: tuple[int, ...]) -> tuple[list, list, list]:
    """Flat corner indices, weights and off-map masks of n-linear interpolation.

    ``coords`` holds one coordinate array per axis of ``shape``, leading axis
    first, with cell centers on integers. Returns one (index, weight, off)
    array triple per corner, corners ordered with the last axis varying
    fastest. Indices address the raveled map; a corner outside the map is
    marked ``off`` and its index set to 0, so that it reads a real cell,
    whose value the reader then sets to 0.0. Each weight is the product of
    its per-axis factors, leading axis to trailing.
    """
    idx = [np.zeros(coords[0].shape, dtype=np.intp)]
    wts = [None]
    off = [np.zeros(coords[0].shape, dtype=bool)]
    for coord, n in zip(coords, shape):
        lo = np.floor(coord)
        frac = coord - lo
        lo = lo.astype(np.intp)
        factors = ((lo, 1.0 - frac), (lo + 1, frac))
        idx = [i * n + c for i in idx for c, _ in factors]
        wts = [f if w is None else w * f for w in wts for _, f in factors]
        off = [o | (c < 0) | (c >= n) for o in off for c, _ in factors]
    return [np.where(o, 0, i) for i, o in zip(idx, off)], wts, off


def _interpolate(table: np.ndarray, corners: tuple[list, list, list]) -> np.ndarray:
    """Weighted sum of ``table`` rows over the corners, in corner order; an
    off-map corner's row reads as 0.0."""
    bcast = (-1,) + (1,) * (table.ndim - 1)
    out = None
    for i, w, o in zip(*corners):
        rows = np.take(table, i, axis=0)
        rows[o] = 0.0
        rows *= w.reshape(bcast)
        if out is None:
            out = rows
        else:
            out += rows
    return out


def gather_gated(f_pv: np.ndarray, depth_volume: np.ndarray):
    """The sampler of the two gated feature halves of the sampling VT.

    Builds the (H*W, C) lookup table of ``f_pv`` (C, H, W) once, reads
    ``depth_volume`` (D, H, W) in place and returns ``gather(occupancy, u,
    v, b)``, which at N projected points reads ``f_pv`` bilinearly at (u,
    v), ``depth_volume`` trilinearly at (u, v, b), and multiplies each
    feature once by that depth likelihood and once by the point's
    ``occupancy``; its result is (N, 2, C), the depth-gated half first.
    Corners outside either map read zero; coordinates must be finite.
    """
    c, h, w = f_pv.shape
    features = np.ascontiguousarray(f_pv.reshape(c, h * w).T)
    depths = depth_volume.reshape(-1)  # a view of a C-contiguous volume

    def gather(occupancy: np.ndarray, u: np.ndarray, v: np.ndarray, b: np.ndarray) -> np.ndarray:
        f3d = _interpolate(features, _corners((v, u), (h, w)))
        d3d = _interpolate(depths, _corners((b, v, u), depth_volume.shape))
        out = np.empty((u.shape[0], 2, c), dtype=np.float64)
        np.multiply(f3d, d3d[:, None], out=out[:, 0])
        np.multiply(f3d, occupancy[:, None], out=out[:, 1])
        return out

    return gather


def depth_to_bin_coordinate(depth: np.ndarray, spec: DepthBinSpec) -> np.ndarray:
    """Continuous bin coordinate with bin midpoints on integer positions."""
    return (np.asarray(depth, dtype=np.float64) - spec.d_min) / spec.bin_width - 0.5


def sample_cells(
    f_pv: np.ndarray,
    depth_volume: np.ndarray,
    bins: DepthBinSpec,
    stride: int,
    occupancy: np.ndarray,
    grid: VoxelGridSpec,
    intrinsics: CameraIntrinsics,
    world_to_camera: RigidTransform,
    in_channels: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The sampled volume at the BEV cells that hold a sampled voxel, in
    chunks of ``max(1, GATHER_CHUNK // Z)`` cells.

    Yields (cells, rows) chunks: raveled (Y, X) cell indices, ascending
    within and across chunks, and their (m, Z*2*C) rows in (z, half, c)
    order: each height's depth-gated then occupancy-gated features. Every
    voxel of a chunk's cells is gathered, cell-major then height, so the
    gather's (m*Z, 2, C) output is the rows with no copy; a voxel outside
    the frustum reads every corner off both maps and so samples exact zeros.
    Every other cell of the volume is zero, and a frustum that misses the
    grid yields no chunk. A chunk's rows are gathered when it is asked for.
    The (Z, Y, X) ``occupancy`` must lie in [0, 1] (NaN fails), and
    ``in_channels``, the first conv's input width, must be 2*C*Z; both are
    checked, and the voxels projected, when ``sample_cells`` is called.
    """
    f_pv = np.asarray(f_pv, dtype=np.float64)
    if f_pv.ndim != 3:
        raise ShapeError(f"feature map must be (C, H, W), got shape {f_pv.shape}")
    depth_volume = np.asarray(depth_volume, dtype=np.float64)
    c, h, w = f_pv.shape
    if depth_volume.shape != (bins.num_bins, h, w):
        raise ShapeError(f"depth volume shape {depth_volume.shape} != (bins, H, W) {(bins.num_bins, h, w)}")
    nz, ny, nx = grid.counts
    occupancy = np.asarray(occupancy, dtype=np.float64)
    if occupancy.shape != (nz, ny, nx):
        raise ShapeError(f"occupancy shape {occupancy.shape} != grid counts {(nz, ny, nx)}")
    if occupancy.size and not (occupancy.min() >= 0.0 and occupancy.max() <= 1.0):
        raise ValueError("occupancy values must lie in [0, 1]")
    if in_channels != 2 * c * nz:
        raise ShapeError(f"sampled volume has {2 * c * nz} channels, weights expect {in_channels}")
    u, v, depth, valid = project_voxel_centers(grid, intrinsics, world_to_camera, stride)
    # depth is a view of the camera-frame points; converting it here frees them
    b = depth_to_bin_coordinate(depth, bins)
    del depth
    # voxels in front of the camera with at least one in-image bilinear corner
    inside = valid & (u >= -1) & (u < w) & (v >= -1) & (v < h)
    cells = np.flatnonzero(inside.reshape(nz, ny * nx).any(axis=0))
    gather = gather_gated(f_pv, depth_volume)
    occupancy = occupancy.reshape(-1)
    heights = np.arange(nz) * (ny * nx)
    per_chunk = max(1, GATHER_CHUNK // nz)

    def chunks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for start in range(0, cells.size, per_chunk):
            part = cells[start : start + per_chunk]
            # every voxel of those cells, by cell, then height
            voxel = (part[:, None] + heights).reshape(-1)
            keep = inside[voxel]
            # -2 puts both corners of every axis off the maps, so no coordinate
            # of a voxel behind the camera or at an infinite pixel reaches the gather
            pu, pv = np.where(keep, u[voxel], -2.0), np.where(keep, v[voxel], -2.0)
            pb = np.where(keep, b[voxel], -2.0)
            occ = np.where(keep, occupancy[voxel], 0.0)
            # unnamed here, so a chunk's rows live only as long as the caller keeps them
            yield part, gather(occ, pu, pv, pb).reshape(part.size, nz * 2 * c)

    return chunks()


def conv2d_cells(
    chunks: Iterable[tuple[np.ndarray, np.ndarray]], shape: tuple[int, int], conv: Conv2DParams
) -> np.ndarray:
    """:func:`conv2d` of a (C_in, Y, X) map that is zero off the cells of
    ``chunks``.

    Each chunk is (cells, rows): raveled (Y, X) indices, strictly increasing
    within and across chunks, and their (m, C_in) inputs. Chunks are read
    one at a time, and the accumulator is the only array that outlives one.
    A chunk's GEMM gives every kernel tap's (C_out, m) products, which are
    added into an accumulator of C_out values per position of the padded
    map, Wp positions a row, behind a margin of kh - 1 rows and kw - 1
    columns: the tap (ky, kx) of every cell lands at the cell's padded flat
    index minus ky * Wp + kx. Each tap, in row-major (ky, kx) order, adds the
    chunk's products by one fancy-indexed add at those distinct positions,
    with no mask. A product that falls off the left edge wraps into the kw -
    1 columns at the end of a row, which straddle two rows and are cropped,
    and one that falls above the top into the margin. An output's taps in
    row-major order read ascending cells, so each accumulator element
    receives its adds in tap order however the cells are chunked. The result
    is cropped and the bias added last, as in :func:`conv2d`, into a
    C-contiguous (C_out, Y, X) array one ``CONV_BAND_BYTES`` band of rows at
    a time; an output that reads no cell is therefore exactly the bias. The
    products come from a GEMM of another shape than :func:`conv2d`'s, so
    results agree with it to rounding, not bit for bit.
    """
    ny, nx = shape
    out_ch, in_ch, kh, kw = conv.weights.shape
    if ny < 1 or nx < 1:
        raise ShapeError(f"grid {ny}x{nx} is empty")
    pt, pb, pl, pr = conv.padding
    hp, wp = ny + pt + pb, nx + pl + pr
    taps = conv.weights.transpose(2, 3, 0, 1).reshape(kh * kw * out_ch, in_ch)
    margin = (kh - 1) * wp + kw - 1
    acc = np.zeros((margin + hp * wp, out_ch), dtype=np.float64)
    last = -1  # the previous chunk's last cell
    for cells, rows in chunks:
        cells = np.asarray(cells)
        if cells.ndim != 1 or not np.issubdtype(cells.dtype, np.integer):
            raise ShapeError(f"cells must be a 1D integer array, got {cells.dtype} of shape {cells.shape}")
        if cells.size and (cells.min() < 0 or cells.max() >= ny * nx):
            raise ShapeError(f"cells {cells.min()}..{cells.max()} outside [0, {ny * nx}) of the {ny}x{nx} grid")
        if np.any(np.diff(cells, prepend=last) <= 0):
            raise ShapeError("cells must be strictly increasing")
        if rows.shape != (cells.size, in_ch):
            raise ShapeError(f"rows shape {rows.shape} != (cells, in_channels) {(cells.size, in_ch)}")
        if not cells.size:
            continue
        last = cells[-1]
        products = (taps @ rows.T).T
        dest = cells + (cells // nx) * (pl + pr) + (margin + pt * wp + pl)
        for tap, shift in enumerate(ky * wp + kx for ky in range(kh) for kx in range(kw)):
            acc[dest - shift] += products[:, tap * out_ch : (tap + 1) * out_ch]
        del rows, products  # freed before the next chunk is gathered
    crop = acc[margin : margin + ny * wp].reshape(ny, wp, out_ch)[:, :nx].transpose(2, 0, 1)
    out, band = np.empty(crop.shape), max(1, CONV_BAND_BYTES // (8 * out_ch * nx))
    for y in range(0, ny, band):  # a transposing add over the whole map runs out of cache
        np.add(crop[:, y : y + band], conv.bias[:, None, None], out=out[:, y : y + band])
    return out


def sample_vt(
    f_pv: np.ndarray,
    d_map: DepthDistributionMap,
    occupancy: np.ndarray,
    grid: VoxelGridSpec,
    intrinsics: CameraIntrinsics,
    world_to_camera: RigidTransform,
    params: VTParams,
) -> np.ndarray:
    """Occupancy-assisted depth-based sampling view transformation.

    ``occupancy`` is :func:`occupancy_from_bev`'s array. Returns the (C, Y,
    X) BEV feature map produced by running the sampled volume through the
    three-convolution mixing stack; the first conv reads the sampled cells
    alone, one chunk of :func:`sample_cells` at a time, its input channels
    permuted from the volume's (half, c, z) order to the rows' (z, half, c)
    order.
    """
    first, *rest = params.post_convs
    chunks = sample_cells(
        f_pv, d_map.data, d_map.spec, d_map.stride, occupancy,
        grid, intrinsics, world_to_camera, first.in_channels,
    )
    nz, ny, nx = grid.counts
    out_ch, _, kh, kw = first.weights.shape
    weights = first.weights.reshape(out_ch, 2, -1, nz, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    first = replace(first, weights=weights.reshape(first.weights.shape))
    out = conv2d_cells(chunks, (ny, nx), first)
    for conv in rest:
        out = conv2d(out, conv)
    return out
