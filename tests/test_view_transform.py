"""Tests for occupancy, depth-distribution estimation and the sampling VT."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radarcam import view_transform
from radarcam.depth_supervision import DepthBinSpec
from radarcam.geometry import (
    BehindCameraError,
    CameraIntrinsics,
    RigidTransform,
    project_to_pixel,
    read_json,
    scale_intrinsics,
)
from radarcam.tensor_ops import Conv2DParams, LinearParams, ShapeError
from radarcam.view_transform import (
    DepthDistributionMap,
    VoxelGridSpec,
    VTParams,
    conv2d_cells,
    depth_distribution,
    depth_to_bin_coordinate,
    gather_gated,
    occupancy_from_bev,
    project_voxel_centers,
    sample_cells,
    sample_vt,
    voxel_centers,
)

from helpers import assert_same_bits, identity_conv, random_conv, random_vt_params, selection_conv, traced_peak
from oracles import (
    bilinear_sample,
    conv2d_cells_reference,
    conv2d_naive,
    sample_volume_reference,
    sample_vt_reference,
    trilinear_sample,
)

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=10.0, cy=6.0)


def make_params(c, z, d, radar_channels, rng=None):
    rng = rng or np.random.default_rng(0)
    return random_vt_params(rng, c, z, d, radar_channels)


class TestVoxelGrid:
    def test_single_cell_center(self):
        spec = VoxelGridSpec((0.0, 2.0, 1), (0.0, 2.0, 1), (0.0, 2.0, 1))
        centers = voxel_centers(spec)
        assert centers.shape == (3, 1, 1, 1)
        np.testing.assert_array_equal(centers[:, 0, 0, 0], [1.0, 1.0, 1.0])

    def test_two_cells_along_x(self):
        spec = VoxelGridSpec((0.0, 2.0, 2), (0.0, 1.0, 1), (0.0, 1.0, 1))
        centers = voxel_centers(spec)
        np.testing.assert_array_equal(centers[0, 0, 0, :], [0.5, 1.5])

    def test_centers_strictly_inside_extents(self):
        spec = VoxelGridSpec((-3.0, 7.0, 5), (2.0, 4.0, 3), (-1.0, 0.0, 4))
        centers = voxel_centers(spec)
        assert centers[0].min() > -3.0 and centers[0].max() < 7.0
        assert centers[1].min() > 2.0 and centers[1].max() < 4.0
        assert centers[2].min() > -1.0 and centers[2].max() < 0.0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            VoxelGridSpec((0.0, 2.0, 0), (0.0, 1.0, 1), (0.0, 1.0, 1))
        with pytest.raises(ValueError):
            VoxelGridSpec((2.0, 0.0, 2), (0.0, 1.0, 1), (0.0, 1.0, 1))

    def test_from_json(self):
        spec = read_json(VoxelGridSpec, {"x": [0, 8, 4], "y": [-2, 2, 2], "z": [0, 3, 3]}, "grid")
        assert spec.counts == (3, 2, 4)

    @pytest.mark.parametrize(
        "axes,message",
        [
            ({"x": (0.0, math.inf, 4)}, "x axis extent must be finite"),
            ({"y": (-math.inf, 2.0, 4)}, "y axis extent must be finite"),
            ({"z": (math.nan, 2.0, 4)}, "z axis extent must be finite"),
            ({"x": (0.0, 51.2, 8.7)}, "x axis count must be a whole number"),
            ({"z": (0.0, 2.0, math.inf)}, "z axis count must be a whole number"),
        ],
    )
    def test_non_finite_extents_and_fractional_counts_rejected(self, axes, message):
        spec = {"x": (0.0, 8.0, 4), "y": (-2.0, 2.0, 2), "z": (0.0, 3.0, 3), **axes}
        with pytest.raises(ValueError, match=message):
            VoxelGridSpec(**spec)

    @pytest.mark.parametrize(
        "axes,message",
        [
            ({"x": [0, 51.2, 8.7]}, r"^grid\.x\[2\] must be a whole number, got 8.7$"),
            ({"y": [0, "wide", 4]}, r"^grid\.y\[1\] must be a number, got 'wide'$"),
            ({"z": [0, 2, [3]]}, r"^grid\.z\[2\] must be a number, got \[3\]$"),
            ({"x": [0, 8]}, r"^grid\.x must be a JSON list of 3 items, got \[0, 8\]$"),
            ({"y": 5}, r"^grid\.y must be a JSON list, got 5$"),
        ],
    )
    def test_json_names_the_bad_axis(self, axes, message):
        data = {"x": [0, 8, 4], "y": [-2, 2, 2], "z": [0, 3, 3], **axes}
        with pytest.raises(ValueError, match=message):
            read_json(VoxelGridSpec, data, "grid")

    def test_whole_float_count_becomes_an_int(self):
        spec = VoxelGridSpec((0, 8, 4.0), (-2, 2, 2), (0, 3, 3))
        assert spec.x == (0.0, 8.0, 4) and isinstance(spec.x[2], int)


class TestOccupancy:
    def test_zero_params_give_half_everywhere(self):
        f_bev = np.random.default_rng(0).normal(size=(4, 3, 5))
        params = make_params(c=2, z=6, d=4, radar_channels=4)
        zero = VTParams(
            occupancy_conv=Conv2DParams(np.zeros((6, 4, 1, 1)), np.zeros(6)),
            depth_conv=params.depth_conv,
            embedding=params.embedding,
            post_convs=params.post_convs,
        )
        occupancy = occupancy_from_bev(f_bev, zero)
        assert isinstance(occupancy, np.ndarray) and occupancy.dtype == np.float64
        np.testing.assert_array_equal(occupancy, np.full((6, 3, 5), 0.5))

    def test_large_negative_bias_empties_the_grid(self):
        f_bev = np.zeros((4, 3, 5))
        params = make_params(c=2, z=6, d=4, radar_channels=4)
        empty = VTParams(
            occupancy_conv=Conv2DParams(np.zeros((6, 4, 1, 1)), np.full(6, -50.0)),
            depth_conv=params.depth_conv,
            embedding=params.embedding,
            post_convs=params.post_convs,
        )
        assert occupancy_from_bev(f_bev, empty).max() < 1e-20

    def test_random_input_stays_in_unit_interval(self):
        rng = np.random.default_rng(1)
        params = make_params(c=2, z=6, d=4, radar_channels=4, rng=rng)
        occupancy = occupancy_from_bev(rng.normal(size=(4, 5, 5)), params)
        assert occupancy.min() > 0.0 and occupancy.max() < 1.0

    def test_sample_vt_refuses_occupancy_above_one(self):
        f_pv, d_map, _, grid, w2c, params = small_instance(0, grid_counts=(1, 1, 1))
        with pytest.raises(ValueError, match=r"^occupancy values must lie in \[0, 1\]$"):
            sample_vt(f_pv, d_map, np.full((1, 1, 1), 1.5), grid, K, w2c, params)

    def test_sample_vt_refuses_nan_occupancy(self):
        f_pv, d_map, _, grid, w2c, params = small_instance(0, grid_counts=(2, 2, 2))
        data = np.full((2, 2, 2), 0.5)
        data[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match=r"^occupancy values must lie in \[0, 1\]$"):
            sample_vt(f_pv, d_map, data, grid, K, w2c, params)


class TestDepthDistribution:
    BINS = DepthBinSpec(0.0, 40.0, 10)

    def test_unit_embedding_with_zero_conv_is_uniform(self):
        c, d = 3, 10
        f_pv = np.random.default_rng(0).normal(size=(c, 4, 6))
        params = VTParams(
            occupancy_conv=Conv2DParams(np.zeros((2, 2, 1, 1)), np.zeros(2)),
            depth_conv=Conv2DParams(np.zeros((d, c, 1, 1)), np.zeros(d)),
            embedding=LinearParams(np.zeros((c, 9)), np.ones(c)),
            post_convs=(identity_conv(1), identity_conv(1), identity_conv(1)),
        )
        d_map = depth_distribution(f_pv, K, params, self.BINS, stride=8)
        np.testing.assert_allclose(d_map.data, np.full((d, 4, 6), 0.1), atol=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_columns_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        c, d = int(rng.integers(2, 6)), int(rng.integers(2, 24))
        params = make_params(c=c, z=2, d=d, radar_channels=2, rng=rng)
        f_pv = rng.normal(size=(c, int(rng.integers(2, 7)), int(rng.integers(2, 7))))
        bins = DepthBinSpec(0.0, 40.0, d)
        d_map = depth_distribution(f_pv, K, params, bins, stride=8)
        sums = d_map.data.sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) < 1e-6

    def test_pyramid_levels_share_embedding_up_to_scale(self):
        # computed at two strides, the inverse intrinsic entries differ only
        # by the stride factor on the focal terms; the principal-ray terms
        # (-cx/fx, -cy/fy) and the unit corner are level-invariant, so both
        # pyramid levels feed the embedding consistent geometry
        k1 = scale_intrinsics(K, 1)
        k8 = scale_intrinsics(K, 8)
        flat1 = k1.inverse_matrix().reshape(-1)
        flat8 = k8.inverse_matrix().reshape(-1)
        focal = [0, 4]
        invariant = [1, 2, 3, 5, 6, 7, 8]
        np.testing.assert_allclose(flat8[focal], 8.0 * flat1[focal], rtol=1e-12)
        np.testing.assert_allclose(flat8[invariant], flat1[invariant], rtol=1e-12)
        assert flat8[8] == flat1[8] == 1.0

    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_scaled_copy_through_the_naive_conv(self, seed, kernel):
        """The embedding's scales folded into depth_conv's weights give what
        a scaled copy of the features through depth_conv gives."""
        rng = np.random.default_rng(seed)
        c, d = int(rng.integers(1, 6)), int(rng.integers(2, 12))
        params = make_params(c=c, z=2, d=d, radar_channels=2, rng=rng)
        params = dataclasses.replace(params, depth_conv=random_conv(rng, d, c, kernel))
        f_pv = rng.normal(size=(c, int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        bins = DepthBinSpec(0.0, 40.0, d)
        scale = params.embedding.weights @ K.inverse_matrix().reshape(-1) + params.embedding.bias
        conv = params.depth_conv
        logits = conv2d_naive(f_pv * scale[:, None, None], conv.weights, conv.bias, conv.padding)
        want = np.exp(logits - logits.max(axis=0))
        want /= want.sum(axis=0)
        got = depth_distribution(f_pv, K, params, bins, stride=8).data
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_one_channel_depth_conv_rejected(self):
        """A one-channel conv would take every channel's scale by
        broadcasting instead of failing."""
        params = make_params(c=3, z=2, d=6, radar_channels=2)
        with pytest.raises(ShapeError, match="embedding yields 3 channel scales, depth_conv takes 1 channels"):
            dataclasses.replace(params, depth_conv=Conv2DParams(np.ones((6, 1, 1, 1)), np.zeros(6)))

    def test_channel_mismatch_rejected(self):
        params = make_params(c=3, z=2, d=6, radar_channels=2)
        with pytest.raises(ShapeError):
            depth_distribution(
                np.zeros((5, 4, 4)), K, params, DepthBinSpec(0.0, 40.0, 6), stride=8
            )


def small_instance(seed, c=3, grid_counts=(2, 3, 4), hw=(6, 10), d=5, stride=8):
    rng = np.random.default_rng(seed)
    nz, ny, nx = grid_counts
    grid = VoxelGridSpec((-4.0, 4.0, nx), (-1.0, 1.0, ny), (4.0, 44.0, nz))
    # mild roll about the forward axis plus a small offset keeps all depths
    # positive while still exercising a non-trivial extrinsic transform
    ang = 0.15
    rot = np.array(
        [
            [np.cos(ang), -np.sin(ang), 0.0],
            [np.sin(ang), np.cos(ang), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    world_to_camera = RigidTransform(rot, np.array([0.3, -0.2, 0.5]))
    bins = DepthBinSpec(0.0, 48.0, d)
    f_pv = rng.normal(size=(c, hw[0], hw[1]))
    d_map = DepthDistributionMap(
        np.transpose(
            np.random.default_rng(seed + 1).dirichlet(np.ones(d), size=hw), (2, 0, 1)
        ),
        bins,
        stride,
    )
    occupancy = rng.uniform(0.0, 1.0, size=(nz, ny, nx))
    params = random_vt_params(rng, c, nz, d, radar_channels=2)
    return f_pv, d_map, occupancy, grid, world_to_camera, params


def frustum_instance(seed, counts=(2, 48, 20), yaw_deg=0.0, first=None, c=2, d=6):
    """A camera at the BEV origin looking along +x, as the benchmark's does.

    The grid reaches behind the camera and sideways past the frustum, so the
    frustum's wedge crosses the grid's near and far edges and leaves whole
    outer rows without a sampled cell. ``first`` replaces the first
    post-transform conv.
    """
    rng = np.random.default_rng(seed)
    nz, ny, nx = counts
    grid = VoxelGridSpec((-4.0, 20.0, nx), (-40.0, 40.0, ny), (-1.0, 1.0, nz))
    yaw = math.radians(yaw_deg)
    rot_z = np.array(
        [[math.cos(yaw), -math.sin(yaw), 0.0], [math.sin(yaw), math.cos(yaw), 0.0], [0.0, 0.0, 1.0]]
    )
    bev_to_camera = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    w2c = RigidTransform(bev_to_camera @ rot_z, np.array([0.0, 0.2, 0.0]))
    hw = (6, 10)
    intrinsics = CameraIntrinsics(fx=5.0, fy=5.0, cx=4.5, cy=2.5)
    bins = DepthBinSpec(0.0, 24.0, d)
    f_pv = rng.normal(size=(c, *hw))
    d_map = DepthDistributionMap(
        np.transpose(rng.dirichlet(np.ones(d), size=hw), (2, 0, 1)), bins, stride=1
    )
    occupancy = rng.uniform(size=counts)
    params = random_vt_params(rng, c, nz, d, radar_channels=2)
    if first is not None:
        params = VTParams(
            params.occupancy_conv, params.depth_conv, params.embedding,
            (first(rng, c, 2 * c * nz), *params.post_convs[1:]),
        )
    return f_pv, d_map, occupancy, grid, intrinsics, w2c, params


def conv_of(kh, kw):
    """A random first conv of kernel kh x kw."""

    def make(rng, out_ch, in_ch):
        weights = rng.normal(0.0, 0.5, size=(out_ch, in_ch, kh, kw))
        return Conv2DParams(weights, rng.normal(0.0, 0.1, size=out_ch))

    return make


def chunks_of(f_pv, d_map, occupancy, grid, intrinsics, w2c, params):
    """Every (cells, rows) chunk that :func:`sample_cells` yields."""
    return list(
        sample_cells(
            f_pv, d_map.data, d_map.spec, d_map.stride, occupancy, grid, intrinsics, w2c,
            params.post_convs[0].in_channels,
        )
    )


def joined(chunks, width):
    """(cells, rows) chunks joined into one cells array and one (M, width)
    rows array; no chunk joins to zero cells."""
    cells, rows = [np.empty(0, dtype=np.intp)], [np.empty((0, width))]
    for part, part_rows in chunks:
        cells.append(part)
        rows.append(part_rows)
    return np.concatenate(cells), np.concatenate(rows)


def cells_of(*args):
    """The frustum cells of an instance and their rows, all chunks joined."""
    return joined(chunks_of(*args), args[-1].post_convs[0].in_channels)


def halves(rows, nz):
    """The (M, Z, 2, C) view of (M, Z*2*C) rows: height, then gating half."""
    return rows.reshape(rows.shape[0], nz, 2, -1)


def assert_cells_equal_volume(cells, rows, volume, nz):
    """The rows equal ``volume``'s columns at ``cells`` bit for bit, once
    permuted from the volume's (half, c, z) channels to the rows' (z, half,
    c), and the volume is exactly zero at every other cell."""
    flat = volume.reshape(volume.shape[0], -1)
    assert np.all(np.diff(cells) > 0)
    want = flat[:, cells].T.reshape(cells.size, 2, -1, nz).transpose(0, 3, 1, 2)
    assert_same_bits(halves(rows, nz), want)
    assert not np.any(np.delete(flat, cells, axis=1))


def scaled_error(got, want):
    assert got.shape == want.shape
    return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))


class TestSampleVT:
    def test_single_voxel_hand_computation(self):
        c, d = 2, 4
        bins = DepthBinSpec(0.0, 40.0, d)
        grid = VoxelGridSpec((-0.5, 0.5, 1), (-0.5, 0.5, 1), (14.0, 16.0, 1))
        # voxel center (0, 0, 15) on the optical axis at the bin-1 midpoint
        k = CameraIntrinsics(fx=80.0, fy=80.0, cx=28.0, cy=20.0)
        stride = 8
        f_pv = np.random.default_rng(0).normal(size=(c, 4, 6))
        data = np.zeros((d, 4, 6))
        data[1] = 1.0  # one-hot at the bin containing depth 15
        d_map = DepthDistributionMap(data, bins, stride)
        occupancy = np.ones((1, 1, 1))
        params = VTParams(
            occupancy_conv=Conv2DParams(np.zeros((1, 1, 1, 1)), np.zeros(1)),
            depth_conv=Conv2DParams(np.zeros((d, c, 1, 1)), np.zeros(d)),
            embedding=LinearParams(np.zeros((c, 9)), np.ones(c)),
            post_convs=(
                selection_conv(2 * c, c, offset=0),  # keep the depth-gated half
                identity_conv(c),
                identity_conv(c),
            ),
        )
        out = sample_vt(f_pv, d_map, occupancy, grid, k, RigidTransform.identity(), params)
        # projection: u = 80 * 0 / 15 + 28 = 28 full-res, the centre of
        # cell 3 at stride 8, read at 28 / 8 - 0.5 = 3; v = 20 -> 2; bin
        # coordinate (15 - 0) / 10 - 0.5 = 1.0 exactly, so the voxel reads
        # pixel (3, 2) alone, gated by likelihood 1
        np.testing.assert_allclose(out[:, 0, 0], f_pv[:, 2, 3], atol=1e-12)
        # image point (24, 16) is the corner that cells 2 and 3 and rows 1
        # and 2 share: it reads their mean
        k = dataclasses.replace(k, cx=24.0, cy=16.0)
        out = sample_vt(f_pv, d_map, occupancy, grid, k, RigidTransform.identity(), params)
        np.testing.assert_allclose(out[:, 0, 0], f_pv[:, 1:3, 2:4].mean(axis=(1, 2)), atol=1e-12)

    def test_all_voxels_behind_camera_give_zero_volume(self):
        f_pv, d_map, occupancy, _, _, params = small_instance(0)
        grid = VoxelGridSpec((-1.0, 1.0, 4), (-1.0, 1.0, 3), (-30.0, -10.0, 2))
        occupancy = np.random.default_rng(0).uniform(size=grid.counts)
        assert chunks_of(f_pv, d_map, occupancy, grid, K, RigidTransform.identity(), params) == []
        want = sample_volume_reference(f_pv, d_map, occupancy, grid, K, RigidTransform.identity())
        np.testing.assert_array_equal(want, np.zeros_like(want))

    def test_gating_halves_behave_independently(self):
        f_pv, d_map, occupancy, grid, w2c, params = small_instance(5)
        nz = grid.counts[0]
        zero_occ = np.zeros_like(occupancy)
        cells, rows = cells_of(f_pv, d_map, zero_occ, grid, K, w2c, params)
        assert cells.size
        # occupancy half is identically zero, depth half is not
        assert np.max(np.abs(halves(rows, nz)[:, :, 1])) == 0.0
        assert np.max(np.abs(halves(rows, nz)[:, :, 0])) > 0.0
        chunks = sample_cells(
            f_pv, np.zeros_like(d_map.data), d_map.spec, d_map.stride, zero_occ, grid, K, w2c,
            params.post_convs[0].in_channels,
        )
        cells, rows = joined(chunks, params.post_convs[0].in_channels)
        assert cells.size
        np.testing.assert_array_equal(rows, np.zeros_like(rows))

    def test_occupancy_scaling_is_exactly_linear(self):
        f_pv, d_map, occupancy, grid, w2c, params = small_instance(6)
        nz = grid.counts[0]
        alpha = 0.37
        base_cells, base = cells_of(f_pv, d_map, occupancy, grid, K, w2c, params)
        scaled_occ = alpha * occupancy
        cells, scaled = cells_of(f_pv, d_map, scaled_occ, grid, K, w2c, params)
        assert base_cells.size
        np.testing.assert_array_equal(cells, base_cells)
        base, scaled = halves(base, nz), halves(scaled, nz)
        np.testing.assert_array_equal(scaled[:, :, 0], base[:, :, 0])
        np.testing.assert_allclose(scaled[:, :, 1], alpha * base[:, :, 1], atol=1e-15)

    def test_voxels_behind_the_camera_or_at_an_infinite_pixel_sample_zero(self):
        # one cell, three heights: the camera's depth axis is the grid's z,
        # tilted by a subnormal angle, so the z = -1 voxel sits behind the
        # camera, the z = 0 voxel at a subnormal depth whose pixel overflows
        # to infinity, and the z = 1 voxel inside the image
        f_pv, d_map, occupancy, _, _, params = small_instance(9, grid_counts=(3, 1, 1))
        grid = VoxelGridSpec((0.0, 0.5, 1), (0.0, 0.5, 1), (-1.5, 1.5, 3))
        tilt = 1e-310
        w2c = RigidTransform(np.array([[1.0, 0.0, -tilt], [0.0, 1.0, 0.0], [tilt, 0.0, 1.0]]), np.zeros(3))
        u, v, depth, valid = project_voxel_centers(grid, K, w2c, d_map.stride)
        assert valid.tolist() == [False, True, True] and np.isinf(u[1]) and np.isinf(v[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells, rows = cells_of(f_pv, d_map, occupancy, grid, K, w2c, params)
            out = sample_vt(f_pv, d_map, occupancy, grid, K, w2c, params)
        assert cells.tolist() == [0] and np.all(np.isfinite(out))
        by_height = halves(rows, 3)[0]
        np.testing.assert_array_equal(by_height[:2], np.zeros_like(by_height[:2]))
        b = depth_to_bin_coordinate(depth[2:], d_map.spec)
        want = gather_gated(f_pv, d_map.data)(occupancy.reshape(-1)[2:], u[2:], v[2:], b)
        assert np.any(want)
        np.testing.assert_array_equal(by_height[2], want[0])

    def test_projection_consistency_with_scalar_path(self):
        _, d_map, _, grid, w2c, _ = small_instance(7)
        u, v, depth, valid = project_voxel_centers(grid, K, w2c, d_map.stride)
        centers = voxel_centers(grid).reshape(3, -1)
        scaled = scale_intrinsics(K, d_map.stride)
        for i in range(centers.shape[1]):
            cam = w2c.apply(centers[:, i])
            if not valid[i]:
                with pytest.raises(BehindCameraError):
                    project_to_pixel(cam, scaled)
                continue
            su, sv, sd = project_to_pixel(cam, scaled)
            # the samplers read the scaled projection half a cell up and left
            assert su - 0.5 == u[i] and sv - 0.5 == v[i] and sd == depth[i]

    @pytest.mark.parametrize("seed", range(4))
    def test_volume_equals_per_voxel_reference_bitwise(self, seed):
        # a grid that reaches behind the camera and past every image edge
        f_pv, d_map, occupancy, _, w2c, params = small_instance(seed, grid_counts=(6, 5, 7))
        grid = VoxelGridSpec((-30.0, 30.0, 7), (-8.0, 8.0, 5), (-6.0, 44.0, 6))
        occupancy = np.random.default_rng(seed).uniform(size=grid.counts)
        cells, rows = cells_of(f_pv, d_map, occupancy, grid, K, w2c, params)
        want = sample_volume_reference(f_pv, d_map, occupancy, grid, K, w2c)
        assert 0 < np.count_nonzero(np.abs(want).sum(axis=0)) < grid.counts[1] * grid.counts[2]
        assert_cells_equal_volume(cells, rows, want, grid.counts[0])

    @pytest.mark.parametrize("yaw_deg", [0.0, 30.0])
    def test_frustum_cells_equal_per_voxel_reference_bitwise(self, yaw_deg):
        args = frustum_instance(3, yaw_deg=yaw_deg)
        cells, rows = cells_of(*args)
        want = sample_volume_reference(*args[:-1])
        # the frustum leaves whole rows of the grid without a sampled cell
        _, ny, nx = args[3].counts
        assert 0 < len(np.unique(cells // nx)) < ny
        assert_cells_equal_volume(cells, rows, want, args[3].counts[0])

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_voxel_reference(self, seed):
        f_pv, d_map, occupancy, grid, w2c, params = small_instance(seed)
        got = sample_vt(f_pv, d_map, occupancy, grid, K, w2c, params)
        want = sample_vt_reference(f_pv, d_map, occupancy, grid, K, w2c, params)
        assert scaled_error(got, want) < 1e-12

    @pytest.mark.parametrize(
        "yaw_deg,first",
        [
            (0.0, None),
            (30.0, None),
            (-55.0, None),
            (0.0, conv_of(1, 1)),
            (0.0, conv_of(5, 5)),
            (30.0, conv_of(3, 5)),
            (30.0, conv_of(5, 3)),
        ],
    )
    def test_frustum_matches_per_voxel_reference(self, yaw_deg, first):
        args = frustum_instance(11, yaw_deg=yaw_deg, first=first)
        cells, _ = cells_of(*args)
        # the frustum covers part of the grid, so the first conv has outputs
        # that read no sampled cell
        assert 0 < cells.size < np.prod(args[3].counts[1:])
        got = sample_vt(*args)
        want = sample_vt_reference(*args)
        assert scaled_error(got, want) < 1e-12

    def test_all_voxels_behind_camera_match_per_voxel_reference(self):
        f_pv, d_map, occupancy, _, intrinsics, w2c, params = frustum_instance(2)
        grid = VoxelGridSpec((-30.0, -6.0, 20), (-40.0, 40.0, 48), (-1.0, 1.0, 2))
        got = sample_vt(f_pv, d_map, occupancy, grid, intrinsics, w2c, params)
        want = sample_vt_reference(f_pv, d_map, occupancy, grid, intrinsics, w2c, params)
        assert chunks_of(f_pv, d_map, occupancy, grid, intrinsics, w2c, params) == []
        assert scaled_error(got, want) < 1e-12

    def test_bin_coordinate_midpoint_alignment(self):
        bins = DepthBinSpec(0.0, 40.0, 4)
        mids = bins.midpoints()
        np.testing.assert_allclose(
            depth_to_bin_coordinate(mids, bins), [0.0, 1.0, 2.0, 3.0], atol=1e-12
        )


class TestStreamedChunks:
    """``sample_vt`` streams the frustum through its first conv in chunks of
    ``max(1, GATHER_CHUNK // Z)`` cells."""

    @pytest.mark.parametrize(
        "gather_chunk,first", [(7, None), (10, conv_of(5, 5)), (64, conv_of(3, 5))], ids=["3 cells", "5 cells", "32 cells"]
    )
    def test_chunks_equal_per_voxel_reference(self, monkeypatch, gather_chunk, first):
        monkeypatch.setattr(view_transform, "GATHER_CHUNK", gather_chunk)
        args = frustum_instance(3, yaw_deg=30.0, first=first)
        nz, _, nx = args[3].counts
        chunks = chunks_of(*args)
        sizes = [part.size for part, _ in chunks]
        per_chunk = gather_chunk // nz
        assert len(sizes) > 2 and set(sizes[:-1]) == {per_chunk} and 0 < sizes[-1] <= per_chunk
        # some chunk ends inside a BEV row, so a run of cells spans two chunks
        assert any(a[-1] // nx == b[0] // nx and b[0] == a[-1] + 1 for (a, _), (b, _) in zip(chunks, chunks[1:]))
        cells, rows = joined(chunks, args[-1].post_convs[0].in_channels)
        assert_cells_equal_volume(cells, rows, sample_volume_reference(*args[:-1]), nz)
        assert scaled_error(sample_vt(*args), sample_vt_reference(*args)) < 1e-12

    def test_more_heights_than_the_chunk_gives_one_cell_a_chunk(self, monkeypatch):
        monkeypatch.setattr(view_transform, "GATHER_CHUNK", 4)
        args = frustum_instance(4, counts=(6, 24, 10))
        chunks = chunks_of(*args)
        assert len(chunks) > 1 and {part.size for part, _ in chunks} == {1}
        cells, rows = joined(chunks, args[-1].post_convs[0].in_channels)
        assert_cells_equal_volume(cells, rows, sample_volume_reference(*args[:-1]), 6)
        assert scaled_error(sample_vt(*args), sample_vt_reference(*args)) < 1e-12

    def test_traced_peak_stays_below_the_whole_rows(self):
        # at the default chunk, four chunks of 1024 cells: the (M, 2*C*Z)
        # rows and the first conv's (taps*C_out, M) products never exist whole
        f_pv, d_map, occupancy, grid, w2c, params = small_instance(5, c=16, grid_counts=(8, 64, 64))
        args = (f_pv, d_map, occupancy, grid, K, w2c, params)
        cells, _ = cells_of(*args)
        assert cells.size == 4096 == 4 * (view_transform.GATHER_CHUNK // 8)
        whole_rows = cells.size * 2 * 16 * 8 * 8
        assert traced_peak(sample_vt, *args) < whole_rows


@st.composite
def sparse_conv_instances(draw):
    ny, nx = draw(st.integers(1, 12)), draw(st.integers(1, 10))
    mask = st.lists(st.booleans(), min_size=ny * nx, max_size=ny * nx)
    active = np.array(draw(mask), dtype=bool).reshape(ny, nx)
    kh, kw = draw(st.sampled_from((1, 3, 5))), draw(st.sampled_from((1, 3, 5)))
    in_ch, out_ch = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    x = rng.normal(size=(in_ch, ny, nx)) * active
    conv = Conv2DParams(rng.normal(size=(out_ch, in_ch, kh, kw)), rng.normal(size=out_ch))
    return x, active, conv, draw(st.integers(1, ny * nx))


def assert_sparse_conv_matches_dense(x, active, conv, chunk):
    """``conv2d_cells`` on the active cells of ``x``, ``chunk`` cells a
    chunk, equals the dense oracle, and outputs that read no active cell are
    exactly the bias."""
    cells = np.flatnonzero(active)
    rows = x.reshape(x.shape[0], -1)[:, cells].T
    chunks = [(cells[i : i + chunk], rows[i : i + chunk]) for i in range(0, cells.size, chunk)]
    got = conv2d_cells(chunks, active.shape, conv)
    _, _, kh, kw = conv.weights.shape
    want = conv2d_naive(x, conv.weights, conv.bias, (kh // 2, kh // 2, kw // 2, kw // 2))
    assert got.shape == want.shape == (conv.out_channels, *active.shape)
    assert scaled_error(got, want) < 1e-12
    # outputs whose receptive field holds no active cell are the bias, bit for bit
    padded = np.pad(active, ((kh // 2, kh // 2), (kw // 2, kw // 2)))
    reads = np.array(
        [[padded[oy : oy + kh, ox : ox + kw].any() for ox in range(got.shape[2])] for oy in range(got.shape[1])]
    ).reshape(got.shape[1:])
    assert np.all(got[:, ~reads] == conv.bias[:, None])


# (raveled cells of a 5x6 grid, kernel side)
RUN_EDGE_CASES = {
    "run across a row boundary": ([3, 4, 5, 6, 7, 8], 3),
    "single-cell runs": ([0, 2, 9, 16, 29], 3),
    "runs on the left and right edges": ([0, 1, 10, 11, 12, 17, 24, 28, 29], 3),
    "full grid": (list(range(30)), 3),
    "full grid, 5x5 kernel": (list(range(30)), 5),
}


class TestConv2DCells:
    @given(sparse_conv_instances())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_oracle_and_leaves_unread_outputs_at_the_bias(self, instance):
        assert_sparse_conv_matches_dense(*instance)

    @pytest.mark.parametrize("chunk", [30, 4, 1])
    @pytest.mark.parametrize("cells, k", RUN_EDGE_CASES.values(), ids=RUN_EDGE_CASES.keys())
    def test_runs_of_cells_match_dense_oracle(self, cells, k, chunk):
        rng = np.random.default_rng(7)
        active = np.zeros(30, dtype=bool)
        active[cells] = True
        active = active.reshape(5, 6)
        x = rng.normal(size=(3, 5, 6)) * active
        conv = Conv2DParams(rng.normal(size=(2, 3, k, k)), rng.normal(size=2))
        assert_sparse_conv_matches_dense(x, active, conv, chunk)

    def test_chunks_add_in_the_order_of_one_chunk(self):
        # each accumulator element receives its taps' adds in row-major tap
        # order however the cells are chunked. One input channel makes every
        # product one rounded multiply, the same bits from a GEMM of any
        # width, so only the order of the adds could change a bit.
        rng = np.random.default_rng(8)
        cells = np.flatnonzero(rng.uniform(size=(9, 11)) < 0.6)
        rows = rng.normal(size=(cells.size, 1))
        conv = Conv2DParams(rng.normal(size=(3, 1, 3, 5)), rng.normal(size=3))
        whole = conv2d_cells([(cells, rows)], (9, 11), conv)
        for chunk in (1, 2, 7, 10):
            chunks = [(cells[i : i + chunk], rows[i : i + chunk]) for i in range(0, cells.size, chunk)]
            assert_same_bits(conv2d_cells(chunks, (9, 11), conv), whole)

    @given(
        st.integers(0, 2**31 - 1),
        st.floats(-40.0, 40.0),
        st.sampled_from((1, 3, 5)),
        st.sampled_from((1, 3, 5)),
        st.integers(1, 3),
        st.sampled_from((1, 7, 64)),
    )
    @settings(max_examples=25, deadline=None)
    def test_one_channel_frusta_equal_the_tap_order_oracle_bitwise(self, seed, yaw, kh, kw, out_ch, chunk):
        # one input channel makes every product one rounded multiply, so
        # only the order of each output's adds could move a bit
        rng = np.random.default_rng(seed)
        cells, _ = cells_of(*frustum_instance(seed % 1000, yaw_deg=yaw))
        values = rng.normal(size=(cells.size, 1))
        conv = Conv2DParams(rng.normal(size=(out_ch, 1, kh, kw)), rng.normal(size=out_ch))
        chunks = [(cells[i : i + chunk], values[i : i + chunk]) for i in range(0, cells.size, chunk)]
        want = conv2d_cells_reference(cells, values, (48, 20), conv.weights, conv.bias)
        assert_same_bits(conv2d_cells(chunks, (48, 20), conv), want)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize("kernel", [(3, 5), (5, 3)])
    def test_tall_grid_with_one_cell_a_row_equals_the_tap_order_oracle_bitwise(self, kernel, chunk):
        # a chunk of several cells spans as many rows, and each tap's
        # destinations are one a row
        rng = np.random.default_rng(11)
        ny, nx = 150, 7
        cells = np.arange(ny) * nx + rng.integers(0, nx, size=ny)
        values = rng.normal(size=(ny, 1))
        conv = Conv2DParams(rng.normal(size=(3, 1, *kernel)), rng.normal(size=3))
        chunks = [(cells[i : i + chunk], values[i : i + chunk]) for i in range(0, ny, chunk)]
        want = conv2d_cells_reference(cells, values, (ny, nx), conv.weights, conv.bias)
        assert_same_bits(conv2d_cells(chunks, (ny, nx), conv), want)

    def test_narrow_frustum_on_a_wide_grid_stays_below_the_accumulator_and_output(self):
        # Each tap scatters a chunk's products at its cells. A dense buffer
        # over the positions a chunk spans, though bitwise and faster at the
        # benchmark's tier M, grows with the rows the chunk covers: with one
        # cell a row here, ~8 MiB per output channel for the one chunk.
        rng = np.random.default_rng(12)
        ny = nx = 1024
        out_ch, in_ch, k = 2, 4, 3
        cells = np.arange(ny) * nx + rng.integers(0, nx, size=ny)
        rows = rng.normal(size=(ny, in_ch))
        conv = Conv2DParams(rng.normal(size=(out_ch, in_ch, k, k)), rng.normal(size=out_ch))
        chunks = [(cells[i : i + 1024], rows[i : i + 1024]) for i in range(0, ny, 1024)]
        accumulator = 8 * out_ch * (ny + 2 * k) * (nx + k)  # the padded map and its margin, generously
        output = 8 * out_ch * ny * nx
        products = 8 * k * k * out_ch * 1024
        assert traced_peak(conv2d_cells, chunks, (ny, nx), conv) < accumulator + output + 4 * products

    def test_no_chunk_gives_the_bias(self):
        conv = Conv2DParams(np.ones((2, 3, 3, 3)), np.array([0.5, -1.25]))
        for chunks in ([], [(np.array([], dtype=np.intp), np.ones((0, 3)))]):
            out = conv2d_cells(chunks, (3, 4), conv)
            np.testing.assert_array_equal(out, np.broadcast_to(conv.bias[:, None, None], (2, 3, 4)))

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
    def test_empty_grid_is_rejected(self, shape):
        conv = Conv2DParams(np.ones((1, 2, 5, 3)), np.zeros(1))
        with pytest.raises(ShapeError, match=rf"^grid {shape[0]}x{shape[1]} is empty$"):
            conv2d_cells([(np.array([], dtype=np.intp), np.ones((0, 2)))], shape, conv)

    @pytest.mark.parametrize(
        "cells, message",
        [
            # a buffered fancy add would keep one of the two contributions
            ([7, 7], "cells must be strictly increasing"),
            ([8, 7], "cells must be strictly increasing"),
            ([-1, 7], "cells -1..7 outside [0, 16) of the 4x4 grid"),
            ([7, 16], "cells 7..16 outside [0, 16) of the 4x4 grid"),
            ([1.0, 7.0], "cells must be a 1D integer array, got float64 of shape (2,)"),
        ],
        ids=["duplicated", "decreasing", "negative", "past the grid", "not integers"],
    )
    def test_bad_cells_are_rejected(self, cells, message):
        conv = Conv2DParams(np.ones((1, 2, 3, 3)), np.zeros(1))
        with pytest.raises(ShapeError, match=re.escape(message)):
            conv2d_cells([(np.array(cells), np.ones((2, 2)))], (4, 4), conv)

    @pytest.mark.parametrize("second", [[7, 9], [3, 9]], ids=["repeated", "decreasing"])
    def test_cells_must_increase_across_chunks(self, second):
        conv = Conv2DParams(np.ones((1, 2, 3, 3)), np.zeros(1))
        # an empty chunk between the two changes nothing
        chunks = [
            (np.array([1, 7]), np.ones((2, 2))),
            (np.array([], dtype=np.intp), np.ones((0, 2))),
            (np.array(second), np.ones((2, 2))),
        ]
        with pytest.raises(ShapeError, match="cells must be strictly increasing"):
            conv2d_cells(chunks, (4, 4), conv)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (2,)])
    def test_rows_must_be_one_input_row_per_cell(self, shape):
        conv = Conv2DParams(np.ones((1, 2, 3, 3)), np.zeros(1))
        with pytest.raises(ShapeError, match=re.escape(f"rows shape {shape} != (cells, in_channels) (2, 2)")):
            conv2d_cells([(np.array([1, 7]), np.ones(shape))], (4, 4), conv)


def _edge_coordinates(extent: int) -> list[float]:
    """Coordinates on and just past both edges of an axis of ``extent`` cells."""
    return [-1.5, -1.0, -0.5, -1e-9, 0.0, extent - 1.0, extent - 0.5, extent - 1e-9, float(extent), extent + 0.25]


@st.composite
def gather_instances(draw):
    c, d, h, w = (draw(st.integers(1, n)) for n in (3, 4, 5, 5))
    n = draw(st.integers(0, 12))

    def coordinates(extent: int) -> np.ndarray:
        value = st.one_of(st.sampled_from(_edge_coordinates(extent)), st.floats(-2.0, extent + 1.0))
        return np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=np.float64)

    u, v, b = coordinates(w), coordinates(h), coordinates(d)
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    f_pv = rng.normal(size=(c, h, w))
    depth_volume = rng.uniform(size=(d, h, w))
    occupancy = rng.uniform(size=n)
    return f_pv, depth_volume, occupancy, u, v, b


class TestGatherGated:
    @given(gather_instances())
    @settings(max_examples=150, deadline=None)
    def test_equals_scalar_samplers_bitwise(self, instance):
        # points straddle and sit on every image edge (w-1 and h-1 included),
        # miss the image by up to two pixels and read bins below 0 or at and
        # beyond D; n = 0 and all-outside draws give no in-image corner
        f_pv, depth_volume, occupancy, u, v, b = instance
        got = gather_gated(f_pv, depth_volume)(occupancy, u, v, b)
        want = np.zeros((u.shape[0], 2, f_pv.shape[0]))
        for i in range(u.shape[0]):
            feat = bilinear_sample(f_pv, (u[i], v[i]))
            want[i, 0] = feat * trilinear_sample(depth_volume, (u[i], v[i], b[i]))
            want[i, 1] = feat * occupancy[i]
        assert_same_bits(got, want)

    def test_no_in_image_corner_gives_zero_halves(self):
        f_pv = np.ones((2, 3, 4))
        u = np.array([-1.5, 4.0, 1.0, 2.0, 7.0])
        v = np.array([1.0, 1.0, -1.25, 3.0, 9.0])
        out = gather_gated(f_pv, np.ones((2, 3, 4)))(np.ones(5), u, v, np.zeros(5))
        assert_same_bits(out, np.zeros((5, 2, 2)))

    def test_corner_on_last_pixel_reads_it_alone(self):
        f_pv = np.arange(12.0).reshape(1, 3, 4)
        depth = np.full((2, 3, 4), 0.5)
        out = gather_gated(f_pv, depth)(np.array([0.25]), np.array([3.0]), np.array([2.0]), np.array([1.0]))
        assert out[0, 0, 0] == 11.0 * 0.5 and out[0, 1, 0] == 11.0 * 0.25

    def test_off_map_corners_read_zero_not_a_clipped_cell(self):
        # an off-map corner reads a real cell in its place; the first and
        # last flat cells, where a clipped index lands, hold 1.0 in both maps
        d, h, w = 3, 4, 5
        f_pv, depth = np.zeros((1, h, w)), np.zeros((d, h, w))
        for volume in (f_pv, depth):
            volume.flat[0] = volume.flat[-1] = 1.0
        first, last = np.zeros(3), np.array([w - 1.0, h - 1.0, d - 1.0])
        points = [first, last]  # (u, v, b) on the two cells
        for axis in range(3):
            for below in (-2.0, -1.5, -1.0 - 1e-9):
                points.append(first.copy())
                points[-1][axis] = below
            for past in (0.0, 0.5, 1.0):
                points.append(last.copy())
                points[-1][axis] += 1.0 + past
        u, v, b = np.array(points).T
        out = gather_gated(f_pv, depth)(np.ones(u.size), u, v, b)
        # only the six points off the bins read a feature: it is 1.0, so
        # their occupancy-gated half is 1.0 and the depth-gated half the depth
        want = np.zeros((u.size, 2, 1))
        want[:2] = want[-6:, 1] = 1.0
        assert_same_bits(out, want)

    def test_reads_the_depth_volume_in_place(self):
        # tier-L shapes: building the sampler copies the features into a
        # (H*W, C) table and never copies the depth volume
        rng = np.random.default_rng(6)
        f_pv, depth = rng.normal(size=(32, 76, 121)), rng.uniform(size=(64, 76, 121))
        assert traced_peak(gather_gated, f_pv, depth) < depth.nbytes


class TestValidation:
    def test_depth_map_normalization_enforced(self):
        bins = DepthBinSpec(0.0, 10.0, 5)
        with pytest.raises(ValueError, match="sum"):
            DepthDistributionMap(np.full((5, 2, 2), 0.5), bins, 8)

    def test_depth_map_nan_column_rejected(self):
        data = np.full((5, 2, 2), 0.2)
        data[:, 1, 0] = np.nan
        with pytest.raises(ValueError, match=r"\(u=0, v=1\)"):
            DepthDistributionMap(data, DepthBinSpec(0.0, 10.0, 5), 8)

    def test_depth_map_negative_probabilities_rejected(self):
        data = np.full((5, 2, 2), 0.2)
        data[:, 0, 1] = [0.6, 0.6, -0.2, 0.0, 0.0]
        with pytest.raises(ValueError, match="non-negative"):
            DepthDistributionMap(data, DepthBinSpec(0.0, 10.0, 5), 8)

    @pytest.mark.parametrize("shape", [(5, 6, 11), (5, 7, 10), (4, 6, 10), (6, 10)])
    def test_depth_volume_must_match_bins_and_feature_map(self, shape):
        f_pv, d_map, occupancy, grid, w2c, params = small_instance(0)
        with pytest.raises(ShapeError, match="depth volume shape"):
            sample_cells(
                f_pv, np.full(shape, 0.2), d_map.spec, d_map.stride, occupancy, grid, K, w2c,
                params.post_convs[0].in_channels,
            )

    @pytest.mark.parametrize("behind_camera", [False, True])
    def test_first_conv_must_take_the_sampled_channels(self, behind_camera):
        # checked before sampling, so a frustum that misses the grid, which
        # leaves the first conv no sampled cell to read, fails the same way
        f_pv, d_map, occupancy, grid, w2c, params = small_instance(0)
        if behind_camera:
            grid = VoxelGridSpec(grid.x, grid.y, (-30.0, -10.0, grid.counts[0]))
        c, nz = f_pv.shape[0], grid.counts[0]
        wide = VTParams(
            params.occupancy_conv, params.depth_conv, params.embedding,
            (selection_conv(2 * c * nz + 1, c, offset=0), *params.post_convs[1:]),
        )
        with pytest.raises(ShapeError, match=f"sampled volume has {2 * c * nz} channels, weights expect {2 * c * nz + 1}"):
            sample_vt(f_pv, d_map, occupancy, grid, K, w2c, wide)

    def test_post_conv_count_enforced(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError, match="three"):
            VTParams(
                occupancy_conv=Conv2DParams(np.zeros((2, 2, 1, 1)), np.zeros(2)),
                depth_conv=Conv2DParams(np.zeros((4, 2, 1, 1)), np.zeros(4)),
                embedding=LinearParams(np.zeros((2, 9)), np.zeros(2)),
                post_convs=(identity_conv(2), identity_conv(2)),
            )

    @pytest.mark.parametrize("wide", [1, 2])
    def test_post_conv_stack_must_chain(self, wide):
        post_convs = [identity_conv(2), identity_conv(2), identity_conv(2)]
        post_convs[wide] = selection_conv(3, 2, offset=0)
        with pytest.raises(ShapeError, match=rf"post_convs\[{wide}\] takes 3 channels, post_convs\[{wide - 1}\] gives 2"):
            VTParams(
                occupancy_conv=Conv2DParams(np.zeros((2, 2, 1, 1)), np.zeros(2)),
                depth_conv=Conv2DParams(np.zeros((4, 2, 1, 1)), np.zeros(4)),
                embedding=LinearParams(np.zeros((2, 9)), np.zeros(2)),
                post_convs=tuple(post_convs),
            )

    def test_embedding_width_enforced(self):
        with pytest.raises(ShapeError, match="embedding"):
            VTParams(
                occupancy_conv=Conv2DParams(np.zeros((2, 2, 1, 1)), np.zeros(2)),
                depth_conv=Conv2DParams(np.zeros((4, 2, 1, 1)), np.zeros(4)),
                embedding=LinearParams(np.zeros((2, 25)), np.zeros(2)),
                post_convs=(identity_conv(2), identity_conv(2), identity_conv(2)),
            )

    @pytest.mark.parametrize("scales", [1, 3])
    def test_embedding_must_scale_each_depth_conv_channel(self, scales):
        with pytest.raises(ShapeError, match=f"^embedding yields {scales} channel scales, depth_conv takes 2 channels$"):
            VTParams(
                occupancy_conv=Conv2DParams(np.zeros((2, 2, 1, 1)), np.zeros(2)),
                depth_conv=Conv2DParams(np.zeros((4, 2, 1, 1)), np.zeros(4)),
                embedding=LinearParams(np.zeros((scales, 9)), np.zeros(scales)),
                post_convs=(identity_conv(2), identity_conv(2), identity_conv(2)),
            )
