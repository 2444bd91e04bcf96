"""Tests for target generation, the depth loss and its gradient."""

import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radarcam.depth_supervision import (
    AGGREGATIONS,
    DepthBinSpec,
    DepthTarget,
    LossConfig,
    RadarPoint,
    RadiusConfig,
    build_depth_targets,
    _select_in_disks,
    _target_table,
    nearest_bin,
    neighborhood_pixels,
    neighborhood_radius,
    one_to_many_loss,
    one_to_many_loss_grad,
    as_target_table,
    read_radar_points_csv,
)
from radarcam.geometry import (
    AngularResolution,
    CameraIntrinsics,
    RigidTransform,
    SensorCalibration,
    read_json,
)
from radarcam.gradcheck import analytic_grad, finite_difference_grad, random_instance, relative_error
from radarcam.tensor_ops import softmax

from oracles import build_depth_targets_reference, target_losses_reference

K = CameraIntrinsics(fx=1600.0, fy=1600.0, cx=320.0, cy=240.0)


def make_calib(fx=1600.0, fy=1600.0, cx=320.0, cy=240.0, width=640, height=480):
    return SensorCalibration(
        intrinsics=CameraIntrinsics(fx, fy, cx, cy),
        radar_to_camera=RigidTransform.identity(),
        image_width=width,
        image_height=height,
        angular_resolution=AngularResolution.from_degrees(1.0, 1.0),
    )


def uniform_map(num_bins, height, width):
    return np.full((num_bins, height, width), 1.0 / num_bins)


def pixel_loss(dist, d_gt, spec, lambda1=0.1, lambda2=0.1):
    """One pixel's depth loss: a one-to-one target on a 1x1 map of ``dist``."""
    cfg = LossConfig(lambda1, lambda2)
    depth_map = np.asarray(dist, dtype=np.float64).reshape(-1, 1, 1)
    return one_to_many_loss(depth_map, [DepthTarget(0, 0, d_gt, 0.0)], spec, cfg).total


def expected_depth(dist, spec):
    """The expected depth of ``dist``: its L1 loss against depth 0."""
    return pixel_loss(dist, 0.0, spec, lambda1=0.0, lambda2=1.0)


class TestNeighborhoodRadius:
    def test_hand_example(self):
        cfg = RadiusConfig(k=0.1, r_max=10.0)
        r = neighborhood_radius(20.0, K, 8, cfg, rcs_dbsm=0.0)
        assert r == pytest.approx(1.0, abs=1e-9)

    def test_large_rcs_clamps_to_ceiling(self):
        cfg = RadiusConfig(k=0.1, r_max=2.0)
        assert neighborhood_radius(20.0, K, 8, cfg, rcs_dbsm=40.0) == 2.0

    def test_rcs_absent_uses_fixed_radius(self):
        cfg = RadiusConfig(fixed_r=2.0)
        assert neighborhood_radius(20.0, K, 8, cfg) == 2.0
        assert neighborhood_radius(20.0, K, 8, cfg, rcs_dbsm=math.nan) == 2.0

    def test_errors(self):
        with pytest.raises(ValueError, match="depth"):
            neighborhood_radius(0.0, K, 8, RadiusConfig(fixed_r=1.0))
        # Without RCS the default config gives its fixed_r, 2.0, clamped by r_max; it does not raise.
        assert neighborhood_radius(10.0, K, 8, RadiusConfig()) == 2.0
        assert neighborhood_radius(10.0, K, 8, RadiusConfig(r_max=0.5)) == 0.5

    @given(st.floats(-20, 30), st.floats(1, 100))
    @settings(max_examples=60, deadline=None)
    def test_scaling_laws_before_clamping(self, rcs, depth):
        cfg = RadiusConfig(k=0.1, r_max=1e12)
        base = neighborhood_radius(depth, K, 8, cfg, rcs_dbsm=rcs)
        louder = neighborhood_radius(depth, K, 8, cfg, rcs_dbsm=rcs + 20.0)
        farther = neighborhood_radius(2.0 * depth, K, 8, cfg, rcs_dbsm=rcs)
        assert louder == pytest.approx(10.0 * base, rel=1e-9)
        assert farther == pytest.approx(base / 2.0, rel=1e-9)

    def test_zero_ceiling_gives_zero_radius_on_both_paths(self):
        cfg = RadiusConfig(k=0.1, r_max=0.0, fixed_r=2.0)
        assert neighborhood_radius(5.0, K, 8, cfg, rcs_dbsm=10.0) == 0.0
        assert neighborhood_radius(5.0, K, 8, cfg, rcs_dbsm=math.nan) == 0.0

    def test_arrays_match_scalar_calls(self):
        depth = np.array([1.5, 20.0, 73.25])
        rcs = np.array([-12.5, 0.0, 31.0])
        cfg = RadiusConfig(k=0.3, r_max=4.0, fixed_r=1.5)
        got = neighborhood_radius(depth, K, 4, cfg, rcs)
        assert got.tolist() == [neighborhood_radius(d, K, 4, cfg, r) for d, r in zip(depth, rcs)]
        assert neighborhood_radius(depth, K, 4, cfg).tolist() == [1.5, 1.5, 1.5]

    def test_array_radii_round_like_python_power(self):
        rng = np.random.default_rng(7)
        depth, rcs = rng.uniform(0.5, 100.0, 20_000), rng.uniform(-40.0, 40.0, 20_000)
        cfg = RadiusConfig(k=0.1, r_max=1e9)
        got = neighborhood_radius(depth, K, 8, cfg, rcs)
        f = math.sqrt(K.fx * K.fy)
        want = [0.1 * f / (8 * d) * 10.0 ** (r / 20.0) for d, r in zip(depth.tolist(), rcs.tolist())]
        assert got.tolist() == want

    def test_overflowing_factor_clamps_at_the_ceiling(self):
        cfg = RadiusConfig(k=0.1, r_max=2.0)
        assert neighborhood_radius(20.0, K, 8, cfg, rcs_dbsm=7000.0) == 2.0
        got = neighborhood_radius(np.array([20.0, 20.0]), K, 8, cfg, np.array([0.0, 7000.0]))
        assert got.tolist() == [neighborhood_radius(20.0, K, 8, cfg, rcs_dbsm=0.0), 2.0]

    @pytest.mark.parametrize(
        "cfg,rcs,message",
        [
            (RadiusConfig(k=1e308), np.array([0.0, -7000.0]), "radius nan of the point at depth 40.0 m, RCS -7000.0 "),
        ],
    )
    def test_radius_that_is_not_finite_names_its_point(self, cfg, rcs, message):
        with pytest.raises(ValueError, match=message):
            neighborhood_radius(np.array([20.0, 40.0]), K, 8, cfg, rcs)

    @pytest.mark.parametrize(
        "cfg,rcs",
        [
            (RadiusConfig(r_max=sys.float_info.max), np.array([0.0, 7000.0])),
            (RadiusConfig(r_max=sys.float_info.max, fixed_r=sys.float_info.max), math.nan),
        ],
    )
    def test_the_largest_ceiling_clamps_an_overflowing_radius(self, cfg, rcs):
        """The ceiling is finite, so a radius that overflows clamps at it."""
        got = neighborhood_radius(np.array([20.0, 40.0]), K, 8, cfg, rcs)
        assert got[1] == sys.float_info.max

    def test_array_errors(self):
        with pytest.raises(ValueError, match="depth"):
            neighborhood_radius(np.array([3.0, 0.0]), K, 8, RadiusConfig(fixed_r=1.0))
        with pytest.raises(ValueError, match="RCS"):
            neighborhood_radius(np.array([3.0, 4.0]), K, 8, RadiusConfig(), np.array([1.0, np.inf]))
        assert neighborhood_radius(np.array([3.0, 4.0]), K, 8, RadiusConfig()).tolist() == [2.0, 2.0]
        assert neighborhood_radius(np.array([3.0]), K, 8, RadiusConfig(r_max=0.5)).tolist() == [0.5]


@st.composite
def target_build_instances(draw):
    """Radar points with and without RCS (behind the camera, off the map
    and on it) under a random yawed calibration, stride and radius config.

    Points are drawn as an image position, as a fraction of the image size,
    and a camera depth, and moved into the radar frame. Camera depths are 0
    or at least 1e-3 away from it, so the per-point oracle's ``math.floor``
    stays finite.
    """
    yaw = draw(st.floats(-0.6, 0.6))
    c, s = math.cos(yaw), math.sin(yaw)
    calib = SensorCalibration(
        CameraIntrinsics(
            draw(st.floats(50.0, 3000.0)), draw(st.floats(50.0, 3000.0)),
            draw(st.floats(-50.0, 700.0)), draw(st.floats(-50.0, 500.0)),
        ),
        RigidTransform(
            np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]),
            np.array([draw(st.floats(-5.0, 5.0)) for _ in range(3)]),
        ),
        draw(st.integers(1, 800)),
        draw(st.integers(1, 600)),
        AngularResolution.from_degrees(1.0, 1.0),
    )
    k, to_camera = calib.intrinsics, calib.radar_to_camera
    points = []
    for _ in range(draw(st.integers(0, 30))):
        fu, fv = draw(st.floats(-0.3, 1.3)), draw(st.floats(-0.3, 1.3))
        z = draw(st.floats(-10.0, 90.0).filter(lambda d: d == 0.0 or abs(d) > 1e-3))
        cam = np.array([
            (fu * calib.image_width - k.cx) * z / k.fx, (fv * calib.image_height - k.cy) * z / k.fy, z
        ])
        x, y, z = (to_camera.rotation.T @ (cam - to_camera.translation)).tolist()
        points.append(RadarPoint(x, y, z, rcs_dbsm=draw(st.none() | st.floats(-40.0, 40.0))))
    cfg = RadiusConfig(
        k=draw(st.floats(0.01, 1.0)),
        r_max=draw(st.floats(0.0, 50.0)),
        fixed_r=draw(st.floats(0.0, 10.0)),
    )
    return points, calib, draw(st.integers(1, 16)), cfg


class TestBuildMatchesReference:
    @given(target_build_instances())
    @settings(max_examples=150, deadline=None)
    def test_targets_match_the_per_point_loop_bitwise(self, instance):
        points, calib, stride, cfg = instance
        want, num_input, num_dropped = build_depth_targets_reference(points, calib, stride, cfg)
        got = build_depth_targets(points, calib, stride, cfg)
        assert (got.num_input, got.num_dropped) == (num_input, num_dropped)

        def bits(targets):
            return [(t.u, t.v, float(t.d_gt).hex(), float(t.radius).hex()) for t in targets]

        assert bits(got.targets) == bits(want)
        assert all(type(t.u) is int and type(t.v) is int for t in got.targets)

    def test_a_point_without_rcs_takes_the_default_fixed_r(self):
        points = [RadarPoint(0.0, 0.0, 10.0, rcs_dbsm=3.0), RadarPoint(0.0, 0.0, 10.0)]
        for r_max, radius in ((5.0, 2.0), (1.0, 1.0)):  # fixed_r 2.0, clamped by r_max
            result = build_depth_targets(points, make_calib(), 8, RadiusConfig(r_max=r_max))
            assert result.targets[1].radius == radius

    def test_point_at_the_camera_plane_is_dropped(self):
        pts = [RadarPoint(1.0, 0.0, 1e-310), RadarPoint(0.0, 0.0, 0.0)]
        result = build_depth_targets(pts, make_calib(), 8, RadiusConfig(fixed_r=1.0))
        assert result.targets == () and result.num_dropped == 2


class TestBuildDepthTargets:
    def test_empty_input(self):
        result = build_depth_targets([], make_calib(), 8, RadiusConfig(fixed_r=2.0))
        assert result.targets == ()
        assert result.num_dropped == 0

    def test_single_point_on_axis(self):
        calib = make_calib(fx=500.0, fy=500.0)
        result = build_depth_targets(
            [RadarPoint(0.0, 0.0, 10.0)], calib, 8, RadiusConfig(fixed_r=2.0)
        )
        assert len(result.targets) == 1
        t = result.targets[0]
        assert (t.u, t.v) == (40, 30)
        assert t.d_gt == pytest.approx(10.0)
        assert t.radius == 2.0

    def test_coincident_points_each_keep_a_target(self):
        calib = make_calib(fx=500.0, fy=500.0)
        pts = [RadarPoint(0.0, 0.0, 8.0), RadarPoint(0.0, 0.0, 30.0)]
        result = build_depth_targets(pts, calib, 8, RadiusConfig(fixed_r=2.0))
        assert len(result.targets) == 2
        assert {t.d_gt for t in result.targets} == {8.0, 30.0}
        assert len({(t.u, t.v) for t in result.targets}) == 1

    def test_behind_camera_and_out_of_view_are_dropped(self):
        calib = make_calib()
        pts = [
            RadarPoint(0.0, 0.0, -5.0),
            RadarPoint(100.0, 0.0, 1.0),
            RadarPoint(0.0, 0.0, 10.0),
        ]
        result = build_depth_targets(pts, calib, 8, RadiusConfig(fixed_r=2.0))
        assert len(result.targets) == 1
        assert result.num_dropped == 2
        assert result.num_input == 3

    def test_extrinsics_are_applied(self):
        shift = RigidTransform(np.eye(3), np.array([0.0, 0.0, 5.0]))
        calib = SensorCalibration(
            CameraIntrinsics(500.0, 500.0, 320.0, 240.0), shift, 640, 480,
            AngularResolution.from_degrees(1.0, 1.0),
        )
        result = build_depth_targets(
            [RadarPoint(0.0, 0.0, 5.0)], calib, 8, RadiusConfig(fixed_r=1.0)
        )
        assert result.targets[0].d_gt == pytest.approx(10.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_stride_consistency(self, seed):
        rng = np.random.default_rng(seed)
        calib = make_calib()
        pts = [
            RadarPoint(
                float(rng.uniform(-8, 8)), float(rng.uniform(-4, 4)), float(rng.uniform(1, 60))
            )
            for _ in range(12)
        ]
        cfg = RadiusConfig(fixed_r=2.0)
        at_stride = build_depth_targets(pts, calib, 8, cfg)
        at_unit = build_depth_targets(pts, calib, 1, cfg)
        coarse = {(t.u, t.v, round(t.d_gt, 9)) for t in at_stride.targets}
        derived = {(t.u // 8, t.v // 8, round(t.d_gt, 9)) for t in at_unit.targets}
        # points surviving both paths must agree after integer division
        assert coarse <= derived


class TestBins:
    SPEC = DepthBinSpec(0.0, 50.0, 50)

    def test_nearest_midpoint(self):
        assert nearest_bin(10.4, self.SPEC) == 10
        assert self.SPEC.midpoints()[10] == pytest.approx(10.5)

    def test_lower_edge(self):
        assert nearest_bin(0.0, self.SPEC) == 0

    def test_clamp_far_out_of_range(self):
        assert nearest_bin(10_000.0, self.SPEC) == 49
        assert nearest_bin(-3.0, self.SPEC) == 0

    def test_midpoints_increasing(self):
        mids = self.SPEC.midpoints()
        assert np.all(np.diff(mids) > 0)
        assert mids[0] == pytest.approx(0.5)

    def test_expected_depth_uniform(self):
        assert expected_depth(np.full(50, 0.02), self.SPEC) == pytest.approx(25.0)

    def test_expected_depth_one_hot(self):
        dist = np.zeros(50)
        dist[7] = 1.0
        assert expected_depth(dist, self.SPEC) == pytest.approx(self.SPEC.midpoints()[7])

    def test_expected_depth_two_bins(self):
        spec = DepthBinSpec(0.0, 4.0, 2)
        assert spec.midpoints().tolist() == [1.0, 3.0]
        assert expected_depth(np.array([0.5, 0.5]), spec) == pytest.approx(2.0)

    def test_expected_depth_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sums"):
            expected_depth(np.full(50, 0.03), self.SPEC)

    @pytest.mark.parametrize(
        "args,message",
        [
            ((0.0, math.inf, 4), "d_max must be finite"),
            ((-math.inf, 64.0, 4), "d_min must be finite"),
            ((math.nan, 64.0, 4), "d_min must be finite"),
            ((0.0, 64.0, 4.9), "num_bins must be a whole number, got 4.9"),
            ((0.0, 64.0, math.inf), "num_bins must be a whole number"),
            ((0.0, 64.0, 0), "at least one bin"),
        ],
    )
    def test_spec_rejects_non_finite_range_and_fractional_count(self, args, message):
        with pytest.raises(ValueError, match=message):
            DepthBinSpec(*args)

    def test_whole_float_bin_count_becomes_an_int(self):
        spec = DepthBinSpec(0.0, 64.0, 4.0)
        assert spec.num_bins == 4 and isinstance(spec.num_bins, int)

    def test_json_numeric_strings_convert(self):
        spec = read_json(DepthBinSpec, {"d_min": "1", "d_max": 9, "num_bins": 4.0}, "bins")
        assert (spec.d_min, spec.d_max, spec.num_bins) == (1.0, 9.0, 4) and isinstance(spec.num_bins, int)

    @pytest.mark.parametrize(
        "data,message",
        [
            ({"d_min": [0.0], "d_max": 8, "num_bins": 4}, r"^bins\.d_min must be a number, got \[0.0\]"),
            ({"d_min": 0, "num_bins": 4}, r"^bins\.d_max must be a number, got None"),
            ({"d_min": 0, "d_max": 8, "num_bins": 4.5}, r"^bins\.num_bins must be a whole number, got 4.5"),
        ],
    )
    def test_json_errors_name_each_key_by_its_path(self, data, message):
        with pytest.raises(ValueError, match=message):
            read_json(DepthBinSpec, data, "bins")


class TestRadiusConfigFromJson:
    def test_absent_keys_take_the_dataclass_defaults(self):
        assert read_json(RadiusConfig, {}, "") == RadiusConfig()
        assert read_json(RadiusConfig, {"r_max": "4"}, "") == RadiusConfig(r_max=4.0)

    def test_a_key_that_names_no_field_is_refused(self):
        with pytest.raises(ValueError, match="^radius has no key 'other'$"):
            read_json(RadiusConfig, {"r_max": "4", "other": "ignored"}, "radius")

    def test_null_fixed_r_is_refused_naming_it(self):
        with pytest.raises(ValueError, match=r"^radius\.fixed_r must be a number, got None$"):
            read_json(RadiusConfig, {"k": 0.3, "fixed_r": None}, "radius")
        assert read_json(RadiusConfig, {"fixed_r": 1}, "").fixed_r == 1.0

    @pytest.mark.parametrize(
        "data,message",
        [
            ({"k": {"value": 0.1}}, r"^radius\.k must be a number, got \{'value': 0.1\}"),
            ({"r_max": True}, r"^radius\.r_max must be a number, got True"),
            ({"fixed_r": "wide"}, r"^radius\.fixed_r must be a number, got 'wide'"),
            ({"k": 0}, "^radius: k must be positive, got 0.0$"),  # a range check names its object
        ],
    )
    def test_errors_name_each_key_by_its_path(self, data, message):
        with pytest.raises(ValueError, match=message):
            read_json(RadiusConfig, data, "radius")


class TestPixelDepthLoss:
    SPEC = DepthBinSpec(0.0, 50.0, 50)

    def test_perfect_one_hot_is_zero(self):
        dist = np.zeros(50)
        dist[10] = 1.0
        assert pixel_loss(dist, self.SPEC.midpoints()[10], self.SPEC) == 0.0

    def test_uniform_mid_range(self):
        loss = pixel_loss(np.full(50, 0.02), 25.0, self.SPEC, lambda1=0.1, lambda2=0.1)
        assert loss == pytest.approx(0.1 * math.log(50.0), abs=1e-12)

    def test_zero_weights_zero_loss(self):
        dist = softmax(np.random.default_rng(0).normal(size=50), axis=0)
        assert pixel_loss(dist, 13.0, self.SPEC, lambda1=0.0, lambda2=0.0) == 0.0

    def test_out_of_range_depth_keeps_regression_term(self):
        dist = np.zeros(50)
        dist[49] = 1.0
        loss = pixel_loss(dist, 60.0, self.SPEC, lambda1=0.0, lambda2=1.0)
        assert loss == pytest.approx(60.0 - self.SPEC.midpoints()[49])


class TestNeighborhoodPixels:
    def test_radius_zero_is_center_only(self):
        assert neighborhood_pixels(3, 4, 0.0, 10, 10) == [(3, 4)]

    def test_radius_one_is_a_cross(self):
        got = set(neighborhood_pixels(5, 5, 1.0, 10, 10))
        assert got == {(5, 5), (4, 5), (6, 5), (5, 4), (5, 6)}

    def test_radius_two_disk_size(self):
        assert len(neighborhood_pixels(5, 5, 2.0, 11, 11)) == 13

    def test_bounds_clipping(self):
        got = neighborhood_pixels(0, 0, 1.0, 4, 4)
        assert set(got) == {(0, 0), (1, 0), (0, 1)}

    def test_row_major_order(self):
        got = neighborhood_pixels(1, 1, 1.0, 4, 4)
        assert got == [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]

    def test_far_radius_is_clipped_to_the_map(self):
        got = neighborhood_pixels(1, 2, 1e12, 3, 4)
        assert got == [(u, v) for v in range(4) for u in range(3)]


def _selected_candidates(table, shape):
    """Run the selection with a constant cost and collect every candidate
    grid the cost was asked for, with the target rows of each."""
    seen = []

    def cost_at(rows, uu, vv):
        seen.append((rows, uu, vv))
        return np.zeros(uu.shape)

    (sel,) = _select_in_disks(np.asarray(table, dtype=np.float64), shape, ((0, "min"),), cost_at)
    return sel, seen


class TestDiskStencil:
    @given(
        u=st.integers(0, 9),
        v=st.integers(0, 7),
        radii=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_candidates_are_each_targets_own_disk(self, u, v, radii):
        table = [[u, v, 1.0, r] for r in radii]
        sel, seen = _selected_candidates(table, (8, 10))
        for rows, uu, vv in seen:
            for row, cu, cv in zip(rows, uu, vv):
                disk = neighborhood_pixels(u, v, radii[row], 10, 8)
                counted = {(a, b) for a, b in zip(cu.tolist(), cv.tolist())}
                assert counted == set(disk)
                assert sel.count[row] == len(disk)
                # A constant cost ties everywhere: the first pixel in row-major order wins.
                assert (sel.u[row], sel.v[row]) == disk[0]

    def test_one_to_one_is_the_target_pixel(self):
        sel, seen = _selected_candidates([[3, 2, 1.0, 0.0]], (6, 6))
        assert [uu.shape for _, uu, _ in seen] == [(1, 1)]
        assert (sel.u[0], sel.v[0], sel.count[0]) == (3, 2, 1)

    def test_one_wide_disk_does_not_widen_the_others(self):
        table = [[i % 64, i // 64, 1.0, 2.0] for i in range(199)] + [[32, 32, 1.0, 60.0]]
        sel, seen = _selected_candidates(table, (64, 64))
        assert sum(uu.size for _, uu, _ in seen) <= 199 * 13 + len(neighborhood_pixels(60, 60, 60.0, 121, 121))
        assert sel.count[-1] == len(neighborhood_pixels(32, 32, 60.0, 64, 64))


@st.composite
def multi_radius_selections(draw):
    """A map shape, an (N, 3 + R) table whose targets favour the map's edges
    and whose R radius columns mix 0 to 4, and a cost field: random with
    ties, constant, or all +inf."""
    height, width = draw(st.integers(1, 7)), draw(st.integers(1, 9))
    n_columns = draw(st.integers(1, 4))
    radius = st.one_of(st.sampled_from([0.0, 1.0, 1.5, 2.0, 4.0]), st.floats(0.0, 4.0))

    def edge_or_inside(size):
        return st.one_of(st.sampled_from([0, size - 1]), st.integers(0, size - 1))

    row = st.tuples(edge_or_inside(width), edge_or_inside(height), st.sampled_from([0.0, 1.0, 2.5]))
    rows = draw(st.lists(st.tuples(row, st.lists(radius, min_size=n_columns, max_size=n_columns)), max_size=8))
    table = np.array([[*target, *radii] for target, radii in rows], dtype=np.float64).reshape(-1, 3 + n_columns)
    kind = draw(st.sampled_from(["ties", "constant", "inf"]))
    if kind == "ties":
        field = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, np.inf]), min_size=height * width,
                                       max_size=height * width))).reshape(height, width)
    else:
        field = np.full((height, width), 1.0 if kind == "constant" else np.inf)
    return (height, width), table, field


class TestSharedSelection:
    """One selection over several radius columns equals one single-column
    selection per column, bit for bit."""

    @given(case=multi_radius_selections())
    @settings(max_examples=200, deadline=None)
    def test_each_pick_equals_its_column_alone(self, case):
        shape, table, field = case

        def cost_at_in(targets):
            def cost_at(rows, uu, vv):
                return np.abs(field[vv, uu] - targets[rows, 2:3])

            return cost_at

        n_columns = table.shape[1] - 3
        picks = tuple((column, agg) for column in range(n_columns) for agg in ("min", "max"))
        shared = _select_in_disks(table, shape, picks, cost_at_in(table))
        for (column, agg), got in zip(picks, shared):
            alone = table[:, [0, 1, 2, 3 + column]]
            (want,) = _select_in_disks(alone, shape, ((0, agg),), cost_at_in(alone))
            for name in ("u", "v", "cost", "count"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (column, agg, name)


class TestOneToManyLoss:
    SPEC = DepthBinSpec(0.0, 16.0, 16)

    def test_empty_targets(self):
        result = one_to_many_loss(uniform_map(16, 4, 4), [], self.SPEC, LossConfig())
        assert result.total == 0.0
        assert result.per_target == ()

    def test_radius_zero_equals_one_to_one_exactly(self):
        rng = np.random.default_rng(4)
        depth_map = softmax(rng.normal(size=(16, 6, 6)), axis=0)
        targets = [DepthTarget(2, 3, 7.3, 0.0)]
        many = one_to_many_loss(depth_map, targets, self.SPEC, LossConfig())
        assert many.total == pixel_loss(depth_map[:, 3, 2], 7.3, self.SPEC)
        assert many.per_target[0].num_pixels == 1

    def test_min_absorbs_a_perfect_neighbor(self):
        depth_map = uniform_map(16, 5, 5).copy()
        gt_bin = 9
        one_hot = np.zeros(16)
        one_hot[gt_bin] = 1.0
        depth_map[:, 2, 3] = one_hot  # neighbor of (2, 2)
        targets = [DepthTarget(2, 2, self.SPEC.midpoints()[gt_bin], 1.0)]
        result = one_to_many_loss(depth_map, targets, self.SPEC, LossConfig())
        assert result.total == 0.0
        assert result.per_target[0].pixel == (3, 2)

    def test_max_on_same_setup_is_positive(self):
        depth_map = uniform_map(16, 5, 5).copy()
        one_hot = np.zeros(16)
        one_hot[9] = 1.0
        depth_map[:, 2, 3] = one_hot
        targets = [DepthTarget(2, 2, self.SPEC.midpoints()[9], 1.0)]
        result = one_to_many_loss(
            depth_map, targets, self.SPEC, LossConfig(neighborhood_agg="max")
        )
        assert result.total > 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_min_never_exceeds_one_to_one(self, seed):
        rng = np.random.default_rng(seed)
        depth_map = softmax(rng.normal(size=(16, 8, 8)), axis=0)
        targets = [
            DepthTarget(
                int(rng.integers(0, 8)), int(rng.integers(0, 8)),
                float(rng.uniform(0, 16)), float(rng.uniform(0, 3)),
            )
            for _ in range(5)
        ]
        many = one_to_many_loss(depth_map, targets, self.SPEC, LossConfig())
        struck = [t._replace(radius=0.0) for t in targets]  # one-to-one
        one = one_to_many_loss(depth_map, struck, self.SPEC, LossConfig())
        assert many.total <= one.total
        for m, o in zip(many.per_target, one.per_target):
            assert m.loss <= o.loss

    def test_total_is_mean_over_targets(self):
        depth_map = uniform_map(16, 4, 4)
        targets = [DepthTarget(0, 0, 8.0, 0.0), DepthTarget(3, 3, 8.0, 0.0)]
        result = one_to_many_loss(depth_map, targets, self.SPEC, LossConfig())
        assert result.total == pytest.approx(
            (result.per_target[0].loss + result.per_target[1].loss) / 2.0
        )

    def test_non_negative_and_constructive_zero(self):
        rng = np.random.default_rng(9)
        depth_map = softmax(rng.normal(size=(16, 6, 6)), axis=0).copy()
        targets = []
        for gt_bin, (u, v) in [(3, (1, 1)), (12, (4, 2))]:
            one_hot = np.zeros(16)
            one_hot[gt_bin] = 1.0
            depth_map[:, v, u] = one_hot
            targets.append(DepthTarget(u, v, self.SPEC.midpoints()[gt_bin], 1.5))
        result = one_to_many_loss(depth_map, targets, self.SPEC, LossConfig())
        assert result.total == 0.0
        # perturbing any neighborhood away from one-hot makes it positive
        depth_map[:, 1, 1] = np.full(16, 1.0 / 16)
        result = one_to_many_loss(depth_map, targets, self.SPEC, LossConfig())
        assert result.total > 0.0

    def test_rejects_unnormalized_map(self):
        bad = np.full((16, 3, 3), 0.2)
        with pytest.raises(ValueError, match="normalized"):
            one_to_many_loss(bad, [], self.SPEC, LossConfig())


@st.composite
def loss_instances(draw):
    """A random map, targets anywhere on it (depths past both ends of the
    bin range included; every radius 0, one-to-one, in about half the
    instances) and a loss configuration."""
    seed = draw(st.integers(0, 2**32 - 1))
    num_bins = draw(st.integers(2, 12))
    height = draw(st.integers(1, 9))
    width = draw(st.integers(1, 9))
    rng = np.random.default_rng(seed)
    depth_map = softmax(rng.normal(0.0, 2.0, size=(num_bins, height, width)), axis=0)
    max_radius = draw(st.sampled_from([0.0, 3.5]))
    targets = [
        DepthTarget(
            draw(st.integers(0, width - 1)),
            draw(st.integers(0, height - 1)),
            draw(st.floats(-2.0, num_bins + 2.0)),
            draw(st.floats(0.0, max_radius)),
        )
        for _ in range(draw(st.integers(0, 6)))
    ]
    cfg = LossConfig(
        lambda1=draw(st.floats(0.0, 1.0)),
        lambda2=draw(st.floats(0.0, 1.0)),
        neighborhood_agg=draw(st.sampled_from(["min", "max"])),
    )
    return depth_map, targets, DepthBinSpec(0.0, float(num_bins), num_bins), cfg


class TestLossMatchesReference:
    @given(loss_instances())
    @settings(max_examples=150, deadline=None)
    def test_selection_and_losses_match_the_per_target_loop(self, instance):
        depth_map, targets, spec, cfg = instance
        got = one_to_many_loss(depth_map, targets, spec, cfg)
        want = target_losses_reference(depth_map, targets, spec, cfg)
        assert len(got.per_target) == len(want)
        for per, (loss, pixel, num_pixels, losses) in zip(got.per_target, want):
            assert per.num_pixels == num_pixels
            assert per.loss == pytest.approx(loss, rel=1e-12, abs=0.0)
            ranked = np.sort(losses if cfg.neighborhood_agg == "min" else -losses)
            if ranked.size == 1 or ranked[1] - ranked[0] > 1e-9:
                assert per.pixel == pixel

    def test_first_candidate_wins_a_tie(self):
        spec = DepthBinSpec(0.0, 16.0, 16)
        result = one_to_many_loss(uniform_map(16, 5, 5), [DepthTarget(2, 2, 7.0, 1.5)], spec, LossConfig())
        assert result.per_target[0].pixel == (1, 1)
        assert result.per_target[0].num_pixels == 9

    def test_gradient_sits_on_the_selected_pixels(self):
        rng = np.random.default_rng(11)
        spec = DepthBinSpec(0.0, 12.0, 12)
        depth_map = softmax(rng.normal(size=(12, 7, 7)), axis=0)
        targets = [DepthTarget(1, 1, 3.0, 2.0), DepthTarget(5, 4, 9.5, 1.0), DepthTarget(5, 4, 2.0, 1.0)]
        for agg in ("min", "max"):
            cfg = LossConfig(neighborhood_agg=agg)
            selected = {t.pixel for t in one_to_many_loss(depth_map, targets, spec, cfg).per_target}
            grad = one_to_many_loss_grad(depth_map, targets, spec, cfg)
            touched = {(int(u), int(v)) for v, u in zip(*np.nonzero(np.any(grad != 0.0, axis=0)))}
            assert touched == selected


class TestTargetValidation:
    SPEC = DepthBinSpec(0.0, 16.0, 16)
    GOOD = DepthTarget(1, 1, 5.0, 1.0)

    @pytest.mark.parametrize(
        "bad",
        [
            DepthTarget(-1, 1, 5.0, 1.0),
            DepthTarget(1, 4, 5.0, 1.0),
            DepthTarget(4, 0, 5.0, 0.0),
            DepthTarget(1, 1, math.nan, 1.0),
            DepthTarget(1, 1, math.inf, 1.0),
            DepthTarget(1, 1, 5.0, -0.5),
            DepthTarget(1, 1, 5.0, math.nan),
            DepthTarget(1, 1, 5.0, math.inf),
        ],
    )
    def test_bad_target_is_named(self, bad):
        for fn in (one_to_many_loss, one_to_many_loss_grad):
            with pytest.raises(ValueError, match="target 1 "):
                fn(uniform_map(16, 4, 4), [self.GOOD, bad], self.SPEC, LossConfig())

    def test_table_with_nan_depth_is_rejected(self):
        table = np.array([[1.0, 1.0, 5.0, 1.0], [1.0, 1.0, math.nan, 1.0]])
        with pytest.raises(ValueError, match="target 1 "):
            one_to_many_loss(uniform_map(16, 4, 4), table, self.SPEC, LossConfig())

    def test_table_with_negative_radius_is_rejected(self):
        with pytest.raises(ValueError, match="target 0 "):
            one_to_many_loss_grad(uniform_map(16, 4, 4), np.array([[1.0, 1.0, 5.0, -1.0]]), self.SPEC, LossConfig())

    def test_fractional_pixel_is_rejected_by_the_loss(self):
        """A fractional u would be supervised at the pixel it truncates to."""
        table = np.array([[1.0, 1.0, 5.0, 1.0], [2.7, 1.0, 3.0, 0.0]])
        with pytest.raises(ValueError, match=r"^target 1 \(u, v, d_gt, radius\) = \(2\.7, .* whole-number pixel"):
            one_to_many_loss(uniform_map(16, 4, 4), table, self.SPEC, LossConfig())

    @pytest.mark.parametrize("radius", [0.0, 1.0])
    def test_fractional_pixel_is_rejected_by_the_gradient(self, radius):
        table = np.array([[1.0, 2.5, 5.0, radius]])
        with pytest.raises(ValueError, match=r"^target 0 .* whole-number pixel"):
            one_to_many_loss_grad(uniform_map(16, 4, 4), table, self.SPEC, LossConfig())


class TestDepthMapValidation:
    SPEC = DepthBinSpec(0.0, 4.0, 4)

    def test_nan_column_is_rejected(self):
        depth_map = uniform_map(4, 3, 3)
        depth_map[:, 2, 1] = math.nan
        with pytest.raises(ValueError, match=r"\(u=1, v=2\) is not normalized"):
            one_to_many_loss(depth_map, [], self.SPEC, LossConfig())

    def test_negative_probabilities_are_rejected(self):
        depth_map = uniform_map(4, 3, 3)
        depth_map[:, 0, 0] = [1.5, -0.5, 0.0, 0.0]
        with pytest.raises(ValueError, match="non-negative"):
            one_to_many_loss_grad(depth_map, [], self.SPEC, LossConfig())

    def test_wrong_bin_count_is_a_shape_error(self):
        with pytest.raises(ValueError, match=r"\(4, H, W\)"):
            one_to_many_loss(uniform_map(3, 2, 2), [], self.SPEC, LossConfig())


class TestNonFiniteInputs:
    def test_radar_point_rejects_non_finite_rcs(self):
        with pytest.raises(ValueError, match="RCS"):
            RadarPoint(0.0, 0.0, 10.0, rcs_dbsm=math.nan)

    def test_radius_takes_fixed_r_for_nan_rcs_and_rejects_infinite_rcs(self):
        cfg = RadiusConfig(fixed_r=1.5)
        assert neighborhood_radius(10.0, K, 8, cfg, rcs_dbsm=math.nan) == 1.5
        got = neighborhood_radius(np.array([10.0, 20.0]), K, 8, cfg, np.array([math.nan, 0.0]))
        assert got.tolist() == [1.5, neighborhood_radius(20.0, K, 8, cfg, rcs_dbsm=0.0)]
        for rcs in (math.inf, -math.inf):
            with pytest.raises(ValueError, match="RCS must be finite or NaN"):
                neighborhood_radius(10.0, K, 8, cfg, rcs_dbsm=rcs)

    def test_depth_bins_reject_an_infinite_width(self):
        with pytest.raises(ValueError, match=r"width d_max - d_min must be finite"):
            DepthBinSpec(-1e308, 1e308, 2)

    @pytest.mark.parametrize(
        "spec,d_gt,lambda2,what",
        [
            # the L1 term overflows
            (DepthBinSpec(0.0, 4.0, 2), 3e38, 1e300, "loss"),
            # 0 * inf: the L1 distance overflows and its weight is zero
            (DepthBinSpec(1e308, 1.5e308, 2), -1e308, 0.0, "loss"),
            # the loss is 5e307, its gradient 1e308 * 0.5 * 10 overflows
            (DepthBinSpec(0.0, 40.0, 2), 20.5, 1e308, "gradient"),
        ],
    )
    def test_loss_and_gradient_refuse_overflow(self, spec, d_gt, lambda2, what):
        depth_map = np.full((2, 4, 5), 0.5)
        cfg = LossConfig(lambda2=lambda2)
        message = "^" + re.escape(f"target 1 (u, v, d_gt, radius) = {(1.0, 1.0, d_gt, 1.0)} has a {what} that is not finite")
        # target 0 sits at the expected depth, so its loss and gradient are finite
        targets = [(0, 0, spec.d_min + (spec.d_max - spec.d_min) / 2, 0.0), (1, 1, d_gt, 1.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if what == "loss":
                with pytest.raises(ValueError, match=message):
                    one_to_many_loss(depth_map, targets, spec, cfg)
            else:
                assert math.isfinite(one_to_many_loss(depth_map, targets, spec, cfg).total)
            with pytest.raises(ValueError, match=message):
                one_to_many_loss_grad(depth_map, targets, spec, cfg)

    @pytest.mark.parametrize(
        "kwargs", [{"k": math.nan}, {"r_max": math.nan}, {"fixed_r": math.nan}]
    )
    def test_radius_config_rejects_nan(self, kwargs):
        with pytest.raises(ValueError):
            RadiusConfig(**kwargs)

    @pytest.mark.parametrize("name", ["k", "r_max", "fixed_r"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_radius_config_rejects_infinity(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value}$"):
            RadiusConfig(**{name: value})

    @pytest.mark.parametrize("agg", AGGREGATIONS)
    @pytest.mark.parametrize("radius", [1.35e154, 1e200, sys.float_info.max])
    def test_radius_that_squares_to_inf_selects_like_the_map_diagonal(self, radius, agg):
        """Past ~1.34e154 a radius squares to inf, which still compares
        right: the disk covers the map, as one the size of its diagonal does,
        and no overflow warning is printed."""
        spec, cfg = DepthBinSpec(0.0, 8.0, 4), LossConfig(neighborhood_agg=agg)
        depth_map = softmax(np.random.default_rng(3).normal(size=(4, 3, 3)), axis=0)
        diagonal = math.hypot(2.0, 2.0)

        def targets(r):
            return [(0.0, 1.0, 3.0, r), (2.0, 2.0, 5.5, 0.0), (1.0, 0.0, 1.0, r)]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = one_to_many_loss(depth_map, targets(radius), spec, cfg)
            grad = one_to_many_loss_grad(depth_map, targets(radius), spec, cfg)
            pixels = neighborhood_pixels(1, 1, radius, 3, 3)
        assert got == one_to_many_loss(depth_map, targets(diagonal), spec, cfg)
        assert [t.num_pixels for t in got.per_target] == [9, 1, 9]
        np.testing.assert_array_equal(grad, one_to_many_loss_grad(depth_map, targets(diagonal), spec, cfg))
        assert pixels == neighborhood_pixels(1, 1, diagonal, 3, 3) == [(u, v) for v in range(3) for u in range(3)]

    @pytest.mark.parametrize(
        "kwargs", [{"lambda1": math.nan}, {"lambda2": math.nan}, {"lambda1": math.inf}, {"lambda2": math.inf}]
    )
    def test_loss_config_rejects_nan_and_infinite_weights(self, kwargs):
        with pytest.raises(ValueError, match="finite and non-negative"):
            LossConfig(**kwargs)


class TestLossGradient:
    SPEC = DepthBinSpec(0.0, 12.0, 12)

    def test_zero_targets_zero_gradient(self):
        grad = one_to_many_loss_grad(uniform_map(12, 5, 5), [], self.SPEC, LossConfig())
        np.testing.assert_array_equal(grad, np.zeros((12, 5, 5)))

    def test_pixels_outside_neighborhoods_have_zero_gradient(self):
        rng = np.random.default_rng(2)
        depth_map = softmax(rng.normal(size=(12, 9, 9)), axis=0)
        targets = [DepthTarget(4, 4, 6.0, 1.0)]
        grad = one_to_many_loss_grad(depth_map, targets, self.SPEC, LossConfig())
        inside = {(4, 4), (3, 4), (5, 4), (4, 3), (4, 5)}
        for v in range(9):
            for u in range(9):
                if (u, v) not in inside:
                    np.testing.assert_array_equal(grad[:, v, u], np.zeros(12))

    def test_single_target_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(8, 5, 5))
        spec = DepthBinSpec(0.0, 8.0, 8)
        cfg = LossConfig()
        targets = (DepthTarget(2, 2, 4.7, 0.0),)
        from radarcam.gradcheck import GradCheckInstance

        inst = GradCheckInstance(logits, targets, spec, cfg)
        err = relative_error(analytic_grad(inst), finite_difference_grad(inst))
        assert err <= 1e-4

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, max_bins=10, max_size=8)
        err = relative_error(analytic_grad(inst), finite_difference_grad(inst))
        assert err <= 1e-4

    def test_gradient_descends(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(12, 6, 6))
        targets = [DepthTarget(2, 2, 5.0, 1.0), DepthTarget(4, 4, 9.0, 0.0)]
        cfg = LossConfig()
        base = one_to_many_loss(softmax(logits, axis=0), targets, self.SPEC, cfg).total
        grad = one_to_many_loss_grad(softmax(logits, axis=0), targets, self.SPEC, cfg)
        stepped = one_to_many_loss(
            softmax(logits - 0.1 * grad, axis=0), targets, self.SPEC, cfg
        ).total
        assert stepped < base


class TestTargetSerialization:
    def test_array_roundtrip(self):
        targets = (DepthTarget(3, 4, 12.5, 1.5), DepthTarget(0, 0, 3.0, 0.0))
        table = as_target_table(targets)
        assert table.dtype == np.float64
        assert table.tolist() == [[3.0, 4.0, 12.5, 1.5], [0.0, 0.0, 3.0, 0.0]]
        assert tuple(DepthTarget(int(u), int(v), d, r) for u, v, d, r in table.tolist()) == targets

    def test_empty_roundtrip(self):
        assert as_target_table(()).shape == (0, 4)

    @pytest.mark.parametrize("empty", [[], np.zeros((0, 4))])
    def test_any_empty_input_is_a_0_by_4_table(self, empty):
        assert as_target_table(empty).shape == (0, 4)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="N, 4"):
            as_target_table(np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [np.zeros(4), np.zeros((2, 4, 1)), [(1, 2, 3.0)]])
    def test_other_shapes_rejected(self, bad):
        with pytest.raises(ValueError, match="N, 4"):
            as_target_table(bad)

    @pytest.mark.parametrize("agg", ["min", "max"])
    @pytest.mark.parametrize("max_radius", [0.0, 3.0])
    def test_rows_and_table_give_identical_loss_and_gradient(self, agg, max_radius):
        rng = np.random.default_rng(19)
        spec = DepthBinSpec(0.0, 12.0, 12)
        depth_map = softmax(rng.normal(size=(12, 7, 8)), axis=0)
        u, v = rng.integers(0, 8, 9).tolist(), rng.integers(0, 7, 9).tolist()
        targets = tuple(map(DepthTarget, u, v, rng.uniform(0, 12, 9).tolist(), rng.uniform(0, max_radius, 9).tolist()))
        table = np.array(targets, dtype=np.float64)
        cfg = LossConfig(neighborhood_agg=agg)
        from_rows, from_table = (one_to_many_loss(depth_map, t, spec, cfg) for t in (targets, table))
        assert from_rows.total == from_table.total
        assert from_rows.per_target == from_table.per_target
        assert np.array_equal(
            one_to_many_loss_grad(depth_map, targets, spec, cfg), one_to_many_loss_grad(depth_map, table, spec, cfg)
        )


NAN = math.nan


class TestRadarCsv:
    def test_full_columns(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,z,rcs_dbsm,doppler\n1.0,2.0,3.0,5.5,-0.25\n4,5,6,,\n")
        pts = read_radar_points_csv(path)
        np.testing.assert_array_equal(pts, [[1.0, 2.0, 3.0, 5.5], [4.0, 5.0, 6.0, NAN]])
        assert pts.dtype == np.float64

    def test_minimal_columns(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,z\n1,2,3\n")
        np.testing.assert_array_equal(read_radar_points_csv(path), [[1.0, 2.0, 3.0, NAN]])

    def test_empty_file_has_no_points(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,z,rcs_dbsm,doppler\n")
        assert read_radar_points_csv(path).shape == (0, 4)

    def test_padded_header_names_keep_their_columns(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x, y, z, rcs_dbsm\n1,2,3,4.5\n")
        np.testing.assert_array_equal(read_radar_points_csv(path), [[1.0, 2.0, 3.0, 4.5]])

    def test_missing_trailing_optional_cells_are_absent(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,z,rcs_dbsm,doppler\n1,2,3\n")
        np.testing.assert_array_equal(read_radar_points_csv(path), [[1.0, 2.0, 3.0, NAN]])

    def test_rows_build_the_targets_the_radar_points_do(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,z,rcs_dbsm\n0.5,0.1,10,3\n-1,0.2,20,\n0,0,-4,1\n")
        points = read_radar_points_csv(path)
        calib, cfg = make_calib(), RadiusConfig(fixed_r=1.5)
        rows = [RadarPoint(x, y, z, None if math.isnan(r) else r) for x, y, z, r in points.tolist()]
        table, kept = _target_table(points, calib, 8, [(cfg, True)])
        assert kept.tolist() == [True, True, False]
        assert table.tolist() == as_target_table(build_depth_targets(rows, calib, 8, cfg).targets).tolist()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("x,y,z,rcs_dbsm\n1,2,3,4\n1,2\n", "line 3: a row needs x, y and z"),
            ("x,y,z\n1,2,3,4\n", "line 2: a row needs"),
            ("x,y,z\n1,2,abc\n", "line 2: could not convert"),
            ("x,y,z,rcs_dbsm\n1,2,3,inf\n", "line 2: radar point RCS"),
            ("x,y,z,rcs_dbsm,doppler\n1,2,3,4,inf\n", "line 2: radar point Doppler"),
        ],
    )
    def test_bad_rows_name_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "pts.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"pts.csv, {message}"):
            read_radar_points_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_radar_points_csv(path)

    @pytest.mark.parametrize(
        "header,column",
        [("x,y,z,rcs_dbsm,rcs_dbsm", "rcs_dbsm"), ("x,y,z,doppler, doppler", "doppler"), ("x,y,z,x", "x")],
    )
    def test_header_that_repeats_a_column_is_rejected(self, tmp_path, header, column):
        path = tmp_path / "pts.csv"
        path.write_text(f"{header}\n0.5,0.1,10,abc,5\n")
        with pytest.raises(ValueError, match=f"pts.csv: the header repeats the column '{column}'"):
            read_radar_points_csv(path)
