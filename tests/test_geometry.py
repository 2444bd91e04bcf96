"""Tests for projection, transforms and the radar position-error model."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from radarcam.geometry import (
    AngularResolution,
    BehindCameraError,
    CameraIntrinsics,
    RigidTransform,
    SensorCalibration,
    camera_to_spherical,
    empirical_projection_error,
    feature_cell,
    max_pixel_position_error,
    project_points,
    project_to_pixel,
    read_json,
    sampler_coordinate,
    scale_intrinsics,
    spherical_to_camera,
)
from radarcam.depth_supervision import DepthBinSpec, RadiusConfig, _target_table
from radarcam.sim import EMPTY_BOX, Scene, SceneExtents, generate_scene
from radarcam.tensor_ops import ShapeError
from radarcam.view_transform import VoxelGridSpec, sample_cells

from helpers import assert_same_bits

K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)


class TestProjection:
    def test_optical_axis(self):
        assert project_to_pixel((0.0, 0.0, 10.0), K) == (320.0, 240.0, 10.0)

    def test_hand_example(self):
        u, v, d = project_to_pixel((1.0, 0.0, 10.0), K)
        assert (u, v, d) == (370.0, 240.0, 10.0)

    def test_behind_camera_raises(self):
        with pytest.raises(BehindCameraError):
            project_to_pixel((0.0, 0.0, -1.0), K)
        with pytest.raises(BehindCameraError):
            project_to_pixel((1.0, 1.0, 0.0), K)

    @given(st.lists(st.tuples(st.floats(-30, 30), st.floats(-20, 20), st.floats(-5, 500)), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_project_points_is_the_scalar_formula_per_point(self, points):
        cam = np.array(points, dtype=np.float64).reshape(-1, 3)
        u, v, depth, in_front = project_points(cam, K)
        for i, (x, y, z) in enumerate(points):
            assert bool(in_front[i]) == (z > 0) and depth[i] == z
            if z > 0:
                assert (u[i], v[i]) == (K.fx * (x / z) + K.cx, K.fy * (y / z) + K.cy)
                assert project_to_pixel((x, y, z), K) == (u[i], v[i], z)

    @given(
        st.floats(-30, 30), st.floats(-20, 20), st.floats(0.1, 500),
    )
    @settings(max_examples=100, deadline=None)
    def test_unproject_roundtrip(self, x, y, z):
        u, v, d = project_to_pixel((x, y, z), K)
        back = ((u - K.cx) * d / K.fx, (v - K.cy) * d / K.fy, d)
        u2, v2, d2 = project_to_pixel(back, K)
        assert abs(u2 - u) < 1e-9 and abs(v2 - v) < 1e-9 and abs(d2 - d) < 1e-9

    @given(st.floats(-30, 30), st.floats(-20, 20), st.floats(0.1, 500), st.integers(1, 32))
    @settings(max_examples=100, deadline=None)
    def test_scaled_projection_commutes(self, x, y, z, s):
        u, v, d = project_to_pixel((x, y, z), K)
        us, vs, ds = project_to_pixel((x, y, z), scale_intrinsics(K, s))
        assert abs(us - u / s) < 1e-9
        assert abs(vs - v / s) < 1e-9
        assert ds == d


class TestRigidTransform:
    def test_identity(self):
        p = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(RigidTransform.identity().apply(p), p)

    def test_pure_translation(self):
        t = RigidTransform(np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(t.apply(np.zeros(3)), [1.0, 2.0, 3.0])

    def test_quarter_turn_about_z(self):
        c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        out = RigidTransform(rot, np.zeros(3)).apply((1.0, 0.0, 0.0))
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-9)

    def test_inverse_undoes_the_transform(self):
        c, s = math.cos(0.3), math.sin(0.3)
        t = RigidTransform(np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]), np.array([0.5, -1.0, 2.0]))
        pts = np.random.default_rng(1).normal(size=(10, 3)) * 20.0
        np.testing.assert_allclose(t.inverse().apply_many(t.apply_many(pts)), pts, rtol=0, atol=1e-12)
        np.testing.assert_allclose(t.apply_many(t.inverse().apply_many(pts)), pts, rtol=0, atol=1e-12)
        # the identity's inverse changes no bit
        assert RigidTransform.identity().inverse().apply_many(pts).tolist() == pts.tolist()

    def test_rejects_non_orthonormal_rotation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))

    def test_rejects_reflection(self):
        flip = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="determinant"):
            RigidTransform(flip, np.zeros(3))

    def test_apply_many_is_the_scalar_coordinate_sums_bitwise(self):
        """The target-build oracle, ``tests/oracles.py::build_depth_targets_reference``,
        transforms each point as ``row[0] * x + row[1] * y + row[2] * z + t``,
        and the target tests compare its results by ``float.hex``."""
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))  # a rotation with no zero entry
        t = RigidTransform(q * np.sign(np.linalg.det(q)), rng.normal(size=3))
        pts = rng.normal(size=(200, 3)) * 30.0
        r, tr = t.rotation.tolist(), t.translation.tolist()
        want = [[row[0] * x + row[1] * y + row[2] * z + ti for row, ti in zip(r, tr)] for x, y, z in pts.tolist()]
        got = t.apply_many(pts).tolist()
        assert [list(map(float.hex, p)) for p in got] == [list(map(float.hex, p)) for p in want]


class TestSpherical:
    def test_forward_only(self):
        np.testing.assert_allclose(spherical_to_camera(10.0, 0.0, 0.0), [0.0, 0.0, 10.0], atol=1e-12)

    def test_near_lateral_limit(self):
        eps = 1e-6
        x, _, _ = spherical_to_camera(10.0, math.pi / 2 - eps, 0.0)
        assert x == pytest.approx(10.0, abs=1e-4)

    def test_thirty_degree_example(self):
        x, _, z = spherical_to_camera(2.0, math.radians(30.0), 0.0)
        assert z == pytest.approx(1.7320508, abs=1e-6)
        assert x == pytest.approx(1.0, abs=1e-9)

    @given(st.floats(0.1, 200), st.floats(-1.2, 1.2), st.floats(-1.2, 1.2))
    @settings(max_examples=100, deadline=None)
    def test_spherical_roundtrip(self, rng_m, az, el):
        rho, azimuth, elevation = camera_to_spherical(*spherical_to_camera(rng_m, az, el))
        assert rho == pytest.approx(rng_m, rel=1e-12)
        assert azimuth == pytest.approx(az, abs=1e-12)
        assert elevation == pytest.approx(el, abs=1e-12)

    def test_elevation_points_up_and_the_origin_has_zero_angles(self):
        _, y, _ = spherical_to_camera(10.0, 0.0, 0.1)
        assert y < 0.0  # camera y points down
        assert camera_to_spherical(0.0, 0.0, 0.0) == (0.0, 0.0, 0.0)

    def test_invalid_angles_rejected(self):
        res = AngularResolution.from_degrees(1, 1)
        with pytest.raises(ValueError):
            empirical_projection_error(1.0, math.pi / 2, 0.0, res, K)
        with pytest.raises(ValueError):
            empirical_projection_error(-1.0, 0.0, 0.0, res, K)

    @pytest.mark.parametrize(
        "point,message",
        [
            ((1.0, 0.0, -math.pi / 2), "elevation must be strictly inside"),
            (([5.0, 6.0, math.nan], 0.0, 0.0), "range must be non-negative, got nan at element 2"),
            ((0.0, 0.0, 0.0), "point 0 has non-positive depth"),
            ((5.0, [0.0, 0.1, 2.0, -2.0], 0.0), "azimuth must be strictly inside [+]-pi/2, got 2.0 at element 2"),
        ],
    )
    def test_invalid_points_rejected_naming_the_first(self, point, message):
        with pytest.raises(ValueError, match=message):
            empirical_projection_error(*point, AngularResolution.from_degrees(1, 1), K)


def spherical_to_camera_scalar(rho, azimuth, elevation):
    """The scalar formulas on Python floats, in the operation order the array code keeps."""
    cos_el = np.cos(elevation)
    return rho * cos_el * np.sin(azimuth), -(rho * np.sin(elevation)), rho * cos_el * np.cos(azimuth)


def camera_to_spherical_scalar(x, y, z):
    rho = math.sqrt(z * z + x * x + y * y)
    return rho, np.arctan2(x, z), np.arcsin(-y / rho) if rho > 0 else 0.0


def hexes(values):
    return [float(v).hex() for v in values]


HALF_PI = math.pi / 2
NEAR_HALF_PI = math.nextafter(HALF_PI, 0.0)
SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
ANGLES = st.one_of(SIGNED_ZEROS, st.floats(-math.pi, math.pi), st.sampled_from([NEAR_HALF_PI, -NEAR_HALF_PI]))
ELEVATIONS = st.one_of(
    SIGNED_ZEROS,
    st.floats(-HALF_PI, HALF_PI),
    st.sampled_from([HALF_PI, -HALF_PI, NEAR_HALF_PI, -NEAR_HALF_PI]),
)
RANGES = st.one_of(SIGNED_ZEROS, st.floats(0.0, 1e4))
# Away from zero, coordinates stay above 1e-6 so that y * y keeps every bit
# and |y| / rho stays within asin's domain.
COORDINATES = st.one_of(SIGNED_ZEROS, st.floats(1e-6, 1e4), st.floats(-1e4, -1e-6))


class TestSphericalArraysEqualTheScalarFormulas:
    """The array conversions keep the scalar operation order, so they equal
    the scalar formulas bit for bit, for arrays and for Python floats alike."""

    @given(st.lists(st.tuples(RANGES, ANGLES, ELEVATIONS), max_size=40))
    @example([(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (1e4, NEAR_HALF_PI, -NEAR_HALF_PI), (5.0, -0.0, HALF_PI)])
    @settings(max_examples=200, deadline=None)
    def test_spherical_to_camera(self, points):
        rho, az, el = np.array(points, dtype=np.float64).reshape(-1, 3).T
        got = np.stack(spherical_to_camera(rho, az, el), axis=-1)
        want = [c for p in points for c in spherical_to_camera_scalar(*p)]
        assert hexes(got.ravel()) == hexes(want)
        for point in points:
            assert hexes(spherical_to_camera(*point)) == hexes(spherical_to_camera_scalar(*point))

    @given(st.lists(st.tuples(COORDINATES, COORDINATES, COORDINATES), max_size=40))
    @example([(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (-0.0, 0.0, -0.0), (0.0, -1e4, 1e-6), (-1e4, 1e4, -0.0)])
    @settings(max_examples=200, deadline=None)
    def test_camera_to_spherical(self, points):
        x, y, z = np.array(points, dtype=np.float64).reshape(-1, 3).T
        got = np.stack(camera_to_spherical(x, y, z), axis=-1)
        want = [c for p in points for c in camera_to_spherical_scalar(*p)]
        assert hexes(got.ravel()) == hexes(want)
        for point in points:
            assert hexes(camera_to_spherical(*point)) == hexes(camera_to_spherical_scalar(*point))


class TestNumpyFunctionsGiveAnElementItsBitsAnywhere:
    """The library calls NumPy's trigonometry and ``log10`` on arrays, and
    the per-point oracles (``tests/oracles.py``, the scalar formulas above)
    call the same functions on Python floats. Their ``float.hex`` equality
    rests on each function giving an element the same bits on its own, in a
    contiguous array and in a strided view; a NumPy build whose vectorised
    loop rounds otherwise fails here first."""

    @staticmethod
    def inputs(name, n=4096):
        rng = np.random.default_rng(20260)
        if name == "arcsin":
            return (rng.uniform(-1.0, 1.0, n),)
        if name == "log10":
            return (np.exp(rng.uniform(-20.0, 20.0, n)),)
        if name == "arctan2":
            return rng.uniform(-50.0, 50.0, n), rng.uniform(-50.0, 50.0, n)
        return (np.concatenate([rng.uniform(-1.6, 1.6, n // 2), rng.uniform(-1e3, 1e3, n - n // 2)]),)

    @pytest.mark.parametrize("name", ["sin", "cos", "tan", "arcsin", "arctan2", "log10"])
    def test_a_python_float_gets_the_bits_it_gets_inside_an_array(self, name):
        fn, args = getattr(np, name), self.inputs(name)
        contiguous = hexes(fn(*args))
        strided = hexes(fn(*(np.repeat(a, 3)[1::3] for a in args)))
        alone = hexes(fn(*xs) for xs in zip(*(a.tolist() for a in args)))
        differ = [i for i, (c, s, a) in enumerate(zip(contiguous, strided, alone)) if not c == s == a]
        assert not differ, (
            f"np.{name} gives {len(differ)} of {len(alone)} inputs other bits inside an array than on its own, "
            f"first at {[float(a[differ[0]]) for a in args]}: the per-point oracles no longer equal the library bit for bit"
        )


class TestScaleIntrinsics:
    def test_unit_scale_is_identity(self):
        assert scale_intrinsics(K, 1) == K

    def test_divides_all_fields(self):
        k8 = scale_intrinsics(CameraIntrinsics(1600.0, 1200.0, 640.0, 480.0), 8)
        assert (k8.fx, k8.fy, k8.cx, k8.cy) == (200.0, 150.0, 80.0, 60.0)

    def test_roundtrip(self):
        k = scale_intrinsics(scale_intrinsics(K, 8), 1.0 / 8.0)
        assert k.fx == pytest.approx(K.fx, abs=1e-12)
        assert k.cy == pytest.approx(K.cy, abs=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            scale_intrinsics(K, 0)


def symmetric_calibration(width=96, height=64, fx=40.0, cy=29.0):
    """A calibration that mirrors left-right: cx = W/2 and identity extrinsics."""
    return SensorCalibration(
        CameraIntrinsics(fx, fx, width / 2, cy), RigidTransform.identity(), width, height, AngularResolution(1.0, 1.0)
    )


def random_rotation(rng):
    """A proper rotation about a random axis by a random angle (Rodrigues)."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    cross = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    angle = rng.uniform(-0.3, 0.3)
    return np.eye(3) + math.sin(angle) * cross + (1.0 - math.cos(angle)) * cross @ cross


class TestPixelConvention:
    """Image pixel i spans [i, i+1) and feature cell j spans [j*s, (j+1)*s):
    targets, scene boxes and the VT's samplers all place a point by it."""

    def test_feature_cell_floors_and_writes_no_negative_zero(self):
        u = np.array([-0.0, 0.0, 7.999, 8.0, -1e-9, 95.5])
        assert_same_bits(feature_cell(u, 8), np.array([0.0, 0.0, 0.0, 1.0, -1.0, 11.0]))

    def test_a_cell_centre_is_read_on_its_integer(self):
        s = 8
        centres = (np.arange(12) + 0.5) * s
        assert_same_bits(sampler_coordinate(centres / s), np.arange(12, dtype=np.float64))
        assert_same_bits(feature_cell(centres, s), np.arange(12, dtype=np.float64))

    def test_feature_shape_floors_the_image(self):
        calib = symmetric_calibration(width=97, height=63)
        assert calib.feature_shape(1) == (63, 97)
        assert calib.feature_shape(8) == (7, 12)
        assert calib.feature_shape(100) == (0, 0)
        with pytest.raises(ValueError, match="^stride must be a positive integer, got 0$"):
            calib.feature_shape(0)

    @pytest.mark.parametrize("seed", range(3))
    def test_the_vt_volume_mirrors_with_the_image(self, seed):
        # A left-right mirror about the optical axis: the image features, the
        # depth volume and the occupancy flip along W and X. The samplers read
        # each cell at its centre, so the sampled volume flips with them.
        rng = np.random.default_rng(seed)
        c, d, s = 3, 5, 8
        calib = symmetric_calibration()
        h, w = calib.feature_shape(s)
        grid = VoxelGridSpec((-6.0, 6.0, 12), (-1.0, 1.0, 2), (2.0, 30.0, 14))
        nz, ny, nx = grid.counts
        bins = DepthBinSpec(0.0, 32.0, d)
        f_pv = rng.normal(size=(c, h, w))
        depth = np.moveaxis(rng.dirichlet(np.ones(d), size=(h, w)), -1, 0)
        occupancy = rng.uniform(size=grid.counts)

        def volume(f_pv, depth, occupancy):
            out = np.zeros((ny * nx, nz * 2 * c))
            chunks = sample_cells(
                f_pv, depth, bins, s, occupancy, grid, calib.intrinsics, calib.radar_to_camera, 2 * c * nz
            )
            for cells, rows in chunks:
                out[cells] = rows
            return out.reshape(ny, nx, -1)

        want = volume(f_pv, depth, occupancy)
        got = volume(f_pv[..., ::-1], depth[..., ::-1], occupancy[..., ::-1])
        assert np.abs(want).max() > 0.5
        np.testing.assert_allclose(got, want[:, ::-1], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_targets_and_scene_boxes_mirror_with_the_image(self, seed):
        rng = np.random.default_rng(seed)
        s = 8
        calib = symmetric_calibration()
        _, w = calib.feature_shape(s)
        points = np.column_stack([rng.uniform(-30, 30, (400, 2)), rng.uniform(-5, 40, 400), rng.uniform(-10, 20, 400)])
        mirror = points * [-1.0, 1.0, 1.0, 1.0]
        settings = [(RadiusConfig(), True)]
        table, keep = _target_table(points, calib, s, settings)
        table_m, keep_m = _target_table(mirror, calib, s, settings)
        assert 0 < keep.sum() < keep.size
        assert_same_bits(keep_m, keep)
        # the mirror takes cell u to cell W/s - 1 - u
        assert_same_bits(table_m[:, 0], w - 1 - table[:, 0])
        assert_same_bits(table_m[:, 1:], table[:, 1:])
        scene = generate_scene([seed], 40, SceneExtents(), calib, s)
        boxes = scene.boxes
        boxes_m = Scene(scene.table * [-1.0, 1.0, 1.0, 1.0, 1.0], s, calib).boxes
        empty = (boxes[..., :4] == EMPTY_BOX).all(axis=-1)
        assert 0 < (~empty).sum()
        assert_same_bits(boxes_m[empty], boxes[empty])
        assert_same_bits(boxes_m[~empty][:, [1, 0]], w - 1 - boxes[~empty][:, :2])
        assert_same_bits(boxes_m[..., 2:], boxes[..., 2:])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_doubling_the_image_and_the_stride_moves_no_bit(self, seed):
        # fx, fy, cx, cy, the image and the stride all times 2: every cell,
        # every kept point and every box stays, bit for bit.
        rng = np.random.default_rng(seed)
        k = CameraIntrinsics(*rng.uniform(100, 2000, 2), *rng.uniform(0, 800, 2))
        width, height = (int(x) for x in rng.integers(1, 900, 2))
        s = int(rng.integers(1, 33))
        extrinsics = RigidTransform(random_rotation(rng), rng.normal(0.0, 2.0, 3))
        calib = SensorCalibration(k, extrinsics, width, height, AngularResolution(1.0, 1.0))
        k2 = CameraIntrinsics(2 * k.fx, 2 * k.fy, 2 * k.cx, 2 * k.cy)
        calib2 = SensorCalibration(k2, extrinsics, 2 * width, 2 * height, AngularResolution(1.0, 1.0))
        points = np.column_stack([rng.uniform(-20, 20, (200, 2)), rng.uniform(-5, 60, 200), rng.uniform(-10, 20, 200)])
        points[rng.random(200) < 0.3, 3] = np.nan  # points without RCS
        settings = [(RadiusConfig(), True), (RadiusConfig(k=0.3, r_max=9.0), False)]
        table, keep = _target_table(points, calib, s, settings)
        table2, keep2 = _target_table(points, calib2, 2 * s, settings)
        assert_same_bits(keep2, keep)
        assert_same_bits(table2, table)
        scene = generate_scene([seed], 12, SceneExtents(), calib, s)
        assert_same_bits(Scene(scene.table, 2 * s, calib2).boxes, scene.boxes)


class TestPositionErrorModel:
    RES = AngularResolution.from_degrees(1.0, 1.0)

    def test_analytic_horizontal_error(self):
        e_u, _, _ = max_pixel_position_error(K, self.RES)
        assert e_u == pytest.approx(8.7266, abs=1e-3)

    def test_equal_resolutions_combine_with_sqrt2(self):
        e_u, e_v, e = max_pixel_position_error(K, self.RES)
        assert e == pytest.approx(e_u * math.sqrt(2.0), rel=1e-12)
        assert e_v == pytest.approx(e_u, rel=1e-12)

    def test_linear_in_focal_length(self):
        double = CameraIntrinsics(K.fx * 2, K.fy * 2, K.cx, K.cy)
        base = max_pixel_position_error(K, self.RES)
        scaled = max_pixel_position_error(double, self.RES)
        for a, b in zip(scaled, base):
            assert a == pytest.approx(2.0 * b, rel=1e-12)

    def test_anisotropic_uses_each_axis(self):
        k = CameraIntrinsics(400.0, 900.0, 0.0, 0.0)
        e_u, e_v, e = max_pixel_position_error(k, self.RES)
        assert e_u == pytest.approx(400.0 * self.RES.delta_theta)
        assert e_v == pytest.approx(900.0 * self.RES.delta_phi)
        assert e == pytest.approx(600.0 * math.hypot(self.RES.delta_theta, self.RES.delta_phi))

    def test_error_ratio_is_exactly_delta_theta(self):
        # lateral displacement over depth cancels all position terms
        err = empirical_projection_error(7.0, 0.0, 0.0, self.RES, K)
        assert err / K.fx == pytest.approx(self.RES.delta_theta, rel=1e-12)

    def test_range_independence_within_budget(self):
        e_u = K.fx * self.RES.delta_theta
        rho, theta_deg, phi_deg = np.meshgrid(
            [5.0, 10.0, 20.0, 50.0, 100.0], np.arange(-20, 21, 4), [-10, -5, 0, 5, 10], indexing="ij"
        )
        err = empirical_projection_error(rho, np.radians(theta_deg), np.radians(phi_deg), self.RES, K)
        assert err.shape == rho.shape
        assert np.all(np.abs(err - e_u) / e_u < 0.02)

    def test_a_grid_equals_its_points_one_by_one(self):
        rho, azimuth, elevation = np.array([5.0, 37.5, 100.0]), np.array([-0.3, 0.05, 0.2]), np.array([[-0.1], [0.15]])
        grid = empirical_projection_error(rho, azimuth, elevation, self.RES, K)
        for (j, i), got in np.ndenumerate(grid):
            assert got == empirical_projection_error(rho[i], azimuth[i], elevation[j, 0], self.RES, K)

    def test_identical_at_near_and_far_range(self):
        near = empirical_projection_error(5.0, 0.0, 0.0, self.RES, K)
        far = empirical_projection_error(100.0, 0.0, 0.0, self.RES, K)
        assert near == pytest.approx(far, rel=1e-2)
        assert near == pytest.approx(K.fx * self.RES.delta_theta, rel=1e-2)

    def test_zero_resolution_gives_zero_error(self):
        res = AngularResolution(0.0, 0.0)
        assert empirical_projection_error(10.0, 0.2, 0.1, res, K) == 0.0


class TestSensorCalibration:
    def test_json_roundtrip(self, tmp_path):
        calib = SensorCalibration(
            intrinsics=K,
            radar_to_camera=RigidTransform.identity(),
            image_width=640,
            image_height=480,
            angular_resolution=AngularResolution.from_degrees(1.0, 0.5),
        )
        path = tmp_path / "calib.json"
        path.write_text(json.dumps(calib.to_dict()))
        back = SensorCalibration.load(path)
        assert back.intrinsics == calib.intrinsics
        assert back.image_width == 640
        np.testing.assert_allclose(
            back.radar_to_camera.matrix(), calib.radar_to_camera.matrix(), atol=1e-12
        )
        assert back.angular_resolution.delta_phi == pytest.approx(
            calib.angular_resolution.delta_phi
        )

    @pytest.mark.parametrize("tenths", range(1, 101))
    def test_resolution_in_degrees_round_trips_exactly(self, tenths):
        """0.1 to 10.0 degrees in steps of 0.1: a calibration writes back the
        degrees it read, bit for bit; radians are derived, never stored."""
        data = SensorCalibration(K, RigidTransform.identity(), 10, 10, AngularResolution(0.0, 0.0)).to_dict()
        data.update(delta_theta_deg=tenths / 10, delta_phi_deg=tenths / 10)
        assert read_json(SensorCalibration, data, "calibration").to_dict() == data

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match=r"^calibration\.fy must be a number, got None$"):
            read_json(SensorCalibration, {"fx": 1.0}, "calibration")

    def test_a_key_outside_the_nine_is_rejected(self, tmp_path):
        data = {**SensorCalibration(K, RigidTransform.identity(), 10, 10, AngularResolution(0.0, 0.0)).to_dict(), "skew": 0}
        path = tmp_path / "calib.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="^calibration has no key 'skew'$"):
            SensorCalibration.load(path)

    @pytest.mark.parametrize(
        "key,index,value,message",
        [
            ("fx", None, math.inf, "fx"),
            ("fy", None, math.inf, "fy"),
            ("cx", None, math.nan, "cx"),
            ("cy", None, -math.inf, "cy"),
            ("radar_to_camera", 0, math.nan, "rotation"),
            ("radar_to_camera", 3, math.nan, "translation"),
            ("radar_to_camera", 12, math.nan, "last row"),
            ("delta_theta_deg", None, math.nan, "delta_theta"),
            ("image_width", None, math.inf, "image_width"),
        ],
    )
    def test_non_finite_values_are_rejected(self, key, index, value, message):
        data = SensorCalibration(
            K, RigidTransform.identity(), 10, 10, AngularResolution.from_degrees(1, 1)
        ).to_dict()
        if index is None:
            data[key] = value
        else:
            data[key][index] = value
        with pytest.raises(ValueError, match=message):
            read_json(SensorCalibration, data, "calibration")

    @pytest.mark.parametrize("key", ["delta_theta_deg", "delta_phi_deg"])
    def test_a_negative_resolution_is_named_in_degrees(self, key):
        data = SensorCalibration(
            K, RigidTransform.identity(), 10, 10, AngularResolution.from_degrees(1, 1)
        ).to_dict()
        data[key] = -1
        message = f"^calibration: angular resolution {key} must be finite and non-negative, got -1.0$"
        with pytest.raises(ValueError, match=message):
            read_json(SensorCalibration, data, "calibration")

    def test_bad_extrinsics_length_rejected(self):
        data = SensorCalibration(
            K, RigidTransform.identity(), 10, 10, AngularResolution.from_degrees(1, 1)
        ).to_dict()
        data["radar_to_camera"] = [1, 0, 0]
        with pytest.raises(ValueError, match=r"^calibration\.radar_to_camera must hold 16 row-major numbers, got \[1, 0, 0\]$"):
            read_json(SensorCalibration, data, "calibration")


@dataclasses.dataclass(frozen=True)
class Inner:
    k: float
    n: int = 3


@dataclasses.dataclass(frozen=True)
class Outer:
    name: str
    flag: bool
    inner: Inner
    items: tuple[Inner, ...] = ()
    triple: tuple[float, float, int] = (0.0, 1.0, 2)


@dataclasses.dataclass(frozen=True)
class Flat:
    inner: Inner = dataclasses.field(metadata={"flat": True})
    name: str = "a"


@dataclasses.dataclass(frozen=True)
class Checked:
    width: int

    def __post_init__(self):
        if self.width < 1:
            raise ShapeError(f"width must be positive, got {self.width}")


@dataclasses.dataclass(frozen=True)
class Holder:
    items: tuple[Checked, ...]


class TestReadJson:
    """The rules of the one JSON reader, on dataclasses of every field kind."""

    MINIMAL = {"name": "a", "flag": True, "inner": {"k": 1}}

    def fails(self, tp, value, message, name=""):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            read_json(tp, value, name)

    def test_numeric_strings_convert_and_a_fraction_fails_as_an_int(self):
        assert read_json(Inner, {"k": "2.5", "n": "4"}, "inner") == Inner(2.5, 4)
        assert read_json(tuple[float, float, int], ["1e3", 2, 7.0], "triple") == (1000.0, 2.0, 7)
        self.fails(Inner, {"k": 1, "n": 4.5}, "inner.n must be a whole number, got 4.5", "inner")

    def test_strings_and_booleans_are_their_json_types(self):
        self.fails(bool, "false", "flag must be true or false, got 'false'", "flag")
        self.fails(bool, 0, "flag must be true or false, got 0", "flag")
        self.fails(str, 5, "name must be a string, got 5", "name")
        assert read_json(bool, False, "flag") is False and read_json(str, "x", "name") == "x"

    def test_null_is_refused_for_a_number(self):
        self.fails(Inner, {"k": None}, "k must be a number, got None")

    def test_a_fixed_tuple_of_the_wrong_length_fails(self):
        self.fails(Outer, {**self.MINIMAL, "triple": [0, 1]}, "triple must be a JSON list of 3 items, got [0, 1]")
        self.fails(Outer, {**self.MINIMAL, "triple": {"0": 1}}, "triple must be a JSON list, got {'0': 1}")

    def test_names_are_paths_of_indices_and_fields(self):
        items = [{"k": 1}, {"k": "x"}]
        self.fails(Outer, {**self.MINIMAL, "items": items}, "items[1].k must be a number, got 'x'")
        self.fails(Outer, {**self.MINIMAL, "items": items}, "cfg.items[1].k must be a number, got 'x'", "cfg")
        self.fails(Outer, {**self.MINIMAL, "inner": {"k": [1]}}, "cfg.inner.k must be a number, got [1]", "cfg")
        self.fails(Outer, {**self.MINIMAL, "items": [5]}, "items[0] must be a JSON object, got 5")

    def test_an_absent_key_takes_the_default_and_an_absent_required_key_fails_as_null(self):
        assert read_json(Outer, self.MINIMAL, "") == Outer("a", True, Inner(1.0))
        for key, message in (
            ("name", "name must be a string, got None"),
            ("flag", "flag must be true or false, got None"),
            ("inner", "inner must be a JSON object, got None"),
        ):
            self.fails(Outer, {k: v for k, v in self.MINIMAL.items() if k != key}, message)

    def test_a_key_that_names_no_field_fails(self):
        self.fails(Outer, {**self.MINIMAL, "extra": 1}, "the top level has no key 'extra'")
        self.fails(Outer, {**self.MINIMAL, "inner": {"k": 1, "m": 2}}, "cfg.inner has no key 'm'", "cfg")

    def test_a_range_check_keeps_its_type_and_is_named_by_its_objects_path(self):
        with pytest.raises(ShapeError, match=r"^cfg\.items\[1\]: width must be positive, got 0$"):
            read_json(Holder, {"items": [{"width": 2}, {"width": 0}]}, "cfg")
        with pytest.raises(ShapeError, match=r"^items\[0\]: width must be positive, got -1$"):
            read_json(Holder, {"items": [{"width": -1}]}, "")
        # At the top level the message is the check's own.
        with pytest.raises(ShapeError, match=r"^width must be positive, got 0$"):
            read_json(Checked, {"width": 0}, "")

    def test_an_integer_too_large_for_a_float_fails_naming_its_key(self):
        for tp in (int, float):
            self.fails(tp, 10**400, "n must be within the float range, got an integer of 401 digits", "n")
        self.fails(Inner, {"k": -(10**309)}, "inner.k must be within the float range, got an integer of 310 digits", "inner")
        assert read_json(int, 10**308, "n") == 10**308

    def test_a_flat_fields_keys_are_its_parents(self):
        assert read_json(Flat, {"k": 2, "n": 5, "name": "b"}, "") == Flat(Inner(2.0, 5), "b")
        assert read_json(Flat, {"k": 2}, "") == Flat(Inner(2.0))
        self.fails(Flat, {"name": "b"}, "cfg.k must be a number, got None", "cfg")
        self.fails(Flat, {"k": 2, "inner": {"k": 2}}, "cfg has no key 'inner'", "cfg")
        self.fails(Flat, {"k": 2, "m": 1}, "the top level has no key 'm'")

    def test_a_calibration_reads_its_flat_format(self):
        calib = SensorCalibration(
            K, RigidTransform.from_matrix(np.array([[0, -1, 0, 0.5], [0, 0, -1, 0], [1, 0, 0, -2], [0, 0, 0, 1]])),
            640, 480, AngularResolution(1.5, 0.25),
        )
        data = calib.to_dict()
        assert sorted(data) == sorted(
            ["fx", "fy", "cx", "cy", "image_width", "image_height", "radar_to_camera", "delta_theta_deg", "delta_phi_deg"]
        )
        assert read_json(SensorCalibration, data, "calibration").to_dict() == data
        self.fails(SensorCalibration, [1], "calibration must be a JSON object, got [1]", "calibration")
        with pytest.raises(ValueError, match=r"^calibration\.radar_to_camera: rotation is not orthonormal within 1e-6$"):
            read_json(SensorCalibration, {**data, "radar_to_camera": [2.0] + data["radar_to_camera"][1:]}, "calibration")
