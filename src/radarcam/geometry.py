"""Camera and radar coordinate geometry.

Axis conventions, used everywhere in this package:

* camera frame: x right, y down, z forward (z is the depth).
* radar frame: returned by :func:`spherical_to_cartesian` as
  (forward, lateral, vertical). When the radar and camera share axes and
  origin, :func:`radar_axes_to_camera` maps between the two orderings.

Pinhole projection (:func:`project_points`): u = fx * x / z + cx, v = fy * y / z + cy, d = z.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_ORTHO_TOL = 1e-6


class BehindCameraError(ValueError):
    """A point with non-positive depth cannot be projected."""


def json_number(value, name: str, whole: bool = False) -> float | int:
    """A JSON value as a float, or as an int when ``whole`` is set.

    Numbers and numeric strings convert, and a JSON integer stays exact
    where ``whole`` is set. Any other JSON type (list, object, boolean,
    null), or a value with a fractional part where ``whole`` is set, raises
    ``ValueError`` naming ``name``.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        if whole and isinstance(value, int):
            return value
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not whole:
        return number
    if not number.is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(number)


def json_numbers(data: dict, prefix: str, keys, whole=()) -> dict:
    """The ``keys`` present in ``data`` as :func:`json_number` values named
    ``prefix + key``; absent keys are left out, so dataclass defaults apply."""
    return {key: json_number(data[key], prefix + key, key in whole) for key in keys if key in data}


def json_object(value, name: str) -> dict:
    """``value`` if it is a JSON object; otherwise ``ValueError`` naming ``name``."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    return value


def json_list(value, name: str) -> list:
    """``value`` if it is a JSON list; otherwise ``ValueError`` naming ``name``."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON list, got {value!r}")
    return value


def load_json(path: str | Path) -> dict:
    """The JSON object that a file holds at its top level."""
    with open(path) as fh:
        return json_object(json.load(fh), f"{path}: the top level")


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"intrinsics {name} must be finite, got {getattr(self, name)}")
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")

    def matrix(self) -> np.ndarray:
        """3x3 intrinsic matrix."""
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]],
            dtype=np.float64,
        )

    def inverse_matrix(self) -> np.ndarray:
        """Closed-form inverse of the intrinsic matrix."""
        return np.array(
            [
                [1.0 / self.fx, 0.0, -self.cx / self.fx],
                [0.0, 1.0 / self.fy, -self.cy / self.fy],
                [0.0, 0.0, 1.0],
            ],
            dtype=np.float64,
        )


@dataclass(frozen=True)
class RigidTransform:
    """Rotation plus translation; rotation must be orthonormal with det +1."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if t.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got {t.shape}")
        for name, value in (("rotation", r), ("translation", t)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} entries must be finite, got {value.tolist()}")
        if np.max(np.abs(r.T @ r - np.eye(3))) > _ORTHO_TOL:
            raise ValueError("rotation is not orthonormal within 1e-6")
        if abs(np.linalg.det(r) - 1.0) > _ORTHO_TOL:
            raise ValueError("rotation determinant is not +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "RigidTransform":
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
        if not np.max(np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0]))) <= 1e-9:
            raise ValueError("last row of a rigid transform matrix must be 0 0 0 1")
        return cls(m[:3, :3], m[:3, 3])

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def apply(self, point) -> np.ndarray:
        """R p + t for a single 3-vector."""
        return self.apply_many(np.asarray(point, dtype=np.float64).reshape(1, 3))[0]

    def apply_many(self, points: np.ndarray) -> np.ndarray:
        """R p + t for an (N, 3) array of points.

        Written as explicit coordinate sums so batched and single-point
        transforms agree bitwise.
        """
        pts = np.asarray(points, dtype=np.float64)
        r, t = self.rotation, self.translation
        x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
        return np.stack(
            [
                r[0, 0] * x + r[0, 1] * y + r[0, 2] * z + t[0],
                r[1, 0] * x + r[1, 1] * y + r[1, 2] * z + t[1],
                r[2, 0] * x + r[2, 1] * y + r[2, 2] * z + t[2],
            ],
            axis=-1,
        )


@dataclass(frozen=True)
class SphericalPoint:
    """Range (m), azimuth and elevation (rad) in the camera field-of-view regime."""

    range_m: float
    azimuth: float
    elevation: float

    def __post_init__(self):
        if self.range_m < 0:
            raise ValueError(f"range must be non-negative, got {self.range_m}")
        if abs(self.azimuth) >= math.pi / 2 or abs(self.elevation) >= math.pi / 2:
            raise ValueError("azimuth and elevation must lie strictly inside +-pi/2")


@dataclass(frozen=True)
class AngularResolution:
    """Azimuth and elevation resolution of the radar sensor, in radians.

    Zero is allowed as the degenerate perfect-resolution case.
    """

    delta_theta: float
    delta_phi: float

    def __post_init__(self):
        for name in ("delta_theta", "delta_phi"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"angular resolution {name} must be finite and non-negative, got {value}")

    @classmethod
    def from_degrees(cls, theta_deg: float, phi_deg: float) -> "AngularResolution":
        return cls(math.radians(theta_deg), math.radians(phi_deg))


def project_points(cam, intrinsics: CameraIntrinsics) -> tuple[np.ndarray, ...]:
    """(u, v, depth = z, in_front) of (..., 3) camera-frame points; z <= 0 projects as z = 1."""
    x, y, z = np.moveaxis(np.asarray(cam, dtype=np.float64), -1, 0)
    in_front = z > 0
    safe_z = np.where(in_front, z, 1.0)
    with np.errstate(over="ignore"):  # a point just in front of the camera may land at infinity
        u = intrinsics.fx * (x / safe_z) + intrinsics.cx
        v = intrinsics.fy * (y / safe_z) + intrinsics.cy
    return u, v, z, in_front


def project_to_pixel(point, intrinsics: CameraIntrinsics) -> tuple[float, float, float]:
    """Project one camera-frame point (x, y, z) to (u, v, depth)."""
    u, v, z, in_front = project_points(np.asarray(point, dtype=np.float64)[:3], intrinsics)
    if not in_front:
        raise BehindCameraError(f"point has non-positive depth z={float(z)}")
    return float(u), float(v), float(z)


def pixel_to_camera(u: float, v: float, depth: float, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Invert the pinhole projection at a known depth."""
    if depth <= 0:
        raise BehindCameraError(f"depth must be positive, got {depth}")
    x = (u - intrinsics.cx) * depth / intrinsics.fx
    y = (v - intrinsics.cy) * depth / intrinsics.fy
    return np.array([x, y, depth], dtype=np.float64)


def transform_point(point, transform: RigidTransform) -> np.ndarray:
    """Apply a rigid transform to a single point."""
    return transform.apply(point)


def spherical_to_cartesian(p: SphericalPoint) -> np.ndarray:
    """Radar-frame (forward, lateral, vertical) coordinates of a spherical point."""
    cos_el = math.cos(p.elevation)
    forward = p.range_m * cos_el * math.cos(p.azimuth)
    lateral = p.range_m * cos_el * math.sin(p.azimuth)
    vertical = p.range_m * math.sin(p.elevation)
    return np.array([forward, lateral, vertical], dtype=np.float64)


def cartesian_to_spherical(v) -> SphericalPoint:
    """Inverse of :func:`spherical_to_cartesian` for forward > 0 points."""
    forward, lateral, vertical = float(v[0]), float(v[1]), float(v[2])
    rng = math.sqrt(forward * forward + lateral * lateral + vertical * vertical)
    if rng == 0.0:
        return SphericalPoint(0.0, 0.0, 0.0)
    return SphericalPoint(rng, math.atan2(lateral, forward), math.asin(vertical / rng))


def radar_axes_to_camera(v) -> np.ndarray:
    """Reorder a radar-frame (forward, lateral, vertical) vector into camera axes.

    With aligned sensors: camera x = lateral, camera y = -vertical (y points
    down), camera z = forward.
    """
    return np.array([v[1], -v[2], v[0]], dtype=np.float64)


def camera_axes_to_radar(v) -> np.ndarray:
    """Inverse reordering of :func:`radar_axes_to_camera`."""
    return np.array([v[2], v[0], -v[1]], dtype=np.float64)


def scale_intrinsics(intrinsics: CameraIntrinsics, s: float) -> CameraIntrinsics:
    """Rescale intrinsics to a feature map downsampled by factor ``s``."""
    if s <= 0:
        raise ValueError(f"downsample factor must be positive, got {s}")
    return CameraIntrinsics(
        intrinsics.fx / s, intrinsics.fy / s, intrinsics.cx / s, intrinsics.cy / s
    )


def max_pixel_position_error(
    intrinsics: CameraIntrinsics, res: AngularResolution
) -> tuple[float, float, float]:
    """Worst-case pixel position error of a projected radar point.

    Horizontal and vertical components use the matching focal length; the
    combined error uses the geometric mean sqrt(fx * fy), which reduces to
    the single-focal-length formula f * sqrt(dtheta^2 + dphi^2) when fx == fy.
    """
    e_u = intrinsics.fx * res.delta_theta
    e_v = intrinsics.fy * res.delta_phi
    f = math.sqrt(intrinsics.fx * intrinsics.fy)
    e = f * math.hypot(res.delta_theta, res.delta_phi)
    return e_u, e_v, e


def empirical_projection_error(
    p: SphericalPoint, res: AngularResolution, intrinsics: CameraIntrinsics
) -> float:
    """Horizontal pixel distance caused by one azimuth-resolution step.

    The point is displaced by the worst-case lateral position error of a
    single azimuth step, e = range * cos(elevation) * dtheta * cos(azimuth),
    at its measured depth, and both positions are pushed through the actual
    pinhole projection. Under aligned radar and camera axes the returned
    distance equals fx * dtheta for every range, azimuth and elevation,
    which is exactly the range-independence this function exists to verify.
    """
    cam = radar_axes_to_camera(spherical_to_cartesian(p))
    lateral_error = (
        p.range_m * math.cos(p.elevation) * res.delta_theta * math.cos(p.azimuth)
    )
    displaced = cam + np.array([lateral_error, 0.0, 0.0])
    u0, _, _ = project_to_pixel(cam, intrinsics)
    u1, _, _ = project_to_pixel(displaced, intrinsics)
    return abs(u1 - u0)


@dataclass(frozen=True)
class SensorCalibration:
    """Camera intrinsics, radar-to-camera extrinsics and sensor resolutions."""

    intrinsics: CameraIntrinsics
    radar_to_camera: RigidTransform
    image_width: int
    image_height: int
    angular_resolution: AngularResolution

    def __post_init__(self):
        if self.image_width < 1 or self.image_height < 1:
            raise ValueError("image dimensions must be positive")

    @classmethod
    def from_dict(cls, data: dict) -> "SensorCalibration":
        required = {
            "fx", "fy", "cx", "cy",
            "image_width", "image_height",
            "radar_to_camera", "delta_theta_deg", "delta_phi_deg",
        }
        json_object(data, "calibration")
        missing = required - set(data)
        if missing:
            raise ValueError(f"calibration is missing keys: {sorted(missing)}")
        matrix = data["radar_to_camera"]
        if not isinstance(matrix, (list, tuple)) or len(matrix) != 16:
            raise ValueError("radar_to_camera must hold 16 row-major numbers")
        raw = np.array([json_number(x, f"calibration radar_to_camera[{i}]") for i, x in enumerate(matrix)])

        def number(key: str, whole: bool = False):
            return json_number(data[key], f"calibration {key}", whole)

        return cls(
            intrinsics=CameraIntrinsics(number("fx"), number("fy"), number("cx"), number("cy")),
            radar_to_camera=RigidTransform.from_matrix(raw.reshape(4, 4)),
            image_width=number("image_width", whole=True),
            image_height=number("image_height", whole=True),
            angular_resolution=AngularResolution.from_degrees(
                number("delta_theta_deg"), number("delta_phi_deg")
            ),
        )

    def to_dict(self) -> dict:
        return {
            "fx": self.intrinsics.fx,
            "fy": self.intrinsics.fy,
            "cx": self.intrinsics.cx,
            "cy": self.intrinsics.cy,
            "image_width": self.image_width,
            "image_height": self.image_height,
            "radar_to_camera": [float(x) for x in self.radar_to_camera.matrix().reshape(-1)],
            "delta_theta_deg": math.degrees(self.angular_resolution.delta_theta),
            "delta_phi_deg": math.degrees(self.angular_resolution.delta_phi),
        }

    @classmethod
    def load(cls, path: str | Path) -> "SensorCalibration":
        return cls.from_dict(load_json(path))

    def save(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
