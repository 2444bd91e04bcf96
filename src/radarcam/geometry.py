"""Camera and radar coordinate geometry.

Two frames:

* camera frame: x right, y down, z forward (z is the depth).
* radar frame: the caller's; a calibration's ``radar_to_camera`` is a
  proper rotation plus translation (:class:`RigidTransform`) that maps it
  into the camera frame.

Spherical coordinates (:func:`spherical_to_camera`,
:func:`camera_to_spherical`) are about the camera axes: azimuth turns from
z towards x and elevation from z up towards -y. ``error-model`` and
``simulate`` place the radar there when they model its range, azimuth and
elevation error.

Pinhole projection (:func:`project_points`): u = fx * x / z + cx, v = fy * y / z + cy, d = z.

Pixel convention: image pixel i spans [i, i+1), and at stride s feature
cell j spans [j*s, (j+1)*s), so image point u lies in cell floor(u / s)
(:func:`feature_cell`) of a map of :meth:`SensorCalibration.feature_shape`
cells. Samplers put cell centres on integers, so they read u at u / s - 1/2
(:func:`sampler_coordinate`): each cell at its centre, (j + 1/2)*s.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

_ORTHO_TOL = 1e-6


class BehindCameraError(ValueError):
    """A point with non-positive depth cannot be projected."""


def json_number(value, name: str, whole: bool = False) -> float | int:
    """A JSON value as a float, or as an int when ``whole`` is set.

    Numbers and numeric strings convert, and a JSON integer stays exact
    where ``whole`` is set. Any other JSON type (list, object, boolean,
    null), an integer too large for a float, or a value with a fractional
    part where ``whole`` is set, raises ``ValueError`` naming ``name``.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        number = float(value)
    except OverflowError:  # an integer past the float range
        digits = len(str(abs(value)))
        raise ValueError(f"{name} must be within the float range, got an integer of {digits} digits") from None
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not whole:
        return number
    if isinstance(value, int):
        return value
    if not number.is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(number)


def json_object(value, name: str, keys=None) -> dict:
    """``value`` if it is a JSON object holding no key outside ``keys``
    (any key where ``keys`` is None); otherwise ``ValueError`` naming ``name``."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    unknown = [key for key in value if key not in keys] if keys is not None else []
    if unknown:
        raise ValueError(f"{name} has no key {unknown[0]!r}")
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


@functools.cache
def _json_fields(tp) -> tuple[dict, tuple[str, ...]]:
    """The dataclass ``tp``'s field types by name and its JSON object's keys, found once per type."""
    hints = get_type_hints(tp)
    keys = (_json_fields(hints[f.name])[1] if f.metadata.get("flat") else [f.name] for f in fields(tp))
    return hints, tuple(key for group in keys for key in group)


def read_json(tp, value, name: str, array=None):
    """The ``tp`` value that the JSON ``value`` holds, read by its declared type:

    - ``float``, and ``int`` as a whole number: :func:`json_number`;
    - ``str`` and ``bool``: that JSON type;
    - ``tuple[X, ...]``: a JSON list of ``X``; ``tuple[X, Y, Z]``: a JSON
      list of one ``X``, one ``Y`` and one ``Z``;
    - :class:`RigidTransform`: a JSON list of its 4x4 matrix's 16 numbers,
      row-major;
    - ``np.ndarray``: whatever the caller's ``array(value, name)`` reads,
      such as an LXLT file name in :func:`radarcam.lxlt.read_manifest`;
    - any other dataclass: a JSON object whose keys are its field names. An
      absent key takes the field's default; an absent required key is read
      as a null. A key that names no field is refused. A field whose
      metadata sets ``flat`` has no key: its dataclass's keys are this
      object's, and it is read from those that this object holds.

    Errors are ``ValueError`` naming the value by its path from ``name``,
    such as ``arms[0].radius.k``; an empty ``name`` is the top level. A
    dataclass's own range check keeps its error type and is prefixed with
    the object's path, such as ``arms[2].radius: k must be positive``; at
    the top level its message is unchanged.
    """
    if tp is np.ndarray:
        return array(value, name)
    if tp is float or tp is int:
        return json_number(value, name, whole=tp is int)
    if tp is str or tp is bool:
        if not isinstance(value, tp):
            raise ValueError(f"{name} must be {'a string' if tp is str else 'true or false'}, got {value!r}")
        return value
    if get_origin(tp) is tuple:
        args = get_args(tp)
        items = json_list(value, name)
        if args[-1] is Ellipsis:
            args = args[:1] * len(items)
        elif len(items) != len(args):
            raise ValueError(f"{name} must be a JSON list of {len(args)} items, got {value!r}")
        return tuple(read_json(t, x, f"{name}[{i}]", array) for i, (t, x) in enumerate(zip(args, items)))
    if tp is RigidTransform:
        matrix = read_json(tuple[float, ...], value, name)
        if len(matrix) != 16:
            raise ValueError(f"{name} must hold 16 row-major numbers, got {value!r}")
        make, kwargs = RigidTransform.from_matrix, {"m": np.reshape(matrix, (4, 4))}
    else:
        hints, keys = _json_fields(tp)
        data = json_object(value, name or "the top level", keys)
        prefix = f"{name}." if name else ""
        make, kwargs = tp, {}
        for f in fields(tp):
            t = hints[f.name]
            if f.metadata.get("flat"):
                kwargs[f.name] = read_json(t, {k: data[k] for k in _json_fields(t)[1] if k in data}, name, array)
            elif f.name in data or (f.default is MISSING and f.default_factory is MISSING):
                kwargs[f.name] = read_json(t, data.get(f.name), prefix + f.name, array)
    try:
        return make(**kwargs)
    except ValueError as exc:  # a range check of the object as a whole: name it by its path
        raise (type(exc)(f"{name}: {exc}") if name else exc) from None


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

    def inverse(self) -> "RigidTransform":
        """The transform that undoes this one: R^T p - R^T t."""
        rotation = self.rotation.T
        return RigidTransform(rotation, -(rotation @ self.translation))

    def apply(self, point) -> np.ndarray:
        """R p + t for a single 3-vector."""
        return self.apply_many(np.asarray(point, dtype=np.float64).reshape(1, 3))[0]

    def apply_many(self, points: np.ndarray) -> np.ndarray:
        """R p + t for an (N, 3) array of points.

        Written as explicit coordinate sums, ``r[i, 0] * x + r[i, 1] * y +
        r[i, 2] * z + t[i]``, in the order of the scalar target build in
        ``tests/oracles.py``, which the target tests compare by ``float.hex``.
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
class AngularResolution:
    """Azimuth and elevation resolution of the radar sensor, held in the
    degrees a calibration is written in; :attr:`delta_theta` and
    :attr:`delta_phi` give it in radians.

    Zero is allowed as the degenerate perfect-resolution case.
    """

    delta_theta_deg: float
    delta_phi_deg: float

    def __post_init__(self):
        for name in ("delta_theta_deg", "delta_phi_deg"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"angular resolution {name} must be finite and non-negative, got {value}")

    @property
    def delta_theta(self) -> float:
        return math.radians(self.delta_theta_deg)

    @property
    def delta_phi(self) -> float:
        return math.radians(self.delta_phi_deg)

    @classmethod
    def from_degrees(cls, theta_deg: float, phi_deg: float) -> "AngularResolution":
        """The constructor itself, kept because ``bench/workloads.py`` calls it."""
        return cls(theta_deg, phi_deg)


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


def spherical_to_camera(rho, azimuth, elevation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Camera-frame (x, y, z) of points at range ``rho``, ``azimuth`` (from
    z towards x) and ``elevation`` (up, towards -y) about the camera axes.

    Takes arrays or floats, which broadcast.
    """
    rho_cos_el = rho * np.cos(elevation)
    return rho_cos_el * np.sin(azimuth), -(rho * np.sin(elevation)), rho_cos_el * np.cos(azimuth)


def camera_to_spherical(x, y, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`spherical_to_camera`: (rho, azimuth, elevation) of
    camera-frame points, arrays or floats; the origin has zero angles."""
    x, y, z = (np.asarray(c, dtype=np.float64) for c in (x, y, z))
    rho = np.sqrt(z * z + x * x + y * y)
    sine = np.divide(-y, rho, out=np.zeros(np.shape(rho)), where=rho > 0)
    return rho, np.arctan2(x, z), np.arcsin(sine)


def check_stride(stride: int) -> None:
    """Refuse a feature stride below 1."""
    if stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride}")


def feature_cell(u, stride: int):
    """The feature cells floor(u / s) of image coordinates ``u``, as floats; + 0.0 writes -0.0 as 0.0."""
    return np.floor(u / stride) + 0.0


def sampler_coordinate(u):
    """u - 1/2: where a sampler, cell centres on integers, reads feature coordinates ``u`` = u_img / s."""
    return u - 0.5


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
    rho, azimuth, elevation, res: AngularResolution, intrinsics: CameraIntrinsics
) -> np.ndarray:
    """Horizontal pixel distance caused by one azimuth-resolution step.

    Each point, at range ``rho`` (m), ``azimuth`` and ``elevation`` (rad)
    about the camera axes (arrays or floats, which broadcast), is displaced
    by the worst-case lateral position error of a single azimuth step,
    e = range * cos(elevation) * dtheta * cos(azimuth), at its measured
    depth, and both positions are pushed through the actual pinhole
    projection. The distance equals fx * dtheta at every range, azimuth and
    elevation: the range-independence this function exists to verify. A
    negative range, an angle outside (-pi/2, pi/2) or a point at the camera
    plane raises ``ValueError`` naming the first such element.
    """
    rho, azimuth, elevation = np.broadcast_arrays(*(np.asarray(a, dtype=np.float64) for a in (rho, azimuth, elevation)))
    for name, values, ok, needs in (
        ("range", rho, rho >= 0, "non-negative"),
        ("azimuth", azimuth, np.abs(azimuth) < math.pi / 2, "strictly inside +-pi/2"),
        ("elevation", elevation, np.abs(elevation) < math.pi / 2, "strictly inside +-pi/2"),
    ):
        if not ok.all():
            i = int(np.argmin(ok.ravel()))
            raise ValueError(f"{name} must be {needs}, got {values.ravel()[i]} at element {i}")
    x, y, z = spherical_to_camera(rho, azimuth, elevation)
    lateral_error = rho * np.cos(elevation) * res.delta_theta * np.cos(azimuth)
    u0, _, _, in_front = project_points(np.stack([x, y, z], axis=-1), intrinsics)
    if not np.all(in_front):
        i = int(np.argmin(np.ravel(in_front)))
        raise BehindCameraError(f"point {i} has non-positive depth z={np.ravel(z)[i]}")
    u1, _, _, _ = project_points(np.stack([x + lateral_error, y, z], axis=-1), intrinsics)
    return np.abs(u1 - u0)


@dataclass(frozen=True)
class SensorCalibration:
    """Camera intrinsics, radar-to-camera extrinsics and sensor resolutions.

    Its JSON form (:func:`read_json`, :meth:`to_dict`) is one flat object of
    nine keys: ``fx fy cx cy``, ``image_width image_height``,
    ``radar_to_camera`` as 16 row-major numbers, and ``delta_theta_deg
    delta_phi_deg``.
    """

    intrinsics: CameraIntrinsics = field(metadata={"flat": True})
    radar_to_camera: RigidTransform
    image_width: int
    image_height: int
    angular_resolution: AngularResolution = field(metadata={"flat": True})

    def __post_init__(self):
        if self.image_width < 1 or self.image_height < 1:
            raise ValueError("image dimensions must be positive")

    def feature_shape(self, stride: int) -> tuple[int, int]:
        """The (H // s, W // s) cells of the image's stride-``s`` feature map."""
        check_stride(stride)
        return self.image_height // stride, self.image_width // stride

    def to_dict(self) -> dict:
        return {
            **vars(self.intrinsics),
            "radar_to_camera": [float(x) for x in self.radar_to_camera.matrix().reshape(-1)],
            "image_width": self.image_width,
            "image_height": self.image_height,
            **vars(self.angular_resolution),
        }

    @classmethod
    def load(cls, path: str | Path) -> "SensorCalibration":
        return read_json(cls, load_json(path), "calibration")
