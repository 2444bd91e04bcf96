"""One-to-many depth supervision from radar points.

A radar point is projected onto the image plane and supervises every pixel
inside a disk around its projection. The disk radius scales with the point's
radar cross section (larger targets keep a consistent depth over a larger
image area) and shrinks with depth and feature stride:

    r = min(r_max, k * sqrt(fx * fy) / (s * d) * 10 ** (rcs_dbsm / 20))

The per-pixel loss combines a cross-entropy term against the nearest depth
bin with an L1 term on the expectation of the predicted depth distribution,
and a target's loss is the minimum (or maximum) over its neighborhood. The
loss, its gradient and :mod:`radarcam.sim` share one selection.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, NamedTuple

import numpy as np

from .geometry import CameraIntrinsics, SensorCalibration, json_number, json_numbers, project_points
from .geometry import project_to_pixel  # noqa: F401 -- bench/tracing.py wraps the name in this module
from .tensor_ops import ShapeError

LOG_PROB_FLOOR = 1e-12
NORMALIZATION_TOL = 1e-5
STRATEGIES = ("one-to-one", "one-to-many")  # supervise the struck pixel, or the best of its disk
AGGREGATIONS = ("min", "max")  # a target's loss: its disk's lowest or highest pixel loss


@dataclass(frozen=True)
class RadarPoint:
    """A radar detection in the radar frame, with optional RCS and Doppler."""

    x: float
    y: float
    z: float
    rcs_dbsm: float | None = None
    doppler: float | None = None

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError(f"radar point coordinates must be finite: {self}")
        for value in (self.rcs_dbsm, self.doppler):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"radar point RCS and Doppler must be finite: {self}")


@dataclass(frozen=True)
class DepthBinSpec:
    """Uniform discretization of the depth range [d_min, d_max) into bins."""

    d_min: float
    d_max: float
    num_bins: int

    def __post_init__(self):
        for name in ("d_min", "d_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"depth bins {name} must be finite, got {getattr(self, name)}")
        if not self.d_min < self.d_max:
            raise ValueError(f"need d_min < d_max, got [{self.d_min}, {self.d_max})")
        if not float(self.num_bins).is_integer():
            raise ValueError(f"depth bins num_bins must be a whole number, got {self.num_bins}")
        if self.num_bins < 1:
            raise ValueError(f"need at least one bin, got {self.num_bins}")
        object.__setattr__(self, "num_bins", int(self.num_bins))

    @classmethod
    def from_dict(cls, data: dict, prefix: str = "") -> "DepthBinSpec":
        """Bins from a JSON object; errors name each key as ``prefix + key``."""
        keys = ("d_min", "d_max", "num_bins")
        return cls(*(json_number(data.get(key), prefix + key, key == "num_bins") for key in keys))

    @property
    def bin_width(self) -> float:
        return (self.d_max - self.d_min) / self.num_bins

    def midpoints(self) -> np.ndarray:
        """Center depth of every bin, strictly increasing."""
        idx = np.arange(self.num_bins, dtype=np.float64)
        return self.d_min + (idx + 0.5) * self.bin_width

    def midpoint(self, index: int) -> float:
        return self.d_min + (index + 0.5) * self.bin_width


@dataclass(frozen=True)
class RadiusConfig:
    """Neighborhood radius settings. ``fixed_r`` is used when RCS is absent."""

    k: float = 0.1
    r_max: float = 2.0
    fixed_r: float | None = None
    # fixed_r of a CLI target build with points lacking RCS and no fixed_r set
    FALLBACK_FIXED_R: ClassVar[float] = 2.0

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if not self.r_max >= 0:
            raise ValueError(f"r_max must be non-negative, got {self.r_max}")
        if self.fixed_r is not None and not self.fixed_r >= 0:
            raise ValueError(f"fixed_r must be non-negative, got {self.fixed_r}")

    @classmethod
    def from_dict(cls, data: dict, prefix: str = "") -> "RadiusConfig":
        """Settings from a JSON object (a null ``fixed_r`` is none); errors
        name each key as ``prefix + key``."""
        keys = ("k", "r_max") if data.get("fixed_r") is None else ("k", "r_max", "fixed_r")
        return cls(**json_numbers(data, prefix, keys))


@dataclass(frozen=True)
class DepthTarget:
    """A projected radar point on the feature grid: pixel, depth, radius."""

    u: int
    v: int
    d_gt: float
    radius: float


@dataclass(frozen=True)
class LossConfig:
    lambda1: float = 0.1
    lambda2: float = 0.1
    neighborhood_agg: str = "min"
    strategy: str = "one-to-many"

    def __post_init__(self):
        if not (self.lambda1 >= 0 and self.lambda2 >= 0):
            raise ValueError("loss weights must be non-negative")
        if self.neighborhood_agg not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation {self.neighborhood_agg!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")


def neighborhood_radius(
    depth: float | np.ndarray,
    intrinsics: CameraIntrinsics,
    stride: int,
    cfg: RadiusConfig,
    rcs_dbsm: float | np.ndarray | None = None,
) -> float | np.ndarray:
    """Supervision radius in feature-map pixels for a point at ``depth`` meters.

    With an RCS value the radius follows the size-proportional formula above;
    without one it falls back to ``cfg.fixed_r``. Both paths clamp at
    ``cfg.r_max`` so a zero ceiling degenerates cleanly to single-pixel
    supervision. Arrays give arrays; ``np.float_power`` rounds like ``**``, ``np.power`` may not.
    """
    depth = np.asarray(depth, dtype=np.float64)
    if not np.all(depth > 0):
        raise ValueError(f"depth must be positive, got {depth}")
    if rcs_dbsm is not None:
        rcs = np.asarray(rcs_dbsm, dtype=np.float64)
        if not np.all(np.isfinite(rcs)):
            raise ValueError(f"RCS must be finite, got {rcs_dbsm}")
        f = math.sqrt(intrinsics.fx * intrinsics.fy)
        r = np.minimum(cfg.r_max, cfg.k * f / (stride * depth) * np.float_power(10.0, rcs / 20.0))
    elif cfg.fixed_r is None:
        raise ValueError("point has no RCS and no fixed_r is configured")
    else:
        r = np.full(depth.shape, min(cfg.r_max, cfg.fixed_r), dtype=np.float64)
    return float(r) if r.ndim == 0 else r


@dataclass(frozen=True)
class TargetBuildResult:
    targets: tuple[DepthTarget, ...]
    num_input: int
    num_dropped: int


def build_depth_targets(
    points: list[RadarPoint] | tuple[RadarPoint, ...],
    calib: SensorCalibration,
    stride: int,
    cfg: RadiusConfig,
) -> TargetBuildResult:
    """Project radar points onto the stride-``s`` feature grid.

    Points behind the camera or landing outside the feature map are dropped
    (the drop count is reported). Multiple points on the same pixel each keep
    their own target; every measured depth is its own ground truth.
    """
    # RadarPoint admits only finite RCS values, so NaN marks a missing one.
    rows = [(p.x, p.y, p.z, np.nan if p.rcs_dbsm is None else p.rcs_dbsm) for p in points]
    table, _ = _target_table(np.array(rows, dtype=np.float64).reshape(-1, 4), calib, stride, cfg)
    targets = tuple(DepthTarget(int(u), int(v), d, r) for u, v, d, r in table.tolist())
    return TargetBuildResult(targets, len(rows), len(rows) - len(targets))


def _target_table(
    points: np.ndarray, calib: SensorCalibration, stride: int, cfg: RadiusConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The target build on an (N, 4) array of radar-frame rows (x, y, z,
    rcs_dbsm), a NaN RCS marking a missing one: the (M, 4) target table
    (u, v, d_gt, radius) of the kept points, in input order, and the (N,)
    mask of the kept points."""
    if stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride}")
    rcs = points[:, 3]
    u, v, depth, in_front = project_points(calib.radar_to_camera.apply_many(points[:, :3]), calib.intrinsics)
    us, vs = np.floor(u / stride), np.floor(v / stride)
    keep = in_front & (0 <= us) & (us < calib.image_width // stride)
    keep &= (0 <= vs) & (vs < calib.image_height // stride)
    with_rcs, without_rcs = keep & ~np.isnan(rcs), keep & np.isnan(rcs)
    radius = np.zeros(len(rcs))
    radius[with_rcs] = neighborhood_radius(depth[with_rcs], calib.intrinsics, stride, cfg, rcs[with_rcs])
    if without_rcs.any():
        radius[without_rcs] = neighborhood_radius(depth[without_rcs], calib.intrinsics, stride, cfg)
    return np.stack([us[keep], vs[keep], depth[keep], radius[keep]], axis=1), keep


def nearest_bin(d, spec: DepthBinSpec):
    """Index of the bin whose midpoint is nearest to ``d`` (a depth or an
    array of depths); out-of-range clamps."""
    d = np.asarray(d, dtype=np.float64)
    if not np.all(np.isfinite(d)):
        raise ValueError(f"depth must be finite, got {d}")
    idx = np.clip(np.floor((d - spec.d_min) / spec.bin_width), 0, spec.num_bins - 1).astype(np.intp)
    return int(idx) if idx.ndim == 0 else idx


def expected_depth(dist: np.ndarray, spec: DepthBinSpec) -> float:
    """Expectation of a depth distribution over the bin midpoints."""
    dist = validate_depth_volume(np.asarray(dist)[:, None, None], spec.num_bins)[:, 0, 0]
    return float(spec.midpoints() @ dist)


def _depth_loss(p_gt, expectation, d_gt, cfg: LossConfig):
    """Per-pixel loss from the ground-truth bin's probability and the expected depth."""
    return cfg.lambda1 * -np.log(np.maximum(p_gt, LOG_PROB_FLOOR)) + cfg.lambda2 * np.abs(
        expectation - d_gt
    )


def pixel_depth_loss(dist: np.ndarray, d_gt: float, spec: DepthBinSpec, cfg: LossConfig) -> float:
    """Classification-plus-regression depth loss for one pixel.

    Cross entropy against the bin nearest to ``d_gt`` (out-of-range depths
    clamp to an edge bin) plus L1 between the distribution's expected depth
    and the true ``d_gt``. Probabilities are floored at 1e-12 inside the log.
    """
    dist = np.asarray(dist, dtype=np.float64)
    return float(_depth_loss(dist[nearest_bin(d_gt, spec)], spec.midpoints() @ dist, d_gt, cfg))


def validate_depth_volume(volume: np.ndarray, num_bins: int) -> np.ndarray:
    """A (D, H, W) float64 stack of depth distributions: each pixel's bins are
    non-negative and sum to 1 within ``NORMALIZATION_TOL`` (NaN fails)."""
    volume = np.asarray(volume, dtype=np.float64)
    if volume.ndim != 3 or volume.shape[0] != num_bins:
        raise ShapeError(f"depth volume must be ({num_bins}, H, W), got shape {volume.shape}")
    if volume.size:
        sums, lowest = volume.sum(axis=0), volume.min(axis=0)
        bad = ~(np.abs(sums - 1.0) <= NORMALIZATION_TOL) | (lowest < 0.0)
        if bad.any():
            v, u = np.argwhere(bad)[0]
            raise ValueError(
                f"depth distribution at pixel (u={u}, v={v}) is not normalized: it sums to "
                f"{sums[v, u]:.9g} with lowest bin {lowest[v, u]:.9g}; bins must be non-negative"
            )
    return volume


@dataclass(frozen=True)
class TargetLoss:
    """Loss of one target with the pixel the aggregation selected."""

    loss: float
    pixel: tuple[int, int]
    num_pixels: int


@dataclass(frozen=True)
class LossResult:
    total: float
    per_target: tuple[TargetLoss, ...]


def _check_target_table(table: np.ndarray, shape: tuple[int, int] | None = None) -> None:
    """Name the first (u, v, d_gt, radius) row without finite values and a
    non-negative radius or, given the map ``shape`` (H, W), a pixel on it."""
    ok = np.isfinite(table).all(axis=1) & (table[:, 3] >= 0.0)
    if shape is not None:
        u, v = table[:, 0], table[:, 1]
        ok &= (0 <= u) & (u < shape[1]) & (0 <= v) & (v < shape[0])
    if not ok.all():
        i = int(np.argmin(ok))
        on_map = "" if shape is None else f" and a pixel on the (H, W) = {shape} map"
        raise ValueError(
            f"target {i} (u, v, d_gt, radius) = {tuple(table[i].tolist())} needs finite "
            f"values, a non-negative radius{on_map}"
        )


def neighborhood_pixels(
    u: int, v: int, radius: float, width: int, height: int
) -> list[tuple[int, int]]:
    """In-bounds pixels within the closed disk of ``radius`` around (u, v).

    Returned in row-major order (``dv`` outer, ``du`` inner) so index ties
    resolve deterministically.
    """
    half = math.floor(radius)
    us = np.arange(max(u - half, 0), min(u + half, width - 1) + 1)
    vs = np.arange(max(v - half, 0), min(v + half, height - 1) + 1)
    vv, uu = (a.ravel() for a in np.meshgrid(vs, us, indexing="ij"))
    inside = (uu - u) ** 2 + (vv - v) ** 2 <= radius * radius
    return list(zip(uu[inside].tolist(), vv[inside].tolist()))


class _Selection(NamedTuple):
    """Per target, in table order: the selected pixel ``u``, ``v``, its
    ``cost`` and the ``count`` of candidates in its disk. ``costs`` holds the
    (N, S) candidate costs of every stencil group, signed so that the lowest
    wins; off-disk slots hold +inf."""

    u: np.ndarray
    v: np.ndarray
    cost: np.ndarray
    count: np.ndarray
    costs: tuple[np.ndarray, ...]


def _select_in_disks(
    table: np.ndarray, shape: tuple[int, int], strategy: str, agg: str, cost_at
) -> _Selection:
    """For every (u, v, d_gt, radius) row, the pixel of its disk whose
    ``cost_at(rows, uu, vv)`` is lowest (``agg="min"``) or highest; ties go
    to the first candidate in row-major order. One-to-one uses radius 0.

    Targets are scored in groups of equal stencil half-width (the floor of
    the radius, clipped to the map). A group's stencil is the
    :func:`neighborhood_pixels` disk of its largest radius, so one wide disk
    does not widen the candidates of every other target; ``mask`` marks the
    candidates on the map and in each target's own disk.
    """
    _check_target_table(table, shape)
    height, width = shape
    radius = table[:, 3] if strategy == "one-to-many" else np.zeros(len(table))
    halves = np.minimum(np.floor(radius), max(shape) - 1).astype(np.intp)
    sign = 1.0 if agg == "min" else -1.0
    u_sel, v_sel, count, cost = (np.zeros(len(table), t) for t in (np.intp, np.intp, np.intp, float))
    groups = []
    for half in np.unique(halves).tolist():
        rows = np.flatnonzero(halves == half)
        size = 2 * half + 1
        du, dv = (np.array(neighborhood_pixels(half, half, radius[rows].max(), size, size)) - half).T
        u, v, r = table[rows, 0:1].astype(np.intp), table[rows, 1:2].astype(np.intp), radius[rows, None]
        uu, vv = u + du, v + dv
        mask = (du * du + dv * dv <= r * r) & (0 <= uu) & (uu < width) & (0 <= vv) & (vv < height)
        uu, vv = np.where(mask, uu, u), np.where(mask, vv, v)
        costs = np.where(mask, sign * cost_at(rows, uu, vv), np.inf)
        at = np.arange(len(rows))
        pick = np.argmin(costs, axis=1)
        # The pick lands off the disk only when every candidate costs +inf;
        # the disk's first candidate then wins, as in any other tie.
        pick = np.where(mask[at, pick], pick, np.argmax(mask, axis=1))
        u_sel[rows], v_sel[rows] = uu[at, pick], vv[at, pick]
        cost[rows] = sign * costs[at, pick]
        count[rows] = mask.sum(axis=1)
        groups.append(costs)
    return _Selection(u_sel, v_sel, cost, count, tuple(groups))


def _loss_selection(depth_map, targets, spec: DepthBinSpec, cfg: LossConfig):
    """Score every target's disk with the per-pixel loss and select.

    Returns the validated map, the (N, 4) target table, the (H, W) map of
    expected depths and the selection, which the loss and its gradient share.
    """
    depth_map = validate_depth_volume(depth_map, spec.num_bins)
    table = targets_to_array(targets)
    shape = depth_map.shape[1:]
    expectation = (spec.midpoints() @ depth_map.reshape(spec.num_bins, -1)).reshape(shape)

    def cost_at(rows, uu, vv):
        d_gt = table[rows, 2:3]
        p_gt = depth_map[nearest_bin(d_gt, spec), vv, uu]
        return _depth_loss(p_gt, expectation[vv, uu], d_gt, cfg)

    sel = _select_in_disks(table, shape, cfg.strategy, cfg.neighborhood_agg, cost_at)
    return depth_map, table, expectation, sel


def one_to_many_loss(
    depth_map: np.ndarray,
    targets,
    spec: DepthBinSpec,
    cfg: LossConfig,
) -> LossResult:
    """Mean over targets of the aggregated neighborhood depth loss.

    For each target the per-pixel loss is evaluated on its neighborhood and
    aggregated with min (default) or max; the one-to-one strategy restricts
    the neighborhood to the target pixel itself. An empty target list yields
    a total of zero. A target off the map, or with a non-finite depth or a
    negative or non-finite radius, raises a ``ValueError`` naming its index.
    """
    *_, sel = _loss_selection(depth_map, targets, spec, cfg)
    columns = (sel.cost, sel.u, sel.v, sel.count)
    per_target = tuple(
        TargetLoss(loss, (u, v), n) for loss, u, v, n in zip(*(c.tolist() for c in columns))
    )
    total = float(np.mean(sel.cost)) if per_target else 0.0
    return LossResult(total, per_target)


def one_to_many_loss_grad(
    depth_map: np.ndarray,
    targets,
    spec: DepthBinSpec,
    cfg: LossConfig,
) -> np.ndarray:
    """Gradient of the total loss with respect to per-pixel pre-softmax logits.

    The distributions are treated as softmax outputs, so the gradient is a
    function of the probabilities alone. Aggregation routes each target's
    gradient entirely to the pixel :func:`one_to_many_loss` selects; both
    share one selection and one expectation map.
    """
    depth_map, table, expectation, sel = _loss_selection(depth_map, targets, spec, cfg)
    grad = np.zeros_like(depth_map)
    if not len(table):
        return grad
    u, v, d_gt = sel.u, sel.v, table[:, 2]
    bins = nearest_bin(d_gt, spec)
    rows = np.arange(len(table))
    midpoints = spec.midpoints()
    p = depth_map[:, v, u]
    e = expectation[v, u]
    p_minus_one_hot = p.copy()
    p_minus_one_hot[bins, rows] -= 1.0
    g = np.where(p[bins, rows] > LOG_PROB_FLOOR, cfg.lambda1 * p_minus_one_hot, 0.0)
    g += cfg.lambda2 * np.sign(e - d_gt) * p * (midpoints[:, None] - e)
    np.add.at(grad, (slice(None), v, u), (1.0 / len(table)) * g)
    return grad


def targets_to_array(targets) -> np.ndarray:
    """Pack targets into an (N, 4) array with rows (u, v, d_gt, radius)."""
    rows = [(t.u, t.v, t.d_gt, t.radius) for t in targets]
    return np.array(rows, dtype=np.float64).reshape(len(rows), 4)


def targets_from_array(arr: np.ndarray) -> tuple[DepthTarget, ...]:
    """Unpack an (N, 4) array of (u, v, d_gt, radius) rows."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"target table must be (N, 4), got shape {arr.shape}")
    _check_target_table(arr)
    return tuple(
        DepthTarget(int(round(r[0])), int(round(r[1])), float(r[2]), float(r[3])) for r in arr
    )


def read_radar_points_csv(path: str | Path) -> list[RadarPoint]:
    """Read points from a CSV with header x,y,z[,rcs_dbsm[,doppler]].

    The RCS and Doppler columns are optional and individual cells may be
    empty or missing at the end of a row, in which case the field is absent
    for that point. A row without x, y and z, with more fields than the
    header or with a value that is not a finite number raises a
    ``ValueError`` naming the file and line.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        reader.fieldnames = fields = [f.strip() for f in reader.fieldnames or ()]
        if fields[:3] != ["x", "y", "z"]:
            raise ValueError(f"{path}: expected a header starting with x,y,z")
        extra = set(fields[3:])
        if not extra <= {"rcs_dbsm", "doppler"}:
            raise ValueError(f"{path}: unexpected columns {sorted(extra - {'rcs_dbsm', 'doppler'})}")
        points = []
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if None in row or row["z"] is None:
                raise ValueError(f"{where}: a row needs x, y and z and at most {len(fields)} fields")

            def opt(name: str) -> float | None:
                value = row.get(name)
                return float(value) if value not in (None, "") else None

            try:
                point = RadarPoint(
                    float(row["x"]),
                    float(row["y"]),
                    float(row["z"]),
                    rcs_dbsm=opt("rcs_dbsm"),
                    doppler=opt("doppler"),
                )
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            points.append(point)
    return points
