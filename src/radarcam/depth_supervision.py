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
from typing import NamedTuple

import numpy as np

from .geometry import CameraIntrinsics, SensorCalibration, check_stride, feature_cell, project_points
from .geometry import project_to_pixel  # noqa: F401 -- bench/tracing.py wraps the name in this module
from .tensor_ops import ShapeError

LOG_PROB_FLOOR = 1e-12
NORMALIZATION_TOL = 1e-5
AGGREGATIONS = ("min", "max")  # a target's loss: its disk's lowest or highest pixel loss


@dataclass(frozen=True)
class RadarPoint:
    """A radar detection in the radar frame, with an optional RCS."""

    x: float
    y: float
    z: float
    rcs_dbsm: float | None = None

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError(f"radar point coordinates must be finite: {self}")
        if self.rcs_dbsm is not None and not math.isfinite(self.rcs_dbsm):
            raise ValueError(f"radar point RCS must be finite: {self}")


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
        if not math.isfinite(self.d_max - self.d_min):
            raise ValueError(f"depth bins width d_max - d_min must be finite, got [{self.d_min}, {self.d_max})")
        if not float(self.num_bins).is_integer():
            raise ValueError(f"depth bins num_bins must be a whole number, got {self.num_bins}")
        if self.num_bins < 1:
            raise ValueError(f"need at least one bin, got {self.num_bins}")
        object.__setattr__(self, "num_bins", int(self.num_bins))

    @property
    def bin_width(self) -> float:
        return (self.d_max - self.d_min) / self.num_bins

    def midpoints(self) -> np.ndarray:
        """Center depth of every bin, strictly increasing."""
        idx = np.arange(self.num_bins, dtype=np.float64)
        return self.d_min + (idx + 0.5) * self.bin_width


@dataclass(frozen=True)
class RadiusConfig:
    """Neighborhood radius settings. ``r_max`` caps the RCS-scaled radius
    and is the radius of a point without RCS. Every setting is finite, so
    that a radius and the JSON that records it are too."""

    k: float = 0.1
    r_max: float = 2.0

    def __post_init__(self):
        for name in ("k", "r_max"):
            if math.isinf(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.k > 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if not self.r_max >= 0:
            raise ValueError(f"r_max must be non-negative, got {self.r_max}")


class DepthTarget(NamedTuple):
    """A row (u, v, d_gt, radius) of the target table: a projected radar
    point's pixel on the feature grid, its depth and its radius."""

    u: int
    v: int
    d_gt: float
    radius: float


@dataclass(frozen=True)
class LossConfig:
    lambda1: float = 0.1
    lambda2: float = 0.1
    neighborhood_agg: str = "min"

    def __post_init__(self):
        if not (0 <= self.lambda1 < math.inf and 0 <= self.lambda2 < math.inf):
            raise ValueError(f"loss weights must be finite and non-negative, got {self.lambda1}, {self.lambda2}")
        if self.neighborhood_agg not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation {self.neighborhood_agg!r}")


def neighborhood_radius(
    depth: float | np.ndarray,
    intrinsics: CameraIntrinsics,
    stride: int,
    cfg: RadiusConfig,
    rcs_dbsm: float | np.ndarray = math.nan,
) -> float | np.ndarray:
    """Supervision radius in feature-map pixels for a point at ``depth`` meters.

    With an RCS value the radius follows the size-proportional formula above,
    up to ``cfg.r_max``; a NaN RCS marks a missing one and takes ``cfg.r_max``,
    so a zero ceiling degenerates cleanly to single-pixel supervision. An
    infinite RCS raises ``ValueError``. Arrays give arrays; ``np.float_power``
    rounds like ``**``, ``np.power`` may not.
    A factor that overflows clamps at ``cfg.r_max``; a radius that is still
    not finite (``0 * inf``, an overflowing ``k`` times an underflowing RCS
    factor) raises ``ValueError`` naming its point.
    """
    check_stride(stride)
    depth = np.asarray(depth, dtype=np.float64)
    if not np.all(depth > 0):
        raise ValueError(f"depth must be positive, got {depth}")
    rcs = np.asarray(rcs_dbsm, dtype=np.float64)
    if np.any(np.isinf(rcs)):
        raise ValueError(f"RCS must be finite or NaN for a missing one, got {rcs_dbsm}")
    f = math.sqrt(intrinsics.fx * intrinsics.fy)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = cfg.k * f / (stride * depth) * np.float_power(10.0, rcs / 20.0)
        r = np.minimum(cfg.r_max, np.where(np.isnan(rcs), cfg.r_max, scaled))
    bad = ~np.isfinite(r)
    if bad.any():
        i = int(np.argmax(bad.ravel()))
        d, c = (np.broadcast_to(a, r.shape).ravel()[i] for a in (depth, rcs))
        raise ValueError(
            f"radius {r.ravel()[i]} of the point at depth {d} m, RCS {c} dBsm, is not finite "
            f"(k = {cfg.k}, r_max = {cfg.r_max})"
        )
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
    table, _ = _target_table(np.array(rows, dtype=np.float64).reshape(-1, 4), calib, stride, [(cfg, True)])
    targets = tuple(map(DepthTarget, *table[:, :2].T.astype(np.intp).tolist(), *table[:, 2:].T.tolist()))
    return TargetBuildResult(targets, len(rows), len(rows) - len(targets))


def _target_table(
    points: np.ndarray, calib: SensorCalibration, stride: int, settings
) -> tuple[np.ndarray, np.ndarray]:
    """The target build on an (N, 4) array of radar-frame rows (x, y, z,
    rcs_dbsm), a NaN RCS marking a missing one: the (M, 3 + R) target table
    (u, v, d_gt, then one radius column per ``(cfg, use_rcs)`` pair of
    ``settings``) of the kept points, in input order, (u, v) their
    ``feature_cell``, and the (N,) mask of the kept points. The points are
    projected once for every column. A column that uses RCS takes
    ``cfg.r_max`` where the RCS is missing; a column that does not takes it
    for every point."""
    height, width = calib.feature_shape(stride)
    u, v, depth, in_front = project_points(calib.radar_to_camera.apply_many(points[:, :3]), calib.intrinsics)
    us, vs = feature_cell(u, stride), feature_cell(v, stride)
    keep = in_front & (0 <= us) & (us < width) & (0 <= vs) & (vs < height)
    depth, rcs = depth[keep], points[keep, 3]
    columns = [us[keep], vs[keep], depth]
    for cfg, use_rcs in settings:
        columns.append(neighborhood_radius(depth, calib.intrinsics, stride, cfg, rcs if use_rcs else math.nan))
    return np.stack(columns, axis=1), keep


def nearest_bin(d, spec: DepthBinSpec):
    """Index of the bin whose midpoint is nearest to ``d`` (a depth or an
    array of depths); out-of-range clamps."""
    d = np.asarray(d, dtype=np.float64)
    if not np.all(np.isfinite(d)):
        raise ValueError(f"depth must be finite, got {d}")
    with np.errstate(over="ignore"):  # a coordinate that overflows clamps like any other
        idx = np.clip(np.floor((d - spec.d_min) / spec.bin_width), 0, spec.num_bins - 1).astype(np.intp)
    return int(idx) if idx.ndim == 0 else idx


def _expectations(volume: np.ndarray, spec: DepthBinSpec) -> np.ndarray:
    """Expected depth of every distribution in a (D, ...) stack.

    The bins are summed one by one in order, so a pixel's value does not
    depend on the size of the map around it; a BLAS product rounds by block
    and would give the same pixel different last bits in different maps.
    """
    out = np.zeros(volume.shape[1:])
    for midpoint, probs in zip(spec.midpoints(), volume):
        out += midpoint * probs
    return out


def _depth_loss(p_gt, expectation, d_gt, cfg: LossConfig):
    """Per-pixel loss: cross entropy against the ground-truth bin's
    probability, floored at ``LOG_PROB_FLOOR``, plus the L1 distance of the
    expected depth from ``d_gt``. A loss that overflows is +inf (or NaN for
    ``0 * inf``), with no warning; the loss and its gradient refuse it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return cfg.lambda1 * -np.log(np.maximum(p_gt, LOG_PROB_FLOOR)) + cfg.lambda2 * np.abs(expectation - d_gt)


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


class TargetLoss(NamedTuple):
    """Loss of one target with the pixel the aggregation selected."""

    loss: float
    pixel: tuple[int, int]
    num_pixels: int


@dataclass(frozen=True)
class LossResult:
    total: float
    per_target: tuple[TargetLoss, ...]


def as_target_table(targets) -> np.ndarray:
    """The (N, 4) float64 table of ``targets``: an array or a sequence of (u, v, d_gt,
    radius) rows. An empty sequence is (0, 4); any other shape raises ``ValueError``."""
    table = np.asarray(targets, dtype=np.float64)
    if table.shape == (0,):
        return table.reshape(0, 4)
    if table.ndim != 2 or table.shape[1] != 4:
        raise ValueError(f"target table must be (N, 4), got shape {table.shape}")
    return table


def _refuse_targets(table: np.ndarray, ok: np.ndarray, what: str) -> None:
    """Refuse the first row of ``table`` that is not ``ok``, naming it, then ``what`` is wrong."""
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"target {i} (u, v, d_gt, radius) = {tuple(table[i].tolist())} {what}")


def _check_target_table(table: np.ndarray, shape: tuple[int, int]) -> None:
    """Name the first (u, v, d_gt, radius, ...) row without finite values,
    non-negative radii and a pixel on the map of ``shape`` (H, W), then the
    first whose u or v is not a whole number."""
    u, v = table[:, 0], table[:, 1]
    ok = np.isfinite(table).all(axis=1) & (table[:, 3:] >= 0.0).all(axis=1)
    ok &= (0 <= u) & (u < shape[1]) & (0 <= v) & (v < shape[0])
    _refuse_targets(table, ok, f"needs finite values, a non-negative radius and a pixel on the (H, W) = {shape} map")
    _refuse_targets(
        table, (u == np.floor(u)) & (v == np.floor(v)),
        "needs a whole-number pixel (u, v): a fractional one would be supervised at the pixel it truncates to",
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
    with np.errstate(over="ignore"):  # a radius squared to inf still compares right
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
    table: np.ndarray, shape: tuple[int, int], picks: tuple[tuple[int, str], ...], cost_at
) -> tuple[_Selection, ...]:
    """For every (u, v, d_gt, radius, ...) row, one selection per
    ``(column, agg)`` pick: among the pixels of the disk whose radius is the
    row's radius column ``column`` (0 is the table's column 3), the one whose
    ``cost_at(rows, uu, vv)`` is lowest (``"min"``) or highest (``"max"``),
    ties going to the first candidate in row-major order. A disk of radius
    below 1, such as radius 0, holds the struck pixel alone: that is
    one-to-one supervision.

    The candidates are scored once for all picks, which is what lets one
    call serve every arm of an experiment. Targets are scored in groups of
    equal stencil half-width (the floor of the row's largest radius, clipped
    to the map). A group's stencil is the :func:`neighborhood_pixels` disk
    of its largest radius, so one wide disk does not widen the candidates of
    every other target, and ``cost_at`` is called once per group. Each
    pick's disk is a mask over that stencil: the candidates on the map
    within the pick's radius. A row-major stencil keeps its order under the
    mask and ``cost_at`` is elementwise, so a pick selects what a table of
    its radius column alone would.
    """
    _check_target_table(table, shape)
    height, width = shape
    radii = table[:, 3:]
    widest = radii.max(axis=1)
    halves = np.minimum(np.floor(widest), max(shape) - 1).astype(np.intp)
    selections = [
        _Selection(*(np.zeros(len(table), t) for t in (np.intp, np.intp, float, np.intp)), [])
        for _ in picks
    ]
    for half in np.unique(halves).tolist():
        rows = np.flatnonzero(halves == half)
        size = 2 * half + 1
        du, dv = (np.array(neighborhood_pixels(half, half, widest[rows].max(), size, size)) - half).T
        u, v = table[rows, 0:1].astype(np.intp), table[rows, 1:2].astype(np.intp)
        uu, vv = u + du, v + dv
        on_map = (0 <= uu) & (uu < width) & (0 <= vv) & (vv < height)
        r = radii[rows, :, None]
        with np.errstate(over="ignore"):  # a radius squared to inf still compares right
            disks = (du * du + dv * dv <= r * r) & on_map[:, None]  # (rows, radius columns, stencil)
        looked_up = disks.any(axis=1)  # the disk of the row's largest radius
        uu, vv = np.where(looked_up, uu, u), np.where(looked_up, vv, v)
        raw = cost_at(rows, uu, vv)
        at = np.arange(len(rows))
        for (column, agg), sel in zip(picks, selections):
            mask = disks[:, column]
            sign = 1.0 if agg == "min" else -1.0
            costs = np.where(mask, sign * raw, np.inf)
            pick = np.argmin(costs, axis=1)
            # The pick lands off the disk only when every candidate costs
            # +inf; the disk's first candidate then wins, as in any other tie.
            pick = np.where(mask[at, pick], pick, np.argmax(mask, axis=1))
            sel.u[rows], sel.v[rows] = uu[at, pick], vv[at, pick]
            sel.cost[rows] = sign * costs[at, pick]
            sel.count[rows] = mask.sum(axis=1)
            sel.costs.append(costs)
    return tuple(sel._replace(costs=tuple(sel.costs)) for sel in selections)


def _loss_selection(depth_map, targets, spec: DepthBinSpec, cfg: LossConfig):
    """Score every target's disk with the per-pixel loss and select.

    Returns the validated map, the (N, 4) target table, the (H, W) map of
    expected depths and the selection, which the loss and its gradient share.
    A selected cost that is not finite raises ``ValueError`` naming its target.
    """
    depth_map = validate_depth_volume(depth_map, spec.num_bins)
    table = as_target_table(targets)
    shape = depth_map.shape[1:]
    expectation = _expectations(depth_map, spec)

    def cost_at(rows, uu, vv):
        d_gt = table[rows, 2:3]
        p_gt = depth_map[nearest_bin(d_gt, spec), vv, uu]
        return _depth_loss(p_gt, expectation[vv, uu], d_gt, cfg)

    (sel,) = _select_in_disks(table, shape, ((0, cfg.neighborhood_agg),), cost_at)
    _refuse_targets(table, np.isfinite(sel.cost), "has a loss that is not finite")
    return depth_map, table, expectation, sel


def one_to_many_loss(
    depth_map: np.ndarray,
    targets,
    spec: DepthBinSpec,
    cfg: LossConfig,
) -> LossResult:
    """Mean over targets of the aggregated neighborhood depth loss.

    For each target the per-pixel loss is evaluated on its neighborhood and
    aggregated with min (default) or max; a target of radius 0 is
    one-to-one: its neighborhood is the target pixel itself. ``targets`` is
    anything :func:`as_target_table` takes, with whole-number u and v. An
    empty table yields a total of zero. A target off the map, with a
    fractional u or v, or with a non-finite depth or a negative or
    non-finite radius, raises a ``ValueError`` naming its index.
    """
    *_, sel = _loss_selection(depth_map, targets, spec, cfg)
    per_target = tuple(map(TargetLoss, sel.cost.tolist(), zip(sel.u.tolist(), sel.v.tolist()), sel.count.tolist()))
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
    share one selection and one expectation map. The gradients, each times
    1 / N, are summed into the map by one flat ``np.bincount``, which adds
    each element's terms from 0.0 in target order. A target whose gradient
    is not finite raises ``ValueError`` naming it.
    """
    depth_map, table, expectation, sel = _loss_selection(depth_map, targets, spec, cfg)
    if not len(table):
        return np.zeros(depth_map.shape)
    u, v, d_gt = sel.u, sel.v, table[:, 2]
    bins = nearest_bin(d_gt, spec)
    rows = np.arange(len(table))
    midpoints = spec.midpoints()
    p = depth_map[:, v, u]
    e = expectation[v, u]
    p_minus_one_hot = p.copy()
    p_minus_one_hot[bins, rows] -= 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.where(p[bins, rows] > LOG_PROB_FLOOR, cfg.lambda1 * p_minus_one_hot, 0.0)
        g += cfg.lambda2 * np.sign(e - d_gt) * p * (midpoints[:, None] - e)
    _refuse_targets(table, np.isfinite(g).all(axis=0), "has a gradient that is not finite")
    _, height, width = depth_map.shape
    flat = np.arange(len(midpoints))[:, None] * (height * width) + (v * width + u)  # bins outer, targets inner
    g *= 1.0 / len(table)
    scatter = np.bincount(flat.reshape(-1), g.reshape(-1), depth_map.size)
    return scatter.reshape(depth_map.shape)


def read_radar_points_csv(path: str | Path) -> np.ndarray:
    """Read points from a CSV with header x,y,z[,rcs_dbsm[,doppler]] into an
    (N, 4) array of radar-frame rows (x, y, z, rcs_dbsm).

    The RCS and Doppler columns are optional and individual cells may be
    empty or missing at the end of a row, in which case the field is absent
    for that point: an absent RCS reads as NaN. Doppler values are checked
    but not kept. A header that repeats a column, a row without x, y and z,
    with more fields than the header or with a value that is not a finite
    number raises a ``ValueError`` naming the file and the column or line.
    The file is UTF-8, with or without a byte-order mark.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        fields = [f.strip() for f in next(reader, ())]
        if fields[:3] != ["x", "y", "z"]:
            raise ValueError(f"{path}: expected a header starting with x,y,z")
        repeated = [f for i, f in enumerate(fields) if f in fields[:i]]
        if repeated:
            raise ValueError(f"{path}: the header repeats the column {repeated[0]!r}")
        extra = set(fields[3:])
        if not extra <= {"rcs_dbsm", "doppler"}:
            raise ValueError(f"{path}: unexpected columns {sorted(extra - {'rcs_dbsm', 'doppler'})}")
        rows = []
        for cells in reader:
            if not cells:
                continue
            where = f"{path}, line {reader.line_num}"
            try:
                row = {f: float(c) for f, c in zip(fields, cells) if c}  # an empty cell is absent
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if len(cells) > len(fields) or not {"x", "y", "z"} <= row.keys():
                raise ValueError(f"{where}: a row needs x, y and z and at most {len(fields)} fields")
            for name, value in row.items():
                if not math.isfinite(value):
                    what = {"rcs_dbsm": "RCS", "doppler": "Doppler"}.get(name, "coordinates")
                    raise ValueError(f"{where}: radar point {what} must be finite, got {value}")
            rows.append((row["x"], row["y"], row["z"], row.get("rcs_dbsm", math.nan)))
    return np.array(rows, dtype=np.float64).reshape(-1, 4)
