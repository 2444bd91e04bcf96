"""Synthetic radar/camera scenes for validating the depth-supervision design.

Scenes hold frontal rectangles at known depths; a noise model perturbs radar
returns in azimuth, elevation (uniform within one resolution cell) and range
(Gaussian, truncated at three sigma). Supervision quality is measured by
projecting the noisy points into depth targets and asking whether any pixel
of each target's neighborhood still sees the true depth: one-to-many
supervision with a size-adaptive radius should recover more targets than a
single compromise radius, which in turn beats supervising only the struck
pixel.

The experiment is array-first across the seeds of a run. One :class:`Scene`
holds every seed's objects as an (S, n_objects, 5) table (camera-frame
centre x, y, depth; frontal area; RCS), filled in one vector pass, and
:func:`simulate_radar` returns every seed's radar returns as one (N, 4)
table plus per-seed counts. The batch spans the run, not one scene: at ~8
objects a scene, NumPy's per-call overhead costs more than the scalar
Python it would replace. The arms differ only in the radius a return
supervises, so one :func:`evaluate_supervision` call scores every arm on
every seed: one target table holds each target's pixel and depth once, with
one radius column per distinct radius setting and RCS use, and one
neighbourhood selection looks each target's candidate costs up once, over
the disk of its largest radius, for every arm's radius and aggregation. It
returns each metric as one (arms, seeds) array. A target of radius 0 is
one-to-one: its disk is the struck pixel, so a one-to-one arm is an arm of
radius 0. True depth is not rendered as a map: the selection looks it up at
its candidate pixels from the scene's object boxes (:func:`true_depth_at`),
one object slot at a time. All orderings are bootstrapped over one resample
index.

Objects live in the camera frame. :func:`simulate_radar` maps each surface
point into the radar frame with the inverse of ``radar_to_camera`` and
applies the noise there, in spherical coordinates about the radar's origin,
so a mount's lever arm and rotation shape the pixel error; the target
build's one ``radar_to_camera`` lands the returns back near their objects.
Under the identity mount the inverse changes no nonzero coordinate, so the
packaged experiment is unchanged by where the noise is applied.

Results are bit-identical to drawing and scoring one seed at a time:

- ``rng.uniform(lo, hi)`` is ``lo + (hi - lo) * rng.random()`` on the same
  stream, so a seed takes its five draws per object from one
  ``rng.random((n_objects, 5))``, and the surface offsets of its returns
  from one ``rng.random((n, 2))``.
- ``+ - * /``, ``sqrt`` and ``floor`` are correctly rounded in NumPy as in
  Python floats, so the vector passes over the scene table and over all
  returns equal the per-object and per-return arithmetic.
- The measurement noise keeps its scalar draws per return, in return order
  (``rng.random()`` twice, then ``rng.standard_normal()`` when
  ``range_sigma > 0``): ``Generator.standard_normal`` consumes a variable
  number of words per sample, so a batched draw would reorder the stream.
  Only these draws are a Python loop.
- NumPy's ``tan``, ``sin``, ``cos``, ``arctan2``, ``arcsin`` and ``log10``
  give an element the same bits inside any array as on its own.
- A seed's mean depth error is ``np.add.reduce`` over its slice of an arm's
  finite errors divided by their count, which is what ``np.mean`` computes;
  ``np.add.reduceat`` sums a slice sequentially, not pairwise.
- Every ordering's resamples are one ``bootstrap_seed`` draw, the same
  draw each ordering made on its own.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .depth_supervision import (
    AGGREGATIONS,
    DepthBinSpec,
    RadiusConfig,
    _select_in_disks,
    _target_table,
    build_depth_targets,  # noqa: F401 -- bench/tracing.py wraps the name in this module
    neighborhood_pixels,  # noqa: F401 -- bench/tracing.py wraps the name in this module
)
from .geometry import (
    SensorCalibration,
    camera_to_spherical,
    feature_cell,
    load_json,
    project_points,
    read_json,
    spherical_to_camera,
)

RCS_SIZE_CONSTANT_M2 = 1.0  # square meters of frontal area per 0 dBsm


def rcs_from_size(size_m2: float | np.ndarray) -> float | np.ndarray:
    """RCS in dBsm of objects with the given frontal areas, a float or an array."""
    if not (np.asarray(size_m2) > 0).all():
        raise ValueError(f"object size must be positive, got {np.min(size_m2)}")
    return 10.0 * np.log10(size_m2 / RCS_SIZE_CONSTANT_M2)


@dataclass(frozen=True)
class SceneExtents:
    """Placement and size ranges for generated objects.

    Two size classes model large reflective targets (vehicles) and small
    ones (pedestrians); ``large_fraction`` is the probability of the former.
    Each class carries its own depth range because detection range shrinks
    with radar cross section: small targets only show up close.
    """

    large_depth_range: tuple[float, float] = (10.0, 40.0)
    small_depth_range: tuple[float, float] = (8.0, 18.0)
    azimuth_max_deg: float = 16.0
    elevation_max_deg: float = 4.0
    large_size_range: tuple[float, float] = (3.0, 9.0)
    small_size_range: tuple[float, float] = (0.2, 0.6)
    large_fraction: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not 0.0 <= self.large_fraction <= 1.0:
            raise ValueError("large_fraction must lie in [0, 1]")
        for name, rng in (("large", self.large_depth_range), ("small", self.small_depth_range)):
            if rng[0] <= 0 or rng[0] >= rng[1]:
                raise ValueError(f"bad {name} depth range {rng}")
        for key in ("large_size_range", "small_size_range"):
            if min(getattr(self, key)) <= 0:
                raise ValueError(f"{key} must hold positive sizes, got {getattr(self, key)}")


EMPTY_BOX = (0, -1, 0, -1)  # (u0, u1, v0, v1) of an object that covers no feature cell


def true_depth_at(boxes, uu: np.ndarray, vv: np.ndarray) -> np.ndarray:
    """True depth at feature cells (uu, vv): the depth of the nearest object
    whose box covers the cell, +inf where none does.

    ``boxes`` yields one (..., 5) array (u0, u1, v0, v1, depth) per object,
    broadcasting against ``uu`` and ``vv``. Objects are visited one at a
    time, so temporaries stay the size of the queried cells.
    """
    depth = np.full(np.broadcast_shapes(np.shape(uu), np.shape(vv)), np.inf)
    for box in boxes:
        u0, u1, v0, v1, d = np.moveaxis(box, -1, 0)
        covered = (u0 <= uu) & (uu <= u1) & (v0 <= vv) & (vv <= v1)
        np.minimum(depth, d, out=depth, where=covered)
    return depth


@dataclass(frozen=True, eq=False)
class Scene:
    """Generated objects of S seeds, seen through one calibration at one
    feature stride.

    ``table`` is (S, n_objects, 5), one row per object: its camera-frame
    centre (x, y, depth), its frontal area in m² and its RCS in dBsm.
    ``boxes`` is (S, n_objects, 5), one row (u0, u1, v0, v1, depth) per
    object: the inclusive feature cells its projected rectangle touches
    (:data:`EMPTY_BOX` when it misses the map) and its true depth. A corner
    lies in its ``geometry.feature_cell``, as a target's point does, and a
    cell is covered when the rectangle touches it, so a point on an object
    always lands on a covered cell.
    """

    table: np.ndarray
    stride: int
    calibration: SensorCalibration
    boxes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        height, width = self.calibration.feature_shape(self.stride)
        table = np.asarray(self.table, dtype=np.float64)
        if table.ndim != 3 or table.shape[2] != 5:
            raise ValueError(f"scene table must be (seeds, objects, 5), got shape {table.shape}")
        if not (table[..., 2:4] > 0).all():
            raise ValueError("object size and depth must be positive")
        x, y, depth = table[..., 0], table[..., 1], table[..., 2]
        sides = np.array([-1.0, 1.0])[:, None, None] * (np.sqrt(table[..., 3]) / 2.0)
        corners = np.stack([x + sides, y + sides, np.broadcast_to(depth, sides.shape)], axis=-1)
        u, v, _, _ = project_points(corners, self.calibration.intrinsics)
        us, vs = feature_cell(u, self.stride), feature_cell(v, self.stride)
        u0, u1 = np.maximum(0.0, us[0]), np.minimum(width - 1, us[1])
        v0, v1 = np.maximum(0.0, vs[0]), np.minimum(height - 1, vs[1])
        boxes = np.stack([u0, u1, v0, v1, depth], axis=-1)
        boxes[(u0 > u1) | (v0 > v1), :4] = EMPTY_BOX
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "boxes", boxes)


def generate_scene(
    seeds,
    n_objects: int,
    extents: SceneExtents,
    calib: SensorCalibration,
    stride: int,
) -> Scene:
    """Deterministically sample ``n_objects`` objects for each seed: per
    object, five uniform draws (azimuth, elevation, size class, size, depth)
    from ``default_rng(seed)``. Row s of the scene holds ``seeds[s]``."""
    if n_objects < 0:
        raise ValueError(f"n_objects must be non-negative, got {n_objects}")
    draws = np.array([np.random.default_rng(seed).random((n_objects, 5)) for seed in seeds])
    u_az, u_el, u_class, u_size, u_depth = np.moveaxis(draws.reshape(len(seeds), n_objects, 5), -1, 0)

    def uniform(bounds, u):  # rng.uniform(lo, hi) is lo + (hi - lo) * u on the same stream
        lo, hi = bounds
        return lo + (hi - lo) * u

    large = u_class < extents.large_fraction
    size = np.where(large, uniform(extents.large_size_range, u_size), uniform(extents.small_size_range, u_size))
    depth = np.where(large, uniform(extents.large_depth_range, u_depth), uniform(extents.small_depth_range, u_depth))
    az, el = extents.azimuth_max_deg, extents.elevation_max_deg
    angles = np.stack([uniform((-az, az), u_az), uniform((-el, el), u_el)])
    tan = np.tan(np.radians(angles))
    return Scene(np.stack([depth * tan[0], depth * tan[1], depth, size, rcs_from_size(size)], axis=-1), stride, calib)


@dataclass(frozen=True)
class RadarNoiseModel:
    """Angular quantization noise plus truncated Gaussian range noise.

    Azimuth and elevation are perturbed uniformly within half a resolution
    cell on each side; range noise is clipped at three sigma so the
    worst-case tangential error bound stays analytic. The number of returns
    per object grows with the square root of its frontal area. The angular
    resolution is the calibration's. The model holds no seed: each
    experiment seed draws its own returns.
    """

    range_sigma: float = 0.0
    points_base: float = 0.0
    points_size_scale: float = 2.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.range_sigma < 0:
            raise ValueError("range_sigma must be non-negative")

    def points_for(self, size_m2: np.ndarray) -> np.ndarray:
        """The number of returns of objects of the given frontal areas: at
        least one each, and at most ``sys.maxsize``, the largest ``intp``, in all."""
        with np.errstate(over="ignore"):  # an infinite count is refused below
            counts = np.maximum(1, np.rint(self.points_base + self.points_size_scale * np.sqrt(size_m2)))
            total = counts.sum()
        if not total < sys.maxsize:  # sys.maxsize compares as 2.0**63, the first float past intp
            raise ValueError(
                f"points_base + points_size_scale * sqrt(size) must give at most {sys.maxsize} returns, got {total:g}"
            )
        return counts.astype(np.intp)


def simulate_radar(scene: Scene, model: RadarNoiseModel, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Noisy radar returns of every seed of a scene: (N, 4) rows (x, y, z,
    rcs_dbsm) in the radar frame of ``scene.calibration``, seed by seed and
    in object order within a seed, and the (S,) count of each seed's
    returns. Seed s draws its returns from ``default_rng(seeds[s])``.

    Each object yields ``model.points_for`` of its size returns, drawn
    uniformly on its frontal rectangle (one (dx, dy) pair per return). The
    surface points are mapped into the radar frame with the inverse of
    ``radar_to_camera`` and perturbed there, in spherical coordinates about
    the radar's origin (:func:`~radarcam.geometry.camera_to_spherical`):
    azimuth and elevation draws within the calibration's
    ``angular_resolution`` and a range draw per return. So a mount's lever
    arm and rotation change where the noise moves a return in the image.

    Only the noise draws are scalar: per return ``rng.random()`` twice, then
    ``rng.standard_normal()`` when ``range_sigma > 0``, in return order, so
    each seed's stream is the one-point-at-a-time stream. The spherical
    round trip, the noise and the clip run on arrays over all N returns.
    """
    if len(seeds) != len(scene.table):
        raise ValueError(f"need one noise seed per scene seed, got {len(seeds)} for {len(scene.table)}")
    counts = model.points_for(scene.table[..., 3])
    source = scene.table.reshape(-1, 5).repeat(counts.ravel(), axis=0)
    per_seed = counts.sum(axis=1)
    ends = np.cumsum(per_seed).tolist()
    sigma = model.range_sigma
    width = 3 if sigma > 0 else 2  # noise draws per return
    surface, draws = np.empty((len(source), 2)), []
    for seed, lo, hi in zip(seeds, [0, *ends], ends):
        rng = np.random.default_rng(seed)
        rng.random(out=surface[lo:hi])
        fns = (rng.random, rng.random, rng.standard_normal)[:width]
        draws += [fn() for _ in range(hi - lo) for fn in fns]
    draws = np.array(draws, dtype=np.float64).reshape(-1, width)
    # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random() on the same stream.
    half = np.sqrt(source[:, 3:4]) / 2.0
    offsets = -half + (half - -half) * surface
    hits = np.column_stack((source[:, 0] + offsets[:, 0], source[:, 1] + offsets[:, 1], source[:, 2]))
    radar = scene.calibration.radar_to_camera.inverse().apply_many(hits)
    rho, theta, phi = camera_to_spherical(radar[:, 0], radar[:, 1], radar[:, 2])
    res = scene.calibration.angular_resolution
    delta_theta, delta_phi = res.delta_theta, res.delta_phi
    theta_lo, phi_lo = -delta_theta / 2.0, -delta_phi / 2.0
    theta = theta + (theta_lo + (delta_theta / 2.0 - theta_lo) * draws[:, 0])
    phi = phi + (phi_lo + (delta_phi / 2.0 - phi_lo) * draws[:, 1])
    if sigma > 0:
        # normal(0.0, sigma) is 0.0 + sigma * standard_normal(); the 0.0 only turns -0.0 into
        # +0.0, which the sum with rho >= +0.0 cannot show.
        rho = rho + np.clip(sigma * draws[:, 2], -3.0 * sigma, 3.0 * sigma)
    radar = np.stack(spherical_to_camera(np.maximum(rho, 0.0), theta, phi), axis=-1)
    return np.column_stack((radar, source[:, 4])), per_seed


class SupervisionMetrics(NamedTuple):
    """Each metric as one (arms, seeds) array, rows in arm order. Every arm
    shares the targets, so every row of the integer ``n_targets`` is equal."""

    hit_rate: np.ndarray
    depth_mae: np.ndarray
    n_targets: np.ndarray


@dataclass(frozen=True)
class ExperimentArm:
    """One supervision configuration evaluated across all seeds. An arm
    whose radius is 0 is one-to-one. An arm without RCS takes its radius
    from ``radius.fixed_r``, 2.0 px unless set."""

    name: str
    radius: RadiusConfig = RadiusConfig()
    agg: str = "min"
    use_rcs: bool = False

    def __post_init__(self):
        if self.agg not in AGGREGATIONS:
            raise ValueError(f"arm {self.name!r}: unknown aggregation {self.agg!r}")


def evaluate_supervision(
    scene: Scene,
    points: np.ndarray,
    counts,
    bins: DepthBinSpec,
    arms: tuple[ExperimentArm, ...],
) -> SupervisionMetrics:
    """Score each seed's depth targets against its true depth, once per arm
    of ``arms``.

    ``points`` holds the (N, 4) radar returns (x, y, z, rcs_dbsm) of every
    seed of ``scene``, seed by seed, and ``counts`` the number of returns of
    each seed, whole and non-negative. An arm that uses RCS scales its radius
    by it; an arm without RCS takes ``radius.fixed_r`` (2.0 px unless set),
    as does a return whose RCS is NaN (absent).

    Every arm shares the returns, so it shares each target's pixel, depth
    and kept mask: one target table holds them with one radius column per
    distinct ``(radius, use_rcs)`` setting, and one selection looks the true
    depths up once per target, over the disk of its largest radius, for
    every arm's ``(column, agg)`` pick.

    Each target selects the neighborhood pixel whose true depth is closest
    to its measured depth (``"min"``; ``"max"`` selects the farthest,
    modeling worst-pixel aggregation); a target of radius 0 reads the struck
    pixel. A target hits when the selected pixel's true depth lies within
    half a bin of the measured depth; the mean absolute error is reported
    over targets whose selected pixel sees any object at all (0 where none
    does). Each metric is one (arms, seeds) array, rows in ``arms`` order.
    """
    if not arms:
        raise ValueError("evaluate_supervision needs at least one arm")
    n_seeds = len(scene.table)
    counts = np.asarray(counts)
    whole = (counts >= 0).all() and (counts == np.floor(counts)).all()
    if counts.shape != (n_seeds,) or not whole or counts.sum() != len(points) or np.shape(points)[1:] != (4,):
        raise ValueError(
            "need (N, 4) returns and one return count per seed, whole and non-negative, summing to N, "
            f"got {counts.tolist()} for {n_seeds}"
        )
    settings = list(dict.fromkeys((arm.radius, arm.use_rcs) for arm in arms))
    picks = tuple((settings.index((arm.radius, arm.use_rcs)), arm.agg) for arm in arms)
    table, keep = _target_table(points, scene.calibration, scene.stride, settings)
    seed_of = np.repeat(np.arange(n_seeds), counts.astype(np.intp))[keep]
    boxes = scene.boxes.swapaxes(0, 1)  # one (seeds, 5) box table per object slot

    def cost_at(rows, uu, vv):
        at = seed_of[rows, None]
        cost = true_depth_at((b[at] for b in boxes), uu, vv)
        cost -= table[rows, 2:3]
        return np.abs(cost, out=cost)

    shape = scene.calibration.feature_shape(scene.stride)
    n_targets = np.bincount(seed_of, minlength=n_seeds)
    hits = np.empty((len(arms), n_seeds), dtype=n_targets.dtype)
    sums, n_seen = np.empty((len(arms), n_seeds)), np.empty_like(hits)
    for a, sel in enumerate(_select_in_disks(table, shape, picks, cost_at)):
        err = sel.cost
        hits[a] = np.bincount(seed_of[err <= bins.bin_width / 2.0], minlength=n_seeds)
        finite = np.isfinite(err)
        seen = err[finite]
        n_seen[a] = np.bincount(seed_of[finite], minlength=n_seeds)
        ends = np.cumsum(n_seen[a]).tolist()
        # One reduce per slice keeps np.mean's pairwise sum; np.add.reduceat sums sequentially.
        sums[a] = [np.add.reduce(seen[lo:hi]) for lo, hi in zip([0, *ends], ends)]
    hit_rate = np.divide(hits, n_targets, out=np.zeros(hits.shape), where=n_targets > 0)
    depth_mae = np.divide(sums, n_seen, out=np.zeros(sums.shape), where=n_seen > 0)
    return SupervisionMetrics(hit_rate, depth_mae, np.tile(n_targets, (len(arms), 1)))


@dataclass(frozen=True)
class ExperimentConfig:
    """The supervision experiment. The calibration's ``delta_*_deg`` keys set
    the radar's angular resolution, ``noise`` its range noise and returns."""

    calibration: SensorCalibration
    stride: int
    bins: DepthBinSpec
    noise: RadarNoiseModel
    arms: tuple[ExperimentArm, ...]
    scene: SceneExtents = SceneExtents()
    n_objects: int = 8
    seed_start: int = 0
    num_seeds: int = 150
    bootstrap_samples: int = 2000
    bootstrap_seed: int = 20240901
    orderings: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def __post_init__(self):
        for key, least in (
            ("stride", 1), ("num_seeds", 1), ("bootstrap_samples", 1), ("n_objects", 0),
            ("seed_start", 0), ("bootstrap_seed", 0),
        ):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be at least {least}, got {getattr(self, key)}")
        for key in ("num_seeds", "bootstrap_samples", "n_objects"):
            # A count is a range() length or an array dimension, both C ssize_t.
            if getattr(self, key) > sys.maxsize:
                raise ValueError(f"{key} must be at most {sys.maxsize}, got {getattr(self, key)}")
        side = min(self.calibration.image_width, self.calibration.image_height)
        if self.stride > side:  # a larger stride leaves no feature-map pixel to supervise
            raise ValueError(f"stride must be at most {side}, the calibration's shorter image side, got {self.stride}")
        if not self.arms:
            raise ValueError("arms must hold at least one arm")
        names = [arm.name for arm in self.arms]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"duplicate arm name {name!r}")
        for better, worse in self.orderings:
            for name in (better, worse):
                if name not in names:
                    raise ValueError(f"ordering {better!r} >= {worse!r} names unknown arm {name!r}")
        if self.orderings and self.num_seeds < 2:
            # One seed's bootstrap returns the gap itself as its lower bound.
            raise ValueError(f"num_seeds must be at least 2 to bootstrap orderings, got {self.num_seeds}")

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        return read_json(cls, load_json(path), "")


def default_experiment_config() -> ExperimentConfig:
    """The packaged default experiment (seed range, noise model and arms)."""
    text = resources.files("radarcam").joinpath("configs/default_experiment.json").read_text()
    return read_json(ExperimentConfig, json.loads(text), "")


def bootstrap_index(size: int, n_samples: int, seed: int) -> np.ndarray:
    """The (n_samples, size) resample index of a paired bootstrap over
    ``size`` pairs, drawn from ``seed``."""
    if n_samples < 1:
        raise ValueError(f"the bootstrap needs at least 1 sample, got {n_samples}")
    return np.random.default_rng(seed).integers(0, size, size=(n_samples, size))


def bootstrap_gap(a: np.ndarray, b: np.ndarray, index: np.ndarray) -> tuple[float, float]:
    """Paired bootstrap of mean(a - b) over the resamples of ``index`` (one
    row of pair indices per resample, see :func:`bootstrap_index`): returns
    (mean gap, one-sided 95% lower bound)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("paired bootstrap needs two equal-length non-empty vectors")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("paired bootstrap needs finite values")
    if index.ndim != 2 or index.shape[0] < 1 or index.shape[1] != a.size:
        raise ValueError(f"resample index must be (n_samples >= 1, {a.size}), got shape {index.shape}")
    diffs = a - b
    samples = diffs[index].mean(axis=1)
    return float(diffs.mean()), float(np.percentile(samples, 5.0))


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Increasing ``seeds``, arm names, the (arms, seeds) ``metrics`` and the
    JSON ``summary``. The arrays make ``==`` ambiguous, so it is identity."""

    seeds: tuple[int, ...]
    arms: tuple[str, ...]
    metrics: SupervisionMetrics
    summary: dict


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Evaluate every arm over the seed range and summarize pairwise orderings.

    One scene table holds every seed's objects and one table every seed's
    radar returns, each seed drawing from its own generator; one
    :func:`evaluate_supervision` call then scores every arm on all seeds at
    once, one (arms, seeds) array per metric. An arm's summary holds the
    ``mean_<metric>`` of its row of each; an ordering compares two arms'
    ``hit_rate`` rows, every ordering over one bootstrap resample index.
    """
    seeds = tuple(range(cfg.seed_start, cfg.seed_start + cfg.num_seeds))
    scene = generate_scene(seeds, cfg.n_objects, cfg.scene, cfg.calibration, cfg.stride)
    points, counts = simulate_radar(scene, cfg.noise, [seed + 1 for seed in seeds])
    metrics = evaluate_supervision(scene, points, counts, cfg.bins, cfg.arms)
    del scene, points  # before the bootstrap allocates its resamples
    names = tuple(arm.name for arm in cfg.arms)
    arm_summaries = {
        name: {"mean_" + field: float(np.mean(values[a])) for field, values in zip(metrics._fields, metrics)}
        for a, name in enumerate(names)
    }

    orderings = {}
    index = bootstrap_index(cfg.num_seeds, cfg.bootstrap_samples, cfg.bootstrap_seed) if cfg.orderings else None
    for better, worse in cfg.orderings:
        a, b = metrics.hit_rate[names.index(better)], metrics.hit_rate[names.index(worse)]
        gap, low = bootstrap_gap(a, b, index)
        orderings[f"{better}>={worse}"] = {"gap_mean": gap, "gap_ci95_low": low, "holds": bool(low > 0.0)}

    summary = {
        "num_seeds": cfg.num_seeds,
        "seed_start": cfg.seed_start,
        "arms": arm_summaries,
        "orderings": orderings,
        "all_orderings_hold": bool(all(o["holds"] for o in orderings.values())),
    }
    return ExperimentResult(seeds, names, metrics, summary)
