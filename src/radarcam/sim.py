"""Synthetic radar/camera scenes for validating the depth-supervision design.

Scenes hold frontal rectangles at known depths; a noise model perturbs radar
returns in azimuth, elevation (uniform within one resolution cell) and range
(Gaussian, truncated at three sigma). Supervision quality is measured by
projecting the noisy points into depth targets and asking whether any pixel
of each target's neighborhood still sees the true depth: one-to-many
supervision with a size-adaptive radius should recover more targets than a
single compromise radius, which in turn beats supervising only the struck
pixel.

The experiment is array-first across seeds. Each seed draws its scene and
its (N, 4) radar returns; each arm then scores every seed at once, with one
target table and one neighbourhood selection, and the per-seed metrics are
read from each seed's slice of the result. True depth is not rendered as a
map: the selection looks it up at its candidate pixels from the scenes'
projected object boxes (:func:`true_depth_at`), one object at a time.

Results are bit-identical to drawing and scoring one seed at a time:

- ``rng.uniform(lo, hi)`` is ``lo + (hi - lo) * rng.random()`` on the same
  stream, so a scene takes its five draws per object from one
  ``rng.random((n_objects, 5))``, and the surface offsets come from one
  ``rng.uniform`` over per-return half extents.
- The measurement noise keeps three scalar draws per return, in return order:
  ``Generator.normal`` consumes a variable number of words per sample, so a
  batched draw would reorder the stream.
- Trigonometry (``radians``, ``tan``, ``atan2``, ``asin``, ``sin``, ``cos``,
  ``log10``) stays in :mod:`math` on Python floats: NumPy's vectorised
  versions differ from libm in the last bit on some inputs.
- A seed's mean depth error is ``np.mean`` over its own slice, as before.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .depth_supervision import (
    AGGREGATIONS,
    STRATEGIES,
    DepthBinSpec,
    RadiusConfig,
    _select_in_disks,
    _target_table,
    build_depth_targets,  # noqa: F401 -- bench/tracing.py wraps the name in this module
    neighborhood_pixels,  # noqa: F401 -- bench/tracing.py wraps the name in this module
)
from .geometry import SensorCalibration, json_list, json_number, json_numbers, json_object, load_json

RCS_SIZE_CONSTANT_M2 = 1.0  # square meters of frontal area per 0 dBsm


def rcs_from_size(size_m2: float) -> float:
    """RCS in dBsm of an object with the given frontal area."""
    if size_m2 <= 0:
        raise ValueError(f"object size must be positive, got {size_m2}")
    return 10.0 * math.log10(size_m2 / RCS_SIZE_CONSTANT_M2)


@dataclass(frozen=True)
class SceneObject:
    """A frontal rectangle: camera-frame center, footprint area and depth."""

    center: tuple[float, float, float]
    size_m2: float
    true_depth: float
    rcs_dbsm: float

    def __post_init__(self):
        if self.size_m2 <= 0 or self.true_depth <= 0:
            raise ValueError("object size and depth must be positive")

    @property
    def half_extent(self) -> float:
        return math.sqrt(self.size_m2) / 2.0


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
        if not 0.0 <= self.large_fraction <= 1.0:
            raise ValueError("large_fraction must lie in [0, 1]")
        for name, rng in (("large", self.large_depth_range), ("small", self.small_depth_range)):
            if rng[0] <= 0 or rng[0] >= rng[1]:
                raise ValueError(f"bad {name} depth range {rng}")

    @classmethod
    def from_dict(cls, data: dict) -> "SceneExtents":
        kwargs = json_numbers(data, "scene ", ("azimuth_max_deg", "elevation_max_deg", "large_fraction"))
        for key in ("large_depth_range", "small_depth_range", "large_size_range", "small_size_range"):
            if key in data:
                value = data[key]
                if not (isinstance(value, list) and len(value) == 2):
                    raise ValueError(f"scene {key} must be a list of two numbers, got {value!r}")
                kwargs[key] = tuple(json_number(x, f"scene {key}") for x in value)
        return cls(**kwargs)


EMPTY_BOX = (0, -1, 0, -1)  # (u0, u1, v0, v1) of an object that covers no feature cell


def _footprint_cells(
    obj: SceneObject, calib: SensorCalibration, stride: int
) -> tuple[int, int, int, int] | None:
    """Inclusive (u0, u1, v0, v1) feature cells touched by the projected rect."""
    cx, cy, z = obj.center
    half = obj.half_extent
    fx, fy = calib.intrinsics.fx, calib.intrinsics.fy
    u_lo = (fx * (cx - half) / z + calib.intrinsics.cx) / stride
    u_hi = (fx * (cx + half) / z + calib.intrinsics.cx) / stride
    v_lo = (fy * (cy - half) / z + calib.intrinsics.cy) / stride
    v_hi = (fy * (cy + half) / z + calib.intrinsics.cy) / stride
    width_s = calib.image_width // stride
    height_s = calib.image_height // stride
    u0 = max(0, int(math.floor(u_lo)))
    u1 = min(width_s - 1, int(math.floor(u_hi)))
    v0 = max(0, int(math.floor(v_lo)))
    v1 = min(height_s - 1, int(math.floor(v_hi)))
    if u0 > u1 or v0 > v1:
        return None
    return u0, u1, v0, v1


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


@dataclass(frozen=True)
class Scene:
    """Generated objects, seen through a calibration at a feature stride.

    ``boxes`` holds one row (u0, u1, v0, v1, depth) per object: the inclusive
    feature cells its projected rectangle touches (:data:`EMPTY_BOX` when it
    misses the map) and its true depth. A cell is covered when the rectangle
    touches it, which keeps true depth consistent with the floor-based pixel
    assignment of the target builder: a point on an object always lands on a
    covered cell.
    """

    objects: tuple[SceneObject, ...]
    stride: int
    calibration: SensorCalibration
    boxes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = [
            (*(_footprint_cells(obj, self.calibration, self.stride) or EMPTY_BOX), obj.true_depth)
            for obj in self.objects
        ]
        object.__setattr__(self, "boxes", np.array(rows, dtype=np.float64).reshape(-1, 5))

    @property
    def depth_map(self) -> np.ndarray:
        """The (H_s, W_s) true-depth map, +inf where no object is visible."""
        shape = (self.calibration.image_height // self.stride, self.calibration.image_width // self.stride)
        vv, uu = np.indices(shape)
        return true_depth_at(self.boxes, uu, vv)


def generate_scene(
    seed: int,
    n_objects: int,
    extents: SceneExtents,
    calib: SensorCalibration,
    stride: int,
) -> Scene:
    """Deterministically sample objects: per object, five uniform draws
    (azimuth, elevation, size class, size, depth)."""
    if n_objects < 0:
        raise ValueError(f"n_objects must be non-negative, got {n_objects}")
    az, el = extents.azimuth_max_deg, extents.elevation_max_deg
    objects = []
    for u_az, u_el, u_class, u_size, u_depth in np.random.default_rng(seed).random((n_objects, 5)).tolist():
        # rng.uniform(lo, hi) is lo + (hi - lo) * u on the same stream.
        azimuth = math.radians(-az + (az - -az) * u_az)
        elevation = math.radians(-el + (el - -el) * u_el)
        if u_class < extents.large_fraction:
            (s_lo, s_hi), (d_lo, d_hi) = extents.large_size_range, extents.large_depth_range
        else:
            (s_lo, s_hi), (d_lo, d_hi) = extents.small_size_range, extents.small_depth_range
        size = s_lo + (s_hi - s_lo) * u_size
        depth = d_lo + (d_hi - d_lo) * u_depth
        center = (depth * math.tan(azimuth), depth * math.tan(elevation), depth)
        objects.append(SceneObject(center, size, depth, rcs_from_size(size)))
    return Scene(tuple(objects), stride, calib)


@dataclass(frozen=True)
class RadarNoiseModel:
    """Angular quantization noise plus truncated Gaussian range noise.

    Azimuth and elevation are perturbed uniformly within half a resolution
    cell on each side; range noise is clipped at three sigma so the
    worst-case tangential error bound stays analytic. The number of returns
    per object grows with the square root of its frontal area.
    """

    delta_theta: float
    delta_phi: float
    range_sigma: float = 0.0
    points_base: float = 0.0
    points_size_scale: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.delta_theta < 0 or self.delta_phi < 0:
            raise ValueError("angular resolutions must be non-negative")
        if self.range_sigma < 0:
            raise ValueError("range_sigma must be non-negative")

    @classmethod
    def from_dict(cls, data: dict) -> "RadarNoiseModel":
        """The model from a JSON object; angular resolutions are in degrees (``*_deg``)."""
        return cls(
            delta_theta=math.radians(json_number(data.get("delta_theta_deg"), "noise delta_theta_deg")),
            delta_phi=math.radians(json_number(data.get("delta_phi_deg"), "noise delta_phi_deg")),
            **json_numbers(data, "noise ", ("range_sigma", "points_base", "points_size_scale", "seed"), ("seed",)),
        )

    def points_for(self, obj: SceneObject) -> int:
        return max(1, int(round(self.points_base + self.points_size_scale * math.sqrt(obj.size_m2))))


def simulate_radar(scene: Scene, model: RadarNoiseModel) -> np.ndarray:
    """Noisy radar returns of a scene as (N, 4) rows (x, y, z, rcs_dbsm), in
    object order; deterministic in ``model.seed``.

    Each object yields ``model.points_for(obj)`` returns, drawn uniformly on
    its frontal rectangle (one (dx, dy) pair per return) and then perturbed in
    radar spherical coordinates: azimuth, elevation and range draws per return.
    """
    rng = np.random.default_rng(model.seed)
    counts = [model.points_for(obj) for obj in scene.objects]
    source = np.array(
        [(*obj.center, obj.half_extent, obj.rcs_dbsm) for obj in scene.objects], dtype=np.float64
    ).reshape(-1, 5).repeat(counts, axis=0)
    halves = source[:, 3:4].repeat(2, axis=1)
    offsets = rng.uniform(-halves, halves)
    xs, ys, zs = source[:, 0] + offsets[:, 0], source[:, 1] + offsets[:, 1], source[:, 2]
    # A scalar rng.uniform(lo, hi) is lo + (hi - lo) * rng.random(), at a third of the call cost.
    theta_lo, phi_lo, sigma = -model.delta_theta / 2.0, -model.delta_phi / 2.0, model.range_sigma
    theta_span, phi_span = model.delta_theta / 2.0 - theta_lo, model.delta_phi / 2.0 - phi_lo
    rows = []
    for x, y, z in zip(xs.tolist(), ys.tolist(), zs.tolist()):
        fwd, lat, up = z, x, -y  # camera axes to radar axes
        rho = math.sqrt(fwd * fwd + lat * lat + up * up)
        theta = math.atan2(lat, fwd) + (theta_lo + theta_span * rng.random())
        phi = (math.asin(up / rho) if rho > 0 else 0.0) + (phi_lo + phi_span * rng.random())
        if sigma > 0:
            rho += max(-3.0 * sigma, min(3.0 * sigma, rng.normal(0.0, sigma)))
        rho = max(rho, 0.0)
        cos_phi = math.cos(phi)
        # Radar (forward, lateral, up) back to camera axes (lateral, -up, forward).
        rows.append((rho * cos_phi * math.sin(theta), -(rho * math.sin(phi)), rho * cos_phi * math.cos(theta)))
    return np.column_stack((np.array(rows, dtype=np.float64).reshape(-1, 3), source[:, 4]))


@dataclass(frozen=True)
class SupervisionMetrics:
    hit_rate: float
    depth_mae: float
    n_targets: int


def evaluate_supervision(
    scenes,
    points,
    bins: DepthBinSpec,
    radius_cfg: RadiusConfig,
    strategy: str,
    agg: str = "min",
) -> tuple[SupervisionMetrics, ...]:
    """Score each scene's depth targets against its true depth.

    ``points`` holds one (N, 4) array of radar returns (x, y, z, rcs_dbsm)
    per scene; a NaN RCS is absent and the radius then falls back to
    ``radius_cfg.fixed_r``. The scenes share one calibration and stride, and
    all of them are scored in one target table and one selection.

    Each target selects the neighborhood pixel whose true depth is closest
    to its measured depth (``agg="min"``; ``"max"`` selects the farthest,
    modeling worst-pixel aggregation), or the struck pixel itself under the
    one-to-one strategy. A target hits when the selected pixel's true depth
    lies within half a bin of the measured depth; the mean absolute error is
    reported over targets whose selected pixel sees any object at all. The
    metrics come back one per scene, in scene order.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if agg not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation {agg!r}")
    if len(scenes) != len(points):
        raise ValueError(f"need one point array per scene, got {len(points)} for {len(scenes)} scenes")
    if not scenes:
        return ()
    calib, stride = scenes[0].calibration, scenes[0].stride
    for scene in scenes:
        same_calibration = scene.calibration is calib or scene.calibration.to_dict() == calib.to_dict()
        if scene.stride != stride or not same_calibration:
            raise ValueError("the scenes of one evaluation must share one calibration and stride")
    table, keep = _target_table(np.concatenate(points).reshape(-1, 4), calib, stride, radius_cfg)
    scene_of = np.repeat(np.arange(len(scenes)), [len(p) for p in points])[keep]
    # One (scenes, 5) box table per object slot, padded with empty boxes.
    boxes = np.tile(np.array([*EMPTY_BOX, np.inf]), (max(len(s.boxes) for s in scenes), len(scenes), 1))
    for s, scene in enumerate(scenes):
        boxes[: len(scene.boxes), s] = scene.boxes

    def cost_at(rows, uu, vv):
        at = scene_of[rows, None]
        cost = true_depth_at((b[at] for b in boxes), uu, vv)
        cost -= table[rows, 2:3]
        return np.abs(cost, out=cost)

    shape = (calib.image_height // stride, calib.image_width // stride)
    err = _select_in_disks(table, shape, strategy, agg, cost_at).cost
    counts = np.bincount(scene_of, minlength=len(scenes)).tolist()
    hits = np.bincount(scene_of[err <= bins.bin_width / 2.0], minlength=len(scenes)).tolist()
    out = []
    for n, hit, seed_err in zip(counts, hits, np.split(err, np.cumsum(counts)[:-1])):
        seen = seed_err[np.isfinite(seed_err)]
        out.append(SupervisionMetrics(hit / n if n else 0.0, float(np.mean(seen)) if seen.size else 0.0, n))
    return tuple(out)


@dataclass(frozen=True)
class ExperimentArm:
    """One supervision configuration evaluated across all seeds."""

    name: str
    strategy: str
    radius: RadiusConfig
    agg: str = "min"
    use_rcs: bool = False

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"arm name must be a string, got {self.name!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"arm {self.name!r}: unknown strategy {self.strategy!r}")
        if self.agg not in AGGREGATIONS:
            raise ValueError(f"arm {self.name!r}: unknown aggregation {self.agg!r}")
        if not isinstance(self.use_rcs, bool):
            raise ValueError(f"arm {self.name!r} use_rcs must be true or false, got {self.use_rcs!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentArm":
        """An arm from a JSON object; its optional ``radius`` is a RadiusConfig object."""
        radius = json_object(data.get("radius", {}), f"arm {data.get('name')!r} radius")
        return cls(
            name=data.get("name"),
            strategy=data.get("strategy"),
            radius=RadiusConfig.from_dict(radius, "arm radius "),
            **{key: data[key] for key in ("agg", "use_rcs") if key in data},
        )


@dataclass(frozen=True)
class ExperimentConfig:
    calibration: SensorCalibration
    stride: int
    bins: DepthBinSpec
    extents: SceneExtents
    noise: RadarNoiseModel
    arms: tuple[ExperimentArm, ...]
    n_objects: int = 8
    seed_start: int = 0
    num_seeds: int = 150
    bootstrap_samples: int = 2000
    bootstrap_seed: int = 20240901
    orderings: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def __post_init__(self):
        for key, least in (("stride", 1), ("num_seeds", 1), ("bootstrap_samples", 1), ("n_objects", 0)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be at least {least}, got {getattr(self, key)}")
        names = [arm.name for arm in self.arms]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"duplicate arm name {name!r}")
        for better, worse in self.orderings:
            for name in (better, worse):
                if name not in names:
                    raise ValueError(f"ordering {better!r} >= {worse!r} names unknown arm {name!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The experiment from a JSON object; ``scene``, the counts and ``orderings`` are optional."""
        data = json_object(data, "experiment config")
        counts = ("n_objects", "seed_start", "num_seeds", "bootstrap_samples", "bootstrap_seed")
        kwargs = json_numbers(data, "", counts, whole=counts)
        if "orderings" in data:
            orderings = json_list(data["orderings"], "orderings")
            for i, pair in enumerate(orderings):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ValueError(f"orderings[{i}] must be a pair of arm names, got {pair!r}")
            kwargs["orderings"] = tuple((str(a), str(b)) for a, b in orderings)
        return cls(
            calibration=SensorCalibration.from_dict(data.get("calibration")),
            stride=json_number(data.get("stride"), "stride", whole=True),
            bins=DepthBinSpec.from_dict(json_object(data.get("bins"), "bins"), "bins "),
            extents=SceneExtents.from_dict(json_object(data.get("scene", {}), "scene")),
            noise=RadarNoiseModel.from_dict(json_object(data.get("noise"), "noise")),
            arms=tuple(
                ExperimentArm.from_dict(json_object(a, f"arms[{i}]"))
                for i, a in enumerate(json_list(data.get("arms"), "arms"))
            ),
            **kwargs,
        )

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(load_json(path))


def default_experiment_config() -> ExperimentConfig:
    """The packaged default experiment (seed range, noise model and arms)."""
    text = resources.files("radarcam").joinpath("configs/default_experiment.json").read_text()
    return ExperimentConfig.from_dict(json.loads(text))


@dataclass(frozen=True)
class SeedResult:
    seed: int
    arm: str
    metrics: SupervisionMetrics


def bootstrap_gap(
    a: np.ndarray, b: np.ndarray, n_samples: int, seed: int
) -> tuple[float, float]:
    """Paired bootstrap of mean(a - b): returns (mean gap, one-sided 95% lower bound)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("paired bootstrap needs two equal-length non-empty vectors")
    diffs = a - b
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, diffs.size, size=(n_samples, diffs.size))
    samples = diffs[idx].mean(axis=1)
    return float(diffs.mean()), float(np.percentile(samples, 5.0))


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[SeedResult, ...]
    summary: dict


def _evaluate_arms(cfg: ExperimentConfig, seeds: range) -> dict[str, tuple[SupervisionMetrics, ...]]:
    """Per arm, one metrics row per seed. The scenes and returns are dropped
    on return, before the bootstrap allocates its resamples."""
    scenes = [generate_scene(seed, cfg.n_objects, cfg.extents, cfg.calibration, cfg.stride) for seed in seeds]
    points = [simulate_radar(scene, replace(cfg.noise, seed=seed + 1)) for seed, scene in zip(seeds, scenes)]
    # Arms without RCS see the same returns with the RCS column absent (NaN).
    no_rcs = [np.column_stack((p[:, :3], np.full(len(p), np.nan))) for p in points]
    return {
        arm.name: evaluate_supervision(
            scenes, points if arm.use_rcs else no_rcs, cfg.bins, arm.radius, arm.strategy, arm.agg
        )
        for arm in cfg.arms
    }


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Evaluate every arm over the seed range and summarize pairwise orderings.

    Each seed draws its scene and its radar returns; each arm then scores
    all seeds at once. The rows come out one per seed and arm, seeds in
    increasing order.
    """
    seeds = range(cfg.seed_start, cfg.seed_start + cfg.num_seeds)
    by_arm = _evaluate_arms(cfg, seeds)
    rows = tuple(SeedResult(seed, arm.name, by_arm[arm.name][i]) for i, seed in enumerate(seeds) for arm in cfg.arms)

    arm_summaries = {}
    for name, metrics in by_arm.items():
        arm_summaries[name] = {
            "mean_hit_rate": float(np.mean([m.hit_rate for m in metrics])),
            "mean_depth_mae": float(np.mean([m.depth_mae for m in metrics])),
            "mean_n_targets": float(np.mean([m.n_targets for m in metrics])),
        }

    orderings = {}
    for better, worse in cfg.orderings:
        a = np.array([m.hit_rate for m in by_arm[better]])
        b = np.array([m.hit_rate for m in by_arm[worse]])
        gap, low = bootstrap_gap(a, b, cfg.bootstrap_samples, cfg.bootstrap_seed)
        orderings[f"{better}>={worse}"] = {
            "gap_mean": gap,
            "gap_ci95_low": low,
            "holds": bool(low > 0.0),
        }

    summary = {
        "num_seeds": cfg.num_seeds,
        "seed_start": cfg.seed_start,
        "arms": arm_summaries,
        "orderings": orderings,
        "all_orderings_hold": bool(all(o["holds"] for o in orderings.values())),
    }
    return ExperimentResult(rows, summary)
