"""Synthetic radar/camera scenes for validating the depth-supervision design.

Scenes hold frontal rectangles at known depths; a noise model perturbs radar
returns in azimuth, elevation (uniform within one resolution cell) and range
(Gaussian, truncated at three sigma). Supervision quality is measured by
projecting the noisy points into depth targets and asking whether any pixel
of each target's neighborhood still sees the true depth: one-to-many
supervision with a size-adaptive radius should recover more targets than a
single compromise radius, which in turn beats supervising only the struck
pixel.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .depth_supervision import (
    DepthBinSpec,
    RadarPoint,
    RadiusConfig,
    _select_in_disks,
    build_depth_targets,
    neighborhood_pixels,  # noqa: F401 -- bench/tracing.py wraps the name in this module
    targets_to_array,
)
from .geometry import SensorCalibration, camera_axes_to_radar, json_number, radar_axes_to_camera

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
        kwargs = {}
        for key in (
            "large_depth_range", "small_depth_range",
            "azimuth_max_deg", "elevation_max_deg",
            "large_size_range", "small_size_range", "large_fraction",
        ):
            if key in data:
                value = data[key]
                name = f"scene {key}"
                kwargs[key] = (
                    tuple(json_number(x, name) for x in value) if isinstance(value, list) else json_number(value, name)
                )
        return cls(**kwargs)


@dataclass(frozen=True)
class Scene:
    """Generated objects plus the rendered true-depth map at feature stride."""

    objects: tuple[SceneObject, ...]
    depth_map: np.ndarray  # (H_s, W_s), +inf where no object is visible
    stride: int
    calibration: SensorCalibration


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


def render_depth_map(
    objects, calib: SensorCalibration, stride: int
) -> np.ndarray:
    """Rasterize object rectangles into a true-depth map; nearest object wins.

    A feature cell is covered when the projected rectangle touches it, which
    keeps the rendering consistent with the floor-based pixel assignment of
    the target builder: a point on an object always lands on a covered cell.
    """
    width_s = calib.image_width // stride
    height_s = calib.image_height // stride
    depth = np.full((height_s, width_s), np.inf, dtype=np.float64)
    for obj in objects:
        cells = _footprint_cells(obj, calib, stride)
        if cells is None:
            continue
        u0, u1, v0, v1 = cells
        region = depth[v0 : v1 + 1, u0 : u1 + 1]
        np.minimum(region, obj.true_depth, out=region)
    return depth


def generate_scene(
    seed: int,
    n_objects: int,
    extents: SceneExtents,
    calib: SensorCalibration,
    stride: int,
) -> Scene:
    """Deterministically sample objects and render their true-depth map."""
    if n_objects < 0:
        raise ValueError(f"n_objects must be non-negative, got {n_objects}")
    rng = np.random.default_rng(seed)
    objects = []
    for _ in range(n_objects):
        azimuth = math.radians(rng.uniform(-extents.azimuth_max_deg, extents.azimuth_max_deg))
        elevation = math.radians(
            rng.uniform(-extents.elevation_max_deg, extents.elevation_max_deg)
        )
        if rng.uniform() < extents.large_fraction:
            size = rng.uniform(*extents.large_size_range)
            depth = rng.uniform(*extents.large_depth_range)
        else:
            size = rng.uniform(*extents.small_size_range)
            depth = rng.uniform(*extents.small_depth_range)
        center = (depth * math.tan(azimuth), depth * math.tan(elevation), depth)
        objects.append(SceneObject(center, size, depth, rcs_from_size(size)))
    depth_map = render_depth_map(objects, calib, stride)
    return Scene(tuple(objects), depth_map, stride, calib)


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
        return cls(
            delta_theta=math.radians(json_number(data["delta_theta_deg"], "noise delta_theta_deg")),
            delta_phi=math.radians(json_number(data["delta_phi_deg"], "noise delta_phi_deg")),
            range_sigma=json_number(data.get("range_sigma", 0.0), "noise range_sigma"),
            points_base=json_number(data.get("points_base", 0.0), "noise points_base"),
            points_size_scale=json_number(data.get("points_size_scale", 2.0), "noise points_size_scale"),
            seed=json_number(data.get("seed", 0), "noise seed", whole=True),
        )

    def points_for(self, obj: SceneObject) -> int:
        return max(1, int(round(self.points_base + self.points_size_scale * math.sqrt(obj.size_m2))))


def sample_surface_points(scene: Scene, model: RadarNoiseModel, rng: np.random.Generator):
    """Noise-free returns: per object, uniform samples on its frontal rectangle.

    Yields (camera-frame point, source object) pairs; the draw order is fixed
    so noisy and noise-free replays align one to one.
    """
    samples = []
    for obj in scene.objects:
        half = obj.half_extent
        cx, cy, z = obj.center
        for _ in range(model.points_for(obj)):
            dx = rng.uniform(-half, half)
            dy = rng.uniform(-half, half)
            samples.append((np.array([cx + dx, cy + dy, z]), obj))
    return samples


def apply_measurement_noise(
    cam_point: np.ndarray, model: RadarNoiseModel, rng: np.random.Generator
) -> np.ndarray:
    """Perturb one camera-frame point in radar spherical coordinates."""
    fwd, lat, up = camera_axes_to_radar(cam_point)
    rho = math.sqrt(fwd * fwd + lat * lat + up * up)
    theta = math.atan2(lat, fwd)
    phi = math.asin(up / rho) if rho > 0 else 0.0
    theta += rng.uniform(-model.delta_theta / 2.0, model.delta_theta / 2.0)
    phi += rng.uniform(-model.delta_phi / 2.0, model.delta_phi / 2.0)
    dr = rng.normal(0.0, model.range_sigma) if model.range_sigma > 0 else 0.0
    rho += float(np.clip(dr, -3.0 * model.range_sigma, 3.0 * model.range_sigma))
    rho = max(rho, 0.0)
    cos_phi = math.cos(phi)
    radar = np.array([rho * cos_phi * math.cos(theta), rho * cos_phi * math.sin(theta), rho * math.sin(phi)])
    return radar_axes_to_camera(radar)


def simulate_radar(scene: Scene, model: RadarNoiseModel) -> list[RadarPoint]:
    """Simulate noisy radar returns for a scene; deterministic in the seed."""
    rng = np.random.default_rng(model.seed)
    points = []
    for cam_point, obj in sample_surface_points(scene, model, rng):
        noisy = apply_measurement_noise(cam_point, model, rng)
        points.append(
            RadarPoint(float(noisy[0]), float(noisy[1]), float(noisy[2]), rcs_dbsm=obj.rcs_dbsm)
        )
    return points


def strip_rcs(points) -> list[RadarPoint]:
    """Drop RCS so the radius formula falls back to the fixed radius."""
    return [replace(p, rcs_dbsm=None) for p in points]


@dataclass(frozen=True)
class SupervisionMetrics:
    hit_rate: float
    depth_mae: float
    n_targets: int


def evaluate_supervision(
    scene: Scene,
    points,
    bins: DepthBinSpec,
    radius_cfg: RadiusConfig,
    strategy: str,
    agg: str = "min",
) -> SupervisionMetrics:
    """Score depth targets against the rendered true-depth map.

    Each target selects the neighborhood pixel whose true depth is closest
    to its measured depth (``agg="min"``; ``"max"`` selects the farthest,
    modeling worst-pixel aggregation), or the struck pixel itself under the
    one-to-one strategy. A target hits when the selected pixel's true depth
    lies within half a bin of the measured depth; the mean absolute error is
    reported over targets whose selected pixel sees any object at all.
    """
    if strategy not in ("one-to-one", "one-to-many"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if agg not in ("min", "max"):
        raise ValueError(f"unknown aggregation {agg!r}")
    build = build_depth_targets(points, scene.calibration, scene.stride, radius_cfg)
    table = targets_to_array(build.targets)
    truth = scene.depth_map
    err = _select_in_disks(
        table, truth.shape, strategy, agg, lambda rows, uu, vv: np.abs(truth[vv, uu] - table[rows, 2:3])
    ).cost
    n = len(table)
    hit_rate = int(np.count_nonzero(err <= bins.bin_width / 2.0)) / n if n else 0.0
    seen = err[np.isfinite(err)]
    depth_mae = float(np.mean(seen)) if seen.size else 0.0
    return SupervisionMetrics(hit_rate, depth_mae, n)


@dataclass(frozen=True)
class ExperimentArm:
    """One supervision configuration evaluated across all seeds."""

    name: str
    strategy: str
    radius: RadiusConfig
    agg: str = "min"
    use_rcs: bool = False

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentArm":
        radius = data.get("radius", {})
        return cls(
            name=str(data["name"]),
            strategy=str(data["strategy"]),
            radius=RadiusConfig(
                k=json_number(radius.get("k", 0.1), "arm radius k"),
                r_max=json_number(radius.get("r_max", 2.0), "arm radius r_max"),
                fixed_r=(json_number(radius["fixed_r"], "arm radius fixed_r") if "fixed_r" in radius else None),
            ),
            agg=str(data.get("agg", "min")),
            use_rcs=bool(data.get("use_rcs", False)),
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

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        bins = data["bins"]

        def count(key: str, default: int) -> int:
            return json_number(data.get(key, default), key, whole=True)

        return cls(
            calibration=SensorCalibration.from_dict(data["calibration"]),
            stride=json_number(data["stride"], "stride", whole=True),
            bins=DepthBinSpec(
                json_number(bins["d_min"], "bins d_min"),
                json_number(bins["d_max"], "bins d_max"),
                json_number(bins["num_bins"], "bins num_bins", whole=True),
            ),
            extents=SceneExtents.from_dict(data.get("scene", {})),
            noise=RadarNoiseModel.from_dict(data["noise"]),
            arms=tuple(ExperimentArm.from_dict(a) for a in data["arms"]),
            n_objects=count("n_objects", 8),
            seed_start=count("seed_start", 0),
            num_seeds=count("num_seeds", 150),
            bootstrap_samples=count("bootstrap_samples", 2000),
            bootstrap_seed=count("bootstrap_seed", 20240901),
            orderings=tuple(
                (str(a), str(b)) for a, b in data.get("orderings", [])
            ),
        )

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def default_experiment_config() -> ExperimentConfig:
    """The packaged default experiment (seed range, noise model and arms)."""
    text = resources.files("radarcam").joinpath("configs/default_experiment.json").read_text()
    return ExperimentConfig.from_dict(json.loads(text))


@dataclass(frozen=True)
class SeedResult:
    seed: int
    arm: str
    metrics: SupervisionMetrics


def _run_seed(cfg: ExperimentConfig, seed: int) -> list[SeedResult]:
    scene = generate_scene(seed, cfg.n_objects, cfg.extents, cfg.calibration, cfg.stride)
    noise = replace(cfg.noise, seed=seed + 1)
    points = simulate_radar(scene, noise)
    stripped = strip_rcs(points)
    out = []
    for arm in cfg.arms:
        arm_points = points if arm.use_rcs else stripped
        metrics = evaluate_supervision(
            scene, arm_points, cfg.bins, arm.radius, arm.strategy, arm.agg
        )
        out.append(SeedResult(seed, arm.name, metrics))
    return out


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


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Evaluate every arm over the seed range and summarize pairwise orderings.

    Seeds run one after another in increasing order, and the rows come out
    in that order, one per seed and arm.
    """
    seeds = range(cfg.seed_start, cfg.seed_start + cfg.num_seeds)
    rows = tuple(r for seed in seeds for r in _run_seed(cfg, seed))

    by_arm: dict[str, list[SupervisionMetrics]] = {arm.name: [] for arm in cfg.arms}
    for row in rows:
        by_arm[row.arm].append(row.metrics)
    arm_summaries = {}
    for name, metrics in by_arm.items():
        arm_summaries[name] = {
            "mean_hit_rate": float(np.mean([m.hit_rate for m in metrics])),
            "mean_depth_mae": float(np.mean([m.depth_mae for m in metrics])),
            "mean_n_targets": float(np.mean([m.n_targets for m in metrics])),
        }

    orderings = {}
    for better, worse in cfg.orderings:
        if better not in by_arm or worse not in by_arm:
            raise ValueError(f"ordering references unknown arm: {better!r} >= {worse!r}")
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
