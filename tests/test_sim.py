"""Tests for the synthetic supervision experiment."""

import dataclasses
import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from radarcam.depth_supervision import DepthBinSpec, RadarPoint, RadiusConfig, build_depth_targets
from radarcam.geometry import AngularResolution, CameraIntrinsics, RigidTransform, SensorCalibration
from radarcam.sim import (
    ExperimentArm,
    ExperimentConfig,
    RadarNoiseModel,
    Scene,
    SceneExtents,
    SceneObject,
    default_experiment_config,
    evaluate_supervision,
    generate_scene,
    rcs_from_size,
    run_experiment,
    simulate_radar,
)

from oracles import (
    disk_pixels,
    generate_objects_reference,
    render_depth_map,
    run_experiment_reference,
    simulate_radar_reference,
)

# Arm hit rates of the packaged experiment.
PACKAGED_HIT_RATES = {
    "one-to-one": 0.673182561313963,
    "fixed-one-to-many": 0.7337838137126549,
    "dynamic-one-to-many": 0.7533687777809862,
    "dynamic-one-to-many-max": 0.5516337296183749,
}


@pytest.fixture(scope="module")
def packaged():
    return run_experiment(default_experiment_config())


class TestPackagedExperiment:
    def test_hit_rates(self, packaged):
        got = {name: arm["mean_hit_rate"] for name, arm in packaged.summary["arms"].items()}
        assert got == pytest.approx(PACKAGED_HIT_RATES, abs=1e-12)

    def test_paper_orderings_hold_with_a_positive_lower_bound(self, packaged):
        orderings = packaged.summary["orderings"]
        assert set(orderings) == {
            "dynamic-one-to-many>=fixed-one-to-many",
            "fixed-one-to-many>=one-to-one",
            "dynamic-one-to-many>=dynamic-one-to-many-max",
        }
        for name, ordering in orderings.items():
            assert ordering["gap_ci95_low"] > 0.0, name
            assert ordering["holds"], name
        assert packaged.summary["all_orderings_hold"]

    def test_rows_come_in_seed_then_arm_order(self, packaged):
        cfg = default_experiment_config()
        arms = [arm.name for arm in cfg.arms]
        assert [(r.seed, r.arm) for r in packaged.rows] == [
            (seed, arm) for seed in range(cfg.num_seeds) for arm in arms
        ]


def without_rcs(points):
    """The same returns with the RCS column absent (NaN)."""
    return np.column_stack((points[:, :3], np.full(len(points), np.nan)))


def as_radar_points(points):
    return [RadarPoint(x, y, z, None if math.isnan(rcs) else rcs) for x, y, z, rcs in points.tolist()]


def evaluate_reference(scene, points, bins, radius_cfg, strategy, agg):
    """Per-target loop over each target's disk of the rendered true depths."""
    build = build_depth_targets(as_radar_points(points), scene.calibration, scene.stride, radius_cfg)
    depth_map = render_depth_map(scene.objects, scene.calibration, scene.stride)
    height, width = depth_map.shape
    errors = []
    for t in build.targets:
        pixels = [(t.u, t.v)] if strategy == "one-to-one" else disk_pixels(t.u, t.v, t.radius, width, height)
        errs = [abs(depth_map[v, u] - t.d_gt) for u, v in pixels]
        errors.append(min(errs) if agg == "min" else max(errs))
    return errors


@pytest.mark.parametrize("seed", [0, 7, 31])
def test_every_arm_matches_the_per_target_loop(seed):
    cfg = default_experiment_config()
    scene = generate_scene(seed, cfg.n_objects, cfg.extents, cfg.calibration, cfg.stride)
    points = simulate_radar(scene, dataclasses.replace(cfg.noise, seed=seed + 1))
    for arm in cfg.arms:
        arm_points = points if arm.use_rcs else without_rcs(points)
        (got,) = evaluate_supervision([scene], [arm_points], cfg.bins, arm.radius, arm.strategy, arm.agg)
        errors = evaluate_reference(scene, arm_points, cfg.bins, arm.radius, arm.strategy, arm.agg)
        finite = [e for e in errors if math.isfinite(e)]
        assert got.n_targets == len(errors)
        assert got.hit_rate == sum(e <= cfg.bins.bin_width / 2.0 for e in errors) / len(errors)
        assert got.depth_mae == float(np.mean(finite))


def tiny_scene():
    """A 10x10 image at stride 1 that sees one object at 10 m on pixel (6, 5) only."""
    calib = SensorCalibration(
        CameraIntrinsics(10.0, 10.0, 5.0, 5.0), RigidTransform.identity(), 10, 10,
        AngularResolution.from_degrees(1.0, 1.0),
    )
    # Half extent 0.4 m: the rectangle spans u in [6.1, 6.9] and v in [5.1, 5.9].
    scene = Scene((SceneObject((1.5, 0.5, 10.0), 0.64, 10.0, rcs_from_size(0.64)),), 1, calib)
    want = np.full((10, 10), np.inf)
    want[5, 6] = 10.0
    np.testing.assert_array_equal(scene.depth_map, want)
    return scene


class TestEvaluateSupervision:
    BINS = DepthBinSpec(0.0, 64.0, 64)
    POINTS = np.array([[0.0, 0.0, 10.0, np.nan]])  # strikes pixel (5, 5), next to the object

    @pytest.mark.parametrize(
        "strategy,agg,hit_rate",
        [("one-to-one", "min", 0.0), ("one-to-many", "min", 1.0), ("one-to-many", "max", 0.0)],
    )
    def test_neighbor_rescues_a_miss(self, strategy, agg, hit_rate):
        (got,) = evaluate_supervision(
            [tiny_scene()], [self.POINTS], self.BINS, RadiusConfig(fixed_r=1.0), strategy, agg
        )
        assert (got.hit_rate, got.depth_mae, got.n_targets) == (hit_rate, 0.0, 1)

    def test_no_points(self):
        (got,) = evaluate_supervision(
            [tiny_scene()], [np.empty((0, 4))], self.BINS, RadiusConfig(fixed_r=1.0), "one-to-many"
        )
        assert (got.hit_rate, got.depth_mae, got.n_targets) == (0.0, 0.0, 0)

    @pytest.mark.parametrize("strategy,agg", [("nearest", "min"), ("one-to-many", "mean")])
    def test_unknown_options_rejected(self, strategy, agg):
        with pytest.raises(ValueError, match="unknown"):
            evaluate_supervision(
                [tiny_scene()], [self.POINTS], self.BINS, RadiusConfig(fixed_r=1.0), strategy, agg
            )

    def test_scenes_are_scored_independently(self):
        """A batch gives each scene the metrics it gets on its own, also next
        to a scene with more objects and one without returns."""
        cfg = default_experiment_config()
        scenes = [generate_scene(seed, n, cfg.extents, cfg.calibration, cfg.stride) for seed, n in ((3, 8), (4, 12), (5, 2))]
        points = [simulate_radar(scene, dataclasses.replace(cfg.noise, seed=9)) for scene in scenes]
        points[2] = points[2][:0]
        arm = cfg.arms[2]
        got = evaluate_supervision(scenes, points, cfg.bins, arm.radius, arm.strategy, arm.agg)
        alone = [evaluate_supervision([s], [p], cfg.bins, arm.radius, arm.strategy, arm.agg)[0] for s, p in zip(scenes, points)]
        assert got == tuple(alone)
        assert got[2].n_targets == 0

    def test_one_point_array_per_scene(self):
        with pytest.raises(ValueError, match="one point array per scene"):
            evaluate_supervision([tiny_scene()], [], self.BINS, RadiusConfig(fixed_r=1.0), "one-to-many")

    def test_scenes_share_one_calibration_and_stride(self):
        scene = tiny_scene()
        other = Scene(scene.objects, 2, scene.calibration)
        with pytest.raises(ValueError, match="share one calibration and stride"):
            evaluate_supervision([scene, other], [self.POINTS] * 2, self.BINS, RadiusConfig(fixed_r=1.0), "one-to-many")


class TestTrueDepth:
    @pytest.mark.parametrize("seed", [0, 11])
    def test_depth_map_equals_the_rendered_map(self, seed):
        cfg = default_experiment_config()
        scene = generate_scene(seed, 12, cfg.extents, cfg.calibration, cfg.stride)
        np.testing.assert_array_equal(scene.depth_map, render_depth_map(scene.objects, cfg.calibration, cfg.stride))

    def test_scene_without_objects_sees_nothing(self):
        cfg = default_experiment_config()
        scene = generate_scene(0, 0, cfg.extents, cfg.calibration, cfg.stride)
        assert scene.boxes.shape == (0, 5) and np.isposinf(scene.depth_map).all()


def small_config(**overrides):
    """The packaged experiment on fewer seeds and bootstrap samples."""
    overrides = {"num_seeds": 8, "bootstrap_samples": 50, **overrides}
    return dataclasses.replace(default_experiment_config(), **overrides)


class TestMatchesPerSeedReference:
    """Rows and summary equal (``==``) the one-seed-at-a-time pipeline."""

    @pytest.mark.parametrize("seed_start", [0, 150 * (301 * 10**6 + 1)])
    def test_seed_blocks(self, seed_start):
        cfg = small_config(seed_start=seed_start)
        assert run_experiment(cfg) == run_experiment_reference(cfg)

    def test_seeds_without_targets(self):
        """No object, or no object in view: every arm reports zero targets."""
        cfg = small_config(n_objects=0)
        result = run_experiment(cfg)
        assert result == run_experiment_reference(cfg)
        assert {r.metrics.n_targets for r in result.rows} == {0}
        behind = dataclasses.replace(
            cfg.calibration, radar_to_camera=RigidTransform(np.diag([-1.0, 1.0, -1.0]), np.zeros(3))
        )
        cfg = small_config(n_objects=3, calibration=behind)
        result = run_experiment(cfg)
        assert result == run_experiment_reference(cfg)
        assert {r.metrics.n_targets for r in result.rows} == {0}

    @given(
        seed_start=st.integers(0, 2**40),
        n_objects=st.integers(0, 12),
        large_fraction=st.sampled_from([0.0, 0.5, 1.0]),
        range_sigma=st.sampled_from([0.0, 0.2, 1.5]),
        points_base=st.sampled_from([0.0, 0.5, 3.0]),
    )
    @example(seed_start=0, n_objects=0, large_fraction=0.5, range_sigma=0.2, points_base=0.0)
    @settings(max_examples=40, deadline=None)
    def test_random_configs(self, seed_start, n_objects, large_fraction, range_sigma, points_base):
        base = default_experiment_config()
        cfg = small_config(
            num_seeds=4,
            seed_start=seed_start,
            n_objects=n_objects,
            extents=dataclasses.replace(base.extents, large_fraction=large_fraction),
            noise=dataclasses.replace(base.noise, range_sigma=range_sigma, points_base=points_base),
        )
        assert run_experiment(cfg) == run_experiment_reference(cfg)


class TestDrawsMatchTheScalarPipeline:
    """The batched draws equal the scalar draws bit for bit, so a NumPy
    release that changes either fails here, not in the packaged hit rates."""

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**40 + 3])
    def test_random_block_equals_scalar_uniform_draws(self, seed):
        lo = np.array([-16.0, -4.0, 0.0, 0.2, 8.0])
        hi = np.array([16.0, 4.0, 1.0, 0.6, 18.0])
        block = np.random.default_rng(seed).random((7, 5))
        rng = np.random.default_rng(seed)
        scalar = [rng.uniform(a, b) for _ in range(7) for a, b in zip(lo.tolist(), hi.tolist())]
        batched = (lo + (hi - lo) * block).ravel().tolist()
        assert [x.hex() for x in batched] == [float(x).hex() for x in scalar]

    @pytest.mark.parametrize("seed", [0, 5, 99991])
    def test_array_bounds_uniform_equals_scalar_draws(self, seed):
        halves = np.random.default_rng(seed + 1).uniform(0.05, 1.6, size=(40, 1)).repeat(2, axis=1)
        batched = np.random.default_rng(seed).uniform(-halves, halves).ravel().tolist()
        rng = np.random.default_rng(seed)
        scalar = [rng.uniform(-h, h) for h in halves.ravel().tolist()]
        assert [x.hex() for x in batched] == [float(x).hex() for x in scalar]

    def test_scenes_and_returns_equal_the_scalar_pipeline(self):
        """Over enough draws that a vectorised trigonometric function, which
        differs from libm on about one input in two hundred, would show."""
        cfg = default_experiment_config()
        for seed in range(0, 4000, 10):
            scene = generate_scene(seed, 12, cfg.extents, cfg.calibration, cfg.stride)
            assert list(scene.objects) == generate_objects_reference(seed, 12, cfg.extents), seed
            noise = dataclasses.replace(cfg.noise, seed=seed + 1)
            got = [x.hex() for x in simulate_radar(scene, noise).ravel().tolist()]
            want = [x.hex() for p in simulate_radar_reference(scene.objects, noise) for x in (p.x, p.y, p.z, p.rcs_dbsm)]
            assert got == want, seed


def packaged_config_data():
    return json.loads(resources.files("radarcam").joinpath("configs/default_experiment.json").read_text())


class TestConfigValidation:
    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: d["arms"].append(dict(d["arms"][0])), "duplicate arm name 'one-to-one'"),
            (lambda d: d["arms"][1].update(strategy="nearest"), "arm 'fixed-one-to-many': unknown strategy 'nearest'"),
            (lambda d: d["arms"][3].update(agg="mean"), "arm 'dynamic-one-to-many-max': unknown aggregation 'mean'"),
            (
                lambda d: d["orderings"].append(["one-to-one", "no-such-arm"]),
                "ordering 'one-to-one' >= 'no-such-arm' names unknown arm 'no-such-arm'",
            ),
            (lambda d: d["arms"][0].update(use_rcs="false"), "arm 'one-to-one' use_rcs must be true or false"),
            (lambda d: d.update(num_seeds=0), "num_seeds must be at least 1, got 0"),
            (lambda d: d.update(bootstrap_samples=0), "bootstrap_samples must be at least 1, got 0"),
            (lambda d: d.update(stride=0), "stride must be at least 1, got 0"),
            (lambda d: d.update(n_objects=-1), "n_objects must be at least 0, got -1"),
        ],
    )
    def test_arms_and_orderings_checked_at_load(self, edit, message):
        data = packaged_config_data()
        edit(data)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(data)

    def test_absent_keys_take_the_dataclass_defaults(self):
        data = packaged_config_data()
        minimal = {key: data[key] for key in ("calibration", "stride", "bins", "arms")}
        minimal["noise"] = {"delta_theta_deg": 1.0, "delta_phi_deg": 2.0}
        minimal["arms"] = [{"name": "a", "strategy": "one-to-one"}]
        cfg = ExperimentConfig.from_dict(minimal)
        want = ExperimentConfig(
            calibration=cfg.calibration,
            stride=data["stride"],
            bins=DepthBinSpec(**data["bins"]),
            extents=SceneExtents(),
            noise=RadarNoiseModel(math.radians(1.0), math.radians(2.0)),
            arms=(ExperimentArm("a", "one-to-one", RadiusConfig()),),
        )
        assert cfg == want

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: d.pop("bins"), "^bins must be a JSON object, got None"),
            (lambda d: d.pop("arms"), "^arms must be a JSON list, got None"),
            (lambda d: d.pop("noise"), "^noise must be a JSON object, got None"),
            (lambda d: d.pop("calibration"), "^calibration must be a JSON object, got None"),
            (lambda d: d.pop("stride"), "^stride must be a number, got None"),
            (lambda d: d["bins"].pop("d_min"), "^bins d_min must be a number, got None"),
            (lambda d: d["noise"].pop("delta_phi_deg"), "^noise delta_phi_deg must be a number, got None"),
            (lambda d: d["arms"][0].pop("name"), "^arm name must be a string, got None"),
            (lambda d: d["arms"][0].pop("strategy"), "^arm 'one-to-one': unknown strategy None"),
            (lambda d: d["arms"][0].update(radius=[1]), r"^arm 'one-to-one' radius must be a JSON object, got \[1\]"),
        ],
    )
    def test_absent_required_key_is_named(self, edit, message):
        data = packaged_config_data()
        edit(data)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(data)
