"""Tests for the synthetic supervision experiment."""

import dataclasses
import math

import numpy as np
import pytest

from radarcam.depth_supervision import DepthBinSpec, RadarPoint, RadiusConfig, build_depth_targets
from radarcam.geometry import AngularResolution, CameraIntrinsics, RigidTransform, SensorCalibration
from radarcam.sim import (
    Scene,
    default_experiment_config,
    evaluate_supervision,
    generate_scene,
    run_experiment,
    simulate_radar,
    strip_rcs,
)

from oracles import disk_pixels

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


def evaluate_reference(scene, points, bins, radius_cfg, strategy, agg):
    """Per-target loop over each target's disk of true depths."""
    build = build_depth_targets(points, scene.calibration, scene.stride, radius_cfg)
    height, width = scene.depth_map.shape
    errors = []
    for t in build.targets:
        pixels = [(t.u, t.v)] if strategy == "one-to-one" else disk_pixels(t.u, t.v, t.radius, width, height)
        errs = [abs(scene.depth_map[v, u] - t.d_gt) for u, v in pixels]
        errors.append(min(errs) if agg == "min" else max(errs))
    return errors


@pytest.mark.parametrize("seed", [0, 7, 31])
def test_every_arm_matches_the_per_target_loop(seed):
    cfg = default_experiment_config()
    scene = generate_scene(seed, cfg.n_objects, cfg.extents, cfg.calibration, cfg.stride)
    points = simulate_radar(scene, dataclasses.replace(cfg.noise, seed=seed + 1))
    for arm in cfg.arms:
        arm_points = points if arm.use_rcs else strip_rcs(points)
        got = evaluate_supervision(scene, arm_points, cfg.bins, arm.radius, arm.strategy, arm.agg)
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
    depth = np.full((10, 10), np.inf)
    depth[5, 6] = 10.0
    return Scene((), depth, 1, calib)


class TestEvaluateSupervision:
    BINS = DepthBinSpec(0.0, 64.0, 64)
    POINTS = [RadarPoint(0.0, 0.0, 10.0)]  # strikes pixel (5, 5), next to the object

    @pytest.mark.parametrize(
        "strategy,agg,hit_rate",
        [("one-to-one", "min", 0.0), ("one-to-many", "min", 1.0), ("one-to-many", "max", 0.0)],
    )
    def test_neighbor_rescues_a_miss(self, strategy, agg, hit_rate):
        got = evaluate_supervision(
            tiny_scene(), self.POINTS, self.BINS, RadiusConfig(fixed_r=1.0), strategy, agg
        )
        assert (got.hit_rate, got.depth_mae, got.n_targets) == (hit_rate, 0.0, 1)

    def test_no_points(self):
        got = evaluate_supervision(tiny_scene(), [], self.BINS, RadiusConfig(fixed_r=1.0), "one-to-many")
        assert (got.hit_rate, got.depth_mae, got.n_targets) == (0.0, 0.0, 0)

    @pytest.mark.parametrize("strategy,agg", [("nearest", "min"), ("one-to-many", "mean")])
    def test_unknown_options_rejected(self, strategy, agg):
        with pytest.raises(ValueError, match="unknown"):
            evaluate_supervision(tiny_scene(), self.POINTS, self.BINS, RadiusConfig(fixed_r=1.0), strategy, agg)
