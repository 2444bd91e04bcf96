"""Tests for the synthetic supervision experiment."""

import dataclasses
import importlib.util
import json
import math
import sys
import warnings
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from radarcam import sim
from radarcam.depth_supervision import (
    DepthBinSpec,
    RadarPoint,
    RadiusConfig,
    _select_in_disks,
    _target_table,
    build_depth_targets,
)
from radarcam.geometry import (
    AngularResolution,
    CameraIntrinsics,
    RigidTransform,
    SensorCalibration,
    read_json,
)
from radarcam.sim import (
    EMPTY_BOX,
    ExperimentArm,
    ExperimentConfig,
    RadarNoiseModel,
    Scene,
    SceneExtents,
    bootstrap_gap,
    bootstrap_index,
    default_experiment_config,
    evaluate_supervision,
    generate_scene,
    rcs_from_size,
    run_experiment,
    simulate_radar,
    true_depth_at,
)

from helpers import assert_results_equal
from oracles import (
    SceneObject,
    box_rows_reference,
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

    def test_metrics_are_one_row_per_arm_and_one_column_per_seed(self, packaged):
        cfg = default_experiment_config()
        assert packaged.seeds == tuple(range(cfg.num_seeds))
        assert packaged.arms == tuple(arm.name for arm in cfg.arms)
        want = (len(cfg.arms), cfg.num_seeds)
        assert [(values.shape, values.dtype.kind) for values in packaged.metrics] == [(want, "f"), (want, "f"), (want, "i")]
        assert (packaged.metrics.n_targets == packaged.metrics.n_targets[0]).all()


def without_rcs(points):
    """The same returns with the RCS column absent (NaN)."""
    return np.column_stack((points[:, :3], np.full(len(points), np.nan)))


def as_radar_points(points):
    return [RadarPoint(x, y, z, None if math.isnan(rcs) else rcs) for x, y, z, rcs in points.tolist()]


def evaluate_reference(objects, calib, stride, points, radius_cfg, agg):
    """Per-target loop over each target's disk of the rendered true depths."""
    build = build_depth_targets(as_radar_points(points), calib, stride, radius_cfg)
    depth_map = render_depth_map(objects, calib, stride)
    height, width = depth_map.shape
    errors = []
    for t in build.targets:
        errs = [abs(depth_map[v, u] - t.d_gt) for u, v in disk_pixels(t.u, t.v, t.radius, width, height)]
        errors.append(min(errs) if agg == "min" else max(errs))
    return errors


def test_every_arm_matches_the_per_target_loop():
    """Seeds 0, 7 and 31 scored in one call; the adjacent seeds exercise the per-seed slices."""
    cfg = default_experiment_config()
    seeds = [0, 7, 31]
    scene = generate_scene(seeds, cfg.n_objects, cfg.scene, cfg.calibration, cfg.stride)
    points, counts = simulate_radar(scene, cfg.noise, [seed + 1 for seed in seeds])
    got = evaluate_supervision(scene, points, counts, cfg.bins, cfg.arms)
    ends = np.cumsum(counts).tolist()
    for s, (seed, lo, hi) in enumerate(zip(seeds, [0, *ends], ends)):
        objects = generate_objects_reference(seed, cfg.n_objects, cfg.scene)
        for a, arm in enumerate(cfg.arms):
            arm_points = points[lo:hi] if arm.use_rcs else without_rcs(points[lo:hi])
            errors = evaluate_reference(objects, cfg.calibration, cfg.stride, arm_points, arm.radius, arm.agg)
            finite = [e for e in errors if math.isfinite(e)]
            assert got.n_targets[a, s] == len(errors)
            assert got.hit_rate[a, s] == sum(e <= cfg.bins.bin_width / 2.0 for e in errors) / len(errors)
            assert got.depth_mae[a, s] == float(np.mean(finite))


def depth_maps(scene):
    """The (S, H_s, W_s) true-depth maps of a scene: true_depth_at over every feature cell."""
    shape = (scene.calibration.image_height // scene.stride, scene.calibration.image_width // scene.stride)
    _, vv, uu = np.indices((len(scene.table), *shape))
    return true_depth_at(scene.boxes[:, :, None, None].swapaxes(0, 1), uu, vv)


def tiny_scene(n_seeds=1):
    """A 10x10 image at stride 1 that sees one object at 10 m on pixel (6, 5)
    only, in each of ``n_seeds`` seeds."""
    calib = SensorCalibration(
        CameraIntrinsics(10.0, 10.0, 5.0, 5.0), RigidTransform.identity(), 10, 10,
        AngularResolution.from_degrees(1.0, 1.0),
    )
    # Half extent 0.4 m: the rectangle spans u in [6.1, 6.9] and v in [5.1, 5.9].
    scene = Scene(np.array([[[1.5, 0.5, 10.0, 0.64, rcs_from_size(0.64)]]] * n_seeds), 1, calib)
    want = np.full((n_seeds, 10, 10), np.inf)
    want[:, 5, 6] = 10.0
    np.testing.assert_array_equal(depth_maps(scene), want)
    return scene


class TestEvaluateSupervision:
    BINS = DepthBinSpec(0.0, 64.0, 64)
    POINTS = np.array([[0.0, 0.0, 10.0, np.nan]])  # strikes pixel (5, 5), next to the object
    ARM = ExperimentArm("arm", RadiusConfig(r_max=1.0))

    @pytest.mark.parametrize("r_max,agg,hit_rate", [(0.0, "min", 0.0), (1.0, "min", 1.0), (1.0, "max", 0.0)])
    def test_neighbor_rescues_a_miss(self, r_max, agg, hit_rate):
        """A radius of 0 is one-to-one: the struck pixel alone, which misses."""
        got = evaluate_supervision(
            tiny_scene(), self.POINTS, [1], self.BINS, [ExperimentArm("arm", RadiusConfig(r_max=r_max), agg)]
        )
        assert [values.tolist() for values in got] == [[[hit_rate]], [[0.0]], [[1]]]

    def test_no_points(self):
        got = evaluate_supervision(tiny_scene(), np.empty((0, 4)), [0], self.BINS, [self.ARM])
        assert [values.tolist() for values in got] == [[[0.0]], [[0.0]], [[0]]]

    def test_no_arms_rejected(self):
        with pytest.raises(ValueError, match="^evaluate_supervision needs at least one arm$"):
            evaluate_supervision(tiny_scene(), self.POINTS, [1], self.BINS, ())

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ValueError, match="unknown aggregation 'mean'"):
            arms = [self.ARM, dataclasses.replace(self.ARM, name="mean", agg="mean")]
            evaluate_supervision(tiny_scene(), self.POINTS, [1], self.BINS, arms)

    def test_a_batch_equals_each_seed_scored_alone(self):
        """Also for a seed without returns, scored next to seeds with them."""
        cfg = default_experiment_config()
        arm = cfg.arms[2]
        seeds = [3, 4, 5]
        scene = generate_scene(seeds, 12, cfg.scene, cfg.calibration, cfg.stride)
        points, counts = simulate_radar(scene, cfg.noise, [seed + 9 for seed in seeds])
        points, counts = points[: counts[:2].sum()], [counts[0], counts[1], 0]
        got = evaluate_supervision(scene, points, counts, cfg.bins, [arm])
        for s, (seed, n) in enumerate(zip(seeds, counts)):
            one = generate_scene([seed], 12, cfg.scene, cfg.calibration, cfg.stride)
            one_points, _ = simulate_radar(one, cfg.noise, [seed + 9])
            alone = evaluate_supervision(one, one_points[:n], [n], cfg.bins, [arm])
            assert [values[:, s].tolist() for values in got] == [values[:, 0].tolist() for values in alone]
        assert got.n_targets[0, 2] == 0 and got.n_targets[0, 0] > 0

    @pytest.mark.parametrize(
        "points,counts,n_seeds",
        [
            (POINTS, [], 1),
            (POINTS, [2], 1),
            (POINTS, [0, 1], 1),
            (np.zeros((1, 3)), [1], 1),
            (np.zeros(4), [1], 1),
            (POINTS, [2, -1], 2),  # sums to N, but a count is negative
            (POINTS, [0.5, 0.5], 2),
        ],
    )
    def test_counts_must_cover_the_returns(self, points, counts, n_seeds):
        with pytest.raises(ValueError, match="one return count per seed"):
            evaluate_supervision(tiny_scene(n_seeds), points, counts, self.BINS, [self.ARM])


class TestTrueDepth:
    def test_depth_map_equals_the_rendered_map(self):
        cfg = default_experiment_config()
        seeds = [0, 11]
        scene = generate_scene(seeds, 12, cfg.scene, cfg.calibration, cfg.stride)
        for depth_map, seed in zip(depth_maps(scene), seeds):
            objects = generate_objects_reference(seed, 12, cfg.scene)
            np.testing.assert_array_equal(depth_map, render_depth_map(objects, cfg.calibration, cfg.stride))

    def test_scene_without_objects_sees_nothing(self):
        cfg = default_experiment_config()
        scene = generate_scene([0, 1], 0, cfg.scene, cfg.calibration, cfg.stride)
        assert scene.boxes.shape == (2, 0, 5) and np.isposinf(depth_maps(scene)).all()


# 64 x 48 pixels: at stride 1 an object at 10 m with a 2 m side spans 8 pixels.
SMALL_CALIBRATION = SensorCalibration(
    CameraIntrinsics(40.0, 40.0, 32.0, 24.0), RigidTransform.identity(), 64, 48, AngularResolution.from_degrees(1, 1)
)


def scene_of_objects(objects, stride):
    table = np.array([obj.as_row() for obj in objects], dtype=np.float64).reshape(1, -1, 5)
    return Scene(table, stride, SMALL_CALIBRATION)


class TestFootprint:
    """The boxes of the scene table equal the scalar per-object footprint."""

    @staticmethod
    def obj(x, y, depth, size):
        return SceneObject((x, y, depth), size, depth, rcs_from_size(size))

    def test_objects_partly_and_wholly_off_the_map(self):
        objects = [self.obj(-8.0, 0.0, 10.0, 4.0), self.obj(-20.0, 0.0, 10.0, 4.0), self.obj(0.0, 5.0, 10.0, 4.0)]
        # u spans [-4, 4] (partly off) and [-52, -44] (wholly off); v spans [40, 48] (partly off)
        want = [(0, 4, 20, 28, 10.0), (*EMPTY_BOX, 10.0), (28, 36, 40, 47, 10.0)]
        np.testing.assert_array_equal(scene_of_objects(objects, 1).boxes[0], want)
        assert box_rows_reference(objects, SMALL_CALIBRATION, 1) == want

    @given(
        rows=st.lists(
            st.tuples(
                st.floats(-40.0, 40.0), st.floats(-40.0, 40.0), st.floats(0.5, 40.0), st.floats(0.01, 400.0)
            ),
            max_size=12,
        ),
        stride=st.integers(1, 8),
    )
    @example(rows=[], stride=1)
    @example(rows=[(-8.0, 0.0, 10.0, 4.0), (-20.0, 0.0, 10.0, 4.0), (0.0, 5.0, 10.0, 4.0)], stride=3)
    @settings(max_examples=300, deadline=None)
    def test_boxes_equal_the_scalar_footprint(self, rows, stride):
        objects = [self.obj(*row) for row in rows]
        want = np.array(box_rows_reference(objects, SMALL_CALIBRATION, stride), dtype=np.float64).reshape(-1, 5)
        np.testing.assert_array_equal(scene_of_objects(objects, stride).boxes[0], want)


def small_config(**overrides):
    """The packaged experiment on fewer seeds and bootstrap samples."""
    overrides = {"num_seeds": 8, "bootstrap_samples": 50, **overrides}
    return dataclasses.replace(default_experiment_config(), **overrides)


def without_noise(cfg):
    """``cfg`` with its radar's angular resolution and range noise at 0."""
    calib = dataclasses.replace(cfg.calibration, angular_resolution=AngularResolution(0.0, 0.0))
    return dataclasses.replace(cfg, calibration=calib, noise=dataclasses.replace(cfg.noise, range_sigma=0.0))


def rotation_about_y(degrees):
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


class TestMatchesPerSeedReference:
    """Metric arrays and summary equal, exactly, the one-seed-at-a-time pipeline."""

    @pytest.mark.parametrize("seed_start", [0, 150 * (301 * 10**6 + 1)])
    def test_seed_blocks(self, seed_start):
        cfg = small_config(seed_start=seed_start)
        assert_results_equal(run_experiment(cfg), run_experiment_reference(cfg))

    def test_mounted_radar(self):
        mount = RigidTransform(rotation_about_y(3.0), np.array([0.5, -0.2, 1.0]))
        cfg = small_config(calibration=dataclasses.replace(default_experiment_config().calibration, radar_to_camera=mount))
        assert_results_equal(run_experiment(cfg), run_experiment_reference(cfg))

    def test_seeds_without_targets(self):
        """No object, or no object in view: every arm reports zero targets."""
        cfg = small_config(n_objects=0)
        result = run_experiment(cfg)
        assert_results_equal(result, run_experiment_reference(cfg))
        assert (result.metrics.n_targets == 0).all()
        # The principal point far left of the image: every object lies right of the view.
        calib = cfg.calibration
        aside = dataclasses.replace(calib, intrinsics=dataclasses.replace(calib.intrinsics, cx=-5000.0))
        cfg = small_config(n_objects=3, calibration=aside)
        result = run_experiment(cfg)
        assert_results_equal(result, run_experiment_reference(cfg))
        assert (result.metrics.n_targets == 0).all()

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
            scene=dataclasses.replace(base.scene, large_fraction=large_fraction),
            noise=dataclasses.replace(base.noise, range_sigma=range_sigma, points_base=points_base),
        )
        assert_results_equal(run_experiment(cfg), run_experiment_reference(cfg))


class TestExtrinsics:
    """The returns come back in the radar frame, so the target build's one
    ``radar_to_camera`` lands them where the identity mount does."""

    @pytest.mark.parametrize(
        "mount",
        [
            RigidTransform(rotation_about_y(3.0), np.array([0.5, -0.2, 1.0])),
            RigidTransform(rotation_about_y(-20.0), np.array([-0.5, 0.0, 0.0])),
            RigidTransform(np.diag([-1.0, 1.0, -1.0]), np.zeros(3)),  # the radar faces backwards
        ],
    )
    def test_mount_leaves_the_targets_in_place_at_zero_noise(self, mount):
        cfg = without_noise(default_experiment_config())
        seeds = range(20)
        radius = cfg.arms[2].radius

        def targets(calib):
            scene = generate_scene(seeds, cfg.n_objects, cfg.scene, calib, cfg.stride)
            points, _ = simulate_radar(scene, cfg.noise, [seed + 1 for seed in seeds])
            return points, *_target_table(points, calib, cfg.stride, [(radius, True)])

        aligned, want, want_keep = targets(cfg.calibration)
        mounted, got, got_keep = targets(dataclasses.replace(cfg.calibration, radar_to_camera=mount))
        assert np.abs(mounted[:, :3] - aligned[:, :3]).max() > 0.1
        assert want_keep.sum() > 400
        np.testing.assert_array_equal(got_keep, want_keep)
        np.testing.assert_array_equal(got[:, :2], want[:, :2])
        np.testing.assert_allclose(got[:, 2:], want[:, 2:], rtol=0, atol=1e-9)


class TestNoiseAboutTheRadar:
    """The noise acts about the radar's origin, so a mount's lever arm and
    rotation change where a return lands; without noise every mount lands
    its returns where the identity mount does."""

    MOUNTS = [
        RigidTransform(rotation_about_y(3.0), np.array([0.5, -0.2, 1.0])),
        RigidTransform(np.eye(3), np.array([0.5, 0.0, 0.0])),  # 0.5 m lateral
        RigidTransform(np.eye(3), np.array([0.0, 0.0, 2.0])),  # 2 m ahead of the camera
        RigidTransform(np.eye(3), np.array([0.0, -1.5, 0.0])),  # 1.5 m above it (y points down)
    ]

    @staticmethod
    def hit_rates(cfg, mount=None):
        if mount is not None:
            cfg = dataclasses.replace(cfg, calibration=dataclasses.replace(cfg.calibration, radar_to_camera=mount))
        return {name: arm["mean_hit_rate"] for name, arm in run_experiment(cfg).summary["arms"].items()}

    @pytest.mark.parametrize("mount", MOUNTS)
    def test_a_mount_changes_the_hit_rates_at_the_packaged_noise(self, mount):
        cfg = small_config(num_seeds=40)
        assert self.hit_rates(cfg, mount) != self.hit_rates(cfg)

    @pytest.mark.parametrize("mount", MOUNTS)
    def test_no_mount_changes_the_hit_rates_without_noise(self, mount):
        cfg = without_noise(small_config(num_seeds=40))
        assert self.hit_rates(cfg, mount) == self.hit_rates(cfg)


class TestArmsGroupedByRadius:
    """Every arm of a run shares one target table, with one radius column per
    distinct radius setting and RCS use, and one candidate lookup; the
    results still equal the per-arm reference bit for bit. An arm whose
    radius is 0 is one-to-one."""

    DYNAMIC = RadiusConfig(k=0.1, r_max=2.0)
    SHARED = RadiusConfig(k=0.3, r_max=3.0)
    ZERO = RadiusConfig(k=0.3, r_max=0.0)  # every radius clamps to 0
    ARMS = (
        ExperimentArm("dynamic", DYNAMIC, use_rcs=True),
        ExperimentArm("dynamic-twin", DYNAMIC, use_rcs=True),
        ExperimentArm("one-to-one-max", ZERO, agg="max"),
        ExperimentArm("one-to-one", ZERO),
        ExperimentArm("shared-many-max", SHARED, agg="max"),
        ExperimentArm("one-to-one-rcs", ZERO, use_rcs=True),
        ExperimentArm("shared-many-rcs", SHARED, use_rcs=True),
        # radius 0 spelled as the packaged one-to-one arm spells it
        ExperimentArm("one-to-one-fixed", RadiusConfig(r_max=0.0)),
    )
    ORDERINGS = (
        ("dynamic", "one-to-one"),
        ("dynamic", "one-to-one"),
        ("one-to-one", "dynamic"),
        ("shared-many-rcs", "one-to-one-rcs"),
        ("dynamic-twin", "shared-many-max"),
    )

    @pytest.mark.parametrize("seed_start,n_objects", [(0, 8), (977, 12), (150 * (301 * 10**6 + 1), 3)])
    def test_equals_the_per_arm_reference(self, seed_start, n_objects):
        cfg = small_config(arms=self.ARMS, orderings=self.ORDERINGS, seed_start=seed_start, n_objects=n_objects)
        result = run_experiment(cfg)
        assert_results_equal(result, run_experiment_reference(cfg))
        row = {name: a for a, name in enumerate(result.arms)}
        for values in result.metrics:
            np.testing.assert_array_equal(values[row["dynamic"]], values[row["dynamic-twin"]])
            for name in ("one-to-one-max", "one-to-one-fixed"):
                np.testing.assert_array_equal(values[row["one-to-one"]], values[row[name]])
        assert list(result.summary["arms"]) == [arm.name for arm in self.ARMS]
        orderings = result.summary["orderings"]
        assert orderings["dynamic>=one-to-one"]["gap_mean"] == -orderings["one-to-one>=dynamic"]["gap_mean"]

    @staticmethod
    def count_calls(monkeypatch):
        """Count the calls of ``evaluate_supervision``, ``_select_in_disks``,
        the ``cost_at`` lookups it is handed and ``bootstrap_index``; collect
        every index ``bootstrap_gap`` is handed."""
        calls, indices = Counter(), []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def select(table, shape, picks, cost_at):
            calls["_select_in_disks"] += 1
            return _select_in_disks(table, shape, picks, counted("cost_at", cost_at))

        def gap(a, b, index):
            indices.append(index)
            return bootstrap_gap(a, b, index)

        monkeypatch.setattr(sim, "evaluate_supervision", counted("evaluate_supervision", sim.evaluate_supervision))
        monkeypatch.setattr(sim, "_select_in_disks", select)
        monkeypatch.setattr(sim, "bootstrap_index", counted("bootstrap_index", sim.bootstrap_index))
        monkeypatch.setattr(sim, "bootstrap_gap", gap)
        return calls, indices

    def test_packaged_run_scores_every_arm_in_one_selection_and_draws_one_index(self, monkeypatch):
        """The four arms share one target table and one candidate lookup."""
        calls, indices = self.count_calls(monkeypatch)
        cfg = default_experiment_config()
        run_experiment(cfg)
        # One lookup per stencil half-width: a target's widest disk, max(0, 1, dynamic), has half-width 1 or 2.
        assert calls == {"evaluate_supervision": 1, "_select_in_disks": 1, "cost_at": 2, "bootstrap_index": 1}
        assert len(indices) == len(cfg.orderings) == 3
        assert all(index is indices[0] for index in indices)

    def test_a_radius_sweep_looks_costs_up_as_often_as_its_widest_arm(self, monkeypatch):
        """20 fixed radii from 0 to 3.8 cost as many lookups as radius 3.8 alone."""
        calls, _ = self.count_calls(monkeypatch)
        arms = tuple(ExperimentArm(f"r{i}", RadiusConfig(r_max=0.2 * i)) for i in range(20))
        run_experiment(small_config(arms=arms, orderings=()))
        sweep = calls["cost_at"]
        calls.clear()
        run_experiment(small_config(arms=arms[-1:], orderings=()))
        assert calls["cost_at"] == sweep >= 1
        assert calls["_select_in_disks"] == 1

    def test_calls_every_span_the_bench_tracer_wraps(self, monkeypatch):
        """The traced ``sim.*`` metrics stay live. ``build_depth_targets``
        is the exception: the experiment builds its targets through the
        array core ``_target_table``."""
        path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("bench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        names = [attr for module, attr, _ in tracing.SPANS if module == "radarcam.sim"]
        names = [name for name in names if name != "build_depth_targets"]
        assert {"generate_scene", "simulate_radar", "evaluate_supervision", "bootstrap_gap"} <= set(names)
        calls = Counter()
        for name in names:
            def wrapper(*args, _name=name, _fn=getattr(sim, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(sim, name, wrapper)
        run_experiment(small_config())
        assert set(calls) == set(names)


class TestBootstrap:
    def test_one_index_serves_every_ordering_as_separate_draws_would(self):
        rng = np.random.default_rng(4)
        a, b = rng.random(30), rng.random(30)
        index = bootstrap_index(30, 500, 11)
        for x, y in ((a, b), (b, a), (a, a)):
            again = np.random.default_rng(11).integers(0, 30, size=(500, 30))
            assert bootstrap_gap(x, y, index) == bootstrap_gap(x, y, again)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_needs_at_least_one_sample(self, n_samples):
        with pytest.raises(ValueError, match="at least 1 sample"):
            bootstrap_index(5, n_samples, 0)
        with pytest.raises(ValueError, match="resample index must be"):
            bootstrap_gap(np.ones(5), np.zeros(5), np.zeros((0, 5), dtype=np.intp))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_finite_values_are_refused(self, bad, side):
        values = {"a": np.ones(4), "b": np.zeros(4)}
        values[side][2] = bad
        with pytest.raises(ValueError, match="finite"):
            bootstrap_gap(values["a"], values["b"], bootstrap_index(4, 10, 0))

    def test_index_must_resample_the_pairs(self):
        with pytest.raises(ValueError, match=r"resample index must be \(n_samples >= 1, 4\)"):
            bootstrap_gap(np.ones(4), np.zeros(4), bootstrap_index(5, 10, 0))


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
        """Over enough draws that a NumPy function giving an element other
        bits inside an array than on its own would show."""
        cfg = default_experiment_config()
        seeds = range(0, 4000, 10)
        scene = generate_scene(seeds, 12, cfg.scene, cfg.calibration, cfg.stride)
        points, counts = simulate_radar(scene, cfg.noise, [seed + 1 for seed in seeds])
        objects, returns = [], []
        for seed in seeds:
            objects += generate_objects_reference(seed, 12, cfg.scene)
            returns.append(simulate_radar_reference(objects[-12:], cfg.noise, seed + 1, cfg.calibration))

        def hexes(rows):
            return [float(x).hex() for row in rows for x in row]

        assert hexes(scene.table.reshape(-1, 5).tolist()) == hexes(obj.as_row() for obj in objects)
        want_boxes = box_rows_reference(objects, cfg.calibration, cfg.stride)
        np.testing.assert_array_equal(scene.boxes.reshape(-1, 5), want_boxes)
        assert counts.tolist() == [len(r) for r in returns]
        assert hexes(points.tolist()) == hexes((p.x, p.y, p.z, p.rcs_dbsm) for r in returns for p in r)


class TestRcsAndReturnCounts:
    def test_rcs_of_an_array_equals_the_scalar_call_per_element(self):
        sizes = np.random.default_rng(3).uniform(0.05, 12.0, (40, 7))
        got = rcs_from_size(sizes)
        assert got.shape == sizes.shape
        assert [x.hex() for x in got.ravel().tolist()] == [float(rcs_from_size(x)).hex() for x in sizes.ravel().tolist()]

    @pytest.mark.parametrize("bad", [0.0, -1.5, math.nan])
    def test_rcs_refuses_a_size_that_is_not_positive(self, bad):
        sizes = np.full((2, 4), 3.0)
        sizes[1, 2] = bad
        for size in (sizes, bad):
            with pytest.raises(ValueError, match=f"^object size must be positive, got {bad}$"):
                rcs_from_size(size)

    @pytest.mark.parametrize(
        "model,sizes",
        [
            (RadarNoiseModel(points_size_scale=1e300), [4.0]),
            (RadarNoiseModel(), [1e300, 1e301]),
            (RadarNoiseModel(points_size_scale=1e300), [1e300]),  # the count overflows to inf
            (RadarNoiseModel(points_size_scale=1e18), [9.0] * 8),  # each count fits intp, their sum does not
        ],
    )
    def test_more_returns_than_intp_holds_are_refused_without_a_warning(self, model, sizes):
        message = rf"^points_base \+ points_size_scale \* sqrt\(size\) must give at most {sys.maxsize} returns, got "
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                model.points_for(np.array(sizes))


def reference_returns(cfg, noise, seeds, n_objects):
    """Every seed's returns from the one-point-at-a-time oracle, with their counts."""
    returns = [
        simulate_radar_reference(
            generate_objects_reference(seed, n_objects, cfg.scene), noise, seed + 1, cfg.calibration
        )
        for seed in seeds
    ]
    return [(p.x, p.y, p.z, p.rcs_dbsm) for r in returns for p in r], [len(r) for r in returns]


class TestSimulateRadarBeyondThePackagedNoise:
    """``simulate_radar`` equals the per-point oracle by ``float.hex`` away
    from the packaged noise too: without range noise, with a wide range
    noise, without angular noise, and where the range clip and
    ``max(rho, 0)`` act."""

    @pytest.mark.parametrize(
        "range_sigma,delta_deg,depths",
        [
            (0.0, 1.0, None),
            (1.5, 1.0, None),
            (0.2, 0.0, None),
            (1.5, 0.0, None),
            (1.5, 1.0, (0.3, 1.2)),  # within three sigma of the camera
        ],
    )
    def test_returns_equal_the_per_point_reference(self, range_sigma, delta_deg, depths):
        base = default_experiment_config()
        extents = base.scene
        if depths is not None:
            extents = dataclasses.replace(extents, large_depth_range=depths, small_depth_range=depths)
        res = AngularResolution.from_degrees(delta_deg, delta_deg)
        calib = dataclasses.replace(base.calibration, angular_resolution=res)
        cfg = dataclasses.replace(base, scene=extents, calibration=calib)
        noise = dataclasses.replace(base.noise, range_sigma=range_sigma)
        seeds = range(0, 1000, 25)
        scene = generate_scene(seeds, 12, cfg.scene, cfg.calibration, cfg.stride)
        points, counts = simulate_radar(scene, noise, [seed + 1 for seed in seeds])
        want, want_counts = reference_returns(cfg, noise, seeds, 12)
        assert counts.tolist() == want_counts
        assert [float(x).hex() for x in points.ravel()] == [float(x).hex() for row in want for x in row]
        if depths is not None:
            assert (points[:, :3] == 0.0).all(axis=1).sum() > 10  # returns clipped to the camera's origin

    def test_no_objects_give_an_empty_table_and_zero_counts(self):
        cfg = default_experiment_config()
        scene = generate_scene([0, 1, 2], 0, cfg.scene, cfg.calibration, cfg.stride)
        for noise in (cfg.noise, RadarNoiseModel()):
            points, counts = simulate_radar(scene, noise, [1, 2, 3])
            assert points.shape == (0, 4) and counts.tolist() == [0, 0, 0]


def packaged_config_data():
    return json.loads(resources.files("radarcam").joinpath("configs/default_experiment.json").read_text())


class TestConfigValidation:
    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: d["arms"].append(dict(d["arms"][0])), "duplicate arm name 'one-to-one'"),
            (lambda d: d.update(arms=[]), "^arms must hold at least one arm$"),
            (lambda d: d["arms"][1].update(strategy="one-to-one"), r"^arms\[1\] has no key 'strategy'$"),
            (
                lambda d: d["arms"][3].update(agg="mean"),
                r"^arms\[3\]: arm 'dynamic-one-to-many-max': unknown aggregation 'mean'$",
            ),
            (
                lambda d: d["orderings"].append(["one-to-one", "no-such-arm"]),
                "ordering 'one-to-one' >= 'no-such-arm' names unknown arm 'no-such-arm'",
            ),
            (lambda d: d["arms"][0].update(use_rcs="false"), r"^arms\[0\]\.use_rcs must be true or false, got 'false'"),
            (
                lambda d: d["arms"][1]["radius"].update(r_max=None),
                r"^arms\[1\]\.radius\.r_max must be a number, got None$",
            ),
            (lambda d: d["arms"][1]["radius"].update(fixed_r=1.0), r"^arms\[1\]\.radius has no key 'fixed_r'$"),
            (lambda d: d.update(num_seeds=0), "num_seeds must be at least 1, got 0"),
            (lambda d: d.update(bootstrap_samples=0), "bootstrap_samples must be at least 1, got 0"),
            (lambda d: d.update(stride=0), "stride must be at least 1, got 0"),
            (lambda d: d.update(stride=961), "^stride must be at most 600, the calibration's shorter image side, got 961$"),
            (lambda d: d.update(n_objects=-1), "n_objects must be at least 0, got -1"),
            (lambda d: d.update(num_seeds=1), "num_seeds must be at least 2 to bootstrap orderings, got 1"),
        ],
    )
    def test_arms_and_orderings_checked_at_load(self, edit, message):
        data = packaged_config_data()
        edit(data)
        with pytest.raises(ValueError, match=message):
            read_json(ExperimentConfig, data, "")

    @pytest.mark.parametrize("key", ["azimuth_max_deg", "elevation_max_deg"])
    @pytest.mark.parametrize("value", [90.0, 95.0, -1.0])
    def test_a_scene_angle_outside_0_to_90_degrees_is_refused(self, key, value):
        """tan folds an angle past 90 degrees back in front of the camera, so
        such a maximum would draw objects at angles it does not name."""
        with pytest.raises(ValueError, match=rf"^{key} must lie in \[0, 90\), got {value}$"):
            SceneExtents(**{key: value})
        data = packaged_config_data()
        assert (data["scene"]["azimuth_max_deg"], data["scene"]["elevation_max_deg"]) == (16.0, 4.0)
        data["scene"][key] = value
        with pytest.raises(ValueError, match=rf"^scene: {key} must lie in \[0, 90\), got {value}$"):
            read_json(ExperimentConfig, data, "")

    def test_absent_keys_take_the_dataclass_defaults(self):
        data = packaged_config_data()
        minimal = {key: data[key] for key in ("calibration", "stride", "bins", "arms")}
        minimal["noise"] = {"range_sigma": 0.5}
        minimal["arms"] = [{"name": "a"}]
        cfg = read_json(ExperimentConfig, minimal, "")
        want = ExperimentConfig(
            calibration=cfg.calibration,
            stride=data["stride"],
            bins=DepthBinSpec(**data["bins"]),
            noise=RadarNoiseModel(0.5),
            arms=(ExperimentArm("a"),),
        )
        assert cfg == want and cfg.scene == SceneExtents() and cfg.arms[0].radius == RadiusConfig()

    def test_noise_seed_key_is_refused(self):
        # every experiment seed draws its returns from its own noise seed
        data = packaged_config_data()
        data["noise"]["seed"] = -1
        with pytest.raises(ValueError, match="^noise has no key 'seed'$"):
            read_json(ExperimentConfig, data, "")

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: d.pop("bins"), "^bins must be a JSON object, got None"),
            (lambda d: d.pop("arms"), "^arms must be a JSON list, got None"),
            (lambda d: d.pop("noise"), "^noise must be a JSON object, got None"),
            (lambda d: d.pop("calibration"), "^calibration must be a JSON object, got None"),
            (lambda d: d.pop("stride"), "^stride must be a number, got None"),
            (lambda d: d["bins"].pop("d_min"), r"^bins\.d_min must be a number, got None"),
            (lambda d: d["calibration"].pop("delta_phi_deg"), r"^calibration\.delta_phi_deg must be a number, got None$"),
            (lambda d: d["arms"][0].pop("name"), r"^arms\[0\]\.name must be a string, got None"),
            (lambda d: d["arms"][0].update(agg=None), r"^arms\[0\]\.agg must be a string, got None"),
            (lambda d: d["arms"][0].update(radius=[1]), r"^arms\[0\]\.radius must be a JSON object, got \[1\]"),
        ],
    )
    def test_absent_required_key_is_named(self, edit, message):
        data = packaged_config_data()
        edit(data)
        with pytest.raises(ValueError, match=message):
            read_json(ExperimentConfig, data, "")
