"""Tests for the command line front end, run through ``main(argv)``."""

import csv
import dataclasses
import hashlib
import json
import math
from importlib import resources

import numpy as np
import pytest

from radarcam import lxlt
from radarcam.cli import main
from radarcam.depth_supervision import DepthBinSpec, DepthTarget, LossConfig, one_to_many_loss, targets_to_array
from radarcam.fusion import concat_fusion, concat_params_from_manifest, csa_fusion, csa_params_from_manifest
from radarcam.geometry import (
    AngularResolution,
    CameraIntrinsics,
    RigidTransform,
    SensorCalibration,
    scale_intrinsics,
)
from radarcam.tensor_ops import MLPParams, softmax
from radarcam.view_transform import (
    VoxelGridSpec,
    depth_distribution,
    occupancy_from_bev,
    sample_vt,
    vt_params_from_manifest,
)

from helpers import random_concat_params, random_csa_params, random_linear, random_vt_params


def reduced_config(tmp_path, **overrides):
    """The packaged experiment on fewer seeds and bootstrap samples."""
    data = json.loads(resources.files("radarcam").joinpath("configs/default_experiment.json").read_text())
    data.update(num_seeds=6, bootstrap_samples=100, **overrides)
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(data))
    return path


class TestSimulate:
    def test_rerun_is_byte_identical(self, tmp_path):
        config = reduced_config(tmp_path)
        outputs = []
        for run in ("a", "b"):
            csv_path, summary = tmp_path / f"{run}.csv", tmp_path / f"{run}.json"
            argv = ["simulate", "--config", str(config), "--output-csv", str(csv_path), "--summary", str(summary)]
            assert main(argv) == 0
            outputs.append((csv_path.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1]
        header, *rows = outputs[0][0].decode().splitlines()
        assert header == "seed,arm,hit_rate,depth_mae,n_targets"
        assert len(rows) == 6 * 4
        assert json.loads(outputs[0][1])["num_seeds"] == 6

    @pytest.mark.parametrize(
        "write_config",
        [
            lambda path: path.write_text("{not json"),
            lambda path: path.write_text(json.dumps({"stride": 4})),
            lambda path: reduced_config(path.parent, orderings=[["one-to-one", "no-such-arm"]]),
            lambda path: None,  # the config file does not exist
        ],
    )
    def test_invalid_config_exits_2_without_output(self, tmp_path, write_config, capsys):
        config = tmp_path / "experiment.json"
        write_config(config)
        csv_path, summary = tmp_path / "rows.csv", tmp_path / "summary.json"
        argv = ["simulate", "--config", str(config), "--output-csv", str(csv_path), "--summary", str(summary)]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
        assert not csv_path.exists() and not summary.exists()

    @pytest.mark.parametrize(
        "edit_config,message",
        [
            (lambda data: data.update(stride=[8]), "stride must be a number, got [8]"),
            (lambda data: data.update(num_seeds=6.5), "num_seeds must be a whole number, got 6.5"),
            (lambda data: data["bins"].update(num_bins="many"), "bins num_bins must be a number"),
            (lambda data: data["noise"].update(seed=[1]), "noise seed must be a number, got [1]"),
            (lambda data: data["arms"][0]["radius"].update(k=[0.1]), "arm radius k must be a number"),
            (lambda data: data["calibration"].update(fx=[1150.0]), "calibration fx must be a number"),
            (lambda data: data.update(scene={"large_fraction": "half"}), "scene large_fraction must be a number"),
            (lambda data: data.update(scene={"large_depth_range": ["a", 40]}), "scene large_depth_range must be"),
        ],
    )
    def test_wrong_json_type_in_config_exits_2(self, tmp_path, edit_config, message, capsys):
        config = reduced_config(tmp_path)
        data = json.loads(config.read_text())
        edit_config(data)
        config.write_text(json.dumps(data))
        csv_path, summary = tmp_path / "rows.csv", tmp_path / "summary.json"
        argv = ["simulate", "--config", str(config), "--output-csv", str(csv_path), "--summary", str(summary)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not csv_path.exists() and not summary.exists()

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("arms", 5, "arms must be a JSON list, got 5"),
            ("arms", [5], "arms[0] must be a JSON object, got 5"),
            ("noise", [1], "noise must be a JSON object, got [1]"),
            ("bins", [1], "bins must be a JSON object, got [1]"),
            ("scene", 5, "scene must be a JSON object, got 5"),
            ("orderings", [5], "orderings[0] must be a pair of arm names, got 5"),
            ("orderings", [["a"]], "orderings[0] must be a pair of arm names, got ['a']"),
        ],
    )
    def test_wrong_container_type_in_config_exits_2(self, tmp_path, key, value, message, capsys):
        config = reduced_config(tmp_path, **{key: value})
        csv_path, summary = tmp_path / "rows.csv", tmp_path / "summary.json"
        argv = ["simulate", "--config", str(config), "--output-csv", str(csv_path), "--summary", str(summary)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not csv_path.exists() and not summary.exists()

    def test_plot_data_rows_equal_the_main_csv(self, tmp_path):
        config = reduced_config(tmp_path)
        csv_path, summary, plot = tmp_path / "rows.csv", tmp_path / "summary.json", tmp_path / "plot.csv"
        argv = ["simulate", "--config", str(config), "--output-csv", str(csv_path), "--summary", str(summary)]
        assert main(argv + ["--emit-plot-data", str(plot)]) == 0
        rows = {(r["seed"], r["arm"]): r for r in read_csv(csv_path)}
        tidy = read_csv(plot)
        assert len(rows) == 6 * 4 and len(tidy) == 2 * len(rows)
        assert {r["metric"] for r in tidy} == {"hit_rate", "depth_mae"}
        for row in tidy:
            assert rows[row["seed"], row["arm"]][row["metric"]] == row["value"]

    def test_packaged_experiment_output_is_pinned(self, tmp_path):
        """sha256 of the packaged experiment's CSV (9 significant digits) and
        summary, recorded before seeds were scored as one batch per arm."""
        csv_path, summary = tmp_path / "rows.csv", tmp_path / "summary.json"
        assert main(["simulate", "--output-csv", str(csv_path), "--summary", str(summary)]) == 0
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
            "6bb55524d2bc7168704142e1005d92b66bf10f444c3f3288cdd3af7e75b04513"
        )
        assert hashlib.sha256(summary.read_bytes()).hexdigest() == (
            "47e73d45c48b2ada2b46e13e7bdd99ff9d0059045fa810a903fffbf3e100a46e"
        )


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestUsage:
    @pytest.mark.parametrize("argv", [[], ["simulate"], ["loss", "--depth-map", "x"], ["no-such-command"]])
    def test_usage_errors_exit_1(self, argv):
        assert main(argv) == 1


SPEC = DepthBinSpec(0.0, 8.0, 8)


def write_loss_inputs(tmp_path, depth_map, targets):
    lxlt.write_tensor(tmp_path / "map.lxlt", depth_map)
    lxlt.write_tensor(tmp_path / "targets.lxlt", targets_to_array(targets))
    return [
        "loss", "--depth-map", str(tmp_path / "map.lxlt"), "--targets", str(tmp_path / "targets.lxlt"),
        "--d-min", "0", "--d-max", "8", "--num-bins", "8", "--per-target", str(tmp_path / "per.csv"),
    ]


def float32_map(seed, height=5, width=6):
    depth_map = softmax(np.random.default_rng(seed).normal(size=(8, height, width)), axis=0)
    return depth_map.astype(np.float32).astype(np.float64)


class TestLoss:
    def test_total_and_per_target_rows(self, tmp_path, capsys):
        depth_map = float32_map(0)
        targets = [DepthTarget(1, 2, 3.25, 1.5), DepthTarget(5, 4, 6.5, 0.0)]
        assert main(write_loss_inputs(tmp_path, depth_map, targets)) == 0
        want = one_to_many_loss(depth_map, targets, SPEC, LossConfig())
        assert capsys.readouterr().out == f"{want.total:.12g}\n"
        rows = (tmp_path / "per.csv").read_text().splitlines()
        assert rows[0] == "index,u,v,d_gt,radius,n_pixels,loss,selected_u,selected_v"
        assert len(rows) == 3

    @pytest.mark.parametrize(
        "flags,cfg",
        [
            (["--agg", "max", "--strategy", "one-to-one"], LossConfig(neighborhood_agg="max", strategy="one-to-one")),
            (["--lambda1", "0.3"], LossConfig(lambda1=0.3)),
            (["--lambda2", "0.7", "--agg", "max"], LossConfig(lambda2=0.7, neighborhood_agg="max")),
        ],
    )
    def test_unset_flags_take_the_loss_config_defaults(self, tmp_path, flags, cfg, capsys):
        depth_map = float32_map(2)
        targets = [DepthTarget(1, 2, 3.25, 1.5), DepthTarget(4, 3, 6.5, 2.0), DepthTarget(0, 0, 1.0, 1.0)]
        assert main(write_loss_inputs(tmp_path, depth_map, targets) + flags) == 0
        want = one_to_many_loss(depth_map, targets, SPEC, cfg)
        assert capsys.readouterr().out == f"{want.total:.12g}\n"

    @pytest.mark.parametrize(
        "bad", [DepthTarget(6, 0, 3.0, 1.0), DepthTarget(0, -1, 3.0, 0.0), DepthTarget(2, 2, 3.0, -1.0)]
    )
    def test_bad_target_exits_2_without_output(self, tmp_path, bad, capsys):
        argv = write_loss_inputs(tmp_path, float32_map(1), [DepthTarget(1, 1, 3.0, 1.0), bad])
        assert main(argv) == 2
        assert "target 1 " in capsys.readouterr().err
        assert not (tmp_path / "per.csv").exists()

    def test_negative_probabilities_exit_2(self, tmp_path, capsys):
        depth_map = np.full((8, 3, 3), 0.125)
        depth_map[:2, 1, 1] = [0.5, -0.25]
        assert main(write_loss_inputs(tmp_path, depth_map, [DepthTarget(1, 1, 3.0, 1.0)])) == 2
        assert "not normalized" in capsys.readouterr().err
        assert not (tmp_path / "per.csv").exists()


# Radar (forward, lateral, vertical) to camera (right, down, forward) axes.
RADAR_TO_CAMERA = RigidTransform(np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]), np.zeros(3))


def calibration(**overrides) -> dict:
    data = SensorCalibration(
        CameraIntrinsics(40.0, 40.0, 32.0, 24.0), RADAR_TO_CAMERA, 64, 48,
        AngularResolution.from_degrees(1, 1),
    ).to_dict()
    data.update(overrides)
    return data


class TestDepthTargets:
    POINTS = "x,y,z,rcs_dbsm\n10.0,0.5,0.25,3.5\n6.0,-1.0,0.0,\n-4.0,0.0,0.0,12.0\n"

    def argv(self, tmp_path, points=POINTS, calib=None, config=None):
        (tmp_path / "points.csv").write_text(points)
        (tmp_path / "calib.json").write_text(json.dumps(calib or calibration()))
        argv = [
            "depth-targets", "--points", str(tmp_path / "points.csv"),
            "--calib", str(tmp_path / "calib.json"), "--output", str(tmp_path / "targets.lxlt"),
        ]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "config.json")]
        return argv

    def test_targets_and_sidecar(self, tmp_path):
        assert main(self.argv(tmp_path)) == 0
        table = lxlt.read_tensor(tmp_path / "targets.lxlt")
        assert table.shape == (2, 4)
        assert table[1, 3] == 2.0  # the point without RCS takes the default fixed radius
        sidecar = json.loads((tmp_path / "targets.lxlt.json").read_text())
        assert (sidecar["num_input_points"], sidecar["num_dropped"], sidecar["num_targets"]) == (3, 1, 2)

    def test_fixed_r_from_config_is_a_number(self, tmp_path):
        assert main(self.argv(tmp_path, config={"fixed_r": "1.5", "r_max": "4"})) == 0
        assert lxlt.read_tensor(tmp_path / "targets.lxlt")[1, 3] == 1.5
        assert json.loads((tmp_path / "targets.lxlt.json").read_text())["fixed_r"] == 1.5

    def test_flags_override_the_config_and_the_config_the_defaults(self, tmp_path):
        argv = self.argv(tmp_path, points=self.POINTS, config={"stride": 4, "k": 0.5, "r_max": "6"})
        assert main(argv + ["--stride", "8", "--k", "0.2"]) == 0
        sidecar = json.loads((tmp_path / "targets.lxlt.json").read_text())
        assert (sidecar["stride"], sidecar["k"], sidecar["r_max"], sidecar["fixed_r"]) == (8, 0.2, 6.0, 2.0)

    def test_radius_defaults_come_from_radius_config(self, tmp_path):
        points = "x,y,z,rcs_dbsm\n10.0,0.5,0.25,3.5\n"
        assert main(self.argv(tmp_path, points=points)) == 0
        sidecar = json.loads((tmp_path / "targets.lxlt.json").read_text())
        assert (sidecar["stride"], sidecar["k"], sidecar["r_max"], sidecar["fixed_r"]) == (8, 0.1, 2.0, None)

    def test_null_fixed_r_leaves_points_without_rcs_unsupervised(self, tmp_path, capsys):
        assert main(self.argv(tmp_path, config={"fixed_r": None})) == 2
        assert "no fixed_r is configured" in capsys.readouterr().err
        assert not (tmp_path / "targets.lxlt").exists()

    @pytest.mark.parametrize(
        "case,message",
        [
            ({"calib": calibration(cx=math.nan)}, "intrinsics cx must be finite"),
            ({"calib": calibration(fx=math.inf)}, "intrinsics fx must be finite"),
            (
                {"calib": calibration(radar_to_camera=[math.nan] + calibration()["radar_to_camera"][1:])},
                "rotation entries must be finite",
            ),
            ({"points": "x,y,z,rcs_dbsm\n10.0,0.5,0.25,3.5\n1,2\n"}, "points.csv, line 3: a row needs"),
            ({"points": "x,y,z\n1,2,3,4\n"}, "points.csv, line 2: a row needs"),
            ({"points": "x,y,z\n1,2,nan\n"}, "points.csv, line 2: radar point coordinates must be finite"),
            ({"config": {"fixed_r": "wide"}}, "'wide'"),
        ],
    )
    def test_invalid_input_exits_2_without_output(self, tmp_path, case, message, capsys):
        assert main(self.argv(tmp_path, **case)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "targets.lxlt").exists() and not (tmp_path / "targets.lxlt.json").exists()

    @pytest.mark.parametrize(
        "case,message",
        [
            ({"config": {"stride": [8]}}, "stride must be a number, got [8]"),
            ({"config": {"stride": 8.5}}, "stride must be a whole number, got 8.5"),
            ({"config": {"k": {"value": 0.1}}}, "k must be a number, got {'value': 0.1}"),
            ({"config": {"r_max": True}}, "r_max must be a number, got True"),
            ({"calib": calibration(fx=[1150.0])}, "calibration fx must be a number, got [1150.0]"),
            ({"calib": calibration(image_width="wide")}, "calibration image_width must be a number"),
            ({"calib": calibration(image_height=48.5)}, "calibration image_height must be a whole number"),
            (
                {"calib": calibration(radar_to_camera=[[0.0]] + calibration()["radar_to_camera"][1:])},
                "calibration radar_to_camera[0] must be a number",
            ),
        ],
    )
    def test_wrong_json_type_exits_2_without_output(self, tmp_path, case, message, capsys):
        assert main(self.argv(tmp_path, **case)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err
        assert not (tmp_path / "targets.lxlt").exists() and not (tmp_path / "targets.lxlt.json").exists()


VT_GRID = {"x": [2.0, 10.0, 4], "y": [-4.0, 4.0, 4], "z": [-1.0, 1.0, 2]}
VT_BINS = {"d_min": 0.0, "d_max": 16.0, "num_bins": 4}
VT_CHANNELS = 2


def write_vt_inputs(tmp_path, rng, **overrides):
    """LXLT inputs, grid and calibration files and a manifest naming them,
    under ``tmp_path / "inputs"``, with ``overrides`` replacing manifest
    keys; returns (manifest, inputs dir)."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    params = random_vt_params(rng, VT_CHANNELS, VT_GRID["z"][2], VT_BINS["num_bins"], 3)

    def write(name, array):
        lxlt.write_tensor(inputs / name, array)
        return name

    def entry(name, layer):
        weights, bias = write(f"{name}.w.lxlt", layer.weights), write(f"{name}.b.lxlt", layer.bias)
        return {"weights": weights, "bias": bias}

    (inputs / "grid.json").write_text(json.dumps(VT_GRID))
    (inputs / "calib.json").write_text(json.dumps(calibration()))
    manifest = {
        "feature_map": write("f_pv.lxlt", rng.normal(size=(VT_CHANNELS, 6, 8))),
        "radar_bev": write("radar.lxlt", rng.normal(size=(3, 4, 4))),
        "grid": "grid.json",
        "calibration": "calib.json",
        "stride": 8,
        "depth_bins": VT_BINS,
        "params": {
            "occupancy_conv": entry("occ", params.occupancy_conv),
            "depth_conv": entry("depth", params.depth_conv),
            "embedding": entry("emb", params.embedding),
            "post_convs": [entry(f"post{i}", conv) for i, conv in enumerate(params.post_convs)],
        },
        **overrides,
    }
    (inputs / "manifest.json").write_text(json.dumps(manifest))
    return manifest, inputs


class TestVT:
    def test_manifest_paths_resolve_against_the_manifest(self, tmp_path, monkeypatch):
        manifest, inputs = write_vt_inputs(tmp_path, np.random.default_rng(5))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main(["vt", "--manifest", "../inputs/manifest.json", "--output", "bev.lxlt"]) == 0

        loaded = vt_params_from_manifest(manifest, inputs)
        calib = SensorCalibration.from_dict(calibration())
        f_pv = lxlt.read_tensor(inputs / "f_pv.lxlt")
        d_map = depth_distribution(
            f_pv, scale_intrinsics(calib.intrinsics, 8), loaded, DepthBinSpec(**VT_BINS), 8
        )
        occupancy = occupancy_from_bev(lxlt.read_tensor(inputs / "radar.lxlt"), loaded)
        want = sample_vt(
            f_pv, d_map, occupancy, VoxelGridSpec.from_dict(VT_GRID), calib.intrinsics, RADAR_TO_CAMERA, loaded
        )
        assert want.shape == (VT_CHANNELS, 4, 4) and np.abs(want).max() > 0
        np.testing.assert_array_equal(lxlt.read_tensor(elsewhere / "bev.lxlt"), want.astype(np.float32))

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"stride": [8]}, "manifest stride must be a number, got [8]"),
            ({"stride": "eight"}, "manifest stride must be a number, got 'eight'"),
            ({"stride": 7.5}, "manifest stride must be a whole number"),
            ({"depth_bins": {**VT_BINS, "d_min": [0.0]}}, "manifest depth_bins.d_min must be a number"),
            ({"depth_bins": {**VT_BINS, "d_max": None}}, "manifest depth_bins.d_max must be a number"),
            ({"depth_bins": {**VT_BINS, "num_bins": 4.5}}, "manifest depth_bins.num_bins must be a whole number"),
            ({"depth_bins": {**VT_BINS, "num_bins": {"n": 4}}}, "manifest depth_bins.num_bins must be a number"),
            ({"depth_bins": [0.0, 16.0, 4]}, "manifest depth_bins must be a JSON object"),
            ({"depth_bins": {**VT_BINS, "d_max": "Infinity"}}, "depth bins d_max must be finite"),
            ({"grid": 5}, "manifest grid must be a file name, got 5"),
            ({"grid": {**VT_GRID, "x": [2.0, 10.0, 4.5]}}, "grid x count must be a whole number, got 4.5"),
            ({"grid": {**VT_GRID, "y": [-4.0, 1e999, 4]}}, "y axis extent must be finite"),
            ({"calibration": 3}, "manifest calibration must be a file name, got 3"),
            ({"calibration": calibration(fx=[1150.0])}, "calibration fx must be a number, got [1150.0]"),
            ({"feature_map": 7}, "manifest feature_map must be a file name, got 7"),
        ],
    )
    def test_wrong_manifest_value_exits_2_without_output(self, tmp_path, overrides, message, capsys):
        write_vt_inputs(tmp_path, np.random.default_rng(6), **overrides)
        out = tmp_path / "bev.lxlt"
        assert main(["vt", "--manifest", str(tmp_path / "inputs" / "manifest.json"), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda m: m.update(params="oops"), "manifest params must be a JSON object, got 'oops'"),
            (lambda m: m["params"].update(post_convs=5), "post_convs must be a JSON list, got 5"),
            (lambda m: m["params"].update(post_convs={"0": 1}), "post_convs must be a JSON list"),
            (lambda m: m["params"].pop("depth_conv"), "depth_conv: manifest entry must map"),
            (lambda m: m["params"]["post_convs"].__setitem__(1, [1]), "post_convs[1]: manifest entry must map"),
            (lambda m: m.pop("stride"), "manifest stride must be a number, got None"),
            (lambda m: m.pop("depth_bins"), "manifest depth_bins must be a JSON object, got None"),
            (lambda m: m.pop("radar_bev"), "manifest radar_bev must be a file name, got None"),
            (
                lambda m: m.update(depth_bins={"d_min": 0.0, "d_max": 16.0}),
                "manifest depth_bins.num_bins must be a number, got None",
            ),
            (lambda m: m.update(grid=[1]), "manifest grid must be a file name, got [1]"),
        ],
    )
    def test_wrong_container_in_manifest_exits_2_without_output(self, tmp_path, edit, message, capsys):
        manifest, inputs = write_vt_inputs(tmp_path, np.random.default_rng(7))
        edit(manifest)
        (inputs / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "bev.lxlt"
        assert main(["vt", "--manifest", str(inputs / "manifest.json"), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err
        assert not out.exists()

    def test_embedding_with_extrinsic_inputs_exits_2(self, tmp_path, capsys):
        """A 25-input embedding (intrinsics plus a flattened 4x4 extrinsic
        matrix) fails the embedding width check, whatever the manifest says."""
        manifest, inputs = write_vt_inputs(tmp_path, np.random.default_rng(8), use_extrinsics_embedding=True)
        wide = random_linear(np.random.default_rng(9), VT_CHANNELS, 25)
        lxlt.write_tensor(inputs / "emb.w.lxlt", wide.weights)
        out = tmp_path / "bev.lxlt"
        assert main(["vt", "--manifest", str(inputs / "manifest.json"), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: embedding expects 25 inputs") and "Traceback" not in err
        assert not out.exists()


FUSE_CHANNELS = 3


def write_fuse_inputs(tmp_path, mode, seed=0):
    """Radar and image BEV maps and a parameter manifest for ``fuse --mode``;
    returns (manifest, argv without --params and --output)."""
    rng = np.random.default_rng(seed)
    params = random_csa_params(rng, FUSE_CHANNELS) if mode == "csa" else random_concat_params(rng, FUSE_CHANNELS)

    def entry(name, layer):
        lxlt.write_tensor(tmp_path / f"{name}.w.lxlt", layer.weights)
        lxlt.write_tensor(tmp_path / f"{name}.b.lxlt", layer.bias)
        return {"weights": f"{name}.w.lxlt", "bias": f"{name}.b.lxlt"}

    entries = {}
    for field in dataclasses.fields(params):
        value = getattr(params, field.name)
        if isinstance(value, MLPParams):
            entries[field.name] = {"layers": [entry(f"{field.name}.{i}", x) for i, x in enumerate(value.layers)]}
        else:
            entries[field.name] = entry(field.name, value)
    lxlt.write_tensor(tmp_path / "radar.lxlt", rng.normal(size=(FUSE_CHANNELS, 4, 5)))
    lxlt.write_tensor(tmp_path / "image.lxlt", rng.normal(size=(FUSE_CHANNELS, 4, 5)))
    argv = ["fuse", "--radar", str(tmp_path / "radar.lxlt"), "--image", str(tmp_path / "image.lxlt"), "--mode", mode]
    return {"params": entries}, argv


class TestFuse:
    @pytest.mark.parametrize("mode", ["csa", "concat"])
    def test_output_equals_the_fusion_of_the_loaded_params(self, tmp_path, mode):
        manifest, argv = write_fuse_inputs(tmp_path, mode)
        (tmp_path / "params.json").write_text(json.dumps(manifest))
        out = tmp_path / "fused.lxlt"
        assert main(argv + ["--params", str(tmp_path / "params.json"), "--output", str(out)]) == 0
        radar, image = lxlt.read_tensor(tmp_path / "radar.lxlt"), lxlt.read_tensor(tmp_path / "image.lxlt")
        if mode == "csa":
            want = csa_fusion(radar, image, csa_params_from_manifest(manifest, tmp_path))
        else:
            want = concat_fusion(radar, image, concat_params_from_manifest(manifest, tmp_path))
        np.testing.assert_array_equal(lxlt.read_tensor(out), want.astype(np.float32))

    @pytest.mark.parametrize(
        "mode,edit,message",
        [
            ("csa", lambda m: m.update(params=[1]), "manifest params must be a JSON object, got [1]"),
            ("csa", lambda m: m["params"].update(channel_mlp_radar="x"), "channel_mlp_radar must be a JSON object, got 'x'"),
            (
                "csa",
                lambda m: m["params"].update(channel_mlp_radar={"layers": 5}),
                "channel_mlp_radar.layers must be a JSON list, got 5",
            ),
            ("csa", lambda m: m["params"].pop("channel_mlp_image"), "channel_mlp_image must be a JSON object, got None"),
            (
                "csa",
                lambda m: m["params"].pop("in_conv"),
                "in_conv: manifest entry must map 'weights' and 'bias' to file names, got None",
            ),
            ("csa", lambda m: m["params"]["channel_mlp_radar"]["layers"].__setitem__(0, 3), "channel_mlp_radar.layers[0]:"),
            ("concat", lambda m: m.update(params=[1]), "manifest params must be a JSON object, got [1]"),
            ("concat", lambda m: m["params"].pop("second"), "second: manifest entry must map"),
            ("concat", lambda m: m["params"].update(first=[1]), "first: manifest entry must map 'weights' and 'bias'"),
            ("concat", lambda m: m.update(params={}), "first: manifest entry must map 'weights' and 'bias' to file names, got None"),
        ],
    )
    def test_wrong_manifest_container_exits_2_without_output(self, tmp_path, mode, edit, message, capsys):
        manifest, argv = write_fuse_inputs(tmp_path, mode)
        edit(manifest)
        (tmp_path / "params.json").write_text(json.dumps(manifest))
        out = tmp_path / "fused.lxlt"
        assert main(argv + ["--params", str(tmp_path / "params.json"), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err
        assert not out.exists()

    def test_manifest_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        _, argv = write_fuse_inputs(tmp_path, "csa")
        (tmp_path / "params.json").write_text("[1, 2]")
        out = tmp_path / "fused.lxlt"
        assert main(argv + ["--params", str(tmp_path / "params.json"), "--output", str(out)]) == 2
        assert "params.json: the top level must be a JSON object, got [1, 2]" in capsys.readouterr().err
        assert not out.exists()


class TestGradCheck:
    def test_a_few_instances_pass(self, capsys):
        assert main(["grad-check", "--instances", "2"]) == 0
        assert float(capsys.readouterr().out) < 1e-4

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--step", "0", "--step must be a positive finite number, got 0.0"),
            ("--step", "inf", "--step must be a positive finite number, got inf"),
            ("--tolerance", "nan", "--tolerance must be a non-negative finite number, got nan"),
            ("--tolerance", "-1e-4", "--tolerance must be a non-negative finite number, got -0.0001"),
            ("--max-bins", "3", "--max-bins must be at least 4, got 3"),
            ("--max-size", "2", "--max-size must be at least 3, got 2"),
            ("--instances", "-3", "--instances must be at least 1, got -3"),
            ("--instances", "0", "--instances must be at least 1, got 0"),
        ],
    )
    def test_bad_flag_exits_2_naming_it(self, flag, value, message, capsys):
        assert main(["grad-check", f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""


class TestErrorModel:
    def argv(self, tmp_path, calib=None):
        (tmp_path / "calib.json").write_text(json.dumps(calib or calibration()))
        return ["error-model", "--calib", str(tmp_path / "calib.json")]

    def test_output_file_equals_stdout_and_reruns_byte_identical(self, tmp_path, capsys):
        assert main(self.argv(tmp_path)) == 0
        stdout = capsys.readouterr().out
        files = []
        for name in ("a.csv", "b.csv"):
            assert main(self.argv(tmp_path) + ["--output", str(tmp_path / name)]) == 0
            files.append((tmp_path / name).read_bytes())
        assert capsys.readouterr().out == ""
        assert files[0] == files[1] == stdout.encode()
        assert stdout.startswith("rho_m,theta_deg,phi_deg,empirical_px,e_u_px,e_v_px,e_px,rel_deviation\r\n")

    def test_aligned_axes_follow_the_analytic_bound(self, tmp_path):
        assert main(self.argv(tmp_path) + ["--output", str(tmp_path / "err.csv")]) == 0
        rows = read_csv(tmp_path / "err.csv")
        assert len(rows) == 5 * 9 * 3
        assert max(float(r["rel_deviation"]) for r in rows) <= 1e-12

    def test_plot_data_rows_equal_the_main_csv(self, tmp_path):
        out, plot = tmp_path / "err.csv", tmp_path / "plot.csv"
        assert main(self.argv(tmp_path) + ["--output", str(out), "--emit-plot-data", str(plot)]) == 0
        rows = {(r["rho_m"], r["theta_deg"], r["phi_deg"]): r for r in read_csv(out)}
        tidy = read_csv(plot)
        assert len(tidy) == 2 * len(rows) == 2 * 5 * 9 * 3
        assert {r["metric"] for r in tidy} == {"empirical_px", "rel_deviation"}
        for row in tidy:
            assert rows[row["rho_m"], row["theta_deg"], row["phi_deg"]][row["metric"]] == row["value"]

    @pytest.mark.parametrize(
        "calib,message",
        [
            (calibration(fx=[1150.0]), "calibration fx must be a number, got [1150.0]"),
            (calibration(delta_theta_deg=None), "calibration delta_theta_deg must be a number, got None"),
            ([1], "calib.json: the top level must be a JSON object, got [1]"),
        ],
    )
    def test_bad_calibration_exits_2_without_output(self, tmp_path, calib, message, capsys):
        out, plot = tmp_path / "err.csv", tmp_path / "plot.csv"
        assert main(self.argv(tmp_path, calib) + ["--output", str(out), "--emit-plot-data", str(plot)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and message in captured.err and captured.out == ""
        assert not out.exists() and not plot.exists()
