"""Tests for the command line front end, run through ``main(argv)``."""

import csv
import dataclasses
import hashlib
import json
import math
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from radarcam import cli, lxlt
from radarcam.cli import main
from radarcam.depth_supervision import DepthBinSpec, DepthTarget, LossConfig, RadiusConfig, one_to_many_loss
from radarcam.fusion import ConcatFusionParams, CSAFusionParams, concat_fusion, csa_fusion
from radarcam.geometry import (
    AngularResolution,
    CameraIntrinsics,
    RigidTransform,
    SensorCalibration,
    read_json,
    scale_intrinsics,
)
from radarcam.tensor_ops import softmax
from radarcam.view_transform import VTParams, VoxelGridSpec, depth_distribution, occupancy_from_bev, sample_vt

from helpers import random_concat_params, random_csa_params, random_linear, random_vt_params, read_params, write_manifest


def reduced_config(tmp_path, **overrides):
    """The packaged experiment on fewer seeds and bootstrap samples."""
    data = json.loads(resources.files("radarcam").joinpath("configs/default_experiment.json").read_text())
    data.update({"num_seeds": 6, "bootstrap_samples": 100, **overrides})
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
            (lambda data: data["bins"].update(num_bins="many"), "bins.num_bins must be a number"),
            (lambda data: data["arms"][0]["radius"].update(k=[0.1]), "arms[0].radius.k must be a number"),
            (lambda data: data["calibration"].update(fx=[1150.0]), "calibration.fx must be a number, got [1150.0]"),
            (
                lambda data: data["calibration"].update(radar_to_camera=[1.0, 0.0, 0.0]),
                "calibration.radar_to_camera must hold 16 row-major numbers, got [1.0, 0.0, 0.0]",
            ),
            (lambda data: data.update(scene={"large_fraction": "half"}), "scene.large_fraction must be a number"),
            (lambda data: data.update(scene={"large_depth_range": ["a", 40]}), "scene.large_depth_range[0] must be a number"),
            (lambda data: data.update(scene={"large_depth_range": [10]}), "scene.large_depth_range must be a JSON list of 2"),
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
        "edit_config,key",
        [
            (lambda data: data["noise"].update(range_sigma=math.nan), "noise: range_sigma"),
            (lambda data: data["calibration"].update(delta_theta_deg=math.nan), "calibration: angular resolution delta_theta_deg"),
            (lambda data: data["calibration"].update(delta_phi_deg=-math.inf), "calibration: angular resolution delta_phi_deg"),
            # An integer too large for a float, refused where it is read.
            (lambda data: data.update(stride=10**400), "stride"),
            (lambda data: data["bins"].update(num_bins=10**400), "bins.num_bins"),
            (lambda data: data["noise"].update(points_base=math.nan), "noise: points_base"),
            (lambda data: data["noise"].update(points_size_scale=math.inf), "noise: points_size_scale"),
            (lambda data: data["scene"].update(small_size_range=[0.2, math.inf]), "scene: small_size_range"),
            (lambda data: data["scene"].update(large_size_range=[0.0, 9.0]), "scene: large_size_range"),
            (lambda data: data["scene"].update(azimuth_max_deg=math.nan), "scene: azimuth_max_deg"),
            (lambda data: data["scene"].update(large_depth_range=[math.nan, 40.0]), "scene: large_depth_range"),
            (lambda data: data.update(seed_start=-3), "seed_start"),
            (lambda data: data.update(bootstrap_seed=-1), "bootstrap_seed"),
            # One seed's bootstrap returns the gap itself as its CI95 lower bound.
            (lambda data: data.update(num_seeds=1), "num_seeds"),
            # A count past a C ssize_t, refused before range() or NumPy sees it.
            pytest.param(lambda data: data.update(num_seeds=10**30), "num_seeds", id="num_seeds=10**30"),
            pytest.param(lambda data: data.update(num_seeds=2**63), "num_seeds", id="num_seeds=2**63"),
            (lambda data: data.update(n_objects=10**30), "n_objects"),
            (lambda data: data.update(bootstrap_samples=10**30), "bootstrap_samples"),
            # More returns than an intp counts, refused before the cast wraps them negative.
            pytest.param(
                lambda data: data["noise"].update(points_size_scale=1e300),
                "points_base + points_size_scale * sqrt(size)",
                id="points_size_scale=1e300",
            ),
            pytest.param(
                lambda data: data["scene"].update(large_size_range=[1e300, 1e301]),
                "points_base + points_size_scale * sqrt(size)",
                id="large_size_range=1e300",
            ),
        ],
    )
    def test_non_finite_or_out_of_range_value_exits_2_naming_the_key(self, tmp_path, edit_config, key, capsys):
        # json writes and reads NaN and Infinity literals
        config = reduced_config(tmp_path)
        data = json.loads(config.read_text())
        edit_config(data)
        config.write_text(json.dumps(data))
        csv_path, summary = tmp_path / "rows.csv", tmp_path / "summary.json"
        argv = ["simulate", "--config", str(config), "--output-csv", str(csv_path), "--summary", str(summary)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must ") and "Traceback" not in err
        assert not csv_path.exists() and not summary.exists()

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("arms", 5, "arms must be a JSON list, got 5"),
            ("arms", [5], "arms[0] must be a JSON object, got 5"),
            ("noise", [1], "noise must be a JSON object, got [1]"),
            ("bins", [1], "bins must be a JSON object, got [1]"),
            ("scene", 5, "scene must be a JSON object, got 5"),
            ("orderings", [5], "orderings[0] must be a JSON list, got 5"),
            ("orderings", [["a"]], "orderings[0] must be a JSON list of 2 items, got ['a']"),
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

    @pytest.mark.parametrize(
        "edit_config,message",
        [
            (lambda data: data.update(num_seed=3), "the top level has no key 'num_seed'"),
            (lambda data: data["noise"].update(range_sigm=0.5), "noise has no key 'range_sigm'"),
            (lambda data: data["arms"][2]["radius"].update(rmax=4.0), "arms[2].radius has no key 'rmax'"),
            (lambda data: data["calibration"].update(skew=0.0), "calibration has no key 'skew'"),
            # The spellings before one-to-one became a radius of 0 and the noise
            # took the calibration's angular resolution.
            (lambda data: data["arms"][0].update(strategy="one-to-one"), "arms[0] has no key 'strategy'"),
            (lambda data: data["noise"].update(delta_theta_deg=1.0), "noise has no key 'delta_theta_deg'"),
            # The radius of a point without RCS before it became r_max.
            (lambda data: data["arms"][1]["radius"].update(fixed_r=1.0), "arms[1].radius has no key 'fixed_r'"),
        ],
    )
    def test_key_that_names_no_field_exits_2_naming_it(self, tmp_path, edit_config, message, capsys):
        self.assert_exits_2_with(tmp_path, edit_config, message, capsys)

    @pytest.mark.parametrize(
        "edit_config,message",
        [
            (lambda data: data["arms"][2]["radius"].update(k=0), "arms[2].radius: k must be positive, got 0.0"),
            (lambda data: data["arms"][1]["radius"].update(r_max=math.inf), "arms[1].radius: r_max must be finite, got inf"),
            (lambda data: data["noise"].update(range_sigma=-1), "noise: range_sigma must be non-negative"),
            (
                lambda data: data["arms"][1].update(agg="mean"),
                "arms[1]: arm 'fixed-one-to-many': unknown aggregation 'mean'",
            ),
            (lambda data: data["arms"][0]["radius"].update(r_max=None), "arms[0].radius.r_max must be a number, got None"),
            (
                lambda data: data["scene"].update(azimuth_max_deg=95.0),
                "scene: azimuth_max_deg must lie in [0, 90), got 95.0",
            ),
            (lambda data: data.update(stride=0), "stride must be at least 1, got 0"),  # the top level: no path
            (lambda data: data.update(stride=961), "stride must be at most 600, the calibration's shorter image side, got 961"),
            (lambda data: data.update(arms=[]), "arms must hold at least one arm"),  # before its orderings are checked
        ],
    )
    def test_range_error_names_the_path_of_its_object(self, tmp_path, edit_config, message, capsys):
        self.assert_exits_2_with(tmp_path, edit_config, message, capsys)

    def test_an_arm_without_r_max_runs_at_the_default_radius_whatever_its_k(self, tmp_path):
        data = json.loads(reduced_config(tmp_path).read_text())
        assert data["arms"][1]["radius"] == {"r_max": 1.0}  # a fixed radius arm without RCS
        outputs = []
        for run, radius in (("absent", {}), ("given", {"r_max": 2.0}), ("unused-k", {"k": 0.5})):
            data["arms"][1]["radius"] = radius
            config, csv_path, summary = (tmp_path / f"{run}{suffix}" for suffix in (".config.json", ".csv", ".json"))
            config.write_text(json.dumps(data))
            argv = ["simulate", "--config", str(config), "--output-csv", str(csv_path), "--summary", str(summary)]
            assert main(argv) == 0
            outputs.append((csv_path.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    @staticmethod
    def assert_exits_2_with(tmp_path, edit_config, message, capsys):
        """The reduced config edited by ``edit_config`` exits 2 with ``message`` alone and writes nothing."""
        config = reduced_config(tmp_path)
        data = json.loads(config.read_text())
        edit_config(data)
        config.write_text(json.dumps(data))
        csv_path, summary = tmp_path / "rows.csv", tmp_path / "summary.json"
        argv = ["simulate", "--config", str(config), "--output-csv", str(csv_path), "--summary", str(summary)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not csv_path.exists() and not summary.exists()

    @pytest.mark.parametrize(
        "edit_config",
        [
            # PiB-scale requests: each fails where it is allocated, before any memory is used.
            pytest.param(lambda data: data.update(bootstrap_samples=10**13), id="bootstrap_samples"),
            pytest.param(lambda data: data.update(n_objects=10**13), id="n_objects"),
            pytest.param(lambda data: data["noise"].update(points_size_scale=1e13), id="points_size_scale"),
        ],
    )
    def test_a_config_that_needs_more_memory_than_there_is_exits_2(self, tmp_path, edit_config, capsys):
        config = reduced_config(tmp_path)
        data = json.loads(config.read_text())
        edit_config(data)
        config.write_text(json.dumps(data))
        csv_path, summary = tmp_path / "rows.csv", tmp_path / "summary.json"
        argv = ["simulate", "--config", str(config), "--output-csv", str(csv_path), "--summary", str(summary)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) > len("error: \n")
        assert not csv_path.exists() and not summary.exists()

    def test_a_memory_error_without_a_message_is_named(self, tmp_path, capsys):
        """``tuple(range(10**13))`` raises a bare ``MemoryError``."""
        message = "the input needs more memory than is available"
        self.assert_exits_2_with(tmp_path, lambda data: data.update(num_seeds=10**13), message, capsys)

    @pytest.mark.parametrize("flag", ["--summary", "--emit-plot-data"])
    def test_two_outputs_that_name_one_file_exit_2_without_output(self, tmp_path, flag, capsys):
        csv_path = tmp_path / "rows.csv"
        argv = ["simulate", "--config", str(reduced_config(tmp_path)), "--output-csv", str(csv_path)]
        argv += ["--summary", str(tmp_path / "s.json")] if flag != "--summary" else []
        assert main(argv + [flag, f"{tmp_path}/./rows.csv"]) == 2
        assert capsys.readouterr().err == f"error: outputs {csv_path} and {tmp_path}/./rows.csv name one file\n"
        assert not csv_path.exists() and not (tmp_path / "s.json").exists()

    def test_one_seed_runs_without_orderings(self, tmp_path):
        config = reduced_config(tmp_path, num_seeds=1, orderings=[])
        csv_path, summary = tmp_path / "rows.csv", tmp_path / "summary.json"
        argv = ["simulate", "--config", str(config), "--output-csv", str(csv_path), "--summary", str(summary)]
        assert main(argv) == 0
        assert json.loads(summary.read_text())["orderings"] == {}
        assert len(read_csv(csv_path)) == 4

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

    def test_packaged_plot_data_is_pinned(self, tmp_path):
        """sha256 of the packaged experiment's tidy plot data, recorded
        before the CSVs were written from the (arms, seeds) metric arrays."""
        csv_path, summary, plot = tmp_path / "rows.csv", tmp_path / "summary.json", tmp_path / "plot.csv"
        argv = ["simulate", "--output-csv", str(csv_path), "--summary", str(summary), "--emit-plot-data", str(plot)]
        assert main(argv) == 0
        assert hashlib.sha256(plot.read_bytes()).hexdigest() == (
            "83471fc85f17c1a31d589cde827ba00cc8d7c8aa883d5b5c9adfa9a42577e38d"
        )

    @pytest.mark.parametrize(
        "unwritable,path", [("--summary", "nodir/s.json"), ("--emit-plot-data", "nodir/p.csv"), ("--summary", "")]
    )
    def test_an_output_that_cannot_be_written_leaves_none(self, tmp_path, unwritable, path, capsys):
        outputs = {flag: str(tmp_path / name) for flag, name in (("--output-csv", "rows.csv"), ("--summary", "s.json"))}
        outputs[unwritable] = str(tmp_path / path) if path else ""
        argv = ["simulate", "--config", str(reduced_config(tmp_path))]
        assert main(argv + [x for flag, out in outputs.items() for x in (flag, out)]) == 2
        assert f"No such file or directory: '{outputs[unwritable]}'" in capsys.readouterr().err
        assert not any(Path(out).exists() for out in outputs.values() if out)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestUsage:
    @pytest.mark.parametrize("argv", [[], ["simulate"], ["loss", "--depth-map", "x"], ["no-such-command"]])
    def test_usage_errors_exit_1(self, argv):
        assert main(argv) == 1

    def test_a_key_error_inside_a_command_propagates(self, monkeypatch):
        """No input reaches ``main`` as a ``KeyError``: one is a fault of the
        program, and exit 2 with ``error: 'key'`` would hide its traceback."""

        def broken(**kwargs):
            raise KeyError("key")

        monkeypatch.setattr(cli, "run_grad_check", broken)
        with pytest.raises(KeyError, match="key"):
            main(["grad-check", "--instances", "1"])


SPEC = DepthBinSpec(0.0, 8.0, 8)


def write_loss_inputs(tmp_path, depth_map, targets):
    """LXLT inputs of ``loss``: the map and ``targets``, rows (u, v, d_gt, radius)."""
    lxlt.write_tensor(tmp_path / "map.lxlt", depth_map)
    lxlt.write_tensor(tmp_path / "targets.lxlt", np.array(targets, dtype=np.float64))
    return [
        "loss", "--depth-map", str(tmp_path / "map.lxlt"), "--targets", str(tmp_path / "targets.lxlt"),
        "--d-min", "0", "--d-max", "8", "--per-target", str(tmp_path / "per.csv"),
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

    def test_outputs_are_pinned(self, tmp_path, capsys):
        """sha256 of stdout and the per-target CSV, recorded before the loss
        took the LXLT table without unpacking it into targets."""
        targets = [DepthTarget(1, 2, 3.25, 1.5), DepthTarget(5, 4, 6.5, 0.0)]
        assert main(write_loss_inputs(tmp_path, float32_map(0), targets)) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "213acc9cb0f4595a8b04c5300197b35f5be4565ddf416fb2924809b8c24c7595"
        )
        assert hashlib.sha256((tmp_path / "per.csv").read_bytes()).hexdigest() == (
            "5d2bef19cee9ee173bb909c4f61c038ebfe729a08bf709cf92d8cfffa634749f"
        )

    def test_pixels_round_half_to_even_and_write_as_integers(self, tmp_path, capsys):
        """u = -0.4 writes 0, not -0 or 0.0; hashes recorded as for the pin above."""
        table = [(-0.4, 2.0, 3.25, 1.5), (4.6, 3.5, 6.5, 1.0), (2.5, 0.5, 1.0, 2.0)]
        assert main(write_loss_inputs(tmp_path, float32_map(0), table)) == 0
        rows = read_csv(tmp_path / "per.csv")
        assert [(r["u"], r["v"]) for r in rows] == [("0", "2"), ("5", "4"), ("2", "0")]
        rounded = [DepthTarget(0, 2, 3.25, 1.5), DepthTarget(5, 4, 6.5, 1.0), DepthTarget(2, 0, 1.0, 2.0)]
        want = one_to_many_loss(float32_map(0), rounded, SPEC, LossConfig())
        assert capsys.readouterr().out == f"{want.total:.12g}\n"
        assert hashlib.sha256(f"{want.total:.12g}\n".encode()).hexdigest() == (
            "16de225d17e663d84df2d1db836c26cbab4c52f1be72ad6435efa5b8d4c7f509"
        )
        assert hashlib.sha256((tmp_path / "per.csv").read_bytes()).hexdigest() == (
            "5ab3d52b15eb9f9c6d1d8f261bf9fdb8a3045e644ec0e1fd8849d70767c82104"
        )

    @pytest.mark.parametrize("table", [np.zeros((2, 3)), np.zeros(4), np.zeros((2, 4, 1))])
    def test_table_of_the_wrong_shape_exits_2_without_output(self, tmp_path, table, capsys):
        argv = write_loss_inputs(tmp_path, float32_map(0), [DepthTarget(1, 1, 3.0, 1.0)])
        lxlt.write_tensor(tmp_path / "targets.lxlt", table)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"target table must be (N, 4), got shape {table.shape}" in captured.err and captured.out == ""
        assert not (tmp_path / "per.csv").exists()

    @pytest.mark.parametrize(
        "flags,cfg",
        [
            (["--agg", "max"], LossConfig(neighborhood_agg="max")),
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

    def test_an_8_bin_map_scores_with_no_bin_flag(self, tmp_path, capsys):
        """The bin count is the map's first axis, which no flag restates."""
        argv = write_loss_inputs(tmp_path, float32_map(1), [DepthTarget(2, 1, 5.5, 1.0)])
        assert not any("bins" in arg for arg in argv)
        assert main(argv) == 0
        want = one_to_many_loss(float32_map(1), [DepthTarget(2, 1, 5.5, 1.0)], SPEC, LossConfig())
        assert capsys.readouterr().out == f"{want.total:.12g}\n"

    def test_num_bins_flag_exits_1(self, tmp_path, capsys):
        argv = write_loss_inputs(tmp_path, float32_map(0), [DepthTarget(1, 1, 3.0, 1.0)])
        assert main(argv + ["--num-bins", "8"]) == 1
        captured = capsys.readouterr()
        assert "--num-bins" in captured.err and captured.out == ""
        assert not (tmp_path / "per.csv").exists()

    @pytest.mark.parametrize("flag", ["--lambda1", "--lambda2"])
    def test_infinite_weight_exits_2_without_output(self, tmp_path, flag, capsys):
        argv = write_loss_inputs(tmp_path, np.full((8, 3, 3), 0.125), [DepthTarget(1, 1, 3.0, 1.0)])
        assert main(argv + [flag, "inf"]) == 2
        captured = capsys.readouterr()
        assert "loss weights must be finite and non-negative" in captured.err and captured.out == ""
        assert not (tmp_path / "per.csv").exists()

    @pytest.mark.parametrize(
        "d_gt,flags,message",
        [
            (3.0, ["--d-min=-1e308", "--d-max=1e308"], "depth bins width d_max - d_min must be finite"),
            (
                3e38,
                ["--d-min", "0", "--d-max", "4", "--lambda2", "1e300"],
                "target 0 (u, v, d_gt, radius) = (1.0, 1.0, 3.0000000054977558e+38, 1.0) has a loss that is not finite",
            ),
        ],
    )
    def test_loss_that_overflows_exits_2_without_output(self, tmp_path, d_gt, flags, message, capsys):
        depth_map = softmax(np.random.default_rng(3).normal(size=(2, 4, 5)), axis=0)
        argv = write_loss_inputs(tmp_path, depth_map, [(1, 1, d_gt, 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Warning" not in captured.err and "Traceback" not in captured.err
        assert not (tmp_path / "per.csv").exists()

    def test_negative_probabilities_exit_2(self, tmp_path, capsys):
        depth_map = np.full((8, 3, 3), 0.125)
        depth_map[:2, 1, 1] = [0.5, -0.25]
        assert main(write_loss_inputs(tmp_path, depth_map, [DepthTarget(1, 1, 3.0, 1.0)])) == 2
        assert "not normalized" in capsys.readouterr().err
        assert not (tmp_path / "per.csv").exists()

    def test_unwritable_per_target_csv_prints_no_total(self, tmp_path, capsys):
        argv = write_loss_inputs(tmp_path, float32_map(0), [DepthTarget(1, 2, 3.25, 1.5)])
        argv[argv.index("--per-target") + 1] = str(tmp_path / "nodir" / "per.csv")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "No such file or directory" in captured.err and captured.out == ""


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

    def argv(self, tmp_path, points=POINTS, calib=None, config=None, flags=()):
        (tmp_path / "points.csv").write_text(points)
        (tmp_path / "calib.json").write_text(json.dumps(calib or calibration()))
        argv = [
            "depth-targets", "--points", str(tmp_path / "points.csv"),
            "--calib", str(tmp_path / "calib.json"), "--output", str(tmp_path / "targets.lxlt"), *flags,
        ]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "config.json")]
        return argv

    def test_targets_and_sidecar(self, tmp_path):
        assert main(self.argv(tmp_path)) == 0
        table = lxlt.read_tensor(tmp_path / "targets.lxlt")
        assert table.shape == (2, 4)
        assert table[1, 3] == 2.0  # the point without RCS takes the default r_max
        sidecar = json.loads((tmp_path / "targets.lxlt.json").read_text())
        assert (sidecar["num_input_points"], sidecar["num_dropped"], sidecar["num_targets"]) == (3, 1, 2)

    def test_outputs_are_pinned(self, tmp_path):
        """sha256 of the LXLT table, recorded before the command built its
        table without per-point objects, and of the sidecar, recorded when
        its radius settings became k and r_max."""
        assert main(self.argv(tmp_path)) == 0
        assert hashlib.sha256((tmp_path / "targets.lxlt").read_bytes()).hexdigest() == (
            "8906b41531ff6fb485eead9607c61b0958ae570da67afb3aacfa4ffe5d075f0c"
        )
        assert hashlib.sha256((tmp_path / "targets.lxlt.json").read_bytes()).hexdigest() == (
            "00569368e8f21fadf7c31eef2a6074d2deef2fa70e1f5f4ae3346590220e5435"
        )

    @pytest.mark.parametrize("tenths", range(1, 101))
    def test_sidecar_calibration_equals_its_input(self, tmp_path, tenths, capsys):
        """0.1 to 10.0 degrees in steps of 0.1: the sidecar writes back the
        calibration it read, resolution degrees bit for bit."""
        calib = calibration(delta_theta_deg=tenths / 10, delta_phi_deg=tenths / 20)
        assert main(self.argv(tmp_path, calib=calib)) == 0
        assert json.loads((tmp_path / "targets.lxlt.json").read_text())["calibration"] == calib

    def test_pixel_that_divides_to_minus_zero_is_written_as_zero(self, tmp_path):
        """u = -5e-324 over stride 8 rounds to -0.0, which passes 0 <= u."""
        points = "x,y,z,rcs_dbsm\n10.0,5e-323,0.0,3.5\n"
        assert main(self.argv(tmp_path, points=points, calib=calibration(fx=1.0, cx=0.0))) == 0
        table = lxlt.read_tensor(tmp_path / "targets.lxlt")
        assert table[:, :2].tolist() == [[0.0, 3.0]] and not np.signbit(table[0, 0])

    def test_rcs_factor_that_overflows_clamps_without_a_warning(self, tmp_path, capsys):
        assert main(self.argv(tmp_path, points="x,y,z,rcs_dbsm\n10.0,0.5,0.25,7000\n")) == 0
        assert lxlt.read_tensor(tmp_path / "targets.lxlt")[0, 3] == RadiusConfig.r_max
        assert "Warning" not in capsys.readouterr().err

    def test_radius_that_is_not_finite_exits_2_without_output(self, tmp_path, capsys):
        argv = self.argv(tmp_path, points="x,y,z,rcs_dbsm\n10.0,0.5,0.25,-7000\n") + ["--k", "1e308"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: radius nan of the point at depth 10.0 m, RCS -7000.0 dBsm, is not finite")
        assert not (tmp_path / "targets.lxlt").exists() and not (tmp_path / "targets.lxlt.json").exists()

    def test_header_that_repeats_a_column_exits_2_naming_it(self, tmp_path, capsys):
        assert main(self.argv(tmp_path, points="x,y,z,rcs_dbsm,rcs_dbsm\n0.5,0.1,10,abc,5\n")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "the header repeats the column 'rcs_dbsm'" in err
        assert not (tmp_path / "targets.lxlt").exists()

    def test_r_max_from_config_is_a_number_and_the_radius_without_rcs(self, tmp_path):
        assert main(self.argv(tmp_path, config={"r_max": "1.5"})) == 0
        assert lxlt.read_tensor(tmp_path / "targets.lxlt")[1, 3] == 1.5
        assert json.loads((tmp_path / "targets.lxlt.json").read_text())["r_max"] == 1.5

    def test_flags_override_the_config_and_the_config_the_defaults(self, tmp_path):
        argv = self.argv(tmp_path, points=self.POINTS, config={"stride": 4, "k": 0.5, "r_max": "6"})
        assert main(argv + ["--stride", "8", "--k", "0.2"]) == 0
        sidecar = json.loads((tmp_path / "targets.lxlt.json").read_text())
        assert (sidecar["stride"], sidecar["k"], sidecar["r_max"]) == (8, 0.2, 6.0)

    def test_radius_defaults_come_from_radius_config(self, tmp_path):
        points = "x,y,z,rcs_dbsm\n10.0,0.5,0.25,3.5\n"
        assert main(self.argv(tmp_path, points=points)) == 0
        sidecar = json.loads((tmp_path / "targets.lxlt.json").read_text())
        assert (sidecar["stride"], sidecar["k"], sidecar["r_max"]) == (8, 0.1, 2.0)
        assert "fixed_r" not in sidecar

    @pytest.mark.parametrize("points", [POINTS, "x,y,z,rcs_dbsm\n10.0,0.5,0.25,3.5\n"], ids=["some-without-rcs", "all-rcs"])
    def test_null_r_max_exits_2_without_output(self, tmp_path, points, capsys):
        assert main(self.argv(tmp_path, points=points, config={"r_max": None})) == 2
        assert capsys.readouterr().err == "error: r_max must be a number, got None\n"
        assert not (tmp_path / "targets.lxlt").exists() and not (tmp_path / "targets.lxlt.json").exists()

    def test_a_sidecar_that_names_the_output_exits_2_without_output(self, tmp_path, capsys):
        """Written second, the sidecar would replace the table and the command exit 0."""
        (tmp_path / "link").symlink_to(tmp_path)
        sidecar = tmp_path / "link" / "targets.lxlt"
        assert main(self.argv(tmp_path) + ["--sidecar", str(sidecar)]) == 2
        assert capsys.readouterr().err == f"error: outputs {tmp_path / 'targets.lxlt'} and {sidecar} name one file\n"
        assert not (tmp_path / "targets.lxlt").exists()

    @pytest.mark.parametrize(
        "sidecar,message",
        [
            ("nodir/s.json", "No such file or directory"),
            ("points.csv/s.json", "Not a directory"),
            (".", "Is a directory"),
        ],
    )
    def test_unwritable_sidecar_leaves_no_targets(self, tmp_path, sidecar, message, capsys):
        assert main(self.argv(tmp_path) + ["--sidecar", str(tmp_path / sidecar)]) == 2
        assert message in capsys.readouterr().err
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
            ({"config": {"r_max": "wide"}}, "'wide'"),
            # The radius of a point without RCS before it became r_max.
            ({"config": {"fixed_r": 1.0}}, "the top level has no key 'fixed_r'"),
            ({"config": {"k": 0.2, "rmax": 4.0}}, "the top level has no key 'rmax'"),
            ({"calib": calibration(skew=0.0)}, "calibration has no key 'skew'"),
        ],
    )
    def test_invalid_input_exits_2_without_output(self, tmp_path, case, message, capsys):
        assert main(self.argv(tmp_path, **case)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "targets.lxlt").exists() and not (tmp_path / "targets.lxlt.json").exists()

    def test_points_with_a_utf8_byte_order_mark_read_as_without(self, tmp_path):
        assert main(self.argv(tmp_path)) == 0
        plain = lxlt.read_tensor(tmp_path / "targets.lxlt")
        (tmp_path / "bom").mkdir()
        argv = self.argv(tmp_path / "bom", points="\ufeff" + self.POINTS)
        assert (tmp_path / "bom" / "points.csv").read_bytes()[:4] == b"\xef\xbb\xbfx"
        assert main(argv) == 0
        np.testing.assert_array_equal(lxlt.read_tensor(tmp_path / "bom" / "targets.lxlt"), plain)

    @pytest.mark.parametrize("bom", ["", "\ufeff"])
    @pytest.mark.parametrize(
        "header,message",
        [
            ("x,z,y", "expected a header starting with x,y,z"),
            ("x;y;z", "expected a header starting with x,y,z"),
            ("", "expected a header starting with x,y,z"),
            ("x,y,z,speed", "unexpected columns ['speed']"),
        ],
    )
    def test_bad_header_exits_2_with_or_without_a_byte_order_mark(self, tmp_path, bom, header, message, capsys):
        assert main(self.argv(tmp_path, points=f"{bom}{header}\n1,2,3\n")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "targets.lxlt").exists()

    @pytest.mark.parametrize(
        "case,message",
        [
            ({"config": {"stride": [8]}}, "stride must be a number, got [8]"),
            ({"config": {"stride": 8.5}}, "stride must be a whole number, got 8.5"),
            ({"config": {"k": {"value": 0.1}}}, "k must be a number, got {'value': 0.1}"),
            ({"config": {"r_max": True}}, "r_max must be a number, got True"),
            ({"calib": calibration(fx=[1150.0])}, "calibration.fx must be a number, got [1150.0]"),
            ({"calib": calibration(image_width="wide")}, "calibration.image_width must be a number"),
            ({"calib": calibration(image_height=48.5)}, "calibration.image_height must be a whole number"),
            (
                {"calib": calibration(radar_to_camera=[[0.0]] + calibration()["radar_to_camera"][1:])},
                "calibration.radar_to_camera[0] must be a number",
            ),
            ({"flags": ["--stride", "1" + "0" * 400]}, "stride must be within the float range, got an integer of 401 digits"),
        ],
    )
    def test_wrong_json_type_exits_2_without_output(self, tmp_path, case, message, capsys):
        assert main(self.argv(tmp_path, **case)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err
        assert not (tmp_path / "targets.lxlt").exists() and not (tmp_path / "targets.lxlt.json").exists()

    @pytest.mark.parametrize(
        "case,message",
        [
            ({"flags": ["--r-max", "inf"]}, "r_max must be finite, got inf"),
            ({"flags": ["--k", "inf"]}, "k must be finite, got inf"),
            ({"config": {"r_max": math.inf}}, "r_max must be finite, got inf"),  # json writes it as Infinity
        ],
    )
    def test_infinite_radius_setting_exits_2_without_output(self, tmp_path, case, message, capsys):
        """A sidecar that recorded it would hold ``Infinity``, which strict
        JSON parsers refuse."""
        assert main(self.argv(tmp_path, **case)) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not (tmp_path / "targets.lxlt").exists() and not (tmp_path / "targets.lxlt.json").exists()

    def test_the_fixed_r_flag_is_gone(self, tmp_path, capsys):
        """A point without RCS takes --r-max, the radius ceiling."""
        assert main(self.argv(tmp_path, flags=["--fixed-r", "1.0"])) == 1
        captured = capsys.readouterr()
        assert "unrecognized arguments: --fixed-r 1.0" in captured.err and captured.out == ""
        assert not (tmp_path / "targets.lxlt").exists() and not (tmp_path / "targets.lxlt.json").exists()

    def test_the_radius_flags_are_the_radius_config_fields(self, tmp_path):
        """RadiusConfig, the parser and cmd_depth_targets each name the radius
        settings by hand: a field added or removed in one of them fails here."""
        names = [f.name for f in dataclasses.fields(RadiusConfig)]
        args = vars(cli.build_parser().parse_args(["depth-targets", "--points", "p", "--calib", "c", "--output", "o"]))
        assert set(args) - {"command", "func", "points", "calib", "config", "stride", "output", "sidecar"} == set(names)
        flags = [arg for name in names for arg in (f"--{name.replace('_', '-')}", "0.75")]
        assert main(self.argv(tmp_path, flags=flags)) == 0
        sidecar = json.loads((tmp_path / "targets.lxlt.json").read_text())
        assert {name: sidecar[name] for name in names} == dict.fromkeys(names, 0.75)


def scattered_points(n=40, seed=5) -> str:
    """A radar CSV of ``n`` points in view of :func:`calibration`, rows
    (forward, lateral, vertical, rcs_dbsm), every fourth without RCS."""
    rng = np.random.default_rng(seed)
    fwd = rng.uniform(1.5, 7.5, n)
    lat, up, rcs = rng.uniform(-0.7, 0.7, n) * fwd, rng.uniform(-0.5, 0.5, n) * fwd, rng.uniform(-10.0, 20.0, n)
    rows = [
        f"{f:.4f},{x:.4f},{z:.4f}," + ("" if i % 4 == 3 else f"{c:.2f}")
        for i, (f, x, z, c) in enumerate(zip(fwd, lat, up, rcs))
    ]
    return "\n".join(["x,y,z,rcs_dbsm", *rows]) + "\n"


class TestOneToOneIsRadiusZero:
    def test_radius_zero_targets_reproduce_the_one_to_one_loss(self, tmp_path, capsys):
        """sha256 of ``loss --strategy one-to-one`` on default-radius targets
        and of its per-target CSV without the radius column, recorded before
        the strategy option was deleted: targets of radius 0 reproduce both."""
        (tmp_path / "points.csv").write_text(scattered_points())
        (tmp_path / "calib.json").write_text(json.dumps(calibration()))
        argv = [
            "depth-targets", "--points", str(tmp_path / "points.csv"), "--calib", str(tmp_path / "calib.json"),
            "--stride", "4", "--r-max", "0", "--output", str(tmp_path / "radius0.lxlt"),
        ]
        assert main(argv) == 0
        table = lxlt.read_tensor(tmp_path / "radius0.lxlt")
        assert table.shape == (40, 4) and not table[:, 3].any()
        assert main(write_loss_inputs(tmp_path, float32_map(3, height=12, width=16), table)) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "dba8667afad481b63572091fc47a92ac06bbfc8a76cee52fc1e73e66929a6234"
        )
        with open(tmp_path / "per.csv", newline="") as fh:
            without_radius = "".join(",".join(cells[:4] + cells[5:]) + "\n" for cells in csv.reader(fh))
        assert hashlib.sha256(without_radius.encode()).hexdigest() == (
            "1b8ae893268f9b82a02d73e6b7c0f6815a012234b4b940c53488af8792de6780"
        )

    def test_the_strategy_flag_is_gone(self, tmp_path, capsys):
        argv = write_loss_inputs(tmp_path, float32_map(0), [DepthTarget(1, 2, 3.25, 0.0)])
        assert main(argv + ["--strategy", "one-to-one"]) == 1
        captured = capsys.readouterr()
        assert "unrecognized arguments: --strategy one-to-one" in captured.err and captured.out == ""
        assert not (tmp_path / "per.csv").exists()


VT_GRID = {"x": [2.0, 10.0, 4], "y": [-4.0, 4.0, 4], "z": [-1.0, 1.0, 2]}
VT_BINS = {"d_min": 0.0, "d_max": 16.0, "num_bins": 4}
VT_CHANNELS = 2


def write_vt_inputs(tmp_path, rng, **overrides):
    """LXLT inputs and weights under ``tmp_path / "inputs"`` and a manifest
    naming them, with the grid and calibration inline and ``overrides``
    replacing manifest keys; returns (manifest, inputs dir)."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    params = random_vt_params(rng, VT_CHANNELS, VT_GRID["z"][2], VT_BINS["num_bins"], 3)
    lxlt.write_tensor(inputs / "f_pv.lxlt", rng.normal(size=(VT_CHANNELS, 6, 8)))
    lxlt.write_tensor(inputs / "radar.lxlt", rng.normal(size=(3, 4, 4)))
    manifest = {
        "feature_map": "f_pv.lxlt",
        "radar_bev": "radar.lxlt",
        "grid": VT_GRID,
        "calibration": calibration(),
        "stride": 8,
        "depth_bins": VT_BINS,
        **write_manifest(inputs, params),
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

        loaded = read_params(VTParams, manifest, inputs)
        calib = read_json(SensorCalibration, calibration(), "calibration")
        f_pv = lxlt.read_tensor(inputs / "f_pv.lxlt")
        d_map = depth_distribution(
            f_pv, scale_intrinsics(calib.intrinsics, 8), loaded, DepthBinSpec(**VT_BINS), 8
        )
        occupancy = occupancy_from_bev(lxlt.read_tensor(inputs / "radar.lxlt"), loaded)
        want = sample_vt(
            f_pv, d_map, occupancy, read_json(VoxelGridSpec, VT_GRID, "grid"), calib.intrinsics, RADAR_TO_CAMERA, loaded
        )
        assert want.shape == (VT_CHANNELS, 4, 4) and np.abs(want).max() > 0
        np.testing.assert_array_equal(lxlt.read_tensor(elsewhere / "bev.lxlt"), want.astype(np.float32))

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"stride": [8]}, "manifest.stride must be a number, got [8]"),
            ({"stride": "eight"}, "manifest.stride must be a number, got 'eight'"),
            ({"stride": 7.5}, "manifest.stride must be a whole number, got 7.5"),
            ({"depth_bins": {**VT_BINS, "d_min": [0.0]}}, "manifest.depth_bins.d_min must be a number, got [0.0]"),
            ({"depth_bins": {**VT_BINS, "d_max": None}}, "manifest.depth_bins.d_max must be a number, got None"),
            ({"depth_bins": {**VT_BINS, "num_bins": 4.5}}, "manifest.depth_bins.num_bins must be a whole number, got 4.5"),
            ({"depth_bins": {**VT_BINS, "num_bins": {"n": 4}}}, "manifest.depth_bins.num_bins must be a number, got {'n': 4}"),
            ({"depth_bins": [0.0, 16.0, 4]}, "manifest.depth_bins must be a JSON object, got [0.0, 16.0, 4]"),
            ({"depth_bins": {**VT_BINS, "d_max": "Infinity"}}, "manifest.depth_bins: depth bins d_max must be finite"),
            ({"grid": 5}, "manifest.grid must be a JSON object, got 5"),
            ({"grid": "grid.json"}, "manifest.grid must be a JSON object, got 'grid.json'"),
            ({"grid": {**VT_GRID, "x": [2.0, 10.0, 4.5]}}, "manifest.grid.x[2] must be a whole number, got 4.5"),
            ({"grid": {**VT_GRID, "w": [0.0, 1.0, 1]}}, "manifest.grid has no key 'w'"),
            ({"use_extrinsics_embedding": True}, "manifest has no key 'use_extrinsics_embedding'"),
            ({"grid": {**VT_GRID, "y": [-4.0, 1e999, 4]}}, "manifest.grid: y axis extent must be finite"),
            ({"calibration": 3}, "manifest.calibration must be a JSON object, got 3"),
            ({"calibration": "calib.json"}, "manifest.calibration must be a JSON object, got 'calib.json'"),
            ({"calibration": calibration(fx=[1150.0])}, "manifest.calibration.fx must be a number, got [1150.0]"),
            ({"feature_map": 7}, "manifest.feature_map must be a file name, got 7"),
            ({"grid": {**VT_GRID, "z": [-1.0, 1.0, 10**400]}}, "manifest.grid.z[2] must be within the float range, got an integer of 401 digits"),
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
            (lambda m: m.update(params="oops"), "manifest.params must be a JSON object, got 'oops'"),
            (lambda m: m["params"].update(post_convs=5), "manifest.params.post_convs must be a JSON list, got 5"),
            (lambda m: m["params"].update(post_convs={"0": 1}), "manifest.params.post_convs must be a JSON list, got {'0': 1}"),
            (lambda m: m["params"].pop("depth_conv"), "manifest.params.depth_conv must be a JSON object, got None"),
            (lambda m: m["params"]["post_convs"].__setitem__(1, [1]), "manifest.params.post_convs[1] must be a JSON object, got [1]"),
            (lambda m: m.pop("stride"), "manifest.stride must be a number, got None"),
            (lambda m: m.pop("depth_bins"), "manifest.depth_bins must be a JSON object, got None"),
            (lambda m: m.pop("radar_bev"), "manifest.radar_bev must be a file name, got None"),
            (lambda m: m.pop("params"), "manifest.params must be a JSON object, got None"),
            (
                lambda m: m.update(depth_bins={"d_min": 0.0, "d_max": 16.0}),
                "manifest.depth_bins.num_bins must be a number, got None",
            ),
            (lambda m: m.update(grid=[1]), "manifest.grid must be a JSON object, got [1]"),
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

    @pytest.mark.parametrize(
        "stride,message",
        [
            (0, "manifest.stride must be at least 1, got 0"),
            (4, "manifest.stride is 4: the calibration's 64x48 image needs a (C, 12, 16) feature_map, got shape (2, 6, 8)"),
            (100, "manifest.stride is 100: the calibration's 64x48 image needs a (C, 0, 0) feature_map, got shape (2, 6, 8)"),
        ],
        ids=["0", "4", "100"],
    )
    def test_stride_that_does_not_give_the_feature_map_exits_2_naming_it(self, tmp_path, stride, message, capsys):
        write_vt_inputs(tmp_path, np.random.default_rng(12), stride=stride)
        out = tmp_path / "bev.lxlt"
        assert main(["vt", "--manifest", str(tmp_path / "inputs" / "manifest.json"), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_post_conv_that_does_not_chain_exits_2_naming_it(self, tmp_path, capsys):
        _, inputs = write_vt_inputs(tmp_path, np.random.default_rng(10))
        wide = np.random.default_rng(11).normal(size=(VT_CHANNELS, VT_CHANNELS + 1, 3, 3))
        lxlt.write_tensor(inputs / "post_convs1.weights.lxlt", wide)
        out = tmp_path / "bev.lxlt"
        assert main(["vt", "--manifest", str(inputs / "manifest.json"), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: manifest.params: post_convs[1] takes {VT_CHANNELS + 1} channels, post_convs[0] gives {VT_CHANNELS}"
        )
        assert not out.exists()

    def test_embedding_with_extrinsic_inputs_exits_2(self, tmp_path, capsys):
        """A 25-input embedding (intrinsics plus a flattened 4x4 extrinsic
        matrix) fails the embedding width check."""
        manifest, inputs = write_vt_inputs(tmp_path, np.random.default_rng(8))
        wide = random_linear(np.random.default_rng(9), VT_CHANNELS, 25)
        lxlt.write_tensor(inputs / "embedding.weights.lxlt", wide.weights)
        out = tmp_path / "bev.lxlt"
        assert main(["vt", "--manifest", str(inputs / "manifest.json"), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: manifest.params: embedding expects 25 inputs") and "Traceback" not in err
        assert not out.exists()

    def test_embedding_wider_than_the_depth_conv_exits_2_at_read_time(self, tmp_path, capsys):
        _, inputs = write_vt_inputs(tmp_path, np.random.default_rng(8))
        wide = random_linear(np.random.default_rng(9), VT_CHANNELS + 1, 9)
        lxlt.write_tensor(inputs / "embedding.weights.lxlt", wide.weights)
        lxlt.write_tensor(inputs / "embedding.bias.lxlt", wide.bias)
        out = tmp_path / "bev.lxlt"
        assert main(["vt", "--manifest", str(inputs / "manifest.json"), "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: manifest.params: embedding yields {VT_CHANNELS + 1} channel scales, "
            f"depth_conv takes {VT_CHANNELS} channels\n"
        )
        assert not out.exists()


FUSE_CHANNELS = 3


def write_fuse_inputs(tmp_path, mode, seed=0):
    """Radar and image BEV maps and a parameter manifest for ``fuse --mode``;
    returns (manifest, argv without --params and --output)."""
    rng = np.random.default_rng(seed)
    params = random_csa_params(rng, FUSE_CHANNELS) if mode == "csa" else random_concat_params(rng, FUSE_CHANNELS)
    manifest = write_manifest(tmp_path, params)
    lxlt.write_tensor(tmp_path / "radar.lxlt", rng.normal(size=(FUSE_CHANNELS, 4, 5)))
    lxlt.write_tensor(tmp_path / "image.lxlt", rng.normal(size=(FUSE_CHANNELS, 4, 5)))
    argv = ["fuse", "--radar", str(tmp_path / "radar.lxlt"), "--image", str(tmp_path / "image.lxlt"), "--mode", mode]
    return manifest, argv


class TestFuse:
    @pytest.mark.parametrize("mode", ["csa", "concat"])
    def test_output_equals_the_fusion_of_the_loaded_params(self, tmp_path, mode):
        manifest, argv = write_fuse_inputs(tmp_path, mode)
        (tmp_path / "params.json").write_text(json.dumps(manifest))
        out = tmp_path / "fused.lxlt"
        assert main(argv + ["--params", str(tmp_path / "params.json"), "--output", str(out)]) == 0
        radar, image = lxlt.read_tensor(tmp_path / "radar.lxlt"), lxlt.read_tensor(tmp_path / "image.lxlt")
        if mode == "csa":
            want = csa_fusion(radar, image, read_params(CSAFusionParams, manifest, tmp_path))
        else:
            want = concat_fusion(radar, image, read_params(ConcatFusionParams, manifest, tmp_path))
        np.testing.assert_array_equal(lxlt.read_tensor(out), want.astype(np.float32))

    @pytest.mark.parametrize(
        "mode,edit,message",
        [
            ("csa", lambda m: m.update(params=[1]), "manifest.params must be a JSON object, got [1]"),
            ("csa", lambda m: m["params"].update(channel_mlp_radar="x"), "manifest.params.channel_mlp_radar must be a JSON object, got 'x'"),
            (
                "csa",
                lambda m: m["params"].update(channel_mlp_radar={"layers": 5}),
                "manifest.params.channel_mlp_radar.layers must be a JSON list, got 5",
            ),
            ("csa", lambda m: m["params"].pop("channel_mlp_image"), "manifest.params.channel_mlp_image must be a JSON object, got None"),
            (
                "csa",
                lambda m: m["params"].pop("in_conv"),
                "manifest.params.in_conv must be a JSON object, got None",
            ),
            ("csa", lambda m: m["params"]["channel_mlp_radar"]["layers"].__setitem__(0, 3), "manifest.params.channel_mlp_radar.layers[0] must be a JSON object, got 3"),
            ("concat", lambda m: m.update(params=[1]), "manifest.params must be a JSON object, got [1]"),
            ("concat", lambda m: m["params"].pop("second"), "manifest.params.second must be a JSON object, got None"),
            ("concat", lambda m: m["params"].update(first=[1]), "manifest.params.first must be a JSON object, got [1]"),
            ("concat", lambda m: m.update(params={}), "manifest.params.first must be a JSON object, got None"),
            ("concat", lambda m: m["params"]["first"].update(stride=2), "manifest.params.first has no key 'stride'"),
            ("concat", lambda m: m["params"].update(secnd=m["params"]["second"]), "manifest.params has no key 'secnd'"),
            ("csa", lambda m: m.update(mode="concat"), "manifest has no key 'mode'"),
            ("csa", lambda m: m.update(m.pop("params")), "manifest has no key 'in_conv'"),
            ("concat", lambda m: m.pop("params"), "manifest.params must be a JSON object, got None"),
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

    @pytest.mark.parametrize(
        "mode,layer,message",
        [
            ("csa", "mid_conv", f"mid_conv takes {FUSE_CHANNELS + 2} channels, needs 2 x {FUSE_CHANNELS}"),
            ("concat", "second", f"second takes {FUSE_CHANNELS + 2} channels, first gives {FUSE_CHANNELS}"),
        ],
    )
    def test_layer_of_the_wrong_width_exits_2_naming_it(self, tmp_path, mode, layer, message, capsys):
        manifest, argv = write_fuse_inputs(tmp_path, mode)
        (tmp_path / "params.json").write_text(json.dumps(manifest))
        wide = np.random.default_rng(1).normal(size=(FUSE_CHANNELS, FUSE_CHANNELS + 2, 3, 3))
        lxlt.write_tensor(tmp_path / f"{layer}.weights.lxlt", wide)
        out = tmp_path / "fused.lxlt"
        assert main(argv + ["--params", str(tmp_path / "params.json"), "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: manifest.params: {message}")
        assert not out.exists()

    def test_manifest_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        _, argv = write_fuse_inputs(tmp_path, "csa")
        (tmp_path / "params.json").write_text("[1, 2]")
        out = tmp_path / "fused.lxlt"
        assert main(argv + ["--params", str(tmp_path / "params.json"), "--output", str(out)]) == 2
        assert "params.json: the top level must be a JSON object, got [1, 2]" in capsys.readouterr().err
        assert not out.exists()


def depth_targets_inputs(tmp_path):
    (tmp_path / "points.csv").write_text(scattered_points())
    (tmp_path / "calib.json").write_text(json.dumps(calibration()))
    argv = ["depth-targets", "--points", str(tmp_path / "points.csv"), "--calib", str(tmp_path / "calib.json")]
    return argv, [("--output", "targets.lxlt")]


def loss_inputs(tmp_path):
    targets = [DepthTarget(1, 2, 3.25, 1.5), DepthTarget(5, 4, 6.5, 0.0), DepthTarget(2, 1, 0.5, 2.0)]
    return write_loss_inputs(tmp_path, float32_map(4), targets), [("--per-target", "per.csv")]


def vt_inputs(tmp_path):
    _, inputs = write_vt_inputs(tmp_path, np.random.default_rng(12))
    return ["vt", "--manifest", str(inputs / "manifest.json")], [("--output", "bev.lxlt")]


def fuse_inputs(mode):
    def write(tmp_path):
        manifest, argv = write_fuse_inputs(tmp_path, mode, seed=3)
        (tmp_path / "params.json").write_text(json.dumps(manifest))
        return argv + ["--params", str(tmp_path / "params.json")], [("--output", "fused.lxlt")]

    return write


class TestRerun:
    @pytest.mark.parametrize(
        "inputs",
        [depth_targets_inputs, loss_inputs, vt_inputs, fuse_inputs("csa"), fuse_inputs("concat")],
        ids=["depth-targets", "loss", "vt", "fuse-csa", "fuse-concat"],
    )
    def test_rerun_into_fresh_paths_is_byte_identical(self, tmp_path, inputs, capsys):
        """A rerun reproduces every output file and stdout byte for byte.
        The outputs are compared with each other, not pinned: the VT and
        fusion convs go through BLAS, whose last bits may differ between
        hosts."""
        argv, outputs = inputs(tmp_path)
        runs = []
        for name in ("first", "second"):
            run = tmp_path / name
            run.mkdir()
            assert main(argv + [arg for flag, file in outputs for arg in (flag, str(run / file))]) == 0
            runs.append(({path.name: path.read_bytes() for path in sorted(run.iterdir())}, capsys.readouterr().out))
        assert set(runs[0][0]) >= {file for _, file in outputs}
        assert runs[0] == runs[1]


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
            ("--seed", "-1", "--seed must be a non-negative integer, got -1"),
        ],
    )
    def test_bad_flag_exits_2_naming_it(self, flag, value, message, capsys):
        assert main(["grad-check", f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""


def aligned_calibration(**overrides) -> dict:
    """The test calibration with the radar at the camera's origin and axes."""
    return calibration(radar_to_camera=[float(x) for x in np.eye(4).ravel()], **overrides)


def yawed_shifted_mount() -> list[float]:
    c, s = math.cos(math.radians(20.0)), math.sin(math.radians(20.0))
    m = np.eye(4)
    m[:3, :3] = [[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]
    m[0, 3] = 0.5
    return [float(x) for x in m.ravel()]


class TestErrorModel:
    def argv(self, tmp_path, calib=None):
        (tmp_path / "calib.json").write_text(json.dumps(calib or aligned_calibration()))
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

    def test_aligned_output_is_pinned(self, tmp_path, capsys):
        """sha256 of stdout on the aligned calibration, recorded before the
        spherical convention was written once in ``geometry``."""
        assert main(self.argv(tmp_path)) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "8be2c9ce6b02c5fa6059e7f1a747c3c9c414c87dc3dbd854f28c9883ce7d5ef7"
        )

    def test_plot_data_rows_equal_the_main_csv(self, tmp_path):
        out, plot = tmp_path / "err.csv", tmp_path / "plot.csv"
        assert main(self.argv(tmp_path) + ["--output", str(out), "--emit-plot-data", str(plot)]) == 0
        rows = {(r["rho_m"], r["theta_deg"], r["phi_deg"]): r for r in read_csv(out)}
        tidy = read_csv(plot)
        assert len(tidy) == 2 * len(rows) == 2 * 5 * 9 * 3
        assert {r["metric"] for r in tidy} == {"empirical_px", "rel_deviation"}
        for row in tidy:
            assert rows[row["rho_m"], row["theta_deg"], row["phi_deg"]][row["metric"]] == row["value"]

    def test_plot_data_that_names_the_output_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        assert main(self.argv(tmp_path) + ["--output", str(out), "--emit-plot-data", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: outputs {out} and {out} name one file\n" and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("to_file", [True, False])
    def test_unwritable_plot_data_leaves_no_table(self, tmp_path, to_file, capsys):
        out = tmp_path / "e.csv"
        argv = self.argv(tmp_path) + ["--emit-plot-data", str(tmp_path / "nodir" / "p.csv")]
        assert main(argv + (["--output", str(out)] if to_file else [])) == 2
        captured = capsys.readouterr()
        assert "No such file or directory" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "calib,message",
        [
            (calibration(fx=[1150.0]), "calibration.fx must be a number, got [1150.0]"),
            (calibration(delta_theta_deg=None), "calibration.delta_theta_deg must be a number, got None"),
            (calibration(delta_theta_deg=0), "error-model needs calibration delta_theta_deg > 0, got 0"),
            (calibration(radar_to_camera=yawed_shifted_mount()), "calibration radar_to_camera must be the identity"),
            ([1], "calib.json: the top level must be a JSON object, got [1]"),
        ],
    )
    def test_bad_calibration_exits_2_without_output(self, tmp_path, calib, message, capsys):
        out, plot = tmp_path / "err.csv", tmp_path / "plot.csv"
        assert main(self.argv(tmp_path, calib) + ["--output", str(out), "--emit-plot-data", str(plot)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and message in captured.err and captured.out == ""
        assert not out.exists() and not plot.exists()


EMPTY_OUTPUT_ARGV = {
    "depth-targets --sidecar": lambda tmp: depth_targets_inputs(tmp)[0] + ["--output", str(tmp / "t.lxlt"), "--sidecar"],
    "loss --per-target": lambda tmp: loss_inputs(tmp)[0][:-2] + ["--per-target"],
    "simulate --emit-plot-data": lambda tmp: [
        "simulate", "--config", str(reduced_config(tmp)), "--output-csv", str(tmp / "rows.csv"),
        "--summary", str(tmp / "s.json"), "--emit-plot-data",
    ],
    "error-model --output": lambda tmp: TestErrorModel().argv(tmp) + ["--output"],
    "error-model --emit-plot-data": lambda tmp: TestErrorModel().argv(tmp) + ["--output", str(tmp / "e.csv"), "--emit-plot-data"],
}


@pytest.mark.parametrize("case", sorted(EMPTY_OUTPUT_ARGV))
def test_an_empty_optional_output_path_exits_2_without_output(tmp_path, case, capsys):
    """Only an absent flag leaves an optional output unset: an empty path
    names no file, as it does for a required output."""
    argv = EMPTY_OUTPUT_ARGV[case](tmp_path)
    inputs = set(tmp_path.rglob("*"))
    assert main(argv + [""]) == 2
    assert capsys.readouterr() == ("", "error: [Errno 2] No such file or directory: ''\n")
    assert set(tmp_path.rglob("*")) == inputs
