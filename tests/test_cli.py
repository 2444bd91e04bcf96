"""Tests for the command line front end, run through ``main(argv)``."""

import json
from importlib import resources

import numpy as np
import pytest

from radarcam import lxlt
from radarcam.cli import main
from radarcam.depth_supervision import DepthBinSpec, DepthTarget, LossConfig, one_to_many_loss, targets_to_array
from radarcam.tensor_ops import softmax


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
