"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_package()

import radarcam  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = workloads.FrameSize(channels=4, z=2, bev=8, image_width=96, image_height=64, bins=8, points=200)
# The simulate workload has one size.
TINY_SIZES = {"infer": TINY, "train": TINY, "simulate": None}

# These metrics partition the traced step: the self time of every span name.
SELF_TIMES = (
    "view_transform.sample_vt.self_ms",
    "view_transform.project_voxel_centers.ms",
    "view_transform.occupancy_from_bev.self_ms",
    "view_transform.depth_distribution.self_ms",
    "tensor_ops.conv2d.ms",
    "fusion.csa_fusion.self_ms",
    "fusion.channel_attention.self_ms",
    "fusion.spatial_attention.self_ms",
    "depth_supervision.build_depth_targets.ms",
    "depth_supervision.one_to_many_loss.ms",
    "depth_supervision.one_to_many_loss_grad.ms",
    "sim.run_experiment.self_ms",
    "sim.generate_scene.ms",
    "sim.simulate_radar.ms",
    "sim.evaluate_supervision.self_ms",
    "sim.bootstrap_gap.ms",
    "lxlt.read_tensor.ms",
    "lxlt.write_tensor.ms",
    "trace.unattributed_ms",
)


def tiny_run(workload: str, trace: bool, tmp_path: Path) -> dict:
    return run.run_benchmark(
        workload, seed=3, seconds=0.0, trace=trace,
        size=TINY_SIZES[workload], workdir=tmp_path,
    )


def check_metrics(result: dict, spec: list[dict]) -> dict:
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert math.isfinite(metrics[m["name"]]["value"]), m["name"]
    return {name: value["value"] for name, value in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_end_to_end_metric(workload, tmp_path):
    out = tiny_run(workload, False, tmp_path)
    result = out["result"]
    assert result["correct"], out["record"]["problems"]
    assert result["failed"] == 0
    assert result["attempted"] > run.MIN_ITEMS
    values = check_metrics(result, SPEC["end_to_end"])
    assert all(v > 0 for v in values.values()), values
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    out = tiny_run(workload, True, tmp_path)
    assert out["result"]["correct"], out["record"]["problems"]
    assert out["record"]["skipped_wrappers"] == []
    values = check_metrics(out["result"], SPEC["per_layer"])
    assert values["trace.step_ms"] > 0
    assert sum(values[name] for name in SELF_TIMES) == pytest.approx(values["trace.step_ms"], rel=1e-9)


def _nan_like(fn):
    def corrupted(*args, **kwargs):
        out = fn(*args, **kwargs)
        out = np.array(out, dtype=np.float64)
        out.flat[0] = np.nan
        return out

    return corrupted


def _orderings_fail(fn):
    def corrupted(*args, **kwargs):
        out = fn(*args, **kwargs)
        out.summary["all_orderings_hold"] = False
        return out

    return corrupted


@pytest.mark.parametrize(
    "workload, name, corrupt",
    [
        ("infer", "csa_fusion", _nan_like),
        ("train", "one_to_many_loss_grad", _nan_like),
        ("simulate", "run_experiment", _orderings_fail),
    ],
)
def test_corrupted_output_raises_failed_ratio(workload, name, corrupt, tmp_path, monkeypatch):
    monkeypatch.setattr(radarcam, name, corrupt(getattr(radarcam, name)))
    out = tiny_run(workload, False, tmp_path)
    result = out["result"]
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["success_ratio"]["value"] < 1.0


def test_raising_item_counts_as_failed(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken layer")

    monkeypatch.setattr(radarcam, "sample_vt", broken)
    out = tiny_run("infer", False, tmp_path)
    assert out["result"]["failed"] >= run.MIN_ITEMS


def test_same_seed_same_inputs(tmp_path):
    def inputs(seed: int, index: int):
        wl = workloads.Train(seed, tmp_path, TINY)
        frame = wl.prepare(index)
        features = radarcam.lxlt.read_tensor(frame.image_path)
        return frame.calib.to_dict(), [(p.x, p.rcs_dbsm) for p in frame.points], features

    first, again, other = inputs(5, 2), inputs(5, 2), inputs(6, 2)
    assert first[0] == again[0] and first[1] == again[1]
    np.testing.assert_array_equal(first[2], again[2])
    assert first[0] != other[0] and first[1] != other[1]


def test_tail_has_ten_samples_beyond_it():
    value, percentile = run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and percentile == 75.0


def test_step_metrics_are_relative_to_the_reference():
    assert run.relative_steps([2.0, 9.0], [1.0, 3.0]) == [2.0, 3.0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_times_a_reference_kernel(workload):
    assert run.time_reference(workloads.WORKLOADS[workload]) > 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(REPO_ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "infer", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
