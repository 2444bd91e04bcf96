"""Spans and counts for the traced benchmark run.

The tracer wraps public names of ``radarcam`` in the module where their
caller looks them up (``radarcam.view_transform.conv2d`` for the convolutions
of the view transformation, ``radarcam.sim.build_depth_targets`` for the
target build inside the experiment, ...), so the package itself is not
changed. A wrapper records a span (name, start, end, parent) and a call
count; spans stay in memory until the run ends. Functions called once per
radar point only count their calls, because a span per point would cost more
than the work it measures.

A name that a later version of the package no longer has is skipped and
listed in ``Tracer.skipped``; the metrics that depend on it read zero.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

ROOT = "item"

# (module, attribute, span name). The module is where the caller looks the
# name up: the package itself for calls made by the benchmark.
SPANS = (
    ("radarcam.lxlt", "read_tensor", "lxlt.read_tensor"),
    ("radarcam.lxlt", "write_tensor", "lxlt.write_tensor"),
    ("radarcam", "occupancy_from_bev", "view_transform.occupancy_from_bev"),
    ("radarcam", "depth_distribution", "view_transform.depth_distribution"),
    ("radarcam", "sample_vt", "view_transform.sample_vt"),
    ("radarcam.view_transform", "project_voxel_centers", "view_transform.project_voxel_centers"),
    ("radarcam.view_transform", "conv2d", "tensor_ops.conv2d"),
    ("radarcam", "csa_fusion", "fusion.csa_fusion"),
    ("radarcam.fusion", "channel_attention", "fusion.channel_attention"),
    ("radarcam.fusion", "spatial_attention", "fusion.spatial_attention"),
    ("radarcam.fusion", "conv2d", "tensor_ops.conv2d"),
    ("radarcam", "build_depth_targets", "depth_supervision.build_depth_targets"),
    ("radarcam", "one_to_many_loss", "depth_supervision.one_to_many_loss"),
    ("radarcam", "one_to_many_loss_grad", "depth_supervision.one_to_many_loss_grad"),
    ("radarcam", "run_experiment", "sim.run_experiment"),
    ("radarcam.sim", "generate_scene", "sim.generate_scene"),
    ("radarcam.sim", "simulate_radar", "sim.simulate_radar"),
    ("radarcam.sim", "evaluate_supervision", "sim.evaluate_supervision"),
    ("radarcam.sim", "build_depth_targets", "depth_supervision.build_depth_targets"),
    ("radarcam.sim", "bootstrap_gap", "sim.bootstrap_gap"),
)

# (module, attribute path, counter name) for per-point calls.
COUNTERS = (
    ("radarcam.geometry", "RigidTransform.apply", "geometry.rigid_apply.calls"),
    ("radarcam.depth_supervision", "project_to_pixel", "geometry.project_to_pixel.calls"),
    ("radarcam.depth_supervision", "neighborhood_pixels", "depth_supervision.neighborhood_pixels.calls"),
    ("radarcam.sim", "neighborhood_pixels", "depth_supervision.neighborhood_pixels.calls"),
)

# Per-layer metrics computed from shapes and counts, not measured; they
# repeat exactly between runs of the same code.
COMPUTED = [
    "view_transform.voxels.in_image_ratio",
    "view_transform.gather.bytes",
    "tensor_ops.conv2d.gflop",
    "tensor_ops.conv2d.bytes",
    "tensor_ops.conv2d.gflop_per_byte",
    "lxlt.bytes",
]

LXLT_HEADER_BYTES = 7
FLOAT64_BYTES = 8


def _conv_work(counts, args, result) -> None:
    """Computed, not measured: FLOPs 2*O*I*kh*kw*H'*W' and the bytes of the
    input, weights, bias and output in float64."""
    x, params = args[0], args[1]
    out_ch, in_ch, kh, kw = params.weights.shape
    out_h, out_w = result.shape[1], result.shape[2]
    counts["tensor_ops.conv2d.flop"] += 2 * out_ch * in_ch * kh * kw * out_h * out_w
    elements = x.size + params.weights.size + params.bias.size + result.size
    counts["tensor_ops.conv2d.bytes"] += FLOAT64_BYTES * elements


def _lxlt_bytes(array) -> int:
    return LXLT_HEADER_BYTES + 4 * array.ndim + 4 * array.size


def _read_bytes(counts, args, result) -> None:
    counts["lxlt.bytes"] += _lxlt_bytes(result)


def _write_bytes(counts, args, result) -> None:
    counts["lxlt.bytes"] += _lxlt_bytes(args[1])


def _targets_kept(counts, args, result) -> None:
    counts["depth_supervision.targets.kept"] += len(result.targets)
    counts["depth_supervision.targets.input"] += result.num_input


OBSERVERS = {
    "tensor_ops.conv2d": _conv_work,
    "lxlt.read_tensor": _read_bytes,
    "lxlt.write_tensor": _write_bytes,
    "depth_supervision.build_depth_targets": _targets_kept,
}


class Tracer:
    """Spans as ``[name, start, end, parent]`` lists plus named counts.

    Every span of one item descends from that item's root span, so the
    spans of an item share its root as identifier.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = self._build_wrappers()

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name: str, fn):
        observe = OBSERVERS.get(name)
        counts = self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            counts[calls] += 1
            if observe is not None:
                observe(counts, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _build_wrappers(self) -> list[tuple[object, str, object]]:
        wrappers = []
        for module_name, path, name, factory in (
            [(m, a, n, self._span_wrapper) for m, a, n in SPANS]
            + [(m, a, n, self._count_wrapper) for m, a, n in COUNTERS]
        ):
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.skipped.append(f"{module_name}.{path}")
                continue
            wrappers.append((owner, attr, factory(name, original)))
        return wrappers

    def install(self) -> None:
        """Replace every wrapped name; :meth:`uninstall` puts them back."""
        for owner, attr, wrapper in self._wrappers:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def item(self, fn, *args):
        """Run one item under a root span."""
        record = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(record)


def span_times(spans: list[list]) -> tuple[dict, dict, dict]:
    """Total time, self time and conv time per span name, in seconds.

    Self time is a span's duration minus the durations of its direct
    children. Conv time is the duration of the ``tensor_ops.conv2d`` spans
    below a span, at any depth.
    """
    durations = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += durations[i]
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    conv: dict[str, float] = defaultdict(float)
    for i, (name, _, _, parent) in enumerate(spans):
        total[name] += durations[i]
        self_time[name] += durations[i] - child[i]
        if name == "tensor_ops.conv2d":
            seen = set()
            while parent >= 0:
                ancestor = spans[parent][0]
                if ancestor not in seen:
                    conv[ancestor] += durations[i]
                    seen.add(ancestor)
                parent = spans[parent][3]
    return total, self_time, conv


def per_layer_metrics(tracer: Tracer, items: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``{name: (value, unit)}``, per traced item.

    Times are means over the traced items, so the self times of all span
    names plus ``trace.unattributed_ms`` add up to ``trace.step_ms``.
    """
    total, self_time, conv = span_times(tracer.spans)
    c = tracer.counts
    n = max(items, 1)

    def ms(table, name):
        return 1e3 * table.get(name, 0.0) / n, "ms"

    def per_item(name):
        return c.get(name, 0.0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    flop = c.get("tensor_ops.conv2d.flop", 0.0)
    conv_bytes = c.get("tensor_ops.conv2d.bytes", 0.0)
    return {
        "view_transform.sample_vt.self_ms": ms(self_time, "view_transform.sample_vt"),
        "view_transform.sample_vt.conv_ms": ms(conv, "view_transform.sample_vt"),
        "view_transform.project_voxel_centers.ms": ms(total, "view_transform.project_voxel_centers"),
        "view_transform.voxels.in_image_ratio": (
            ratio(c.get("view_transform.voxels.in_image", 0.0), c.get("view_transform.voxels.sampled", 0.0)),
            "ratio",
        ),
        "view_transform.gather.bytes": (per_item("view_transform.gather.bytes"), "bytes"),
        "view_transform.occupancy_from_bev.ms": ms(total, "view_transform.occupancy_from_bev"),
        "view_transform.occupancy_from_bev.self_ms": ms(self_time, "view_transform.occupancy_from_bev"),
        "view_transform.depth_distribution.ms": ms(total, "view_transform.depth_distribution"),
        "view_transform.depth_distribution.self_ms": ms(self_time, "view_transform.depth_distribution"),
        "tensor_ops.conv2d.ms": ms(total, "tensor_ops.conv2d"),
        "tensor_ops.conv2d.calls": (per_item("tensor_ops.conv2d.calls"), "count"),
        "tensor_ops.conv2d.gflop": (flop / n / 1e9, "GFLOP"),
        "tensor_ops.conv2d.bytes": (conv_bytes / n, "bytes"),
        "tensor_ops.conv2d.gflop_per_byte": (ratio(flop, conv_bytes), "GFLOP/GB"),
        "fusion.csa_fusion.ms": ms(total, "fusion.csa_fusion"),
        "fusion.csa_fusion.self_ms": ms(self_time, "fusion.csa_fusion"),
        "fusion.csa_fusion.conv_ms": ms(conv, "fusion.csa_fusion"),
        "fusion.channel_attention.self_ms": ms(self_time, "fusion.channel_attention"),
        "fusion.spatial_attention.self_ms": ms(self_time, "fusion.spatial_attention"),
        "depth_supervision.build_depth_targets.ms": ms(total, "depth_supervision.build_depth_targets"),
        "depth_supervision.targets.kept_ratio": (
            ratio(c.get("depth_supervision.targets.kept", 0.0), c.get("depth_supervision.targets.input", 0.0)),
            "ratio",
        ),
        "depth_supervision.one_to_many_loss.ms": ms(total, "depth_supervision.one_to_many_loss"),
        "depth_supervision.one_to_many_loss_grad.ms": ms(total, "depth_supervision.one_to_many_loss_grad"),
        "depth_supervision.neighborhood_pixels.calls": (
            per_item("depth_supervision.neighborhood_pixels.calls"), "count",
        ),
        "depth_supervision.pixels_per_target": (
            ratio(c.get("depth_supervision.loss.pixels", 0.0), c.get("depth_supervision.loss.targets", 0.0)),
            "pixels",
        ),
        "geometry.rigid_apply.calls": (per_item("geometry.rigid_apply.calls"), "count"),
        "geometry.project_to_pixel.calls": (per_item("geometry.project_to_pixel.calls"), "count"),
        "sim.run_experiment.self_ms": ms(self_time, "sim.run_experiment"),
        "sim.generate_scene.ms": ms(total, "sim.generate_scene"),
        "sim.simulate_radar.ms": ms(total, "sim.simulate_radar"),
        "sim.evaluate_supervision.ms": ms(total, "sim.evaluate_supervision"),
        "sim.evaluate_supervision.self_ms": ms(self_time, "sim.evaluate_supervision"),
        "sim.evaluate_supervision.calls": (per_item("sim.evaluate_supervision.calls"), "count"),
        "sim.bootstrap_gap.ms": ms(total, "sim.bootstrap_gap"),
        "lxlt.read_tensor.ms": ms(total, "lxlt.read_tensor"),
        "lxlt.write_tensor.ms": ms(total, "lxlt.write_tensor"),
        "lxlt.bytes": (per_item("lxlt.bytes"), "bytes"),
        "trace.step_ms": ms(total, ROOT),
        "trace.unattributed_ms": ms(self_time, ROOT),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
