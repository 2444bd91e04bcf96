"""The benchmark's workloads: sizes, seeded inputs, the timed item and the
checks on its outputs.

Each workload is a closed loop with one caller. ``prepare(i)`` makes the
inputs of item ``i`` from the workload seed, outside the timed region;
``run`` is the timed item; ``check`` validates its outputs outside the timed
region. ``run_checks`` lists the once-per-run checks against the test
oracles and the gradient check.

The program is entered only through the names exported by ``radarcam``
(plus ``radarcam.lxlt`` and ``radarcam.sim.default_experiment_config``),
looked up at call time so that the traced run can wrap them.

Workloads:

* ``infer``: one deployed vehicle, one frame after another at the largest
  size. The calibration and weights never change, so work keyed on the
  calibration repeats on every frame.
* ``train``: one training step at the middle size. Every step draws a new
  calibration, as image-resize augmentation does, so no work keyed on the
  calibration repeats; depth supervision does about half of the work.
* ``simulate``: the packaged supervision experiment over a new seed range
  per item. Per-point Python loops do the work and there is no convolution.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import radarcam as rc

REPO_ROOT = Path(__file__).resolve().parent.parent

STRIDE = 8
BEV_X = (0.0, 51.2)
BEV_Y = (-25.6, 25.6)
BEV_Z = (-3.0, 2.0)
DEPTH_RANGE = (0.0, 64.0)
# The reference camera: 968 x 608 pixels with fx = fy = 1150. Smaller
# cameras keep its field of view, so their focal length scales with width.
REF_WIDTH = 968
REF_FOCAL = 1150.0
CAMERA_HEIGHT_M = 0.3
# Fixed weights: every run and every seed evaluates the same network.
WEIGHT_SEED = 2502_14503

RADIUS = rc.RadiusConfig(k=0.1, r_max=2.0)
LOSS = rc.LossConfig()
TRAIN_POINTS = 2000
RCS_RANGE_DBSM = (-10.0, 20.0)
FOCAL_JITTER = 0.10
PRINCIPAL_JITTER_PX = 8.0
YAW_JITTER_DEG = 2.0

ORACLE_TOL = 1e-12
GRADCHECK_TOL = 1e-4
GRADCHECK_TARGETS = 4
GRADCHECK_ATTEMPTS = 100

# Arm hit rates of the packaged experiment (seed_start 0).
PACKAGED_HIT_RATES = {
    "one-to-one": 0.673182561313963,
    "fixed-one-to-many": 0.7337838137126549,
    "dynamic-one-to-many": 0.7533687777809862,
    "dynamic-one-to-many-max": 0.5516337296183749,
}
PACKAGED_HIT_RATE_TOL = 1e-12

# Reference kernels: fixed work that is not radarcam's, of the kind that
# dominates a workload, interpreter-bound or NumPy-bound. The benchmark times
# one between items and reports item times relative to it. A busy shared host
# runs interpreter-bound code up to 1.8x slower and NumPy-bound code less;
# the ratio cancels the host's speed and keeps the program's own cost.
REFERENCE_PY_ITERATIONS = 120_000
REFERENCE_NP_GATHERS = 4
REFERENCE_NP_GEMMS = 20
_REFERENCE_RNG = np.random.default_rng(0)
# A tier-L image feature map, flattened, and gather indices into it.
_REFERENCE_TABLE = _REFERENCE_RNG.normal(size=(32, 76 * 121))
_REFERENCE_INDEX = _REFERENCE_RNG.integers(0, 76 * 121, size=15_000)
_REFERENCE_MATRIX = _REFERENCE_RNG.normal(size=(32, 1024))

# The warm-up item of the set-up draws inputs that no timed item draws.
WARMUP_INDEX = -1
# Streams of the seeded generator, so that items and checks never share draws.
ORACLE_STREAM = 1
GRADCHECK_STREAM = 2


@dataclass(frozen=True)
class FrameSize:
    """Sizes of one camera frame and its BEV grid."""

    channels: int
    z: int
    bev: int
    image_width: int
    image_height: int
    bins: int = 64
    points: int = TRAIN_POINTS

    @property
    def focal(self) -> float:
        return REF_FOCAL * self.image_width / REF_WIDTH

    @property
    def feature_shape(self) -> tuple[int, int]:
        return self.image_height // STRIDE, self.image_width // STRIDE

    def grid(self) -> rc.VoxelGridSpec:
        return rc.VoxelGridSpec((*BEV_X, self.bev), (*BEV_Y, self.bev), (*BEV_Z, self.z))

    def depth_bins(self) -> rc.DepthBinSpec:
        return rc.DepthBinSpec(*DEPTH_RANGE, self.bins)


TIER_L = FrameSize(channels=32, z=8, bev=128, image_width=968, image_height=608)
TIER_M = FrameSize(channels=16, z=4, bev=64, image_width=480, image_height=304)
# The oracle checks walk voxels and convolution taps in Python loops.
REDUCED = FrameSize(channels=3, z=2, bev=6, image_width=80, image_height=48, bins=8, points=60)


def _rotation_z(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# Radar/BEV frame (x forward, y left, z up) to camera axes (x right, y down,
# z forward).
_BEV_TO_CAMERA = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])


def calibration(size: FrameSize, focal_scale=1.0, dcx=0.0, dcy=0.0, yaw=0.0) -> rc.SensorCalibration:
    """Camera above the radar, looking along the BEV x axis."""
    focal = size.focal * focal_scale
    rotation = _BEV_TO_CAMERA @ _rotation_z(yaw)
    translation = -rotation @ np.array([0.0, 0.0, CAMERA_HEIGHT_M])
    return rc.SensorCalibration(
        intrinsics=rc.CameraIntrinsics(
            focal, focal, size.image_width / 2.0 + dcx, size.image_height / 2.0 + dcy
        ),
        radar_to_camera=rc.RigidTransform(rotation, translation),
        image_width=size.image_width,
        image_height=size.image_height,
        angular_resolution=rc.AngularResolution.from_degrees(1.0, 1.0),
    )


def augmented_calibration(size: FrameSize, rng: np.random.Generator) -> rc.SensorCalibration:
    """Image-resize augmentation: focal length, principal point and yaw jitter."""
    return calibration(
        size,
        focal_scale=1.0 + rng.uniform(-FOCAL_JITTER, FOCAL_JITTER),
        dcx=rng.uniform(-PRINCIPAL_JITTER_PX, PRINCIPAL_JITTER_PX),
        dcy=rng.uniform(-PRINCIPAL_JITTER_PX, PRINCIPAL_JITTER_PX),
        yaw=math.radians(rng.uniform(-YAW_JITTER_DEG, YAW_JITTER_DEG)),
    )


def _conv(rng, out_ch: int, in_ch: int, kernel: int) -> rc.Conv2DParams:
    scale = 1.0 / math.sqrt(in_ch * kernel * kernel)
    return rc.Conv2DParams.same(
        rng.normal(0.0, scale, size=(out_ch, in_ch, kernel, kernel)),
        rng.normal(0.0, 0.1, size=out_ch),
    )


def _linear(rng, out_f: int, in_f: int, bias_mean: float = 0.0) -> rc.LinearParams:
    return rc.LinearParams(
        rng.normal(0.0, 1.0 / math.sqrt(in_f), size=(out_f, in_f)),
        bias_mean + rng.normal(0.0, 0.1, size=out_f),
    )


def _mlp(rng, channels: int) -> rc.MLPParams:
    hidden = rc.CSAFusionParams.bottleneck_width(channels)
    return rc.MLPParams((_linear(rng, hidden, channels), _linear(rng, channels, hidden)))


@dataclass(frozen=True)
class Network:
    vt: rc.VTParams
    csa: rc.CSAFusionParams


def make_network(size: FrameSize) -> Network:
    """Fixed seeded weights; radar BEV features have the image channel count."""
    rng = np.random.default_rng(WEIGHT_SEED)
    c, z = size.channels, size.z
    vt = rc.VTParams(
        occupancy_conv=_conv(rng, z, c, 1),
        depth_conv=_conv(rng, size.bins, c, 1),
        embedding=_linear(rng, c, 9, bias_mean=1.0),
        post_convs=(_conv(rng, c, 2 * c * z, 3), _conv(rng, c, c, 3), _conv(rng, c, c, 3)),
    )
    csa = rc.CSAFusionParams(
        in_conv=_conv(rng, c, 2 * c, 3),
        channel_mlp_radar=_mlp(rng, c),
        channel_mlp_image=_mlp(rng, c),
        mid_conv=_conv(rng, c, 2 * c, 3),
        spatial_conv_radar=_conv(rng, 1, 2, 7),
        spatial_conv_image=_conv(rng, 1, 2, 7),
        out_conv=_conv(rng, c, 2 * c, 3),
    )
    return Network(vt, csa)


def frame_features(size: FrameSize, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Radar BEV features (C, Y, X) and image features (C, H, W)."""
    f_radar = rng.normal(size=(size.channels, size.bev, size.bev))
    f_pv = rng.normal(size=(size.channels, *size.feature_shape))
    return f_radar, f_pv


def radar_points(size: FrameSize, rng: np.random.Generator) -> list:
    """Radar returns spread over the BEV grid's extent, with RCS."""
    n = size.points
    xs = rng.uniform(2.0, 60.0, n)
    ys = rng.uniform(*BEV_Y, n)
    zs = rng.uniform(*BEV_Z, n)
    rcs = rng.uniform(*RCS_RANGE_DBSM, n)
    return [
        rc.RadarPoint(float(x), float(y), float(z), rcs_dbsm=float(r))
        for x, y, z, r in zip(xs, ys, zs, rcs)
    ]


def in_image_voxels(size: FrameSize, calib: rc.SensorCalibration) -> int:
    """Voxels whose center projects in front of the camera and inside the
    feature map; computed here, not by the program."""
    centers = rc.voxel_centers(size.grid()).reshape(3, -1).T
    cam = calib.radar_to_camera.apply_many(centers)
    k = rc.scale_intrinsics(calib.intrinsics, STRIDE)
    z = cam[:, 2]
    front = z > 0
    safe = np.where(front, z, 1.0)
    u = k.fx * cam[:, 0] / safe + k.cx
    v = k.fy * cam[:, 1] / safe + k.cy
    height, width = size.feature_shape
    inside = front & (u >= 0) & (u <= width - 1) & (v >= 0) & (v <= height - 1)
    return int(np.count_nonzero(inside))


def _problems_finite(name: str, array, shape: tuple) -> list[str]:
    array = np.asarray(array)
    if array.shape != shape:
        return [f"{name} has shape {array.shape}, expected {shape}"]
    if not np.all(np.isfinite(array)):
        return [f"{name} holds non-finite values"]
    return []


def _scaled_error(got: np.ndarray, want: np.ndarray) -> float:
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


def _load_oracles():
    path = REPO_ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("radarcam_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_check(seed: int, calib_for) -> tuple[bool, str]:
    """A reduced frame against the per-voxel VT oracle and every conv of the
    network against the nested-loop conv oracle."""
    oracles = _load_oracles()
    size = REDUCED
    rng = np.random.default_rng([seed, ORACLE_STREAM])
    net = make_network(size)
    calib = calib_for(size, rng)
    f_radar, f_pv = frame_features(size, rng)
    bins = size.depth_bins()
    occupancy = rc.occupancy_from_bev(f_radar, net.vt)
    d_map = rc.depth_distribution(
        f_pv, rc.scale_intrinsics(calib.intrinsics, STRIDE), net.vt, bins, STRIDE
    )
    args = (f_pv, d_map, occupancy, size.grid(), calib.intrinsics, calib.radar_to_camera, net.vt)
    worst = {"sample_vt": _scaled_error(rc.sample_vt(*args), oracles.sample_vt_reference(*args))}
    convs = {
        "occupancy_conv": net.vt.occupancy_conv,
        "depth_conv": net.vt.depth_conv,
        **{f"post_convs[{i}]": conv for i, conv in enumerate(net.vt.post_convs)},
        **{f.name: getattr(net.csa, f.name) for f in dataclasses.fields(net.csa)
           if isinstance(getattr(net.csa, f.name), rc.Conv2DParams)},
    }
    for name, conv in convs.items():
        x = rng.normal(size=(conv.in_channels, size.bev, size.bev))
        want = oracles.conv2d_naive(x, conv.weights, conv.bias, conv.padding, conv.stride)
        worst[name] = _scaled_error(rc.conv2d(x, conv), want)
    name, err = max(worst.items(), key=lambda kv: kv[1])
    return err <= ORACLE_TOL, f"worst scaled error {err:.3g} ({name}), tolerance {ORACLE_TOL:g}"


def gradient_check(seed: int) -> tuple[bool, str]:
    """A reduced training instance through the finite-difference check.

    Instances whose neighborhood selection or L1 term sits near a kink are
    redrawn, as the gradient check itself does for its random instances.
    """
    gc = importlib.import_module("radarcam.gradcheck")
    size = REDUCED
    rng = np.random.default_rng([seed, GRADCHECK_STREAM])
    bins = size.depth_bins()
    for _ in range(GRADCHECK_ATTEMPTS):
        calib = augmented_calibration(size, rng)
        targets = rc.build_depth_targets(radar_points(size, rng), calib, STRIDE, RADIUS).targets
        logits = rng.normal(size=(size.bins, *size.feature_shape))
        inst = gc.GradCheckInstance(logits, tuple(targets[:GRADCHECK_TARGETS]), bins, LOSS)
        if inst.targets and gc._is_well_separated(rc.softmax(logits, axis=0), inst):
            break
    else:
        return False, f"no well-separated instance in {GRADCHECK_ATTEMPTS} draws"
    err = gc.relative_error(gc.analytic_grad(inst), gc.finite_difference_grad(inst))
    return err < GRADCHECK_TOL, f"relative error {err:.3g}, tolerance {GRADCHECK_TOL:g}"


def python_reference() -> None:
    """Interpreter-bound: tuples, a dict and float math in a Python loop."""
    table, total = {}, 0.0
    for i in range(REFERENCE_PY_ITERATIONS):
        x = (i * 0.6180339887) % 1.0
        entry = (x, x * x, math.sqrt(x + 1.0))
        table[i % 97] = entry
        total += entry[2] - entry[1]
    if not math.isfinite(total):
        raise ArithmeticError("the Python reference lost its result")


def numpy_reference() -> None:
    """NumPy-bound: gathers from a feature-map-sized table, as the sampling
    view transformation does, and GEMMs with a 4 MB result."""
    for _ in range(REFERENCE_NP_GATHERS):
        gathered = _REFERENCE_TABLE[:, _REFERENCE_INDEX] * 0.5 + _REFERENCE_TABLE[:, _REFERENCE_INDEX[::-1]]
    for _ in range(REFERENCE_NP_GEMMS):
        product = _REFERENCE_MATRIX.T @ _REFERENCE_MATRIX[:, :512]
    if not (np.isfinite(gathered[0, 0]) and np.isfinite(product[0, 0])):
        raise ArithmeticError("the NumPy reference lost its result")


def mixed_reference() -> None:
    """Both kernels, for a workload that is about half of each kind."""
    python_reference()
    numpy_reference()


@dataclass
class FrameInputs:
    calib: rc.SensorCalibration
    radar_path: Path
    image_path: Path
    output_path: Path
    points: list | None = None


class Infer:
    """Read LXLT features, occupancy -> depth distribution -> sampling VT ->
    CSA fusion, write the fused BEV map as LXLT."""

    name = "infer"
    default_size = TIER_L
    reference = staticmethod(numpy_reference)

    def __init__(self, seed: int, workdir: Path, size: FrameSize | None = None):
        self.seed = seed
        self.size = size or self.default_size
        self.net = make_network(self.size)
        self.grid = self.size.grid()
        self.bins = self.size.depth_bins()
        self.fixed_calibration = calibration(self.size)
        self.workdir = Path(workdir)

    def _rng(self, index: int, stream: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream, index + 1])

    def frame_calibration(self, rng: np.random.Generator) -> rc.SensorCalibration:
        return self.fixed_calibration

    def prepare(self, index: int) -> FrameInputs:
        rng = self._rng(index)
        calib = self.frame_calibration(rng)
        f_radar, f_pv = frame_features(self.size, rng)
        inputs = FrameInputs(
            calib,
            self.workdir / "radar_bev.lxlt",
            self.workdir / "feature_map.lxlt",
            self.workdir / "fused_bev.lxlt",
        )
        rc.lxlt.write_tensor(inputs.radar_path, f_radar)
        rc.lxlt.write_tensor(inputs.image_path, f_pv)
        return inputs

    def forward(self, inputs: FrameInputs):
        f_radar = rc.lxlt.read_tensor(inputs.radar_path)
        f_pv = rc.lxlt.read_tensor(inputs.image_path)
        calib = inputs.calib
        occupancy = rc.occupancy_from_bev(f_radar, self.net.vt)
        d_map = rc.depth_distribution(
            f_pv, rc.scale_intrinsics(calib.intrinsics, STRIDE), self.net.vt, self.bins, STRIDE
        )
        bev_image = rc.sample_vt(
            f_pv, d_map, occupancy, self.grid, calib.intrinsics, calib.radar_to_camera, self.net.vt
        )
        fused = rc.csa_fusion(f_radar, bev_image, self.net.csa)
        rc.lxlt.write_tensor(inputs.output_path, fused)
        return fused, d_map

    def run(self, inputs: FrameInputs) -> dict:
        fused, _ = self.forward(inputs)
        return {"fused": fused}

    def check(self, inputs: FrameInputs, outputs: dict) -> list[str]:
        shape = (self.size.channels, self.size.bev, self.size.bev)
        return _problems_finite("fused BEV map", outputs["fused"], shape)

    def observe(self, inputs: FrameInputs, outputs: dict, counts: dict) -> None:
        """Computed counts of the traced items: voxels and gather bytes."""
        sampled = self.size.z * self.size.bev * self.size.bev
        inside = in_image_voxels(self.size, inputs.calib)
        counts["view_transform.voxels.sampled"] += sampled
        counts["view_transform.voxels.in_image"] += inside
        # Four bilinear corners of C channels and eight trilinear corners per
        # voxel that lands in the image, in float64.
        counts["view_transform.gather.bytes"] += inside * (4 * self.size.channels + 8) * 8

    def run_checks(self) -> list:
        return [("oracles", lambda: oracle_check(self.seed, lambda size, rng: calibration(size)))]


class Train(Infer):
    """The forward pass of ``infer`` under a new calibration per step, then
    depth targets from radar points, the one-to-many loss and its gradient."""

    name = "train"
    default_size = TIER_M
    reference = staticmethod(mixed_reference)

    def frame_calibration(self, rng: np.random.Generator) -> rc.SensorCalibration:
        return augmented_calibration(self.size, rng)

    def prepare(self, index: int) -> FrameInputs:
        inputs = super().prepare(index)
        inputs.points = radar_points(self.size, self._rng(index, stream=1))
        return inputs

    def run(self, inputs: FrameInputs) -> dict:
        fused, d_map = self.forward(inputs)
        build = rc.build_depth_targets(inputs.points, inputs.calib, STRIDE, RADIUS)
        loss = rc.one_to_many_loss(d_map.data, build.targets, self.bins, LOSS)
        grad = rc.one_to_many_loss_grad(d_map.data, build.targets, self.bins, LOSS)
        return {
            "fused": fused, "depth": d_map.data, "loss": loss, "grad": grad, "targets": build.targets,
        }

    def check(self, inputs: FrameInputs, outputs: dict) -> list[str]:
        problems = super().check(inputs, outputs)
        problems += _problems_finite("loss gradient", outputs["grad"], outputs["depth"].shape)
        if not math.isfinite(outputs["loss"].total):
            problems.append(f"loss total is {outputs['loss'].total}")
        if not outputs["targets"]:
            problems.append("no radar point became a depth target")
        return problems

    def observe(self, inputs: FrameInputs, outputs: dict, counts: dict) -> None:
        super().observe(inputs, outputs, counts)
        per_target = outputs["loss"].per_target
        counts["depth_supervision.loss.targets"] += len(per_target)
        counts["depth_supervision.loss.pixels"] += sum(t.num_pixels for t in per_target)

    def run_checks(self) -> list:
        return [
            ("oracles", lambda: oracle_check(self.seed, augmented_calibration)),
            ("gradcheck", lambda: gradient_check(self.seed)),
        ]


class Simulate:
    """``run_experiment`` on the packaged configuration, one seed range per item.

    There is one size: the orderings only hold reliably over the packaged
    number of seeds.
    """

    name = "simulate"
    reference = staticmethod(python_reference)

    def __init__(self, seed: int, workdir: Path, size=None):
        self.seed = seed
        self.config = rc.sim.default_experiment_config()

    def prepare(self, index: int):
        # Disjoint seed ranges: each benchmark seed owns a block of 10**6 items.
        block = self.seed * 10**6 + index + 1
        return dataclasses.replace(self.config, seed_start=block * self.config.num_seeds)

    def run(self, config) -> dict:
        return {"result": rc.run_experiment(config)}

    def check(self, config, outputs: dict) -> list[str]:
        summary = outputs["result"].summary
        problems = []
        if not summary.get("all_orderings_hold"):
            problems.append(f"orderings do not all hold at seed_start {config.seed_start}")
        rates = [arm["mean_hit_rate"] for arm in summary["arms"].values()]
        if len(rates) != len(self.config.arms) or not all(0.0 <= r <= 1.0 for r in rates):
            problems.append(f"arm hit rates out of range: {rates}")
        return problems

    def observe(self, config, outputs: dict, counts: dict) -> None:
        pass

    def packaged_check(self) -> tuple[bool, str]:
        summary = rc.run_experiment(self.config).summary
        got = {name: arm["mean_hit_rate"] for name, arm in summary["arms"].items()}
        off = {
            name: got.get(name) for name, want in PACKAGED_HIT_RATES.items()
            if got.get(name) is None or abs(got[name] - want) > PACKAGED_HIT_RATE_TOL
        }
        ok = not off and summary["all_orderings_hold"]
        return ok, f"hit rates {got}, orderings hold: {summary['all_orderings_hold']}"

    def run_checks(self) -> list:
        return [("packaged_experiment", self.packaged_check)]


WORKLOADS = {w.name: w for w in (Infer, Train, Simulate)}
