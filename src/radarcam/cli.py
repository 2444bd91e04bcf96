"""File-based command line front end.

Exit codes: 0 success, 1 usage error, 2 data or shape error. Diagnostics go
to stderr; machine-readable output goes to files or stdout. Every input is
read and validated before any output file is created, and all commands are
deterministic for fixed seeds, so re-running a command reproduces its output
files byte for byte.

Each JSON input's keys are defined by one reader: a calibration by
``SensorCalibration.from_dict``; ``depth-targets --config`` by
``RadiusConfig.from_dict`` plus ``stride``; ``simulate --config`` by
``ExperimentConfig.from_dict``; a ``vt`` manifest's ``grid``, ``depth_bins``
and layers by ``VoxelGridSpec.from_dict``, ``DepthBinSpec.from_dict`` and
``vt_params_from_manifest``; a ``fuse`` manifest by ``csa_params_from_manifest``
or ``concat_params_from_manifest``. An absent optional key, like an unset
flag, takes the dataclass default; an absent required key fails as a null.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, lxlt
from .depth_supervision import (
    AGGREGATIONS,
    STRATEGIES,
    DepthBinSpec,
    LossConfig,
    RadiusConfig,
    build_depth_targets,
    one_to_many_loss,
    read_radar_points_csv,
    targets_from_array,
    targets_to_array,
)
from .fusion import concat_fusion, concat_params_from_manifest, csa_fusion, csa_params_from_manifest
from .geometry import (
    SensorCalibration,
    SphericalPoint,
    empirical_projection_error,
    json_number,
    json_object,
    load_json,
    max_pixel_position_error,
    scale_intrinsics,
)
from .gradcheck import MIN_BINS, MIN_SIZE, run_grad_check
from .sim import ExperimentConfig, default_experiment_config, run_experiment
from .tensor_ops import ShapeError
from .view_transform import (
    VoxelGridSpec,
    depth_distribution,
    occupancy_from_bev,
    sample_vt,
    vt_params_from_manifest,
)


DEFAULT_STRIDE = 8  # feature-map stride of depth-targets


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _UsageError(message)


def _write_json(path: str | Path, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest_file(manifest: dict, key: str, root: Path) -> Path:
    """A file a manifest names, relative to the manifest's directory."""
    value = manifest.get(key)
    if not isinstance(value, str):
        raise ValueError(f"manifest {key} must be a file name, got {value!r}")
    return root / value


def _object_or_file(manifest: dict, key: str, root: Path) -> dict:
    """A manifest entry given inline as a JSON object or as a JSON file name."""
    value = manifest.get(key)
    return value if isinstance(value, dict) else load_json(_manifest_file(manifest, key, root))


def _given(**flags) -> dict:
    """The flags that were set on the command line."""
    return {key: value for key, value in flags.items() if value is not None}


def cmd_depth_targets(args) -> int:
    # Flags override the config file, which overrides the defaults.
    config = load_json(args.config) if args.config else {}
    config.update(_given(stride=args.stride, k=args.k, r_max=args.r_max, fixed_r=args.fixed_r))
    points = read_radar_points_csv(args.points)
    calib = SensorCalibration.load(args.calib)
    stride = json_number(config.get("stride", DEFAULT_STRIDE), "stride", whole=True)
    if "fixed_r" not in config and any(p.rcs_dbsm is None for p in points):
        config["fixed_r"] = RadiusConfig.FALLBACK_FIXED_R
    cfg = RadiusConfig.from_dict(config)
    result = build_depth_targets(points, calib, stride, cfg)
    lxlt.write_tensor(args.output, targets_to_array(result.targets))
    sidecar = args.sidecar or (str(args.output) + ".json")
    _write_json(
        sidecar,
        {
            "stride": stride,
            "k": cfg.k,
            "r_max": cfg.r_max,
            "fixed_r": cfg.fixed_r,
            "num_input_points": result.num_input,
            "num_dropped": result.num_dropped,
            "num_targets": len(result.targets),
            "calibration": calib.to_dict(),
        },
    )
    print(
        f"wrote {len(result.targets)} targets ({result.num_dropped} points dropped)",
        file=sys.stderr,
    )
    return 0


def cmd_loss(args) -> int:
    depth_map = lxlt.read_tensor(args.depth_map)
    targets = targets_from_array(lxlt.read_tensor(args.targets))
    spec = DepthBinSpec(args.d_min, args.d_max, args.num_bins)
    cfg = LossConfig(
        **_given(lambda1=args.lambda1, lambda2=args.lambda2, neighborhood_agg=args.agg, strategy=args.strategy)
    )
    result = one_to_many_loss(depth_map, targets, spec, cfg)
    if args.per_target:
        with open(args.per_target, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["index", "u", "v", "d_gt", "radius", "n_pixels", "loss", "selected_u", "selected_v"]
            )
            for i, (target, per) in enumerate(zip(targets, result.per_target)):
                writer.writerow(
                    [
                        i, target.u, target.v,
                        f"{target.d_gt:.9g}", f"{target.radius:.9g}",
                        per.num_pixels, f"{per.loss:.12g}",
                        per.pixel[0], per.pixel[1],
                    ]
                )
    print(f"{result.total:.12g}")
    return 0


def cmd_grad_check(args) -> int:
    for flag, value, ok, needs in (
        ("--instances", args.instances, args.instances >= 1, "at least 1"),
        ("--step", args.step, 0.0 < args.step < math.inf, "a positive finite number"),
        ("--max-bins", args.max_bins, args.max_bins >= MIN_BINS, f"at least {MIN_BINS}"),
        ("--max-size", args.max_size, args.max_size >= MIN_SIZE, f"at least {MIN_SIZE}"),
        ("--tolerance", args.tolerance, 0.0 <= args.tolerance < math.inf, "a non-negative finite number"),
    ):
        if not ok:
            raise ValueError(f"{flag} must be {needs}, got {value}")
    worst = run_grad_check(
        instances=args.instances,
        seed=args.seed,
        step=args.step,
        max_bins=args.max_bins,
        max_size=args.max_size,
    )
    print(f"{worst:.6g}")
    if worst > args.tolerance:
        print(f"gradient check failed: {worst:.6g} > {args.tolerance:.6g}", file=sys.stderr)
        return 2
    return 0


def cmd_vt(args) -> int:
    manifest = load_json(args.manifest)
    root = Path(args.manifest).parent
    f_pv = lxlt.read_tensor(_manifest_file(manifest, "feature_map", root))
    f_radar = lxlt.read_tensor(_manifest_file(manifest, "radar_bev", root))
    grid = VoxelGridSpec.from_dict(_object_or_file(manifest, "grid", root))
    calib = SensorCalibration.from_dict(_object_or_file(manifest, "calibration", root))
    stride = json_number(manifest.get("stride"), "manifest stride", whole=True)
    bins = DepthBinSpec.from_dict(
        json_object(manifest.get("depth_bins"), "manifest depth_bins"), "manifest depth_bins."
    )
    params = vt_params_from_manifest(manifest, root)
    occupancy = occupancy_from_bev(f_radar, params)
    d_map = depth_distribution(f_pv, scale_intrinsics(calib.intrinsics, stride), params, bins, stride)
    bev = sample_vt(f_pv, d_map, occupancy, grid, calib.intrinsics, calib.radar_to_camera, params)
    lxlt.write_tensor(args.output, bev)
    print(f"wrote BEV map of shape {bev.shape}", file=sys.stderr)
    return 0


def cmd_fuse(args) -> int:
    f_radar = lxlt.read_tensor(args.radar)
    f_image = lxlt.read_tensor(args.image)
    manifest = load_json(args.params)
    root = Path(args.params).parent
    if args.mode == "concat":
        fused = concat_fusion(f_radar, f_image, concat_params_from_manifest(manifest, root))
    else:
        fused = csa_fusion(f_radar, f_image, csa_params_from_manifest(manifest, root))
    lxlt.write_tensor(args.output, fused)
    print(f"wrote fused map of shape {fused.shape}", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    if args.config:
        cfg = ExperimentConfig.load(args.config)
    else:
        cfg = default_experiment_config()
    result = run_experiment(cfg)
    with open(args.output_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "arm", "hit_rate", "depth_mae", "n_targets"])
        for row in result.rows:
            writer.writerow(
                [
                    row.seed, row.arm,
                    f"{row.metrics.hit_rate:.9g}", f"{row.metrics.depth_mae:.9g}",
                    row.metrics.n_targets,
                ]
            )
    _write_json(args.summary, result.summary)
    if args.emit_plot_data:
        with open(args.emit_plot_data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["seed", "arm", "metric", "value"])
            for row in result.rows:
                writer.writerow([row.seed, row.arm, "hit_rate", f"{row.metrics.hit_rate:.9g}"])
                writer.writerow([row.seed, row.arm, "depth_mae", f"{row.metrics.depth_mae:.9g}"])
    ok = result.summary["all_orderings_hold"]
    print(f"orderings hold: {ok}", file=sys.stderr)
    return 0


def cmd_error_model(args) -> int:
    calib = SensorCalibration.load(args.calib)
    res = calib.angular_resolution
    e_u, e_v, e = max_pixel_position_error(calib.intrinsics, res)
    rows = []
    for rho in (5.0, 10.0, 20.0, 50.0, 100.0):
        for theta_deg in range(-20, 21, 5):
            for phi_deg in (-10, 0, 10):
                point = SphericalPoint(rho, math.radians(theta_deg), math.radians(phi_deg))
                emp = empirical_projection_error(point, res, calib.intrinsics)
                rows.append(
                    (rho, theta_deg, phi_deg, emp, e_u, e_v, e, abs(emp - e_u) / e_u)
                )

    def emit(fh):
        writer = csv.writer(fh)
        writer.writerow(
            ["rho_m", "theta_deg", "phi_deg", "empirical_px", "e_u_px", "e_v_px", "e_px", "rel_deviation"]
        )
        for rho, theta_deg, phi_deg, emp, eu, ev, ee, dev in rows:
            writer.writerow(
                [f"{rho:g}", theta_deg, phi_deg, f"{emp:.9g}", f"{eu:.9g}", f"{ev:.9g}", f"{ee:.9g}", f"{dev:.3g}"]
            )

    if args.output:
        with open(args.output, "w", newline="") as fh:
            emit(fh)
    else:
        emit(sys.stdout)
    if args.emit_plot_data:
        with open(args.emit_plot_data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rho_m", "theta_deg", "phi_deg", "metric", "value"])
            for rho, theta_deg, phi_deg, emp, _, _, _, dev in rows:
                writer.writerow([f"{rho:g}", theta_deg, phi_deg, "empirical_px", f"{emp:.9g}"])
                writer.writerow([f"{rho:g}", theta_deg, phi_deg, "rel_deviation", f"{dev:.3g}"])
    worst = max(r[-1] for r in rows)
    print(f"worst relative deviation from fx*dtheta: {worst:.3g}", file=sys.stderr)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="radarcam", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("depth-targets", help="project a radar point CSV into depth targets")
    p.add_argument("--points", required=True, help="radar point CSV (x,y,z[,rcs_dbsm[,doppler]])")
    p.add_argument("--calib", required=True, help="calibration JSON")
    p.add_argument("--config", help="JSON with default stride/k/r_max/fixed_r")
    p.add_argument("--stride", type=int, help=f"feature-map stride (default {DEFAULT_STRIDE})")
    p.add_argument("--k", type=float, help=f"radius scale (default {RadiusConfig.k})")
    p.add_argument("--r-max", type=float, help=f"radius ceiling in px (default {RadiusConfig.r_max})")
    p.add_argument("--fixed-r", type=float, help=f"radius without RCS (default {RadiusConfig.FALLBACK_FIXED_R})")
    p.add_argument("--output", required=True, help="output LXLT file, rows (u,v,d_gt,radius)")
    p.add_argument("--sidecar", help="config sidecar JSON (default OUTPUT.json)")
    p.set_defaults(func=cmd_depth_targets)

    p = sub.add_parser("loss", help="evaluate the depth loss of a map against targets")
    p.add_argument("--depth-map", required=True, help="LXLT depth distribution map (D,H,W)")
    p.add_argument("--targets", required=True, help="LXLT target table (N,4)")
    p.add_argument("--d-min", type=float, default=0.0)
    p.add_argument("--d-max", type=float, default=64.0)
    p.add_argument("--num-bins", type=int, default=64)
    p.add_argument("--lambda1", type=float, help=f"cross-entropy weight (default {LossConfig.lambda1})")
    p.add_argument("--lambda2", type=float, help=f"L1 weight (default {LossConfig.lambda2})")
    p.add_argument("--agg", choices=AGGREGATIONS, help=f"default {LossConfig.neighborhood_agg}")
    p.add_argument("--strategy", choices=STRATEGIES, help=f"default {LossConfig.strategy}")
    p.add_argument("--per-target", help="optional per-target CSV output")
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("grad-check", help="finite-difference check of the loss gradient")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-4)
    p.add_argument("--max-bins", type=int, default=16)
    p.add_argument("--max-size", type=int, default=12)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("vt", help="run the view transformation from a manifest")
    p.add_argument("--manifest", required=True, help="JSON manifest naming all inputs")
    p.add_argument("--output", required=True, help="output LXLT BEV map")
    p.set_defaults(func=cmd_vt)

    p = sub.add_parser("fuse", help="fuse two BEV maps")
    p.add_argument("--radar", required=True, help="radar BEV LXLT")
    p.add_argument("--image", required=True, help="image BEV LXLT")
    p.add_argument("--params", required=True, help="fusion parameter manifest JSON")
    p.add_argument("--mode", choices=("concat", "csa"), default="csa")
    p.add_argument("--output", required=True, help="output LXLT fused map")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("simulate", help="run the synthetic supervision experiment")
    p.add_argument("--config", help="experiment JSON (default: packaged configuration)")
    p.add_argument("--output-csv", required=True, help="per-seed metrics CSV")
    p.add_argument("--summary", required=True, help="summary JSON with ordering checks")
    p.add_argument("--emit-plot-data", help="optional tidy CSV for plotting")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("error-model", help="tabulate the projection error over a range grid")
    p.add_argument("--calib", required=True, help="calibration JSON")
    p.add_argument("--output", help="output CSV (default: stdout)")
    p.add_argument("--emit-plot-data", help="optional tidy CSV for plotting")
    p.set_defaults(func=cmd_error_model)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (lxlt.TensorFormatError, ShapeError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
