"""File-based command line front end.

Exit codes: 0 success, 1 usage error, 2 data or shape error, or an input
that needs more memory than there is. Diagnostics go to stderr;
machine-readable output goes to files or stdout. Every output path is
checked (no two may name one file) and every input read and validated
before any output is written, so a command writes all of its outputs or
none. All commands are deterministic for fixed seeds, so re-running a
command reproduces its output files byte for byte.

Each JSON input's keys are defined by one reader, ``geometry.read_json``,
as the fields of a dataclass: ``depth-targets --config`` is ``stride`` plus a
``RadiusConfig``; ``simulate --config`` an ``ExperimentConfig``; a ``vt``
manifest a :class:`VTManifest`; a ``fuse`` manifest's ``params`` a
``CSAFusionParams`` or ``ConcatFusionParams``; a calibration a
``SensorCalibration``, whose keys are flat. A manifest, read by
``lxlt.read_manifest``, holds its JSON values inline and names each array
by an LXLT file relative to the manifest. An absent optional key, like an
unset flag, takes the dataclass default; an absent required key fails as a
null; a key that names no field fails.
``depth-targets`` writes and ``loss`` reads an LXLT table of (u, v, d_gt,
radius) rows, u and v the feature cell floor(u_img / s) of ``geometry``'s
pixel convention; ``loss`` rounds them half to even and writes them as
integers. A target of radius 0 is one-to-one: ``depth-targets --r-max 0``
builds targets that ``loss`` scores at the struck pixel alone.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, lxlt
from .depth_supervision import (
    AGGREGATIONS,
    DepthBinSpec,
    LossConfig,
    RadiusConfig,
    _target_table,
    as_target_table,
    one_to_many_loss,
    read_radar_points_csv,
)
from .fusion import ConcatFusionParams, CSAFusionParams, concat_fusion, csa_fusion
from .geometry import (
    SensorCalibration,
    empirical_projection_error,
    json_number,
    json_object,
    load_json,
    max_pixel_position_error,
    read_json,
    scale_intrinsics,
)
from .gradcheck import MIN_BINS, MIN_SIZE, run_grad_check
from .sim import ExperimentConfig, default_experiment_config, run_experiment
from .view_transform import VTParams, VoxelGridSpec, depth_distribution, occupancy_from_bev, sample_vt


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


def _write_csv(path: str | Path | None, header: list, rows) -> None:
    """Write a CSV of ``header`` and ``rows`` to ``path``, or to stdout where it is None."""
    with open(path, "w", newline="") if path is not None else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _check_outputs(*paths) -> None:
    """Raise the error that creating an output file would raise, for the
    first of ``paths`` (None for an unset optional output) that is empty, is
    a directory, or whose directory is missing or not writable; then
    ``ValueError`` if two of them name one file, as the later would
    overwrite the earlier."""
    for path in paths:
        if path is None:
            continue
        parent = os.path.dirname(os.path.abspath(path))
        if not path:
            code = errno.ENOENT
        elif os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise OSError(code, os.strerror(code), str(path))
    given = [path for path in paths if path is not None]
    real = [os.path.realpath(path) for path in given]
    for i, path in enumerate(real):
        if path in real[:i]:
            raise ValueError(f"outputs {given[real.index(path)]} and {given[i]} name one file")


@dataclass(frozen=True)
class VTManifest:
    """The inputs of ``vt``: image features and radar BEV features (LXLT file
    names), the voxel grid, the calibration, the image features' stride, the
    depth bins and the learned weights. ``vt`` refuses a stride below 1, and
    a feature map whose (H, W) is not the calibration's
    ``feature_shape(stride)``, the map the depth targets are built on."""

    feature_map: np.ndarray
    radar_bev: np.ndarray
    grid: VoxelGridSpec
    calibration: SensorCalibration
    stride: int
    depth_bins: DepthBinSpec
    params: VTParams


def _given(**flags) -> dict:
    """The flags that were set on the command line."""
    return {key: value for key, value in flags.items() if value is not None}


def cmd_depth_targets(args) -> int:
    sidecar = str(args.output) + ".json" if args.sidecar is None else args.sidecar
    _check_outputs(args.output, sidecar)
    # Flags override the config file, which overrides the defaults.
    config = load_json(args.config) if args.config else {}
    config.update(_given(stride=args.stride, k=args.k, r_max=args.r_max, fixed_r=args.fixed_r))
    points = read_radar_points_csv(args.points)
    calib = SensorCalibration.load(args.calib)
    stride = json_number(config.pop("stride", DEFAULT_STRIDE), "stride", whole=True)
    cfg = read_json(RadiusConfig, config, "")
    table, kept = _target_table(points, calib, stride, [(cfg, True)])
    num_dropped = len(kept) - len(table)
    lxlt.write_tensor(args.output, table)
    _write_json(
        sidecar,
        {
            "stride": stride,
            **vars(cfg),
            "num_input_points": len(kept),
            "num_dropped": num_dropped,
            "num_targets": len(table),
            "calibration": calib.to_dict(),
        },
    )
    print(f"wrote {len(table)} targets ({num_dropped} points dropped)", file=sys.stderr)
    return 0


def cmd_loss(args) -> int:
    _check_outputs(args.per_target)
    depth_map = lxlt.read_tensor(args.depth_map)
    table = as_target_table(lxlt.read_tensor(args.targets))
    table[:, :2] = np.rint(table[:, :2])  # the nearest pixel, halves to even as round() does
    spec = DepthBinSpec(args.d_min, args.d_max, len(depth_map))
    cfg = LossConfig(**_given(lambda1=args.lambda1, lambda2=args.lambda2, neighborhood_agg=args.agg))
    result = one_to_many_loss(depth_map, table, spec, cfg)
    if args.per_target is not None:
        _write_csv(
            args.per_target,
            ["index", "u", "v", "d_gt", "radius", "n_pixels", "loss", "selected_u", "selected_v"],
            (
                (i, int(u), int(v), f"{d:.9g}", f"{r:.9g}", per.num_pixels, f"{per.loss:.12g}", *per.pixel)
                for i, ((u, v, d, r), per) in enumerate(zip(table.tolist(), result.per_target))
            ),
        )
    print(f"{result.total:.12g}")
    return 0


def cmd_grad_check(args) -> int:
    for flag, value, ok, needs in (
        ("--instances", args.instances, args.instances >= 1, "at least 1"),
        ("--seed", args.seed, args.seed >= 0, "a non-negative integer"),
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
    _check_outputs(args.output)
    m = lxlt.read_manifest(VTManifest, load_json(args.manifest), "manifest", Path(args.manifest).parent)
    if m.stride < 1:
        raise ValueError(f"manifest.stride must be at least 1, got {m.stride}")
    shape = m.calibration.feature_shape(m.stride)
    if m.feature_map.shape[1:] != shape:
        raise ValueError(
            f"manifest.stride is {m.stride}: the calibration's {m.calibration.image_width}x{m.calibration.image_height} "
            f"image needs a (C, {shape[0]}, {shape[1]}) feature_map, got shape {m.feature_map.shape}"
        )
    k, params = m.calibration.intrinsics, m.params
    occupancy = occupancy_from_bev(m.radar_bev, params)
    d_map = depth_distribution(m.feature_map, scale_intrinsics(k, m.stride), params, m.depth_bins, m.stride)
    bev = sample_vt(m.feature_map, d_map, occupancy, m.grid, k, m.calibration.radar_to_camera, params)
    lxlt.write_tensor(args.output, bev)
    print(f"wrote BEV map of shape {bev.shape}", file=sys.stderr)
    return 0


def cmd_fuse(args) -> int:
    _check_outputs(args.output)
    f_radar = lxlt.read_tensor(args.radar)
    f_image = lxlt.read_tensor(args.image)
    manifest = json_object(load_json(args.params), "manifest", ("params",))
    cls, fuse = (ConcatFusionParams, concat_fusion) if args.mode == "concat" else (CSAFusionParams, csa_fusion)
    params = lxlt.read_manifest(cls, manifest.get("params"), "manifest.params", Path(args.params).parent)
    fused = fuse(f_radar, f_image, params)
    lxlt.write_tensor(args.output, fused)
    print(f"wrote fused map of shape {fused.shape}", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    _check_outputs(args.output_csv, args.summary, args.emit_plot_data)
    result = run_experiment(ExperimentConfig.load(args.config) if args.config else default_experiment_config())
    # Every metric's (arms, seeds) cells: rates and errors to 9 significant digits, counts as they are.
    metrics = result.metrics._asdict()
    plotted = [name for name, values in metrics.items() if values.dtype.kind == "f"]
    cells = {name: values.tolist() for name, values in metrics.items()}
    for name in plotted:
        cells[name] = [[f"{x:.9g}" for x in row] for row in cells[name]]
    order = [(s, seed, a, arm) for s, seed in enumerate(result.seeds) for a, arm in enumerate(result.arms)]
    rows = [(seed, arm, *(column[a][s] for column in cells.values())) for s, seed, a, arm in order]
    _write_csv(args.output_csv, ["seed", "arm", *cells], rows)
    _write_json(args.summary, result.summary)
    if args.emit_plot_data is not None:
        tidy = [(seed, arm, name, cells[name][a][s]) for s, seed, a, arm in order for name in plotted]
        _write_csv(args.emit_plot_data, ["seed", "arm", "metric", "value"], tidy)
    ok = result.summary["all_orderings_hold"]
    print(f"orderings hold: {ok}", file=sys.stderr)
    return 0


def cmd_error_model(args) -> int:
    _check_outputs(args.output, args.emit_plot_data)
    calib = SensorCalibration.load(args.calib)
    res = calib.angular_resolution
    if res.delta_theta == 0:
        # every row's deviation is relative to fx * delta_theta
        raise ValueError("error-model needs calibration delta_theta_deg > 0, got 0")
    if not np.array_equal(calib.radar_to_camera.matrix(), np.eye(4)):
        # empirical_projection_error places the radar at the camera, axes aligned
        raise ValueError(
            "error-model models a radar at the camera's origin and axes: calibration radar_to_camera must be the identity"
        )
    e_u, e_v, e = max_pixel_position_error(calib.intrinsics, res)
    cells = [(rho, t, p) for rho in (5.0, 10.0, 20.0, 50.0, 100.0) for t in range(-20, 21, 5) for p in (-10, 0, 10)]
    rho, theta_deg, phi_deg = np.array(cells).T
    emp = empirical_projection_error(rho, np.radians(theta_deg), np.radians(phi_deg), res, calib.intrinsics)
    dev = np.abs(emp - e_u) / e_u
    rows = [
        (f"{rho:g}", t, p, f"{em:.9g}", f"{de:.3g}")
        for (rho, t, p), em, de in zip(cells, emp.tolist(), dev.tolist())
    ]
    bound = [f"{x:.9g}" for x in (e_u, e_v, e)]
    _write_csv(
        args.output,
        ["rho_m", "theta_deg", "phi_deg", "empirical_px", "e_u_px", "e_v_px", "e_px", "rel_deviation"],
        ((r, t, p, em, *bound, de) for r, t, p, em, de in rows),
    )
    if args.emit_plot_data is not None:
        names = ("empirical_px", "rel_deviation")
        tidy = [(r, t, p, name, value) for r, t, p, *values in rows for name, value in zip(names, values)]
        _write_csv(args.emit_plot_data, ["rho_m", "theta_deg", "phi_deg", "metric", "value"], tidy)
    worst = float(dev.max())
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
    p.add_argument("--r-max", type=float, help=f"radius ceiling in px, 0 for one-to-one (default {RadiusConfig.r_max})")
    p.add_argument("--fixed-r", type=float, help=f"radius without RCS (default {RadiusConfig.fixed_r})")
    p.add_argument("--output", required=True, help="output LXLT rows (u,v,d_gt,radius), u,v cells floor(u_img/s)")
    p.add_argument("--sidecar", help="config sidecar JSON (default OUTPUT.json)")
    p.set_defaults(func=cmd_depth_targets)

    p = sub.add_parser("loss", help="evaluate the depth loss of a map against targets")
    p.add_argument("--depth-map", required=True, help="LXLT depth distribution map (D,H,W)")
    p.add_argument("--targets", required=True, help="LXLT target table (N,4)")
    p.add_argument("--d-min", type=float, default=0.0)
    p.add_argument("--d-max", type=float, default=64.0)
    p.add_argument("--lambda1", type=float, help=f"cross-entropy weight (default {LossConfig.lambda1})")
    p.add_argument("--lambda2", type=float, help=f"L1 weight (default {LossConfig.lambda2})")
    p.add_argument("--agg", choices=AGGREGATIONS, help=f"default {LossConfig.neighborhood_agg}")
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
    p.add_argument("--config", help="experiment JSON (default: packaged)")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input that asks for more memory than there is
        print(f"error: {str(exc) or 'the input needs more memory than is available'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
