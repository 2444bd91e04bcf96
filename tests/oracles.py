"""Independent brute-force reference implementations used only by tests.

These deliberately avoid the vectorized code paths they verify: the
convolution oracle is six nested loops, the sparse-convolution oracle adds
one output's tap products one at a time, the sigmoid oracle splits its input
by boolean masks, the attention-fusion oracle builds every gated map in the
paper's order through the nested-loop convolution, the footprint oracle
projects one scene object at a time in Python floats, the scalar samplers
read one point's corners at a time, the view-transformation oracle walks
voxels one at a time through those samplers, the depth-loss oracle scores
one target's disk at a time, the target-build oracle projects one radar
point at a time in plain Python floats and the experiment oracle runs one
seed and arm at a time through scalar draws, per-return noise, rendered
true-depth maps and a per-target disk loop.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from radarcam.depth_supervision import DepthTarget, RadarPoint
from radarcam.geometry import scale_intrinsics
from radarcam.sim import EMPTY_BOX, ExperimentResult, SupervisionMetrics, bootstrap_gap, rcs_from_size
from radarcam.tensor_ops import ShapeError, conv2d
from radarcam.view_transform import depth_to_bin_coordinate, voxel_centers


def conv2d_naive(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                 padding: tuple[int, int, int, int], stride: int = 1) -> np.ndarray:
    """Six-nested-loop cross-correlation with zero padding."""
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    out_ch, in_ch, kh, kw = weights.shape
    pt, pb, pl, pr = padding
    _, h, w = x.shape
    hp, wp = h + pt + pb, w + pl + pr
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    out = np.zeros((out_ch, out_h, out_w), dtype=np.float64)
    for o in range(out_ch):
        for oy in range(out_h):
            for ox in range(out_w):
                acc = 0.0
                for i in range(in_ch):
                    for ky in range(kh):
                        for kx in range(kw):
                            yy = oy * stride + ky - pt
                            xx = ox * stride + kx - pl
                            if 0 <= yy < h and 0 <= xx < w:
                                acc += weights[o, i, ky, kx] * x[i, yy, xx]
                out[o, oy, ox] = acc + bias[o]
    return out


def conv2d_cells_reference(cells, values, shape: tuple[int, int], weights, bias) -> np.ndarray:
    """The same-padded conv of a one-channel (Y, X) map that holds ``values``
    at the raveled ``cells`` and is zero elsewhere, as ``conv2d_cells``
    defines it: each output starts at 0.0, adds the product of each tap
    whose cell is one of ``cells``, taps in row-major (ky, kx) order, and
    then its bias, one Python float operation at a time."""
    ny, nx = shape
    out_ch, in_ch, kh, kw = np.shape(weights)
    if in_ch != 1:
        raise ValueError(f"the oracle takes one input channel, got {in_ch}")
    at = dict(zip(np.asarray(cells).tolist(), np.asarray(values, dtype=np.float64).reshape(-1).tolist()))
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    out = np.empty((out_ch, ny, nx))
    for o in range(out_ch):
        for oy in range(ny):
            for ox in range(nx):
                acc = 0.0
                for ky in range(kh):
                    for kx in range(kw):
                        y, x = oy + ky - pt, ox + kx - pl
                        if 0 <= y < ny and 0 <= x < nx and y * nx + x in at:
                            acc += float(weights[o, 0, ky, kx]) * at[y * nx + x]
                out[o, oy, ox] = acc + float(bias[o])
    return out


def sigmoid_two_branch(x: np.ndarray) -> np.ndarray:
    """Logistic function by boolean masks: 1 / (1 + exp(-x)) where x >= 0,
    exp(x) / (1 + exp(x)) elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _mlp_reference(x: np.ndarray, params) -> np.ndarray:
    """The layer stack as explicit products, a rectifier between layers."""
    for i, layer in enumerate(params.layers):
        if i:
            x = np.maximum(x, 0.0)
        x = layer.weights @ x + layer.bias
    return x


def csa_fusion_reference(f_radar, f_image, params) -> np.ndarray:
    """Attention fusion in the paper's order, every conv through
    :func:`conv2d_naive`: the channel-gated maps ``w * f``, the spatially
    gated maps ``s * (w * f)``, then ``out_conv`` over their concatenation."""
    f_radar = np.asarray(f_radar, dtype=np.float64)
    f_image = np.asarray(f_image, dtype=np.float64)

    def conv(x, p):
        return conv2d_naive(x, p.weights, p.bias, p.padding)

    f_in = conv(np.concatenate([f_radar, f_image]), params.in_conv)
    gap, gmp = f_in.mean(axis=(1, 2)), f_in.max(axis=(1, 2))
    mid = []
    for f, mlp in ((f_radar, params.channel_mlp_radar), (f_image, params.channel_mlp_image)):
        w = sigmoid_two_branch(_mlp_reference(gap, mlp) + _mlp_reference(gmp, mlp))
        mid.append(w[:, None, None] * f)
    f_mid = conv(np.concatenate(mid), params.mid_conv)
    stats = np.stack([f_mid.max(axis=0), f_mid.mean(axis=0)])
    out = [
        sigmoid_two_branch(conv(stats, spatial)) * m
        for m, spatial in zip(mid, (params.spatial_conv_radar, params.spatial_conv_image))
    ]
    return conv(np.concatenate(out), params.out_conv)


def bilinear_sample(fmap: np.ndarray, uv) -> np.ndarray:
    """Bilinear interpolation of a (C, H, W) map at continuous (u, v).

    Pixel centers sit at integer coordinates; neighbors outside the grid
    contribute zero, so a point fully outside returns the zero vector.
    """
    fmap = np.asarray(fmap, dtype=np.float64)
    if fmap.ndim != 3:
        raise ShapeError(f"bilinear_sample map must be (C, H, W), got {fmap.shape}")
    c, h, w = fmap.shape
    u, v = float(uv[0]), float(uv[1])
    x0 = int(np.floor(u))
    y0 = int(np.floor(v))
    fu = u - x0
    fv = v - y0
    out = np.zeros(c, dtype=np.float64)
    for dx, dy, wt in (
        (0, 0, (1.0 - fu) * (1.0 - fv)),
        (1, 0, fu * (1.0 - fv)),
        (0, 1, (1.0 - fu) * fv),
        (1, 1, fu * fv),
    ):
        xi, yi = x0 + dx, y0 + dy
        if 0 <= xi < w and 0 <= yi < h:
            out += wt * fmap[:, yi, xi]
    return out


def trilinear_sample(volume: np.ndarray, uvd) -> float:
    """Trilinear interpolation of a (D, H, W) volume at continuous (u, v, d).

    The third coordinate indexes the leading (depth) axis; cell centers sit
    at integer coordinates and out-of-bounds neighbors read as zero.
    """
    volume = np.asarray(volume, dtype=np.float64)
    if volume.ndim != 3:
        raise ShapeError(f"trilinear_sample volume must be (D, H, W), got {volume.shape}")
    d, h, w = volume.shape
    u, v, b = float(uvd[0]), float(uvd[1]), float(uvd[2])
    x0 = int(np.floor(u))
    y0 = int(np.floor(v))
    z0 = int(np.floor(b))
    fu = u - x0
    fv = v - y0
    fb = b - z0
    acc = 0.0
    for dz in (0, 1):
        wz = (1.0 - fb) if dz == 0 else fb
        for dy in (0, 1):
            wy = (1.0 - fv) if dy == 0 else fv
            for dx in (0, 1):
                wx = (1.0 - fu) if dx == 0 else fu
                xi, yi, zi = x0 + dx, y0 + dy, z0 + dz
                if 0 <= xi < w and 0 <= yi < h and 0 <= zi < d:
                    acc += wz * wy * wx * volume[zi, yi, xi]
    return acc


def bilinear_reference(fmap: np.ndarray, u: float, v: float) -> np.ndarray:
    """Closed-form bilinear interpolation on a zero-extended grid."""
    fmap = np.asarray(fmap, dtype=np.float64)
    c, h, w = fmap.shape

    def at(x: int, y: int) -> np.ndarray:
        if 0 <= x < w and 0 <= y < h:
            return fmap[:, y, x]
        return np.zeros(c)

    x0, y0 = int(np.floor(u)), int(np.floor(v))
    fu, fv = u - x0, v - y0
    top = (1 - fu) * at(x0, y0) + fu * at(x0 + 1, y0)
    bottom = (1 - fu) * at(x0, y0 + 1) + fu * at(x0 + 1, y0 + 1)
    return (1 - fv) * top + fv * bottom


def sample_volume_reference(f_pv, d_map, occupancy, grid, intrinsics, world_to_camera):
    """Per-voxel loop version of the pre-convolution sampled volume.

    Projects each voxel center individually, reads the image feature and
    depth likelihood through the scalar samplers and assembles the gated
    (2*C*Z, Y, X) volume cell by cell.
    """
    f_pv = np.asarray(f_pv, dtype=np.float64)
    c = f_pv.shape[0]
    nz, ny, nx = grid.counts
    centers = voxel_centers(grid)
    scaled = scale_intrinsics(intrinsics, d_map.stride)
    top = np.zeros((c, nz, ny, nx))
    bottom = np.zeros((c, nz, ny, nx))
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                world = centers[:, k, j, i]
                cam = world_to_camera.apply(world)
                if cam[2] <= 0:
                    continue
                # the feature coordinate less half a cell: cell j's centre is at j
                u = scaled.fx * (cam[0] / cam[2]) + scaled.cx - 0.5
                v = scaled.fy * (cam[1] / cam[2]) + scaled.cy - 0.5
                feat = bilinear_sample(f_pv, (u, v))
                b = float(depth_to_bin_coordinate(np.array(cam[2]), d_map.spec))
                likelihood = trilinear_sample(d_map.data, (u, v, b))
                top[:, k, j, i] = feat * likelihood
                bottom[:, k, j, i] = feat * occupancy[k, j, i]
    return np.concatenate([top, bottom], axis=0).reshape(2 * c * nz, ny, nx)


def sample_vt_reference(f_pv, d_map, occupancy, grid, intrinsics, world_to_camera, params):
    """Per-voxel loop version of the view transformation: the reference
    sampled volume through the same conv stack."""
    out = sample_volume_reference(f_pv, d_map, occupancy, grid, intrinsics, world_to_camera)
    for conv in params.post_convs:
        out = conv2d(out, conv)
    return out


def disk_pixels(u: int, v: int, radius: float, width: int, height: int) -> list[tuple[int, int]]:
    """In-bounds pixels within the closed disk of ``radius`` around (u, v),
    in row-major order."""
    r_int = int(math.floor(radius))
    pixels = []
    for dv in range(-r_int, r_int + 1):
        for du in range(-r_int, r_int + 1):
            uu, vv = u + du, v + dv
            if 0 <= uu < width and 0 <= vv < height and du * du + dv * dv <= radius * radius:
                pixels.append((uu, vv))
    return pixels


def target_losses_reference(depth_map, targets, spec, cfg) -> list[tuple[float, tuple[int, int], int, np.ndarray]]:
    """Per-target loop of the neighborhood loss.

    For each target: (selected loss, selected pixel, disk size, the loss of
    every disk pixel in row-major order). A target of radius 0 scores its
    pixel alone.
    """
    depth_map = np.asarray(depth_map, dtype=np.float64)
    _, height, width = depth_map.shape
    midpoints = spec.midpoints()
    out = []
    for t in targets:
        pixels = disk_pixels(t.u, t.v, t.radius, width, height)
        us = np.array([p[0] for p in pixels], dtype=np.intp)
        vs = np.array([p[1] for p in pixels], dtype=np.intp)
        dists = depth_map[:, vs, us]
        k = min(max(int(math.floor((t.d_gt - spec.d_min) / spec.bin_width)), 0), spec.num_bins - 1)
        ce = -np.log(np.maximum(dists[k], 1e-12))
        # Bin by bin in order: the expectation's last bit then does not
        # hang on how many pixels the disk holds.
        expectation = sum(m * p for m, p in zip(midpoints, dists))
        losses = cfg.lambda1 * ce + cfg.lambda2 * np.abs(expectation - t.d_gt)
        sel = int(np.argmin(losses) if cfg.neighborhood_agg == "min" else np.argmax(losses))
        out.append((float(losses[sel]), pixels[sel], len(pixels), losses))
    return out


def build_depth_targets_reference(points, calib, stride, cfg) -> tuple[list[DepthTarget], int, int]:
    """Per-point loop of the target build: (targets, num_input, num_dropped).

    Each point is transformed, projected and sized with scalar float math;
    points behind the camera or off the stride-``stride`` map are dropped.
    """
    r, t = calib.radar_to_camera.rotation.tolist(), calib.radar_to_camera.translation.tolist()
    k = calib.intrinsics
    targets, dropped = [], 0
    for p in points:
        x, y, z = (row[0] * p.x + row[1] * p.y + row[2] * p.z + ti for row, ti in zip(r, t))
        if z <= 0:
            dropped += 1
            continue
        us = math.floor((k.fx * (x / z) + k.cx) / stride)
        vs = math.floor((k.fy * (y / z) + k.cy) / stride)
        if not (0 <= us < calib.image_width // stride and 0 <= vs < calib.image_height // stride):
            dropped += 1
            continue
        if p.rcs_dbsm is not None:
            scale = 10.0 ** (p.rcs_dbsm / 20.0)
            radius = min(cfg.r_max, cfg.k * math.sqrt(k.fx * k.fy) / (stride * z) * scale)
        else:
            radius = min(cfg.r_max, cfg.fixed_r)
        targets.append(DepthTarget(us, vs, z, radius))
    return targets, len(points), dropped


class SceneObject(NamedTuple):
    """A frontal rectangle: camera-frame center, footprint area and depth.

    A named tuple, not a dataclass: the bench loads this file without
    registering it in ``sys.modules``, where ``dataclass`` looks it up.
    """

    center: tuple[float, float, float]
    size_m2: float
    true_depth: float
    rcs_dbsm: float

    @property
    def half_extent(self) -> float:
        return math.sqrt(self.size_m2) / 2.0

    def as_row(self) -> tuple[float, ...]:
        """The object as a scene table row (x, y, depth, size_m2, rcs_dbsm)."""
        return (self.center[0], self.center[1], self.true_depth, self.size_m2, self.rcs_dbsm)


def footprint_cells(obj: SceneObject, calib, stride: int) -> tuple[int, int, int, int] | None:
    """Inclusive (u0, u1, v0, v1) feature cells touched by the projected
    rect, in scalar Python floats; None where it touches none."""
    cx, cy, z = obj.center
    half = obj.half_extent
    fx, fy = calib.intrinsics.fx, calib.intrinsics.fy
    u_lo = (fx * (cx - half) / z + calib.intrinsics.cx) / stride
    u_hi = (fx * (cx + half) / z + calib.intrinsics.cx) / stride
    v_lo = (fy * (cy - half) / z + calib.intrinsics.cy) / stride
    v_hi = (fy * (cy + half) / z + calib.intrinsics.cy) / stride
    width_s = calib.image_width // stride
    height_s = calib.image_height // stride
    u0 = max(0, int(math.floor(u_lo)))
    u1 = min(width_s - 1, int(math.floor(u_hi)))
    v0 = max(0, int(math.floor(v_lo)))
    v1 = min(height_s - 1, int(math.floor(v_hi)))
    if u0 > u1 or v0 > v1:
        return None
    return u0, u1, v0, v1


def box_rows_reference(objects, calib, stride) -> list[tuple[float, ...]]:
    """One (u0, u1, v0, v1, depth) row per object, :data:`EMPTY_BOX` where it misses the map."""
    return [(*(footprint_cells(obj, calib, stride) or EMPTY_BOX), obj.true_depth) for obj in objects]


def points_for_reference(model, obj: SceneObject) -> int:
    """The number of returns of one object."""
    return max(1, int(round(model.points_base + model.points_size_scale * math.sqrt(obj.size_m2))))


def render_depth_map(objects, calib, stride) -> np.ndarray:
    """Rasterize object footprints into an (H_s, W_s) true-depth map;
    the nearest object wins and uncovered cells hold +inf."""
    depth = np.full((calib.image_height // stride, calib.image_width // stride), np.inf)
    for obj in objects:
        cells = footprint_cells(obj, calib, stride)
        if cells is None:
            continue
        u0, u1, v0, v1 = cells
        region = depth[v0 : v1 + 1, u0 : u1 + 1]
        np.minimum(region, obj.true_depth, out=region)
    return depth


def generate_objects_reference(seed, n_objects, extents) -> list[SceneObject]:
    """Scene objects from five scalar ``rng.uniform`` draws each."""
    rng = np.random.default_rng(seed)
    objects = []
    for _ in range(n_objects):
        azimuth = math.radians(rng.uniform(-extents.azimuth_max_deg, extents.azimuth_max_deg))
        elevation = math.radians(rng.uniform(-extents.elevation_max_deg, extents.elevation_max_deg))
        if rng.uniform() < extents.large_fraction:
            size = rng.uniform(*extents.large_size_range)
            depth = rng.uniform(*extents.large_depth_range)
        else:
            size = rng.uniform(*extents.small_size_range)
            depth = rng.uniform(*extents.small_depth_range)
        center = (depth * np.tan(azimuth), depth * np.tan(elevation), depth)
        objects.append(SceneObject(center, size, depth, rcs_from_size(size)))
    return objects


def apply_measurement_noise(point, model, res, rng) -> np.ndarray:
    """Perturb one radar-frame point in spherical coordinates about the
    radar's origin, within the angular resolution ``res``: forward is z,
    lateral x and up -y, as in the camera."""
    x, y, z = (float(c) for c in point)
    fwd, lat, up = z, x, -y
    rho = math.sqrt(fwd * fwd + lat * lat + up * up)
    theta = np.arctan2(lat, fwd)
    phi = np.arcsin(up / rho) if rho > 0 else 0.0
    delta_theta, delta_phi = res.delta_theta, res.delta_phi
    theta += rng.uniform(-delta_theta / 2.0, delta_theta / 2.0)
    phi += rng.uniform(-delta_phi / 2.0, delta_phi / 2.0)
    dr = rng.normal(0.0, model.range_sigma) if model.range_sigma > 0 else 0.0
    rho += float(np.clip(dr, -3.0 * model.range_sigma, 3.0 * model.range_sigma))
    rho = max(rho, 0.0)
    cos_phi = np.cos(phi)
    fwd, lat, up = rho * cos_phi * np.cos(theta), rho * cos_phi * np.sin(theta), rho * np.sin(phi)
    return np.array([lat, -up, fwd])


def simulate_radar_reference(objects, model, seed, calib) -> list[RadarPoint]:
    """Noisy returns one point at a time: every surface sample first (scalar
    dx, dy per return), then each sample mapped into the radar frame of
    ``calib`` on its own and perturbed there by its noise draws."""
    rng = np.random.default_rng(seed)
    camera_to_radar = calib.radar_to_camera.inverse()
    samples = []
    for obj in objects:
        half = obj.half_extent
        cx, cy, z = obj.center
        for _ in range(points_for_reference(model, obj)):
            dx = rng.uniform(-half, half)
            dy = rng.uniform(-half, half)
            samples.append((np.array([cx + dx, cy + dy, z]), obj))
    points = []
    for cam_point, obj in samples:
        noisy = apply_measurement_noise(camera_to_radar.apply(cam_point), model, calib.angular_resolution, rng)
        points.append(RadarPoint(float(noisy[0]), float(noisy[1]), float(noisy[2]), rcs_dbsm=obj.rcs_dbsm))
    return points


def evaluate_supervision_reference(depth_map, calib, stride, points, bins, radius_cfg, agg):
    """One scene's (hit rate, depth MAE, target count) from a per-target loop over its rendered map."""
    targets, _, _ = build_depth_targets_reference(points, calib, stride, radius_cfg)
    height, width = depth_map.shape
    errors = []
    for t in targets:
        errs = [abs(depth_map[v, u] - t.d_gt) for u, v in disk_pixels(t.u, t.v, t.radius, width, height)]
        errors.append(min(errs) if agg == "min" else max(errs))
    finite = [e for e in errors if math.isfinite(e)]
    hit_rate = sum(e <= bins.bin_width / 2.0 for e in errors) / len(errors) if errors else 0.0
    return hit_rate, float(np.mean(finite)) if finite else 0.0, len(errors)


def run_experiment_reference(cfg) -> ExperimentResult:
    """The supervision experiment one seed, then one arm, at a time; the
    per-seed metric triples are stacked into (arms, seeds) arrays at the end."""
    seeds = tuple(range(cfg.seed_start, cfg.seed_start + cfg.num_seeds))
    by_arm = {arm.name: [] for arm in cfg.arms}
    for seed in seeds:
        objects = generate_objects_reference(seed, cfg.n_objects, cfg.scene)
        depth_map = render_depth_map(objects, cfg.calibration, cfg.stride)
        points = simulate_radar_reference(objects, cfg.noise, seed + 1, cfg.calibration)
        stripped = [replace(p, rcs_dbsm=None) for p in points]
        for arm in cfg.arms:
            by_arm[arm.name].append(
                evaluate_supervision_reference(
                    depth_map, cfg.calibration, cfg.stride, points if arm.use_rcs else stripped,
                    cfg.bins, arm.radius, arm.agg,
                )
            )

    arms = {
        name: {
            "mean_hit_rate": float(np.mean([hit_rate for hit_rate, _, _ in triples])),
            "mean_depth_mae": float(np.mean([depth_mae for _, depth_mae, _ in triples])),
            "mean_n_targets": float(np.mean([n_targets for _, _, n_targets in triples])),
        }
        for name, triples in by_arm.items()
    }
    orderings = {}
    for better, worse in cfg.orderings:
        a = np.array([hit_rate for hit_rate, _, _ in by_arm[better]])
        b = np.array([hit_rate for hit_rate, _, _ in by_arm[worse]])
        index = np.random.default_rng(cfg.bootstrap_seed).integers(0, a.size, size=(cfg.bootstrap_samples, a.size))
        gap, low = bootstrap_gap(a, b, index)
        orderings[f"{better}>={worse}"] = {"gap_mean": gap, "gap_ci95_low": low, "holds": bool(low > 0.0)}
    summary = {
        "num_seeds": cfg.num_seeds,
        "seed_start": cfg.seed_start,
        "arms": arms,
        "orderings": orderings,
        "all_orderings_hold": bool(all(o["holds"] for o in orderings.values())),
    }
    metrics = SupervisionMetrics(
        *(np.array([[triple[i] for triple in triples] for triples in by_arm.values()]) for i in range(3))
    )
    return ExperimentResult(seeds, tuple(by_arm), metrics, summary)
