"""Shared builders for test parameters, the comparison of experiment
results and of arrays bit for bit, and the traced peak of a call."""

from __future__ import annotations

import dataclasses
import json
import tracemalloc

import numpy as np

from radarcam import lxlt
from radarcam.fusion import CSAFusionParams, ConcatFusionParams
from radarcam.tensor_ops import Conv2DParams, LinearParams, MLPParams
from radarcam.view_transform import VTParams


def identity_conv(channels: int, kernel: int = 3) -> Conv2DParams:
    """Same-padded conv that reproduces its input exactly."""
    w = np.zeros((channels, channels, kernel, kernel))
    mid = kernel // 2
    for c in range(channels):
        w[c, c, mid, mid] = 1.0
    return Conv2DParams(w, np.zeros(channels))


def selection_conv(in_channels: int, out_channels: int, offset: int, kernel: int = 3) -> Conv2DParams:
    """Same-padded conv that copies input channels [offset, offset+out)."""
    w = np.zeros((out_channels, in_channels, kernel, kernel))
    mid = kernel // 2
    for c in range(out_channels):
        w[c, offset + c, mid, mid] = 1.0
    return Conv2DParams(w, np.zeros(out_channels))


def random_conv(rng: np.random.Generator, out_ch: int, in_ch: int, kernel: int) -> Conv2DParams:
    w = rng.normal(0.0, 0.5, size=(out_ch, in_ch, kernel, kernel))
    b = rng.normal(0.0, 0.1, size=out_ch)
    return Conv2DParams(w, b)


def random_linear(rng: np.random.Generator, out_f: int, in_f: int) -> LinearParams:
    return LinearParams(rng.normal(0.0, 0.5, size=(out_f, in_f)), rng.normal(0.0, 0.1, size=out_f))


def random_mlp(rng: np.random.Generator, channels: int) -> MLPParams:
    hidden = max(1, channels // 3)
    return MLPParams((random_linear(rng, hidden, channels), random_linear(rng, channels, hidden)))


def zero_mlp(channels: int, final_bias: float = 0.0) -> MLPParams:
    hidden = max(1, channels // 3)
    return MLPParams(
        (
            LinearParams(np.zeros((hidden, channels)), np.zeros(hidden)),
            LinearParams(np.zeros((channels, hidden)), np.full(channels, final_bias)),
        )
    )


def zero_conv(out_ch: int, in_ch: int, kernel: int, bias: float = 0.0) -> Conv2DParams:
    return Conv2DParams(np.zeros((out_ch, in_ch, kernel, kernel)), np.full(out_ch, bias))


def zero_csa_params(channels: int) -> CSAFusionParams:
    """All-zero attention parameters: every gate sits at sigmoid(0) = 0.5."""
    return CSAFusionParams(
        in_conv=zero_conv(channels, 2 * channels, 3),
        channel_mlp_radar=zero_mlp(channels),
        channel_mlp_image=zero_mlp(channels),
        mid_conv=zero_conv(channels, 2 * channels, 3),
        spatial_conv_radar=zero_conv(1, 2, 7),
        spatial_conv_image=zero_conv(1, 2, 7),
        out_conv=zero_conv(channels, 2 * channels, 3),
    )


def random_csa_params(rng: np.random.Generator, channels: int) -> CSAFusionParams:
    return CSAFusionParams(
        in_conv=random_conv(rng, channels, 2 * channels, 3),
        channel_mlp_radar=random_mlp(rng, channels),
        channel_mlp_image=random_mlp(rng, channels),
        mid_conv=random_conv(rng, channels, 2 * channels, 3),
        spatial_conv_radar=random_conv(rng, 1, 2, 7),
        spatial_conv_image=random_conv(rng, 1, 2, 7),
        out_conv=random_conv(rng, channels, 2 * channels, 3),
    )


def random_concat_params(rng: np.random.Generator, channels: int) -> ConcatFusionParams:
    return ConcatFusionParams(
        first=random_conv(rng, channels, 2 * channels, 3),
        second=random_conv(rng, channels, channels, 3),
    )


def random_vt_params(
    rng: np.random.Generator,
    c: int,
    z: int,
    d: int,
    radar_channels: int,
) -> VTParams:
    return VTParams(
        occupancy_conv=random_conv(rng, z, radar_channels, 1),
        depth_conv=random_conv(rng, d, c, 1),
        embedding=random_linear(rng, c, 9),
        post_convs=(
            random_conv(rng, c, 2 * c * z, 3),
            random_conv(rng, c, c, 3),
            random_conv(rng, c, c, 3),
        ),
    )


def write_manifest(root, params) -> dict:
    """Every array of the parameter dataclass ``params`` written as LXLT
    under ``root``, named after its path, such as ``post_convs1.bias.lxlt``;
    returns the JSON manifest ``{"params": ...}`` naming them."""

    def entry(name, value):
        if isinstance(value, np.ndarray):
            lxlt.write_tensor(root / f"{name}.lxlt", value)
            return f"{name}.lxlt"
        if isinstance(value, tuple):
            return [entry(f"{name}{i}", x) for i, x in enumerate(value)]
        return {f.name: entry(f"{name}.{f.name}", getattr(value, f.name)) for f in dataclasses.fields(value)}

    fields = dataclasses.fields(params)
    return json.loads(json.dumps({"params": {f.name: entry(f.name, getattr(params, f.name)) for f in fields}}))


def read_params(cls, manifest: dict, root):
    """The ``params`` entry of a ``write_manifest`` manifest, read as ``cls``
    with its file names relative to ``root``, as ``fuse`` reads it."""
    return lxlt.read_manifest(cls, manifest["params"], "manifest.params", root)


def assert_results_equal(got, want) -> None:
    """Two ``ExperimentResult``s are equal: their seeds, arm names and
    summary by ``==``, and each metric array exactly, with the same dtype."""
    assert (got.seeds, got.arms, got.summary) == (want.seeds, want.arms, want.summary)
    assert got.metrics._fields == want.metrics._fields
    for name, values, wanted in zip(got.metrics._fields, got.metrics, want.metrics):
        np.testing.assert_array_equal(values, wanted, err_msg=name, strict=True)


def assert_same_bits(got, want) -> None:
    """``got`` and ``want`` have the same dtype, shape and raw bytes.

    ``np.testing.assert_array_equal`` passes ``-0.0`` against ``0.0`` and a
    NaN against any NaN, so it cannot back a claim that two results are
    bit-identical; this can. A mismatch names the first element that differs.
    """
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape), (
        f"{got.dtype} {got.shape} != {want.dtype} {want.shape}"
    )
    if got.tobytes() != want.tobytes():
        rows = [np.frombuffer(a.tobytes(), np.uint8).reshape(a.size, -1) for a in (got, want)]
        differs = (rows[0] != rows[1]).any(axis=1)
        first = np.unravel_index(int(np.argmax(differs)), got.shape)
        raise AssertionError(
            f"{int(differs.sum())} of {got.size} elements differ in their bits, "
            f"first at {tuple(map(int, first))}: {got[first]!r} != {want[first]!r}"
        )


def traced_peak(fn, *args) -> int:
    """Peak bytes that ``fn(*args)`` allocates, under tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
