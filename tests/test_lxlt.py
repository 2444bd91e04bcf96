"""Tests for the LXLT binary tensor format and its parameter manifests."""

import dataclasses
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radarcam import lxlt
from radarcam.fusion import ConcatFusionParams, CSAFusionParams
from radarcam.view_transform import VTParams

from helpers import random_concat_params, random_csa_params, random_vt_params, read_params, write_manifest


def test_roundtrip_preserves_shape_and_values(tmp_path):
    rng = np.random.default_rng(3)
    arr = rng.normal(size=(2, 3, 4)).astype(np.float32).astype(np.float64)
    path = tmp_path / "t.lxlt"
    lxlt.write_tensor(path, arr)
    back = lxlt.read_tensor(path)
    assert back.shape == (2, 3, 4)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, arr)


def test_header_layout_is_exact(tmp_path):
    path = tmp_path / "t.lxlt"
    lxlt.write_tensor(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    blob = path.read_bytes()
    assert blob[:4] == b"LXLT"
    assert blob[4] == 1  # version
    assert blob[5] == 0  # float32 code
    assert blob[6] == 2  # rank
    assert struct.unpack("<2I", blob[7:15]) == (2, 2)
    assert struct.unpack("<4f", blob[15:]) == (1.0, 2.0, 3.0, 4.0)


@pytest.mark.parametrize(
    "view",
    [lambda a: a.T, lambda a: a[:, ::2], lambda a: a[::-1], lambda a: a[:0]],
    ids=["transposed", "strided", "reversed", "empty"],
)
def test_payload_of_a_view_is_its_row_major_float32_bytes(tmp_path, view):
    arr = view(np.linspace(-2.0, 2.0, 24).reshape(4, 6))
    path = tmp_path / "t.lxlt"
    lxlt.write_tensor(path, arr)
    assert path.read_bytes()[15:] == arr.astype("<f4").tobytes(order="C")


def test_write_then_read_is_byte_stable(tmp_path):
    arr = np.linspace(-1, 1, 30).reshape(5, 6)
    a, b = tmp_path / "a.lxlt", tmp_path / "b.lxlt"
    lxlt.write_tensor(a, arr)
    lxlt.write_tensor(b, lxlt.read_tensor(a))
    assert a.read_bytes() == b.read_bytes()


def test_empty_first_dimension_is_allowed(tmp_path):
    path = tmp_path / "empty.lxlt"
    lxlt.write_tensor(path, np.zeros((0, 4)))
    back = lxlt.read_tensor(path)
    assert back.shape == (0, 4)


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda b: b"XXXX" + b[4:], "magic"),
        (lambda b: b[:4] + bytes([9]) + b[5:], "version"),
        (lambda b: b[:5] + bytes([7]) + b[6:], "dtype"),
        (lambda b: b[:-2], "truncated"),
        (lambda b: b + b"\x00\x00", "trailing"),
    ],
)
def test_malformed_files_are_rejected(tmp_path, mutate, message):
    path = tmp_path / "t.lxlt"
    lxlt.write_tensor(path, np.ones((2, 2)))
    bad = tmp_path / "bad.lxlt"
    bad.write_bytes(mutate(path.read_bytes()))
    with pytest.raises(lxlt.TensorFormatError, match=message):
        lxlt.read_tensor(bad)


def test_non_finite_values_are_refused(tmp_path):
    with pytest.raises(lxlt.TensorFormatError):
        lxlt.write_tensor(tmp_path / "nan.lxlt", np.array([np.nan]))


@pytest.mark.parametrize("value", [1e39, -1e39, np.finfo(np.float64).max, np.inf, -np.inf, np.nan])
def test_values_without_a_finite_float32_are_refused_and_nothing_is_written(tmp_path, value):
    # A cast overflow would warn, and the suite turns RuntimeWarning into an error.
    path = tmp_path / "t.lxlt"
    with pytest.raises(lxlt.TensorFormatError, match="non-finite or outside the float32 range"):
        lxlt.write_tensor(path, np.array([[1.0, value], [2.0, 3.0]]))
    assert not path.exists()


def test_largest_float32_is_written(tmp_path):
    path = tmp_path / "t.lxlt"
    big = float(np.finfo(np.float32).max)
    lxlt.write_tensor(path, np.array([big, -big]))
    np.testing.assert_array_equal(lxlt.read_tensor(path), [big, -big])


def test_zero_rank_is_refused(tmp_path):
    with pytest.raises(lxlt.TensorFormatError):
        lxlt.write_tensor(tmp_path / "scalar.lxlt", np.float64(1.0))


float32_arrays = st.lists(st.integers(0, 5), min_size=1, max_size=4).flatmap(
    lambda shape: st.lists(
        st.floats(width=32, allow_nan=False, allow_infinity=False),
        min_size=math.prod(shape), max_size=math.prod(shape),
    ).map(lambda values: np.array(values, dtype=np.float64).reshape(shape))
)


@given(float32_arrays)
@settings(max_examples=100, deadline=None)
def test_roundtrip_of_any_float32_exact_array(tmp_path_factory, arr):
    path = tmp_path_factory.mktemp("lxlt") / "t.lxlt"
    lxlt.write_tensor(path, arr)
    back = lxlt.read_tensor(path)
    assert back.shape == arr.shape and back.dtype == np.float64
    np.testing.assert_array_equal(back, arr)
    again = path.with_name("again.lxlt")
    lxlt.write_tensor(again, back)
    assert again.read_bytes() == path.read_bytes()


def read_or_format_error(path):
    """The array read from ``path``, or None if it raised TensorFormatError;
    any other exception fails the test."""
    try:
        return lxlt.read_tensor(path)
    except lxlt.TensorFormatError:
        return None


@given(float32_arrays, st.data())
@settings(max_examples=100, deadline=None)
def test_truncated_files_raise_format_error(tmp_path_factory, arr, data):
    path = tmp_path_factory.mktemp("lxlt") / "t.lxlt"
    lxlt.write_tensor(path, arr)
    blob = path.read_bytes()
    path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1))])
    with pytest.raises(lxlt.TensorFormatError):
        lxlt.read_tensor(path)


@given(float32_arrays, st.data())
@settings(max_examples=150, deadline=None)
def test_corrupted_headers_raise_format_error_or_read_consistently(tmp_path_factory, arr, data):
    path = tmp_path_factory.mktemp("lxlt") / "t.lxlt"
    lxlt.write_tensor(path, arr)
    blob = bytearray(path.read_bytes())
    header_end = 7 + 4 * arr.ndim
    for _ in range(data.draw(st.integers(1, 4))):
        blob[data.draw(st.integers(0, header_end - 1))] = data.draw(st.integers(0, 255))
    path.write_bytes(bytes(blob))
    back = read_or_format_error(path)
    if back is not None:
        # A corruption that still parses describes exactly the bytes present.
        assert 7 + 4 * back.ndim + 4 * back.size == len(blob)
        assert np.isfinite(back).all()


@given(st.binary(max_size=64))
@settings(max_examples=200, deadline=None)
def test_arbitrary_bytes_raise_format_error_or_read(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("lxlt") / "t.lxlt"
    path.write_bytes(b"LXLT\x01\x00" + blob)
    back = read_or_format_error(path)
    assert back is None or 7 + 4 * back.ndim + 4 * back.size == len(blob) + 6


def test_non_finite_payload_is_refused(tmp_path):
    path = tmp_path / "t.lxlt"
    lxlt.write_tensor(path, np.ones(2))
    path.write_bytes(path.read_bytes()[:-4] + np.array([np.nan], dtype="<f4").tobytes())
    with pytest.raises(lxlt.TensorFormatError, match="non-finite"):
        lxlt.read_tensor(path)


def test_empty_shape_too_large_to_represent_is_a_format_error(tmp_path):
    path = tmp_path / "t.lxlt"
    path.write_bytes(b"LXLT\x01\x00\x03" + struct.pack("<3I", 0, 0xFFFFFFFF, 0xFFFFFFFF))
    with pytest.raises(lxlt.TensorFormatError, match="too large"):
        lxlt.read_tensor(path)


PARAMS = {
    "vt": (VTParams, lambda rng: random_vt_params(rng, 2, 3, 4, 3)),
    "csa": (CSAFusionParams, lambda rng: random_csa_params(rng, 3)),
    "concat": (ConcatFusionParams, lambda rng: random_concat_params(rng, 3)),
}


def float32_exact(value):
    """``value``, a parameter dataclass or one of its fields, with every
    array rounded to float32 as an LXLT file stores it."""
    if isinstance(value, np.ndarray):
        return value.astype(np.float32).astype(np.float64)
    if isinstance(value, tuple):
        return tuple(map(float32_exact, value))
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{f.name: float32_exact(getattr(value, f.name)) for f in dataclasses.fields(value)})
    return value


class TestReadManifest:
    @pytest.mark.parametrize("kind", sorted(PARAMS))
    def test_roundtrip(self, tmp_path, kind):
        cls, make = PARAMS[kind]
        params = make(np.random.default_rng(4))
        loaded = read_params(cls, write_manifest(tmp_path, params), tmp_path)
        assert type(loaded) is cls
        np.testing.assert_equal(dataclasses.astuple(loaded), dataclasses.astuple(float32_exact(params)))

    @pytest.mark.parametrize(
        "kind,edit,message",
        [
            ("vt", lambda p: p["post_convs"][1].pop("bias"), "manifest.params.post_convs[1].bias must be a file name, got None"),
            (
                "vt",
                lambda p: p.update(post_convs="post_convs0.weights.lxlt"),
                "manifest.params.post_convs must be a JSON list, got 'post_convs0.weights.lxlt'",
            ),
            (
                "vt",
                lambda p: p.update(embedding="embedding.weights.lxlt"),
                "manifest.params.embedding must be a JSON object, got 'embedding.weights.lxlt'",
            ),
            ("concat", lambda p: p["second"].pop("weights"), "manifest.params.second.weights must be a file name, got None"),
            ("concat", lambda p: p["second"].update(weights=3), "manifest.params.second.weights must be a file name, got 3"),
            ("concat", lambda p: p["second"].update(stride=2), "manifest.params.second has no key 'stride'"),
            ("csa", lambda p: p["channel_mlp_radar"].update(hidden=1), "manifest.params.channel_mlp_radar has no key 'hidden'"),
            (
                "vt",
                lambda p: p.update(post_convs=p["post_convs"][:1]),
                "manifest.params.post_convs must be a JSON list of 3 items, "
                "got [{'weights': 'post_convs0.weights.lxlt', 'bias': 'post_convs0.bias.lxlt'}]",
            ),
        ],
        ids=[
            "post_conv_without_bias", "post_convs_not_a_list", "embedding_as_a_string", "concat_without_weights",
            "weights_as_a_number", "layer_with_a_stride", "mlp_with_an_unknown_key", "two_post_convs",
        ],
    )
    def test_bad_entry_is_named(self, tmp_path, kind, edit, message):
        cls, make = PARAMS[kind]
        manifest = write_manifest(tmp_path, make(np.random.default_rng(6)))
        edit(manifest["params"])
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            read_params(cls, manifest, tmp_path)

    @pytest.mark.parametrize("value", [None, [{"weights": "a"}]])
    def test_params_that_is_not_an_object_is_named(self, tmp_path, value):
        with pytest.raises(ValueError, match=f"^manifest.params must be a JSON object, got {re.escape(repr(value))}$"):
            read_params(VTParams, {"params": value}, tmp_path)
