"""Tests for the concatenation baseline and the attention fusion block."""

import dataclasses
import re

import numpy as np
import pytest

from radarcam import fusion
from radarcam.fusion import (
    CSAFusionParams,
    ConcatFusionParams,
    channel_attention,
    concat_fusion,
    csa_fusion,
    spatial_attention,
)
from radarcam.tensor_ops import Conv2DParams, LinearParams, MLPParams, ShapeError, conv2d

from helpers import (
    identity_conv,
    random_conv,
    random_csa_params,
    random_mlp,
    read_params,
    selection_conv,
    write_manifest,
    zero_conv,
    zero_csa_params,
    zero_mlp,
)
from oracles import csa_fusion_reference

C, Y, X = 6, 4, 5


def random_maps(seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(C, Y, X)), rng.normal(size=(C, Y, X))


def concatenated(f_r, f_i):
    return np.concatenate([f_r, f_i], axis=0)


def scaled_error(got, want):
    assert got.shape == want.shape
    return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))


class TestConcatFusion:
    def test_zero_params_give_zero_output(self):
        f_r, f_i = random_maps(0)
        params = ConcatFusionParams(zero_conv(C, 2 * C, 3), zero_conv(C, C, 3))
        np.testing.assert_array_equal(concat_fusion(f_r, f_i, params), np.zeros((C, Y, X)))

    def test_radar_selection_kernel(self):
        f_r, f_i = random_maps(1)
        params = ConcatFusionParams(selection_conv(2 * C, C, offset=0), identity_conv(C))
        np.testing.assert_allclose(concat_fusion(f_r, f_i, params), f_r, atol=1e-12)

    def test_image_selection_by_swapped_kernel(self):
        f_r, f_i = random_maps(2)
        params = ConcatFusionParams(selection_conv(2 * C, C, offset=C), identity_conv(C))
        np.testing.assert_allclose(concat_fusion(f_r, f_i, params), f_i, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        params = ConcatFusionParams(zero_conv(C, 2 * C, 3), zero_conv(C, C, 3))
        with pytest.raises(ShapeError):
            concat_fusion(np.zeros((C, Y, X)), np.zeros((C, Y, X + 1)), params)


    def test_second_conv_must_take_the_first_conv_output(self):
        with pytest.raises(ShapeError, match=f"second takes {C + 1} channels, first gives {C}"):
            ConcatFusionParams(zero_conv(C, 2 * C, 3), zero_conv(C, C + 1, 3))


class TestChannelAttention:
    def test_zero_params_halve_the_features(self):
        f_r, f_i = random_maps(3)
        w_r, w_i = channel_attention(concatenated(f_r, f_i), zero_csa_params(C))
        np.testing.assert_array_equal(w_r, np.full(C, 0.5))
        np.testing.assert_array_equal(w_i, np.full(C, 0.5))

    def test_saturating_bias_passes_features_through(self):
        f_r, f_i = random_maps(4)
        params = zero_csa_params(C)
        saturated = CSAFusionParams(
            in_conv=params.in_conv,
            channel_mlp_radar=zero_mlp(C, final_bias=40.0),
            channel_mlp_image=zero_mlp(C, final_bias=40.0),
            mid_conv=random_conv(np.random.default_rng(4), C, 2 * C, 3),
            spatial_conv_radar=params.spatial_conv_radar,
            spatial_conv_image=params.spatial_conv_image,
            out_conv=params.out_conv,
        )
        x = concatenated(f_r, f_i)
        w_r, w_i = channel_attention(x, saturated)
        np.testing.assert_array_equal(w_r, np.ones(C))  # sigmoid(40.0) == 1.0
        # unit gates fold into mid_conv as no change at all
        ones = np.ones(C)
        for got, want in zip(spatial_attention(x, w_r, w_i, saturated), spatial_attention(x, ones, ones, saturated)):
            np.testing.assert_array_equal(got, want)

    def test_weights_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(5)
        f_r, f_i = random_maps(5)
        w_r, w_i = channel_attention(concatenated(f_r, f_i), random_csa_params(rng, C))
        for w in (w_r, w_i):
            assert w.shape == (C,)
            assert np.all(w > 0.0) and np.all(w < 1.0)


class TestSpatialAttention:
    def test_zero_params_halve_the_features(self):
        f_r, f_i = random_maps(6)
        half = np.full(C, 0.5)
        s_r, s_i = spatial_attention(concatenated(f_r, f_i), half, half, zero_csa_params(C))
        np.testing.assert_array_equal(s_r, np.full((1, Y, X), 0.5))
        np.testing.assert_array_equal(s_i, np.full((1, Y, X), 0.5))

    def test_constant_input_gives_spatially_constant_weights(self):
        rng = np.random.default_rng(7)
        params = random_csa_params(rng, C)
        f_r = np.ones((C, 12, 14)) * 0.3
        f_i = np.ones((C, 12, 14)) * -0.7
        ones = np.ones(C)
        s_r, s_i = spatial_attention(concatenated(f_r, f_i), ones, ones, params)
        # zero padding contaminates a 4-pixel band (3x3 then 7x7 kernels);
        # translation invariance holds on the interior
        for s in (s_r, s_i):
            assert np.ptp(s[0, 4:-4, 4:-4]) < 1e-12

    def test_weight_maps_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(8)
        f_r, f_i = random_maps(8)
        params = random_csa_params(rng, C)
        x = concatenated(f_r, f_i)
        s_r, s_i = spatial_attention(x, *channel_attention(x, params), params)
        for s in (s_r, s_i):
            assert s.shape == (1, Y, X)
            assert np.all(s > 0.0) and np.all(s < 1.0)

    def test_gates_of_the_wrong_length_rejected(self):
        f_r, f_i = random_maps(9)
        with pytest.raises(ShapeError, match=f"channel gates hold \\({2 * C - 1},\\) weights, the conv takes {2 * C}"):
            spatial_attention(concatenated(f_r, f_i), np.ones(C), np.ones(C - 1), zero_csa_params(C))


class TestCSAFusion:
    def test_zero_params_compose_quarter_gate(self):
        f_r, f_i = random_maps(9)
        params = zero_csa_params(C)
        full = CSAFusionParams(
            in_conv=params.in_conv,
            channel_mlp_radar=params.channel_mlp_radar,
            channel_mlp_image=params.channel_mlp_image,
            mid_conv=params.mid_conv,
            spatial_conv_radar=params.spatial_conv_radar,
            spatial_conv_image=params.spatial_conv_image,
            out_conv=selection_conv(2 * C, C, offset=0),
        )
        np.testing.assert_array_equal(csa_fusion(f_r, f_i, full), 0.25 * f_r)

    def test_zero_inputs_give_pure_bias_response(self):
        rng = np.random.default_rng(10)
        params = random_csa_params(rng, C)
        zeros = np.zeros((C, Y, X))
        out1 = csa_fusion(zeros, zeros, params)
        out2 = csa_fusion(zeros, zeros, params)
        np.testing.assert_array_equal(out1, out2)
        # a pure-bias response cannot depend on which modality slot is which
        np.testing.assert_array_equal(out1, csa_fusion(zeros, zeros.copy(), params))

    def test_modality_permutation_symmetry(self):
        rng = np.random.default_rng(11)
        params = random_csa_params(rng, C)
        f_r, f_i = random_maps(11)

        def swap_blocks(conv):
            w = conv.weights.copy()
            swapped = np.concatenate([w[:, C:], w[:, :C]], axis=1)
            return Conv2DParams(swapped, conv.bias)

        mirrored = CSAFusionParams(
            in_conv=swap_blocks(params.in_conv),
            channel_mlp_radar=params.channel_mlp_image,
            channel_mlp_image=params.channel_mlp_radar,
            mid_conv=swap_blocks(params.mid_conv),
            spatial_conv_radar=params.spatial_conv_image,
            spatial_conv_image=params.spatial_conv_radar,
            out_conv=swap_blocks(params.out_conv),
        )
        out = csa_fusion(f_r, f_i, params)
        swapped = csa_fusion(f_i, f_r, mirrored)
        np.testing.assert_allclose(out, swapped, atol=1e-12)

    def test_gate_factorization_identity(self):
        """The fused map is out_conv over the maps gated by both stages'
        gates, and the same as the paper's order of gated copies."""
        rng = np.random.default_rng(12)
        params = random_csa_params(rng, C)
        f_r, f_i = random_maps(12)
        x = concatenated(f_r, f_i)
        wc_r, wc_i = channel_attention(x, params)
        ws_r, ws_i = spatial_attention(x, wc_r, wc_i, params)
        gated = concatenated(wc_r[:, None, None] * ws_r * f_r, wc_i[:, None, None] * ws_i * f_i)
        got = csa_fusion(f_r, f_i, params)
        assert scaled_error(got, conv2d(gated, params.out_conv)) <= 1e-12
        assert scaled_error(got, csa_fusion_reference(f_r, f_i, params)) <= 1e-12

    def test_degenerate_image_still_gates_and_responds_to_radar(self):
        rng = np.random.default_rng(13)
        params = random_csa_params(rng, C)
        f_r, _ = random_maps(13)
        zero_img = np.zeros((C, Y, X))
        _, wc_i = channel_attention(concatenated(f_r, zero_img), params)
        assert np.all((wc_i > 0.0) & (wc_i < 1.0))
        out_a = csa_fusion(f_r, zero_img, params)
        out_b = csa_fusion(f_r + 0.5, zero_img, params)
        assert np.max(np.abs(out_a - out_b)) > 0.0

    def test_saturated_gates_match_concat_fusion(self):
        rng = np.random.default_rng(14)
        f_r, f_i = random_maps(14)
        out_conv = Conv2DParams(
            rng.normal(0.0, 0.5, size=(C, 2 * C, 3, 3)), rng.normal(0.0, 0.1, size=C)
        )
        saturated = CSAFusionParams(
            in_conv=zero_conv(C, 2 * C, 3),
            channel_mlp_radar=zero_mlp(C, final_bias=40.0),
            channel_mlp_image=zero_mlp(C, final_bias=40.0),
            mid_conv=zero_conv(C, 2 * C, 3),
            spatial_conv_radar=zero_conv(1, 2, 7, bias=40.0),
            spatial_conv_image=zero_conv(1, 2, 7, bias=40.0),
            out_conv=out_conv,
        )
        concat = ConcatFusionParams(first=out_conv, second=identity_conv(C))
        got = csa_fusion(f_r, f_i, saturated)
        want = concat_fusion(f_r, f_i, concat)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_bottleneck_width(self):
        assert CSAFusionParams.bottleneck_width(6) == 2
        assert CSAFusionParams.bottleneck_width(7) == 2
        assert CSAFusionParams.bottleneck_width(2) == 1

    def test_channel_mlp_shape_enforced(self):
        params = zero_csa_params(C)
        with pytest.raises(ShapeError, match="channel MLP"):
            CSAFusionParams(
                in_conv=params.in_conv,
                channel_mlp_radar=MLPParams(
                    (LinearParams(np.zeros((2, C + 1)), np.zeros(2)),
                     LinearParams(np.zeros((C, 2)), np.zeros(C)))
                ),
                channel_mlp_image=params.channel_mlp_image,
                mid_conv=params.mid_conv,
                spatial_conv_radar=params.spatial_conv_radar,
                spatial_conv_image=params.spatial_conv_image,
                out_conv=params.out_conv,
            )


    @pytest.mark.parametrize("name", ["in_conv", "mid_conv", "out_conv"])
    def test_mixing_convs_take_both_modalities(self, name):
        with pytest.raises(ShapeError, match=rf"{name} takes {2 * C - 1} channels, needs 2 x {C}"):
            dataclasses.replace(zero_csa_params(C), **{name: zero_conv(C, 2 * C - 1, 3)})


def conv_of(rng, out_ch, in_ch, kernel):
    """A conv with random weights and a (kh, kw) kernel."""
    w = rng.normal(0.0, 0.5, size=(out_ch, in_ch, *kernel))
    return Conv2DParams(w, rng.normal(0.0, 0.1, size=out_ch))


class TestCSAFusionMatchesReference:
    """The folded gates give the paper's gated copies' result: the oracle
    builds ``w * f`` and ``s * (w * f)`` and runs every conv as nested loops."""

    @pytest.mark.parametrize(
        "c,shape,mix,spatial",
        [
            (1, (3, 4), (3, 3), (7, 7)),
            (2, (5, 6), (1, 1), (3, 3)),
            (3, (4, 5), (3, 5), (7, 7)),
            (4, (6, 3), (5, 5), (5, 3)),
            (5, (7, 8), (3, 3), (7, 7)),
        ],
    )
    def test_equals_the_gated_copies(self, c, shape, mix, spatial):
        rng = np.random.default_rng(c)
        params = CSAFusionParams(
            in_conv=conv_of(rng, c, 2 * c, mix),
            channel_mlp_radar=random_mlp(rng, c),
            channel_mlp_image=random_mlp(rng, c),
            mid_conv=conv_of(rng, c, 2 * c, mix),
            spatial_conv_radar=conv_of(rng, 1, 2, spatial),
            spatial_conv_image=conv_of(rng, 1, 2, spatial),
            out_conv=conv_of(rng, c, 2 * c, mix),
        )
        f_r, f_i = rng.normal(size=(c, *shape)), rng.normal(size=(c, *shape))
        assert scaled_error(csa_fusion(f_r, f_i, params), csa_fusion_reference(f_r, f_i, params)) <= 1e-12

    def test_inputs_unchanged_and_read_only_inputs_accepted(self):
        """The spatial gates scale csa_fusion's own concatenation in place,
        never an input."""
        params = random_csa_params(np.random.default_rng(15), C)
        f_r, f_i = random_maps(15)
        want = csa_fusion(f_r.copy(), f_i.copy(), params)
        keep_r, keep_i = f_r.copy(), f_i.copy()
        for f in (f_r, f_i):
            f.setflags(write=False)
        np.testing.assert_array_equal(csa_fusion(f_r, f_i, params), want)
        np.testing.assert_array_equal(f_r, keep_r)
        np.testing.assert_array_equal(f_i, keep_i)


class TestCSAStages:
    def test_one_call_makes_five_convs_and_calls_each_stage_once(self, monkeypatch):
        """The bench tracer wraps these names in ``radarcam.fusion``; a
        refactor that stops calling them would read its CSA metrics as 0."""
        calls = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("conv2d", "channel_attention", "spatial_attention"):
            monkeypatch.setattr(fusion, name, counting(name, getattr(fusion, name)))
        csa_fusion(*random_maps(16), random_csa_params(np.random.default_rng(16), C))
        assert calls == {"conv2d": 5, "channel_attention": 1, "spatial_attention": 1}


class TestCSAManifest:
    def test_roundtrip(self, tmp_path):
        params = random_csa_params(np.random.default_rng(5), C)
        manifest = write_manifest(tmp_path, params)
        loaded = read_params(CSAFusionParams, manifest, tmp_path)
        f_r, f_i = random_maps(6)
        np.testing.assert_allclose(
            csa_fusion(f_r, f_i, loaded), csa_fusion(f_r, f_i, params), rtol=1e-5, atol=1e-5
        )

    @pytest.mark.parametrize(
        "path,name",
        [(("mid_conv",), "mid_conv"), (("channel_mlp_image", "layers", 1), "channel_mlp_image.layers[1]")],
    )
    def test_missing_bias_names_the_entry(self, tmp_path, path, name):
        manifest = write_manifest(tmp_path, zero_csa_params(C))
        entry = manifest["params"]
        for key in path:
            entry = entry[key]
        del entry["bias"]
        with pytest.raises(ValueError, match="^" + re.escape(f"manifest.params.{name}.bias must be a file name, got None")):
            read_params(CSAFusionParams, manifest, tmp_path)

    def test_entry_that_is_not_an_object_is_named(self, tmp_path):
        manifest = write_manifest(tmp_path, zero_csa_params(C))
        manifest["params"]["out_conv"] = "out_conv.weights.lxlt"
        with pytest.raises(ValueError, match="^manifest.params.out_conv must be a JSON object, got 'out_conv.weights.lxlt'$"):
            read_params(CSAFusionParams, manifest, tmp_path)
