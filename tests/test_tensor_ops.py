"""Tests for the dense numeric primitives."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from radarcam import tensor_ops
from radarcam.tensor_ops import (
    Conv2DParams,
    LinearParams,
    MLPParams,
    ShapeError,
    conv2d,
    mlp,
    sigmoid,
    softmax,
)

from helpers import assert_same_bits, traced_peak
from oracles import bilinear_reference, bilinear_sample, conv2d_naive, sigmoid_two_branch, trilinear_sample

# A conv's traced peak beyond its output: one band of padded input and one
# band-sized partial product, each about tensor_ops.CONV_BAND_BYTES.
BAND_ALLOWANCE = 2 * 2**20

SIGMOID_SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 40.0, -746.0)


class TestConv2D:
    def test_identity_1x1_kernel_is_exact(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 5, 7))
        params = Conv2DParams(np.ones((1, 1, 1, 1)), np.zeros(1))
        np.testing.assert_array_equal(conv2d(x, params), x)

    def test_zero_weights_give_constant_bias_map(self):
        x = np.random.default_rng(1).normal(size=(3, 4, 4))
        params = Conv2DParams(np.zeros((2, 3, 3, 3)), np.array([5.0, -1.5]))
        out = conv2d(x, params)
        np.testing.assert_array_equal(out[0], np.full((4, 4), 5.0))
        np.testing.assert_array_equal(out[1], np.full((4, 4), -1.5))

    def test_averaging_kernel_on_constant_interior(self):
        # hand evaluation: nine interior taps of value 7 times 1/9 sum to 7
        x = np.full((1, 5, 5), 7.0)
        params = Conv2DParams(np.full((1, 1, 3, 3), 1.0 / 9.0), np.zeros(1))
        out = conv2d(x, params)
        assert out[0, 2, 2] == pytest.approx(7.0, abs=1e-12)

    def test_channel_mismatch_raises(self):
        params = Conv2DParams(np.zeros((1, 2, 3, 3)), np.zeros(1))
        with pytest.raises(ShapeError, match="channels"):
            conv2d(np.zeros((3, 4, 4)), params)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            Conv2DParams(np.zeros((1, 1, 2, 2)), np.zeros(1))

    def test_a_conv_is_its_weights_and_bias_same_padded_at_stride_1(self):
        assert [f.name for f in dataclasses.fields(Conv2DParams)] == ["weights", "bias"]
        params = Conv2DParams(np.zeros((2, 1, 5, 3)), np.ones(2))
        assert params.padding == (2, 2, 1, 1) and params.stride == 1
        same = Conv2DParams.same(params.weights, params.bias)
        np.testing.assert_array_equal(same.weights, params.weights)
        np.testing.assert_array_equal(same.bias, params.bias)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        c_in = int(rng.integers(1, 9))
        c_out = int(rng.integers(1, 5))
        h = int(rng.integers(7, 17))
        w = int(rng.integers(7, 17))
        k = int(rng.choice([1, 3, 7]))
        x = rng.normal(size=(c_in, h, w))
        weights = rng.normal(size=(c_out, c_in, k, k))
        bias = rng.normal(size=c_out)
        params = Conv2DParams(weights, bias)
        got = conv2d(x, params)
        want = conv2d_naive(x, weights, bias, params.padding)
        assert got.shape == want.shape == (c_out, h, w)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) / scale < 1e-6

    @given(
        st.integers(0, 3),  # kernel height index into 1, 3, 5, 7
        st.integers(0, 3),  # kernel width index
        st.integers(0, 3),  # input channels
        st.integers(0, 3),  # output channels
        st.integers(1, 9),  # input height
        st.integers(1, 9),  # input width
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_shifted_gemms_match_naive_oracle(self, khi, kwi, c_in, c_out, h, w, seed):
        kh, kw = 2 * khi + 1, 2 * kwi + 1
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(c_in, h, w))
        weights = rng.normal(size=(c_out, c_in, kh, kw))
        bias = rng.normal(size=c_out)
        got = conv2d(x, Conv2DParams(weights, bias))
        want = conv2d_naive(x, weights, bias, (khi, khi, kwi, kwi))
        assert got.shape == want.shape == (c_out, h, w)
        if want.size:
            assert np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))) <= 1e-12

    @given(
        st.sampled_from(["contiguous", "transposed", "strided", "float32", "int"]),
        st.sampled_from([(1, 1), (1, 3), (3, 1), (1, 5), (5, 1), (3, 3), (1, 7), (7, 1)]),
        st.integers(0, 3),  # input channels
        st.integers(1, 3),  # output channels
        st.integers(1, 4),  # input height
        st.integers(1, 4),  # input width
        st.integers(0, 2**31 - 1),
    )
    @example("transposed", (3, 3), 2, 2, 1, 1, 0)  # a 1x1 map
    @example("strided", (1, 1), 3, 2, 1, 1, 1)  # a 1x1 map, 1x1 kernel
    @example("contiguous", (1, 3), 0, 2, 4, 4, 2)  # no input channels
    @example("int", (5, 1), 2, 1, 4, 3, 3)
    @settings(max_examples=80, deadline=None)
    def test_layouts_and_dtypes_match_naive_oracle(self, layout, kernel, c_in, c_out, h, w, seed):
        """Non-contiguous and non-float64 inputs, 1xk and kx1 kernels and
        maps down to 1x1."""
        kh, kw = kernel
        rng = np.random.default_rng(seed)
        if layout == "transposed":
            x = rng.normal(size=(c_in, w, h)).transpose(0, 2, 1)
        elif layout == "strided":
            x = rng.normal(size=(2 * c_in, 2 * h, 3 * w))[::2, ::2, ::3]
        elif layout == "float32":
            x = rng.normal(size=(c_in, h, w)).astype(np.float32)
        elif layout == "int":
            x = rng.integers(-9, 10, size=(c_in, h, w))
        else:
            x = rng.normal(size=(c_in, h, w))
        assert x.shape == (c_in, h, w)
        weights = rng.normal(size=(c_out, c_in, kh, kw))
        bias = rng.normal(size=c_out)
        got = conv2d(x, Conv2DParams(weights, bias))
        want = conv2d_naive(x, weights, bias, (kh // 2, kh // 2, kw // 2, kw // 2))
        assert got.shape == want.shape == (c_out, h, w) and got.dtype == np.float64
        # a transposed view of the accumulator would be a valid result too,
        # but every later elementwise pass over it would run slower
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))) <= 1e-12

    @pytest.mark.parametrize("kernel", [(1, 1), (3, 5)])
    @pytest.mark.parametrize("shape", [(0, 4), (4, 0)])
    def test_empty_map_rejected(self, kernel, shape):
        params = Conv2DParams(np.zeros((1, 2, *kernel)), np.zeros(1))
        with pytest.raises(ShapeError, match=rf"^input map {shape[0]}x{shape[1]} is empty$"):
            conv2d(np.zeros((2, *shape)), params)

    def test_peak_memory_stays_below_the_output_plus_a_band(self):
        # the shape of a post-transform conv: many folded channels mixed down
        rng = np.random.default_rng(3)
        x = rng.normal(size=(128, 64, 64))
        params = Conv2DParams(rng.normal(size=(32, 128, 3, 3)), rng.normal(size=32))
        assert traced_peak(conv2d, x, params) < 32 * 64 * 64 * 8 + BAND_ALLOWANCE

    def test_peak_memory_at_the_csa_shape_stays_below_the_output_plus_a_band(self):
        # the shape of CSA's in_conv and mid_conv at tier L: 64 channels mixed down to 32
        rng = np.random.default_rng(4)
        x = rng.normal(size=(64, 128, 128))
        params = Conv2DParams(rng.normal(size=(32, 64, 3, 3)), rng.normal(size=32))
        assert traced_peak(conv2d, x, params) < 32 * 128 * 128 * 8 + BAND_ALLOWANCE

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_1x1_equals_one_gemm_plus_bias_bitwise(self, c_in, c_out, h, w, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(c_in, h, w))
        weights, bias = rng.normal(size=(c_out, c_in, 1, 1)), rng.normal(size=c_out)
        got = conv2d(x, Conv2DParams(weights, bias))
        want = (weights[:, :, 0, 0] @ x.reshape(c_in, -1) + bias[:, None]).reshape(c_out, h, w)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def band_bytes(x: np.ndarray, kw: int, rows: int) -> int:
    """A ``CONV_BAND_BYTES`` that gives bands of ``rows`` output rows."""
    c_in, _, w = x.shape
    return 8 * max(1, c_in) * (w + kw - 1) * rows


class TestConvBands:
    """``conv2d`` copies its padded input one band of output rows at a
    time; the band changes no bit of the result."""

    @staticmethod
    def banded(monkeypatch, x, params, rows):
        monkeypatch.setattr(tensor_ops, "CONV_BAND_BYTES", band_bytes(x, params.weights.shape[3], rows))
        return conv2d(x, params)

    @given(
        st.sampled_from([(1, 3), (3, 1), (3, 3), (5, 5), (7, 7)]),
        st.integers(0, 3),  # input channels
        st.integers(1, 3),  # output channels
        st.integers(1, 9),  # input height
        st.integers(1, 6),  # input width
        st.integers(0, 2**31 - 1),
    )
    @example((7, 7), 2, 2, 1, 4, 0)  # one row: the halo crosses both edges
    @example((3, 3), 0, 2, 5, 3, 1)  # no input channels
    @settings(max_examples=60, deadline=None)
    def test_one_row_mid_map_and_whole_map_bands_agree_bitwise(self, kernel, c_in, c_out, h, w, seed):
        # a hypothesis test may not take a function-scoped fixture, so the
        # constant is patched by hand and restored
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(c_in, h, w))
        params = Conv2DParams(rng.normal(size=(c_out, c_in, *kernel)), rng.normal(size=c_out))
        with pytest.MonkeyPatch.context() as monkeypatch:
            whole = self.banded(monkeypatch, x, params, h)
            for rows in {1, max(1, (h + 1) // 2), max(1, h - 1)}:
                got = self.banded(monkeypatch, x, params, rows)
                assert_same_bits(got, whole)
        kh, kw = kernel
        want = conv2d_naive(x, params.weights, params.bias, (kh // 2, kh // 2, kw // 2, kw // 2))
        assert np.max(np.abs(whole - want)) / max(1.0, np.max(np.abs(want))) <= 1e-12

    @pytest.mark.parametrize("rows", [1, 2, 4, 9])
    def test_halos_across_the_top_and_bottom_edges(self, monkeypatch, rows):
        # 9 rows of a 7x5 kernel: the first bands' halos reach above row 0,
        # the last bands' below row 8, and bands of 2 and 4 rows end mid-map
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 9, 6))
        params = Conv2DParams(rng.normal(size=(3, 2, 7, 5)), rng.normal(size=3))
        got = self.banded(monkeypatch, x, params, rows)
        want = self.banded(monkeypatch, x, params, 9)
        assert_same_bits(got, want)
        assert np.max(np.abs(got - conv2d_naive(x, params.weights, params.bias, params.padding))) < 1e-12


class TestLinear:
    """A one-layer MLP is the affine map W x + b of its LinearParams."""

    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        out = mlp(x, MLPParams((LinearParams(np.eye(3), np.zeros(3)),)))
        np.testing.assert_array_equal(out, x)

    def test_zero_weights_all_ones_bias(self):
        out = mlp(np.array([4.0, 5.0]), MLPParams((LinearParams(np.zeros((3, 2)), np.ones(3)),)))
        np.testing.assert_array_equal(out, np.ones(3))

    def test_hand_example(self):
        params = MLPParams((LinearParams(np.array([[2.0, 0.0], [0.0, 3.0]]), np.array([1.0, -1.0])),))
        np.testing.assert_array_equal(mlp(np.array([4.0, 5.0]), params), [9.0, 14.0])

    def test_mlp_chains_and_rectifies(self):
        params = MLPParams(
            (
                LinearParams(np.array([[1.0], [-1.0]]), np.zeros(2)),
                LinearParams(np.array([[1.0, 1.0]]), np.zeros(1)),
            )
        )
        # relu kills the negative branch: x=3 -> (3, -3) -> (3, 0) -> 3
        assert mlp(np.array([3.0]), params)[0] == pytest.approx(3.0)
        assert mlp(np.array([-3.0]), params)[0] == pytest.approx(3.0)

    def test_mlp_rejects_mismatched_layers(self):
        with pytest.raises(ShapeError, match="chain"):
            MLPParams(
                (
                    LinearParams(np.zeros((2, 3)), np.zeros(2)),
                    LinearParams(np.zeros((1, 3)), np.zeros(1)),
                )
            )


class TestSoftmax:
    def test_equal_logits_give_uniform(self):
        out = softmax(np.zeros(8), axis=0)
        np.testing.assert_allclose(out, np.full(8, 0.125), atol=1e-15)

    def test_closed_form_two_bins(self):
        out = softmax(np.array([0.0, np.log(3.0)]), axis=0)
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=16),
        st.floats(-30, 30),
    )
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance_and_normalization(self, logits, c):
        x = np.array(logits)
        base = softmax(x, axis=0)
        shifted = softmax(x + c, axis=0)
        assert abs(base.sum() - 1.0) < 1e-6
        assert np.all(base > 0)
        np.testing.assert_allclose(base, shifted, atol=1e-9)

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            softmax(np.zeros((2, 2)), axis=5)

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
            elements=st.one_of(st.floats(-50, 50), st.floats(-1e300, 1e300), st.sampled_from((-745.0, 710.0))),
        ),
        st.integers(0, 2),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_the_textbook_two_pass_form_bitwise(self, x, axis):
        axis = axis % x.ndim
        e = np.exp(x - np.max(x, axis=axis, keepdims=True))
        want = e / np.sum(e, axis=axis, keepdims=True)
        np.testing.assert_array_equal(softmax(x, axis).view(np.int64), want.view(np.int64))

    def test_leaves_its_input_unchanged(self):
        x = np.random.default_rng(5).normal(size=(4, 3, 5)) * 30
        before = x.copy()
        softmax(x, axis=0)
        np.testing.assert_array_equal(x, before)

    def test_peak_memory_stays_below_1_1x_a_depth_volume(self):
        # the shape of tier-L depth logits: one output buffer and no temporary
        x = np.random.default_rng(4).normal(size=(64, 76, 121))
        assert traced_peak(softmax, x, 0) < 1.1 * x.nbytes


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(np.array(0.0)) == 0.5

    def test_monotone_and_saturating(self):
        xs = np.array([1.0, 10.0, 100.0, 1000.0])
        ys = sigmoid(xs)
        assert np.all(np.diff(ys) >= 0)
        assert ys[-1] < 1.0 or ys[-1] == pytest.approx(1.0)
        assert ys[0] > 0.5

    @given(st.floats(-700, 700))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, x):
        pair = sigmoid(np.array([x, -x]))
        assert pair.sum() == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.one_of(st.floats(-800, 800), st.sampled_from(SIGMOID_SPECIALS)), max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_equals_two_branch_oracle_bitwise(self, xs):
        x = np.array(xs, dtype=np.float64)
        got, want = sigmoid(x), sigmoid_two_branch(x)
        assert got.shape == want.shape
        # NaN stays NaN (its sign bit is not part of the contract); every other
        # value matches bit for bit, the sign of zero included
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        keep = ~np.isnan(want)
        np.testing.assert_array_equal(got[keep].view(np.int64), want[keep].view(np.int64))

    def test_saturates_to_the_closed_unit_interval_in_float64(self):
        # the gates of attention fusion reach both ends of [0, 1]
        assert sigmoid(np.array(40.0)) == 1.0
        assert sigmoid(np.array(-746.0)) == 0.0

    def test_leaves_its_input_unchanged(self):
        x = np.array([-3.0, -0.0, 0.0, 2.5, 800.0, -800.0])
        before = x.copy()
        sigmoid(x)
        np.testing.assert_array_equal(x.view(np.int64), before.view(np.int64))

    def test_peak_memory_stays_below_3_1x_an_occupancy_map(self):
        # the shape of tier-L occupancy logits
        x = np.random.default_rng(6).normal(size=(8, 128, 128))
        assert traced_peak(sigmoid, x) < 3.1 * x.nbytes


class TestBilinearSample:
    def test_exact_at_pixel_centers(self):
        rng = np.random.default_rng(5)
        fmap = rng.normal(size=(3, 4, 5))
        for (u, v) in [(0, 0), (4, 3), (2, 1)]:
            np.testing.assert_array_equal(bilinear_sample(fmap, (u, v)), fmap[:, v, u])

    def test_midpoint_between_horizontal_neighbors(self):
        fmap = np.zeros((1, 1, 2))
        fmap[0, 0] = [2.0, 6.0]
        assert bilinear_sample(fmap, (0.5, 0.0))[0] == pytest.approx(4.0)

    def test_far_out_of_bounds_is_zero(self):
        fmap = np.ones((2, 3, 3))
        np.testing.assert_array_equal(bilinear_sample(fmap, (-10.0, -10.0)), np.zeros(2))

    @given(st.floats(0, 1), st.floats(0, 1), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_closed_form_on_random_2x2_patch(self, fu, fv, seed):
        patch = np.random.default_rng(seed).normal(size=(2, 2, 2))
        got = bilinear_sample(patch, (fu, fv))
        want = bilinear_reference(patch, fu, fv)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_linear_along_each_axis(self):
        rng = np.random.default_rng(7)
        patch = rng.normal(size=(1, 2, 2))
        # interpolation at fraction t must equal the chord between endpoints
        for t in (0.25, 0.5, 0.75):
            a = bilinear_sample(patch, (0.0, 0.0))[0]
            b = bilinear_sample(patch, (1.0, 0.0))[0]
            assert bilinear_sample(patch, (t, 0.0))[0] == pytest.approx((1 - t) * a + t * b)


class TestTrilinearSample:
    def test_exact_at_cell_center(self):
        vol = np.random.default_rng(8).normal(size=(3, 4, 5))
        assert trilinear_sample(vol, (2, 1, 1)) == pytest.approx(vol[1, 1, 2])

    def test_midway_between_depth_bins(self):
        vol = np.zeros((2, 1, 1))
        vol[0, 0, 0] = 3.0
        vol[1, 0, 0] = 5.0
        assert trilinear_sample(vol, (0.0, 0.0, 0.5)) == pytest.approx(4.0)

    def test_beyond_last_bin_plus_half_is_zero(self):
        vol = np.ones((4, 2, 2))
        assert trilinear_sample(vol, (0.0, 0.0, 4.0)) == 0.0
        assert trilinear_sample(vol, (0.0, 0.0, 3.5)) == pytest.approx(0.5)
