"""Tests for the dense numeric primitives."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radarcam.tensor_ops import (
    Conv2DParams,
    LinearParams,
    MLPParams,
    ShapeError,
    channel_reduce,
    conv2d,
    global_pool,
    linear,
    mlp,
    sigmoid,
    softmax,
)

from oracles import bilinear_reference, bilinear_sample, conv2d_naive, sigmoid_two_branch, trilinear_sample

SIGMOID_SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 40.0, -746.0)


class TestConv2D:
    def test_identity_1x1_kernel_is_exact(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 5, 7))
        params = Conv2DParams.same(np.ones((1, 1, 1, 1)), np.zeros(1))
        np.testing.assert_array_equal(conv2d(x, params), x)

    def test_zero_weights_give_constant_bias_map(self):
        x = np.random.default_rng(1).normal(size=(3, 4, 4))
        params = Conv2DParams.same(np.zeros((2, 3, 3, 3)), np.array([5.0, -1.5]))
        out = conv2d(x, params)
        np.testing.assert_array_equal(out[0], np.full((4, 4), 5.0))
        np.testing.assert_array_equal(out[1], np.full((4, 4), -1.5))

    def test_averaging_kernel_on_constant_interior(self):
        # hand evaluation: nine interior taps of value 7 times 1/9 sum to 7
        x = np.full((1, 5, 5), 7.0)
        params = Conv2DParams.same(np.full((1, 1, 3, 3), 1.0 / 9.0), np.zeros(1))
        out = conv2d(x, params)
        assert out[0, 2, 2] == pytest.approx(7.0, abs=1e-12)

    def test_channel_mismatch_raises(self):
        params = Conv2DParams.same(np.zeros((1, 2, 3, 3)), np.zeros(1))
        with pytest.raises(ShapeError, match="channels"):
            conv2d(np.zeros((3, 4, 4)), params)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            Conv2DParams.same(np.zeros((1, 1, 2, 2)), np.zeros(1))

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
        params = Conv2DParams.same(weights, bias)
        got = conv2d(x, params)
        want = conv2d_naive(x, weights, bias, params.padding)
        assert got.shape == want.shape == (c_out, h, w)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) / scale < 1e-6

    def test_stride_two_against_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 9, 9))
        weights = rng.normal(size=(3, 2, 3, 3))
        bias = rng.normal(size=3)
        params = Conv2DParams(weights, bias, (1, 1, 1, 1), stride=2)
        want = conv2d_naive(x, weights, bias, (1, 1, 1, 1), stride=2)
        np.testing.assert_allclose(conv2d(x, params), want, rtol=1e-12, atol=1e-12)

    @given(
        st.integers(0, 3),  # kernel height index into 1, 3, 5, 7
        st.integers(0, 3),  # kernel width index
        st.lists(st.integers(0, 3), min_size=4, max_size=4),  # top, bottom, left, right
        st.integers(1, 3),  # stride
        st.integers(0, 3),  # input channels
        st.integers(0, 3),  # output channels
        st.integers(0, 4),  # input height beyond the smallest that fits the kernel
        st.integers(0, 4),  # input width beyond the smallest that fits the kernel
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_shifted_gemms_match_naive_oracle(self, khi, kwi, padding, stride, c_in, c_out, dh, dw, seed):
        kh, kw = 2 * khi + 1, 2 * kwi + 1
        pt, pb, pl, pr = padding
        h = max(1, kh - pt - pb) + dh
        w = max(1, kw - pl - pr) + dw
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(c_in, h, w))
        weights = rng.normal(size=(c_out, c_in, kh, kw))
        bias = rng.normal(size=c_out)
        got = conv2d(x, Conv2DParams(weights, bias, tuple(padding), stride))
        want = conv2d_naive(x, weights, bias, tuple(padding), stride)
        assert got.shape == want.shape
        if want.size:
            assert np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))) <= 1e-12

    def test_peak_memory_stays_below_twice_the_padded_input(self):
        # the shape of a post-transform conv: many folded channels mixed down
        rng = np.random.default_rng(3)
        x = rng.normal(size=(128, 64, 64))
        params = Conv2DParams.same(rng.normal(size=(32, 128, 3, 3)), rng.normal(size=32))
        padded_bytes = x.shape[0] * 66 * 66 * 8
        tracemalloc.start()
        try:
            conv2d(x, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * padded_bytes


class TestLinear:
    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        out = linear(x, LinearParams(np.eye(3), np.zeros(3)))
        np.testing.assert_array_equal(out, x)

    def test_zero_weights_all_ones_bias(self):
        out = linear(np.array([4.0, 5.0]), LinearParams(np.zeros((3, 2)), np.ones(3)))
        np.testing.assert_array_equal(out, np.ones(3))

    def test_hand_example(self):
        params = LinearParams(np.array([[2.0, 0.0], [0.0, 3.0]]), np.array([1.0, -1.0]))
        np.testing.assert_array_equal(linear(np.array([4.0, 5.0]), params), [9.0, 14.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            linear(np.ones(3), LinearParams(np.eye(2), np.zeros(2)))

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


class TestPooling:
    def test_constant_channel(self):
        x = np.full((2, 3, 3), 4.25)
        np.testing.assert_array_equal(global_pool(x, "avg"), [4.25, 4.25])
        np.testing.assert_array_equal(global_pool(x, "max"), [4.25, 4.25])

    def test_small_example(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        assert global_pool(x, "avg")[0] == pytest.approx(2.5)
        assert global_pool(x, "max")[0] == pytest.approx(4.0)

    def test_single_pixel_identity(self):
        x = np.array([[[3.5]], [[-2.0]]])
        np.testing.assert_array_equal(global_pool(x, "avg"), [3.5, -2.0])
        np.testing.assert_array_equal(global_pool(x, "max"), [3.5, -2.0])

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            global_pool(np.zeros((1, 2, 2)), "median")


class TestChannelReduce:
    def test_single_channel_unchanged(self):
        x = np.random.default_rng(2).normal(size=(1, 3, 4))
        np.testing.assert_array_equal(channel_reduce(x, "max"), x)
        np.testing.assert_array_equal(channel_reduce(x, "mean"), x)

    def test_two_channel_example(self):
        x = np.stack([np.full((2, 2), -1.0), np.full((2, 2), 5.0)])
        np.testing.assert_array_equal(channel_reduce(x, "max"), np.full((1, 2, 2), 5.0))
        np.testing.assert_array_equal(channel_reduce(x, "mean"), np.full((1, 2, 2), 2.0))

    def test_constant_tensor(self):
        x = np.full((4, 2, 2), 1.5)
        np.testing.assert_array_equal(channel_reduce(x, "mean"), np.full((1, 2, 2), 1.5))


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
