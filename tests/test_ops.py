"""Convolution, pooling, upsampling, concatenation, pointwise ops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2fcn.autodiff import Tensor, grad_check
from m2fcn.ops import (
    bilinear_kernel,
    concat_channels,
    conv2d,
    maxpool2,
    relu,
    sigmoid,
    upsample,
)
from oracles import bilinear_upsample_pointwise, conv2d_loops, maxpool2_loops


def t(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


# ---- conv2d ----


def test_conv_identity_kernel():
    x = np.random.default_rng(0).normal(size=(3, 4, 5))
    w = np.zeros((3, 3, 1, 1))
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    out = conv2d(t(x), t(w), t(np.zeros(3)))
    assert np.array_equal(out.data, x)


def test_conv_all_ones_same_pad():
    x = t(np.ones((1, 3, 3)))
    w = t(np.ones((1, 1, 3, 3)))
    out = conv2d(x, w, t(np.zeros(1))).data[0]
    assert out[1, 1] == 9.0
    for i, j in ((0, 0), (0, 2), (2, 0), (2, 2)):
        assert out[i, j] == 4.0


def test_conv_zero_weights_gives_bias_map():
    x = t(np.random.default_rng(1).normal(size=(2, 4, 4)))
    w = t(np.zeros((3, 2, 3, 3)))
    b = np.array([0.5, -1.0, 2.0])
    out = conv2d(x, w, t(b)).data
    for oc in range(3):
        assert np.all(out[oc] == b[oc])


def test_conv_matches_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 6, 5))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    got = conv2d(t(x), t(w), t(b)).data
    assert np.allclose(got, conv2d_loops(x, w, b), atol=1e-12)


def test_conv_1x1_matches_loop_oracle():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 3, 3))
    w = rng.normal(size=(2, 4, 1, 1))
    got = conv2d(t(x), t(w), None).data
    assert np.allclose(got, conv2d_loops(x, w, None), atol=1e-12)


def test_conv_rejects_channel_mismatch():
    with pytest.raises(ValueError):
        conv2d(t(np.ones((2, 4, 4))), t(np.ones((1, 3, 3, 3))), None)


def test_conv_gradients():
    rng = np.random.default_rng(5)
    x = t(rng.normal(size=(2, 5, 4)), grad=True)
    w = t(rng.normal(size=(3, 2, 3, 3)) * 0.3, grad=True)
    b = t(rng.normal(size=3) * 0.1, grad=True)
    err = grad_check(lambda: conv2d(x, w, b).sum(), [x, w, b])
    assert err <= 1e-6


# ---- maxpool2 ----


def test_pool_constant_map():
    out = maxpool2(t(np.full((2, 4, 6), 3.25)))
    assert out.data.shape == (2, 2, 3)
    assert np.all(out.data == 3.25)


def test_pool_2x2_hand_case():
    out = maxpool2(t([[[1.0, 2.0], [3.0, 4.0]]]))
    assert out.data.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == 4.0


def test_pool_matches_window_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 4, 4))
    assert np.array_equal(maxpool2(t(x)).data, maxpool2_loops(x))


@given(st.integers(0, 2**32 - 1), st.integers(3, 7), st.integers(3, 7))
@settings(max_examples=30, deadline=None)
def test_pool_matches_oracle_odd_and_even(seed, h, w):
    x = np.random.default_rng(seed).normal(size=(2, h, w))
    assert np.array_equal(maxpool2(t(x)).data, maxpool2_loops(x))


def test_pool_backward_routes_to_argmax():
    x = t([[[1.0, 2.0], [3.0, 4.0]]], grad=True)
    maxpool2(x).sum().backward()
    assert np.array_equal(x.grad, [[[0.0, 0.0], [0.0, 1.0]]])


def test_pool_backward_tie_takes_first_in_scan_order():
    x = t([[[5.0, 5.0], [5.0, 5.0]]], grad=True)
    maxpool2(x).sum().backward()
    assert np.array_equal(x.grad, [[[1.0, 0.0], [0.0, 0.0]]])


def test_pool_odd_edge_replication_folds_gradient():
    # 3x3 input: the replicated bottom/right cells must fold their gradient
    # back onto the source pixels instead of dropping it.
    x = t(np.arange(9.0).reshape(1, 3, 3), grad=True)
    out = maxpool2(x)
    assert out.data.shape == (1, 2, 2)
    out.sum().backward()
    # windows: {0,1,3,4}->4, {2,2,5,5}->5, {6,7,6,7}->7, {8}x4->8
    expect = np.zeros((1, 3, 3))
    expect[0, 1, 1] = 1.0
    expect[0, 1, 2] = 1.0
    expect[0, 2, 1] = 1.0
    expect[0, 2, 2] = 1.0
    assert np.array_equal(x.grad, expect)
    assert x.grad.sum() == out.data.size


def test_pool_gradients():
    rng = np.random.default_rng(8)
    x = t(rng.normal(size=(2, 6, 6)), grad=True)
    err = grad_check(lambda: maxpool2(x).sum(), [x])
    assert err <= 1e-8


# ---- upsample ----


def test_upsample_factor_1_identity():
    x = np.random.default_rng(9).normal(size=(2, 3, 4))
    assert np.array_equal(upsample(t(x), 1).data, x)


def test_upsample_preserves_constants_interior():
    x = t(np.full((1, 4, 4), 2.5))
    out = upsample(x, 2).data[0]
    # away from the border the triangular taps sum to 1
    assert np.allclose(out[2:6, 2:6], 2.5)


def test_upsample_ramp_matches_pointwise_oracle():
    x = np.array([[[0.0, 1.0], [2.0, 3.0]]])
    got = upsample(t(x), 2).data
    assert np.allclose(got, bilinear_upsample_pointwise(x, 2), atol=1e-12)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]))
@settings(max_examples=20, deadline=None)
def test_upsample_matches_pointwise_oracle(seed, factor):
    x = np.random.default_rng(seed).normal(size=(1, 3, 2))
    got = upsample(t(x), factor).data
    assert np.allclose(got, bilinear_upsample_pointwise(x, factor), atol=1e-10)


def test_upsample_out_hw_crop_matches_oracle():
    x = np.random.default_rng(10).normal(size=(2, 3, 3))
    got = upsample(t(x), 4, out_hw=(11, 10)).data
    assert got.shape == (2, 11, 10)
    assert np.allclose(got, bilinear_upsample_pointwise(x, 4, (11, 10)), atol=1e-10)


def test_upsample_kernel_shape_and_symmetry():
    for f in (1, 2, 3, 4, 8, 16):
        k = bilinear_kernel(f)
        assert len(k) == 2 * f - f % 2
        assert np.allclose(k, k[::-1])
        # odd factors have an exact center tap of 1; even factors peak at
        # (2f-1)/(2f) on the two middle taps
        expect = 1.0 if f % 2 else (2 * f - 1) / (2 * f)
        assert np.isclose(k.max(), expect)


def test_upsample_gradients_default_and_learnable():
    rng = np.random.default_rng(11)
    x = t(rng.normal(size=(1, 3, 3)), grad=True)
    err = grad_check(lambda: upsample(x, 2).sum(), [x])
    assert err <= 1e-8


def test_upsample_aligns_with_repeated_pooling():
    # A vertical ramp pooled twice then upsampled back: interior rows stay
    # constant along width (no horizontal drift), and the interior vertical
    # profile interpolates between the pooled values 3 and 7.
    x = np.arange(8.0)[None, :, None] * np.ones((1, 1, 8))
    pooled = maxpool2(maxpool2(t(x)))
    assert np.allclose(pooled.data[0, :, 0], [3.0, 7.0])
    up = upsample(pooled, 4, out_hw=(8, 8)).data[0]
    for row in range(8):
        assert np.allclose(up[row, 2:6], up[row, 2])  # interior columns equal


# ---- concat ----


def test_concat_single_part_identity():
    x = np.random.default_rng(12).normal(size=(2, 3, 3))
    assert np.array_equal(concat_channels([t(x)]).data, x)


def test_concat_channel_counts_image_plus_five_maps():
    img = t(np.zeros((1, 4, 4)))
    maps = [t(np.full((1, 4, 4), k)) for k in range(5)]
    out = concat_channels([img] + maps)
    assert out.data.shape == (6, 4, 4)


def test_concat_constant_channels_keep_order():
    parts = [t(np.full((1, 2, 2), v)) for v in (1.0, 2.0, 3.0)]
    out = concat_channels(parts).data
    for k, v in enumerate((1.0, 2.0, 3.0)):
        assert np.all(out[k] == v)


def test_concat_rejects_spatial_mismatch():
    with pytest.raises(ValueError):
        concat_channels([t(np.ones((1, 2, 2))), t(np.ones((1, 3, 2)))])


def test_concat_backward_splits_gradient():
    a = t(np.ones((1, 2, 2)), grad=True)
    b = t(np.ones((2, 2, 2)), grad=True)
    out = concat_channels([a, b])
    (out * out).sum().backward()
    assert np.allclose(a.grad, 2.0)
    assert np.allclose(b.grad, 2.0)


# ---- pointwise ----


def test_relu_values():
    out = relu(t([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_sigmoid_zero_is_half():
    assert sigmoid(t([0.0])).data[0] == 0.5


def test_sigmoid_symmetry():
    x = np.random.default_rng(13).normal(scale=3.0, size=50)
    s = sigmoid(t(x)).data + sigmoid(t(-x)).data
    assert np.allclose(s, 1.0, atol=1e-15)


def test_sigmoid_extreme_logits_stay_finite():
    out = sigmoid(t([-800.0, 800.0])).data
    assert out[0] == 0.0 or out[0] > 0.0
    assert np.isfinite(out).all()
    assert out[1] <= 1.0


def test_sigmoid_gradient():
    x = t(np.random.default_rng(14).normal(size=8), grad=True)
    err = grad_check(lambda: sigmoid(x).sum(), [x])
    assert err <= 1e-6
