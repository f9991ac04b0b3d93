"""Convolution, pooling, upsampling, concatenation, pointwise ops."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2fcn import ops
from m2fcn.autodiff import Tensor, grad_check, no_grad
from m2fcn.ops import (
    bilinear_kernel,
    concat_channels,
    conv2d,
    maxpool2,
    relu,
    sigmoid,
    upsample,
)
from oracles import (
    bilinear_upsample_pointwise,
    conv2d_loops,
    conv2d_whole_block,
    conv2d_whole_block_grads,
    maxpool2_loops,
    sigmoid_masked,
)
from test_network import _traced_peak


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


def _conv_and_grads(x, w, b, g, frozen):
    """Output and (dx, dw, db) of ``conv2d``; a frozen input gets None."""
    xt, wt = t(x, grad=frozen != "x"), t(w, grad=frozen != "weight")
    bt = None if b is None else t(b, grad=True)
    out = conv2d(xt, wt, bt)
    (out * t(g)).sum().backward()
    return out.data, xt.grad, wt.grad, None if bt is None else bt.grad


@given(
    seed=st.integers(0, 2**32 - 1),
    c=st.integers(1, 3),
    o=st.integers(1, 3),
    k=st.sampled_from([1, 3, 5, 7]),
    h=st.integers(0, 9),
    w=st.integers(0, 9),
    budget=st.sampled_from([1, 60, 300, 2000, 1 << 18]),
    with_bias=st.booleans(),
    frozen=st.sampled_from(["none", "x", "weight"]),
)
@settings(max_examples=300, deadline=None)
def test_conv_bands_match_whole_block_oracle(seed, c, o, k, h, w, budget, with_bias, frozen):
    # A small band budget splits the rows into several bands, a remainder
    # band and one-row bands; the default keeps these maps in one band.
    rng = np.random.default_rng(seed)
    x, wt = rng.normal(size=(c, h, w)), rng.normal(size=(o, c, k, k))
    b = rng.normal(size=o) if with_bias else None
    g = rng.normal(size=(o, h, w))
    with mock.patch.object(ops, "_BAND_ELEMENTS", budget):
        bands = ops._row_bands(x.shape, wt.shape)
        got = _conv_and_grads(x, wt, b, g, frozen)
    assert bands[0][0] == 0 and bands[-1][1] == h
    assert all(r1 == s0 for (_, r1), (s0, _) in zip(bands, bands[1:]))
    if k == 1:
        assert bands == [(0, h)]
    else:
        # No block outgrows the budget, unless one row already does.
        bound = max(o * h * w, o * c * k * k, budget, c * k * k * w)
        assert all(c * k * k * (r1 - r0) * w <= bound for r0, r1 in bands)
    want_out = conv2d_whole_block(x, wt, b)
    dx, dw, db = conv2d_whole_block_grads(x, wt, g)
    want = (want_out, None if frozen == "x" else dx, None if frozen == "weight" else dw,
            None if b is None else db)
    for name, a, e in zip(("out", "dx", "dw", "db"), got, want):
        assert (a is None) == (e is None), name
        if a is None:
            continue
        assert a.shape == e.shape, name
        if len(bands) == 1:
            assert a.tobytes() == e.tobytes(), name
        else:
            assert np.abs(a - e).max() <= 1e-12 * max(1.0, np.abs(e).max()), name
    if h * w == 0:
        assert got[2] is None or not got[2].any()
        assert got[3] is None or not got[3].any()


def test_conv_peak_stays_within_one_band():
    # One multi-band 3x3 conv: a whole column block (9x the input) or a
    # padded copy of the input breaks these bounds.
    rng = np.random.default_rng(15)
    x = t(rng.normal(size=(8, 128, 128)), grad=True)
    w = t(rng.normal(size=(8, 8, 3, 3)), grad=True)
    b = t(rng.normal(size=8), grad=True)
    assert len(ops._row_bands(x.shape, w.shape)) > 1
    map_bytes = x.data.nbytes  # input, output and both gradients: 1 MiB each
    band = 8 * max(8 * 128 * 128, 8 * 8 * 9, ops._BAND_ELEMENTS)
    slack = 512 << 10

    def forward():
        with no_grad():
            conv2d(x, w, b)

    def forward_backward():
        conv2d(x, w, b).sum().backward()

    assert _traced_peak(forward) < map_bytes + band + slack
    assert _traced_peak(forward_backward) < 3 * map_bytes + band + slack


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


def _upsample_draw(seed, factor, dtype):
    """A random map and a random ``out_hw`` crop of its upsampled extent."""
    rng = np.random.default_rng(seed)
    h, w = rng.integers(1, 4, size=2)
    x = rng.normal(size=(2, h, w)).astype(dtype)
    out_hw = (int(rng.integers(1, h * factor + 1)), int(rng.integers(1, w * factor + 1)))
    return x, out_hw


UPSAMPLE_DRAWS = (st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 8, 16]),
                  st.sampled_from([np.float32, np.float64]))


@given(*UPSAMPLE_DRAWS)
@settings(max_examples=30, deadline=None)
def test_upsample_matches_pointwise_oracle(seed, factor, dtype):
    x, out_hw = _upsample_draw(seed, factor, dtype)
    y = upsample(Tensor(x), factor, out_hw)
    assert y.data.dtype == dtype and y.shape == (2, *out_hw)
    tol = 1e-10 if dtype == np.float64 else 1e-5
    assert np.allclose(y.data, bilinear_upsample_pointwise(x.astype(np.float64), factor, out_hw), atol=tol)


@given(*UPSAMPLE_DRAWS)
@settings(max_examples=30, deadline=None)
def test_upsample_backward_is_the_adjoint(seed, factor, dtype):
    # <upsample(x), g> = <x, dx> for the gradient dx that g sends back.
    x, out_hw = _upsample_draw(seed, factor, dtype)
    g = np.random.default_rng(seed + 1).normal(size=(2, *out_hw)).astype(dtype)
    xt = Tensor(x, requires_grad=True)
    y = upsample(xt, factor, out_hw)
    (y * Tensor(g)).sum().backward()
    assert xt.grad.dtype == dtype
    lhs, rhs = np.vdot(y.data, g), np.vdot(x, xt.grad)
    assert abs(lhs - rhs) <= (1e-10 if dtype == np.float64 else 1e-5 * (1.0 + abs(lhs)))


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


@given(
    scale=st.sampled_from([1e-300, 1e-3, 1.0, 30.0, 700.0, 745.2]),
    seed=st.integers(0, 2**32 - 1),
    extra=st.lists(st.floats(-1e300, 1e300, allow_nan=False), max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_sigmoid_bytes_equal_masked_oracle(scale, seed, extra):
    z = np.random.default_rng(seed).normal(size=(2, 16, 16)) * scale
    edges = [0.0, -0.0, 745.2, -745.2, 36.8, -36.8, 5e-324, -5e-324, *extra]
    z.flat[: len(edges)] = edges
    assert sigmoid(t(z)).data.tobytes() == sigmoid_masked(z).tobytes()


def test_sigmoid_gradient():
    x = t(np.random.default_rng(14).normal(size=8), grad=True)
    err = grad_check(lambda: sigmoid(x).sum(), [x])
    assert err <= 1e-6
