"""Tensor graph mechanics and the finite-difference checker."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2fcn.autodiff import Tensor, grad_check, gradients, no_grad
from m2fcn.ops import conv2d, relu
from oracles import eager_backward


def test_linear_gradient():
    p = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    root = (p + p).sum()
    root.backward()
    assert np.array_equal(p.grad, np.array([2.0, 2.0, 2.0]))


def test_elementwise_square_gradient():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    (p * p).sum().backward()
    assert np.array_equal(p.grad, np.array([2.0, -4.0, 6.0]))


def test_accumulation_through_shared_node():
    # y = p + p reused twice: d/dp of sum(y * y) = 8p
    p = Tensor(np.array([1.5, -0.5]), requires_grad=True)
    y = p + p
    (y * y).sum().backward()
    assert np.allclose(p.grad, 8.0 * p.data)


def test_backward_requires_scalar_root():
    p = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (p + p).backward()


def test_grad_none_until_backward_and_zeroed_between_sweeps():
    p = Tensor(np.ones(2), requires_grad=True)
    assert p.grad is None
    p.sum().backward()
    first = p.grad.copy()
    p.sum().backward()
    assert np.array_equal(p.grad, first)  # re-zeroed, not accumulated across sweeps


def test_gradients_helper_zero_for_unreachable():
    p = Tensor(np.ones(3), requires_grad=True)
    q = Tensor(np.ones(2), requires_grad=True)
    root = p.sum()
    gp, gq = gradients(root, [p, q])
    assert np.array_equal(gp, np.ones(3))
    assert np.array_equal(gq, np.zeros(2))


def test_backward_from_root_without_grad_raises():
    # Zero-filling instead would leave every parameter's grad at None, and
    # SGD.step would then apply weight decay alone.
    root = Tensor(np.array(1.0))
    with pytest.raises(ValueError, match="does not require grad"):
        root.backward()
    p = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ValueError, match="does not require grad"):
        gradients(root, [p])


def test_no_grad_builds_no_graph_and_nests():
    x = Tensor(np.linspace(-1.0, 1.0, 25).reshape(1, 5, 5), requires_grad=True)
    w = Tensor(np.full((2, 1, 3, 3), 0.1), requires_grad=True)
    with no_grad():
        with no_grad():
            inner = relu(conv2d(x, w))
        outer = (x * 2.0).sum()
    for t in (inner, outer):
        assert not t.requires_grad
        assert t._parents == () and t._backward is None
    graph = relu(conv2d(x, w))
    assert graph.requires_grad and graph._backward is not None
    assert np.array_equal(inner.data, graph.data)
    assert x.requires_grad and w.requires_grad


def test_shape_mismatch_rejected():
    a = Tensor(np.ones(2))
    b = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_non_finite_data_rejected():
    with pytest.raises(FloatingPointError):
        Tensor(np.array([1.0, np.inf]))


def test_graph_freed_without_cycle_collector():
    # No backward closure may refer to its own output tensor: with the
    # cyclic collector off, dropping the root must free every interior node.
    # Tensor has no __weakref__ slot, so the weakrefs point at the data arrays.
    x = Tensor(np.ones((1, 5, 5)))
    w = Tensor(np.full((2, 1, 3, 3), 0.1), requires_grad=True)
    enabled = gc.isenabled()
    gc.disable()
    try:
        conv = conv2d(x, w)
        act = relu(conv)
        root = (act * act).sum()
        interior = [weakref.ref(conv.data), weakref.ref(act.data)]
        del conv, act
        root.backward()
        assert w.grad is not None
        del root
        assert [ref() is None for ref in interior] == [True, True]
    finally:
        if enabled:
            gc.enable()


def test_reshape_roundtrip_gradient():
    p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    (p.reshape((3, 2)) * p.reshape((3, 2))).sum().backward()
    assert np.allclose(p.grad, 2.0 * p.data)


def test_grad_check_linear_is_exact():
    p = Tensor(np.array([0.3, -1.2, 4.0]), requires_grad=True)
    err = grad_check(lambda: p.sum(), [p])
    assert err <= 1e-9


def test_grad_check_sigmoid_sum():
    from m2fcn.ops import sigmoid

    rng = np.random.default_rng(0)
    p = Tensor(rng.uniform(-1.0, 1.0, (4, 3)), requires_grad=True)
    err = grad_check(lambda: sigmoid(p).sum(), [p])
    assert err <= 1e-5


def test_grad_check_conv_relu_composite():
    from m2fcn.ops import conv2d, relu

    rng = np.random.default_rng(1)
    # keep pre-activations at least 0.1 away from the ReLU kink
    x = Tensor(rng.uniform(0.2, 1.0, (1, 5, 5)), requires_grad=True)
    w = Tensor(np.full((2, 1, 3, 3), 0.2), requires_grad=True)
    b = Tensor(np.array([0.5, 0.7]), requires_grad=True)
    err = grad_check(lambda: relu(conv2d(x, w, b)).sum(), [x, w, b])
    assert err <= 1e-4


def test_grad_check_skips_relu_kink():
    from m2fcn.ops import relu

    # One entry sits exactly on the kink; the checker must not report the
    # bogus central difference there, and must still audit the clean entry.
    p = Tensor(np.array([0.0, 5.0]), requires_grad=True)
    err = grad_check(lambda: relu(p).sum(), [p], eps=1e-4)
    assert err <= 1e-9


def test_grad_check_skips_pool_argmax_flip():
    from m2fcn.ops import maxpool2

    # Two window entries eps apart: perturbing either flips the argmax, so
    # both must be skipped rather than scored against a garbage difference.
    p = Tensor(np.array([[[1.0, 1.00005], [0.0, 0.0]]]), requires_grad=True)
    err = grad_check(lambda: maxpool2(p).sum(), [p], eps=1e-4)
    assert err == 0.0


def test_grad_check_rejects_frozen_only():
    p = Tensor(np.ones(2), requires_grad=False)
    with pytest.raises(ValueError):
        grad_check(lambda: p.sum(), [p])


def test_grad_check_accepts_mapping_and_subsamples():
    rng = np.random.default_rng(2)
    p = Tensor(rng.normal(size=40), requires_grad=True)
    err = grad_check(
        lambda: (p * p).sum(), {"p": p}, max_entries_per_param=5, seed=3
    )
    assert err <= 1e-7


def test_first_contribution_stores_positive_zero():
    # ReLU hands its input -1 * False = -0.0 where it is off. A sweep that
    # zero-fills first stores 0.0 + -0.0 = +0.0 there, and so must this one.
    x = Tensor(np.array([-1.0, 2.0, 0.0]), requires_grad=True)
    root = (relu(x) * -1.0).sum()
    eager_backward(root)
    want = x.grad.copy()
    root.backward()
    assert x.grad.tobytes() == want.tobytes()
    assert not np.signbit(x.grad[[0, 2]]).any()


@pytest.mark.parametrize("n", [0, -2])
def test_grad_check_rejects_empty_subsample(n):
    # Zero entries per parameter would check nothing and report no error.
    p = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="at least 1"):
        grad_check(lambda: (p * p).sum(), [p], max_entries_per_param=n)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_add_mul_gradients_match_hand_formula(seed):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 4, size=rng.integers(1, 3)))
    a = Tensor(rng.normal(size=shape), requires_grad=True)
    b = Tensor(rng.normal(size=shape), requires_grad=True)
    ((a * b) + a).sum().backward()
    assert np.allclose(a.grad, b.data + 1.0)
    assert np.allclose(b.grad, a.data)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_sum_gradient_is_ones(seed):
    rng = np.random.default_rng(seed)
    p = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    p.sum().backward()
    assert np.array_equal(p.grad, np.ones((3, 2)))
