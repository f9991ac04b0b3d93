"""Class-balanced boundary loss, fusion, and the total training objective."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2fcn.autodiff import Tensor, grad_check, no_grad
from m2fcn.loss import (
    BoundaryLabels,
    balanced_ce_value,
    class_balance_beta,
    fuse,
    side_loss,
    total_loss,
)
from m2fcn.network import NetworkConfig, build_network
from m2fcn.subnet import LevelSpec, SubNetConfig
from oracles import balanced_loss_scalar


def labels_from(mask):
    return BoundaryLabels.from_mask(np.asarray(mask, dtype=bool))


# ---- beta ----


def test_beta_one_boundary_three_background():
    lab = labels_from([[True, False], [False, False]])
    assert class_balance_beta(lab) == 0.75


def test_beta_balanced_classes():
    lab = labels_from([[True, False], [True, False]])
    assert class_balance_beta(lab) == 0.5


def test_beta_degenerate_all_boundary():
    lab = labels_from(np.ones((3, 3), dtype=bool))
    assert class_balance_beta(lab) == 1.0


def test_beta_degenerate_no_boundary():
    lab = labels_from(np.zeros((3, 3), dtype=bool))
    assert class_balance_beta(lab) == 0.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_beta_balanced_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((5, 4)) < rng.random()
    beta = class_balance_beta(labels_from(mask))
    assert 0.0 <= beta <= 1.0
    n_b = int(mask.sum())
    if 0 < n_b < mask.size:
        assert beta == (mask.size - n_b) / mask.size


# ---- side loss ----


def test_hand_case_quarter_boundary_zero_logits():
    # one boundary pixel, three background, logits all zero, beta 0.75:
    # 0.75*ln2 + 0.25*3*ln2 = 1.5*ln2
    mask = np.array([[True, False], [False, False]])
    lab = labels_from(mask)
    beta = class_balance_beta(lab)
    assert beta == 0.75
    logits = Tensor(np.zeros((1, 2, 2)), requires_grad=True)
    val = side_loss(logits, lab, beta).item()
    assert abs(val - 1.5 * math.log(2.0)) <= 1e-12


def test_saturated_correct_prediction_is_tiny():
    mask = np.zeros((3, 3), dtype=bool)
    lab = labels_from(mask)
    logits = Tensor(np.full((1, 3, 3), 20.0))
    val = side_loss(logits, lab, class_balance_beta(lab)).item()
    assert val <= 9 * 1e-8


def test_symmetric_beta_gives_half_P_ln2():
    mask = np.array([[True, False], [False, True]])
    lab = labels_from(mask)
    logits = Tensor(np.zeros((1, 2, 2)))
    val = side_loss(logits, lab, 0.5).item()
    assert abs(val - 0.5 * 4 * math.log(2.0)) <= 1e-12


def test_side_loss_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h, w = rng.integers(2, 7, size=2)
        mask = rng.random((h, w)) < rng.random()
        lab = labels_from(mask)
        beta = class_balance_beta(lab)
        logits = rng.normal(scale=3.0, size=(1, h, w))
        got = side_loss(Tensor(logits), lab, beta).item()
        want = balanced_loss_scalar(logits, mask, beta)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_side_loss_value_helper_agrees():
    rng = np.random.default_rng(1)
    mask = rng.random((4, 5)) < 0.4
    lab = labels_from(mask)
    logits = rng.normal(size=(1, 4, 5))
    beta = class_balance_beta(lab)
    a = side_loss(Tensor(logits), lab, beta).item()
    b = balanced_ce_value(logits, lab, beta)
    assert abs(a - b) <= 1e-12


def test_side_loss_gradient():
    rng = np.random.default_rng(2)
    mask = rng.random((4, 4)) < 0.3
    lab = labels_from(mask)
    logits = Tensor(rng.normal(size=(1, 4, 4)), requires_grad=True)
    beta = class_balance_beta(lab)
    err = grad_check(lambda: side_loss(logits, lab, beta), [logits])
    assert err <= 1e-7


def test_side_loss_shape_guard():
    lab = labels_from(np.zeros((3, 3), dtype=bool))
    for shape in [(1, 2, 3), (4, 2, 3), (4, 3, 2), (0, 3, 3), (3, 3), (1, 1, 3, 3)]:
        with pytest.raises(ValueError):
            side_loss(Tensor(np.zeros(shape)), lab, 0.5)
    assert side_loss(Tensor(np.zeros((4, 3, 3))), lab, 0.5).item() > 0.0


def test_side_loss_of_a_stack_adds_its_maps_in_order():
    rng = np.random.default_rng(3)
    mask = rng.random((5, 7)) < 0.4
    lab = labels_from(mask)
    beta = class_balance_beta(lab)
    stack = Tensor(rng.normal(scale=3.0, size=(5, 5, 7)), requires_grad=True)
    loss = side_loss(stack, lab, beta)
    want = balanced_ce_value(stack.data[0], lab, beta)
    for k in range(1, 5):
        want = want + balanced_ce_value(stack.data[k], lab, beta)
    assert loss.item() == want
    loss.backward()
    for k in range(5):
        one = Tensor(stack.data[k : k + 1], requires_grad=True)
        side_loss(one, lab, beta).backward()
        assert stack.grad[k].tobytes() == one.grad[0].tobytes()


# ---- fuse ----


def test_fuse_single_map_identity():
    x = Tensor(np.random.default_rng(3).normal(size=(1, 3, 3)))
    h = Tensor(np.ones(1))
    assert np.allclose(fuse([x], h).data, x.data)


def test_fuse_equal_weights_average_of_equal_maps():
    a = np.random.default_rng(4).normal(size=(1, 4, 4))
    maps = [Tensor(a.copy()) for _ in range(3)]
    h = Tensor(np.full(3, 1.0 / 3.0))
    assert np.allclose(fuse(maps, h).data, a)


def test_fuse_weighted_combination():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(1, 3, 3)), rng.normal(size=(1, 3, 3))
    h = Tensor(np.array([2.0, -1.0]))
    got = fuse([Tensor(a), Tensor(b)], h).data
    assert np.allclose(got, 2.0 * a - b, atol=1e-12)


def test_fuse_gradient_reaches_weights():
    rng = np.random.default_rng(6)
    maps = [Tensor(rng.normal(size=(1, 3, 3)), requires_grad=True) for _ in range(2)]
    h = Tensor(np.array([0.5, 0.5]), requires_grad=True)
    err = grad_check(lambda: fuse(maps, h).sum(), maps + [h])
    assert err <= 1e-8


# ---- total loss ----


def tiny_config(stages=2, levels=2):
    subnet = SubNetConfig(levels=tuple(LevelSpec(1, 3) for _ in range(levels)))
    return NetworkConfig(stages=stages, subnet=subnet)


def random_outputs(cfg, rng, h=5, w=4, keep_fuse_init=False):
    net = build_network(cfg, int(rng.integers(1 << 30)))
    n = len(cfg.subnet.levels)
    for name, p in net.parameters().items():
        p.data += rng.normal(0.0, 0.1, p.data.shape)
        if keep_fuse_init and "fuse" in name:
            p.data[...] = 1.0 / n
    img = rng.uniform(0.0, 1.0, (1, h, w))
    return net.forward_all(Tensor(img))


def test_duplicated_single_term():
    # one stage, one level: fused (h=1) equals the side map, so the total is
    # exactly twice the side loss
    cfg = tiny_config(stages=1, levels=1)
    rng = np.random.default_rng(7)
    outs = random_outputs(cfg, rng, keep_fuse_init=True)
    mask = rng.random((5, 4)) < 0.4
    lab = labels_from(mask)
    total = total_loss(outs, lab, cfg).item()
    beta = class_balance_beta(lab)
    side = balanced_ce_value(outs.side[(1, 1)].data, lab, beta)
    assert abs(total - 2.0 * side) <= 1e-10


def test_total_matches_term_by_term_oracle():
    cfg = tiny_config(stages=2, levels=2)
    rng = np.random.default_rng(9)
    for _ in range(10):
        outs = random_outputs(cfg, rng)
        mask = rng.random((5, 4)) < rng.uniform(0.1, 0.9)
        lab = labels_from(mask)
        beta = class_balance_beta(lab)
        want = 0.0
        for (m, n), t in outs.side.items():
            want += balanced_loss_scalar(t.data, mask, beta)
        for m, t in outs.fused.items():
            want += balanced_loss_scalar(t.data, mask, beta)
        got = total_loss(outs, lab, cfg).item()
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_total_loss_validates_completeness():
    cfg = tiny_config(stages=2, levels=2)
    rng = np.random.default_rng(11)
    outs = random_outputs(cfg, rng)
    del outs.side[(2, 2)]
    lab = labels_from(rng.random((5, 4)) < 0.5)
    with pytest.raises(ValueError):
        total_loss(outs, lab, cfg)


def test_backward_of_loss_built_under_no_grad_raises():
    cfg = tiny_config(stages=2, levels=2)
    rng = np.random.default_rng(13)
    lab = labels_from(rng.random((5, 4)) < 0.5)
    with no_grad():
        loss = total_loss(random_outputs(cfg, rng), lab, cfg)
    with pytest.raises(ValueError, match="does not require grad"):
        loss.backward()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_total_loss_nonnegative(seed):
    cfg = tiny_config(stages=1, levels=2)
    rng = np.random.default_rng(seed)
    outs = random_outputs(cfg, rng)
    lab = labels_from(rng.random((5, 4)) < rng.random())
    assert total_loss(outs, lab, cfg).item() >= 0.0
