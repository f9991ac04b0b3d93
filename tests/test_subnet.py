"""Single-stage topology: trunk, heads, strides, receptive fields."""

import numpy as np
import pytest

from m2fcn.autodiff import Tensor
from m2fcn.subnet import LevelSpec, SubNet, SubNetConfig, initial_values, receptive_field
from oracles import rf_influence_1d

TOY = SubNetConfig(
    levels=(LevelSpec(2, 8), LevelSpec(2, 16), LevelSpec(2, 16))
)
PAPER = SubNetConfig(
    levels=(
        LevelSpec(2, 64),
        LevelSpec(2, 128),
        LevelSpec(3, 256),
        LevelSpec(3, 512),
        LevelSpec(3, 512),
    )
)


def build_subnet(config, seed, prefix=""):
    """A sub-net over a registry of its own, as ``M2FCN`` builds each stage."""
    params = {
        name: Tensor(value, requires_grad=True, name=name)
        for name, value in initial_values(config, seed, prefix).items()
    }
    return SubNet(config, params, prefix), params


def test_config_validation():
    with pytest.raises(ValueError):
        SubNetConfig(levels=())
    with pytest.raises(ValueError):
        SubNetConfig(levels=(LevelSpec(0, 4),))
    with pytest.raises(ValueError):
        SubNetConfig(levels=(LevelSpec(1, 0),))


def test_receptive_field_toy_table():
    assert [receptive_field(TOY, l) for l in (1, 2, 3)] == [(1, 5), (2, 14), (4, 32)]


def test_receptive_field_paper_profile_table():
    got = [receptive_field(PAPER, l) for l in range(1, 6)]
    assert got == [(1, 5), (2, 14), (4, 40), (8, 92), (16, 196)]


def test_receptive_field_single_1x1_level():
    cfg = SubNetConfig(levels=(LevelSpec(1, 4, kernel=1),))
    assert receptive_field(cfg, 1) == (1, 1)


def test_receptive_field_two_convs_no_pooling():
    cfg = SubNetConfig(levels=(LevelSpec(2, 4),))
    assert receptive_field(cfg, 1) == (1, 5)


def test_receptive_field_matches_influence_oracle():
    for convs in ((2, 2, 2), (2, 2, 3, 3, 3), (1, 1), (3,)):
        cfg = SubNetConfig(levels=tuple(LevelSpec(c, 2) for c in convs))
        for level in range(1, len(convs) + 1):
            assert receptive_field(cfg, level) == rf_influence_1d(convs, level)


def test_receptive_field_level_bounds():
    with pytest.raises(ValueError):
        receptive_field(TOY, 0)
    with pytest.raises(ValueError):
        receptive_field(TOY, 4)


def test_parameter_inventory_and_shapes():
    _, params = build_subnet(TOY, seed=0)
    # trunk: conv weights/biases per level
    assert params["level1/conv1/weight"].data.shape == (8, 1, 3, 3)
    assert params["level1/conv2/weight"].data.shape == (8, 8, 3, 3)
    assert params["level2/conv1/weight"].data.shape == (16, 8, 3, 3)
    assert params["level3/conv2/bias"].data.shape == (16,)
    # heads: one 1x1 conv per level
    assert params["head1/weight"].data.shape == (1, 8, 1, 1)
    assert params["head3/weight"].data.shape == (1, 16, 1, 1)
    # upsample kernels are constants, not parameters
    assert not any("up_weight" in name for name in params)


def test_heads_start_at_zero_so_side_logits_are_zero():
    net, _ = build_subnet(TOY, seed=1)
    x = Tensor(np.random.default_rng(0).uniform(0, 1, (1, 12, 12)))
    outs = net.forward(x)
    assert len(outs) == 3
    for s in outs:
        assert np.all(s.data == 0.0)


def test_side_outputs_keep_input_resolution():
    net, _ = build_subnet(TOY, seed=2)
    for h, w in ((12, 12), (11, 13), (8, 17)):
        outs = net.forward(Tensor(np.zeros((1, h, w))))
        for s in outs:
            assert s.data.shape == (1, h, w)


def test_same_seed_same_parameters():
    _, a = build_subnet(TOY, seed=5)
    _, b = build_subnet(TOY, seed=5)
    for (ka, pa), (kb, pb) in zip(a.items(), b.items()):
        assert ka == kb
        assert np.array_equal(pa.data, pb.data)
    _, c = build_subnet(TOY, seed=6)
    assert any(not np.array_equal(pa.data, pc.data) for pa, pc in zip(a.values(), c.values()))


def test_single_level_head_is_identity_scale():
    cfg = SubNetConfig(levels=(LevelSpec(1, 4),))
    net, _ = build_subnet(cfg, seed=0)
    # factor-1 upsample means the head output is exactly the 1x1 conv result
    x = Tensor(np.random.default_rng(1).uniform(0, 1, (1, 6, 6)))
    outs = net.forward(x)
    assert len(outs) == 1
    assert outs[0].data.shape == (1, 6, 6)


def test_one_level_identity_configured_net_matches_conv_composition():
    # configure the trunk to a known linear map and verify against a direct
    # composition of the conv oracle
    from oracles import conv2d_loops

    cfg = SubNetConfig(levels=(LevelSpec(1, 2),))
    net, params = build_subnet(cfg, seed=0)
    rng = np.random.default_rng(2)
    wt = rng.uniform(0.05, 0.3, params["level1/conv1/weight"].data.shape)
    bt = rng.uniform(0.1, 0.5, 2)
    wh = rng.normal(size=params["head1/weight"].data.shape)
    bh = rng.normal(size=1)
    params["level1/conv1/weight"].data[...] = wt
    params["level1/conv1/bias"].data[...] = bt
    params["head1/weight"].data[...] = wh
    params["head1/bias"].data[...] = bh
    x = rng.uniform(0.2, 1.0, (1, 7, 7))
    got = net.forward(Tensor(x))[0].data
    trunk = np.maximum(conv2d_loops(x, wt, bt), 0.0)
    want = conv2d_loops(trunk, wh, bh)
    assert np.allclose(got, want, atol=1e-12)


def test_prefix_namespaces_parameters():
    net, params = build_subnet(TOY, seed=0, prefix="stage2/")
    assert all(k.startswith("stage2/") for k in params)
    # The sub-net keeps the registry's tensors themselves, not copies.
    assert net.trunk[0][0][0] is params["stage2/level1/conv1/weight"]
    assert net.heads[2][1] is params["stage2/head3/bias"]
    with pytest.raises(KeyError):
        SubNet(TOY, params)


def test_input_channel_guard():
    net, _ = build_subnet(TOY, seed=0)
    with pytest.raises(ValueError):
        net.forward(Tensor(np.zeros((2, 8, 8))))
