"""Multi-stage wiring: recursive inputs, fusion, prediction, state."""

import numpy as np
import pytest

from m2fcn.autodiff import Tensor
from m2fcn.network import (
    M2FCN,
    NetworkConfig,
    build_network,
    parse_recursive,
    stage_input,
)
from m2fcn.ops import sigmoid
from m2fcn.subnet import LevelSpec, SubNetConfig

TOY_SUBNET = SubNetConfig(
    levels=(LevelSpec(2, 8), LevelSpec(2, 16), LevelSpec(2, 16))
)


def toy_config(**kw):
    return NetworkConfig(stages=2, subnet=TOY_SUBNET, **kw)


def perturbed(net: M2FCN, seed=0, scale=0.05) -> M2FCN:
    rng = np.random.default_rng(seed)
    for p in net.parameters().values():
        p.data += rng.normal(0.0, scale, p.data.shape)
    return net


# ---- config ----


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(stages=0, subnet=TOY_SUBNET)
    with pytest.raises(ValueError):
        NetworkConfig(stages=2, subnet=TOY_SUBNET, recursive_mode="bogus")
    with pytest.raises(ValueError):
        NetworkConfig(
            stages=2, subnet=TOY_SUBNET, recursive_mode="single", recursive_level=9
        )


def test_parse_recursive():
    assert parse_recursive("all") == ("all", None)
    assert parse_recursive("single:3") == ("single", 3)
    with pytest.raises(ValueError):
        parse_recursive("single")
    with pytest.raises(ValueError):
        parse_recursive("double:2")


def test_config_dict_roundtrip():
    cfg = toy_config(recursive_mode="single", recursive_level=2)
    back = NetworkConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_stage_input_channel_counts():
    img = Tensor(np.zeros((1, 6, 6)))
    maps = [Tensor(np.zeros((1, 6, 6))) for _ in range(5)]
    assert stage_input(img, None, "all", None) is img  # stage 1 input is X
    assert stage_input(img, maps, "all", None).data.shape[0] == 6
    assert stage_input(img, maps, "single", 5).data.shape[0] == 2


def test_recursive_count():
    assert toy_config().recursive_count == 3
    assert toy_config(recursive_mode="single", recursive_level=1).recursive_count == 1


def test_stage_config_input_channels():
    cfg = toy_config()
    assert cfg.stage_config(1).input_channels == 1
    assert cfg.stage_config(2).input_channels == 4  # image + 3 side maps
    single = toy_config(recursive_mode="single", recursive_level=3)
    assert single.stage_config(2).input_channels == 2


# ---- forward ----


def test_output_counts_one_stage():
    cfg = NetworkConfig(stages=1, subnet=TOY_SUBNET)
    net = build_network(cfg, seed=0)
    outs = net.forward_all(Tensor(np.zeros((1, 10, 10))))
    assert len(outs.side) == 3
    assert len(outs.fused) == 1


def test_output_counts_three_stages_five_levels():
    subnet = SubNetConfig(levels=tuple(LevelSpec(1, 2) for _ in range(5)))
    cfg = NetworkConfig(stages=3, subnet=subnet)
    net = build_network(cfg, seed=0)
    outs = net.forward_all(Tensor(np.zeros((1, 18, 18))))
    assert len(outs.side) == 15
    assert len(outs.fused) == 3
    assert set(outs.fused) == {1, 2, 3}
    assert set(outs.side) == {(m, n) for m in (1, 2, 3) for n in range(1, 6)}


def test_zero_init_heads_make_all_fused_maps_zero():
    net = build_network(toy_config(), seed=1)
    outs = net.forward_all(Tensor(np.random.default_rng(0).uniform(0, 1, (1, 9, 9))))
    for t in outs.side.values():
        assert np.all(t.data == 0.0)
    for t in outs.fused.values():
        assert np.all(t.data == 0.0)


def test_zero_init_prediction_is_half_everywhere():
    net = build_network(toy_config(), seed=2)
    pred = net.predict(Tensor(np.random.default_rng(1).uniform(0, 1, (1, 8, 11))))
    assert pred.shape == (8, 11)
    assert np.all(pred == 0.5)


def test_prediction_in_unit_interval():
    net = perturbed(build_network(toy_config(), seed=3), seed=3, scale=0.3)
    pred = net.predict(Tensor(np.random.default_rng(2).uniform(0, 1, (1, 10, 10))))
    assert pred.min() >= 0.0 and pred.max() <= 1.0


def test_predict_equals_sigmoid_of_final_fused():
    net = perturbed(build_network(toy_config(), seed=4), seed=4)
    img = Tensor(np.random.default_rng(3).uniform(0, 1, (1, 7, 7)))
    outs = net.forward_all(img)
    want = sigmoid(outs.fused[2]).data[0]
    got = net.predict(img)
    assert np.array_equal(got, want)


def test_recursive_feedback_changes_stage2_not_stage1():
    # Same image, two different stage-1 parameter sets: stage-2 side outputs
    # must differ because the recursive inputs differ.
    cfg = toy_config()
    net_a = perturbed(build_network(cfg, seed=5), seed=10)
    net_b = perturbed(build_network(cfg, seed=5), seed=11)
    # make stage-2 parameters identical so only the recursion differs
    pa, pb = net_a.parameters(), net_b.parameters()
    for k in pa:
        if k.startswith("stage2/"):
            pb[k].data[...] = pa[k].data
    img = Tensor(np.random.default_rng(4).uniform(0, 1, (1, 9, 9)))
    a2 = net_a.forward_all(img).side[(2, 1)].data
    b2 = net_b.forward_all(img).side[(2, 1)].data
    assert not np.array_equal(a2, b2)


def test_recursive_inputs_are_probabilities_by_default():
    # stage-2 consumes sigmoid maps; drive stage-1
    # heads to huge logits and the recursion must still be bounded in [0, 1]
    cfg = toy_config()
    net = build_network(cfg, seed=6)
    params = net.parameters()
    params["stage1/head1/bias"].data[...] = 50.0
    img = Tensor(np.random.default_rng(5).uniform(0, 1, (1, 8, 8)))
    prev = [sigmoid(t) for t in net.stages[0].forward(img)]
    x2 = stage_input(img, prev, cfg.recursive_mode, cfg.recursive_level)
    assert x2.data[1:].min() >= 0.0 and x2.data[1:].max() <= 1.0


def test_single_mode_feeds_selected_level():
    cfg = toy_config(recursive_mode="single", recursive_level=2)
    net = build_network(cfg, seed=7)
    img = Tensor(np.zeros((1, 8, 8)))
    outs = net.forward_all(img)
    assert len(outs.side) == 6  # wiring intact with 2-channel stage-2 input


def test_fuse_weights_initialized_to_uniform():
    net = build_network(toy_config(), seed=8)
    for m in (1, 2):
        w = net.parameters()[f"stage{m}/fuse/weight"]
        assert np.allclose(w.data, 1.0 / 3.0)


def test_state_roundtrip_and_strictness():
    net = perturbed(build_network(toy_config(), seed=9), seed=12)
    state = net.state()
    other = build_network(toy_config(), seed=0)
    other.load_state(state)
    img = Tensor(np.random.default_rng(6).uniform(0, 1, (1, 8, 8)))
    assert np.array_equal(net.predict(img), other.predict(img))
    bad = dict(state)
    bad.pop(next(iter(bad)))
    with pytest.raises(ValueError):
        other.load_state(bad)
    bad = dict(state)
    first = next(iter(bad))
    bad[first] = np.zeros((1, 1))
    with pytest.raises(ValueError):
        other.load_state(bad)


def test_build_same_seed_bitwise_identical():
    a = build_network(toy_config(), seed=13)
    b = build_network(toy_config(), seed=13)
    for ka, kb in zip(a.state(), b.state()):
        assert ka == kb
    for va, vb in zip(a.state().values(), b.state().values()):
        assert np.array_equal(va, vb)


def test_stages_have_distinct_initializations():
    net = build_network(toy_config(), seed=14)
    s = net.state()
    assert not np.array_equal(
        s["stage1/level1/conv1/weight"], s["stage2/level1/conv1/weight"]
    )


def test_input_shape_guard():
    net = build_network(toy_config(), seed=15)
    with pytest.raises(ValueError):
        net.forward_all(Tensor(np.zeros((2, 8, 8))))
