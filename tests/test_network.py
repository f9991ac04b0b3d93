"""Multi-stage wiring: recursive inputs, fusion, prediction, state."""

import gc
import tracemalloc

import numpy as np
import pytest

from m2fcn.autodiff import Tensor
from m2fcn.network import M2FCN, NetworkConfig, build_network, initial_values, parse_recursive
from m2fcn.ops import sigmoid
from m2fcn.subnet import LevelSpec, SubNetConfig
from m2fcn.training import SGD, freeze_stage
from oracles import graph_predict

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
        NetworkConfig(stages=2, subnet=TOY_SUBNET, recursive_level=0)
    with pytest.raises(ValueError):
        NetworkConfig(stages=2, subnet=TOY_SUBNET, recursive_level=9)


def test_parse_recursive():
    assert parse_recursive("all") is None
    assert parse_recursive("single:3") == 3
    with pytest.raises(ValueError):
        parse_recursive("single")
    with pytest.raises(ValueError):
        parse_recursive("double:2")


def test_config_dict_roundtrip():
    cfg = toy_config(recursive_level=2)
    assert cfg.to_dict()["recursive"] == "single:2"
    back = NetworkConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_recursive_count():
    assert toy_config().recursive_count == 3
    assert toy_config(recursive_level=1).recursive_count == 1


def test_stage_config_input_channels():
    cfg = toy_config()
    assert cfg.stage_config(1).input_channels == 1
    assert cfg.stage_config(2).input_channels == 4  # image + 3 side maps
    single = toy_config(recursive_level=3)
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


# The paper's 3 stages x 5 levels and conv counts, at the benchmark's small widths.
PAPER_SMALL = NetworkConfig(
    stages=3,
    subnet=SubNetConfig(
        levels=tuple(LevelSpec(c, w) for c, w in zip((2, 2, 3, 3, 3), (2, 2, 4, 4, 4)))
    ),
)


@pytest.mark.parametrize("config", [toy_config(), toy_config(recursive_level=2), PAPER_SMALL],
                         ids=["toy-all", "toy-single2", "paper-small"])
@pytest.mark.parametrize("hw", [(24, 20), (33, 29)])
def test_predict_bytes_equal_graph_forward(config, hw):
    # 33x29 is odd at every pooling level, so the replication path runs.
    net = perturbed(build_network(config, seed=5), seed=5)
    img = Tensor(np.random.default_rng(6).uniform(0, 1, (1, *hw)))
    got = net.predict(img)
    want = graph_predict(net, img)
    assert got.shape == want.shape == hw
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert got.min() < got.max()


def test_predict_creates_no_graph_nodes(monkeypatch):
    net = perturbed(build_network(toy_config(), seed=7), seed=7)
    img = Tensor(np.random.default_rng(8).uniform(0, 1, (1, 16, 16)))
    created = []
    init = Tensor.__init__

    def recording_init(obj, *args, **kwargs):
        init(obj, *args, **kwargs)
        created.append(obj)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    net.predict(img)
    monkeypatch.undo()
    assert len(created) > 20
    graph_nodes = [t for t in created if t.requires_grad or t._parents or t._backward]
    assert graph_nodes == []


def _traced_peak(fn) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_peak_does_not_grow_with_depth():
    # Without a graph, each stage's feature maps are freed once its side
    # outputs exist, so predict's peak stays flat as stages are added; a
    # graph-building forward keeps every stage's feature maps.
    img = Tensor(np.random.default_rng(10).uniform(0, 1, (1, 128, 128)))
    plain, graph = [], []
    for stages in (2, 4):
        net = perturbed(build_network(NetworkConfig(stages=stages, subnet=TOY_SUBNET), seed=9), seed=9)
        plain.append(_traced_peak(lambda: net.predict(img)))
        graph.append(_traced_peak(lambda: net.forward_all(img)))
    assert plain[1] < 1.2 * plain[0]
    assert graph[1] > 1.5 * graph[0]


def test_no_grad_restored_after_predict_raises():
    net = build_network(toy_config(), seed=0)
    img = Tensor(np.zeros((1, 8, 8)))
    img.data[0, 3, 3] = np.nan
    with pytest.raises(FloatingPointError):
        net.predict(img)
    assert net.forward_all(Tensor(np.zeros((1, 8, 8)))).fused[2].requires_grad


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


def stage_inputs(net: M2FCN, image: Tensor) -> list[Tensor]:
    """Run ``net`` on ``image`` and return the input each stage received."""
    seen = []
    for stage in net.stages:
        forward = stage.forward
        stage.forward = lambda x, forward=forward: seen.append(x) or forward(x)
    net.forward_all(image)
    return seen


def test_stage_input_channel_counts():
    # Stage 1 sees the image itself; stage 2 sees the image plus the chosen
    # sigmoid side maps of stage 1.
    # In the network's dtype, so stage 1 reads the image tensor itself.
    img = Tensor(np.random.default_rng(3).uniform(0, 1, (1, 6, 6)).astype(np.float32))
    net = perturbed(build_network(toy_config(), seed=2))
    first, second = stage_inputs(net, img)
    assert first is img
    assert second.data.shape == (4, 6, 6)  # image + 3 side maps
    assert np.array_equal(second.data[0], img.data[0])
    single = perturbed(build_network(toy_config(recursive_level=3), seed=2))
    first, second = stage_inputs(single, img)
    assert first is img
    assert second.data.shape == (2, 6, 6)
    side3 = single.forward_all(img).side[(1, 3)]
    assert np.array_equal(second.data[1], sigmoid(side3).data[0])


def test_recursive_inputs_are_probabilities_by_default():
    # Drive the stage-1 heads to huge logits: the recursive channels of the
    # stage-2 input must still lie in [0, 1].
    img = Tensor(np.random.default_rng(5).uniform(0, 1, (1, 8, 8)))
    for level in (None, 2):
        net = build_network(toy_config(recursive_level=level), seed=6)
        params = net.parameters()
        for n in (1, 2, 3):
            params[f"stage1/head{n}/bias"].data[...] = 50.0
        x2 = stage_inputs(net, img)[1].data
        assert x2[1:].min() >= 0.0 and x2[1:].max() <= 1.0


@pytest.mark.parametrize("level", [None, 2])
def test_sigmoid_only_on_maps_a_later_stage_reads(monkeypatch, level):
    # (S - 1) * recursive_count sigmoid calls per forward: the last stage's
    # side outputs feed nothing.
    from m2fcn import network

    cfg = NetworkConfig(stages=3, subnet=TOY_SUBNET, recursive_level=level)
    net = build_network(cfg, seed=16)
    calls = []
    monkeypatch.setattr(network, "sigmoid", lambda t: calls.append(t) or sigmoid(t))
    net.forward_all(Tensor(np.zeros((1, 8, 8))))
    assert len(calls) == (cfg.stages - 1) * cfg.recursive_count


def test_single_mode_feeds_selected_level():
    cfg = toy_config(recursive_level=2)
    net = build_network(cfg, seed=7)
    img = Tensor(np.zeros((1, 8, 8)))
    outs = net.forward_all(img)
    assert len(outs.side) == 6  # wiring intact with 2-channel stage-2 input


def test_fuse_weights_initialized_to_uniform():
    net = build_network(toy_config(), seed=8)
    for m in (1, 2):
        w = net.parameters()[f"stage{m}/fuse/weight"]
        assert np.allclose(w.data, 1.0 / 3.0)


# ---- the parameter registry ----


@pytest.mark.parametrize("cfg", [
    toy_config(),
    toy_config(recursive_level=2),
    NetworkConfig(stages=1, subnet=TOY_SUBNET),
], ids=["all", "single2", "one-stage"])
def test_registry_follows_config_names_in_order(cfg):
    net = build_network(cfg, seed=17)
    params = net.parameters()
    assert [(k, p.shape) for k, p in params.items()] == list(cfg.parameter_shapes())
    assert all(p.name == k and p.requires_grad for k, p in params.items())
    # A copy of the registry: the same tensors, but editing it changes nothing.
    params.popitem()
    again = net.parameters()
    assert list(again) == [k for k, _ in cfg.parameter_shapes()]
    assert all(again[k] is p for k, p in params.items())


@pytest.mark.parametrize("name", [
    "stage1/level1/conv1/weight", "stage2/level3/conv2/bias", "stage2/head3/weight",
    "stage1/fuse/weight", "stage2/fuse/weight",
])
def test_forward_reads_the_registry_tensors(name):
    # Sub-nets and fusion read the very tensors that SGD, freezing and
    # state() reach through parameters(): an in-place edit of one moves the
    # prediction, and each of those sees it.
    net = perturbed(build_network(toy_config(), seed=18), seed=19)
    img = Tensor(np.random.default_rng(7).uniform(0, 1, (1, 8, 8)))

    def fused():
        return np.stack([t.data for t in net.forward_all(img).fused.values()])

    before = fused()
    p = net.parameters()[name]
    p.data += 0.25
    assert not np.array_equal(fused(), before)
    assert np.array_equal(net.state()[name], p.data)
    stage = int(name[len("stage")])
    freeze_stage(net, stage)
    assert not p.requires_grad
    opt = SGD(net.parameters(), lr=0.1)
    assert name not in opt.velocity and len(opt.velocity) > 0


def test_network_rejects_missing_or_misshapen_values():
    cfg = toy_config()
    values = initial_values(cfg, seed=20)
    del values["stage2/head1/bias"]
    with pytest.raises(ValueError, match=r"'stage2/head1/bias' of shape \(1,\)"):
        M2FCN(cfg, values)
    values = initial_values(cfg, seed=20)
    values["stage1/level2/conv1/weight"] = np.zeros((16, 8, 3))
    with pytest.raises(ValueError, match=r"'stage1/level2/conv1/weight' of shape \(16, 8, 3, 3\)"):
        M2FCN(cfg, values)
    # Keys the config does not name are left alone.
    values = {**initial_values(cfg, seed=20), "stage3/fuse/weight": np.ones(3)}
    assert "stage3/fuse/weight" not in M2FCN(cfg, values).parameters()


def test_initial_values_are_float32():
    cfg = toy_config()
    values = initial_values(cfg, seed=21)
    assert {v.dtype for v in values.values()} == {np.dtype(np.float32)}
    net = M2FCN(cfg, values)
    assert net.dtype == np.float32
    assert all(p.data is values[k] for k, p in net.parameters().items())
    # Trunk weights ~ N(0, 2 / fan-in): 16 x 16 x 3 x 3 entries, fan-in 144.
    w = values["stage1/level3/conv1/weight"]
    assert abs(w.std() * np.sqrt(144 / 2) - 1.0) < 0.05


def test_network_rejects_mixed_dtypes():
    cfg = toy_config()
    values = initial_values(cfg, seed=22)
    values["stage2/head1/bias"] = values["stage2/head1/bias"].astype(np.float64)
    with pytest.raises(ValueError, match="mix dtypes"):
        M2FCN(cfg, values)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_runs_in_the_network_dtype(dtype):
    cfg = toy_config()
    net = perturbed(M2FCN(cfg, {k: v.astype(dtype) for k, v in initial_values(cfg, 23).items()}))
    assert net.dtype == dtype
    pixels = np.random.default_rng(4).uniform(0, 1, (1, 8, 8))
    for image in (Tensor(pixels), Tensor(pixels.astype(np.float32))):
        outs = net.forward_all(image)
        assert {t.data.dtype for t in [*outs.side.values(), *outs.fused.values()]} == {np.dtype(dtype)}
        assert net.predict(image).dtype == dtype
    # A float64 image is cast once, to the bytes of one cast up front.
    assert np.array_equal(net.predict(Tensor(pixels)), net.predict(Tensor(pixels.astype(dtype))))


def test_state_roundtrip_and_strictness():
    net = perturbed(build_network(toy_config(), seed=9), seed=12)
    state = net.state()
    other = M2FCN(toy_config(), state)
    img = Tensor(np.random.default_rng(6).uniform(0, 1, (1, 8, 8)))
    assert np.array_equal(net.predict(img), other.predict(img))
    bad = dict(state)
    bad.pop(next(iter(bad)))
    with pytest.raises(ValueError):
        M2FCN(toy_config(), bad)
    bad = dict(state)
    first = next(iter(bad))
    bad[first] = np.zeros((1, 1))
    with pytest.raises(ValueError):
        M2FCN(toy_config(), bad)


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
