"""What a training graph keeps, and the gradients its reverse sweep gives.

Conv closures rebuild their columns in backward and ``Tensor.backward``
allocates each interior gradient only while it is needed. The gradients must
still be the bytes of the sweep that zero-fills every node up front
(``oracles.eager_backward``), and the graph must stay re-usable. The
objective is one ``side_loss`` over the stack of every map; its value and
gradients must be the bytes of one ``side_loss`` node per map chained by adds.
A float32 network keeps every map and gradient in float32, and its
gradients stay within float32 rounding of the same network's in float64.
"""

from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2fcn import autodiff, loss, ops
from m2fcn.autodiff import Tensor, _toposort
from m2fcn.data import Sample
from m2fcn.loss import BoundaryLabels, class_balance_beta, side_loss, total_loss
from m2fcn.network import M2FCN, NetworkConfig, build_network
from m2fcn.ops import conv2d
from m2fcn.subnet import parameter_shapes
from m2fcn.training import TrainSchedule, freeze_stage, train
from oracles import eager_backward
from test_network import PAPER_SMALL, TOY_SUBNET, _traced_peak, perturbed
from test_tracer import load_tracing

CONFIGS = {
    "toy-all": NetworkConfig(stages=2, subnet=TOY_SUBNET),
    "toy-single2": NetworkConfig(stages=2, subnet=TOY_SUBNET, recursive_level=2),
    "toy-stepwise": NetworkConfig(stages=2, subnet=TOY_SUBNET),
    "paper-small": PAPER_SMALL,
}


def training_graph(name: str, seed: int, hw: tuple[int, int], boundary=0.3, objective=total_loss):
    """(network, input image, loss root) of one training iteration's graph.

    ``boundary`` is the share of boundary pixels drawn: 0 and 1 give the
    degenerate masks.
    """
    net = perturbed(build_network(CONFIGS[name], seed=seed), seed=seed)
    rng = np.random.default_rng(seed + 1)
    if name == "toy-stepwise":
        freeze_stage(net, 1)
    image = Tensor(rng.uniform(0.0, 1.0, (1, *hw)))
    labels = BoundaryLabels.from_mask(rng.random(hw) < boundary)
    root = objective(net.forward_all(image), labels, net.config)
    return net, image, root


def per_map_objective(outs, labels, config):
    """The objective as one side_loss node per map, summed by a chain of adds."""
    beta = class_balance_beta(labels)
    stages, levels = range(1, config.stages + 1), range(1, len(config.subnet.levels) + 1)
    maps = [outs.side[(m, n)] for m in stages for n in levels] + [outs.fused[m] for m in stages]
    return reduce(add, [side_loss(t, labels, beta) for t in maps])


def trainable(net: M2FCN) -> dict[str, Tensor]:
    return {k: p for k, p in net.parameters().items() if p.requires_grad}


@pytest.mark.parametrize("name", sorted(CONFIGS))
@given(seed=st.integers(0, 2**16), hw=st.sampled_from([(16, 16), (24, 20), (33, 29), (17, 9)]))
@settings(max_examples=6, deadline=None)
def test_parameter_gradients_equal_eager_sweep_bytes(name, seed, hw):
    net, _, root = training_graph(name, seed, hw)
    eager_backward(root)
    want = {k: p.grad.copy() for k, p in trainable(net).items()}
    root.backward()
    got = {k: p.grad for k, p in trainable(net).items()}
    assert want.keys() == got.keys() and len(got) > 0
    for k in want:
        assert got[k].tobytes() == want[k].tobytes(), k


@pytest.mark.parametrize("boundary", [0.3, 0.0, 1.0], ids=["mixed", "no-boundary", "all-boundary"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
@given(seed=st.integers(0, 2**16), hw=st.sampled_from([(16, 16), (24, 20), (33, 29), (17, 9)]))
@settings(max_examples=6, deadline=None)
def test_stacked_objective_equals_per_map_sum_bytes(name, seed, hw, boundary):
    reference, _, want_root = training_graph(name, seed, hw, boundary, per_map_objective)
    want_root.backward()
    want = {k: p.grad for k, p in trainable(reference).items()}
    net, _, root = training_graph(name, seed, hw, boundary)
    assert root.data.tobytes() == want_root.data.tobytes()
    root.backward()
    got = {k: p.grad for k, p in trainable(net).items()}
    assert want.keys() == got.keys() and len(got) > 0
    for k in want:
        assert got[k].tobytes() == want[k].tobytes(), k


def test_toy_objective_is_one_side_loss_node():
    _, _, root = training_graph("toy-all", 5, (128, 128))
    nodes = _toposort(root)
    assert len(nodes) == 91
    assert [n for n in nodes if n._parents and n.size == 1] == [root]
    assert [n for n in nodes if n._backward and "side_loss" in n._backward.__qualname__] == [root]
    # One pair of HxW class-weight rasters; the stacked maps are the graph's own.
    assert load_tracing().closure_bytes(root._backward) <= 2 * 128 * 128 * 8


def test_conv_closure_keeps_nothing_beyond_its_tensors():
    tracing = load_tracing()
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 12, 10)), requires_grad=True)
    for k in (3, 1):
        w = Tensor(rng.normal(size=(4, 3, k, k)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        out = conv2d(x, w, b)
        assert out._backward is not None
        assert tracing.closure_bytes(out._backward) == 0


def test_training_iteration_peak_below_three_graphs():
    # Closures keeping columns, and a zero gradient for every node at once,
    # put the peak near six times the graph's interior tensors.
    net = build_network(CONFIGS["toy-all"], seed=1)
    rng = np.random.default_rng(2)
    image = Tensor(rng.uniform(0.0, 1.0, (1, 128, 128)))
    labels = BoundaryLabels.from_mask(rng.random((128, 128)) < 0.3)
    roots = []

    def iteration():
        roots.append(total_loss(net.forward_all(image), labels, net.config))
        roots[0].backward()

    peak = _traced_peak(iteration)
    interior = sum(n.data.nbytes for n in _toposort(roots[0]) if n._parents)
    assert peak < 3 * interior


@pytest.mark.parametrize("name", ["toy-all", "toy-stepwise"])
def test_only_trainable_leaves_keep_gradients(name):
    net, image, root = training_graph(name, 3, (20, 18))
    root.backward()
    live = trainable(net).values()
    assert live and all(p.grad is not None and p.grad.shape == p.shape for p in live)
    frozen = [p for p in net.parameters().values() if not p.requires_grad]
    assert len(frozen) == (0 if name == "toy-all" else len(list(parameter_shapes(net.config.stage_config(1)))) + 1)
    assert all(p.grad is None for p in frozen)
    interior = [n for n in _toposort(root) if n._parents]
    assert root in interior and all(n.grad is None for n in interior)
    assert image.grad is None


def test_second_sweep_gives_the_same_gradients():
    net, _, root = training_graph("toy-all", 4, (24, 20))
    root.backward()
    first = {k: p.grad.copy() for k, p in trainable(net).items()}
    root.backward()
    for k, p in trainable(net).items():
        assert p.grad.tobytes() == first[k].tobytes(), k


# ---- float32 ----

# Largest |float32 - float64| gradient entry of a parameter, relative to the
# tensor's largest float64 entry. float32 rounds at 6e-8 relative; through
# the toy and small-paper graphs the measured worst was 8e-6. A dropped or
# doubled term would be of order 1.
FLOAT32_GRADIENT_TOLERANCE = 1e-4


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_float32_gradients_match_float64_gradients(name):
    net, image, _ = training_graph(name, 5, (20, 18))
    labels = BoundaryLabels.from_mask(np.random.default_rng(7).random((20, 18)) < 0.3)
    grads = {}
    for dtype in (np.float32, np.float64):
        # The float32 values are exact in float64: both sweeps see one network.
        twin = M2FCN(net.config, {k: v.astype(dtype) for k, v in net.state().items()})
        if name == "toy-stepwise":
            freeze_stage(twin, 1)
        total_loss(twin.forward_all(image), labels, twin.config).backward()
        grads[dtype] = {k: p.grad for k, p in trainable(twin).items()}
    assert grads[np.float32].keys() == grads[np.float64].keys() and len(grads[np.float32]) > 0
    for k, g64 in grads[np.float64].items():
        g32 = grads[np.float32][k]
        assert g32.dtype == np.float32 and g64.dtype == np.float64, k
        err = np.abs(g32 - g64).max() / np.abs(g64).max()
        assert err <= FLOAT32_GRADIENT_TOLERANCE, f"{k}: {err:.2e}"


def test_float32_training_iteration_stays_float32(monkeypatch):
    # A float64 array anywhere in the iteration would promote what follows
    # it. The objective's value is the one float64 node, by design.
    outputs, losses, grads = [], [], []

    def recorder(module, into):
        result = module._result

        def recording_result(*args, **kwargs):
            out = result(*args, **kwargs)
            into.append(out.data.dtype)
            return out

        monkeypatch.setattr(module, "_result", recording_result)
        accumulate = module._accumulate

        def recording_accumulate(node, *args, **kwargs):
            accumulate(node, *args, **kwargs)
            grads.append(node.grad.dtype)

        monkeypatch.setattr(module, "_accumulate", recording_accumulate)

    for module, into in ((autodiff, outputs), (ops, outputs), (loss, losses)):
        recorder(module, into)
    net = build_network(CONFIGS["toy-all"], seed=6)
    rng = np.random.default_rng(6)
    sample = Sample(rng.uniform(0.0, 1.0, (1, 16, 16)), rng.random((16, 16)) < 0.3)
    result = train(net, [sample], TrainSchedule(phase2_iters=1))
    assert len(result.log) == 1 and not result.aborted
    assert len(outputs) > 50 and set(outputs) == {np.dtype(np.float32)}
    assert len(grads) > 50 and set(grads) == {np.dtype(np.float32)}
    # One side_loss over the stack, then one per fused map for the log.
    assert losses == [np.dtype(np.float64)] * 3
    params = net.parameters().values()
    assert all(p.data.dtype == np.float32 and p.grad.dtype == np.float32 for p in params)
