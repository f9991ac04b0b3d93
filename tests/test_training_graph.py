"""What a training graph keeps, and the gradients its reverse sweep gives.

Conv closures rebuild their columns in backward and ``Tensor.backward``
allocates each interior gradient only while it is needed. The gradients must
still be the bytes of the sweep that zero-fills every node up front
(``oracles.eager_backward``), and the graph must stay re-usable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2fcn.autodiff import Tensor, _toposort
from m2fcn.loss import BoundaryLabels, total_loss
from m2fcn.network import M2FCN, NetworkConfig, build_network
from m2fcn.ops import conv2d
from m2fcn.training import freeze_stage
from oracles import eager_backward
from test_network import PAPER_SMALL, TOY_SUBNET, _traced_peak, perturbed
from test_tracer import load_tracing

CONFIGS = {
    "toy-all": NetworkConfig(stages=2, subnet=TOY_SUBNET),
    "toy-single2": NetworkConfig(stages=2, subnet=TOY_SUBNET, recursive_level=2),
    "toy-stepwise": NetworkConfig(stages=2, subnet=TOY_SUBNET),
    "paper-small": PAPER_SMALL,
}


def training_graph(name: str, seed: int, hw: tuple[int, int]):
    """(network, input image, loss root) of one training iteration's graph."""
    net = perturbed(build_network(CONFIGS[name], seed=seed), seed=seed)
    rng = np.random.default_rng(seed + 1)
    if name == "toy-stepwise":
        freeze_stage(net, 1)
    image = Tensor(rng.uniform(0.0, 1.0, (1, *hw)))
    labels = BoundaryLabels.from_mask(rng.random(hw) < 0.3)
    root = total_loss(net.forward_all(image), labels, net.config)
    return net, image, root


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
    assert len(frozen) == (0 if name == "toy-all" else len(net.stages[0].parameters()) + 1)
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
