"""The benchmark's span tracer against the package's attribute names.

The tracer in perfbench/tracing.py replaces package functions and methods
by module attribute. Renaming one of them in src/ breaks a traced benchmark
run; this test catches that in milliseconds.
"""

import gc
import importlib.util
from pathlib import Path

import numpy as np

from m2fcn import autodiff, checkpoint, evaluation, loss, network, ops, subnet, training
from m2fcn.autodiff import Tensor
from m2fcn.data import Sample
from m2fcn.network import NetworkConfig, build_network
from m2fcn.subnet import LevelSpec, SubNetConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

OWNERS = (
    autodiff, checkpoint, evaluation, loss, network, ops, subnet, training,
    autodiff.Tensor, subnet.SubNet, network.M2FCN, training.SGD,
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attributes():
    return {(owner.__name__, key): value for owner in OWNERS for key, value in vars(owner).items()}


def test_tracer_installs_traces_and_restores():
    tracer = load_tracing().Tracer()
    before = attributes()
    try:
        tracer.install()
        during = attributes()
        levels = (LevelSpec(1, 2), LevelSpec(1, 2))
        config = NetworkConfig(stages=2, subnet=SubNetConfig(levels=levels))
        net = build_network(config, 0)
        rng = np.random.default_rng(0)
        sample = Sample(rng.uniform(0.1, 0.9, (1, 8, 8)), rng.random((8, 8)) < 0.3)
        outs = net.forward_all(Tensor(sample.image))
        training.total_loss(outs, sample.labels(), config).backward()
    finally:
        tracer.uninstall()
    patched = {key for key, value in before.items() if during[key] is not value}
    for key in (
        ("m2fcn.training", "balanced_ce_value"),
        ("m2fcn.evaluation", "_label_components"),
        ("m2fcn.subnet", "maxpool2"),
        ("M2FCN", "state"),
        ("Tensor", "__init__"),
    ):
        assert key in patched
    names = {span[0] for span in tracer.all_spans()}
    assert {"ops.conv2d.bwd", "loss.side_loss.bwd", "autodiff.backward"} <= names
    after = attributes()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert tracer._gc_callback not in gc.callbacks
