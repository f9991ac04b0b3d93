"""Span tracing for the per-layer metrics, installed from outside the package.

A traced run replaces public functions and methods of ``m2fcn`` with timing
wrappers, at every module attribute where the package's own callers look
them up (``subnet.maxpool2`` as well as ``ops.maxpool2``). Op results get
their ``_backward`` closure wrapped too, so backward time is attributed to
the op that built the closure. Spans (name, start, end, parent, phase) stay
in memory and are written once at the end; garbage-collector pauses arrive
through ``gc.callbacks`` and count as child spans of whatever was running.

An untraced run uses ``NullTracer``: phase markers cost one attribute lookup
and nothing in the package is replaced.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

OPS = ("conv2d", "maxpool2", "upsample", "concat_channels", "relu", "sigmoid")

# Per-layer metrics: name -> unit. The order is the order of the README.
PER_LAYER = {
    **{f"ops.{op}.{d}_ms": "ms" for op in OPS for d in ("fwd", "bwd")},
    "ops.conv2d.calls": "count",
    "ops.conv2d.closure_mb": "MB",
    "autodiff.backward_self_ms": "ms",
    "autodiff.tensor_init_ms": "ms",
    "autodiff.tensors_created": "count",
    "autodiff.graph_nodes": "count",
    "autodiff.graph_mb": "MB",
    "autodiff.gc_pause_ms": "ms",
    "autodiff.gc_collections": "count",
    "subnet.forward_ms": "ms",
    "network.forward_all_ms": "ms",
    "loss.total_loss_ms": "ms",
    "loss.side_loss.bwd_ms": "ms",
    "training.sgd_step_ms": "ms",
    "training.state_copy_ms": "ms",
    "training.state_copies": "count",
    "training.log_loss_ms": "ms",
    "training.loop_self_ms": "ms",
    "evaluation.segment_ms": "ms",
    "evaluation.label_components_ms": "ms",
    "evaluation.contingency_ms": "ms",
    "evaluation.sweep_self_ms": "ms",
    "evaluation.segment_calls": "count",
    "data.synth_corpus_ms": "ms",
    "data.augment36_ms": "ms",
    "data.pgm_roundtrip_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.parse_ms": "ms",
    "checkpoint.rebuild_ms": "ms",
}


class NullTracer:
    """Tracing off: phases and spans are no-ops, counters are dropped."""

    def phase(self, name):
        return nullcontext()

    span = phase

    def install(self):
        pass

    def uninstall(self):
        pass


class Tracer:
    def __init__(self):
        # One list per span: [name, parent index, phase, start, end].
        self.spans: list[list] = []
        self.gc_spans: list[list] = []
        self.stack: list[int] = []
        self.current_phase = "none"
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # ---- spans ----

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, self.current_phase,
                           time.perf_counter(), 0.0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def phase(self, name: str):
        """A benchmark phase: every span and count inside is tagged with it."""
        previous, self.current_phase = self.current_phase, name
        try:
            with self.span(f"phase.{name}"):
                yield
        finally:
            self.current_phase = previous

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.current_phase, name)] += value

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _gc_callback(self, phase: str, info: dict) -> None:
        # Runs inside whatever allocation triggered the collection, possibly
        # halfway through _open, so it keeps to a list of its own.
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.gc_spans.append(["autodiff.gc", self.stack[-1] if self.stack else -1,
                              self.current_phase, self._gc_start, time.perf_counter()])
        self.counts[(self.current_phase, "autodiff.gc_collections")] += 1

    # ---- installation ----

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _op(self, name: str, fn):
        forward = self.timed(f"ops.{name}.fwd", fn)
        bwd = f"ops.{name}.bwd"
        tracer = self

        def wrapper(*args, **kwargs):
            res = forward(*args, **kwargs)
            tracer.count(f"ops.{name}.calls")
            if res._backward is not None:
                if name == "conv2d":
                    tracer.count("ops.conv2d.closure_mb", closure_bytes(res._backward) / 2**20)
                res._backward = tracer.timed(bwd, res._backward)
            return res

        return wrapper

    def install(self) -> None:
        from m2fcn import autodiff, checkpoint, evaluation, loss, network, ops, subnet, training

        tracer = self
        op_sites = {
            "conv2d": (ops, loss),
            "maxpool2": (ops, subnet),
            "upsample": (ops, subnet),
            "concat_channels": (ops, network, loss),
            "relu": (ops, subnet),
            "sigmoid": (ops, network),
        }
        for name, modules in op_sites.items():
            wrapped = self._op(name, getattr(ops, name))
            for module in modules:
                self._patch(module, name, wrapped)

        tensor = autodiff.Tensor
        init = tensor.__init__

        def tensor_init(obj, *args, **kwargs):
            tracer.count("autodiff.tensors_created")
            idx = tracer._open("autodiff.tensor_init")
            try:
                init(obj, *args, **kwargs)
            finally:
                tracer._close(idx)

        self._patch(tensor, "__init__", tensor_init)
        self._patch(tensor, "backward", self.timed("autodiff.backward", tensor.backward))
        toposort = autodiff._toposort

        def counting_toposort(root):
            order = toposort(root)
            tracer.count("autodiff.graph_nodes", len(order))
            # Interior nodes only: parameters are not part of what the graph keeps.
            tracer.count("autodiff.graph_mb", sum(n.data.nbytes for n in order if n._parents) / 2**20)
            return order

        self._patch(autodiff, "_toposort", counting_toposort)

        self._patch(subnet.SubNet, "forward", self.timed("subnet.forward", subnet.SubNet.forward))
        self._patch(network.M2FCN, "forward_all",
                    self.timed("network.forward_all", network.M2FCN.forward_all))
        state = self.timed("training.state_copy", network.M2FCN.state)

        def counting_state(net):
            tracer.count("training.state_copies")
            return state(net)

        self._patch(network.M2FCN, "state", counting_state)

        self._patch(training, "total_loss", self.timed("loss.total_loss", loss.total_loss))
        side_loss = loss.side_loss

        def traced_side_loss(*args, **kwargs):
            res = side_loss(*args, **kwargs)
            if res._backward is not None:
                res._backward = tracer.timed("loss.side_loss.bwd", res._backward)
            return res

        self._patch(loss, "side_loss", traced_side_loss)
        self._patch(training, "balanced_ce_value",
                    self.timed("training.log_loss", loss.balanced_ce_value))
        self._patch(training.SGD, "step", self.timed("training.sgd_step", training.SGD.step))

        segment = self.timed("evaluation.segment", evaluation.segment_from_boundary)

        def counting_segment(*args, **kwargs):
            tracer.count("evaluation.segment_calls")
            return segment(*args, **kwargs)

        self._patch(evaluation, "segment_from_boundary", counting_segment)
        self._patch(evaluation, "_label_components",
                    self.timed("evaluation.label_components", evaluation._label_components))
        self._patch(evaluation, "contingency",
                    self.timed("evaluation.contingency", evaluation.contingency))
        self._patch(checkpoint, "load_checkpoint",
                    self.timed("checkpoint.parse", checkpoint.load_checkpoint))
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ---- results ----

    def all_spans(self) -> list[list]:
        return self.spans + self.gc_spans

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        spans = self.all_spans()
        own = [s[4] - s[3] for s in spans]
        for s in spans:
            if s[1] >= 0:
                own[s[1]] -= s[4] - s[3]
        return own

    def totals(self, phase: str) -> tuple[dict[str, float], dict[str, float]]:
        """(inclusive seconds, self seconds) per span name within one phase."""
        inclusive: dict[str, float] = defaultdict(float)
        exclusive: dict[str, float] = defaultdict(float)
        for s, own in zip(self.all_spans(), self.self_times()):
            if s[2] == phase:
                inclusive[s[0]] += s[4] - s[3]
                exclusive[s[0]] += own
        return inclusive, exclusive

    def write(self, path) -> None:
        """One JSON array per span: id, name, parent id, phase, start, end."""
        with open(path, "w") as fh:
            for i, span in enumerate(self.all_spans()):
                fh.write(json.dumps([i, *span[:3], round(span[3], 7), round(span[4], 7)]) + "\n")


def closure_bytes(fn) -> int:
    """Bytes of arrays a backward closure keeps alive beyond its tensors' data.

    Views of a tensor captured by the same closure (a reshaped weight, say)
    are not counted; im2col columns and masks are.
    """
    from m2fcn.autodiff import Tensor

    cells = [c.cell_contents for c in fn.__closure__ or ()]
    owned = {id(_root(c.data)) for c in cells if isinstance(c, Tensor)}
    seen: set[int] = set()
    total = 0
    for c in cells:
        if isinstance(c, np.ndarray):
            root = _root(c)
            if id(root) not in owned and id(root) not in seen:
                seen.add(id(root))
                total += root.nbytes
    return total


def _root(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def per_layer_metrics(tracer: Tracer, iterations: int, images: int, setups: int,
                      saves: int, loads: int) -> dict[str, float]:
    """Aggregate spans and counts into the per-layer metrics.

    Training-side metrics are per training iteration of the timed train
    phase, evaluation metrics per swept map of the timed sweep phase, data
    metrics per set-up, checkpoint metrics per save or load.
    """
    ms = 1e3
    train_inc, train_self = tracer.totals("train")
    sweep_inc, sweep_self = tracer.totals("sweep")
    setup_inc, _ = tracer.totals("setup")
    save_inc, _ = tracer.totals("checkpoint")
    load_inc, _ = tracer.totals("model_load")

    def count(phase, name):
        return tracer.counts.get((phase, name), 0.0)

    out: dict[str, float] = {}
    for op in OPS:
        out[f"ops.{op}.fwd_ms"] = train_inc[f"ops.{op}.fwd"] * ms / iterations
        out[f"ops.{op}.bwd_ms"] = train_inc[f"ops.{op}.bwd"] * ms / iterations
    out["ops.conv2d.calls"] = count("train", "ops.conv2d.calls") / iterations
    out["ops.conv2d.closure_mb"] = count("train", "ops.conv2d.closure_mb") / iterations
    out["autodiff.backward_self_ms"] = train_self["autodiff.backward"] * ms / iterations
    out["autodiff.tensor_init_ms"] = train_inc["autodiff.tensor_init"] * ms / iterations
    for name in ("tensors_created", "graph_nodes", "graph_mb", "gc_collections"):
        out[f"autodiff.{name}"] = count("train", f"autodiff.{name}") / iterations
    out["autodiff.gc_pause_ms"] = train_inc["autodiff.gc"] * ms / iterations
    out["subnet.forward_ms"] = train_inc["subnet.forward"] * ms / iterations
    out["network.forward_all_ms"] = train_inc["network.forward_all"] * ms / iterations
    out["loss.total_loss_ms"] = train_inc["loss.total_loss"] * ms / iterations
    out["loss.side_loss.bwd_ms"] = train_inc["loss.side_loss.bwd"] * ms / iterations
    out["training.sgd_step_ms"] = train_inc["training.sgd_step"] * ms / iterations
    out["training.state_copy_ms"] = train_inc["training.state_copy"] * ms / iterations
    out["training.state_copies"] = count("train", "training.state_copies") / iterations
    out["training.log_loss_ms"] = train_inc["training.log_loss"] * ms / iterations
    out["training.loop_self_ms"] = train_self["train"] * ms / iterations
    out["evaluation.segment_ms"] = sweep_inc["evaluation.segment"] * ms / images
    out["evaluation.label_components_ms"] = sweep_inc["evaluation.label_components"] * ms / images
    out["evaluation.contingency_ms"] = sweep_inc["evaluation.contingency"] * ms / images
    out["evaluation.sweep_self_ms"] = sweep_self["sweep"] * ms / images
    out["evaluation.segment_calls"] = count("sweep", "evaluation.segment_calls") / images
    out["data.synth_corpus_ms"] = setup_inc["synth_corpus"] * ms / setups
    out["data.augment36_ms"] = setup_inc["augment36"] * ms / setups
    out["data.pgm_roundtrip_ms"] = setup_inc["pgm_roundtrip"] * ms / setups
    out["checkpoint.save_ms"] = save_inc["save_checkpoint"] * ms / saves
    parse = load_inc["checkpoint.parse"]
    out["checkpoint.parse_ms"] = parse * ms / loads
    out["checkpoint.rebuild_ms"] = (load_inc["network_from_checkpoint"] - parse) * ms / loads
    return out
