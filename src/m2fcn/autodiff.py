"""Float32 or float64 tensors plus a reverse-mode differentiation graph.

A tensor keeps a float32 array as float32 and makes anything else float64.
Networks compute in float32, the dtype ``initial_values`` returns, and every
op follows its input's dtype, so a float64 network computes in float64
throughout; gradient checks run there. A gradient has its node's dtype.

Feature maps are channels x height x width arrays kept C-contiguous, so
``data.ravel()`` is the row-major flat view. Ops are eager: each returns a
fresh Tensor carrying a closure that takes the output gradient as its argument
and routes it back to its parents. The closure never refers to its own output
tensor, so a graph holds no reference cycle and is freed as soon as its root
is dropped. ``Tensor.backward`` walks the graph once in reverse topological
order, accumulating gradients over every path.

A closure keeps only what its parents cannot give it again: convolution
rebuilds the im2col columns of each row band from its input's ``data``,
ReLU reads its own output and max pooling keeps its argmax indices. The
graph's inputs must therefore not change in place between forward and
backward; ``SGD.step`` moves the parameters only after backward has run.

No gradient is zero-filled. Every closure hands its contributions to
``_accumulate``: the first that reaches a node in a sweep becomes its
gradient plus 0.0, and later ones are added in place. Adding 0.0 maps -0.0
to +0.0 exactly as adding to zeros would, so gradients are the bytes of a
sweep that zero-fills every node first. An interior gradient is dropped once
the node's own closure has run, so after the sweep only leaves that require
grad hold a ``grad``.

Inside ``no_grad`` ops build no graph at all: outputs record no parents and
carry no closure, so nothing an op keeps for its backward pass outlives it.
Inference runs there.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "gradients",
    "grad_check",
    "record_kinks",
    "no_grad",
]

class Tensor:
    """One value node in the differentiation graph.

    Leaves are created directly (parameters with ``requires_grad=True``,
    inputs without). Interior nodes are created by ops and inherit
    ``requires_grad`` from their parents. ``backward`` fills ``grad`` for
    every leaf of the swept graph that requires grad.
    """

    __slots__ = ("data", "requires_grad", "grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        # float32 stays float32; anything else, Python numbers included,
        # becomes float64.
        dtype = np.float32 if getattr(data, "dtype", None) == np.float32 else np.float64
        arr = np.ascontiguousarray(data, dtype=dtype)
        # The trainer relies on this check to catch divergence early.
        if not np.isfinite(arr).all():
            raise FloatingPointError(
                f"non-finite values in tensor {name or '<anonymous>'}"
            )
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.name = name
        self._parents: tuple["Tensor", ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{grad_flag}{label})"

    # Arithmetic is strict about shapes: no implicit broadcasting between two
    # tensors. Python scalars are accepted on either side.

    def __add__(self, other):
        if isinstance(other, Tensor):
            if other.shape != self.shape:
                raise ValueError(f"add shape mismatch: {self.shape} vs {other.shape}")
            out = _result(self.data + other.data, (self, other))
            if out.requires_grad:

                def _bw(grad):
                    if self.requires_grad:
                        _accumulate(self, grad)
                    if other.requires_grad:
                        _accumulate(other, grad)

                out._backward = _bw
            return out
        c = float(other)
        out = _result(self.data + c, (self,))
        if out.requires_grad:

            def _bw(grad):
                _accumulate(self, grad)

            out._backward = _bw
        return out

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Tensor):
            if other.shape != self.shape:
                raise ValueError(f"mul shape mismatch: {self.shape} vs {other.shape}")
            out = _result(self.data * other.data, (self, other))
            if out.requires_grad:

                def _bw(grad):
                    if self.requires_grad:
                        _accumulate(self, grad * other.data, owned=True)
                    if other.requires_grad:
                        _accumulate(other, grad * self.data, owned=True)

                out._backward = _bw
            return out
        c = float(other)
        out = _result(self.data * c, (self,))
        if out.requires_grad:

            def _bw(grad):
                _accumulate(self, grad * c, owned=True)

            out._backward = _bw
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return self + (-other)
        return self + (-float(other))

    def __rsub__(self, other):
        return (-self) + float(other)

    def sum(self) -> "Tensor":
        out = _result(np.asarray(self.data.sum()), (self,))
        if out.requires_grad:

            def _bw(grad):
                _accumulate(self, grad)  # scalar broadcast

            out._backward = _bw
        return out

    def reshape(self, shape) -> "Tensor":
        out = _result(self.data.reshape(shape), (self,))
        if out.requires_grad:

            def _bw(grad):
                _accumulate(self, grad.reshape(self.data.shape))

            out._backward = _bw
        return out

    def backward(self) -> None:
        """Reverse sweep from this scalar root.

        Fills ``grad`` afresh on every leaf reachable from the root that
        requires grad, dropping values from an earlier sweep, so a second
        sweep of the same graph gives the same gradients. Every other node,
        the root included, ends with ``grad`` None: an interior gradient is
        stored from its first consumer's contribution (``_accumulate``,
        no zero-fill) and dropped once its own closure has run.
        Contributions arrive in the order of a sweep that zeroes every node
        up front, and the first is stored plus 0.0, so the gradients are
        the same bytes. Raises if the root is not a scalar (one
        element) or does not require grad; such a root reaches no
        parameter, or was built under ``no_grad``.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar root, got shape {self.shape}")
        if not self.requires_grad:
            raise ValueError("backward from a root that does not require grad")
        order = _toposort(self)
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is None:
                continue
            node._backward(node.grad)
            node.grad = None


def _accumulate(node: Tensor, value: np.ndarray, owned: bool = False) -> None:
    """Add one closure's gradient contribution to ``node.grad``.

    The first contribution of a sweep is stored as ``value + 0.0``: in place
    when the caller ``owned`` a fresh array of the node's shape that nothing
    else refers to, on a new array otherwise (``value`` may be a view of
    another node's gradient, or a scalar that broadcasts). Later
    contributions are added in place.
    """
    if node.grad is not None:
        node.grad += value
    elif owned:
        value += 0.0
        node.grad = value
    else:
        node.grad = np.add(value, 0.0, out=np.empty_like(node.data))


def _result(data, parents: Sequence[Tensor], name: str | None = None) -> Tensor:
    """Op output inheriting requires_grad; parents recorded only if needed.

    Under ``no_grad`` the output never requires grad, so the op that calls
    this skips its closure.
    """
    requires_grad = not _NO_GRAD and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires_grad, name=name)
    if out.requires_grad:
        out._parents = tuple(parents)
    return out


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative postorder so deep stage chains cannot hit the recursion limit.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def gradients(root: Tensor, params: Sequence[Tensor]) -> list[np.ndarray]:
    """Backward from a scalar root; one gradient array per parameter.

    Parameters the graph never touches get zero gradients of their shape.
    Stale ``grad`` entries from earlier sweeps are cleared first.
    """
    for p in params:
        p.grad = None
    root.backward()
    return [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]


_NO_GRAD = False


class no_grad:
    """Context manager under which ops build no differentiation graph.

    Every op output is created with ``requires_grad=False`` and records no
    parents, so no backward closure is built and nothing but the caller
    keeps an op's output alive. Values are the same bytes a graph-building
    forward computes.
    Parameters keep their own ``requires_grad`` flags. Contexts nest, and the
    previous state is restored on exit, exceptions included.
    """

    def __enter__(self) -> None:
        global _NO_GRAD
        self._previous = _NO_GRAD
        _NO_GRAD = True

    def __exit__(self, *exc):
        global _NO_GRAD
        _NO_GRAD = self._previous
        return False


# ---- kink tracing for the finite-difference checker ----
#
# ReLU and max pooling are piecewise linear; a central difference straddling
# one of their kinks is meaningless. Ops report their forward values here
# while a trace is armed, and grad_check compares the +eps / -eps traces to
# decide whether a parameter entry sits too close to a kink.


class KinkTrace:
    def __init__(self):
        self.relu_inputs: list[np.ndarray] = []
        self.pool_windows: list[np.ndarray] = []


_ACTIVE_TRACE: KinkTrace | None = None


class record_kinks:
    """Context manager arming the module-level kink trace."""

    def __enter__(self) -> KinkTrace:
        global _ACTIVE_TRACE
        self._previous = _ACTIVE_TRACE
        _ACTIVE_TRACE = KinkTrace()
        return _ACTIVE_TRACE

    def __exit__(self, *exc):
        global _ACTIVE_TRACE
        _ACTIVE_TRACE = self._previous
        return False


def trace_relu(values: np.ndarray) -> None:
    if _ACTIVE_TRACE is not None:
        _ACTIVE_TRACE.relu_inputs.append(np.array(values, copy=True))


def trace_pool_windows(windows: np.ndarray) -> None:
    if _ACTIVE_TRACE is not None:
        _ACTIVE_TRACE.pool_windows.append(np.array(windows, copy=True))


def _entry_hits_kink(plus: KinkTrace, minus: KinkTrace, tol: float) -> bool:
    if len(plus.relu_inputs) != len(minus.relu_inputs) or len(
        plus.pool_windows
    ) != len(minus.pool_windows):
        raise ValueError("graph structure changed between perturbed evaluations")
    for xp, xm in zip(plus.relu_inputs, minus.relu_inputs):
        changed = xp != xm
        if not changed.any():
            continue
        xpc, xmc = xp[changed], xm[changed]
        if np.any(np.sign(xpc) != np.sign(xmc)):
            return True
        if np.any(np.minimum(np.abs(xpc), np.abs(xmc)) < tol):
            return True
    for wp, wm in zip(plus.pool_windows, minus.pool_windows):
        changed = np.any(wp != wm, axis=-1)
        if not changed.any():
            continue
        if np.any(wp.argmax(axis=-1)[changed] != wm.argmax(axis=-1)[changed]):
            return True
        for w in (wp, wm):
            top2 = np.partition(w[changed], -2, axis=-1)
            if np.any(top2[..., -1] - top2[..., -2] < tol):
                return True
    return False


def grad_check(
    fn: Callable[[], Tensor],
    params,
    eps: float = 1e-4,
    max_entries_per_param: int | None = None,
    seed: int = 0,
) -> float:
    """Compare analytic gradients of a scalar function with central differences.

    ``fn`` takes no arguments and must rebuild its graph from the live
    ``params`` tensors (a sequence or a name->Tensor mapping) on every call.
    Each checked entry is perturbed by +/-eps in place; entries whose forward
    passes sit within 10*eps of a ReLU or pooling kink (or whose pooling
    argmax flips between the two passes) are skipped, since the central
    difference is not a derivative estimate there. Exact pooling ties from
    replication padding are safe because the duplicated entries move
    together, but callers should prefer even spatial extents.

    Returns max over checked entries of
    ``|analytic - cd| / max(|analytic|, |cd|, 1e-8)``. When
    ``max_entries_per_param`` is set, a seeded subsample of entries is
    checked for parameters larger than that.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if max_entries_per_param is not None and max_entries_per_param < 1:
        raise ValueError(
            f"max_entries_per_param must be at least 1, got {max_entries_per_param}"
        )
    plist = list(params.values()) if hasattr(params, "values") else list(params)
    # Frozen tensors (requires_grad=False) have no analytic gradient by
    # construction, so a finite-difference comparison is meaningless there.
    plist = [p for p in plist if p.requires_grad]
    if not plist:
        raise ValueError("no differentiated parameters to check")
    out = fn()
    if out.data.size != 1:
        raise ValueError("grad_check needs a scalar-valued function")
    analytic = gradients(out, plist)
    rng = np.random.default_rng(seed)
    tol = 10.0 * eps
    worst = 0.0
    for p, g in zip(plist, analytic):
        flat = p.data.ravel()
        gflat = g.ravel()
        n = flat.size
        if max_entries_per_param is not None and n > max_entries_per_param:
            idxs = np.sort(rng.choice(n, size=max_entries_per_param, replace=False))
        else:
            idxs = np.arange(n)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            with record_kinks() as trace_plus:
                f_plus = fn().data.item()
            flat[i] = orig - eps
            with record_kinks() as trace_minus:
                f_minus = fn().data.item()
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise FloatingPointError("non-finite value while finite differencing")
            if _entry_hits_kink(trace_plus, trace_minus, tol):
                continue
            cd = (f_plus - f_minus) / (2.0 * eps)
            a = float(gflat[i])
            err = abs(a - cd) / max(abs(a), abs(cd), 1e-8)
            if err > worst:
                worst = err
    return worst
