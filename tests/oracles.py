"""Slow, independent reference implementations used to pin test values.

Everything here is written the obvious way (nested loops, brute-force
enumeration, direct formulas) so disagreement with the package points at
the package. No imports from m2fcn.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np


# ---- convolution / pooling / upsampling ----


def conv2d_loops(x, w, b=None, stride=1, padding=None):
    """Cross-correlation with explicit quadruple loops."""
    cx, h, win = x.shape
    o, cw, kh, kw = w.shape
    assert cx == cw
    if padding is None:
        padding = (kh - 1) // 2
    xp = np.zeros((cx, h + 2 * padding, win + 2 * padding))
    xp[:, padding : padding + h, padding : padding + win] = x
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (win + 2 * padding - kw) // stride + 1
    out = np.zeros((o, ho, wo))
    for oc in range(o):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for c in range(cx):
                    for u in range(kh):
                        for v in range(kw):
                            acc += (
                                w[oc, c, u, v]
                                * xp[c, i * stride + u, j * stride + v]
                            )
                out[oc, i, j] = acc + (0.0 if b is None else b[oc])
    return out


def _im2col_padded(x, kh, kw):
    cx, h, w = x.shape
    if kh == kw == 1:
        return x.reshape(cx, h * w)
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    cols = np.empty((cx, kh, kw, h, w))
    for ki in range(kh):
        for kj in range(kw):
            cols[:, ki, kj] = xp[:, ki : ki + h, kj : kj + w]
    return cols.reshape(cx * kh * kw, h * w)


def conv2d_whole_block(x, w, b=None):
    """Same-padded stride-1 conv as one GEMM over the whole im2col block."""
    cx, h, win = x.shape
    o, _, kh, kw = w.shape
    out = w.reshape(o, -1) @ _im2col_padded(x, kh, kw)
    if b is not None:
        out += b[:, None]
    return out.reshape(o, h, win)


def conv2d_whole_block_grads(x, w, g):
    """(dx, dw, db) of ``conv2d_whole_block`` for output gradient ``g``.

    The input gradient adds each tap's columns into a padded buffer in
    (ki, kj) order and crops the border. Gradients are returned plus 0.0,
    as the package stores a node's first contribution.
    """
    cx, h, win = x.shape
    o, _, kh, kw = w.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    gm = g.reshape(o, h * win)
    dw = (gm @ _im2col_padded(x, kh, kw).T).reshape(w.shape)
    dcols = (w.reshape(o, -1).T @ gm).reshape(cx, kh, kw, h, win)
    dxp = np.zeros((cx, h + 2 * ph, win + 2 * pw))
    for ki in range(kh):
        for kj in range(kw):
            dxp[:, ki : ki + h, kj : kj + win] += dcols[:, ki, kj]
    return dxp[:, ph : ph + h, pw : pw + win] + 0.0, dw + 0.0, gm.sum(axis=1) + 0.0


def maxpool2_loops(x):
    """2x2/2 max with bottom/right edge replication on odd extents."""
    c, h, w = x.shape
    hp, wp = h + h % 2, w + w % 2
    xp = np.empty((c, hp, wp))
    xp[:, :h, :w] = x
    if h % 2:
        xp[:, h, :w] = x[:, h - 1, :]
    if w % 2:
        xp[:, :h, w] = x[:, :, w - 1]
    if h % 2 and w % 2:
        xp[:, h, w] = x[:, h - 1, w - 1]
    out = np.empty((c, hp // 2, wp // 2))
    for ci in range(c):
        for i in range(hp // 2):
            for j in range(wp // 2):
                out[ci, i, j] = xp[ci, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max()
    return out


def bilinear_upsample_pointwise(x, factor, out_hw=None):
    """Transposed-conv bilinear upsampling evaluated pixel by pixel.

    Kernel size k = 2f - f%2, pad p = (k - f) // 2, triangular taps
    1 - |i - (k-1)/2| / f. Output pixel (i, j) sums taps over the source
    grid placed at stride f.
    """
    c, h, w = x.shape
    f = factor
    k = 2 * f - f % 2
    p = (k - f) // 2
    kern = 1.0 - np.abs(np.arange(k) - (k - 1) / 2.0) / f
    th, tw = out_hw if out_hw is not None else (h * f, w * f)
    out = np.zeros((c, th, tw))
    for ci in range(c):
        for i in range(th):
            for j in range(tw):
                acc = 0.0
                for sy in range(h):
                    for sx in range(w):
                        u = i + p - sy * f
                        v = j + p - sx * f
                        if 0 <= u < k and 0 <= v < k:
                            acc += x[ci, sy, sx] * kern[u] * kern[v]
                out[ci, i, j] = acc
    return out


# ---- receptive field by influence, in 1D ----
#
# Every geometry-changing op in the stack (3x3 same-pad conv, 2x2/2 pool)
# is separable, so the receptive-field side length of the 2D network equals
# the receptive field of the 1D chain with the same op sequence. With
# positive weights and positive inputs, a huge perturbation at one input
# position changes exactly the outputs whose receptive field covers it.


def _conv1d_same_ones(a):
    ap = np.concatenate([[0.0], a, [0.0]])
    return ap[:-2] + ap[1:-1] + ap[2:]


def _pool1d(a):
    if len(a) % 2:
        a = np.concatenate([a, a[-1:]])
    return np.maximum(a[0::2], a[1::2])


def rf_influence_1d(convs_per_level, level, length=None):
    """(jump, rf) of the given level head measured by input perturbation."""

    def forward(x):
        a = x
        for lvl in range(1, level + 1):
            if lvl > 1:
                a = _pool1d(a)
            for _ in range(convs_per_level[lvl - 1]):
                a = np.maximum(_conv1d_same_ones(a), 0.0)
        return a

    if length is None:
        length = 64 * 2 ** (level - 1)
    rng = np.random.default_rng(7)
    x0 = rng.uniform(0.5, 1.0, length)
    base = forward(x0)
    n_out = len(base)
    influence = np.zeros((n_out, length), dtype=bool)
    for pos in range(length):
        xp = x0.copy()
        xp[pos] += 1e9
        influence[:, pos] = forward(xp) != base
    center = n_out // 2
    span = np.flatnonzero(influence[center])
    rf = int(span[-1] - span[0] + 1)
    next_span = np.flatnonzero(influence[center + 1])
    jump = int(next_span[0] - span[0])
    return jump, rf


# ---- loss ----


def balanced_loss_scalar(logits, mask, beta):
    """Term-by-term class-weighted logistic loss via logaddexp.

    -log sigmoid(s) = logaddexp(0, -s) and -log(1 - sigmoid(s)) =
    logaddexp(0, s); boundary pixels (mask True) are the sigmoid->0 class.
    """
    s = np.asarray(logits, dtype=np.float64).reshape(-1)
    m = np.asarray(mask, dtype=bool).reshape(-1)
    total = 0.0
    for si, mi in zip(s, m):
        if mi:
            total += beta * np.logaddexp(0.0, si)
        else:
            total += (1.0 - beta) * np.logaddexp(0.0, -si)
    return float(total)


# ---- partitions and Rand scores ----


def set_partitions(n):
    """All partitions of range(n) as lists of blocks (restricted growth)."""
    if n == 0:
        yield []
        return
    codes = [0] * n

    def rec(i, maxcode):
        if i == n:
            blocks = [[] for _ in range(maxcode + 1)]
            for idx, c in enumerate(codes):
                blocks[c].append(idx)
            yield [b for b in blocks if b]
            return
        for c in range(maxcode + 2):
            codes[i] = c
            yield from rec(i + 1, max(maxcode, c))

    yield from rec(1, 0)


def labels_of_partition(parts, n):
    lab = np.zeros(n, dtype=int)
    for k, block in enumerate(parts, start=1):
        for idx in block:
            lab[idx] = k
    return lab


def rand_merge_split_pairs(prop_labels, gt_labels):
    """Merge/split scores by counting ordered element pairs (with self pairs).

    merge = P(same gt block | same proposal block),
    split = P(same proposal block | same gt block),
    taken over all ordered pairs of elements, including (i, i).
    """
    p = np.asarray(prop_labels).reshape(-1)
    g = np.asarray(gt_labels).reshape(-1)
    n = len(p)
    both = same_p = same_g = 0
    for i in range(n):
        for j in range(n):
            sp = p[i] == p[j]
            sg = g[i] == g[j]
            same_p += sp
            same_g += sg
            both += sp and sg
    return both / same_p, both / same_g


# ---- flood fill ----


def bfs_components(mask):
    """4-connected component labels of a boolean mask, BFS, 0 outside."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=np.int32)
    nxt = 0
    for si in range(h):
        for sj in range(w):
            if not mask[si, sj] or labels[si, sj]:
                continue
            nxt += 1
            queue = deque([(si, sj)])
            labels[si, sj] = nxt
            while queue:
                i, j = queue.popleft()
                for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    a, b = i + di, j + dj
                    if 0 <= a < h and 0 <= b < w and mask[a, b] and not labels[a, b]:
                        labels[a, b] = nxt
                        queue.append((a, b))
    return labels


def flood_segment(prob, threshold):
    """Label prob >= threshold, then flood the rest one pixel at a time.

    Sub-threshold pixels leave a heap in decreasing-probability order (ties
    row-major), each taking the id of its highest-probability labeled
    neighbor, ties going to the first in the scan order up, left, right,
    down. Returns an int32 raster, all 0 when no pixel reaches the threshold.
    """
    p = np.asarray(prob, dtype=np.float64)
    h, w = p.shape
    labels = bfs_components(p >= threshold)
    if labels.max() == 0:
        return labels

    scan = ((-1, 0), (0, -1), (0, 1), (1, 0))
    heap = []
    fg = labels > 0
    frontier = ~fg & (
        np.pad(fg[1:, :], ((0, 1), (0, 0)))
        | np.pad(fg[:-1, :], ((1, 0), (0, 0)))
        | np.pad(fg[:, 1:], ((0, 0), (0, 1)))
        | np.pad(fg[:, :-1], ((0, 0), (1, 0)))
    )
    for r, c in zip(*np.nonzero(frontier)):
        heapq.heappush(heap, (-p[r, c], int(r), int(c)))
    while heap:
        _, r, c = heapq.heappop(heap)
        if labels[r, c] != 0:
            continue
        best_id, best_p = 0, -1.0
        for dr, dc in scan:
            rr, cc = r + dr, c + dc
            if 0 <= rr < h and 0 <= cc < w and labels[rr, cc] > 0 and p[rr, cc] > best_p:
                best_id, best_p = int(labels[rr, cc]), p[rr, cc]
        labels[r, c] = best_id
        for dr, dc in scan:
            rr, cc = r + dr, c + dc
            if 0 <= rr < h and 0 <= cc < w and labels[rr, cc] == 0:
                heapq.heappush(heap, (-p[rr, cc], rr, cc))
    return labels


# ---- prediction ----


def graph_predict(net, x):
    """The prediction as a graph-building forward gives it.

    Runs ``net.forward_all(x)`` with the backward graph built, then applies
    ``sigmoid_masked`` to the last stage's fused map.
    """
    fused = net.forward_all(x).fused[net.config.stages]
    assert fused.requires_grad, "the oracle forward must build the graph"
    return sigmoid_masked(fused.data[0])


def sigmoid_masked(z):
    """Logistic function split by a boolean mask into its two overflow-free forms.

    1 / (1 + e^-z) where z >= 0 and e^z / (1 + e^z) below, each half
    computed on its own gathered elements.
    """
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---- reverse sweep ----


def eager_backward(root):
    """The reverse sweep that zero-fills every node before any closure runs.

    Orders the graph by the package's postorder (an explicit stack that
    expands a node's parents last to first), so each gradient accumulates
    its contributions in the same order. Every node, interior, leaf, frozen
    or input, gets a zero gradient; the root's is set to one, and each
    node's ``_backward`` closure runs in reverse order. Every ``grad`` stays
    in place afterwards.
    """
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node._parents)
    for node in order:
        node.grad = np.zeros_like(node.data)
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


# ---- optimizer ----


def sgd_step(params, velocity, lr, momentum, weight_decay):
    """One momentum SGD update as one whole-tensor expression per parameter.

    v <- momentum * v, then v <- v - lr * (g + weight_decay * p) and
    p <- p + v. A parameter without a gradient uses zeros; one that does
    not require grad is skipped. Updates ``params`` and ``velocity`` in
    place.
    """
    for name, p in params.items():
        if not p.requires_grad:
            continue
        g = np.zeros_like(p.data) if p.grad is None else p.grad
        v = velocity[name]
        v *= momentum
        v -= lr * (g + weight_decay * p.data)
        p.data += v
