"""Differentiable building blocks on channels x height x width maps.

Convolution is cross-correlation (no kernel flip) plus bias, always at
stride 1 with "same" padding; only 2x2 max pooling downsamples. Upsampling
is a fixed bilinear transposed convolution per channel, computed as one
interpolation-matrix product per axis. All ops are deterministic and follow
their input's dtype: every array they allocate, those matrices included,
takes the dtype of the map they read, so float32 maps stay float32 and
float64 maps give float64 bytes. Ops take weights as plain tensors and keep
none: the network's parameter registry owns them.

A convolution with a kernel larger than 1x1 multiplies its weight with an
im2col column block built one band of output rows at a time, in the forward
and in both gradients. A band's block is no larger than the layer's output,
its weight or ``_BAND_ELEMENTS`` elements, whichever is largest, so a small
map takes one band and a whole block, with the bytes of one GEMM. Over
several bands the forward is one GEMM per band, the weight gradient sums
one partial product per band, and an input row on a band edge takes its
two bands' additions in band order, so results can differ from the
one-band bytes by about 1e-15 relative.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _accumulate, _result, trace_pool_windows, trace_relu

__all__ = [
    "conv2d",
    "maxpool2",
    "upsample",
    "bilinear_kernel",
    "concat_channels",
    "relu",
    "sigmoid",
]


# A column block is built one band of output rows at a time, and a band's
# block holds at most this many elements, or the layer's output or weight
# count if larger. Below it a map stays in one band, where the many small
# GEMMs of thin bands would cost more in call overhead than they save.
_BAND_ELEMENTS = 1 << 18


def _row_bands(x_shape, weight_shape) -> list[tuple[int, int]]:
    """Output-row ranges [r0, r1) whose column blocks fit the band budget.

    The budget is the largest of the layer's output, its weight and
    ``_BAND_ELEMENTS``, so no block outgrows an array the graph already keeps
    or that each band reads anyway. A band holds at least one row, and a
    map with no rows gets one empty band. A 1x1 kernel's block is a view of
    its input, so it takes one band.
    """
    cx, h, w = x_shape
    o, _, kh, kw = weight_shape
    row = cx * kh * kw * w
    if kh == kw == 1 or row == 0:
        return [(0, h)]
    rows = max(1, max(o * h * w, o * cx * kh * kw, _BAND_ELEMENTS) // row)
    return [(r0, min(r0 + rows, h)) for r0 in range(0, h, rows)] or [(0, h)]


def _tap_windows(h: int, w: int, kh: int, kw: int, r0: int, r1: int):
    """Per kernel tap, in (ki, kj) order: the in-bounds window of one band.

    Yields (band index, map index): the first indexes a (C, kh, kw, r1 - r0,
    W) band block, the second the (C, H, W) map cell that tap reads under
    "same" zero padding. Cells outside the map are left out, so the block's
    zeros stand for the padding.
    """
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    for ki in range(kh):
        lo, hi = max(r0, ph - ki), min(r1, h + ph - ki)
        for kj in range(kw):
            clo, chi = max(0, pw - kj), min(w, w + pw - kj)
            if lo < hi and clo < chi:
                yield (
                    (slice(None), ki, kj, slice(lo - r0, hi - r0), slice(clo, chi)),
                    (slice(None), slice(lo + ki - ph, hi + ki - ph), slice(clo + kj - pw, chi + kj - pw)),
                )


def _band_cols(x: np.ndarray, kh: int, kw: int, r0: int, r1: int) -> np.ndarray:
    """Column block (C*kh*kw, (r1 - r0)*W) of output rows r0..r1 of a CxHxW map.

    Built straight from ``x``, with no padded copy. A 1x1 kernel's single
    band needs no copy: the block is a view of ``x``.
    """
    cx, h, w = x.shape
    if kh == kw == 1:
        return x.reshape(cx, h * w)
    cols = np.zeros((cx, kh, kw, r1 - r0, w), dtype=x.dtype)
    for band_ix, map_ix in _tap_windows(h, w, kh, kw, r0, r1):
        cols[band_ix] = x[map_ix]
    return cols.reshape(cx * kh * kw, (r1 - r0) * w)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Cross-correlate a CxHxW map with OxCxkHxkW filters.

    Stride 1 with "same" zero padding of (k - 1) // 2, so kernels must be
    odd and the output keeps the input's height and width. The forward and
    both gradients run band by band over output rows (``_row_bands``), each
    band one GEMM against its own column block; a map in one band takes one
    GEMM over the whole block. The backward closure keeps no column block:
    it rebuilds each band's columns from ``x.data``, so ``x`` must not
    change in place between forward and backward.
    """
    if x.data.ndim != 3:
        raise ValueError(f"conv2d input must be CxHxW, got shape {x.shape}")
    if weight.data.ndim != 4:
        raise ValueError(f"conv2d weight must be OxCxKhxKw, got {weight.shape}")
    cx, h, w = x.shape
    o, ci, kh, kw = weight.shape
    if ci != cx:
        raise ValueError(f"conv2d channel mismatch: input has {cx}, weight expects {ci}")
    if bias is not None and bias.shape != (o,):
        raise ValueError(f"bias shape {bias.shape} does not match {o} filters")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("same padding needs odd kernels")

    wmat = weight.data.reshape(o, cx * kh * kw)
    bands = _row_bands(x.shape, weight.shape)
    out = np.empty((o, h * w), dtype=x.data.dtype)
    for r0, r1 in bands:
        np.matmul(wmat, _band_cols(x.data, kh, kw, r0, r1), out=out[:, r0 * w : r1 * w])
    if bias is not None:
        out += bias.data[:, None]
    out = out.reshape(o, h, w)

    parents = (x, weight) if bias is None else (x, weight, bias)
    res = _result(out, parents)
    if res.requires_grad:

        def _bw(grad):
            g = grad.reshape(o, h * w)
            if weight.requires_grad:
                parts = (
                    g[:, r0 * w : r1 * w] @ _band_cols(x.data, kh, kw, r0, r1).T for r0, r1 in bands
                )
                dw = next(parts)
                for part in parts:
                    dw += part
                _accumulate(weight, dw.reshape(weight.shape), owned=True)
            if bias is not None and bias.requires_grad:
                _accumulate(bias, g.sum(axis=1), owned=True)
            if x.requires_grad:
                dx = np.zeros_like(x.data)
                for r0, r1 in bands:
                    dcols = (wmat.T @ g[:, r0 * w : r1 * w]).reshape(cx, kh, kw, r1 - r0, w)
                    for band_ix, map_ix in _tap_windows(h, w, kh, kw, r0, r1):
                        dx[map_ix] += dcols[band_ix]
                    # Freed here, so the next band is not built beside it.
                    del dcols
                _accumulate(x, dx, owned=True)

        res._backward = _bw
    return res


def maxpool2(x: Tensor) -> Tensor:
    """2x2 stride-2 max pooling; odd extents replicate the last row/column.

    Ties route the gradient to the first maximal element in row-major
    window order.
    """
    if x.data.ndim != 3 or x.data.size == 0:
        raise ValueError(f"maxpool2 input must be a nonempty CxHxW map, got {x.shape}")
    c, h, w = x.shape
    ph, pw = h % 2, w % 2
    xp = np.pad(x.data, ((0, 0), (0, ph), (0, pw)), mode="edge") if (ph or pw) else x.data
    hp, wp = xp.shape[1], xp.shape[2]
    h2, w2 = hp // 2, wp // 2
    windows = xp.reshape(c, h2, 2, w2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h2, w2, 4)
    trace_pool_windows(windows)
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    res = _result(out, (x,))
    if res.requires_grad:

        def _bw(grad):
            dwin = np.zeros((c, h2, w2, 4), dtype=x.data.dtype)
            np.put_along_axis(dwin, idx[..., None], grad[..., None], axis=-1)
            dxp = dwin.reshape(c, h2, w2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(c, hp, wp)
            dx = dxp[:, :h, :w].copy()
            # Fold gradients of replicated cells back onto their source.
            if ph:
                dx[:, h - 1, :] += dxp[:, h, :w]
            if pw:
                dx[:, :, w - 1] += dxp[:, :h, w]
            if ph and pw:
                dx[:, h - 1, w - 1] += dxp[:, h, w]
            _accumulate(x, dx, owned=True)

        res._backward = _bw
    return res


def bilinear_kernel(factor: int) -> np.ndarray:
    """1D interpolation kernel of size 2*factor - factor % 2."""
    k = 2 * factor - factor % 2
    center = (k - 1) / 2.0
    return 1.0 - np.abs(np.arange(k) - center) / factor


def _interp_matrix(n: int, size: int, factor: int, dtype) -> np.ndarray:
    """(size, n) bilinear transposed convolution along one axis, cropped to size.

    Entry [i, a] is the tap ``k1[i + pad - a * factor]`` that source cell a
    gives output cell i, with pad = (len(k1) - factor) // 2, or 0 off the kernel.
    """
    k1 = bilinear_kernel(factor).astype(dtype)
    taps = np.arange(size)[:, None] + (k1.size - factor) // 2 - factor * np.arange(n)
    inside = (taps >= 0) & (taps < k1.size)
    mat = np.zeros((size, n), dtype=dtype)
    mat[inside] = k1[taps[inside]]
    return mat


def upsample(x: Tensor, factor: int, out_hw: tuple[int, int] | None = None) -> Tensor:
    """Upsample each channel by an integer factor via transposed convolution.

    The kernel is the fixed bilinear one (outer product of
    ``bilinear_kernel``), so the op is ``rows @ x @ cols.T`` with one
    interpolation matrix per axis. Interior values interpolate exactly;
    borders decay because the implicit padding is zero. ``out_hw`` keeps the
    top-left corner of the result (the matrices' row counts), which undoes
    the replication padding a pooling ladder may have added.
    """
    if int(factor) != factor or factor < 1:
        raise ValueError(f"factor must be a positive integer, got {factor}")
    factor = int(factor)
    if x.data.ndim != 3:
        raise ValueError(f"upsample input must be CxHxW, got {x.shape}")
    _, h, w = x.shape
    th, tw = out_hw if out_hw is not None else (h * factor, w * factor)
    if th < 1 or tw < 1 or th > h * factor or tw > w * factor:
        raise ValueError(f"crop target {(th, tw)} outside upsampled extent {(h * factor, w * factor)}")
    rows = _interp_matrix(h, th, factor, x.data.dtype)
    cols = _interp_matrix(w, tw, factor, x.data.dtype)

    res = _result(rows @ x.data @ cols.T, (x,))
    if res.requires_grad:

        def _bw(grad):
            _accumulate(x, rows.T @ grad @ cols, owned=True)

        res._backward = _bw
    return res


def concat_channels(parts: list[Tensor]) -> Tensor:
    """Stack maps along the channel axis; spatial extents must agree."""
    if not parts:
        raise ValueError("concat_channels needs at least one input")
    hw = parts[0].shape[1:]
    for p in parts:
        if p.data.ndim != 3 or p.shape[1:] != hw:
            raise ValueError(
                f"concat_channels spatial mismatch: {[p.shape for p in parts]}"
            )
    out = np.concatenate([p.data for p in parts], axis=0)
    res = _result(out, tuple(parts))
    if res.requires_grad:

        def _bw(grad):
            offset = 0
            for p in parts:
                n = p.shape[0]
                if p.requires_grad:
                    _accumulate(p, grad[offset : offset + n])
                offset += n

        res._backward = _bw
    return res


def relu(x: Tensor) -> Tensor:
    trace_relu(x.data)
    y = np.maximum(x.data, 0.0)
    res = _result(y, (x,))
    if res.requires_grad:

        def _bw(grad):
            _accumulate(x, grad * (y > 0.0), owned=True)

        res._backward = _bw
    return res


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: 1 / (1 + e^-z) for z >= 0, e^z / (1 + e^z) below.

    Both branches share e = exp(-|z|), which is e^-z or e^z on its side, so
    each element gets the exponent and the one division its branch needs.
    """
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)
    res = _result(y, (x,))
    if res.requires_grad:

        def _bw(grad):
            _accumulate(x, grad * y * (1.0 - y), owned=True)

        res._backward = _bw
    return res
