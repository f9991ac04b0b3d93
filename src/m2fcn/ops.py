"""Differentiable building blocks on channels x height x width maps.

Convolution is cross-correlation (no kernel flip) plus bias, always at
stride 1 with "same" padding; only 2x2 max pooling downsamples. Upsampling
is a fixed-weight transposed convolution with a bilinear kernel applied per
channel. All ops are exact float64 and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _accumulate, _result, trace_pool_windows, trace_relu

__all__ = [
    "ConvParams",
    "conv2d",
    "maxpool2",
    "upsample",
    "bilinear_kernel",
    "concat_channels",
    "relu",
    "sigmoid",
]


@dataclass
class ConvParams:
    """Weights of one convolution layer.

    weight: (out_channels, in_channels, k, k); bias: (out_channels,).
    """

    weight: Tensor
    bias: Tensor

    def apply(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias)


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Column block (C*kh*kw, H*W) of a CxHxW map under "same" zero padding.

    A 1x1 kernel needs no padding or copy: the block is a view of ``x``.
    """
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


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Cross-correlate a CxHxW map with OxCxkHxkW filters.

    Stride 1 with "same" zero padding of (k - 1) // 2, so kernels must be
    odd and the output keeps the input's height and width. The backward
    closure keeps no column block: it rebuilds the columns from ``x.data``,
    so ``x`` must not change in place between forward and backward.
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
    ph, pw = (kh - 1) // 2, (kw - 1) // 2

    wmat = weight.data.reshape(o, cx * kh * kw)
    out = wmat @ _im2col(x.data, kh, kw)
    if bias is not None:
        out += bias.data[:, None]
    out = out.reshape(o, h, w)

    parents = (x, weight) if bias is None else (x, weight, bias)
    res = _result(out, parents)
    if res.requires_grad:

        def _bw(grad):
            g = grad.reshape(o, h * w)
            if weight.requires_grad:
                _accumulate(weight, (g @ _im2col(x.data, kh, kw).T).reshape(weight.shape), owned=True)
            if bias is not None and bias.requires_grad:
                _accumulate(bias, g.sum(axis=1), owned=True)
            if x.requires_grad:
                dcols = (wmat.T @ g).reshape(cx, kh, kw, h, w)
                dxp = np.zeros((cx, h + 2 * ph, w + 2 * pw))
                for ki in range(kh):
                    for kj in range(kw):
                        dxp[:, ki : ki + h, kj : kj + w] += dcols[:, ki, kj]
                # A padded block is copied rather than kept, so the stored
                # gradient is contiguous and holds no border.
                _accumulate(x, dxp[:, ph : ph + h, pw : pw + w], owned=ph == pw == 0)

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
            dwin = np.zeros((c, h2, w2, 4))
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


def upsample(x: Tensor, factor: int, out_hw: tuple[int, int] | None = None) -> Tensor:
    """Upsample each channel by an integer factor via transposed convolution.

    The kernel is the fixed bilinear one (outer product of
    ``bilinear_kernel``). Interior values interpolate exactly; borders decay
    because the implicit padding is zero. ``out_hw`` crops the top-left
    corner of the result, which undoes the replication padding a pooling
    ladder may have added.
    """
    if int(factor) != factor or factor < 1:
        raise ValueError(f"factor must be a positive integer, got {factor}")
    factor = int(factor)
    if x.data.ndim != 3:
        raise ValueError(f"upsample input must be CxHxW, got {x.shape}")
    c, h, w = x.shape
    k1 = bilinear_kernel(factor)
    wd = np.outer(k1, k1)
    k = k1.size
    pad = (k - factor) // 2

    full_h, full_w = (h - 1) * factor + k, (w - 1) * factor + k
    full = np.zeros((c, full_h, full_w))
    for ki in range(k):
        for kj in range(k):
            full[:, ki : ki + factor * (h - 1) + 1 : factor, kj : kj + factor * (w - 1) + 1 : factor] += (
                wd[ki, kj] * x.data
            )
    th, tw = out_hw if out_hw is not None else (h * factor, w * factor)
    if th < 1 or tw < 1 or th > h * factor or tw > w * factor:
        raise ValueError(f"crop target {(th, tw)} outside upsampled extent {(h * factor, w * factor)}")
    y = np.ascontiguousarray(full[:, pad : pad + th, pad : pad + tw])

    res = _result(y, (x,))
    if res.requires_grad:

        def _bw(grad):
            gfull = np.zeros((c, full_h, full_w))
            gfull[:, pad : pad + th, pad : pad + tw] = grad
            dx = np.zeros_like(x.data)
            for ki in range(k):
                for kj in range(k):
                    dx += wd[ki, kj] * gfull[
                        :, ki : ki + factor * (h - 1) + 1 : factor, kj : kj + factor * (w - 1) + 1 : factor
                    ]
            _accumulate(x, dx, owned=True)

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
