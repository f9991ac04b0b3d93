"""Class-balanced cross-entropy over side outputs and fused outputs.

Boundary pixels are the sigmoid(s) -> 0 class: the loss of one logit map is

    beta * sum_boundary -log(1 - sigmoid(s)) +
    (1 - beta) * sum_background -log(sigmoid(s))

summed (not averaged) over pixels. beta is computed once per image from the
label counts. The total objective is one ``side_loss`` over the stack of
every side and fused map, so all terms share one pair of weight rasters.

The loss is formed in float64 whatever the logits' dtype: its value is a
float64 sum, and each map's gradient is formed in float64 and written back
in the logits' dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _accumulate, _result
from .ops import _sigmoid, concat_channels, conv2d

__all__ = [
    "BoundaryLabels",
    "class_balance_beta",
    "side_loss",
    "fuse",
    "total_loss",
]


@dataclass(frozen=True)
class BoundaryLabels:
    """Binary boundary raster with cached class counts."""

    mask: np.ndarray  # (H, W) bool, True on boundary pixels
    n_boundary: int
    n_background: int

    @classmethod
    def from_mask(cls, mask) -> "BoundaryLabels":
        m = np.asarray(mask, dtype=bool)
        if m.ndim != 2 or m.size == 0:
            raise ValueError(f"label mask must be a nonempty HxW raster, got {m.shape}")
        nb = int(m.sum())
        return cls(m, nb, int(m.size - nb))


def class_balance_beta(labels: BoundaryLabels) -> float:
    """Weight on the boundary term: |background| / |all|.

    The rarer boundary class gets the larger weight. Degenerate rasters pick
    the weight that keeps the one populated term alive: no boundary pixels
    -> 0, all boundary -> 1.
    """
    nb, nn = labels.n_boundary, labels.n_background
    if nb + nn == 0:
        raise ValueError("empty label raster")
    if nb == 0:
        return 0.0
    if nn == 0:
        return 1.0
    return nn / (nb + nn)


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


def _rows64(stack: np.ndarray):
    """The maps of a KxHxW stack one at a time, each as float64."""
    return (s.astype(np.float64, copy=False) for s in stack)


def balanced_ce_value(logits_data: np.ndarray, labels: BoundaryLabels, beta: float) -> float:
    """Plain-number side_loss of one logit map, for logging and oracles."""
    return side_loss(Tensor(logits_data.reshape((1,) + labels.mask.shape)), labels, beta).item()


def side_loss(logits: Tensor, labels: BoundaryLabels, beta: float) -> Tensor:
    """Summed class-weighted logistic loss of a KxHxW stack of logit maps.

    One pair of weight rasters serves all K maps, which are scored one at a
    time in float64 and summed in stack order; backward forms their
    gradients row by row in float64 and stores them in the logits' dtype.
    """
    if logits.data.ndim != 3 or logits.shape[0] == 0 or logits.shape[1:] != labels.mask.shape:
        raise ValueError(f"logits {logits.shape} are not a KxHxW stack over {labels.mask.shape}")
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    w_boundary = beta * labels.mask
    w_background = (1.0 - beta) * ~labels.mask
    value = sum(
        np.sum(w_boundary * _softplus(s) + w_background * _softplus(-s)) for s in _rows64(logits.data)
    )
    res = _result(np.asarray(value), (logits,))
    if res.requires_grad:

        def _bw(grad):
            dlogits = np.empty_like(logits.data)
            for k, s in enumerate(_rows64(logits.data)):
                ds = w_boundary * _sigmoid(s) - w_background * _sigmoid(-s)
                np.multiply(grad, ds, out=dlogits[k])
            _accumulate(logits, dlogits, owned=True)

        res._backward = _bw
    return res


def fuse(side_logits: list[Tensor], h: Tensor) -> Tensor:
    """Weighted sum of N single-channel logit maps, as a 1x1 convolution.

    Routing the combination through conv2d gives the fusion weights h their
    gradient for free.
    """
    n = len(side_logits)
    if n == 0:
        raise ValueError("fuse needs at least one side output")
    if h.shape != (n,):
        raise ValueError(f"fusion weights shape {h.shape}, expected ({n},)")
    stacked = concat_channels(side_logits)
    return conv2d(stacked, h.reshape((1, n, 1, 1)))


def total_loss(outs, labels: BoundaryLabels, config) -> Tensor:
    """Sum of every side loss and every fused loss, all weighted equally.

    ``outs`` is a SideOutputs bundle; ``config`` supplies the stage and level
    counts. One side_loss scores the stack of side maps in (stage, level)
    order followed by the fused maps in stage order.
    """
    stages = config.stages
    n_side = len(config.subnet.levels)
    if len(outs.side) != stages * n_side or len(outs.fused) != stages:
        raise ValueError(
            f"incomplete outputs: {len(outs.side)} side and {len(outs.fused)} fused "
            f"maps for {stages} stages of {n_side} levels"
        )
    maps = [outs.side[(m, n)] for m in range(1, stages + 1) for n in range(1, n_side + 1)]
    maps += [outs.fused[m] for m in range(1, stages + 1)]
    return side_loss(concat_channels(maps), labels, class_balance_beta(labels))
