"""Class-balanced cross-entropy over side outputs and fused outputs.

Boundary pixels are the sigmoid(s) -> 0 class: the per-map loss is

    beta * sum_boundary -log(1 - sigmoid(s)) +
    (1 - beta) * sum_background -log(sigmoid(s))

summed (not averaged) over pixels. beta is computed once per image from the
label counts and shared by every term of the total objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .autodiff import Tensor, _result
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


def class_balance_beta(labels: BoundaryLabels, mode: str = "balanced") -> float:
    """Weight on the boundary term.

    "balanced" is |background| / |all|, so the rarer boundary class gets the
    larger weight. Degenerate rasters pick the weight that keeps the one
    populated term alive: no boundary pixels -> 0, all boundary -> 1.
    "literal" is the unnormalized ratio |background| / |boundary|, kept for
    comparison runs; it exceeds 1 as soon as boundaries are the minority.
    """
    nb, nn = labels.n_boundary, labels.n_background
    if nb + nn == 0:
        raise ValueError("empty label raster")
    if mode == "balanced":
        if nb == 0:
            return 0.0
        if nn == 0:
            return 1.0
        return nn / (nb + nn)
    if mode == "literal":
        if nb == 0:
            raise ValueError("literal beta undefined without boundary pixels")
        return nn / nb
    raise ValueError(f"unknown beta mode {mode!r}")


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


def balanced_ce_value(logits_data: np.ndarray, labels: BoundaryLabels, beta: float) -> float:
    """Plain-number version of side_loss for logging and oracles."""
    s = logits_data.reshape(labels.mask.shape)
    m = labels.mask
    return float(
        np.sum(beta * m * _softplus(s) + (1.0 - beta) * ~m * _softplus(-s))
    )


def side_loss(logits: Tensor, labels: BoundaryLabels, beta: float) -> Tensor:
    """Summed class-weighted logistic loss of one 1xHxW logit map."""
    if logits.shape != (1,) + labels.mask.shape:
        raise ValueError(
            f"logits shape {logits.shape} does not match labels {labels.mask.shape}"
        )
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    s = logits.data[0]
    m = labels.mask
    w_boundary = beta * m
    w_background = (1.0 - beta) * ~m
    value = np.sum(w_boundary * _softplus(s) + w_background * _softplus(-s))
    res = _result(np.asarray(value), (logits,))
    if res.requires_grad:

        def _bw(grad):
            ds = w_boundary * _sigmoid(s) - w_background * _sigmoid(-s)
            logits.grad += (grad * ds)[None]

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
    return conv2d(stacked, h.reshape((1, n, 1, 1)), bias=None, stride=1, padding=0)


def total_loss(outs, labels: BoundaryLabels, config) -> Tensor:
    """Sum of weighted side losses plus weighted fused losses.

    ``outs`` is a SideOutputs bundle; ``config`` supplies the alpha weights
    and the beta mode. beta is computed once and shared by all terms.
    """
    stages = config.stages
    n_side = len(config.subnet.levels)
    if len(outs.side) != stages * n_side or len(outs.fused) != stages:
        raise ValueError(
            f"incomplete outputs: {len(outs.side)} side and {len(outs.fused)} fused "
            f"maps for {stages} stages of {n_side} levels"
        )
    beta = class_balance_beta(labels, config.beta_mode)
    terms = []
    for m in range(1, stages + 1):
        for n in range(1, n_side + 1):
            terms.append(side_loss(outs.side[(m, n)], labels, beta) * float(config.alpha_side[m - 1][n - 1]))
    for m in range(1, stages + 1):
        terms.append(side_loss(outs.fused[m], labels, beta) * float(config.alpha_fuse[m - 1]))
    return reduce(add, terms)
