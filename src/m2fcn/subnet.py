"""One detection stage: a ladder of conv/ReLU levels with side heads.

Levels are separated by 2x2 max pooling, so the side output tapped at level
n sees the input at stride 2**(n-1). Each head is a zero-initialized 1x1
convolution, which makes a fresh stage start from all-zero side logits;
above level 1, fixed bilinear upsampling brings it back to input resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import ops
from .autodiff import Tensor
from .ops import maxpool2, relu, upsample

__all__ = ["LevelSpec", "SubNetConfig", "SubNet", "initial_values", "receptive_field"]


@dataclass(frozen=True)
class LevelSpec:
    convs: int
    channels: int
    kernel: int = 3

    def __post_init__(self):
        if self.convs < 1:
            raise ValueError("each level needs at least one convolution")
        if self.channels < 1:
            raise ValueError("channels must be positive")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError("kernel must be odd and positive")


@dataclass(frozen=True)
class SubNetConfig:
    levels: tuple[LevelSpec, ...]
    input_channels: int = 1

    def __post_init__(self):
        if not self.levels:
            raise ValueError("a sub-net needs at least one level")
        if self.input_channels < 1:
            raise ValueError("input_channels must be positive")


def receptive_field(config: SubNetConfig, level: int) -> tuple[int, int]:
    """(stride, receptive field) of the side output tapped at ``level``.

    Strides double with every pooling step; each k-kernel convolution grows
    the field by (k - 1) * jump.
    """
    if not 1 <= level <= len(config.levels):
        raise ValueError(f"level {level} outside 1..{len(config.levels)}")
    rf, jump = 1, 1
    for i, spec in enumerate(config.levels[:level], start=1):
        if i > 1:
            rf += jump  # 2x2 pooling before every level but the first
            jump *= 2
        rf += spec.convs * (spec.kernel - 1) * jump
    return jump, rf


def parameter_shapes(config: SubNetConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter of one sub-net, in construction order."""
    in_ch = config.input_channels
    for lvl, spec in enumerate(config.levels, start=1):
        for ci in range(1, spec.convs + 1):
            yield f"level{lvl}/conv{ci}/weight", (spec.channels, in_ch, spec.kernel, spec.kernel)
            yield f"level{lvl}/conv{ci}/bias", (spec.channels,)
            in_ch = spec.channels
        yield f"head{lvl}/weight", (1, spec.channels, 1, 1)
        yield f"head{lvl}/bias", (1,)


def initial_values(config: SubNetConfig, seed: int, prefix: str = "") -> dict[str, np.ndarray]:
    """Seeded float32 starting values, keyed by ``prefix`` +
    ``parameter_shapes`` name and drawn in that order: trunk weights ~
    Normal(0, sqrt(2 / fan-in)), biases and side heads zero.

    Each weight is drawn in float64 and rounded to float32, one tensor at a
    time, so a seed gives the float64 network it always gave, rounded.
    """
    rng = np.random.default_rng(seed)
    values = {}
    for name, shape in parameter_shapes(config):
        if name.startswith("level") and name.endswith("/weight"):
            std = np.sqrt(2.0 / math.prod(shape[1:]))
            values[prefix + name] = rng.normal(0.0, std, shape).astype(np.float32)
        else:
            values[prefix + name] = np.zeros(shape, dtype=np.float32)
    return values


class SubNet:
    """Forward pass produces one full-resolution logit map per level.

    A sub-net owns no tensors. It keeps the (weight, bias) pairs of
    ``params``, the network's registry, under ``prefix`` + ``parameter_shapes``
    name, so SGD, freezing and checkpoints reach the very tensors it reads;
    a missing key raises KeyError.
    """

    def __init__(self, config: SubNetConfig, params: dict[str, Tensor], prefix: str = ""):
        def conv(key: str) -> tuple[Tensor, Tensor]:
            return params[f"{prefix}{key}/weight"], params[f"{prefix}{key}/bias"]

        self.config = config
        self.trunk = [
            [conv(f"level{lvl}/conv{ci}") for ci in range(1, spec.convs + 1)]
            for lvl, spec in enumerate(config.levels, start=1)
        ]
        self.heads = [conv(f"head{lvl}") for lvl in range(1, len(config.levels) + 1)]

    def forward(self, x: Tensor) -> list[Tensor]:
        if x.data.ndim != 3 or x.shape[0] != self.config.input_channels:
            raise ValueError(
                f"stage input must be {self.config.input_channels}xHxW, got {x.shape}"
            )
        h, w = x.shape[1], x.shape[2]
        cur = x
        side = []
        for lvl, layers in enumerate(self.trunk, start=1):
            if lvl > 1:
                cur = maxpool2(cur)
            # Called through the module, so a wrapper installed on
            # ``ops.conv2d`` (the benchmark's tracer) sees every convolution.
            for weight, bias in layers:
                cur = relu(ops.conv2d(cur, weight, bias))
            logits = ops.conv2d(cur, *self.heads[lvl - 1])
            if lvl > 1:
                logits = upsample(logits, 2 ** (lvl - 1), out_hw=(h, w))
            side.append(logits)
        return side
