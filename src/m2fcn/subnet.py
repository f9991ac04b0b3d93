"""One detection stage: a ladder of conv/ReLU levels with side heads.

Levels are separated by 2x2 max pooling, so the side output tapped at level
n sees the input at stride 2**(n-1). Each head is a zero-initialized 1x1
convolution followed by fixed bilinear upsampling back to the input
resolution, which makes a fresh stage start from all-zero side logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .ops import ConvParams, maxpool2, relu, upsample

__all__ = ["LevelSpec", "SubNetConfig", "SubNet", "build_subnet", "receptive_field"]


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


def build_subnet(config: SubNetConfig, seed: int, prefix: str = "") -> "SubNet":
    """Seeded construction: trunk weights ~ Normal(0, sqrt(2 / fan-in)),
    biases and side heads zero."""
    rng = np.random.default_rng(seed)
    trunk: list[list[ConvParams]] = []
    heads: list[ConvParams] = []
    in_ch = config.input_channels
    for lvl, spec in enumerate(config.levels, start=1):
        layers = []
        for ci in range(1, spec.convs + 1):
            k = spec.kernel
            fan_in = in_ch * k * k
            w = Tensor(
                rng.normal(0.0, np.sqrt(2.0 / fan_in), (spec.channels, in_ch, k, k)),
                requires_grad=True,
                name=f"{prefix}level{lvl}/conv{ci}/weight",
            )
            b = Tensor(
                np.zeros(spec.channels),
                requires_grad=True,
                name=f"{prefix}level{lvl}/conv{ci}/bias",
            )
            layers.append(ConvParams(w, b))
            in_ch = spec.channels
        trunk.append(layers)
        head_w = Tensor(
            np.zeros((1, spec.channels, 1, 1)),
            requires_grad=True,
            name=f"{prefix}head{lvl}/weight",
        )
        head_b = Tensor(np.zeros(1), requires_grad=True, name=f"{prefix}head{lvl}/bias")
        heads.append(ConvParams(head_w, head_b, padding=0))
    return SubNet(config, trunk, heads)


class SubNet:
    """Forward pass produces one full-resolution logit map per level."""

    def __init__(self, config, trunk, heads):
        self.config = config
        self.trunk = trunk
        self.heads = heads

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
            for params in layers:
                cur = relu(params.apply(cur))
            logits = self.heads[lvl - 1].apply(cur)
            factor = 2 ** (lvl - 1)
            side.append(upsample(logits, factor, out_hw=(h, w)))
        return side

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for lvl in range(len(self.trunk)):
            for params in self.trunk[lvl]:
                out[params.weight.name] = params.weight
                out[params.bias.name] = params.bias
            out[self.heads[lvl].weight.name] = self.heads[lvl].weight
            out[self.heads[lvl].bias.name] = self.heads[lvl].bias
        return out
