"""Multi-stage network with recursive side-output inputs.

Stage 1 sees the raw image. Every later stage sees the image concatenated
with the previous stage's side outputs (all N of them, or a single chosen
level), passed through a sigmoid so the extra channels live in [0, 1] like
the image. Each stage also fuses its own side logits into one map through
learned weights; the prediction is the sigmoid of the last stage's fused
map, with values near 0 marking boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .autodiff import Tensor, no_grad
from .loss import fuse
from .ops import concat_channels, sigmoid
from .subnet import LevelSpec, SubNet, SubNetConfig, parameter_shapes
from .subnet import initial_values as subnet_initial_values

__all__ = ["NetworkConfig", "SideOutputs", "M2FCN", "build_network", "initial_values"]


@dataclass
class NetworkConfig:
    """``recursive_level`` None feeds every side output of a stage to the
    next one; a level L in 1..N feeds only that level's map."""

    stages: int
    subnet: SubNetConfig
    recursive_level: int | None = None

    def __post_init__(self):
        if self.stages < 1:
            raise ValueError("need at least one stage")
        n = len(self.subnet.levels)
        if self.recursive_level is not None and not 1 <= self.recursive_level <= n:
            raise ValueError(f"single-input level {self.recursive_level} outside 1..{n}")

    @property
    def recursive(self) -> str:
        """The ``[network] recursive`` text: "all" or "single:<level>"."""
        return "all" if self.recursive_level is None else f"single:{self.recursive_level}"

    @property
    def recursive_count(self) -> int:
        return len(self.subnet.levels) if self.recursive_level is None else 1

    def stage_config(self, stage: int) -> SubNetConfig:
        """Per-stage sub-net config; later stages take extra input channels."""
        if stage == 1:
            return self.subnet
        return replace(
            self.subnet,
            input_channels=self.subnet.input_channels + self.recursive_count,
        )

    def parameter_shapes(self) -> Iterator[tuple[str, tuple[int, ...]]]:
        """(name, shape) of every parameter, in ``M2FCN.parameters()`` order."""
        for m in range(1, self.stages + 1):
            for name, shape in parameter_shapes(self.stage_config(m)):
                yield f"stage{m}/{name}", shape
            yield f"stage{m}/fuse/weight", (len(self.subnet.levels),)

    def to_dict(self) -> dict:
        return {
            "stages": self.stages,
            "input_channels": self.subnet.input_channels,
            "levels": [[s.convs, s.channels, s.kernel] for s in self.subnet.levels],
            "recursive": self.recursive,
        }

    @classmethod
    def from_dict(cls, d) -> "NetworkConfig":
        """Inverse of ``to_dict``; a missing, unknown or ill-typed entry
        raises KeyError or ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"network config must be an object, got {type(d).__name__}")
        unknown = set(d) - {"stages", "input_channels", "levels", "recursive"}
        if unknown:
            raise ValueError(f"unknown network config keys {sorted(unknown)}")
        specs = d["levels"]
        if not isinstance(specs, list) or not all(
            isinstance(s, list) and len(s) == 3 for s in specs
        ):
            raise ValueError("levels must be a list of [convs, channels, kernel] triples")
        levels = tuple(LevelSpec(*(_int(v, "levels") for v in s)) for s in specs)
        recursive = d.get("recursive", "all")
        if not isinstance(recursive, str):
            raise ValueError(f"recursive must be a string, got {recursive!r}")
        return cls(
            stages=_int(d["stages"], "stages"),
            subnet=SubNetConfig(levels, _int(d.get("input_channels", 1), "input_channels")),
            recursive_level=parse_recursive(recursive),
        )


def _int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must hold integers, got {value!r}")
    return value


def parse_recursive(text: str) -> int | None:
    """"all" -> None, "single:<level>" -> level."""
    if text == "all":
        return None
    if text.startswith("single:"):
        try:
            return int(text.split(":", 1)[1])
        except ValueError:
            pass
    raise ValueError(f"recursive must be 'all' or 'single:<level>', got {text!r}")


@dataclass
class SideOutputs:
    """All logit maps of one forward pass, keyed by (stage, level) and stage."""

    side: dict[tuple[int, int], Tensor]
    fused: dict[int, Tensor]


class M2FCN:
    """Stage chain plus per-stage fusion weights.

    The one way to build a network. It owns every parameter in one registry,
    a dict of tensors in ``config.parameter_shapes()`` order, each wrapping
    the array of ``values`` under its name, with no copy when it is a
    C-contiguous float32 or float64 array (``Tensor`` makes anything else
    float64). The registry's one dtype is the network's ``dtype``:
    ``forward_all`` casts its image to it, and every op, gradient and SGD
    buffer follows it. The sub-nets, ``forward_all``, SGD, freezing, ``state`` and checkpoints all
    read that registry. A missing or misshapen value raises ValueError
    naming the tensor, as do values of more than one dtype; a non-finite one
    raises FloatingPointError. Keys of ``values`` that the config does not
    name are ignored.
    """

    def __init__(self, config: NetworkConfig, values: dict[str, np.ndarray]):
        self.config = config
        self._params: dict[str, Tensor] = {}
        for name, shape in config.parameter_shapes():
            if name not in values or np.shape(values[name]) != shape:
                raise ValueError(f"network needs tensor {name!r} of shape {shape}")
            self._params[name] = Tensor(values[name], requires_grad=True, name=name)
        dtypes = {p.data.dtype for p in self._params.values()}
        if len(dtypes) > 1:
            raise ValueError(f"network values mix dtypes {sorted(map(str, dtypes))}")
        self.dtype = dtypes.pop()
        self.stages = [
            SubNet(config.stage_config(m), self._params, prefix=f"stage{m}/")
            for m in range(1, config.stages + 1)
        ]

    def forward_all(self, image: Tensor) -> SideOutputs:
        """Every side and fused logit map of ``image``, in the network's dtype.

        An image of another dtype is cast once, as a new input tensor; one
        already in it is used as it is.
        """
        cfg = self.config
        if image.data.ndim != 3 or image.shape[0] != cfg.subnet.input_channels:
            raise ValueError(
                f"image must be {cfg.subnet.input_channels}xHxW, got {image.shape}"
            )
        if image.data.dtype != self.dtype:
            image = Tensor(image.data.astype(self.dtype))
        side: dict[tuple[int, int], Tensor] = {}
        fused: dict[int, Tensor] = {}
        prev: list[Tensor] = []
        level = cfg.recursive_level
        for m, stage in enumerate(self.stages, start=1):
            x = concat_channels([image] + prev) if prev else image
            logits = stage.forward(x)
            for n, t in enumerate(logits, start=1):
                side[(m, n)] = t
            fused[m] = fuse(logits, self._params[f"stage{m}/fuse/weight"])
            if m < cfg.stages:  # the last stage's maps feed nothing
                chosen = logits if level is None else logits[level - 1 : level]
                prev = [sigmoid(t) for t in chosen]
        return SideOutputs(side, fused)

    def predict(self, image: Tensor) -> np.ndarray:
        """Probability of NOT being boundary, as a plain (H, W) array.

        Runs under ``no_grad``: the forward builds no backward graph.
        """
        with no_grad():
            final = self.forward_all(image).fused[self.config.stages]
            return sigmoid(final).data[0].copy()

    def parameters(self) -> dict[str, Tensor]:
        """A copy of the registry: the same tensors, in registry order."""
        return dict(self._params)

    def state(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self._params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Copy ``state`` into the existing parameters (the trainer's rollback),
        each value cast to its parameter's dtype."""
        missing = set(self._params) - set(state)
        extra = set(state) - set(self._params)
        if missing or extra:
            raise ValueError(
                f"state does not match network (missing {sorted(missing)[:3]}, "
                f"unexpected {sorted(extra)[:3]})"
            )
        for name, p in self._params.items():
            arr = np.asarray(state[name])
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
            p.data[...] = arr


def initial_values(config: NetworkConfig, seed: int) -> dict[str, np.ndarray]:
    """Seeded float32 starting values of every parameter, in
    ``parameter_shapes`` order: one seed per stage from ``SeedSequence(seed)``,
    equal fusion weights 1/N."""
    n = len(config.subnet.levels)
    stage_seeds = np.random.SeedSequence(seed).generate_state(config.stages)
    values: dict[str, np.ndarray] = {}
    for m in range(1, config.stages + 1):
        values.update(
            subnet_initial_values(config.stage_config(m), int(stage_seeds[m - 1]), f"stage{m}/")
        )
        values[f"stage{m}/fuse/weight"] = np.full(n, 1.0 / n, dtype=np.float32)
    return values


def build_network(config: NetworkConfig, seed: int) -> M2FCN:
    """Seeded construction."""
    return M2FCN(config, initial_values(config, seed))
