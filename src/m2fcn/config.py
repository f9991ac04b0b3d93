"""Run configuration: INI files, named profiles, and override precedence.

A run is described by five sections (run, network, train, data, eval).
The keys of [train], [data] and [eval] are the fields of TrainSchedule
(all but ``seed``, which is ``[run] seed``), DataParams and EvalParams,
and each value is converted by its field's declared type. The dataclass
defaults are the toy profile; a profile lists only the values that differ
from them, plus its [network] values. Precedence, lowest to highest: the
profile, then the INI file, then explicit overrides (command-line --set
and --seed). Unknown sections or keys are rejected rather than ignored so
typos fail loudly.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from typing import get_type_hints

from .network import NetworkConfig, parse_recursive
from .subnet import LevelSpec, SubNetConfig
from .training import TrainSchedule

__all__ = [
    "ConfigError",
    "DataParams",
    "EvalParams",
    "RunConfig",
    "PROFILES",
    "load_run_config",
]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class DataParams:
    height: int = 48
    width: int = 48
    n_cells: int = 6
    distractor_rate: float = 1.0
    n_train: int = 4
    n_test: int = 2
    augment: bool = False


@dataclass(frozen=True)
class EvalParams:
    n_thresholds: int = 33
    threshold_lo: float = 0.02
    threshold_hi: float = 0.98

    def __post_init__(self):
        if self.n_thresholds < 1:
            raise ValueError("eval.n_thresholds must be positive")
        if not 0.0 <= self.threshold_lo <= self.threshold_hi <= 1.0:
            raise ValueError("eval thresholds must satisfy 0 <= lo <= hi <= 1")

    def thresholds(self) -> list[float]:
        if self.n_thresholds == 1:
            return [self.threshold_lo]
        step = (self.threshold_hi - self.threshold_lo) / (self.n_thresholds - 1)
        return [self.threshold_lo + i * step for i in range(self.n_thresholds)]


@dataclass
class RunConfig:
    profile: str
    seed: int
    network: NetworkConfig
    schedule: TrainSchedule
    data: DataParams = field(default_factory=DataParams)
    eval: EvalParams = field(default_factory=EvalParams)


# Profile values are strings exactly as they would appear in an INI file.
_TOY = {
    ("network", "stages"): "2",
    ("network", "widths"): "8, 16, 16",
    ("network", "convs"): "2, 2, 2",
    ("network", "recursive"): "all",
}

_PAPER = {
    **_TOY,
    ("network", "stages"): "3",
    ("network", "widths"): "64, 128, 256, 512, 512",
    ("network", "convs"): "2, 2, 3, 3, 3",
    ("train", "phase1_iters"): "20000",
    ("train", "phase2_iters"): "10000",
    ("train", "phase1_lr"): "1e-8",
    ("train", "phase2_lr"): "1e-9",
    ("data", "height"): "512",
    ("data", "width"): "512",
    ("data", "n_cells"): "80",
    ("data", "n_train"): "20",
    ("data", "n_test"): "10",
    ("data", "augment"): "true",
}

PROFILES = {"toy": _TOY, "paper": _PAPER}

_SECTIONS = {"train": TrainSchedule, "data": DataParams, "eval": EvalParams}

# Every (section, key) the loader understands.
_KNOWN = frozenset(
    [("run", "profile"), ("run", "seed"), *_TOY]
    + [(s, f.name) for s, cls in _SECTIONS.items() for f in fields(cls)]
) - {("train", "seed")}

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

_PARSERS = {
    int: (int, "an integer"),
    float: (float, "a number"),
    bool: (lambda text: _BOOL[text.strip().lower()], "a boolean"),
    str: (str, "a string"),
    list[int]: (lambda text: [int(t) for t in text.replace(",", " ").split()], "integers"),
}


def _convert(key: str, kind, text: str):
    parse, expected = _PARSERS[kind]
    try:
        return parse(text)
    except (KeyError, ValueError):
        raise ConfigError(f"{key}: expected {expected}, got {text!r}") from None


def _fill(section: str, values: dict, **fixed):
    """Build the section's dataclass; fields the values omit keep their defaults."""
    cls = _SECTIONS[section]
    types = get_type_hints(cls)
    kwargs = {
        key: _convert(f"{section}.{key}", types[key], text)
        for (s, key), text in values.items()
        if s == section
    }
    return cls(**kwargs, **fixed)


def _network(values: dict) -> NetworkConfig:
    widths = _convert("network.widths", list[int], values["network", "widths"])
    convs = _convert("network.convs", list[int], values["network", "convs"])
    if len(widths) != len(convs):
        raise ConfigError(
            f"network.widths and network.convs must list one entry per level "
            f"(got {len(widths)} and {len(convs)})"
        )
    return NetworkConfig(
        stages=_convert("network.stages", int, values["network", "stages"]),
        subnet=SubNetConfig(
            levels=tuple(LevelSpec(convs=c, channels=w) for c, w in zip(convs, widths))
        ),
        recursive_level=parse_recursive(values["network", "recursive"]),
    )


def _read_ini(path) -> dict[tuple[str, str], str]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from None
    out = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            out[(section, key)] = value
    return out


def _parse_override(text: str) -> tuple[tuple[str, str], str]:
    """Split a section.key=value override string."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form section.key=value")
    lhs, value = text.split("=", 1)
    if "." not in lhs:
        raise ConfigError(f"override {text!r} needs a section.key left-hand side")
    section, key = lhs.split(".", 1)
    return (section.strip(), key.strip()), value.strip()


def load_run_config(
    path=None,
    profile: str | None = None,
    overrides: list[str] | None = None,
) -> RunConfig:
    """Resolve a full run configuration.

    Precedence, lowest to highest: profile values, INI file contents, then
    explicit overrides. A profile named by the file or an override wins
    over ``profile``.
    """
    file_values = _read_ini(path) if path is not None else {}
    override_values = dict(_parse_override(o) for o in overrides or [])

    name = (
        override_values.get(("run", "profile"))
        or file_values.get(("run", "profile"))
        or profile
        or "toy"
    )
    if name not in PROFILES:
        raise ConfigError(f"unknown profile {name!r}; choose from {sorted(PROFILES)}")
    values = dict(PROFILES[name])
    for source in (file_values, override_values):
        for section, key in source:
            if (section, key) not in _KNOWN:
                raise ConfigError(f"unknown config key [{section}] {key}")
        values.update(source)

    seed = _convert("run.seed", int, values.get(("run", "seed"), "0"))
    try:
        return RunConfig(
            profile=name,
            seed=seed,
            network=_network(values),
            schedule=_fill("train", values, seed=seed),
            data=_fill("data", values),
            eval=_fill("eval", values),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
