"""Run configuration: INI files, named profiles, and override precedence.

A run is described by five sections (run, network, train, data, eval).
Every key has a default from the selected profile; an INI file overrides
the profile, the M2FCN_SEED environment variable overrides the file's
seed, and explicit overrides (command-line --set/--seed and friends) win
over everything. Unknown sections or keys are rejected rather than
ignored so typos fail loudly.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

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


# Every key the loader understands, with per-profile defaults. Values are
# strings exactly as they would appear in an INI file.

_TOY = {
    ("run", "profile"): "toy",
    ("run", "seed"): "0",
    ("network", "stages"): "2",
    ("network", "levels"): "3",
    ("network", "widths"): "8, 16, 16",
    ("network", "convs"): "2, 2, 2",
    ("network", "recursive"): "all",
    ("network", "concat_logits"): "false",
    ("network", "learn_upsample"): "false",
    ("network", "beta_mode"): "balanced",
    ("train", "mode"): "end_to_end",
    ("train", "phase1_iters"): "200",
    ("train", "phase2_iters"): "400",
    ("train", "phase1_lr"): "3e-5",
    ("train", "phase2_lr"): "1e-5",
    ("train", "momentum"): "0.9",
    ("train", "weight_decay"): "2e-4",
    ("train", "snapshot_every"): "0",
    ("data", "height"): "48",
    ("data", "width"): "48",
    ("data", "n_cells"): "6",
    ("data", "distractor_rate"): "1.0",
    ("data", "n_train"): "4",
    ("data", "n_test"): "2",
    ("data", "augment"): "false",
    ("eval", "n_thresholds"): "33",
    ("eval", "threshold_lo"): "0.02",
    ("eval", "threshold_hi"): "0.98",
}

_PAPER = dict(_TOY)
_PAPER.update(
    {
        ("run", "profile"): "paper",
        ("network", "stages"): "3",
        ("network", "levels"): "5",
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
)

PROFILES = {"toy": _TOY, "paper": _PAPER}

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _to_bool(key, text: str) -> bool:
    try:
        return _BOOL[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"{key}: expected a boolean, got {text!r}") from None


def _to_int(key, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _to_float(key, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None


def _int_list(key, text: str) -> list[int]:
    try:
        return [int(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"{key}: expected integers, got {text!r}") from None


def _read_ini(path) -> dict[tuple[str, str], str]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
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
    env: dict | None = None,
) -> RunConfig:
    """Resolve a full run configuration.

    Precedence, lowest to highest: profile defaults, INI file contents,
    the M2FCN_SEED environment variable, then explicit overrides.
    """
    env = os.environ if env is None else env
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
    known = set(values)

    for source in (file_values, override_values):
        for sk in source:
            if sk not in known:
                section, key = sk
                raise ConfigError(f"unknown config key [{section}] {key}")
        values.update(source)

    if "M2FCN_SEED" in env and ("run", "seed") not in override_values:
        values[("run", "seed")] = str(env["M2FCN_SEED"])

    def get(section, key):
        return values[(section, key)]

    levels = _to_int("network.levels", get("network", "levels"))
    if levels < 1:
        raise ConfigError("network.levels must be at least 1")
    widths = _int_list("network.widths", get("network", "widths"))
    convs = _int_list("network.convs", get("network", "convs"))
    if len(widths) < levels or len(convs) < levels:
        raise ConfigError(
            f"widths/convs must list at least {levels} entries "
            f"(got {len(widths)} and {len(convs)})"
        )
    # Longer lists are allowed so one file can serve several level counts;
    # entries beyond the active level count are ignored.
    widths, convs = widths[:levels], convs[:levels]

    subnet = SubNetConfig(
        levels=tuple(LevelSpec(convs=c, channels=w) for c, w in zip(convs, widths))
    )
    mode, rec_level = parse_recursive(get("network", "recursive"))
    network = NetworkConfig(
        stages=_to_int("network.stages", get("network", "stages")),
        subnet=subnet,
        recursive_mode=mode,
        recursive_level=rec_level,
        concat_logits=_to_bool("network.concat_logits", get("network", "concat_logits")),
        learn_upsample=_to_bool(
            "network.learn_upsample", get("network", "learn_upsample")
        ),
        beta_mode=get("network", "beta_mode"),
    )

    seed = _to_int("run.seed", get("run", "seed"))
    schedule = TrainSchedule(
        phase1_iters=_to_int("train.phase1_iters", get("train", "phase1_iters")),
        phase1_lr=_to_float("train.phase1_lr", get("train", "phase1_lr")),
        phase2_iters=_to_int("train.phase2_iters", get("train", "phase2_iters")),
        phase2_lr=_to_float("train.phase2_lr", get("train", "phase2_lr")),
        mode=get("train", "mode"),
        seed=seed,
        snapshot_every=_to_int("train.snapshot_every", get("train", "snapshot_every")),
        momentum=_to_float("train.momentum", get("train", "momentum")),
        weight_decay=_to_float("train.weight_decay", get("train", "weight_decay")),
    )

    data = DataParams(
        height=_to_int("data.height", get("data", "height")),
        width=_to_int("data.width", get("data", "width")),
        n_cells=_to_int("data.n_cells", get("data", "n_cells")),
        distractor_rate=_to_float(
            "data.distractor_rate", get("data", "distractor_rate")
        ),
        n_train=_to_int("data.n_train", get("data", "n_train")),
        n_test=_to_int("data.n_test", get("data", "n_test")),
        augment=_to_bool("data.augment", get("data", "augment")),
    )
    n_thresholds = _to_int("eval.n_thresholds", get("eval", "n_thresholds"))
    if n_thresholds < 1:
        raise ConfigError("eval.n_thresholds must be positive")
    evalp = EvalParams(
        n_thresholds=n_thresholds,
        threshold_lo=_to_float("eval.threshold_lo", get("eval", "threshold_lo")),
        threshold_hi=_to_float("eval.threshold_hi", get("eval", "threshold_hi")),
    )
    if not 0.0 <= evalp.threshold_lo <= evalp.threshold_hi <= 1.0:
        raise ConfigError("eval thresholds must satisfy 0 <= lo <= hi <= 1")

    return RunConfig(
        profile=name,
        seed=seed,
        network=network,
        schedule=schedule,
        data=data,
        eval=evalp,
    )
