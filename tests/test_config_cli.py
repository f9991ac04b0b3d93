"""Configuration resolution and the command-line surface."""

import csv
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from m2fcn.checkpoint import load_checkpoint, save_checkpoint
from m2fcn.config import _KNOWN, ConfigError, DataParams, EvalParams, load_run_config
from m2fcn.data import load_dataset
from m2fcn.subnet import receptive_field
from m2fcn.training import TrainSchedule

CLI = [sys.executable, "-m", "m2fcn.cli"]


def run_cli(args, **kw):
    return subprocess.run(
        CLI + args, capture_output=True, text=True, timeout=600, **kw
    )


# ---- profile defaults ----


def test_toy_profile_defaults():
    cfg = load_run_config(profile="toy")
    assert cfg.profile == "toy"
    assert cfg.network.stages == 2
    assert len(cfg.network.subnet.levels) == 3
    assert cfg.network.recursive_level is None
    assert cfg.seed == 0
    assert cfg.data.height == cfg.data.width == 48
    assert cfg.schedule.momentum == 0.9
    assert cfg.schedule.weight_decay == 2e-4


def test_paper_profile_geometry():
    cfg = load_run_config(profile="paper")
    assert cfg.network.stages == 3
    levels = cfg.network.subnet.levels
    assert len(levels) == 5
    assert tuple(l.channels for l in levels) == (64, 128, 256, 512, 512)
    assert tuple(l.convs for l in levels) == (2, 2, 3, 3, 3)
    fields = [receptive_field(cfg.network.subnet, l) for l in range(1, 6)]
    assert [s for s, _ in fields] == [1, 2, 4, 8, 16]
    assert [rf for _, rf in fields] == [5, 14, 40, 92, 196]


def test_default_profile_is_toy():
    assert load_run_config().profile == "toy"


def test_paper_profile_values_pinned():
    cfg = load_run_config(profile="paper")
    assert cfg.schedule == TrainSchedule(
        phase1_iters=20000, phase1_lr=1e-8, phase2_iters=10000, phase2_lr=1e-9,
        mode="end_to_end", seed=0, snapshot_every=0, momentum=0.9, weight_decay=2e-4,
    )
    assert cfg.data == DataParams(
        height=512, width=512, n_cells=80, distractor_rate=1.0,
        n_train=20, n_test=10, augment=True,
    )
    assert cfg.eval == EvalParams()


def test_readme_table_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    keys = set(re.findall(r"^\| `(\w+)\.(\w+)` \|", readme, re.M))
    assert keys == _KNOWN


# ---- precedence ----


def test_file_overrides_profile(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[network]\nstages = 3\n")
    cfg = load_run_config(path=ini)
    assert cfg.network.stages == 3


def test_override_beats_file(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[network]\nstages = 3\n[run]\nseed = 7\n")
    cfg = load_run_config(path=ini, overrides=["network.stages=4"])
    assert cfg.network.stages == 4
    assert cfg.seed == 7


def test_environment_does_not_set_the_seed(monkeypatch):
    monkeypatch.setenv("M2FCN_SEED", "21")
    assert load_run_config().seed == 0
    assert load_run_config(overrides=["run.seed=5"]).seed == 5


def test_profile_selectable_from_file(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nprofile = paper\n")
    cfg = load_run_config(path=ini)
    assert cfg.profile == "paper"
    assert cfg.network.stages == 3


# ---- rejection paths ----


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        load_run_config(overrides=["network.depth=4"])


def test_unknown_profile_rejected():
    with pytest.raises(ConfigError):
        load_run_config(profile="huge")


def test_type_errors_rejected():
    with pytest.raises(ConfigError):
        load_run_config(overrides=["run.seed=banana"])
    with pytest.raises(ConfigError):
        load_run_config(overrides=["train.phase1_lr=fast"])


def test_non_utf8_config_file_rejected(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_bytes(b"[run]\nseed = \xff\xfe\n")
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_run_config(path=ini)


def test_bad_override_shape_rejected():
    with pytest.raises(ConfigError):
        load_run_config(overrides=["seedless"])


def test_widths_shorter_than_levels_rejected():
    with pytest.raises(ConfigError):
        load_run_config(overrides=["network.widths=8, 16"])


def test_widths_longer_than_convs_rejected():
    with pytest.raises(ConfigError, match="one entry per level"):
        load_run_config(overrides=["network.widths=8, 16, 16, 99, 99"])


def test_levels_key_removed(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown config key \[network\] levels"):
        load_run_config(overrides=["network.levels=3"])
    ini = tmp_path / "run.ini"
    ini.write_text("[network]\nlevels = 3\n")
    r = run_cli(["synth", "--config", str(ini), "--out", str(tmp_path / "d")])
    assert r.returncode == 2
    assert "unknown config key [network] levels" in r.stderr


def test_eval_params_checked_on_construction():
    with pytest.raises(ValueError):
        EvalParams(n_thresholds=0)
    with pytest.raises(ValueError):
        EvalParams(threshold_lo=0.9, threshold_hi=0.1)
    with pytest.raises(ConfigError):
        load_run_config(overrides=["eval.n_thresholds=0"])


def test_negative_snapshot_every_rejected():
    with pytest.raises(ValueError, match="snapshot_every"):
        TrainSchedule(snapshot_every=-3)
    with pytest.raises(ConfigError, match="snapshot_every"):
        load_run_config(overrides=["train.snapshot_every=-3"])


@pytest.mark.parametrize("key, value", [
    ("phase1_lr", "nan"), ("phase1_lr", "-1e-3"), ("phase2_lr", "0"), ("phase2_lr", "inf"),
    ("momentum", "1.0"), ("momentum", "-0.1"), ("momentum", "nan"),
    ("weight_decay", "inf"), ("weight_decay", "-1e-4"), ("weight_decay", "nan"),
])
def test_bad_training_rates_rejected_at_load(key, value):
    with pytest.raises(ConfigError, match=f"train.{key}"):
        load_run_config(overrides=[f"train.{key}={value}"])
    with pytest.raises(ValueError, match=key):
        TrainSchedule(**{key: float(value)})


def test_boundary_training_rates_accepted():
    cfg = load_run_config(overrides=["train.momentum=0", "train.weight_decay=0",
                                     "train.phase1_lr=1e-300"])
    assert (cfg.schedule.momentum, cfg.schedule.weight_decay) == (0.0, 0.0)


def test_recursive_single_parsing():
    cfg = load_run_config(overrides=["network.recursive=single:2"])
    assert cfg.network.recursive_level == 2
    with pytest.raises((ConfigError, ValueError)):
        load_run_config(overrides=["network.recursive=single:9"])


def test_threshold_list():
    cfg = load_run_config()
    ts = cfg.eval.thresholds()
    assert len(ts) == 33
    assert abs(ts[0] - 0.02) < 1e-12
    assert abs(ts[-1] - 0.98) < 1e-12
    assert abs(ts[1] - ts[0] - 0.03) < 1e-12


# ---- CLI end to end ----


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One tiny synth corpus plus a short training run, shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    r = run_cli(
        [
            "synth",
            "--out",
            str(data),
            "--set",
            "data.n_train=2",
            "--set",
            "data.n_test=1",
        ]
    )
    assert r.returncode == 0, r.stderr
    out = root / "run1"
    r = run_cli(
        [
            "train",
            "--data",
            str(data),
            "--out",
            str(out),
            "--set",
            "train.phase1_iters=4",
            "--set",
            "train.phase2_iters=6",
        ]
    )
    assert r.returncode == 0, r.stderr
    return root


def test_cli_synth_layout(workdir):
    data = workdir / "data"
    assert (data / "manifest.txt").is_file()
    names = sorted(p.name for p in (data / "images").iterdir())
    assert names == ["000.pgm", "001.pgm", "002.pgm"]
    assert not list(data.glob("**/*.partial"))


def test_cli_train_artifacts(workdir):
    out = workdir / "run1"
    assert (out / "model.m2f").is_file()
    with open(out / "loss_log.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "iteration",
        "fused_loss_stage1",
        "fused_loss_stage2",
        "total_loss",
    ]
    assert len(rows) == 1 + 6  # joint-phase iterations
    with open(out / "pretrain_log.csv") as fh:
        pre = list(csv.reader(fh))
    assert pre[0] == ["iteration", "fused_loss_stage1", "total_loss"]
    assert len(pre) == 1 + 4  # stage-1 warmup iterations


def test_cli_rerun_byte_identical(workdir):
    out2 = workdir / "run2"
    r = run_cli(
        [
            "train",
            "--data",
            str(workdir / "data"),
            "--out",
            str(out2),
            "--set",
            "train.phase1_iters=4",
            "--set",
            "train.phase2_iters=6",
        ]
    )
    assert r.returncode == 0, r.stderr
    a = (workdir / "run1" / "model.m2f").read_bytes()
    b = (out2 / "model.m2f").read_bytes()
    assert a == b
    assert (workdir / "run1" / "loss_log.csv").read_text() == (
        out2 / "loss_log.csv"
    ).read_text()


def test_cli_predict_then_eval(workdir):
    pred = workdir / "pred"
    r = run_cli(
        [
            "predict",
            "--model",
            str(workdir / "run1" / "model.m2f"),
            "--data",
            str(workdir / "data"),
            "--out",
            str(pred),
            "--split",
            "test",
        ]
    )
    assert r.returncode == 0, r.stderr
    maps = sorted(p.name for p in pred.iterdir())
    assert maps == ["pred_002.pgm"]
    ev = workdir / "eval1"
    r = run_cli(
        [
            "eval",
            "--model",
            str(workdir / "run1" / "model.m2f"),
            "--data",
            str(workdir / "data"),
            "--out",
            str(ev),
        ]
    )
    assert r.returncode == 0, r.stderr
    text = (ev / "scores.txt").read_text()
    assert "rand_fscore" in text
    with open(ev / "pr_curve.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["threshold", "rand_split", "rand_merge", "fscore"]
    # unscoreable thresholds are dropped, so the curve holds at most 33 rows
    assert 2 <= len(rows) <= 1 + 33


def test_cli_eval_perfect_maps_score_one(workdir, tmp_path):
    from m2fcn.data import load_dataset, save_image

    pred = tmp_path / "perfect"
    pred.mkdir()
    for name, sample in load_dataset(workdir / "data", split="test"):
        save_image(pred / f"pred_{name}.pgm", (~sample.mask).astype(float))
    ev = tmp_path / "eval"
    r = run_cli(
        [
            "eval",
            "--pred",
            str(pred),
            "--data",
            str(workdir / "data"),
            "--out",
            str(ev),
        ]
    )
    assert r.returncode == 0, r.stderr
    scores = dict(
        line.split(" = ")
        for line in (ev / "scores.txt").read_text().splitlines()
        if line
    )
    assert float(scores["rand_fscore"]) == 1.0
    assert float(scores["rand_merge"]) == 1.0
    assert float(scores["rand_split"]) == 1.0


def test_cli_eval_requires_exactly_one_source(workdir, tmp_path):
    r = run_cli(
        ["eval", "--data", str(workdir / "data"), "--out", str(tmp_path / "x")]
    )
    assert r.returncode == 2
    assert "one of the arguments --model --pred is required" in r.stderr
    r = run_cli(
        [
            "eval",
            "--model",
            str(workdir / "run1" / "model.m2f"),
            "--pred",
            str(tmp_path),
            "--data",
            str(workdir / "data"),
            "--out",
            str(tmp_path / "y"),
        ]
    )
    assert r.returncode == 2
    assert "argument --pred: not allowed with argument --model" in r.stderr
    assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()


def test_cli_gradcheck_passes():
    r = run_cli(["gradcheck", "--max-entries", "2"])
    assert r.returncode == 0, r.stderr
    assert "gradcheck PASS" in r.stdout
    for suite in ("conv2d", "maxpool2", "upsample", "network+loss"):
        assert suite in r.stdout


def test_cli_gradcheck_strict_tolerance_fails():
    r = run_cli(["gradcheck", "--max-entries", "1", "--tolerance", "1e-12"])
    assert r.returncode == 1
    assert "gradcheck FAIL" in r.stdout


@pytest.mark.parametrize("args, message", [
    (["--max-entries", "0"], "max_entries_per_param must be at least 1"),
    (["--max-entries", "-2"], "max_entries_per_param must be at least 1"),
    (["--tolerance", "-1"], "--tolerance must be nonnegative"),
])
def test_cli_gradcheck_bad_arguments_exit_2(args, message):
    r = run_cli(["gradcheck", *args])
    assert r.returncode == 2
    assert message in r.stderr and "PASS" not in r.stdout


@pytest.mark.parametrize("setting", ["train.phase1_lr=nan", "train.weight_decay=inf",
                                     "train.phase2_lr=0"])
def test_cli_train_bad_rate_exits_2_before_training(workdir, tmp_path, setting):
    out = tmp_path / "run"
    r = run_cli(["train", "--data", str(workdir / "data"), "--out", str(out), "--set", setting])
    assert r.returncode == 2
    assert r.stderr.startswith(f"error: {setting.split('=')[0]} must be"), r.stderr
    assert not out.exists() or not any(out.iterdir())


def test_cli_exit_code_usage_errors(tmp_path):
    r = run_cli(["train", "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "o")])
    assert r.returncode == 2
    r = run_cli(["synth", "--out", str(tmp_path / "d"), "--set", "data.cells=4"])
    assert r.returncode == 2
    r = run_cli(["frobnicate"])
    assert r.returncode == 2


@pytest.mark.parametrize("counts", [("-1", "3"), ("2", "-1")])
def test_cli_synth_negative_counts_exit_2(tmp_path, counts):
    out = tmp_path / "d"
    sets = [f"data.n_train={counts[0]}", f"data.n_test={counts[1]}"]
    r = run_cli(["synth", "--out", str(out), "--set", sets[0], "--set", sets[1]])
    assert r.returncode == 2
    assert "nonnegative" in r.stderr
    assert not (out / "manifest.txt").exists()


def test_cli_missing_inputs_exit_2(workdir, tmp_path):
    data = str(workdir / "data")
    broken = tmp_path / "broken"
    (broken / "images").mkdir(parents=True)
    (broken / "manifest.txt").write_text("000 train\n")
    for args in (
        ["predict", "--model", str(tmp_path / "nope.m2f"), "--data", data,
         "--out", str(tmp_path / "p")],
        ["eval", "--pred", str(tmp_path), "--data", data, "--out", str(tmp_path / "e")],
        ["train", "--data", str(broken), "--out", str(tmp_path / "t")],
    ):
        r = run_cli(args)
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr


def test_cli_scoring_without_segments_exits_2(workdir, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(workdir / "data", data)
    (data / "segs" / "002.pgm").unlink()
    for args in (
        ["eval", "--model", str(workdir / "run1" / "model.m2f"), "--data", str(data),
         "--out", str(tmp_path / "e")],
        ["ablate", "--data", str(data), "--out", str(tmp_path / "a")],
    ):
        r = run_cli(args)
        assert r.returncode == 2, r.stderr
        assert r.stderr == "error: sample 002 has no ground-truth segments to score\n"
    assert not (tmp_path / "e").exists() and not (tmp_path / "a").exists()


def test_cli_predict_non_finite_checkpoint_exit_2(workdir, tmp_path):
    config, state = load_checkpoint(workdir / "run1" / "model.m2f")
    state["stage1/level1/conv1/weight"][0, 0, 1, 1] = np.nan
    model = tmp_path / "nan.m2f"
    save_checkpoint(model, config, state)
    r = run_cli(["predict", "--model", str(model), "--data", str(workdir / "data"),
                 "--out", str(tmp_path / "p")])
    assert r.returncode == 2, r.stderr
    assert "non-finite values in tensor stage1/level1/conv1/weight" in r.stderr


def test_cli_seed_flag_changes_model(workdir, tmp_path):
    out = tmp_path / "seeded"
    r = run_cli(
        [
            "train",
            "--data",
            str(workdir / "data"),
            "--out",
            str(out),
            "--seed",
            "3",
            "--set",
            "train.phase1_iters=4",
            "--set",
            "train.phase2_iters=6",
        ]
    )
    assert r.returncode == 0, r.stderr
    assert (out / "model.m2f").read_bytes() != (
        workdir / "run1" / "model.m2f"
    ).read_bytes()


def test_cli_paper_profile_synth_builds_its_data(tmp_path):
    out = tmp_path / "d"
    r = run_cli(["synth", "--profile", "paper", "--set", "data.n_train=1",
                 "--set", "data.n_test=1", "--out", str(out)])
    assert r.returncode == 0, r.stderr
    entries = load_dataset(out)
    assert [name for name, _ in entries] == ["000", "001"]
    for _, sample in entries:
        assert sample.image.shape == (1, 512, 512)
        assert len(np.unique(sample.segments[sample.segments > 0])) == 80


def test_cli_paper_profile_end_to_end(tmp_path):
    # The paper profile's network, augmentation and checkpoint together, on
    # data reduced only through --set.
    reduced = []
    for setting in ("data.height=64", "data.width=64", "data.n_cells=8",
                    "data.n_train=2", "data.n_test=1"):
        reduced += ["--set", setting]
    data, run = tmp_path / "data", tmp_path / "run"
    r = run_cli(["synth", "--profile", "paper", "--out", str(data), *reduced])
    assert r.returncode == 0, r.stderr
    r = run_cli(["train", "--profile", "paper", "--data", str(data), "--out", str(run), *reduced,
                 "--set", "train.phase1_iters=2", "--set", "train.phase2_iters=2"])
    assert r.returncode == 0, r.stderr
    assert "trained 72 samples" in r.stdout  # 2 images x 36 augmentation members
    network = load_run_config(None, "paper", []).network
    values = sum(int(np.prod(shape)) for _, shape in network.parameter_shapes())
    assert values > 44_000_000
    assert (run / "model.m2f").stat().st_size > 4 * values
    r = run_cli(["predict", "--model", str(run / "model.m2f"), "--data", str(data),
                 "--out", str(tmp_path / "pred")])
    assert r.returncode == 0, r.stderr
    assert [p.name for p in (tmp_path / "pred").iterdir()] == ["pred_002.pgm"]
    r = run_cli(["eval", "--profile", "paper", "--model", str(run / "model.m2f"),
                 "--data", str(data), "--out", str(tmp_path / "eval"), *reduced])
    assert r.returncode == 0, r.stderr
    scores = (tmp_path / "eval" / "scores.txt").read_text()
    assert scores.startswith("n_images = 1\n") and "rand_fscore" in scores


def test_cli_no_partial_files_after_success(workdir):
    leftovers = list(workdir.glob("**/*.partial"))
    assert leftovers == []
