"""Command-line entry points.

Subcommands: synth (build a dataset directory), train (two-phase training
to a checkpoint), predict (probability maps as PGM), eval (Rand-score
threshold sweep), gradcheck (numeric gradient audit), ablate (recursion
ablation table). Exit codes: 0 success, 1 runtime failure such as diverged
training or a failed check, 2 bad usage or configuration.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .autodiff import Tensor, grad_check
from .checkpoint import network_from_checkpoint, save_checkpoint
from .config import PROFILES, RunConfig, load_run_config
from .data import (
    Augmented,
    DataError,
    Sample,
    load_dataset,
    load_image,
    save_dataset,
    save_image,
    synth_corpus,
)
from .evaluation import LabelImage, best_fscore_sweep, pr_curve_csv
from .iohelpers import atomic_write_text
from .loss import total_loss
from .network import M2FCN, NetworkConfig, initial_values
from .subnet import LevelSpec, SubNetConfig
from .training import train_pipeline, loss_log_csv

__all__ = ["main"]


def _config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI configuration file")
    p.add_argument("--profile", choices=sorted(PROFILES), help="base profile")
    p.add_argument("--seed", type=int, help="override run.seed")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="SECTION.KEY=VALUE",
        help="override any config key; may repeat",
    )


def _resolve(args) -> RunConfig:
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"run.seed={args.seed}")
    return load_run_config(args.config, args.profile, overrides)


def _train_samples(cfg: RunConfig, data_dir) -> list[Sample] | Augmented:
    samples = [s for _, s in load_dataset(data_dir, "train")]
    return Augmented(samples) if cfg.data.augment else samples


def _ground_truth(entries) -> list[LabelImage]:
    gts = []
    for name, sample in entries:
        if sample.segments is None:
            raise DataError(f"sample {name} has no ground-truth segments to score")
        gts.append(LabelImage(sample.segments))
    return gts


def cmd_synth(args) -> int:
    cfg = _resolve(args)
    d = cfg.data
    train, test = synth_corpus(
        cfg.seed, d.n_train, d.n_test, d.height, d.width, d.n_cells, d.distractor_rate
    )
    save_dataset(args.out, train, test)
    print(f"wrote {len(train)} train + {len(test)} test samples to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve(args)
    samples = _train_samples(cfg, args.data)
    out = Path(args.out)
    result, pre_log = train_pipeline(cfg.network, samples, cfg.schedule, out_dir=out)
    arrays = {name: p.data for name, p in result.network.parameters().items()}
    save_checkpoint(out / "model.m2f", cfg.network, arrays)
    atomic_write_text(out / "pretrain_log.csv", loss_log_csv(pre_log, 1))
    atomic_write_text(out / "loss_log.csv", loss_log_csv(result.log, cfg.network.stages))
    first = result.log[0]["total"] if result.log else float("nan")
    last = result.log[-1]["total"] if result.log else float("nan")
    print(f"trained {len(samples)} samples: total loss {first:.4f} -> {last:.4f}")
    print(f"checkpoint: {out / 'model.m2f'}")
    if result.aborted:
        print("training diverged; checkpoint holds the best state before divergence",
              file=sys.stderr)
        return 1
    return 0


def cmd_predict(args) -> int:
    net = network_from_checkpoint(args.model)
    entries = load_dataset(args.data, args.split)
    out = Path(args.out)
    for name, sample in entries:
        save_image(out / f"pred_{name}.pgm", net.predict(Tensor(sample.image)))
    print(f"wrote {len(entries)} probability maps to {out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    net = network_from_checkpoint(args.model) if args.model else None
    entries = load_dataset(args.data, args.split)
    gts = _ground_truth(entries)
    if net is not None:
        probs = [net.predict(Tensor(sample.image)) for _, sample in entries]
    else:
        probs = [load_image(Path(args.pred) / f"pred_{name}.pgm") for name, _ in entries]
    scores, best_t, points = best_fscore_sweep(probs, gts, cfg.eval.thresholds())
    out = Path(args.out)
    atomic_write_text(
        out / "scores.txt",
        (
            f"n_images = {len(entries)}\n"
            f"best_threshold = {best_t!r}\n"
            f"rand_split = {scores.split!r}\n"
            f"rand_merge = {scores.merge!r}\n"
            f"rand_fscore = {scores.fscore!r}\n"
        ),
    )
    atomic_write_text(out / "pr_curve.csv", pr_curve_csv(points))
    print(f"rand fscore {scores.fscore:.4f} at threshold {best_t:.3f} "
          f"(split {scores.split:.4f}, merge {scores.merge:.4f})")
    return 0


def _op_suites(rng, eps, max_entries, seed):
    """Per-op gradient audits; yields (name, max relative error)."""
    from .ops import conv2d, maxpool2, relu, sigmoid, upsample

    x = Tensor(rng.uniform(-1.0, 1.0, (2, 7, 6)), requires_grad=True)
    w = Tensor(rng.normal(0.0, 0.4, (3, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(0.0, 0.1, (3,)), requires_grad=True)
    yield "conv2d", grad_check(
        lambda: conv2d(x, w, b).sum(), [x, w, b], eps=eps,
        max_entries_per_param=max_entries, seed=seed,
    )
    yield "maxpool2", grad_check(
        lambda: maxpool2(x).sum(), [x], eps=eps,
        max_entries_per_param=max_entries, seed=seed,
    )
    yield "upsample", grad_check(
        lambda: upsample(x, 2).sum(), [x], eps=eps,
        max_entries_per_param=max_entries, seed=seed,
    )
    yield "relu+sigmoid", grad_check(
        lambda: sigmoid(relu(x)).sum(), [x], eps=eps,
        max_entries_per_param=max_entries, seed=seed,
    )


def cmd_gradcheck(args) -> int:
    # Per-op audits plus a small two-stage network that exercises recursion,
    # pooling, upsampling, and the fused loss in one graph.
    if not args.tolerance >= 0.0:
        raise ValueError(f"--tolerance must be nonnegative, got {args.tolerance}")
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for name, err in _op_suites(rng, args.eps, args.max_entries, args.seed):
        print(f"{name:12s} max relative error {err:.3e}")
        worst = max(worst, err)

    subnet = SubNetConfig(
        levels=(LevelSpec(convs=1, channels=4), LevelSpec(convs=2, channels=6))
    )
    config = NetworkConfig(stages=2, subnet=subnet)
    # In float64: a float32 network's rounding swamps a central difference.
    values = initial_values(config, args.seed)
    net = M2FCN(config, {k: v.astype(np.float64) for k, v in values.items()})
    for p in net.parameters().values():
        p.data += rng.normal(0.0, 0.05, p.data.shape)
    image = rng.uniform(0.05, 0.95, (1, 11, 10))
    mask = rng.random((11, 10)) < 0.3
    labels = Sample(image, mask).labels()

    def loss_fn():
        return total_loss(net.forward_all(Tensor(image)), labels, config)

    err = grad_check(
        loss_fn,
        net.parameters(),
        eps=args.eps,
        max_entries_per_param=args.max_entries,
        seed=args.seed,
    )
    print(f"{'network+loss':12s} max relative error {err:.3e}")
    worst = max(worst, err)
    status = "PASS" if worst <= args.tolerance else "FAIL"
    print(f"gradcheck {status}: max relative error {worst:.3e} "
          f"(tolerance {args.tolerance:.1e})")
    return 0 if worst <= args.tolerance else 1


def cmd_ablate(args) -> int:
    cfg = _resolve(args)
    samples = _train_samples(cfg, args.data)
    entries = load_dataset(args.data, "test")
    gts = _ground_truth(entries)
    # The four designs cross recursion arity (one top-level map vs all side
    # maps) with the training regime (frozen first stage vs joint updates);
    # the second-highest-level single variant fills out the arity axis.
    top = len(cfg.network.subnet.levels)
    variants = [
        ("single_top_e2e", replace(cfg.network, recursive_level=top), "end_to_end"),
        ("multi_stepwise", cfg.network, "stepwise"),
        ("multi_e2e", cfg.network, "end_to_end"),
    ]
    if top > 1:
        single_next = replace(cfg.network, recursive_level=top - 1)
        variants.insert(1, ("single_next_e2e", single_next, "end_to_end"))
    rows = ["variant,stages,recursive,train_mode,rand_fscore,best_threshold"]
    any_aborted = False
    for name, net_cfg, mode in variants:
        sched = replace(cfg.schedule, mode=mode)
        result, _ = train_pipeline(net_cfg, samples, sched)
        any_aborted = any_aborted or result.aborted
        probs = [result.network.predict(Tensor(s.image)) for _, s in entries]
        scores, best_t, _ = best_fscore_sweep(probs, gts, cfg.eval.thresholds())
        rec = net_cfg.recursive
        rows.append(
            f"{name},{net_cfg.stages},{rec},{mode},{scores.fscore!r},{best_t!r}"
        )
        print(f"{name:15s} stages={net_cfg.stages} recursive={rec:9s} mode={mode:10s} "
              f"fscore={scores.fscore:.4f} (threshold {best_t:.3f})")
    atomic_write_text(Path(args.out) / "ablation.csv", "\n".join(rows) + "\n")
    return 1 if any_aborted else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="m2fcn",
        description="Multi-stage boundary detection on cell images",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    _config_args(p)
    p.add_argument("--out", required=True, help="dataset directory to create")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset")
    _config_args(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write probability maps for a split")
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--split", default="test", choices=["train", "test"])
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="Rand-score sweep over thresholds")
    _config_args(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", help="checkpoint file to predict with")
    source.add_argument("--pred", help="directory of pred_NNN.pgm maps to score instead")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--split", default="test", choices=["train", "test"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="compare gradients to finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--max-entries", type=int, default=4,
                   help="checked entries per parameter tensor")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train recursion ablations and score them")
    _config_args(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError, DataError and CheckpointError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
