"""Momentum SGD training with two-phase initialization.

Phase 1 trains a single-stage network; its parameters then seed stage 1 of
the multi-stage network while the remaining stages start from their seeded
random init. Phase 2 either trains everything end to end or freezes stage 1
("stepwise"). Batches are single images drawn from a seeded per-epoch
shuffle, so identical runs produce bitwise-identical parameters.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tensor, zero_grads
from .loss import BoundaryLabels, balanced_ce_value, class_balance_beta, total_loss
from .network import M2FCN, NetworkConfig, build_network

__all__ = [
    "SGD",
    "TrainSchedule",
    "TrainResult",
    "pretrain_stage1",
    "train",
    "train_pipeline",
    "freeze_stage",
    "loss_log_csv",
]


class SGD:
    """v <- momentum * v - lr * (grad + weight_decay * p); p <- p + v.

    Parameters with requires_grad False are never touched. A parameter the
    last backward never reached contributes a zero gradient (decay and
    momentum still apply).
    """

    def __init__(self, params: dict[str, Tensor], lr: float, momentum: float = 0.9,
                 weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {
            name: np.zeros_like(p.data)
            for name, p in params.items()
            if p.requires_grad
        }

    def step(self) -> None:
        for name, p in self.params.items():
            if not p.requires_grad:
                continue
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif not np.isfinite(g).all():
                raise FloatingPointError(f"non-finite gradient for {name}")
            v = self.velocity[name]
            v *= self.momentum
            v -= self.lr * (g + self.weight_decay * p.data)
            p.data += v


@dataclass(frozen=True)
class TrainSchedule:
    phase1_iters: int = 200
    phase1_lr: float = 3e-5
    phase2_iters: int = 400
    phase2_lr: float = 1e-5
    mode: str = "end_to_end"  # "end_to_end" | "stepwise"
    seed: int = 0
    snapshot_every: int = 0
    momentum: float = 0.9
    weight_decay: float = 2e-4

    def __post_init__(self):
        if self.mode not in ("end_to_end", "stepwise"):
            raise ValueError(f"unknown training mode {self.mode!r}")
        if self.phase1_iters < 0 or self.phase2_iters < 0:
            raise ValueError("iteration counts must be nonnegative")


@dataclass
class TrainResult:
    network: M2FCN
    log: list[dict] = field(default_factory=list)
    aborted: bool = False


def freeze_stage(net: M2FCN, stage: int) -> None:
    prefix = f"stage{stage}/"
    for name, p in net.parameters().items():
        if name.startswith(prefix):
            p.requires_grad = False


def _prepare(data) -> list[tuple[Tensor, BoundaryLabels]]:
    prepared = []
    for sample in data:
        img = Tensor(sample.image)
        prepared.append((img, sample.labels()))
    if not prepared:
        raise ValueError("training needs at least one sample")
    return prepared


def _run_loop(net, prepared, iters, lr, schedule, out_dir=None, log_offset=0):
    """Shared inner loop; returns (log, aborted)."""
    cfg = net.config
    opt = SGD(net.parameters(), lr, schedule.momentum, schedule.weight_decay)
    order_rng = np.random.default_rng(schedule.seed)
    order: list[int] = []
    params = net.parameters()
    trainable = [p for p in params.values() if p.requires_grad]
    log: list[dict] = []
    best_loss = np.inf
    best_state = None
    aborted = False
    for it in range(1, iters + 1):
        if not order:
            order = list(order_rng.permutation(len(prepared)))
        image, labels = prepared[order.pop(0)]
        try:
            outs = net.forward_all(image)
            loss = total_loss(outs, labels, cfg)
            beta = class_balance_beta(labels, cfg.beta_mode)
            record = {"iteration": log_offset + it, "total": loss.item()}
            for m in range(1, cfg.stages + 1):
                record[f"fused{m}"] = balanced_ce_value(outs.fused[m].data, labels, beta)
            log.append(record)
            if record["total"] < best_loss:
                # Taken before the step: these are the parameters whose loss
                # was just logged.
                best_loss = record["total"]
                best_state = net.state()
            zero_grads(trainable)
            loss.backward()
            opt.step()
        except FloatingPointError:
            # Divergence: roll back to the lowest-loss parameters logged so
            # far. Without a snapshot no parameter has moved yet.
            if best_state is not None:
                net.load_state(best_state)
            aborted = True
            break
        if schedule.snapshot_every > 0 and out_dir is not None and it % schedule.snapshot_every == 0:
            from .checkpoint import save_checkpoint

            save_checkpoint(
                f"{out_dir}/snapshot_{log_offset + it:06d}.m2f", cfg, net.state()
            )
    return log, aborted


def pretrain_stage1(config: NetworkConfig, data, schedule: TrainSchedule):
    """Phase 1: train a single-stage network on the same data.

    Returns (state dict, loss log, aborted). With zero iterations the state
    is exactly the seeded initialization.
    """
    cfg1 = replace(
        config,
        stages=1,
        alpha_side=config.alpha_side[:1],
        alpha_fuse=config.alpha_fuse[:1],
    )
    net = build_network(cfg1, schedule.seed)
    prepared = _prepare(data)
    log, aborted = _run_loop(net, prepared, schedule.phase1_iters, schedule.phase1_lr, schedule)
    return net.state(), log, aborted


def train(net: M2FCN, data, schedule: TrainSchedule, out_dir=None, log_offset=0) -> TrainResult:
    """Phase 2 over a prepared network (stage 1 usually pretrained)."""
    if schedule.mode == "stepwise" and net.config.stages > 1:
        freeze_stage(net, 1)
    prepared = _prepare(data)
    log, aborted = _run_loop(
        net, prepared, schedule.phase2_iters, schedule.phase2_lr, schedule,
        out_dir=out_dir, log_offset=log_offset,
    )
    return TrainResult(net, log, aborted)


def train_pipeline(config: NetworkConfig, data, schedule: TrainSchedule, out_dir=None):
    """Pretrain stage 1, seed the full network with it, run phase 2.

    Returns (TrainResult, pretrain log).
    """
    state1, pre_log, pre_aborted = pretrain_stage1(config, data, schedule)
    net = build_network(config, schedule.seed)
    if config.stages >= 1:
        params = net.parameters()
        for name, value in state1.items():
            if name in params:
                params[name].data[...] = value
    result = train(net, data, schedule, out_dir=out_dir)
    result.aborted = result.aborted or pre_aborted
    return result, pre_log


def loss_log_csv(log: list[dict], stages: int) -> str:
    """CSV text with columns iteration, fused loss per stage, total loss."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["iteration"] + [f"fused_loss_stage{m}" for m in range(1, stages + 1)] + ["total_loss"]
    writer.writerow(header)
    for rec in log:
        row = [rec["iteration"]]
        row += [repr(rec[f"fused{m}"]) for m in range(1, stages + 1)]
        row.append(repr(rec["total"]))
        writer.writerow(row)
    return buf.getvalue()
