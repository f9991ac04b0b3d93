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
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tensor
from .checkpoint import save_checkpoint
from .loss import balanced_ce_value, class_balance_beta, total_loss
from .network import M2FCN, NetworkConfig, build_network, initial_values

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


def _check_rates(prefix: str, lrs: dict[str, float], momentum: float, weight_decay: float) -> None:
    """Raise ValueError unless the SGD settings can give finite updates.

    Every learning rate must be finite and positive, momentum in [0, 1) and
    weight decay finite and nonnegative; NaN fails every one of these.
    """
    for name, lr in lrs.items():
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"{prefix}{name} must be finite and positive, got {lr!r}")
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"{prefix}momentum must be in [0, 1), got {momentum!r}")
    if not (math.isfinite(weight_decay) and weight_decay >= 0):
        raise ValueError(f"{prefix}weight_decay must be finite and nonnegative, got {weight_decay!r}")


# Elements per slice of the SGD update. Each slice of a parameter, its
# gradient and its velocity passes through the six operations of the update
# while it is still in cache; a whole-tensor update streams every operand
# from memory once per operation.
_STEP_CHUNK = 1 << 14


class SGD:
    """v <- momentum * v - lr * (grad + weight_decay * p); p <- p + v.

    Parameters with requires_grad False are never touched. A parameter the
    last backward never reached contributes a zero gradient (decay and
    momentum still apply). Every tensor is updated in place, slice by slice
    through one scratch buffer of at most ``_STEP_CHUNK`` elements in the
    parameters' dtype, with the roundings of the expression above in its
    order, so the step allocates nothing parameter-sized. The rates are kept
    as Python floats, which numpy applies in the array's dtype, so float32
    parameters step in float32.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, momentum: float = 0.9,
                 weight_decay: float = 0.0):
        _check_rates("", {"lr": lr}, momentum, weight_decay)
        self.params = params
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity = {
            name: np.zeros_like(p.data)
            for name, p in params.items()
            if p.requires_grad
        }
        longest = max((v.size for v in self.velocity.values()), default=0)
        dtype = np.result_type(np.float32, *self.velocity.values())
        self._scratch = np.empty(min(longest, _STEP_CHUNK), dtype=dtype)

    def step(self) -> None:
        """One update; a non-finite gradient raises before any parameter moves."""
        live = [(name, p) for name, p in self.params.items() if p.requires_grad]
        # A finite sum rules out NaN and infinity without a boolean array;
        # only a sum that overflows or is not finite is checked element by
        # element, and that sum warns of nothing.
        with np.errstate(over="ignore", invalid="ignore"):
            for name, p in live:
                g = p.grad
                if g is not None and not np.isfinite(g.sum()) and not np.isfinite(g).all():
                    raise FloatingPointError(f"non-finite gradient for {name}")
        lr, momentum, decay = self.lr, self.momentum, self.weight_decay
        for name, p in live:
            pf, vf = p.data.reshape(-1), self.velocity[name].reshape(-1)
            gf = None if p.grad is None else p.grad.reshape(-1)
            for lo in range(0, pf.size, _STEP_CHUNK):
                hi = lo + _STEP_CHUNK
                ps, vs = pf[lo:hi], vf[lo:hi]
                t = self._scratch[: ps.size]
                np.multiply(ps, decay, out=t)
                np.add(0.0 if gf is None else gf[lo:hi], t, out=t)
                t *= lr
                vs *= momentum
                vs -= t
                ps += vs


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
        if self.snapshot_every < 0:
            raise ValueError("train.snapshot_every must be nonnegative")
        _check_rates("train.", {"phase1_lr": self.phase1_lr, "phase2_lr": self.phase2_lr},
                     self.momentum, self.weight_decay)


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


def _run_loop(net, data, iters, lr, schedule, out_dir=None):
    """Shared inner loop over samples, each built when drawn; returns (log, aborted)."""
    if len(data) == 0:
        raise ValueError("training needs at least one sample")
    cfg = net.config
    params = net.parameters()
    opt = SGD(params, lr, schedule.momentum, schedule.weight_decay)
    order_rng = np.random.default_rng(schedule.seed)
    order: list[int] = []
    log: list[dict] = []
    best_loss = np.inf
    best_state = None
    aborted = False
    for it in range(1, iters + 1):
        if not order:
            order = list(order_rng.permutation(len(data)))
        # Built outside the try: a sample that cannot be built is an error
        # in the data, not a diverging run.
        sample = data[order.pop(0)]
        image, labels = Tensor(sample.image), sample.labels()
        try:
            outs = net.forward_all(image)
            loss = total_loss(outs, labels, cfg)
            beta = class_balance_beta(labels)
            record = {"iteration": it, "total": loss.item()}
            for m in range(1, cfg.stages + 1):
                record[f"fused{m}"] = balanced_ce_value(outs.fused[m].data, labels, beta)
            log.append(record)
            if record["total"] < best_loss:
                # Taken before the step: these are the parameters whose loss
                # was just logged. Later snapshots overwrite the first one's
                # arrays, so only one parameter-sized copy is ever kept.
                best_loss = record["total"]
                if best_state is None:
                    best_state = net.state()
                else:
                    for name, p in params.items():
                        np.copyto(best_state[name], p.data)
            loss.backward()
            opt.step()
            # Free this iteration's graph before the next forward builds one.
            del outs, loss
        except FloatingPointError:
            # Divergence: roll back to the lowest-loss parameters logged so
            # far. Without a snapshot no parameter has moved yet.
            if best_state is not None:
                net.load_state(best_state)
            aborted = True
            break
        if schedule.snapshot_every > 0 and out_dir is not None and it % schedule.snapshot_every == 0:
            arrays = {name: p.data for name, p in params.items()}
            save_checkpoint(f"{out_dir}/snapshot_{it:06d}.m2f", cfg, arrays)
    return log, aborted


def pretrain_stage1(config: NetworkConfig, data, schedule: TrainSchedule):
    """Phase 1: train a single-stage network on the same data.

    Returns (the network's own parameter arrays, loss log, aborted). With
    zero iterations they are exactly the seeded initialization.
    """
    net = build_network(replace(config, stages=1), schedule.seed)
    log, aborted = _run_loop(net, data, schedule.phase1_iters, schedule.phase1_lr, schedule)
    return {name: p.data for name, p in net.parameters().items()}, log, aborted


def train(net: M2FCN, data, schedule: TrainSchedule, out_dir=None) -> TrainResult:
    """Phase 2 over a prepared network (stage 1 usually pretrained)."""
    if schedule.mode == "stepwise" and net.config.stages > 1:
        freeze_stage(net, 1)
    log, aborted = _run_loop(
        net, data, schedule.phase2_iters, schedule.phase2_lr, schedule, out_dir=out_dir
    )
    return TrainResult(net, log, aborted)


def train_pipeline(config: NetworkConfig, data, schedule: TrainSchedule, out_dir=None):
    """Pretrain stage 1, seed the full network with it, run phase 2.

    Returns (TrainResult, pretrain log).
    """
    state1, pre_log, pre_aborted = pretrain_stage1(config, data, schedule)
    net = M2FCN(config, {**initial_values(config, schedule.seed), **state1})
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
