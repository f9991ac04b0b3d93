"""Optimizer math, two-phase schedules, regimes, rollback, determinism."""

import gc
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2fcn import training
from m2fcn.autodiff import Tensor
from m2fcn.data import Augmented, augment36, synth_corpus
from m2fcn.loss import total_loss
from m2fcn.network import NetworkConfig, build_network
from m2fcn.subnet import LevelSpec, SubNetConfig
from m2fcn.training import (
    SGD,
    TrainSchedule,
    freeze_stage,
    loss_log_csv,
    pretrain_stage1,
    train,
    train_pipeline,
)
from oracles import sgd_step

TOY = NetworkConfig(
    stages=2,
    subnet=SubNetConfig(levels=(LevelSpec(2, 8), LevelSpec(2, 16), LevelSpec(2, 16))),
)

_corpus_cache = {}


def corpus(n=5, seed=0):
    key = (n, seed)
    if key not in _corpus_cache:
        _corpus_cache[key] = synth_corpus(seed, n, 0, 48, 48, n_cells=5)[0]
    return _corpus_cache[key]


# ---- SGD ----


def step_once(p_val, g_val, **kw):
    p = Tensor(np.array([p_val]), requires_grad=True, name="p")
    opt = SGD({"p": p}, **kw)
    p.grad = np.array([g_val])
    opt.step()
    return p


def test_sgd_plain_step():
    p = step_once(1.0, 2.0, lr=0.1, momentum=0.0, weight_decay=0.0)
    assert np.allclose(p.data, [0.8])


def test_sgd_zero_gradient_fixed_point():
    p = step_once(1.0, 0.0, lr=0.1, momentum=0.0, weight_decay=0.0)
    assert np.array_equal(p.data, [1.0])


def test_sgd_two_momentum_steps_displacement():
    p = Tensor(np.array([0.0]), requires_grad=True, name="p")
    opt = SGD({"p": p}, lr=0.1, momentum=0.9, weight_decay=0.0)
    for _ in range(2):
        p.grad = np.array([2.0])
        opt.step()
    # v1 = -lr g, v2 = 0.9 v1 - lr g; total displacement (1 + 1.9) lr g
    assert np.allclose(p.data, [-(1.0 + 1.9) * 0.1 * 2.0])


def test_sgd_weight_decay_term():
    p = step_once(2.0, 0.0, lr=0.1, momentum=0.0, weight_decay=0.5)
    # v = -lr (g + wd p) = -0.1 * 1.0
    assert np.allclose(p.data, [1.9])


def test_sgd_none_gradient_means_zero():
    p = Tensor(np.array([1.0]), requires_grad=True, name="p")
    opt = SGD({"p": p}, lr=0.1, momentum=0.0, weight_decay=0.0)
    opt.step()
    assert np.array_equal(p.data, [1.0])


def test_sgd_skips_frozen_parameters():
    p = Tensor(np.array([1.0]), requires_grad=False, name="p")
    opt = SGD({"p": p}, lr=0.1)
    p.grad = np.array([5.0])
    opt.step()
    assert np.array_equal(p.data, [1.0])


def test_sgd_raises_on_nonfinite_gradient():
    p = Tensor(np.array([1.0]), requires_grad=True, name="p")
    opt = SGD({"p": p}, lr=0.1)
    p.grad = np.array([np.inf])
    with pytest.raises(FloatingPointError):
        opt.step()


CHUNK = training._STEP_CHUNK


def test_sgd_nonfinite_gradient_moves_no_parameter():
    # "big" spans several update slices, and its inf sits in the last one.
    for bad in ("b", "big"):
        params = {
            "a": Tensor(np.array([1.0]), requires_grad=True, name="a"),
            "big": Tensor(np.ones(3 * CHUNK + 5), requires_grad=True, name="big"),
            "b": Tensor(np.array([1.0]), requires_grad=True, name="b"),
        }
        opt = SGD(params, lr=0.1, momentum=0.9, weight_decay=0.0)
        for p in params.values():
            p.grad = np.ones_like(p.data)
        params[bad].grad[-1] = np.inf
        with pytest.raises(FloatingPointError, match=f"for {bad}"):
            opt.step()
        for name, p in params.items():
            assert (p.data == 1.0).all() and not opt.velocity[name].any(), (bad, name)


def test_sgd_steps_on_finite_gradients_whose_sum_overflows():
    # In both dtypes, two entries of ``big`` sum past the largest finite value.
    for dtype, big in ((np.float64, 1e308), (np.float32, 3e38)):
        p = Tensor(np.zeros(3, dtype=dtype), requires_grad=True, name="p")
        opt = SGD({"p": p}, lr=1e-3, momentum=0.9, weight_decay=0.0)
        p.grad = np.array([big, big, 0.0], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opt.step()
        assert p.data.dtype == dtype
        assert (p.data == -1e-3 * np.array([big, big, 0.0], dtype=dtype)).all()


def test_sgd_validates_hyperparameters():
    p = Tensor(np.array([1.0]), requires_grad=True, name="p")
    for kw in (
        {"lr": -1.0}, {"lr": 0.0}, {"lr": np.nan}, {"lr": np.inf},
        {"lr": 0.1, "momentum": 1.5}, {"lr": 0.1, "momentum": np.nan},
        {"lr": 0.1, "weight_decay": -1.0}, {"lr": 0.1, "weight_decay": np.inf},
        {"lr": 0.1, "weight_decay": np.nan},
    ):
        with pytest.raises(ValueError):
            SGD({"p": p}, **kw)


def signed_values(rng, n, zeros):
    """Normal values with a share of exact +0.0 and -0.0 entries."""
    x = rng.normal(size=n)
    x[rng.random(n) < zeros] = 0.0
    x[rng.random(n) < zeros] = -0.0
    return x


@given(
    seed=st.integers(0, 2**32 - 1),
    lr=st.floats(1e-6, 10.0),
    momentum=st.sampled_from([0.0, 0.5, 0.9]),
    weight_decay=st.sampled_from([0.0, 2e-4, 0.3]),
    zeros=st.sampled_from([0.0, 0.3]),
)
@settings(max_examples=15, deadline=None)
def test_sgd_step_bytes_equal_whole_tensor_expression(seed, lr, momentum, weight_decay, zeros):
    for dtype in (np.float64, np.float32):
        check_sgd_step_bytes(np.random.default_rng(seed), dtype, lr, momentum, weight_decay, zeros)


def check_sgd_step_bytes(rng, dtype, lr, momentum, weight_decay, zeros):
    shapes = {
        "one": (1,), "below": (CHUNK - 1,), "exact": (CHUNK,), "above": (CHUNK + 1,),
        "several": (3 * CHUNK + 5,), "conv": (CHUNK // 16 + 3, 4, 2, 2),
        "unreached": (2 * CHUNK + 7,), "small_unreached": (5, 3), "frozen": (CHUNK + 9,),
    }
    start = {name: signed_values(rng, int(np.prod(shape)), zeros).reshape(shape).astype(dtype)
             for name, shape in shapes.items()}

    def tensors():
        out = {name: Tensor(v.copy(), requires_grad=True, name=name) for name, v in start.items()}
        out["frozen"].requires_grad = False
        return out

    got, want = tensors(), tensors()
    opt = SGD(got, lr, momentum, weight_decay)
    velocity = {name: np.zeros_like(v) for name, v in start.items()}
    for _ in range(3):
        for name, shape in shapes.items():
            g = None if "unreached" in name else signed_values(rng, int(np.prod(shape)), zeros).reshape(shape).astype(dtype)
            got[name].grad = want[name].grad = g
        opt.step()
        sgd_step(want, velocity, lr, momentum, weight_decay)
        for name in shapes:
            assert got[name].data.dtype == dtype
            assert got[name].data.tobytes() == want[name].data.tobytes(), name
            if name != "frozen":
                assert opt.velocity[name].tobytes() == velocity[name].tobytes(), name
    assert "frozen" not in opt.velocity and got["frozen"].data.tobytes() == start["frozen"].tobytes()


# ---- schedules and loops ----


def test_schedule_validation():
    with pytest.raises(ValueError):
        TrainSchedule(phase1_iters=-1)
    with pytest.raises(ValueError):
        TrainSchedule(mode="sideways")


def test_zero_iterations_returns_init_unchanged():
    net = build_network(TOY, seed=3)
    before = net.state()
    sched = TrainSchedule(phase2_iters=0)
    result = train(net, corpus(2), sched)
    assert result.log == []
    after = result.network.state()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_stepwise_freezes_stage1_end_to_end_moves_it():
    data = corpus(2)
    sched = TrainSchedule(phase1_iters=3, phase2_iters=1, seed=1)
    state1, _, _ = pretrain_stage1(TOY, data, sched)

    for mode, expect_same in (("stepwise", True), ("end_to_end", False)):
        result, _ = train_pipeline(TOY, data, replace(sched, mode=mode))
        stage1 = {
            k: v for k, v in result.network.state().items() if k.startswith("stage1/")
        }
        same = all(np.array_equal(stage1[k], state1[k]) for k in stage1)
        assert same is expect_same, mode


def test_freeze_stage_marks_parameters():
    net = build_network(TOY, seed=0)
    freeze_stage(net, 1)
    for name, p in net.parameters().items():
        if name.startswith("stage1/"):
            assert not p.requires_grad
    assert net.parameters()["stage2/fuse/weight"].requires_grad


def test_training_is_deterministic():
    data = corpus(3)
    sched = TrainSchedule(phase1_iters=6, phase2_iters=6, seed=4)
    a, _ = train_pipeline(TOY, data, sched)
    b, _ = train_pipeline(TOY, data, sched)
    sa, sb = a.network.state(), b.network.state()
    assert set(sa) == set(sb)
    for k in sa:
        assert np.array_equal(sa[k], sb[k]), k
    assert a.log == b.log


def test_train_holds_one_graph_at_a_time():
    # Each iteration's graph is freed before the next forward builds one, so
    # a longer call peaks where a single iteration does.
    data = corpus(1)

    def peak(iters):
        net = build_network(TOY, seed=0)
        gc.collect()
        tracemalloc.start()
        try:
            train(net, data, TrainSchedule(phase1_iters=0, phase2_iters=iters, seed=0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(3) <= 1.05 * peak(1)


def test_train_over_augmented_view_matches_eager_members():
    sources = corpus(2)
    eager = [member for s in sources for member in augment36(s)]
    sched = TrainSchedule(phase1_iters=0, phase2_iters=8, seed=3)
    a = train(build_network(TOY, seed=0), eager, sched)
    b = train(build_network(TOY, seed=0), Augmented(sources), sched)
    assert loss_log_csv(a.log, TOY.stages) == loss_log_csv(b.log, TOY.stages)
    sa, sb = a.network.state(), b.network.state()
    for name, value in sa.items():
        assert value.tobytes() == sb[name].tobytes(), name


def test_train_peak_does_not_grow_with_the_augmented_set():
    # Members are built as they are drawn, so a view over six images peaks
    # where a view over one does. Each run draws 36 members, which covers
    # the largest (scale 1.2) member in both.
    source = corpus(1)[0]
    views = {n: Augmented([source] * n) for n in (1, 6)}

    def peak(n):
        net = build_network(TOY, seed=0)
        gc.collect()
        tracemalloc.start()
        try:
            train(net, views[n], TrainSchedule(phase1_iters=0, phase2_iters=36, seed=0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, six = peak(1), peak(6)
    assert abs(six - one) <= 0.05 * one, (one, six)


def test_train_rejects_an_empty_set():
    with pytest.raises(ValueError, match="at least one sample"):
        train(build_network(TOY, seed=0), Augmented([]), TrainSchedule(phase2_iters=1))


def diverged_run(data, lr=1e6):
    sched = TrainSchedule(phase1_iters=0, phase2_iters=40, phase2_lr=lr, seed=0)
    net = build_network(TOY, seed=0)
    rng = np.random.default_rng(0)
    for p in net.parameters().values():
        p.data += rng.normal(0.0, 0.05, p.data.shape)
    return train(net, data, sched)


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergent_run_rolls_back_and_flags():
    result = diverged_run(corpus(2))
    assert result.aborted
    for v in result.network.state().values():
        assert np.isfinite(v).all()


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergent_run_restores_lowest_logged_loss():
    # The restored parameters are the ones whose loss the log recorded, not
    # the state one SGD step after them.
    data = corpus(2)
    result = diverged_run(data)
    assert result.aborted
    restored = [
        total_loss(result.network.forward_all(Tensor(s.image)), s.labels(), TOY).item()
        for s in data
    ]
    assert min(r["total"] for r in result.log) in restored


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergent_run_restores_best_of_several_snapshots():
    # One image, so every logged loss scores the same sample. At this rate
    # the loss falls for a few iterations, each taking a new snapshot over
    # the last one's arrays, before the run diverges.
    data = corpus(1)
    result = diverged_run(data, lr=1e-3)
    totals = [r["total"] for r in result.log]
    improvements = sum(t < min(totals[:i], default=np.inf) for i, t in enumerate(totals))
    assert result.aborted and improvements >= 2
    image, labels = Tensor(data[0].image), data[0].labels()
    assert total_loss(result.network.forward_all(image), labels, TOY).item() == min(totals)


def test_loss_reduction_at_desk_scale():
    # 200 total iterations on a 5-image set should at least halve the
    # epoch-mean total loss.
    data = corpus(5)
    sched = TrainSchedule(phase1_iters=100, phase2_iters=100, seed=0)
    result, _ = train_pipeline(TOY, data, sched)
    k = len(data)
    first = float(np.mean([r["total"] for r in result.log[:k]]))
    last = float(np.mean([r["total"] for r in result.log[-k:]]))
    assert last <= 0.5 * first
    assert not result.aborted


def test_overfit_fused_loss_at_500_iterations():
    data = corpus(5)
    sched = TrainSchedule(phase1_iters=150, phase2_iters=350, seed=0)
    result, _ = train_pipeline(TOY, data, sched)
    k = len(data)
    first = float(np.mean([r["fused2"] for r in result.log[:k]]))
    last = float(np.mean([r["fused2"] for r in result.log[-k:]]))
    assert last <= 0.1 * first


def assert_mostly_falling(totals, epoch, window=100):
    """At most 5 % of the steps between window-iteration moving averages
    that start on epoch boundaries may fail to fall.

    Windows that start mid-epoch hold another mix of images than their
    neighbours, so near a plateau that mix, not progress, moves their mean.
    """
    ma = np.convolve(totals, np.ones(window) / window, mode="valid")[::epoch]
    unfallen = int(np.sum(np.diff(ma) >= 0))
    assert unfallen <= 0.05 * (len(ma) - 1), (
        f"{unfallen} of {len(ma) - 1} epoch-aligned moving-average steps did not fall"
    )


def test_falling_check_rejects_a_flat_log_and_passes_a_falling_one():
    with pytest.raises(AssertionError, match="60 of 60"):
        assert_mostly_falling(np.ones(400), 5)
    assert_mostly_falling(np.linspace(2.0, 1.0, 400), 5)


def test_overfit_loss_moving_average_mostly_decreasing():
    # the 100-iteration moving average of the total loss should fall almost
    # monotonically on an overfit run; a few plateau wobbles are tolerated
    data = corpus(5)
    result, _ = train_pipeline(TOY, data, TrainSchedule(seed=0))
    assert_mostly_falling(np.array([r["total"] for r in result.log]), len(data))


def test_snapshots_written_when_requested(tmp_path):
    data = corpus(2)
    sched = TrainSchedule(
        phase1_iters=0, phase2_iters=4, seed=0, snapshot_every=2
    )
    net = build_network(TOY, seed=1)
    train(net, data, sched, out_dir=tmp_path)
    snaps = sorted(p.name for p in tmp_path.glob("snapshot_*.m2f"))
    assert snaps == ["snapshot_000002.m2f", "snapshot_000004.m2f"]


def test_predict_between_train_calls_changes_nothing():
    data = corpus(2)
    sched = TrainSchedule(phase1_iters=0, phase2_iters=3, seed=1)

    def run(between):
        net = build_network(TOY, seed=0)
        first = train(net, data, sched)
        between(net)
        second = train(net, data, sched)
        return loss_log_csv(first.log + second.log, TOY.stages)

    plain = run(lambda net: None)
    with_predict = run(lambda net: net.predict(Tensor(data[0].image)))
    assert with_predict == plain
    assert len(plain.splitlines()) == 7


def test_loss_log_csv_layout():
    log = [
        {"iteration": 1, "fused1": 1.5, "fused2": 2.5, "total": 10.0},
        {"iteration": 2, "fused1": 1.0, "fused2": 2.0, "total": 8.0},
    ]
    text = loss_log_csv(log, stages=2)
    lines = text.strip().split("\n")
    assert lines[0] == "iteration,fused_loss_stage1,fused_loss_stage2,total_loss"
    assert lines[1] == "1,1.5,2.5,10.0"
    assert len(lines) == 3
