"""Acceptance criteria for the whole system, one test per criterion.

Each test prints its own PASS line in the terminal summary (see conftest);
tolerances are pinned here and nowhere looser.
"""

import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

from m2fcn.autodiff import Tensor, grad_check
from m2fcn.config import load_run_config
from m2fcn.data import augment36, boundary_from_segments, synth_corpus
from m2fcn.evaluation import (
    LabelImage,
    best_fscore_sweep,
    contingency,
    rand_fscore,
    rand_scores,
    segment_from_boundary,
)
from m2fcn.loss import BoundaryLabels, class_balance_beta, total_loss
from m2fcn.network import M2FCN, build_network, initial_values
from m2fcn.ops import concat_channels, conv2d, maxpool2, relu, sigmoid, upsample
from m2fcn.subnet import receptive_field
from m2fcn.training import pretrain_stage1, train_pipeline
from oracles import (
    balanced_loss_scalar,
    labels_of_partition,
    rand_merge_split_pairs,
    set_partitions,
)

TOY = load_run_config()


# 1 ---------------------------------------------------------------------


def test_criterion_gradient_suite():
    """Every differentiable op and the full 2-stage toy network, 5 seeds,
    max relative error <= 1e-4, under 60 s."""
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-1.0, 1.0, (2, 6, 5)), requires_grad=True)
        y = Tensor(rng.uniform(-1.0, 1.0, (2, 6, 5)), requires_grad=True)
        w = Tensor(rng.normal(0.0, 0.4, (3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(0.0, 0.1, (3,)), requires_grad=True)
        cases = [
            (lambda: conv2d(x, w, b).sum(), [x, w, b]),
            (lambda: maxpool2(x).sum(), [x]),
            (lambda: upsample(x, 2).sum(), [x]),
            (lambda: relu(x).sum(), [x]),
            (lambda: sigmoid(x).sum(), [x]),
            (lambda: (x + y).sum(), [x, y]),
            (lambda: (x * y).sum(), [x, y]),
            (lambda: (x - y).sum(), [x, y]),
            (lambda: concat_channels([x, y]).sum(), [x, y]),
            (lambda: x.reshape((1, 2, 30)).sum(), [x]),
        ]
        for fn, params in cases:
            worst = max(worst, grad_check(fn, params, seed=seed))

        # the full 2-stage toy-profile network through the complete loss
        net = M2FCN(TOY.network, {k: v.astype(np.float64) for k, v in initial_values(TOY.network, seed).items()})
        for p in net.parameters().values():
            p.data += rng.normal(0.0, 0.05, p.data.shape)
        img = Tensor(rng.uniform(0.0, 1.0, (1, 12, 11)))
        labels = BoundaryLabels.from_mask(rng.random((12, 11)) < 0.3)

        def net_loss():
            return total_loss(net.forward_all(img), labels, TOY.network)

        worst = max(
            worst,
            grad_check(
                net_loss, net.parameters(),
                max_entries_per_param=2, seed=seed,
            ),
        )
    elapsed = time.monotonic() - t0
    assert worst <= 1e-4, f"max relative error {worst:.3e}"
    assert elapsed <= 60.0, f"gradient suite took {elapsed:.1f}s"


# 2 ---------------------------------------------------------------------


def test_criterion_architecture_table():
    """Published profile reports strides (1,2,4,8,16) and receptive fields
    (5,14,40,92,196), exactly."""
    cfg = load_run_config(profile="paper")
    fields = [
        receptive_field(cfg.network.subnet, l)
        for l in range(1, len(cfg.network.subnet.levels) + 1)
    ]
    assert [s for s, _ in fields] == [1, 2, 4, 8, 16]
    assert [rf for _, rf in fields] == [5, 14, 40, 92, 196]


# 3 ---------------------------------------------------------------------


def test_criterion_rand_arithmetic():
    """F-score from merge/split reproduces all six benchmark rows to 4
    decimals, and merge/split/F equal a brute-force ordered-pair oracle on
    every pair of partitions of up to 6 elements, tolerance 1e-12."""
    rows = [
        (0.9619, 0.9010, 0.9304),
        (0.9771, 0.9174, 0.9463),
        (0.9891, 0.9555, 0.9720),
        (0.9576, 0.9802, 0.9688),
        (0.9759, 0.9880, 0.9819),
        (0.9917, 0.9815, 0.9866),
    ]
    for merge, split, fs in rows:
        assert abs(rand_fscore(merge, split) - fs) <= 1e-4, (merge, split)

    for n in range(1, 7):
        parts = [labels_of_partition(p, n) for p in set_partitions(n)]
        for prop in parts:
            for gt in parts:
                table = contingency(
                    LabelImage(prop.reshape(1, -1)), LabelImage(gt.reshape(1, -1))
                )
                s = rand_scores(table)
                merge_o, split_o = rand_merge_split_pairs(prop, gt)
                assert abs(s.merge - merge_o) <= 1e-12
                assert abs(s.split - split_o) <= 1e-12
                assert abs(s.fscore - rand_fscore(merge_o, split_o)) <= 1e-12


# 4 ---------------------------------------------------------------------


def test_criterion_loss_oracle():
    """total_loss matches the scalar term-by-term oracle within 1e-10 on 50
    random toy cases; the 2x2 hand case gives 1.5*ln(2) +- 1e-12."""
    rng = np.random.default_rng(0)
    cfg = TOY.network
    n_levels = len(cfg.subnet.levels)
    for case in range(50):
        net = build_network(cfg, seed=int(rng.integers(1 << 30)))
        for p in net.parameters().values():
            p.data += rng.normal(0.0, 0.2, p.data.shape)
        h, w = int(rng.integers(4, 9)), int(rng.integers(4, 9))
        img = Tensor(rng.uniform(0.0, 1.0, (1, h, w)))
        mask = rng.random((h, w)) < rng.uniform(0.1, 0.9)
        labels = BoundaryLabels.from_mask(mask)
        outs = net.forward_all(img)
        got = total_loss(outs, labels, cfg).data.item()

        beta = class_balance_beta(labels)
        want = 0.0
        for (m, l), t in outs.side.items():
            want += balanced_loss_scalar(t.data, mask, beta)
        for m, t in outs.fused.items():
            want += balanced_loss_scalar(t.data, mask, beta)
        assert abs(got - want) <= 1e-10, f"case {case}: {got} vs {want}"

    # one boundary pixel in four, zero logits, beta fixed at 0.75
    mask = np.array([[True, False], [False, False]])
    labels = BoundaryLabels.from_mask(mask)
    from m2fcn.loss import side_loss

    value = side_loss(Tensor(np.zeros((1, 2, 2))), labels, 0.75).data.item()
    assert abs(value - 1.5 * np.log(2.0)) <= 1e-12


# 5 ---------------------------------------------------------------------


def test_criterion_augmentation():
    """augment36 emits exactly 36 samples including the identity, and four
    quarter turns compose back to the original."""
    rng = np.random.default_rng(1)
    seg = np.ones((20, 24), dtype=np.int32)
    seg[:, 11] = 0
    seg[:, 12:] = 2
    from m2fcn.data import Sample

    s = Sample(
        image=rng.random((1, 20, 24)),
        mask=boundary_from_segments(seg),
        segments=seg,
    )
    out = augment36(s)
    assert len(out) == 36

    identity = [
        a
        for a in out
        if a.image.shape == s.image.shape
        and np.array_equal(a.image, s.image)
        and np.array_equal(a.mask, s.mask)
        and np.array_equal(a.segments, s.segments)
    ]
    assert len(identity) == 1

    img, mask, segs = s.image, s.mask, s.segments
    for _ in range(4):
        img = np.rot90(img, 1, axes=(1, 2))
        mask = np.rot90(mask, 1)
        segs = np.rot90(segs, 1)
    assert np.array_equal(img, s.image)
    assert np.array_equal(mask, s.mask)
    assert np.array_equal(segs, s.segments)


# 6 ---------------------------------------------------------------------


def test_criterion_recursive_input_mechanism():
    """On a 20 train / 5 test 64x64 corpus with the toy profile, within 10
    minutes: (a) end-to-end training cuts the final-stage fused loss by at
    least 90% between the first and last pass over the training set; (b) one
    joint step leaves stage-1 parameters bitwise-unchanged in stepwise mode
    but changes them end-to-end; (c) feeding all side outputs forward beats
    or ties feeding only the top one on at least 4 of 5 seeds."""
    t0 = time.monotonic()
    cfg = TOY
    train, test = synth_corpus(
        seed=0, n_train=20, n_test=5, height=64, width=64,
        n_cells=cfg.data.n_cells, distractor_rate=cfg.data.distractor_rate,
    )
    gts = [LabelImage(s.segments) for s in test]
    thresholds = cfg.eval.thresholds()
    top = len(cfg.network.subnet.levels)
    single_cfg = replace(cfg.network, recursive_level=top)
    last_fused = f"fused{cfg.network.stages}"

    # (b) the one-step mechanism, cheap, run first
    sched_1 = replace(cfg.schedule, phase1_iters=3, phase2_iters=1, seed=1)
    state1, _, _ = pretrain_stage1(cfg.network, train[:2], sched_1)
    moved = {}
    for mode in ("stepwise", "end_to_end"):
        res, _ = train_pipeline(cfg.network, train[:2], replace(sched_1, mode=mode))
        stage1 = {
            k: v for k, v in res.network.state().items() if k.startswith("stage1/")
        }
        moved[mode] = not all(np.array_equal(stage1[k], state1[k]) for k in stage1)
    assert moved["stepwise"] is False, "stepwise touched frozen stage-1 parameters"
    assert moved["end_to_end"] is True, "joint step left stage 1 untouched"

    # (a) + (c): five seeded runs per variant; the seed-0 run with all side
    # outputs fed forward doubles as the loss-reduction evidence
    wins = 0
    report = []
    for seed in range(5):
        sched = replace(cfg.schedule, seed=seed)
        fscore = {}
        for name, ncfg in (("multi", cfg.network), ("single", single_cfg)):
            res, _ = train_pipeline(ncfg, train, sched)
            if seed == 0 and name == "multi":
                n = len(train)
                first = float(np.mean([r[last_fused] for r in res.log[:n]]))
                last = float(np.mean([r[last_fused] for r in res.log[-n:]]))
                assert last <= 0.10 * first, (
                    f"fused loss only fell {first:.2f} -> {last:.2f}"
                )
            probs = [res.network.predict(Tensor(s.image)) for s in test]
            scores, _, _ = best_fscore_sweep(probs, gts, thresholds)
            fscore[name] = scores.fscore
        wins += fscore["multi"] >= fscore["single"]
        report.append(f"seed {seed}: multi {fscore['multi']:.4f} "
                      f"single {fscore['single']:.4f}")
    assert wins >= 4, "feeding all side outputs lost too often:\n" + "\n".join(report)

    elapsed = time.monotonic() - t0
    assert elapsed <= 600.0, f"recursive-input criterion took {elapsed:.0f}s"


# 7 ---------------------------------------------------------------------


def test_criterion_pipeline_closure():
    """Segmenting the ideal boundary map recovers the ground truth with
    F-score 1.0 +- 1e-12, and a perfect proposal scores (1,1,1)."""
    sample = synth_corpus(seed=3, n_train=1, n_test=0, height=64, width=64,
                          n_cells=6)[0][0]
    ideal = (~sample.mask).astype(float)
    gt = LabelImage(sample.segments)
    scores, best_t, _ = best_fscore_sweep([ideal], [gt], TOY.eval.thresholds())
    assert abs(scores.fscore - 1.0) <= 1e-12

    seg = segment_from_boundary(ideal, 0.5)
    s = rand_scores(contingency(seg, gt))
    assert (s.merge, s.split, s.fscore) == (1.0, 1.0, 1.0)


# 8 ---------------------------------------------------------------------


def test_criterion_determinism(tmp_path):
    """Two identical seeded training runs, invoked through the command line
    like a user would, produce byte-identical checkpoints and loss CSVs."""
    cli = [sys.executable, "-m", "m2fcn.cli"]
    data = tmp_path / "data"
    r = subprocess.run(
        cli + ["synth", "--out", str(data), "--set", "data.n_train=3",
               "--set", "data.n_test=1"],
        capture_output=True, text=True, timeout=600,
    )
    assert r.returncode == 0, r.stderr
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        r = subprocess.run(
            cli + ["train", "--data", str(data), "--out", str(out),
                   "--seed", "9",
                   "--set", "train.phase1_iters=40",
                   "--set", "train.phase2_iters=60"],
            capture_output=True, text=True, timeout=600,
        )
        assert r.returncode == 0, r.stderr
        blobs.append(tuple(
            (out / name).read_bytes()
            for name in ("model.m2f", "loss_log.csv", "pretrain_log.csv")
        ))
    assert blobs[0][0] == blobs[1][0], "checkpoints differ between identical runs"
    assert blobs[0][1] == blobs[1][1], "loss CSVs differ between identical runs"
    assert blobs[0][2] == blobs[1][2], "warmup CSVs differ between identical runs"
