"""The three workloads and the pipeline they share.

Every workload runs the same phases through the package's public entry
points, sized so that a different layer dominates each one:

    setup       synth_corpus, augment36, save_image/load_image, build_network
                (SETUPS times; the median is setup_s)
    checks      fresh-network prediction, one traced-allocation iteration
                (train_peak_mb), a short warm-up train(), save_checkpoint,
                a first load, one traced-allocation predict (predict_peak_mb)
    cycles      whole cycles, each a fixed sequence of timed rounds:
      train       train() calls of 12 iterations, an epoch over one block
                  of the 36 augmented samples
      predict     M2FCN.predict over every held-out image
      sweep       best_fscore_sweep over one float64 map and its 8-bit copy
      model_load  network_from_checkpoint

Each timed metric is the fastest of its rounds, in CPU time (see
Stopwatch). Train, predict and sweep rounds are long enough to carry their
own garbage-collector pauses. Other tenants of the host only ever make a
round slower, in bursts, so the fastest round tracks the program's own cost
where a median would track how much of the run fell into bursts.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import shutil
import statistics
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

import m2fcn
import numpy as np
from m2fcn.data import load_image, save_image

from . import checks

SETUPS = 5
# Iterations per timed train() call. augment36 varies the scale fastest, so
# each block of 12 consecutive members holds four of each of the 3 scales
# and every block costs the same.
TRAIN_BLOCK = 12
# Sweep rounds cycle through the first SWEEP_MAPS maps. Every run covers
# each of them, however many rounds fit, so the fastest round is taken over
# the same maps whether the host is quick or slow.
SWEEP_MAPS = 4
MIN_FSCORE = 0.999

END_TO_END = {
    "setup_s": "s",
    "train_ms_per_iter": "ms",
    "train_peak_mb": "MB",
    "predict_ms_per_image": "ms",
    "predict_peak_mb": "MB",
    "model_load_s": "s",
    "sweep_ms_per_image": "ms",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    raster: int  # source training image and held-out images, square
    cells: int
    n_test: int = 16
    # Maps for the sweep phase; None sweeps the held-out images themselves.
    sweep_raster: int | None = None
    sweep_cells: int = 0
    sweep_images: int = 0
    # One cycle of timed rounds: (phase, rounds) in the order they run.
    cycle: tuple[tuple[str, int], ...] = ()
    overrides: tuple[str, ...] = ()
    warmup_iters: int = 4


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "toy_train", profile="toy", raster=128, cells=8,
            cycle=(("train", 2), ("predict", 2), ("sweep", 1), ("model_load", 20)),
        ),
        Workload(
            "paper_train", profile="paper", raster=32, cells=4, n_test=8,
            cycle=(("train", 1), ("predict", 2), ("sweep", 4), ("model_load", 1)),
        ),
        Workload(
            "sweep", profile="toy", raster=48, cells=6, n_test=2,
            sweep_raster=192, sweep_cells=8, sweep_images=SWEEP_MAPS,
            cycle=(("train", 1), ("predict", 20), ("sweep", 1), ("model_load", 20)),
        ),
    )
}

# Reduced sizes for the self-test: same phases and checks, seconds per run.
TINY = {
    "toy_train": {"raster": 32, "cells": 4, "n_test": 2},
    "paper_train": {"n_test": 2, "overrides": ("network.widths=2,2,4,4,4",)},
    "sweep": {"sweep_raster": 48, "sweep_cells": 6, "sweep_images": 2},
}


def tiny(w: Workload) -> Workload:
    return replace(w, warmup_iters=1, **TINY[w.name])


@dataclass
class Inputs:
    train: list  # 36 augmented samples of the source image
    test: list  # held-out samples
    maps: list  # float64 interior-probability maps to sweep
    maps8: list  # the same maps after an 8-bit PGM round trip
    gts: list  # LabelImage per map
    network: m2fcn.M2FCN


class Run:
    """One workload run: timings, counts and the digest of its outputs."""

    def __init__(self, workload: Workload, seed: int, seconds: float, tracer, workdir: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.workdir = workdir
        self.cfg = m2fcn.load_run_config(profile=workload.profile, overrides=list(workload.overrides))
        self.thresholds = self.cfg.eval.thresholds()
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}  # per-round CPU times behind each metric
        self.wall_samples: dict[str, list[float]] = {}  # the same rounds' wall times
        self.peak_rss_after: dict[str, float] = {}  # ru_maxrss at the end of each stage
        self.stage_s: dict[str, float] = {}  # wall time of each stage
        self.cycles = 0  # timed cycles
        self.train_rounds = 0
        self.iterations = 0  # timed training iterations
        self.maps_swept = 0  # timed sweep maps
        self.loads = 0
        self.saves = 0

    def run(self) -> None:
        inputs = self.stage("setup", self.setup_phase)
        self.stage("checks", lambda: self.check_phase(inputs))
        self.stage("cycles", lambda: self.timed_phases(inputs))
        self.stage("sweep_check", self.sweep_check)
        for name, values in self.samples.items():
            self.metrics[name] = statistics.median(values) if name == "setup_s" else min(values)
        self.metrics["peak_rss_mb"] = maxrss_mb()

    def stage(self, name: str, fn):
        """Run one stage, noting its wall time and the peak RSS after it."""
        start = time.perf_counter()
        out = fn()
        self.stage_s[name] = time.perf_counter() - start
        self.peak_rss_after[name] = maxrss_mb()
        return out

    def sweep_check(self) -> None:
        gts, results = self.first_sweep
        for probs, scores, best_t, curve in results:
            checks.check_sweep(curve, (scores, best_t), segment_ids, probs, [g.ids for g in gts],
                               self.thresholds, MIN_FSCORE)
            for pt in curve:
                self.digest.update(repr(pt).encode())

    # ---- untimed stages ----

    def setup(self, seed: int, out: Path) -> Inputs:
        w, span = self.w, self.tracer.span
        with span("synth_corpus"):
            train, test = m2fcn.synth_corpus(seed, 1, w.n_test, w.raster, w.raster, w.cells)
            if w.sweep_raster is not None:
                _, swept = m2fcn.synth_corpus(seed, 0, w.sweep_images, w.sweep_raster,
                                              w.sweep_raster, w.sweep_cells)
            else:
                swept = test
        with span("augment36"):
            augmented = m2fcn.augment36(train[0])
        with span("pgm_roundtrip"):
            maps = [s.image[0] for s in swept]
            maps8 = []
            for i, prob in enumerate(maps):
                path = out / f"map{i}.pgm"
                save_image(path, prob)
                maps8.append(load_image(path))
        with span("build_network"):
            net = m2fcn.build_network(self.cfg.network, seed)
        gts = [m2fcn.LabelImage(s.segments) for s in swept]
        return Inputs(augmented, test, maps, maps8, gts, net)

    def setup_phase(self) -> Inputs:
        """SETUPS set-ups; the last uses --seed and its inputs are kept.

        The generator's retries make one set-up's cost depend on its seed by
        about 30 % (see FOUND in CHANGES.md), so the earlier set-ups draw
        from seeds derived from --seed and setup_s is the median over them
        all: the typical set-up cost, not one seed's luck.
        """
        seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(self.seed).spawn(SETUPS - 1)]
        inputs = None
        for k, seed in enumerate(seeds + [self.seed]):
            inputs = None
            gc.collect()
            watch = Stopwatch()
            # A fresh directory each time: renaming over the previous set-up's
            # files made the third round trip 0.8 s instead of 2 ms on ext4
            # mounted with discard.
            with self.tracer.phase("setup"):
                inputs = self.setup(seed, self.workdir / f"setup{k}")
            self.record("setup_s", watch, 1.0)
            self.attempted += 1
        return inputs

    def check_phase(self, inputs: Inputs) -> None:
        cfg, net = self.cfg, inputs.network
        self.images = [m2fcn.Tensor(s.image) for s in inputs.test]
        sched = cfg.schedule
        # The shuffle seed is the profile's, not --seed: every run trains on
        # the same sequence of augmentation members, so the one-iteration
        # allocation peak below always measures the same sample size.
        self.schedule = m2fcn.TrainSchedule(
            phase2_iters=TRAIN_BLOCK, phase2_lr=sched.phase2_lr,
            momentum=sched.momentum, weight_decay=sched.weight_decay, seed=sched.seed,
        )

        # Fresh network: all side heads are zero, so every output is exactly 0.5.
        fresh = net.predict(self.images[0])
        self.attempted += 1
        checks.require(bool((fresh == 0.5).all()), "fresh network does not predict 0.5 everywhere")

        gc.collect()
        tracemalloc.start()
        first = self.train_call(net, inputs.train, replace(self.schedule, phase2_iters=1), record=True)
        self.metrics["train_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        checks.check_fresh_loss(first.log[0]["total"], cfg.network.stages,
                                len(cfg.network.subnet.levels), inputs.train)
        self.train_call(net, inputs.train, replace(self.schedule, phase2_iters=self.w.warmup_iters),
                        record=True)

        self.checkpoint = self.workdir / "model.m2f"
        with self.tracer.phase("checkpoint"):
            with self.tracer.span("save_checkpoint"):
                m2fcn.save_checkpoint(self.checkpoint, cfg.network, net.state())
            self.saves += 1
        self.preds = [net.predict(x) for x in self.images]
        again = [net.predict(x) for x in self.images]
        self.attempted += 2 * len(self.images)
        shape = inputs.test[0].image.shape[1:]
        for p in self.preds:
            checks.check_prediction(p, shape)
            self.digest.update(p.tobytes())
        checks.same_bytes(self.preds, again, "predictions of two identical calls")

    # ---- timed rounds ----

    def timed_phases(self, inputs: Inputs) -> None:
        """Whole cycles of the workload's rounds until --seconds is spent.

        A cycle runs each phase's rounds in a fixed order, so every metric
        samples the whole run rather than one stretch of it, and the
        sequence of allocations, and with it the peak RSS, repeats from
        cycle to cycle. A further cycle starts only if one more as long as
        the last still fits.
        """
        self.first_sweep = None
        self.load_check()
        rounds = {
            "train": lambda: self.train_round(inputs),
            "predict": self.predict_round,
            "sweep": lambda: self.sweep_round(inputs),
            "model_load": self.load_round,
        }
        start = time.perf_counter()
        last = 0.0
        while self.cycles == 0 or time.perf_counter() - start + last <= self.seconds:
            began = time.perf_counter()
            for phase, count in self.w.cycle:
                gc.collect()
                with self.tracer.phase(phase):
                    for _ in range(count):
                        rounds[phase]()
            self.cycles += 1
            last = time.perf_counter() - began

    def load_check(self) -> None:
        """Load the checkpoint for the predict rounds; it must predict as saved."""
        gc.collect()
        self.loaded = m2fcn.network_from_checkpoint(self.checkpoint)
        self.attempted += 1
        checks.same_bytes(self.preds, [self.loaded.predict(x) for x in self.images],
                          "predictions before the checkpoint save and after the load")
        gc.collect()
        tracemalloc.start()
        self.loaded.predict(self.images[0])
        self.metrics["predict_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()

    def train_round(self, inputs: Inputs) -> None:
        """One train() call: an epoch over the next block of the augmented set."""
        k = self.train_rounds % (len(inputs.train) // TRAIN_BLOCK)
        block = inputs.train[k * TRAIN_BLOCK:(k + 1) * TRAIN_BLOCK]
        self.train_rounds += 1
        watch = Stopwatch()
        with self.tracer.span("train"):
            result = self.train_call(inputs.network, block, self.schedule)
        self.record("train_ms_per_iter", watch, 1e3 / len(result.log))
        self.iterations += len(result.log)

    def load_round(self) -> None:
        watch = Stopwatch()
        with self.tracer.span("network_from_checkpoint"):
            net = m2fcn.network_from_checkpoint(self.checkpoint)
        self.record("model_load_s", watch, 1.0)
        self.attempted += 1
        self.loads += 1

    def predict_round(self) -> None:
        watch = Stopwatch()
        out = [self.loaded.predict(x) for x in self.images]
        self.record("predict_ms_per_image", watch, 1e3 / len(out))
        self.attempted += len(out)
        checks.same_bytes(self.preds, out, "predictions of repeated calls")

    def sweep_round(self, inputs: Inputs) -> None:
        i = self.maps_swept // 2 % min(SWEEP_MAPS, len(inputs.maps))
        gts = [inputs.gts[i]]
        results = []
        watch = Stopwatch()
        for maps in (inputs.maps, inputs.maps8):
            with self.tracer.span("sweep"):
                scores, best_t, curve = m2fcn.best_fscore_sweep([maps[i]], gts, self.thresholds)
            results.append(([maps[i]], scores, best_t, curve))
        self.record("sweep_ms_per_image", watch, 1e3 / 2)
        self.attempted += 2
        self.maps_swept += 2
        self.first_sweep = self.first_sweep or (gts, results)

    # ---- helpers ----

    def record(self, metric: str, watch: Stopwatch, scale: float) -> None:
        """Add one round's CPU time, times ``scale``, to the metric's samples."""
        cpu, wall = watch.elapsed()
        self.samples.setdefault(metric, []).append(scale * cpu)
        self.wall_samples.setdefault(metric, []).append(scale * wall)

    def train_call(self, net, samples, schedule, record=False):
        """One train() call; ``record`` adds its loss log to the output digest."""
        result = m2fcn.train(net, samples, schedule)
        self.attempted += 1
        if result.aborted:
            self.failed += 1
        checks.check_log(result.log)
        if record:
            for rec in result.log:
                self.digest.update(repr(sorted(rec.items())).encode())
        return result


class Stopwatch:
    """CPU and wall clocks started together.

    The timed metrics are CPU time of this single-threaded process (BLAS is
    pinned to one thread), which is what the wall clock reads on an idle
    host. On a shared host the wall clock also counts the time other
    tenants hold the core: beside two busy-looping processes a toy training
    iteration took 57 ms of wall time and 39 ms of CPU time, against 36 ms
    of both on a quiet host. The wall times go to the result file.
    """

    def __init__(self) -> None:
        self.cpu = time.process_time()
        self.wall = time.perf_counter()

    def elapsed(self) -> tuple[float, float]:
        return time.process_time() - self.cpu, time.perf_counter() - self.wall


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def segment_ids(prob, t):
    return m2fcn.segment_from_boundary(prob, t).ids


def run_workload(workload: Workload, seed: int, seconds: float, tracer, root: Path) -> Run:
    root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=root))
    try:
        run = Run(workload, seed, seconds, tracer, workdir)
        tracer.install()
        try:
            run.run()
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, value in run.metrics.items():
        if not (math.isfinite(value) and value > 0):
            raise checks.CheckFailed(f"metric {name} = {value}")
    return run
