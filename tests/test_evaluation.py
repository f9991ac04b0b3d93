"""Segmentation from boundary maps and Rand-score arithmetic."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from m2fcn.config import EvalParams
from m2fcn.data import load_image, save_image, synth_corpus
from m2fcn.evaluation import (
    LabelImage,
    SweepPoint,
    _FloodTree,
    _label_components,
    best_fscore_sweep,
    contingency,
    pr_curve_csv,
    rand_fscore,
    rand_scores,
    segment_from_boundary,
)
from oracles import (
    bfs_components,
    flood_segment,
    labels_of_partition,
    rand_merge_split_pairs,
    set_partitions,
)

CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"

# The six published benchmark rows this evaluator's arithmetic must
# reproduce: (merge, split, fscore printed to four decimals). One row's
# harmonic mean lands at 0.93045, so agreement is absolute (<= 1e-4), not
# round-trip string equality.
BENCH_ROWS = [
    (0.9619, 0.9010, 0.9304),
    (0.9771, 0.9174, 0.9463),
    (0.9891, 0.9555, 0.9720),
    (0.9576, 0.9802, 0.9688),
    (0.9759, 0.9880, 0.9819),
    (0.9917, 0.9815, 0.9866),
]


# ---- LabelImage ----


def test_label_image_validation():
    with pytest.raises(ValueError):
        LabelImage(np.array([1, 2, 3]))
    with pytest.raises(ValueError):
        LabelImage(np.array([[-1, 0]]))
    with pytest.raises(ValueError):
        LabelImage(np.array([[0.5, 1.0]]))


# ---- connected components ----


def test_components_match_bfs_oracle_simple():
    mask = np.array(
        [
            [1, 1, 0, 1],
            [0, 1, 0, 1],
            [0, 0, 0, 1],
            [1, 0, 1, 1],
        ],
        dtype=bool,
    )
    got = _label_components(mask)
    want = bfs_components(mask)
    assert np.array_equal(got, want)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_components_match_bfs_oracle_random(seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((rng.integers(1, 9), rng.integers(1, 9))) < rng.random()
    got = _label_components(mask)
    want = bfs_components(mask)
    # both label in row-major discovery order, so equality is exact
    assert np.array_equal(got, want)


# ---- segmentation from a boundary map ----


def test_constant_high_map_single_segment():
    prob = np.ones((5, 7))
    seg = segment_from_boundary(prob, 0.5)
    assert np.all(seg.ids == 1)


def test_zero_ring_yields_two_segments_and_full_cover():
    prob = np.ones((7, 7))
    prob[2, 2:5] = 0.0
    prob[4, 2:5] = 0.0
    prob[3, 2] = 0.0
    prob[3, 4] = 0.0
    seg = segment_from_boundary(prob, 0.5).ids
    assert seg.min() >= 1  # every pixel assigned after flooding
    assert len(np.unique(seg)) == 2
    assert seg[3, 3] != seg[0, 0]


def test_flood_assigns_by_descending_probability():
    # two seeds at 1.0 with a valley between; the brighter valley pixel goes
    # to the region it touches first in probability order
    prob = np.array([[1.0, 0.3, 0.2, 0.4, 1.0]])
    seg = segment_from_boundary(prob, 0.5).ids[0]
    assert seg[0] != seg[4]
    assert seg[1] == seg[0]  # 0.3 and 0.2 flow left toward the 0.4-0.3 order
    assert seg[3] == seg[4]
    assert seg[2] == seg[3]  # 0.2 pops last; its highest-prob neighbor is 0.3 side


def test_segment_accepts_channel_first_maps():
    prob = np.ones((1, 4, 4))
    seg = segment_from_boundary(prob, 0.5)
    assert seg.ids.shape == (4, 4)


def test_all_boundary_map_gives_zero_segments():
    seg = segment_from_boundary(np.zeros((3, 3)), 0.5)
    assert np.all(seg.ids == 0)


def test_threshold_inclusive_at_boundary():
    prob = np.full((2, 2), 0.5)
    # foreground is prob >= threshold, so an exact hit stays foreground
    assert np.all(segment_from_boundary(prob, 0.5).ids == 1)
    assert np.all(segment_from_boundary(prob, 0.51).ids == 0)


def test_segmentation_matches_component_oracle_above_threshold():
    rng = np.random.default_rng(3)
    prob = rng.random((16, 16))
    seg = segment_from_boundary(prob, 0.5).ids
    comp = bfs_components(prob > 0.5)
    # flooding only adds below-threshold pixels; above-threshold structure
    # must match the component oracle exactly (same first-seen ordering)
    fg = prob > 0.5
    assert np.array_equal(seg[fg], comp[fg])
    assert seg.min() >= (1 if fg.any() else 0)


@st.composite
def prob_maps(draw):
    """Float maps, or maps quantised to 2-5 levels so that ties are exact."""
    h = draw(st.integers(1, 9))
    w = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.random((h, w))
    levels = draw(st.sampled_from([0, 2, 3, 4, 5]))
    if levels:
        p = np.round(p * (levels - 1)) / (levels - 1)
    return p


@st.composite
def maps_and_thresholds(draw):
    """A map and 1-5 thresholds: 0, 1, pixel values or anything in between."""
    p = draw(prob_maps())
    threshold = st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.sampled_from(sorted(set(p.ravel().tolist()))),
        st.floats(0.0, 1.0),
    )
    return p, draw(st.lists(threshold, min_size=1, max_size=5))


def assert_same_raster(got, want):
    assert got.dtype == want.dtype == np.int32
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(maps_and_thresholds())
@example((np.array([[0.5]]), [0.5, 0.0, 1.0]))
@example((np.zeros((3, 4)), [0.5]))  # every pixel below the threshold
@example((np.ones((2, 3)), [0.5]))  # every pixel above it
@example((np.array([[0.2, 0.9, 0.2, 0.9, 0.5]]), [0.9, 0.5]))  # 1 x n
@example((np.array([[0.9], [0.1], [0.9], [0.1]]), [0.9, 0.1]))  # n x 1
@settings(max_examples=300, deadline=None)
def test_flood_matches_oracle(case):
    # Each threshold alone, and all of them from one merge tree.
    p, thresholds = case
    tree = _FloodTree(p, max(thresholds))
    for t in thresholds:
        want = flood_segment(p, t)
        assert_same_raster(segment_from_boundary(p, t).ids, want)
        assert_same_raster(tree.labels(t), want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_maps_rejected(bad):
    prob = np.full((3, 3), 0.5)
    prob[1, 2] = bad
    gt = LabelImage(np.ones((3, 3), dtype=int))
    with pytest.raises(ValueError):
        segment_from_boundary(prob, 0.5)
    with pytest.raises(ValueError):
        best_fscore_sweep([prob], [gt], [0.5])


# ---- contingency ----


def test_contingency_diagonal_for_identical():
    ids = np.array([[1, 1, 2], [3, 2, 2]])
    table = contingency(LabelImage(ids), LabelImage(ids))
    assert np.array_equal(table, np.diag([2, 3, 1]))


def test_contingency_hand_case():
    # proposal {a,b}{c} vs gt {a}{b,c} over three pixels
    prop = LabelImage(np.array([[1, 1, 2]]))
    gt = LabelImage(np.array([[1, 2, 2]]))
    table = contingency(prop, gt)
    assert np.array_equal(table, [[1, 1], [0, 1]])


def test_contingency_single_proposal_row_of_gt_sizes():
    prop = LabelImage(np.ones((2, 3), dtype=int))
    gt = LabelImage(np.array([[1, 1, 2], [2, 3, 3]]))
    table = contingency(prop, gt)
    assert np.array_equal(table, [[2, 2, 2]])


def test_contingency_excludes_zero_labels_both_sides():
    prop = LabelImage(np.array([[0, 1, 1, 2]]))
    gt = LabelImage(np.array([[1, 1, 0, 2]]))
    table = contingency(prop, gt)
    # only pixels 1 and 3 count (both labels positive)
    assert table.sum() == 2


def test_contingency_raises_when_nothing_countable():
    with pytest.raises(ValueError):
        contingency(LabelImage(np.zeros((2, 2), dtype=int)), LabelImage(np.ones((2, 2), dtype=int) * 0))


def test_contingency_shape_mismatch():
    with pytest.raises(ValueError):
        contingency(LabelImage(np.ones((2, 2), dtype=int)), LabelImage(np.ones((3, 2), dtype=int)))


# ---- Rand scores ----


def test_identical_segmentations_score_perfect():
    ids = np.array([[1, 2], [3, 3]])
    table = contingency(LabelImage(ids), LabelImage(ids))
    s = rand_scores(table)
    assert (s.merge, s.split, s.fscore) == (1.0, 1.0, 1.0)


def test_single_proposal_vs_four_equal_gt_segments():
    prop = LabelImage(np.ones((2, 4), dtype=int))
    gt = LabelImage(np.array([[1, 2, 3, 4], [1, 2, 3, 4]]))
    s = rand_scores(contingency(prop, gt))
    assert s.merge == 0.25
    assert s.split == 1.0
    assert abs(s.fscore - 0.4) <= 1e-15


def test_benchmark_fscore_arithmetic():
    for merge, split, fs in BENCH_ROWS:
        assert abs(rand_fscore(merge, split) - fs) <= 1e-4


def test_hand_case_three_pixels():
    prop = LabelImage(np.array([[1, 1, 2]]))
    gt = LabelImage(np.array([[1, 2, 2]]))
    s = rand_scores(contingency(prop, gt))
    assert abs(s.merge - 0.6) <= 1e-15
    assert abs(s.split - 0.6) <= 1e-15
    assert abs(s.fscore - 0.6) <= 1e-15


def test_rand_scores_match_pair_oracle_samples():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        prop = rng.integers(1, 4, size=n)
        gt = rng.integers(1, 4, size=n)
        table = contingency(
            LabelImage(prop.reshape(1, -1)), LabelImage(gt.reshape(1, -1))
        )
        s = rand_scores(table)
        merge_o, split_o = rand_merge_split_pairs(prop, gt)
        assert abs(s.merge - merge_o) <= 1e-12
        assert abs(s.split - split_o) <= 1e-12


def test_merge_denominator_monotone_under_merging():
    # Merging two proposal segments can only grow the merge denominator
    # (sum of squared row sums), never shrink it.
    rng = np.random.default_rng(5)
    for _ in range(50):
        rows = int(rng.integers(2, 5))
        cols = int(rng.integers(1, 5))
        table = rng.integers(0, 4, size=(rows, cols))
        if table.sum() == 0:
            continue
        denom = (table.sum(axis=1) ** 2).sum()
        merged = np.vstack([table[0] + table[1], table[2:]])
        denom_merged = (merged.sum(axis=1) ** 2).sum()
        assert denom_merged >= denom


def test_rand_scores_validation():
    with pytest.raises(ValueError):
        rand_scores(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        rand_scores(np.array([[1, -1], [0, 2]]))


# ---- sweeping ----


def test_perfect_proposal_scores_one_at_first_threshold():
    gt = np.array([[1, 1, 0, 2, 2]] * 3)
    prob = (gt > 0).astype(float)
    scores, best_t, points = best_fscore_sweep(
        [prob], [LabelImage(gt)], [0.1, 0.5, 0.9]
    )
    assert scores.fscore == 1.0
    assert best_t == 0.1  # ties keep the first threshold
    assert len(points) == 3


def test_singleton_threshold_matches_composition():
    rng = np.random.default_rng(6)
    prob = rng.random((12, 12))
    gt = LabelImage(1 + bfs_components(np.ones((12, 12), dtype=bool)))
    seg = segment_from_boundary(prob, 0.4)
    want = rand_scores(contingency(seg, gt))
    scores, best_t, points = best_fscore_sweep([prob], [gt], [0.4])
    assert best_t == 0.4
    assert abs(scores.fscore - want.fscore) <= 1e-15


def oracle_sweep(probs, gts, thresholds):
    """The curve recomputed per threshold from the oracle flood and contingency."""
    points = []
    for t in thresholds:
        sq = md = sd = 0.0
        for prob, gt in zip(probs, gts):
            seg = flood_segment(prob, t)
            if seg.max() == 0 or not (gt.ids > 0).any():
                continue
            table = contingency(LabelImage(seg), gt).astype(float)
            sq += float((table**2).sum())
            md += float((table.sum(axis=1) ** 2).sum())
            sd += float((table.sum(axis=0) ** 2).sum())
        if sq:
            merge, split = sq / md, sq / sd
            points.append(SweepPoint(t, split, merge, rand_fscore(merge, split)))
    return points


def test_sweep_matches_exhaustive_oracle_multi_image():
    rng = np.random.default_rng(7)
    probs, gts = [], []
    for _ in range(5):
        gt = np.zeros((10, 10), dtype=int)
        gt[:, :5] = 1
        gt[:, 6:] = 2
        noise = rng.normal(0, 0.25, (10, 10))
        prob = np.clip((gt > 0) + noise, 0.0, 0.9)
        probs.append(prob)
        gts.append(LabelImage(gt))
    probs.append(np.floor(probs[0] * 4) / 4)  # exact ties
    gts.append(gts[0])
    probs.append(probs[1])  # a map whose ground truth counts no pixel
    gts.append(LabelImage(np.zeros((10, 10), dtype=int)))
    # Unsorted, with duplicates; no pixel exceeds 0.9, so the thresholds
    # above it score nothing and leave the curve.
    thresholds = list(rng.permutation(np.linspace(0.05, 0.95, 20))) + [0.5, 1.0, 0.05, 0.5]
    scores, best_t, points = best_fscore_sweep(probs, gts, thresholds)
    want = oracle_sweep(probs, gts, [float(t) for t in thresholds])
    assert pr_curve_csv(points) == pr_curve_csv(want)
    assert [pt.threshold for pt in points] == [t for t in thresholds if t <= 0.9]
    best = max(pt.fscore for pt in want)
    assert scores.fscore == best
    assert best_t == next(pt.threshold for pt in want if pt.fscore == best)


def test_sweep_passes_benchmark_check(tmp_path):
    # perfbench/checks.py recounts every curve point from segment_from_boundary
    # with its own 4-connected labelling and np.unique pair counts.
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    sample = synth_corpus(5, 0, 1, 48, 48, 6)[1][0]
    prob = sample.image[0]
    save_image(tmp_path / "map.pgm", prob)
    gt = LabelImage(sample.segments)
    thresholds = EvalParams().thresholds()
    for p in (prob, load_image(tmp_path / "map.pgm")):
        scores, best_t, curve = best_fscore_sweep([p], [gt], thresholds)
        checks.check_sweep(curve, (scores, best_t), lambda q, t: segment_from_boundary(q, t).ids,
                           [p], [gt.ids], thresholds, 0.999)


def test_sweep_validation():
    with pytest.raises(ValueError):
        best_fscore_sweep([], [], [0.5])
    with pytest.raises(ValueError):
        best_fscore_sweep([np.ones((2, 2))], [], [0.5])
    with pytest.raises(ValueError):
        best_fscore_sweep([np.ones((2, 2))], [LabelImage(np.ones((2, 2), dtype=int))], [])
    with pytest.raises(ValueError):
        best_fscore_sweep([np.ones((2, 2))], [LabelImage(np.ones((2, 2), dtype=int))], [0.5, 1.5])
    with pytest.raises(ValueError):
        best_fscore_sweep([np.ones((2, 2))], [LabelImage(np.ones((2, 3), dtype=int))], [0.5])


def test_pr_curve_csv_format():
    _, _, points = best_fscore_sweep(
        [np.ones((3, 3))], [LabelImage(np.ones((3, 3), dtype=int))], [0.25, 0.75]
    )
    text = pr_curve_csv(points)
    lines = text.strip().split("\n")
    assert lines[0] == "threshold,rand_split,rand_merge,fscore"
    assert len(lines) == 3
    assert lines[1].startswith("0.25,")


# ---- exhaustive oracle equality on small partitions ----


def test_rand_scores_equal_pair_oracle_exhaustive_small():
    # every ordered pair of partitions of sets of size up to 4 (size 5 and 6
    # are covered in the acceptance suite)
    for n in (1, 2, 3, 4):
        parts = [labels_of_partition(p, n) for p in set_partitions(n)]
        for prop in parts:
            for gt in parts:
                table = contingency(
                    LabelImage(prop.reshape(1, -1) + 0),
                    LabelImage(gt.reshape(1, -1) + 0),
                )
                s = rand_scores(table)
                merge_o, split_o = rand_merge_split_pairs(prop, gt)
                assert abs(s.merge - merge_o) <= 1e-12
                assert abs(s.split - split_o) <= 1e-12
                assert abs(s.fscore - rand_fscore(merge_o, split_o)) <= 1e-12
