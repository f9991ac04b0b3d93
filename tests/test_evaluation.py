"""Segmentation from boundary maps and Rand-score arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2fcn.evaluation import (
    LabelImage,
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
    labels_of_partition,
    rand_merge_split_pairs,
    set_partitions,
)

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


def test_sweep_matches_exhaustive_oracle_multi_image():
    rng = np.random.default_rng(7)
    probs, gts = [], []
    for _ in range(5):
        gt = np.zeros((10, 10), dtype=int)
        gt[:, :5] = 1
        gt[:, 6:] = 2
        noise = rng.normal(0, 0.25, (10, 10))
        prob = np.clip((gt > 0) + noise, 0.0, 1.0)
        probs.append(prob)
        gts.append(LabelImage(gt))
    thresholds = np.linspace(0.05, 0.95, 20)
    scores, best_t, points = best_fscore_sweep(probs, gts, thresholds)
    # brute force: pool contingency counts per threshold by block sums
    best = None
    for t in thresholds:
        sq = md = sd = 0.0
        for prob, gt in zip(probs, gts):
            seg = segment_from_boundary(prob, float(t))
            if seg.ids.max() == 0:
                continue
            try:
                table = contingency(seg, gt).astype(float)
            except ValueError:
                continue
            sq += (table**2).sum()
            md += (table.sum(axis=1) ** 2).sum()
            sd += (table.sum(axis=0) ** 2).sum()
        if sq == 0.0:
            continue
        f = rand_fscore(sq / md, sq / sd)
        if best is None or f > best[0]:
            best = (f, float(t))
    assert abs(scores.fscore - best[0]) <= 1e-12
    assert best_t == best[1]


def test_sweep_validation():
    with pytest.raises(ValueError):
        best_fscore_sweep([], [], [0.5])
    with pytest.raises(ValueError):
        best_fscore_sweep([np.ones((2, 2))], [], [0.5])
    with pytest.raises(ValueError):
        best_fscore_sweep([np.ones((2, 2))], [LabelImage(np.ones((2, 2), dtype=int))], [])


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
