"""Segmentation from boundary maps and Rand-score evaluation.

A probability map (1 = interior, 0 = boundary) is thresholded, foreground
components are labeled, and the remaining pixels are absorbed by flooding in
decreasing-probability order. Proposals are scored against ground truth with
the squared-counts Rand statistics

    merge = sum n_ij^2 / sum_i (sum_j n_ij)^2
    split = sum n_ij^2 / sum_j (sum_i n_ij)^2

and their harmonic mean. Pixels with id 0 on either side are excluded from
the counts, which is how boundary bands in the ground truth stay out of the
score.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LabelImage",
    "RandScores",
    "segment_from_boundary",
    "contingency",
    "rand_scores",
    "rand_fscore",
    "best_fscore_sweep",
    "SweepPoint",
]

# Fixed neighbor scan order: up, left, right, down.
_NEIGHBORS = ((-1, 0), (0, -1), (0, 1), (1, 0))


@dataclass(frozen=True)
class LabelImage:
    """Integer segment raster; id 0 is reserved for boundary/ignore pixels."""

    ids: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids)
        if ids.ndim != 2 or ids.size == 0:
            raise ValueError(f"label image must be a nonempty HxW raster, got {ids.shape}")
        if not np.issubdtype(ids.dtype, np.integer):
            raise ValueError("label ids must be integers")
        if ids.min() < 0:
            raise ValueError("label ids must be nonnegative")
        object.__setattr__(self, "ids", ids.astype(np.int32, copy=False))


def _label_components(mask: np.ndarray) -> np.ndarray:
    """4-connected components of a boolean mask via union-find over row runs.

    Returns int32 labels, 0 on background, positive ids numbered in
    row-major first-appearance order.
    """
    h, w = mask.shape
    parent: list[int] = []

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    all_runs: list[tuple[int, int, int, int]] = []  # (row, start, end, run id)
    prev_runs: list[tuple[int, int, int]] = []
    for r in range(h):
        row = mask[r]
        cur_runs: list[tuple[int, int, int]] = []
        c = 0
        while c < w:
            if row[c]:
                c2 = c
                while c2 < w and row[c2]:
                    c2 += 1
                rid = len(parent)
                parent.append(rid)
                for ps, pe, pid in prev_runs:
                    if ps < c2 and c < pe:
                        union(rid, pid)
                cur_runs.append((c, c2, rid))
                all_runs.append((r, c, c2, rid))
                c = c2
            else:
                c += 1
        prev_runs = cur_runs

    labels = np.zeros((h, w), dtype=np.int32)
    compact: dict[int, int] = {}
    for r, s, e, rid in all_runs:
        root = find(rid)
        if root not in compact:
            compact[root] = len(compact) + 1
        labels[r, s:e] = compact[root]
    return labels


def segment_from_boundary(prob, threshold: float) -> LabelImage:
    """Threshold an interior-probability map and grow segments over the rest.

    Pixels with probability >= threshold form the foreground; its
    4-connected components get distinct ids. Sub-threshold pixels are then
    absorbed in decreasing-probability order (ties resolved row-major), each
    taking the id of its highest-probability labeled neighbor. Only an
    entirely sub-threshold image keeps id 0 anywhere, in which case the
    whole raster is 0.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [0, 1]")
    p = np.asarray(prob, dtype=np.float64)
    if p.ndim == 3 and p.shape[0] == 1:
        p = p[0]
    if p.ndim != 2 or p.size == 0:
        raise ValueError(f"probability map must be HxW, got {p.shape}")
    h, w = p.shape
    labels = _label_components(p >= threshold)
    if labels.max() == 0:
        return LabelImage(labels)

    heap: list[tuple[float, int, int]] = []
    fg = labels > 0
    frontier = ~fg & (
        np.pad(fg[1:, :], ((0, 1), (0, 0)))
        | np.pad(fg[:-1, :], ((1, 0), (0, 0)))
        | np.pad(fg[:, 1:], ((0, 0), (0, 1)))
        | np.pad(fg[:, :-1], ((0, 0), (1, 0)))
    )
    for r, c in zip(*np.nonzero(frontier)):
        heapq.heappush(heap, (-p[r, c], int(r), int(c)))
    while heap:
        _, r, c = heapq.heappop(heap)
        if labels[r, c] != 0:
            continue
        best_id, best_p = 0, -1.0
        for dr, dc in _NEIGHBORS:
            rr, cc = r + dr, c + dc
            if 0 <= rr < h and 0 <= cc < w and labels[rr, cc] > 0 and p[rr, cc] > best_p:
                best_id, best_p = int(labels[rr, cc]), p[rr, cc]
        labels[r, c] = best_id
        for dr, dc in _NEIGHBORS:
            rr, cc = r + dr, c + dc
            if 0 <= rr < h and 0 <= cc < w and labels[rr, cc] == 0:
                heapq.heappush(heap, (-p[rr, cc], rr, cc))
    return LabelImage(labels)


def contingency(proposal: LabelImage, gt: LabelImage) -> np.ndarray:
    """Count table n_ij over pixels positive in both rasters.

    Rows follow ascending proposal ids, columns ascending ground-truth ids.
    """
    a, b = proposal.ids, gt.ids
    if a.shape != b.shape:
        raise ValueError(f"raster shapes differ: {a.shape} vs {b.shape}")
    counted = (a > 0) & (b > 0)
    if not counted.any():
        raise ValueError("no jointly labeled pixels to count")
    ai = np.unique(a[counted], return_inverse=True)[1]
    bi = np.unique(b[counted], return_inverse=True)[1]
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table


@dataclass(frozen=True)
class RandScores:
    merge: float
    split: float
    fscore: float


def rand_fscore(merge: float, split: float) -> float:
    return 2.0 * merge * split / (merge + split)


def rand_scores(table) -> RandScores:
    n = np.asarray(table, dtype=np.float64)
    if n.ndim != 2 or n.size == 0:
        raise ValueError("contingency table must be a nonempty 2D array")
    if (n < 0).any():
        raise ValueError("contingency counts must be nonnegative")
    if n.sum() == 0:
        raise ValueError("contingency table is all zero")
    squares = float((n**2).sum())
    merge = squares / float((n.sum(axis=1) ** 2).sum())
    split = squares / float((n.sum(axis=0) ** 2).sum())
    return RandScores(merge, split, rand_fscore(merge, split))


@dataclass(frozen=True)
class SweepPoint:
    threshold: float
    split: float
    merge: float
    fscore: float


def best_fscore_sweep(
    prob_maps: list,
    gt_maps: list[LabelImage],
    thresholds,
) -> tuple[RandScores, float, list[SweepPoint]]:
    """Score every threshold, pooling counts across the whole image stack.

    Pooling treats segments of different images as distinct, i.e. the
    per-image contingency tables form one block-diagonal table. Thresholds
    where no image yields countable pixels are dropped from the curve.
    Returns (best scores, best threshold, curve ordered by threshold); ties
    keep the first threshold.
    """
    if len(prob_maps) != len(gt_maps):
        raise ValueError("need one ground-truth raster per probability map")
    if not prob_maps:
        raise ValueError("empty evaluation stack")
    thresholds = [float(t) for t in thresholds]
    if not thresholds:
        raise ValueError("no thresholds to sweep")

    def sweep_one(t: float) -> SweepPoint | None:
        squares = merge_denom = split_denom = 0.0
        for prob, gt in zip(prob_maps, gt_maps):
            seg = segment_from_boundary(prob, t)
            if seg.ids.max() == 0:
                continue
            try:
                table = contingency(seg, gt)
            except ValueError:
                continue
            table = table.astype(np.float64)
            squares += float((table**2).sum())
            merge_denom += float((table.sum(axis=1) ** 2).sum())
            split_denom += float((table.sum(axis=0) ** 2).sum())
        if squares == 0.0:
            return None
        merge = squares / merge_denom
        split = squares / split_denom
        return SweepPoint(t, split, merge, rand_fscore(merge, split))

    points = [pt for pt in map(sweep_one, thresholds) if pt is not None]
    if not points:
        raise ValueError("no threshold produced a scorable segmentation")
    best = points[0]
    for pt in points[1:]:
        if pt.fscore > best.fscore:
            best = pt
    return RandScores(best.merge, best.split, best.fscore), best.threshold, points


def pr_curve_csv(points: list[SweepPoint]) -> str:
    lines = ["threshold,rand_split,rand_merge,fscore"]
    for pt in points:
        lines.append(f"{pt.threshold!r},{pt.split!r},{pt.merge!r},{pt.fscore!r}")
    return "\n".join(lines) + "\n"
