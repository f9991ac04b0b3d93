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

The flood ranks pixels by probability, highest first, and breaks ties by
row-major index. A sub-threshold pixel takes the id of its highest-ranked
labeled 4-neighbour; since the scan order up, left, right, down is
increasing row-major index, rank also breaks ties between neighbours of
equal probability. Call the pixels that become reachable when the water
level drops to a pixel z its burst: z and every unlabeled pixel connected
to z through pixels ranked above z. The whole burst takes one id, that of
z's highest-ranked neighbour that is foreground or already flooded, so the
order of the flood inside a burst never matters. Upper level sets are
nested (a component tree, Najman & Couprie 2006), and flooding is their
minimum spanning forest (Cousty et al. 2009, "Watershed cuts"): one
union-find pass in rank order records every merge, and the raster at any
threshold follows from that record by pointer jumping. A sweep therefore
sorts and merges each map once, not once per threshold.
"""

from __future__ import annotations

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


def _probability_map(prob) -> np.ndarray:
    """A finite HxW float64 map; a leading channel axis of 1 is dropped."""
    p = np.asarray(prob, dtype=np.float64)
    if p.ndim == 3 and p.shape[0] == 1:
        p = p[0]
    if p.ndim != 2 or p.size == 0:
        raise ValueError(f"probability map must be HxW, got {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("probability map has non-finite values")
    return p


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [0, 1]")


def _jump(ptr: np.ndarray, spare: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pointer jumping to every chain's fixed point; returns (result, spare)."""
    while True:
        np.take(ptr, ptr, out=spare, mode="clip")
        if np.array_equal(spare, ptr):
            return ptr, spare
        ptr, spare = spare, ptr


def _neighbour_ranks(order: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Ranks of the up, left, right and down neighbours of each rank.

    Row k describes rank k, the pixel ``order[k]``; a neighbour off the
    raster or ranked after k reads ``order.size``.
    """
    h, w = shape
    n = h * w
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n, dtype=np.int32)
    rank = rank.reshape(h, w)
    grid = np.full((4, h, w), n, dtype=np.int32)
    grid[0, 1:, :] = rank[:-1, :]
    grid[1, :, 1:] = rank[:, :-1]
    grid[2, :, :-1] = rank[:, 1:]
    grid[3, :-1, :] = rank[1:, :]
    nb = grid.reshape(4, n)[:, order]
    nb[nb > np.arange(n)] = n
    return nb


class _FloodTree:
    """The merge tree of one map, from which the flood at any threshold follows.

    Pixels are handled in rank space: rank k is the k-th pixel of the flood
    order (probability descending, then row-major). One union-find pass in
    rank order merges each pixel with its higher-ranked 4-neighbours; a
    component's root is its highest-ranked pixel, so when components meet,
    the one whose root ranks higher absorbs the others. The pass records
    which root each neighbour had when the pixel joined, and where and into
    what each root was absorbed. Pixels with probability >= ``top`` are
    seeded as their components, so ``labels`` answers thresholds up to
    ``top``.
    """

    def __init__(self, p: np.ndarray, top: float):
        n = p.size
        self.p = p
        self.order = np.argsort(-p.ravel(), kind="stable")
        self.nb = _neighbour_ranks(self.order, p.shape)

        self.roots = np.full((4, n), n, dtype=np.intp)  # neighbour roots as the rank joins
        self.absorbed_into = np.arange(n, dtype=np.intp)
        self.absorbed_at = np.full(n, n, dtype=np.intp)
        parent = list(range(n))
        seeded = int(np.count_nonzero(p >= top))
        if seeded:
            seed = _label_components(p >= top).ravel()[self.order[:seeded]]
            _, first, inverse = np.unique(seed, return_index=True, return_inverse=True)
            seed_roots = first[inverse]
            parent[:seeded] = seed_roots.tolist()
        nb = [memoryview(row) for row in self.nb]
        roots = [memoryview(row) for row in self.roots]
        into, at = memoryview(self.absorbed_into), memoryview(self.absorbed_at)
        for k in range(seeded, n):
            top_root = n
            for j in range(4):
                a = nb[j][k]
                if a < n:
                    while parent[a] != a:
                        parent[a] = parent[parent[a]]
                        a = parent[a]
                    roots[j][k] = a
                    if a < top_root:
                        top_root = a
            if top_root == n:
                continue
            parent[k] = top_root
            for j in range(4):
                a = roots[j][k]
                if a < n and a != top_root:
                    parent[a] = into[a] = top_root
                    at[a] = k
        # Root of each rank's component just after it joined.
        self.joined = self.roots.min(axis=0)
        alone = self.joined == n
        self.joined[alone] = np.flatnonzero(alone)
        if seeded:
            self.joined[:seeded] = seed_roots
        # Work arrays of ``labels``, reused at every threshold. Every index
        # it takes is in range; mode="clip" only spares ``take`` a copy.
        self.ranks = np.arange(n, dtype=np.intp)
        self.work = np.empty((5, n), dtype=np.intp)
        self.raster = np.empty(n, dtype=np.int32)

    def labels(self, threshold: float) -> np.ndarray:
        """The flood's int32 label raster at a threshold <= top, held in a
        work array that the next call overwrites."""
        p, n = self.p, self.p.size
        m = int(np.count_nonzero(p >= threshold))
        if m == 0:
            return np.zeros(p.shape, dtype=np.int32)
        ranks, (a, b, c, d, ptr) = self.ranks, self.work
        # Foreground: the components of the top m ranks, numbered in
        # row-major order of their first pixel.
        np.copyto(a, ranks)
        np.copyto(a, self.absorbed_into, where=self.absorbed_at < m)
        comp = np.take(_jump(a, b)[0], self.joined[:m], out=c[:m], mode="clip")
        d.fill(n)
        np.minimum.at(d, comp, self.order[:m])
        first = np.take(d, comp, out=a[:m], mode="clip")
        b.fill(0)
        b[first] = 1
        fg_ids = np.take(np.cumsum(b, out=b), first, out=c[:m], mode="clip")
        # Below the threshold: a rank whose component touches a labeled one
        # when it joins opens a burst and points at its highest-ranked
        # labeled neighbour; any other rank points at the rank whose join
        # first connected its component to a labeled one.
        best_labeled = np.where(self.roots[:, m:] < m, self.nb[:, m:], n).min(axis=0, out=d[m:])
        # The last unlabeled root on the way up; its absorption is the join.
        np.copyto(a, ranks)
        np.copyto(a, self.absorbed_into, where=self.absorbed_into >= m)
        unlabeled, spare = _jump(a, b)
        rooted = np.take(unlabeled, self.joined[m:], out=spare[m:], mode="clip")
        connect = np.take(self.absorbed_at, rooted, out=ptr[m:], mode="clip")
        np.copyto(connect, best_labeled, where=self.joined[m:] < m)
        ptr[:m] = ranks[:m]
        self.raster[self.order] = np.take(fg_ids, _jump(ptr, a)[0], out=b, mode="clip")
        return self.raster.reshape(p.shape)


def segment_from_boundary(prob, threshold: float) -> LabelImage:
    """Threshold an interior-probability map and grow segments over the rest.

    Pixels with probability >= threshold form the foreground; its
    4-connected components get distinct ids, numbered in row-major order of
    first appearance. Sub-threshold pixels are then absorbed in flood order
    (decreasing probability, ties resolved row-major), each taking the id of
    its highest-ranked labeled neighbor. Only an entirely sub-threshold
    image keeps id 0 anywhere, in which case the whole raster is 0.
    Non-finite probabilities are rejected.
    """
    _check_threshold(threshold)
    return LabelImage(_FloodTree(_probability_map(prob), threshold).labels(threshold))


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
    Returns (best scores, best threshold, curve in the order the thresholds
    are given); ties keep the first threshold. Each map is segmented at
    every threshold from one merge tree. A map must be finite and have its
    ground truth's shape.
    """
    if len(prob_maps) != len(gt_maps):
        raise ValueError("need one ground-truth raster per probability map")
    if not prob_maps:
        raise ValueError("empty evaluation stack")
    thresholds = [float(t) for t in thresholds]
    if not thresholds:
        raise ValueError("no thresholds to sweep")
    for t in thresholds:
        _check_threshold(t)

    # Per threshold: sum n_ij^2, sum_i n_i.^2 and sum_j n_.j^2, pooled in
    # exact integers.
    sums = np.zeros((len(thresholds), 3), dtype=np.int64)
    for prob, gt in zip(prob_maps, gt_maps):
        p = _probability_map(prob)
        if p.shape != gt.ids.shape:
            raise ValueError(f"raster shapes differ: {p.shape} vs {gt.ids.shape}")
        counted = gt.ids.ravel() > 0
        if not counted.any():
            continue
        _, gt_index, gt_sizes = np.unique(gt.ids.ravel()[counted], return_inverse=True, return_counts=True)
        gt_square_sum = int((gt_sizes**2).sum())
        tree = _FloodTree(p, max(thresholds))
        for i, t in enumerate(thresholds):
            ids = tree.labels(t).ravel()[counted]
            if ids[0] == 0:  # an all-sub-threshold raster is 0 everywhere
                continue
            pairs = ids.astype(np.int64) * len(gt_sizes) + gt_index
            pair_sizes = np.unique(pairs, return_counts=True)[1]
            sums[i] += (int((pair_sizes**2).sum()), int((np.bincount(ids) ** 2).sum()), gt_square_sum)

    points = []
    for t, (squares, merge_denom, split_denom) in zip(thresholds, sums.tolist()):
        if squares:
            merge = squares / merge_denom
            split = squares / split_denom
            points.append(SweepPoint(t, split, merge, rand_fscore(merge, split)))
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
