"""Independent checks of the program's outputs.

Nothing here calls into the package's evaluation code paths being checked:
connected components come from min-label propagation with pointer jumping,
Rand statistics from ``np.unique`` pair counts, and the fresh-network loss
from its closed form.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def fresh_loss(stages: int, levels: int, mask: np.ndarray) -> float:
    """Total loss of a network whose side heads are all zero.

    Every side and fused logit is 0, so each of the S*L + S maps costs
    ln 2 * (beta * n_b + (1 - beta) * n_n) = 2 ln 2 * n_b * n_n / N.
    """
    n = mask.size
    n_b = int(mask.sum())
    return (stages * levels + stages) * 2.0 * math.log(2.0) * n_b * (n - n_b) / n


def check_fresh_loss(first_total: float, stages: int, levels: int, samples) -> None:
    """The first logged loss matches the closed form for one of the samples."""
    err = min(abs(first_total - e) / e for e in (fresh_loss(stages, levels, s.mask) for s in samples))
    require(err <= 1e-12, f"first logged loss {first_total!r} is {err:.3g} off the closed form")


def check_log(log: list[dict]) -> None:
    require(len(log) > 0, "training logged nothing")
    for rec in log:
        require(all(math.isfinite(v) for k, v in rec.items() if k != "iteration"),
                f"non-finite loss in {rec}")


def check_prediction(pred: np.ndarray, shape: tuple[int, int]) -> None:
    require(pred.shape == shape, f"prediction shape {pred.shape}, expected {shape}")
    require(bool(np.isfinite(pred).all()), "non-finite prediction")
    require(float(pred.min()) >= 0.0 and float(pred.max()) <= 1.0, "prediction outside [0, 1]")


def same_bytes(a: list[np.ndarray], b: list[np.ndarray], what: str) -> None:
    require(len(a) == len(b) and all(x.tobytes() == y.tobytes() for x, y in zip(a, b)),
            f"{what} differ")


def label4(mask: np.ndarray) -> np.ndarray:
    """4-connected components; each pixel gets its component's smallest flat index.

    Background pixels get ``mask.size``.
    """
    h, w = mask.shape
    n = h * w
    inside = mask.ravel()
    lab = np.where(inside, np.arange(n), n)
    while True:
        g = lab.reshape(h, w)
        m = g.copy()
        np.minimum(m[1:], g[:-1], out=m[1:])
        np.minimum(m[:-1], g[1:], out=m[:-1])
        np.minimum(m[:, 1:], g[:, :-1], out=m[:, 1:])
        np.minimum(m[:, :-1], g[:, 1:], out=m[:, :-1])
        m = m.ravel()
        m[~inside] = n
        # Pointer jumping: a label names a pixel of the same component.
        m[inside] = m[m[inside]]
        if np.array_equal(m, lab):
            return lab.reshape(h, w)
        lab = m


def check_segmentation(prob: np.ndarray, ids: np.ndarray, t: float) -> None:
    """Foreground components match up to relabelling; the rest was flooded."""
    fg = prob >= t
    if not fg.any():
        require(not ids.any(), f"t={t}: ids on an all-sub-threshold map")
        return
    mine = label4(fg)[fg]
    theirs = ids[fg]
    require(bool((theirs > 0).all()), f"t={t}: foreground pixel without an id")
    pairs = np.unique(mine.astype(np.int64) * (int(theirs.max()) + 1) + theirs)
    require(len(pairs) == len(np.unique(mine)) == len(np.unique(theirs)),
            f"t={t}: foreground labelling differs from 4-connected components")
    padded = np.pad(ids, 1, constant_values=-1)
    h, w = ids.shape
    neighbours = [padded[:-2, 1:-1], padded[2:, 1:-1], padded[1:-1, :-2], padded[1:-1, 2:]]
    takes_neighbour = np.zeros_like(fg)
    for nb in neighbours:
        takes_neighbour |= nb == ids
    require(bool((ids[~fg] > 0).all() and takes_neighbour[~fg].all()),
            f"t={t}: a sub-threshold pixel does not carry a 4-neighbour's id")


def rand_counts(seg: np.ndarray, gt: np.ndarray) -> tuple[float, float, float]:
    """(sum n_ij^2, sum_i n_i.^2, sum_j n_.j^2) over pixels positive in both."""
    counted = (seg > 0) & (gt > 0)
    a = seg[counted].astype(np.int64)
    b = gt[counted].astype(np.int64)
    if a.size == 0:
        return 0.0, 0.0, 0.0
    nij = np.unique(a * (int(b.max()) + 1) + b, return_counts=True)[1]
    ni = np.unique(a, return_counts=True)[1]
    nj = np.unique(b, return_counts=True)[1]
    return tuple(float((c.astype(np.float64) ** 2).sum()) for c in (nij, ni, nj))


def check_sweep(curve, best, segment, probs, gts, thresholds, min_fscore: float) -> None:
    """Recount every curve point from the program's own segmentation rasters.

    ``segment(prob, t)`` returns the program's label raster. Checks merge,
    split and F to 1e-12, that exactly the scorable thresholds appear, the
    foreground labelling at three thresholds, and the best pooled F.
    """
    by_t = {pt.threshold: pt for pt in curve}
    probe = {thresholds[0], thresholds[len(thresholds) // 2], best[1]}
    scorable = []
    for t in thresholds:
        squares = merge_den = split_den = 0.0
        for prob, gt in zip(probs, gts):
            ids = segment(prob, t)
            if t in probe:
                check_segmentation(prob, ids, t)
            s, m, p = rand_counts(ids, gt)
            squares, merge_den, split_den = squares + s, merge_den + m, split_den + p
        if squares == 0.0:
            continue
        scorable.append(t)
        require(t in by_t, f"scorable threshold {t} missing from the curve")
        merge, split = squares / merge_den, squares / split_den
        fscore = 2.0 * merge * split / (merge + split)
        pt = by_t[t]
        require(abs(pt.merge - merge) <= 1e-12 and abs(pt.split - split) <= 1e-12
                and abs(pt.fscore - fscore) <= 1e-12, f"t={t}: Rand scores differ from the recount")
    require(scorable == [pt.threshold for pt in curve], "curve thresholds differ from the scorable ones")
    top = max(pt.fscore for pt in curve)
    require(best[0].fscore == top and best[1] == next(pt.threshold for pt in curve if pt.fscore == top),
            "best point is not the first maximum of the curve")
    require(top >= min_fscore, f"best pooled F {top} below {min_fscore}")
