"""Rasters, augmentation, and the synthetic cell corpus.

Images travel as binary PGM (P5): 8-bit for intensities, mapped to [0, 1]
by dividing by 255, and 16-bit big-endian for segment ids. A dataset
directory holds images/, labels/, optional segs/ and a manifest listing
stem and split per line.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .evaluation import _label_components
from .iohelpers import atomic_write_bytes, atomic_write_text
from .loss import BoundaryLabels

__all__ = [
    "DataError",
    "PgmHeaderError",
    "PgmPayloadError",
    "PgmDepthError",
    "Sample",
    "load_pgm",
    "save_pgm",
    "load_image",
    "save_image",
    "load_labels",
    "save_labels",
    "boundary_from_segments",
    "augment36",
    "synth_generate",
    "synth_corpus",
    "save_dataset",
    "load_dataset",
]


class DataError(ValueError):
    pass


class PgmHeaderError(DataError):
    pass


class PgmPayloadError(DataError):
    pass


class PgmDepthError(DataError):
    pass


# ---- PGM (P5) ----


def _header_tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping # comments."""
    pos = 0
    n = len(data)
    while pos < n:
        ch = data[pos : pos + 1]
        if ch.isspace():
            pos += 1
            continue
        if ch == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos : pos + 1].isspace():
            pos += 1
        yield data[start:pos], pos
    return


def load_pgm(path) -> tuple[np.ndarray, int]:
    """Read a binary PGM; returns (HxW integer array, maxval)."""
    try:
        raw = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise DataError(f"cannot read image: {exc}") from None
    tokens = []
    end = 0
    for token, pos in _header_tokens(raw):
        tokens.append(token)
        end = pos
        if len(tokens) == 4:
            break
    if len(tokens) < 4:
        raise PgmHeaderError(f"{path}: incomplete PGM header")
    if tokens[0] != b"P5":
        raise PgmHeaderError(f"{path}: expected binary PGM magic P5, got {tokens[0]!r}")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise PgmHeaderError(f"{path}: non-numeric PGM header fields") from None
    if width < 1 or height < 1:
        raise PgmHeaderError(f"{path}: bad raster size {width}x{height}")
    if not 0 < maxval < 65536:
        raise PgmDepthError(f"{path}: unsupported maxval {maxval}")
    depth = 1 if maxval < 256 else 2
    payload = raw[end + 1 :]  # single whitespace byte separates header and data
    expected = width * height * depth
    if len(payload) < expected:
        raise PgmPayloadError(
            f"{path}: payload holds {len(payload)} bytes, expected {expected}"
        )
    dtype = np.uint8 if depth == 1 else np.dtype(">u2")
    arr = np.frombuffer(payload[:expected], dtype=dtype).reshape(height, width)
    return arr.astype(np.int32), maxval


def save_pgm(path, array, maxval: int) -> None:
    arr = np.asarray(array)
    if arr.ndim != 2:
        raise DataError(f"PGM raster must be HxW, got {arr.shape}")
    if maxval not in (255, 65535):
        raise PgmDepthError(f"refusing to write maxval {maxval}")
    # A float raster would be truncated (and NaN cast) without a word.
    if not np.issubdtype(arr.dtype, np.integer):
        raise DataError(f"PGM raster must hold integers, got {arr.dtype}")
    if arr.size == 0:
        raise DataError(f"PGM raster is empty: {arr.shape}")
    if arr.min() < 0 or arr.max() > maxval:
        raise DataError(f"values outside [0, {maxval}]")
    h, w = arr.shape
    header = f"P5\n{w} {h}\n{maxval}\n".encode()
    payload = arr.astype(np.uint8 if maxval == 255 else ">u2").tobytes()
    atomic_write_bytes(path, header + payload)


def load_image(path) -> np.ndarray:
    """8-bit PGM -> float64 (H, W) in [0, 1]."""
    arr, maxval = load_pgm(path)
    if maxval != 255:
        raise PgmDepthError(f"{path}: images must be 8-bit, got maxval {maxval}")
    return arr.astype(np.float64) / 255.0


def save_image(path, image01) -> None:
    img = np.asarray(image01, dtype=np.float64)
    # NaN fails no comparison, so it is rejected before the range check.
    if not np.isfinite(img).all():
        raise DataError("image values are not finite")
    if img.min() < 0.0 or img.max() > 1.0:
        raise DataError("image values outside [0, 1]")
    save_pgm(path, np.rint(img * 255.0).astype(np.int32), 255)


def load_labels(path) -> np.ndarray:
    return load_pgm(path)[0]


def save_labels(path, ids) -> None:
    save_pgm(path, ids, 65535)


# ---- samples ----


@dataclass
class Sample:
    """One training or evaluation item.

    image: (1, H, W) float64 in [0, 1]; mask: (H, W) bool boundary raster;
    segments: optional (H, W) int32 ground-truth partition with 0 on
    boundary pixels.
    """

    image: np.ndarray
    mask: np.ndarray
    segments: np.ndarray | None = None

    def __post_init__(self):
        self.image = np.asarray(self.image, dtype=np.float64)
        if self.image.ndim == 2:
            self.image = self.image[None]
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.image.shape[1:] != self.mask.shape:
            raise DataError(
                f"image {self.image.shape} and mask {self.mask.shape} disagree"
            )
        if self.segments is not None:
            self.segments = np.asarray(self.segments, dtype=np.int32)
            if self.segments.shape != self.mask.shape:
                raise DataError("segments shape does not match mask")

    def labels(self) -> BoundaryLabels:
        return BoundaryLabels.from_mask(self.mask)


def boundary_from_segments(segments) -> np.ndarray:
    """Boundary mask of a partition raster.

    A pixel is boundary if its id is 0 or if a 4-neighbor carries a
    different positive id, so membranes between intact cells are labeled on
    both sides.
    """
    s = np.asarray(segments)
    b = s == 0
    vert = (s[:-1, :] != s[1:, :]) & (s[:-1, :] > 0) & (s[1:, :] > 0)
    b[:-1, :] |= vert
    b[1:, :] |= vert
    horiz = (s[:, :-1] != s[:, 1:]) & (s[:, :-1] > 0) & (s[:, 1:] > 0)
    b[:, :-1] |= horiz
    b[:, 1:] |= horiz
    return b


# ---- augmentation ----

ROTATIONS = (0, 1, 2, 3)  # quarter turns, counterclockwise
FLIPS = ("none", "ud", "lr")
SCALES = (0.8, 1.0, 1.2)
# (rotation, flip, scale) of each of the 36 members, the scale varying fastest.
MEMBERS = tuple(itertools.product(ROTATIONS, FLIPS, SCALES))


def resize_bilinear(img: np.ndarray, oh: int, ow: int) -> np.ndarray:
    h, w = img.shape
    ys = np.clip((np.arange(oh) + 0.5) * (h / oh) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(ow) + 0.5) * (w / ow) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    top = img[np.ix_(y0, x0)] * (1 - fx) + img[np.ix_(y0, x1)] * fx
    bottom = img[np.ix_(y1, x0)] * (1 - fx) + img[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bottom * fy


def resize_nearest(arr: np.ndarray, oh: int, ow: int) -> np.ndarray:
    h, w = arr.shape
    ys = np.minimum((np.arange(oh) + 0.5) * (h / oh), h - 1).astype(int)
    xs = np.minimum((np.arange(ow) + 0.5) * (w / ow), w - 1).astype(int)
    return arr[np.ix_(ys, xs)]


def _isometry(a: np.ndarray, rot: int, flip: str) -> np.ndarray:
    a = np.rot90(a, rot)
    return {"none": a, "ud": np.flipud(a), "lr": np.fliplr(a)}[flip]


def _transform(sample: Sample, rot: int, flip: str, scale: float) -> Sample:
    img, mask = _isometry(sample.image[0], rot, flip), _isometry(sample.mask, rot, flip)
    segs = None if sample.segments is None else _isometry(sample.segments, rot, flip)
    if scale != 1.0:
        oh = max(1, int(round(img.shape[0] * scale)))
        ow = max(1, int(round(img.shape[1] * scale)))
        img = np.clip(resize_bilinear(img, oh, ow), 0.0, 1.0)
        if segs is not None:
            # Nearest-neighbor ids, then a fresh boundary mask: rescaling the
            # mask itself would let thin membranes alias away at scale 0.8.
            segs = resize_nearest(segs, oh, ow)
            mask = boundary_from_segments(segs)
            segs = np.where(mask, 0, segs)
        else:
            mask = resize_nearest(mask.astype(np.int32), oh, ow).astype(bool)
    return Sample(img.copy()[None], np.ascontiguousarray(mask), None if segs is None else np.ascontiguousarray(segs))


class Augmented(Sequence):
    """Read-only view of the 36 augmentation members of each sample: item i
    is member ``MEMBERS[i % 36]`` of sample ``i // 36``, built when indexed."""

    def __init__(self, samples):
        self._samples = list(samples)

    def __len__(self) -> int:
        return len(MEMBERS) * len(self._samples)

    def __getitem__(self, i) -> Sample:
        # divmod floors, so a negative i counts from the end as in a list.
        sample, member = divmod(i, len(MEMBERS))
        return _transform(self._samples[sample], *MEMBERS[member])


def augment36(sample: Sample) -> list[Sample]:
    """4 rotations x 3 flips x 3 scales; the identity member is included."""
    return list(Augmented([sample]))


# ---- synthetic corpus ----


def _dilate(mask: np.ndarray) -> np.ndarray:
    out = mask.copy()
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


def _box_blur(field: np.ndarray, radius: int) -> np.ndarray:
    padded = np.pad(field, radius, mode="edge")
    csum = padded.cumsum(0).cumsum(1)
    csum = np.pad(csum, ((1, 0), (1, 0)))
    k = 2 * radius + 1
    h, w = field.shape
    return (
        csum[k : k + h, k : k + w]
        - csum[:h, k : k + w]
        - csum[k : k + h, :w]
        + csum[:h, :w]
    ) / (k * k)


def _generate(rng, height, width, n_cells, distractor_rate):
    # Sites with a minimum pairwise separation keep the cells chunky enough
    # that every interior survives the membrane carving.
    min_sep = 0.45 * np.sqrt(height * width / n_cells)
    sites = []
    for _ in range(200 * n_cells):
        cand = rng.uniform((2, 2), (height - 2, width - 2))
        if all(np.hypot(*(cand - s)) >= min_sep for s in sites):
            sites.append(cand)
            if len(sites) == n_cells:
                break

    # Voronoi cells; the strict < keeps the earlier site on a tie, as argmin does.
    rr, cc = np.mgrid[0:height, 0:width]
    nearest = np.full((height, width), np.inf)
    cells = np.zeros((height, width), dtype=np.int32)
    for cid, (sr, sc) in enumerate(sites, start=1):
        d2 = (rr - sr) ** 2 + (cc - sc) ** 2
        cells[d2 < nearest] = cid
        np.minimum(nearest, d2, out=nearest)

    # One-sided membrane seam, thickened by a smooth random field to 1-3 px.
    seam = np.zeros((height, width), dtype=bool)
    seam[:-1, :] |= cells[:-1, :] != cells[1:, :]
    seam[:, :-1] |= cells[:, :-1] != cells[:, 1:]
    thickness = _box_blur(rng.random((height, width)), 2)
    lo, hi = np.quantile(thickness, [0.4, 0.8])
    membrane = seam.copy()
    grow1 = _dilate(seam)
    grow2 = _dilate(grow1)
    membrane |= grow1 & (thickness >= lo)
    membrane |= grow2 & (thickness >= hi)

    # Interior islands under 16 px that thickening strands become membrane. The seam parts
    # cells, so n_cells components and no empty cell (as an unplaced site's) are one per cell.
    components = _label_components(~membrane)
    counts = np.bincount(components.ravel())
    membrane |= (counts < 16)[components]
    segments = np.where(membrane, 0, cells).astype(np.int32)
    sizes = np.bincount(segments.ravel(), minlength=n_cells + 1)[1:]
    if sizes.min() < 16 or np.count_nonzero(counts[1:] >= 16) != n_cells:
        raise ValueError(f"could not fit {n_cells} connected cells into {height}x{width}")

    interior = 0.7 + rng.normal(0.0, 0.08, (height, width))
    image = np.clip(interior, 0.45, 0.95)
    membrane_tone = 0.1 + rng.normal(0.0, 0.03, (height, width))
    image[membrane] = np.clip(membrane_tone, 0.02, 0.2)[membrane]

    if distractor_rate > 0:
        # Dark blobs inside cells, kept clear of the membrane so they read as
        # clutter rather than boundary evidence.
        safe = ~_dilate(_dilate(membrane))
        tone = np.clip(0.25 + rng.normal(0.0, 0.03, (height, width)), 0.2, 0.35)
        pools = [np.argwhere(safe & (segments == cid)) for cid in range(1, n_cells + 1)]
        for cid, pool in enumerate(pools, start=1):
            for _ in range(rng.poisson(distractor_rate)):
                if len(pool) == 0:
                    continue
                cy, cx = pool[rng.integers(len(pool))]
                ry, rx = rng.uniform(2.0, 5.0, size=2)
                angle = rng.uniform(0.0, np.pi)
                ca, sa = np.cos(angle), np.sin(angle)
                # Semi-axes are under 5, so the blob lies in this window.
                win = np.s_[max(cy - 5, 0) : cy + 6, max(cx - 5, 0) : cx + 6]
                u = (rr[win] - cy) * ca + (cc[win] - cx) * sa
                v = -(rr[win] - cy) * sa + (cc[win] - cx) * ca
                blob = (u / ry) ** 2 + (v / rx) ** 2 <= 1.0
                blob &= safe[win] & (segments[win] == cid)
                image[win][blob] = tone[win][blob]

    return Sample(image[None], membrane, segments)


def synth_generate(
    seed: int,
    height: int = 64,
    width: int = 64,
    n_cells: int = 8,
    distractor_rate: float = 1.0,
) -> Sample:
    """Seeded cell image with membrane boundaries and exact ground truth.

    Cells come from a Voronoi partition of random sites; the membrane
    between them is rendered dark with jittered thickness, interiors are
    bright with Gaussian texture, and optional darker elliptical blobs act
    as distractors that never touch a membrane. The segment raster carries 0
    exactly on the membrane mask, so evaluation excludes those pixels. Each
    image is one draw: interior islands under 16 px become membrane, and a
    draw that leaves a cell empty, under 16 px or in pieces raises ValueError.
    """
    if n_cells < 2:
        raise ValueError("need at least 2 cells")
    if height < 32 or width < 32:
        raise ValueError("raster must be at least 32x32")
    if distractor_rate < 0:
        raise ValueError("distractor rate must be nonnegative")
    if n_cells > (height // 8) * (width // 8):
        raise ValueError(
            f"{n_cells} cells exceed the pixel budget of a {height}x{width} raster"
        )
    return _generate(np.random.default_rng([seed, 0]), height, width, n_cells, distractor_rate)


def synth_corpus(
    seed: int,
    n_train: int,
    n_test: int,
    height: int = 64,
    width: int = 64,
    n_cells: int = 8,
    distractor_rate: float = 1.0,
) -> tuple[list[Sample], list[Sample]]:
    if n_train < 0 or n_test < 0:
        raise ValueError(f"sample counts must be nonnegative, got n_train={n_train}, n_test={n_test}")
    image_seeds = np.random.SeedSequence(seed).generate_state(n_train + n_test)
    samples = [
        synth_generate(int(s), height, width, n_cells, distractor_rate)
        for s in image_seeds
    ]
    return samples[:n_train], samples[n_train:]


# ---- dataset directories ----


def save_dataset(root, train: list[Sample], test: list[Sample]) -> None:
    root = Path(root)
    lines = []
    stem = 0
    for split, samples in (("train", train), ("test", test)):
        for sample in samples:
            name = f"{stem:03d}"
            save_image(root / "images" / f"{name}.pgm", sample.image[0])
            save_pgm(root / "labels" / f"{name}.pgm", sample.mask.astype(np.int32) * 255, 255)
            if sample.segments is not None:
                save_labels(root / "segs" / f"{name}.pgm", sample.segments)
            lines.append(f"{name} {split}")
            stem += 1
    atomic_write_text(root / "manifest.txt", "\n".join(lines) + "\n")


def load_dataset(root, split: str | None = None) -> list[tuple[str, Sample]]:
    root = Path(root)
    manifest = root / "manifest.txt"
    if not manifest.is_file():
        raise DataError(f"no manifest at {manifest}")
    try:
        text = manifest.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read manifest {manifest}: {exc}") from None
    entries: list[tuple[str, Sample]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[1] not in ("train", "test"):
            raise DataError(f"{manifest}:{line_no}: bad manifest line {line!r}")
        name, item_split = parts
        if split is not None and item_split != split:
            continue
        image = load_image(root / "images" / f"{name}.pgm")
        mask = load_labels(root / "labels" / f"{name}.pgm") > 127
        seg_path = root / "segs" / f"{name}.pgm"
        segments = load_labels(seg_path) if seg_path.is_file() else None
        entries.append((name, Sample(image[None], mask, segments)))
    if not entries:
        raise DataError(f"no {split or 'any'} entries in {manifest}")
    return entries
