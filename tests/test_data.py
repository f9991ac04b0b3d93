"""PGM I/O, boundary derivation, augmentation, and the synthetic corpus."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2fcn.data import (
    FLIPS,
    MEMBERS,
    ROTATIONS,
    SCALES,
    Augmented,
    DataError,
    PgmDepthError,
    PgmHeaderError,
    PgmPayloadError,
    Sample,
    augment36,
    boundary_from_segments,
    load_dataset,
    load_image,
    load_pgm,
    resize_bilinear,
    resize_nearest,
    save_dataset,
    save_image,
    save_pgm,
    synth_corpus,
    synth_generate,
)
from oracles import bfs_components


# ---- PGM round trips ----


def test_pgm_roundtrip_8bit(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.integers(0, 256, size=(7, 5)).astype(np.int32)
    path = tmp_path / "a.pgm"
    save_pgm(path, arr, 255)
    back, maxval = load_pgm(path)
    assert maxval == 255
    assert back.dtype == np.int32
    assert np.array_equal(back, arr)


def test_pgm_roundtrip_16bit(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.integers(0, 65536, size=(3, 9)).astype(np.int32)
    path = tmp_path / "b.pgm"
    save_pgm(path, arr, 65535)
    back, maxval = load_pgm(path)
    assert maxval == 65535
    assert np.array_equal(back, arr)


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes([10, 20, 30, 40, 50, 60])
    path.write_bytes(b"P5 # magic\n# a comment line\n3 # width\n2 255\n" + payload)
    arr, maxval = load_pgm(path)
    assert maxval == 255
    assert np.array_equal(arr, [[10, 20, 30], [40, 50, 60]])


def test_pgm_bad_magic(tmp_path):
    path = tmp_path / "d.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(4))
    with pytest.raises(PgmHeaderError):
        load_pgm(path)


def test_pgm_bad_dimensions(tmp_path):
    path = tmp_path / "e.pgm"
    path.write_bytes(b"P5\n0 2\n255\n")
    with pytest.raises(PgmHeaderError):
        load_pgm(path)


def test_pgm_unsupported_depth(tmp_path):
    path = tmp_path / "f.pgm"
    path.write_bytes(b"P5\n2 2\n100000\n" + bytes(8))
    with pytest.raises(PgmDepthError):
        load_pgm(path)


def test_pgm_truncated_payload(tmp_path):
    path = tmp_path / "g.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(PgmPayloadError):
        load_pgm(path)


def test_save_pgm_rejects_bad_maxval(tmp_path):
    with pytest.raises(ValueError):
        save_pgm(tmp_path / "h.pgm", np.zeros((2, 2), dtype=np.int32), 1000)


def test_save_pgm_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError):
        save_pgm(tmp_path / "i.pgm", np.full((2, 2), 300, dtype=np.int32), 255)


@pytest.mark.parametrize("raster", [
    np.array([[np.nan, 3.7]]),  # used to load back as [[0, 3]]
    np.array([[1.0, 2.0]]),
    np.array([[True, False]]),
], ids=["nan-and-fraction", "whole-floats", "bool"])
def test_save_pgm_rejects_non_integer_rasters(tmp_path, raster):
    path = tmp_path / "f.pgm"
    with pytest.raises(DataError, match="must hold integers"):
        save_pgm(path, raster, 255)
    assert not path.exists()


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_save_pgm_rejects_empty_rasters(tmp_path, shape):
    path = tmp_path / "e.pgm"
    with pytest.raises(DataError, match="empty"):
        save_pgm(path, np.zeros(shape, dtype=np.int32), 65535)
    assert not path.exists()


def test_image_roundtrip_quantizes(tmp_path):
    rng = np.random.default_rng(2)
    img = rng.random((6, 6))
    path = tmp_path / "j.pgm"
    save_image(path, img)
    back = load_image(path)
    assert back.shape == (6, 6)
    assert np.all((back >= 0.0) & (back <= 1.0))
    assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12


def test_image_roundtrip_exact_on_quantized(tmp_path):
    img = np.round(np.linspace(0, 1, 16).reshape(4, 4) * 255) / 255
    path = tmp_path / "k.pgm"
    save_image(path, img)
    assert np.array_equal(load_image(path), img)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_image_rejects_non_finite_values(tmp_path, bad):
    img = np.full((3, 3), 0.5)
    img[1, 2] = bad
    path = tmp_path / "n.pgm"
    with pytest.raises(DataError, match="not finite"):
        save_image(path, img)
    assert not path.exists()


# ---- Sample / boundary labels ----


def test_sample_promotes_2d_image_and_validates():
    s = Sample(image=np.zeros((3, 3)), mask=np.zeros((3, 3), dtype=bool))
    assert s.image.shape == (1, 3, 3)
    with pytest.raises(ValueError):
        Sample(image=np.zeros((1, 3, 3)), mask=np.zeros((2, 3), dtype=bool))
    with pytest.raises(ValueError):
        Sample(
            image=np.zeros((1, 3, 3)),
            mask=np.zeros((3, 3), dtype=bool),
            segments=np.zeros((4, 4), dtype=np.int32),
        )


def test_sample_labels_counts():
    mask = np.array([[True, False], [False, False]])
    lab = Sample(image=np.zeros((1, 2, 2)), mask=mask).labels()
    assert lab.n_boundary == 1
    assert lab.n_background == 3


def test_boundary_from_segments_hand_case():
    seg = np.array(
        [
            [1, 1, 0, 2],
            [1, 1, 0, 2],
            [1, 1, 2, 2],
        ],
        dtype=np.int32,
    )
    mask = boundary_from_segments(seg)
    # id 0 is boundary everywhere it appears
    assert mask[0, 2] and mask[1, 2]
    # differing positive 4-neighbors are boundary on both sides
    assert mask[2, 1] and mask[2, 2]
    # interior of segment 1 is not boundary
    assert not mask[0, 0]
    assert not mask[1, 0]
    # 2 at (0,3) only touches 0 and 2, so not positive-positive boundary
    assert not mask[0, 3]


def test_boundary_from_segments_uniform_is_clear():
    assert not boundary_from_segments(np.ones((4, 4), dtype=np.int32)).any()


# ---- resizing ----


def test_resize_bilinear_identity():
    rng = np.random.default_rng(3)
    img = rng.random((5, 8))
    assert np.allclose(resize_bilinear(img, 5, 8), img)


def test_resize_bilinear_constant():
    out = resize_bilinear(np.full((4, 4), 0.7), 9, 3)
    assert np.allclose(out, 0.7)


def test_resize_nearest_preserves_values():
    seg = np.array([[1, 2], [3, 4]], dtype=np.int32)
    out = resize_nearest(seg, 4, 4)
    assert set(np.unique(out)) == {1, 2, 3, 4}
    assert out.shape == (4, 4)


# ---- 36-fold augmentation ----


def _toy_sample(h=20, w=20, seed=0):
    rng = np.random.default_rng(seed)
    seg = np.ones((h, w), dtype=np.int32)
    seg[:, w // 2] = 0
    seg[:, w // 2 + 1 :] = 2
    img = rng.random((1, h, w))
    return Sample(image=img, mask=boundary_from_segments(seg), segments=seg)


def test_augment36_count_and_shapes():
    out = augment36(_toy_sample())
    assert len(out) == 36
    shapes = {s.image.shape for s in out}
    assert (1, 20, 20) in shapes  # scale 1.0
    assert (1, 16, 16) in shapes  # scale 0.8
    assert (1, 24, 24) in shapes  # scale 1.2
    assert len(ROTATIONS) * len(FLIPS) * len(SCALES) == 36


def test_augment36_contains_identity_bitwise():
    s = _toy_sample()
    out = augment36(s)
    hits = [
        a
        for a in out
        if a.image.shape == s.image.shape
        and np.array_equal(a.image, s.image)
        and np.array_equal(a.mask, s.mask)
        and np.array_equal(a.segments, s.segments)
    ]
    assert len(hits) == 1


def test_augment36_scale_output_size():
    s = _toy_sample(h=100, w=100)
    out = augment36(s)
    assert {a.image.shape[1] for a in out} == {80, 100, 120}


def test_four_quarter_turns_compose_to_identity():
    s = _toy_sample()
    img, mask, seg = s.image, s.mask, s.segments
    for _ in range(4):
        img = np.rot90(img, 1, axes=(1, 2))
        mask = np.rot90(mask, 1)
        seg = np.rot90(seg, 1)
    assert np.array_equal(img, s.image)
    assert np.array_equal(mask, s.mask)
    assert np.array_equal(seg, s.segments)


def test_augment36_isometries_keep_mask_aligned_with_segments():
    s = _toy_sample(seed=5)
    for a in augment36(s):
        if a.image.shape != s.image.shape:
            continue  # scaled variants re-derive the boundary; checked below
        assert np.array_equal(a.mask, boundary_from_segments(a.segments))


def test_augment36_scaled_variants_rederive_boundary():
    s = _toy_sample(seed=6)
    for a in augment36(s):
        assert np.array_equal(a.mask, boundary_from_segments(a.segments))
        assert np.array_equal(a.segments == 0, a.mask)


def test_augment36_mask_only_sample():
    s = _toy_sample()
    bare = Sample(image=s.image, mask=s.mask)
    out = augment36(bare)
    assert len(out) == 36
    assert all(a.segments is None for a in out)


def _same_bytes(a: Sample, b: Sample) -> bool:
    return all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in ((a.image, b.image), (a.mask, b.mask), (a.segments, b.segments))
    )


def test_augmented_view_matches_augment36_byte_for_byte():
    samples = [_toy_sample(seed=1), _toy_sample(h=24, w=18, seed=2)]
    view = Augmented(samples)
    assert len(view) == 72
    eager = augment36(samples[0]) + augment36(samples[1])
    for i, member in enumerate(view):
        assert _same_bytes(member, eager[i]), i
    for i in (-1, -36, -37, -72):
        assert _same_bytes(view[i], eager[i]), i
    with pytest.raises(IndexError):
        view[72]
    with pytest.raises(IndexError):
        view[-73]


def test_augment36_member_order():
    # The scale varies fastest, then the flip, then the rotation; each
    # unscaled member is its rotation and flip of the source raster.
    assert MEMBERS[:4] == ((0, "none", 0.8), (0, "none", 1.0), (0, "none", 1.2), (0, "ud", 0.8))
    s = _toy_sample(h=20, w=14, seed=3)
    flips = {"none": lambda a: a, "ud": lambda a: a[::-1], "lr": lambda a: a[:, ::-1]}
    out = augment36(s)
    for k, (rot, flip, scale) in enumerate(MEMBERS):
        if scale != 1.0:
            continue
        assert np.array_equal(out[k].image[0], flips[flip](np.rot90(s.image[0], rot))), k
        assert np.array_equal(out[k].segments, flips[flip](np.rot90(s.segments, rot))), k


# ---- synthetic generation ----


def test_synth_deterministic():
    a = synth_generate(seed=11, height=48, width=48, n_cells=5)
    b = synth_generate(seed=11, height=48, width=48, n_cells=5)
    assert np.array_equal(a.image, b.image)
    assert np.array_equal(a.mask, b.mask)
    assert np.array_equal(a.segments, b.segments)


def test_synth_differs_across_seeds():
    a = synth_generate(seed=1, height=48, width=48, n_cells=5)
    b = synth_generate(seed=2, height=48, width=48, n_cells=5)
    assert not np.array_equal(a.image, b.image)


def test_synth_membrane_is_dark_interiors_bright():
    s = synth_generate(seed=3, height=64, width=64, n_cells=6, distractor_rate=0.0)
    membrane = s.image[0][s.mask]
    interior = s.image[0][~s.mask]
    assert membrane.max() < 0.4
    assert np.quantile(interior, 0.2) > 0.5


def test_synth_distractors_stay_off_membrane():
    base = synth_generate(seed=7, height=64, width=64, n_cells=6, distractor_rate=0.0)
    spiked = synth_generate(seed=7, height=64, width=64, n_cells=6, distractor_rate=1.0)
    # same geometry, darker blobs only in interior pixels
    assert np.array_equal(base.mask, spiked.mask)
    assert np.array_equal(base.segments, spiked.segments)
    changed = base.image[0] != spiked.image[0]
    assert changed.any()
    assert not (changed & base.mask).any()


def test_synth_segment_count():
    s = synth_generate(seed=9, height=48, width=48, n_cells=2)
    ids = np.unique(s.segments)
    assert 0 in ids
    assert len(ids[ids > 0]) == 2


def test_synth_mask_matches_zero_segments():
    s = synth_generate(seed=10, height=48, width=48, n_cells=5)
    assert np.array_equal(s.mask, s.segments == 0)


def test_synth_pipeline_closure_is_exact():
    """A perfect boundary map segments back to the ground truth."""
    from m2fcn.evaluation import LabelImage, contingency, rand_scores, segment_from_boundary

    s = synth_generate(seed=12, height=64, width=64, n_cells=6)
    prob = (~s.mask).astype(float)
    seg = segment_from_boundary(prob, 0.5)
    sc = rand_scores(contingency(seg, LabelImage(s.segments)))
    assert abs(sc.fscore - 1.0) <= 1e-12
    assert sc.merge == 1.0 and sc.split == 1.0


def test_synth_corpus_split_sizes_and_disjoint_seeds():
    train, test = synth_corpus(seed=0, n_train=3, n_test=2, height=48, width=48, n_cells=5)
    assert len(train) == 3 and len(test) == 2
    imgs = [s.image.tobytes() for s in train + test]
    assert len(set(imgs)) == 5


@pytest.mark.parametrize("n_train, n_test", [(-1, 3), (2, -1)])
def test_synth_corpus_rejects_negative_counts(n_train, n_test):
    # A negative count used to slice from the wrong end and write a short split.
    with pytest.raises(ValueError, match="nonnegative"):
        synth_corpus(seed=0, n_train=n_train, n_test=n_test, height=32, width=32, n_cells=2)


def test_synth_corpus_deterministic():
    a = synth_corpus(seed=4, n_train=2, n_test=1, height=48, width=48, n_cells=5)
    b = synth_corpus(seed=4, n_train=2, n_test=1, height=48, width=48, n_cells=5)
    for sa, sb in zip(a[0] + a[1], b[0] + b[1]):
        assert np.array_equal(sa.image, sb.image)
        assert np.array_equal(sa.segments, sb.segments)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(64, 8), (128, 8), (192, 8), (192, 12), (256, 16), (512, 80)]),
)
def test_synth_cells_are_connected_and_large(seed, shape):
    size, n_cells = shape
    s = synth_generate(seed, size, size, n_cells)
    interior = s.segments > 0
    components = bfs_components(interior)
    assert components.max() == n_cells
    # Each component carries one id and each id one component.
    pairs = np.unique(np.stack([components[interior], s.segments[interior]]), axis=1)
    assert pairs.shape[1] == n_cells and len(np.unique(pairs[1])) == n_cells
    assert np.bincount(s.segments.ravel())[1:].min() >= 16


def test_synth_paper_image_peak_memory():
    # A per-pixel, per-site distance array alone would take 168 MB here.
    tracemalloc.start()
    try:
        synth_generate(0, 512, 512, 80)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_generate(seed=0, height=8, width=48, n_cells=5)
    with pytest.raises(ValueError):
        synth_generate(seed=0, height=48, width=48, n_cells=0)
    with pytest.raises(ValueError):
        synth_generate(seed=0, height=48, width=48, n_cells=5, distractor_rate=-0.1)


# ---- dataset save/load ----


def test_dataset_roundtrip(tmp_path):
    train, test = synth_corpus(seed=5, n_train=2, n_test=1, height=48, width=48, n_cells=4)
    root = tmp_path / "corpus"
    save_dataset(root, train, test)
    assert (root / "manifest.txt").exists()
    train2 = load_dataset(root, split="train")
    test2 = load_dataset(root, split="test")
    assert [name for name, _ in train2] == ["000", "001"]
    assert [name for name, _ in test2] == ["002"]
    assert len(load_dataset(root)) == 3
    for sa, (_, sb) in zip(train + test, train2 + test2):
        # images pass through 8-bit quantization
        assert np.max(np.abs(sa.image - sb.image)) <= 0.5 / 255 + 1e-12
        assert np.array_equal(sa.mask, sb.mask)
        assert np.array_equal(sa.segments, sb.segments)


def test_dataset_manifest_missing(tmp_path):
    from m2fcn.data import DataError

    with pytest.raises(DataError):
        load_dataset(tmp_path / "nowhere")


def test_dataset_manifest_bad_line(tmp_path):
    from m2fcn.data import DataError

    root = tmp_path / "corpus"
    root.mkdir()
    (root / "manifest.txt").write_text("001 train extra-token\n")
    with pytest.raises(DataError):
        load_dataset(root)


def test_dataset_missing_file_reported(tmp_path):
    from m2fcn.data import DataError

    train, test = synth_corpus(seed=6, n_train=1, n_test=1, height=48, width=48, n_cells=4)
    root = tmp_path / "corpus"
    save_dataset(root, train, test)
    (root / "images" / "001.pgm").unlink()
    with pytest.raises((DataError, FileNotFoundError)):
        load_dataset(root)


# ---- loader fuzz: only DataError may escape, since CLI exit code 2 rests on it ----


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    train, _ = synth_corpus(seed=7, n_train=1, n_test=0, height=32, width=32, n_cells=2)
    save_dataset(root / "corpus", train, [])
    return root


@pytest.fixture(scope="module")
def valid_pgms(fuzz_dir):
    blobs = []
    for maxval in (255, 65535):
        path = fuzz_dir / f"valid{maxval}.pgm"
        save_pgm(path, np.arange(12).reshape(3, 4) * 7, maxval)
        blobs.append(path.read_bytes())
    return blobs


# Byte flips, a truncation and appended bytes of a valid 8-bit or 16-bit file.
@given(
    st.integers(0, 1),
    st.lists(st.tuples(st.integers(0, 63), st.integers(1, 255)), max_size=4),
    st.integers(0, 64),
    st.binary(max_size=16),
)
@settings(max_examples=400, deadline=None)
def test_load_pgm_mutations_raise_only_data_error(fuzz_dir, valid_pgms, which, flips, keep, tail):
    blob = bytearray(valid_pgms[which])
    for pos, mask in flips:
        blob[pos % len(blob)] ^= mask
    path = fuzz_dir / "case.pgm"
    path.write_bytes(bytes(blob[:keep]) + tail)
    try:
        load_pgm(path)
    except DataError:
        pass


MANIFEST_LINES = st.sampled_from(["000 train", "000 test", "001 train", "000\x00 train", "é train"])


@given(
    st.one_of(
        st.binary(max_size=64),
        st.lists(MANIFEST_LINES, max_size=4).map(lambda ls: "\n".join(ls).encode()),
        st.lists(MANIFEST_LINES, min_size=1, max_size=3).map(lambda ls: "\n".join(ls).encode("utf-16")),
    )
)
@settings(max_examples=300, deadline=None)
def test_load_dataset_manifest_bytes_raise_only_data_error(fuzz_dir, manifest):
    root = fuzz_dir / "corpus"
    (root / "manifest.txt").write_bytes(manifest)
    try:
        load_dataset(root)
    except DataError:
        pass


def test_load_dataset_manifest_not_utf8(fuzz_dir):
    root = fuzz_dir / "corpus"
    (root / "manifest.txt").write_bytes(b"\xff\xfe000 train\n")
    with pytest.raises(DataError, match="cannot read manifest"):
        load_dataset(root)
