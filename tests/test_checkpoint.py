"""Checkpoint container: round trip, and typed rejection of malformed files.

Every way a file can be wrong must surface as CheckpointError, which the CLI
turns into exit code 2.
"""

import itertools
import json
import struct
import tracemalloc

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2fcn.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointError,
    load_checkpoint,
    network_from_checkpoint,
    save_checkpoint,
)
from m2fcn.autodiff import Tensor
from m2fcn.data import Sample
from m2fcn.network import M2FCN, NetworkConfig, build_network
from m2fcn.subnet import LevelSpec, SubNetConfig
from m2fcn.training import TrainSchedule, train

CFG = NetworkConfig(
    stages=2,
    subnet=SubNetConfig(levels=(LevelSpec(1, 2), LevelSpec(1, 2))),
    recursive_level=2,
)


_CASES = itertools.count()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("checkpoints")


def state64(seed=3) -> dict[str, np.ndarray]:
    return {k: v.astype(np.float64) for k, v in build_network(CFG, seed).state().items()}


@pytest.fixture(scope="module")
def valid(workdir) -> bytes:
    path = workdir / "valid.m2f"
    save_checkpoint(path, CFG, build_network(CFG, seed=3).state())
    return path.read_bytes()


@pytest.fixture(scope="module")
def valid_files(valid) -> list[bytes]:
    """The current file and a version-2 file of one network."""
    return [valid, pack_v2(CFG, state64())]


def load_blob(workdir, blob: bytes):
    # A new file per case: truncating an existing file is slow on some
    # filesystems, and the prefix test writes one file per byte.
    path = workdir / f"case{next(_CASES)}.m2f"
    path.write_bytes(blob)
    return load_checkpoint(path)


def pack(config, tensors=(), version=VERSION) -> bytes:
    """A checkpoint with a raw config block and raw (name bytes, dims,
    value bytes) tensor records."""
    cfg = config if isinstance(config, bytes) else json.dumps(config).encode()
    blob = MAGIC + struct.pack("<II", version, len(cfg)) + cfg
    blob += struct.pack("<I", len(tensors))
    for name, dims, values in tensors:
        blob += struct.pack("<H", len(name)) + name
        blob += struct.pack(f"<B{len(dims)}I", len(dims), *dims) + values
    return blob


def pack_v2(config: NetworkConfig, state) -> bytes:
    """A version-2 file: the same layout with float64 values."""
    return pack(config.to_dict(), [(name.encode(), arr.shape, arr.astype("<f8").tobytes())
                                   for name, arr in state.items()], version=2)


GOOD = {"stages": 1, "input_channels": 1, "levels": [[1, 2, 3]], "recursive": "all"}


def test_round_trip(tmp_path):
    # A float64 state is stored as its float32 rounding.
    for dtype in (np.float32, np.float64):
        net = M2FCN(CFG, {k: v.astype(dtype) for k, v in build_network(CFG, seed=3).state().items()})
        path = tmp_path / f"{np.dtype(dtype).name}.m2f"
        save_checkpoint(path, CFG, net.state())
        assert path.read_bytes()[4:8] == struct.pack("<I", 3)
        config, state = load_checkpoint(path)
        assert config == CFG
        assert state.keys() == net.parameters().keys()
        back = network_from_checkpoint(path)
        assert back.dtype == np.float32
        for name, value in net.state().items():
            stored = value.astype(np.float32).tobytes()
            assert state[name].dtype == np.float32 and state[name].tobytes() == stored
            assert back.parameters()[name].data.tobytes() == stored


def test_file_holds_half_the_value_bytes_of_version_2(tmp_path):
    values = sum(v.size for v in state64().values())
    path = tmp_path / "model.m2f"
    save_checkpoint(path, CFG, state64())
    assert len(pack_v2(CFG, state64())) - path.stat().st_size == 4 * values


def test_version_2_file_loads_byte_for_byte(workdir):
    state = state64()
    path = workdir / "v2.m2f"
    path.write_bytes(pack_v2(CFG, state))
    config, loaded = load_checkpoint(path)
    assert config == CFG and loaded.keys() == state.keys()
    for name, value in state.items():
        assert loaded[name].dtype == np.float64 and loaded[name].tobytes() == value.tobytes()
    net = network_from_checkpoint(path)
    assert net.dtype == np.float64
    img = Tensor(np.random.default_rng(1).uniform(0, 1, (1, 8, 8)))
    assert net.predict(img).tobytes() == M2FCN(CFG, state).predict(img).tobytes()


def test_load_makes_no_random_draws(tmp_path, monkeypatch):
    net = build_network(CFG, seed=3)
    path = tmp_path / "model.m2f"
    save_checkpoint(path, CFG, net.state())

    def no_draws(*args, **kwargs):
        raise AssertionError("a checkpoint load drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    monkeypatch.setattr(np.random, "SeedSequence", no_draws)
    back = network_from_checkpoint(path)
    for name, value in net.state().items():
        assert back.parameters()[name].data.tobytes() == value.tobytes()


def test_loaded_parameters_are_writable_separate_arrays(tmp_path):
    path = tmp_path / "model.m2f"
    save_checkpoint(path, CFG, build_network(CFG, seed=3).state())
    arrays = [p.data for p in network_from_checkpoint(path).parameters().values()]
    for i, a in enumerate(arrays):
        assert a.flags.writeable and a.flags.c_contiguous and a.dtype == np.float32
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])


def test_train_step_on_loaded_network_matches_saved(tmp_path):
    rng = np.random.default_rng(0)
    sample = Sample(rng.uniform(0.1, 0.9, (1, 8, 8)), rng.random((8, 8)) < 0.3)
    schedule = TrainSchedule(phase2_iters=1, phase2_lr=1e-2)
    saved = build_network(CFG, seed=3)
    path = tmp_path / "model.m2f"
    save_checkpoint(path, CFG, saved.state())
    loaded = network_from_checkpoint(path)
    a = train(saved, [sample], schedule)
    b = train(loaded, [sample], schedule)
    assert a.log == b.log and not a.aborted
    for name, value in a.network.state().items():
        assert b.network.state()[name].tobytes() == value.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_tensor_rejected(tmp_path, bad):
    state = build_network(CFG, seed=3).state()
    state["stage2/head1/weight"][0, 1, 0, 0] = bad
    path = tmp_path / "model.m2f"
    save_checkpoint(path, CFG, state)
    with pytest.raises(CheckpointError, match="non-finite values in tensor stage2/head1/weight"):
        network_from_checkpoint(path)


@pytest.mark.parametrize(
    "blob",
    [
        MAGIC + struct.pack("<II", VERSION, 0xFFFFFFFF) + b"{}",
        pack(GOOD, [(b"w", (4096, 4096), bytes(8))]),
        pack(GOOD, [(b"w", (4096, 4096), bytes(8))], version=2),
    ],
    ids=["config-length", "tensor-length", "tensor-length-v2"],
)
def test_declared_lengths_past_the_end_allocate_nothing(workdir, blob):
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="truncated"):
            load_blob(workdir, blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_save_from_the_registry_copies_no_parameter(workdir):
    # Handing save_checkpoint the registry's own float32 arrays writes the
    # bytes a state() copy would, without a parameter-sized allocation.
    config = NetworkConfig(stages=2, subnet=SubNetConfig(levels=(LevelSpec(2, 64), LevelSpec(2, 128))))
    net = build_network(config, seed=1)
    arrays = {name: p.data for name, p in net.parameters().items()}
    nbytes = sum(a.nbytes for a in arrays.values())
    tracemalloc.start()
    try:
        save_checkpoint(workdir / "registry.m2f", config, arrays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * nbytes, (peak, nbytes)
    save_checkpoint(workdir / "copied.m2f", config, net.state())
    assert (workdir / "registry.m2f").read_bytes() == (workdir / "copied.m2f").read_bytes()


def test_bad_magic(workdir, valid):
    with pytest.raises(CheckpointError, match="bad magic"):
        load_blob(workdir, b"M2FX" + valid[4:])


def test_version_1_file_rejected(workdir, valid):
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
        load_blob(workdir, valid[:4] + struct.pack("<I", 1) + valid[8:])


def test_version_4_file_rejected(workdir, valid):
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 4"):
        load_blob(workdir, valid[:4] + struct.pack("<I", 4) + valid[8:])


def test_relabelled_version_rejected(workdir, valid):
    # Read with the other version's element size, a file misreads its own
    # records.
    with pytest.raises(CheckpointError):
        load_blob(workdir, valid[:4] + struct.pack("<I", 2) + valid[8:])
    v2 = pack_v2(CFG, state64())
    with pytest.raises(CheckpointError):
        load_blob(workdir, v2[:4] + struct.pack("<I", VERSION) + v2[8:])


@pytest.mark.parametrize("version, nbytes, error", [
    (3, 8, None), (3, 16, "trailing bytes"), (3, 4, "truncated"),
    (2, 16, None), (2, 8, "truncated"), (2, 24, "trailing bytes"),
])
def test_size_claims_use_the_element_size(workdir, version, nbytes, error):
    blob = pack(GOOD, [(b"w", (2, 1), np.arange(nbytes, dtype=np.uint8).tobytes())], version=version)
    if error is not None:
        with pytest.raises(CheckpointError, match=error):
            load_blob(workdir, blob)
        return
    _, state = load_blob(workdir, blob)
    assert state["w"].dtype == (np.float32 if version == 3 else np.float64)
    assert state["w"].shape == (2, 1) and state["w"].tobytes() == bytes(range(nbytes))


def test_every_truncated_prefix_rejected(workdir, valid):
    for n in range(len(valid)):
        with pytest.raises(CheckpointError):
            load_blob(workdir, valid[:n])


def test_trailing_bytes_rejected(workdir, valid):
    with pytest.raises(CheckpointError, match="trailing bytes"):
        load_blob(workdir, valid + b"\0")


@pytest.mark.parametrize(
    "blob",
    [
        pack({**GOOD, "levels": 3}),
        pack([1, 2]),
        pack({**GOOD, "levels": [[1, 2.0, 3]]}),
        pack({**GOOD, "stages": True}),
        pack({**GOOD, "recursive": 5}),
        pack({**GOOD, "beta_mode": "balanced"}),
        pack({k: v for k, v in GOOD.items() if k != "stages"}),
        pack(b"[" * 100_000 + b"]" * 100_000),
        pack(b"\xff{}"),
        pack(GOOD, [(b"\xff\xfe", (1,), bytes(8))]),
        pack(GOOD, [(b"w", (65536,) * 4, b"")]),
        pack(GOOD, [(b"w", (1,) * 65, bytes(8))]),
    ],
    ids=[
        "levels-int",
        "config-list",
        "levels-float",
        "stages-bool",
        "recursive-int",
        "unknown-key",
        "missing-key",
        "deeply-nested",
        "config-not-utf8",
        "name-not-utf8",
        "dims-overflow",
        "too-many-dims",
    ],
)
def test_crafted_files_rejected(workdir, blob):
    with pytest.raises(CheckpointError):
        load_blob(workdir, blob)


@pytest.mark.parametrize(
    "blob",
    [
        # One level of 1,000,000 channels: building it would need 65.5 TiB.
        pack({**GOOD, "input_channels": 10**6, "levels": [[1, 10**6, 3]]}),
        pack(GOOD, [(b"stage1/level1/conv1/weight", (2, 1, 3, 1), bytes(48))]),
    ],
    ids=["no-tensors-huge-config", "wrong-shape"],
)
def test_tensors_that_do_not_fit_config_rejected(workdir, blob):
    path = workdir / f"case{next(_CASES)}.m2f"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError):
        network_from_checkpoint(path)


def test_extra_tensor_rejected(workdir, valid):
    config, state = load_blob(workdir, valid)
    path = workdir / "extra.m2f"
    save_checkpoint(path, config, {**state, "stage9/fuse/weight": state["stage1/fuse/weight"]})
    with pytest.raises(CheckpointError, match="does not name"):
        network_from_checkpoint(path)


def test_pack_builds_loadable_files(workdir):
    # The crafted cases above differ from this one only in what they break.
    for version, itemsize in ((VERSION, 4), (2, 8)):
        config, state = load_blob(workdir, pack(GOOD, [(b"w", (2, 1), bytes(2 * itemsize))], version=version))
        assert config.stages == 1
        assert state["w"].shape == (2, 1) and state["w"].dtype.itemsize == itemsize


# Half the flips land in the first 256 bytes, where the header, the config
# block and the first tensor records are.
POSITIONS = st.one_of(st.integers(0, 255), st.integers(0, 1 << 20))


@given(st.lists(st.tuples(POSITIONS, st.integers(1, 255)), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_byte_flips_raise_only_checkpoint_error(workdir, valid_files, flips):
    # The same flips in a current and a version-2 file.
    for valid in valid_files:
        blob = bytearray(valid)
        for pos, mask in flips:
            blob[pos % len(blob)] ^= mask
        try:
            load_blob(workdir, bytes(blob))
        except CheckpointError:
            pass
