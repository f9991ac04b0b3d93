"""Binary checkpoint container: network config plus named float64 tensors.

Layout (all integers little-endian):

    magic   4 bytes  b"M2FC"
    version u32      currently 2
    cfg_len u32      length of the UTF-8 JSON network config
    config  cfg_len bytes
    count   u32      number of tensors
    per tensor:
        name_len u16, name bytes (UTF-8)
        ndim u8, dims u32 * ndim
        values float64 little-endian, row-major
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .iohelpers import atomic_write_bytes
from .network import M2FCN, NetworkConfig, build_network

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError", "network_from_checkpoint"]

MAGIC = b"M2FC"
VERSION = 2


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, config: NetworkConfig, state: dict[str, np.ndarray]) -> None:
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    cfg = json.dumps(config.to_dict(), sort_keys=True).encode()
    blob += struct.pack("<I", len(cfg))
    blob += cfg
    blob += struct.pack("<I", len(state))
    for name, arr in state.items():
        a = np.ascontiguousarray(arr, dtype=np.float64)
        encoded = name.encode()
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        blob += struct.pack("<B", a.ndim)
        for d in a.shape:
            blob += struct.pack("<I", d)
        blob += a.astype("<f8").tobytes()
    atomic_write_bytes(path, bytes(blob))


def load_checkpoint(path) -> tuple[NetworkConfig, dict[str, np.ndarray]]:
    """Parse a checkpoint; an unreadable file or any malformed content
    raises CheckpointError."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from None
    view = memoryview(data)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise CheckpointError(f"truncated checkpoint {path}")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    if bytes(take(4)) != MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<I", take(4))
    try:
        config = NetworkConfig.from_dict(json.loads(bytes(take(cfg_len)).decode()))
    except (ValueError, KeyError, RecursionError) as exc:
        raise CheckpointError(f"bad config block in {path}: {exc}") from exc
    (count,) = struct.unpack("<I", take(4))
    state: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = bytes(take(name_len)).decode()
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"tensor name is not UTF-8 in {path}") from exc
        (ndim,) = struct.unpack("<B", take(1))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
        # Python integers: a numpy product of four large dims wraps to 0.
        values = take(8 * math.prod(dims))
        try:
            arr = np.frombuffer(values, dtype="<f8").reshape(dims)
        except ValueError as exc:  # more dims than numpy supports
            raise CheckpointError(f"bad shape {dims} for {name!r} in {path}") from exc
        state[name] = np.array(arr, dtype=np.float64)
    if pos != len(view):
        raise CheckpointError(f"trailing bytes in checkpoint {path}")
    return config, state


def network_from_checkpoint(path) -> M2FCN:
    """Rebuild the network a checkpoint holds. Tensors whose names or shapes
    do not fit its config raise CheckpointError before anything is built."""
    config, state = load_checkpoint(path)
    expected = 0
    for name, shape in config.parameter_shapes():
        if name not in state or state[name].shape != shape:
            raise CheckpointError(f"{path} lacks tensor {name!r} of shape {shape}")
        expected += 1
    if expected != len(state):
        raise CheckpointError(f"{path} holds tensors its config does not name")
    net = build_network(config, seed=0)
    net.load_state(state)
    return net
