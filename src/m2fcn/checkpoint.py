"""Binary checkpoint container: network config plus named float tensors.

Layout (all integers little-endian):

    magic   4 bytes  b"M2FC"
    version u32      currently 3
    cfg_len u32      length of the UTF-8 JSON network config
    config  cfg_len bytes
    count   u32      number of tensors
    per tensor:
        name_len u16, name bytes (UTF-8)
        ndim u8, dims u32 * ndim
        values float32 little-endian, row-major

Version 2 is the same layout with float64 values, at twice the bytes; such
files still load, as float64 networks.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .iohelpers import atomic_open
from .network import M2FCN, NetworkConfig

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError", "network_from_checkpoint"]

MAGIC = b"M2FC"
VERSION = 3
# The element type of each version's values.
ELEMENTS = {2: np.dtype("<f8"), VERSION: np.dtype("<f4")}


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, config: NetworkConfig, state: dict[str, np.ndarray]) -> None:
    """Write the file through its .partial name, one tensor at a time, as
    float32 values: a float64 state is rounded."""
    cfg = json.dumps(config.to_dict(), sort_keys=True).encode()
    with atomic_open(path) as fh:
        fh.write(MAGIC + struct.pack("<II", VERSION, len(cfg)) + cfg + struct.pack("<I", len(state)))
        for name, arr in state.items():
            a = np.ascontiguousarray(arr, dtype=ELEMENTS[VERSION])
            encoded = name.encode()
            fh.write(struct.pack(f"<H{len(encoded)}sB{a.ndim}I",
                                 len(encoded), encoded, a.ndim, *a.shape))
            fh.write(a)


def load_checkpoint(path) -> tuple[NetworkConfig, dict[str, np.ndarray]]:
    """Parse a checkpoint; an unreadable file or any malformed content
    raises CheckpointError.

    Every length, in elements of the version's type, is checked against
    the file size before anything is read or allocated, and each tensor's
    values are read straight into a fresh array of their own, of that type.
    """
    try:
        with open(path, "rb") as fh:
            return _parse(fh, os.fstat(fh.fileno()).st_size, path)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from None


def _parse(fh, size: int, path) -> tuple[NetworkConfig, dict[str, np.ndarray]]:
    pos = 0

    def claim(n: int) -> None:
        nonlocal pos
        if n > size - pos:
            raise CheckpointError(f"truncated checkpoint {path}")
        pos += n

    def take(n: int) -> bytes:
        claim(n)
        chunk = fh.read(n)
        if len(chunk) != n:  # the file shrank while being read
            raise CheckpointError(f"truncated checkpoint {path}")
        return chunk

    if take(4) != MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    (version,) = struct.unpack("<I", take(4))
    if version not in ELEMENTS:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    dtype = ELEMENTS[version]
    (cfg_len,) = struct.unpack("<I", take(4))
    try:
        config = NetworkConfig.from_dict(json.loads(take(cfg_len).decode()))
    except (ValueError, KeyError, RecursionError) as exc:
        raise CheckpointError(f"bad config block in {path}: {exc}") from exc
    (count,) = struct.unpack("<I", take(4))
    state: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode()
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"tensor name is not UTF-8 in {path}") from exc
        (ndim,) = struct.unpack("<B", take(1))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
        # Python integers: a numpy product of four large dims wraps to 0.
        claim(dtype.itemsize * math.prod(dims))
        try:
            arr = np.empty(dims, dtype=dtype)
        except ValueError as exc:  # more dims than numpy supports
            raise CheckpointError(f"bad shape {dims} for {name!r} in {path}") from exc
        if fh.readinto(arr) != arr.nbytes:
            raise CheckpointError(f"truncated checkpoint {path}")
        state[name] = arr
    if pos != size or fh.read(1):
        raise CheckpointError(f"trailing bytes in checkpoint {path}")
    return config, state


def network_from_checkpoint(path) -> M2FCN:
    """Build the network a checkpoint holds from its own tensors, in their
    stored dtype, with no random init. A tensor its config lacks or that
    does not fit it, an extra tensor, or a NaN or infinite value raises
    CheckpointError naming the problem."""
    config, state = load_checkpoint(path)
    try:
        net = M2FCN(config, state)
    except (ValueError, FloatingPointError) as exc:  # a misfit or non-finite tensor
        raise CheckpointError(f"{path}: {exc}") from None
    if len(net.parameters()) != len(state):
        raise CheckpointError(f"{path} holds tensors its config does not name")
    return net
