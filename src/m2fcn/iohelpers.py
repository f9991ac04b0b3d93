"""Atomic file writes: content lands under its final name or not at all.

Data is first written to ``<name>.partial`` in the target directory and
renamed into place afterwards, so an interrupted run leaves only files with
the .partial suffix behind.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

__all__ = ["atomic_open", "atomic_write_bytes", "atomic_write_text"]


@contextmanager
def atomic_open(path):
    """Binary file handle for ``path``: writes go to the .partial file, which
    is renamed into place when the block exits without an exception."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".partial")
    with open(tmp, "wb") as fh:
        yield fh
    os.replace(tmp, path)


def atomic_write_bytes(path, data: bytes) -> None:
    with atomic_open(path) as fh:
        fh.write(data)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode())
