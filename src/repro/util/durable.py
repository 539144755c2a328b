"""Durable whole-file replacement shared by the on-disk writers.

The result-store file backend and the serve snapshot both replace one
file atomically: write a per-process temp file (``<name>.tmp.<pid>``),
``fsync`` it, ``os.replace`` it over the target, then ``fsync`` the
parent directory so the rename itself survives a crash.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["temp_path", "write_durably"]


def temp_path(path: Path) -> Path:
    """This process's private temp name for ``path``."""
    return path.with_name(f"{path.name}.tmp.{os.getpid()}")


def write_durably(path: Path | str, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``.

    A failed write, ``fsync`` or rename removes the temp file and leaves
    the previous file in place. The parent directory must exist.
    """
    path = Path(path)
    tmp = temp_path(path)
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
