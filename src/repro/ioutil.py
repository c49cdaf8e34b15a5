"""Crash-safe file publication, shared by every durability writer.

One implementation of the atomic-write protocol — temp file in the
destination directory, write, flush, fsync, ``os.replace``, fsync of the
parent directory — used by the snapshot container, the store manifest
and the replication epoch file, so their durability guarantees cannot
silently diverge.

The directory fsync matters: ``os.replace`` makes the rename atomic in
the namespace, but on power loss the *directory entry* itself can be
lost unless the parent directory's metadata reaches disk too; without
it, a manifest could survive pointing at files whose entries vanished.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union

__all__ = ["atomic_write_bytes"]


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Publish ``data`` at ``path`` atomically and durably.

    A reader never observes a partial file: it sees either the previous
    content or the new one, across crashes and power loss.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp",
                               dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    # Durable rename: flush the parent directory's entry table.  Some
    # filesystems refuse O_RDONLY directory fsyncs; degrade silently —
    # the rename is still atomic, just not power-loss-durable there.
    try:
        dfd = os.open(path.parent, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dfd)
    except OSError:
        pass
    finally:
        os.close(dfd)
