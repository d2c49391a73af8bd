"""Crash-safe text-file writes.

:func:`atomic_write_text` is the single write primitive shared by everything
that persists JSON to disk — the artifact store's objects, journal and index,
and the benchmark ``BENCH_*.json`` snapshots.  It lives in :mod:`repro.io`
because it has no store-specific behaviour.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["atomic_write_text"]


def _fsync_dir(path: Path) -> None:
    """Flush a directory entry to disk (so a rename survives power loss)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # e.g. a filesystem that cannot open directories
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: Path, payload: str) -> None:
    """Write ``payload`` to ``path`` via a same-directory temp file + replace.

    The temp file is flushed and fsync'd before the replace and the parent
    directory is fsync'd after, so a crash at any instant leaves either the
    old file or the complete new one — never a truncated or empty object.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
        _fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
