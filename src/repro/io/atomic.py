"""Atomic file publication: readers see the old file or the new one.

Every artifact a crash may interrupt — checkpoints, member result files,
diagnostic bundles, fleet exporters, bench histories — is written through
:func:`atomic_write`: a temp file in the target directory (pid-keyed, so
concurrent ensemble workers never collide), then write, flush, ``fsync``
and ``os.replace``.  Without the ``fsync`` a host crash right after the
rename can leave the new name pointing at an empty file.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager

__all__ = ["atomic_write"]


@contextmanager
def atomic_write(path: str, mode: str = "w"):
    """Open a temp file next to ``path`` for writing (``mode`` ``"w"`` or
    ``"wb"``); on a clean exit flush, ``fsync`` and ``os.replace`` it onto
    ``path``.  On any exception the temp file is unlinked, ``path`` is
    left untouched, and the exception propagates."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.{os.getpid()}.",
        suffix=".tmp")
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
