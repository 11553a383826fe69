"""One thread budget: processes × partition workers × BLAS threads ≤ cores.

The paper's node layout (Sec. 5.1–5.2) gives every busy thread its own
core.  Here the program goes parallel in two places — spawned ensemble
members (:func:`repro.ensemble.worker.child_main`) and the partitioned
backend's thread pool (:meth:`PartitionedBackend._run
<repro.exec.partitioned.PartitionedBackend._run>`) — and each of them calls
an OpenBLAS that by default starts one thread per CPU.  Both places divide
the BLAS threads they inherit by their own concurrency around the parallel
region only, so the budget composes (a partitioned member divides its
member's share again) and needs no option of its own:

* :func:`host_cores` — the CPUs this process may run on (its affinity
  mask, which honours cpusets and ``taskset``; ``os.cpu_count()`` does not);
* :func:`blas_threads` — the current OpenBLAS thread count;
* :func:`blas_limit` — lower every loaded OpenBLAS to ``min(n, current)``
  for a block and restore it afterwards.  It never raises a count, so a
  user's ``OPENBLAS_NUM_THREADS`` stays an upper bound.

OpenBLAS has no per-thread control: ``openblas_set_num_threads_local`` is
process-global as well.  So the limit is set by the thread that starts the
parallel region, around the whole region, and restored after the join;
worker threads never set it.  Setup and serial runs stay outside any
limit and keep the full count.

The libraries are found once, through the ``/proc/self/maps`` entries of
the process (numpy's ``libscipy_openblas64_`` and scipy's
``libscipy_openblas`` are both loaded by ``import repro``), and their
getter/setter handles are cached.  Without an OpenBLAS (or without
``/proc``) :func:`blas_threads` is ``None`` and :func:`blas_limit` is a
no-op.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from typing import NamedTuple

__all__ = ["host_cores", "blas_library", "blas_threads", "blas_limit"]

#: (getter, setter) symbol pairs, ILP64 (numpy's) interface first
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class _OpenBLAS(NamedTuple):
    name: str      # library basename
    rank: int      # index of its symbol pair in _SYMBOLS
    get: object
    set: object


#: the loaded OpenBLAS libraries, found on first use
_LIBS: list[_OpenBLAS] | None = None


def host_cores() -> int:
    """CPUs this process may run on: its affinity mask, else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _discover() -> list[_OpenBLAS]:
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    libs = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for rank, (get_sym, set_sym) in enumerate(_SYMBOLS):
            get = getattr(lib, get_sym, None)
            set_ = getattr(lib, set_sym, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                libs.append(_OpenBLAS(os.path.basename(path), rank, get, set_))
                break
    return sorted(libs, key=lambda lib: lib.rank)


def _openblas() -> list[_OpenBLAS]:
    global _LIBS
    if _LIBS is None:
        _LIBS = _discover()
    return _LIBS


def blas_library() -> str | None:
    """Basename of the OpenBLAS numpy calls (``None`` without one)."""
    libs = _openblas()
    return libs[0].name if libs else None


def blas_threads() -> int | None:
    """Current thread count of the OpenBLAS numpy calls (``None`` without one)."""
    libs = _openblas()
    return int(libs[0].get()) if libs else None


@contextmanager
def blas_limit(n: int):
    """Lower every loaded OpenBLAS to ``min(n, current)`` threads for the
    block, restoring each library's own count on exit.

    The count is process-global: call this from the thread that starts a
    parallel region, never from its workers.
    """
    n = max(1, int(n))
    saved = []
    try:
        for lib in _openblas():
            old = int(lib.get())
            if n < old:
                lib.set(n)
                saved.append((lib, old))
        yield
    finally:
        for lib, old in reversed(saved):
            lib.set(old)
