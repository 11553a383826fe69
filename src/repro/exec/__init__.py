"""Execution backends: serial and partition-parallel kernel drivers.

See :mod:`repro.exec.backend` for the backend interface,
:mod:`repro.exec.partitioned` for the Eq. 28-partitioned thread-pool
implementation and :mod:`repro.exec.threads` for the thread budget that
keeps its workers' BLAS threads within the cores.  Exports are resolved lazily (PEP 562) so that
:mod:`repro.core.kernels` can import :mod:`repro.exec.plan_cache` without
creating an import cycle through the backend modules.
"""

from __future__ import annotations

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "PartitionedBackend",
    "make_backend",
    "available_backends",
    "OperatorPlan",
    "PlanCache",
    "get_plan_cache",
    "clear_plan_cache",
    "mesh_fingerprint",
    "plan_key",
]

_BACKEND_NAMES = {"ExecutionBackend", "SerialBackend", "make_backend",
                  "available_backends"}
_CACHE_NAMES = {
    "OperatorPlan", "PlanCache", "get_plan_cache", "clear_plan_cache",
    "mesh_fingerprint", "plan_key",
}


def __getattr__(name: str):
    if name in _BACKEND_NAMES:
        from . import backend

        return getattr(backend, name)
    if name == "PartitionedBackend":
        from .partitioned import PartitionedBackend

        return PartitionedBackend
    if name in _CACHE_NAMES:
        from . import plan_cache

        return getattr(plan_cache, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
