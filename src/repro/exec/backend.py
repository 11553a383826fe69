"""Execution backends: who runs the ADER-DG kernels, and how.

The time-marching drivers (:class:`~repro.core.solver.CoupledSolver` for
global time-stepping, :class:`~repro.core.lts.LocalTimeStepping` for
clustered LTS, :class:`~repro.core.resilience.ResilientRunner` on top of
either) are *schedulers*: they decide which elements advance over which
window.  A backend executes the three phases of one window:

1. ``predict``/``update_predictor`` — the element-local Cauchy-Kowalewski
   predictor (embarrassingly parallel over elements);
2. ``corrector`` — volume + face kernels plus the gravity / prescribed-
   motion / fault / source modules, for the whole mesh or for one
   compiled :class:`~repro.exec.unit.WorkUnit` (one per LTS cluster);
3. the halo exchange between the two (a no-op in shared memory for the
   serial backend; an explicit owned+halo gather for the partitioned one).

:class:`SerialBackend` reproduces the original single-sweep execution
path call for call — bit for bit — and is the default.
:class:`~repro.exec.partitioned.PartitionedBackend` splits the mesh with
the Eq. 28-weighted graph partitioner and runs the same phases
concurrently over the partitions.
"""

from __future__ import annotations

import numpy as np

from ..core.ader import taylor_integrate
from ..obs.metrics import get_metrics
from .unit import add_face_fluxes, add_sources, build_unit, row_map

__all__ = ["ExecutionBackend", "SerialBackend", "make_backend",
           "available_backends"]

_MET = get_metrics()


class ExecutionBackend:
    """Interface shared by all execution backends.

    A backend is bound to exactly one solver (:meth:`bind` is called at the
    end of ``CoupledSolver.__init__``) and holds **no time-marching state**:
    checkpoint/restore and rollback never need to touch it.
    """

    name = "abstract"

    def bind(self, solver) -> None:
        self.solver = solver

    # -- predictor ------------------------------------------------------
    def predict(self, Q: np.ndarray) -> np.ndarray:
        """Cauchy-Kowalewski derivatives of all elements, ``(ne, N+1, B, 9)``."""
        raise NotImplementedError

    def compile_unit(self, owned: np.ndarray, halo: np.ndarray,
                     **fields):
        """Compile the :class:`~repro.exec.unit.WorkUnit` updating the
        sorted global ids ``owned`` and reading ``halo`` (called once per
        LTS cluster at setup; ``fields`` are the scheduler's own)."""
        raise NotImplementedError

    def update_predictor(
        self, Q: np.ndarray, unit, dt: float,
        derivs: np.ndarray, Iown: np.ndarray,
    ) -> None:
        """Refresh ``derivs`` of ``unit``'s owned elements from ``Q`` and
        store their Taylor window integral over ``[0, dt]`` into ``Iown``
        (one row per owned element; LTS)."""
        raise NotImplementedError

    # -- corrector ------------------------------------------------------
    def corrector(
        self, I: np.ndarray, derivs: np.ndarray, dt: float, t0: float,
        unit=None,
    ) -> np.ndarray:
        """Residual of one window: kernels + boundary modules + sources.

        Without a ``unit``, ``I`` is the time-integrated predictor of every
        element and the residual covers the whole mesh.  With one, ``I``
        is in the unit's owned-then-halo numbering (for LTS the scheduler
        assembles the halo rows) and the residual has one row per owned
        element.  The scheduler accumulates it into ``Q``.
        """
        raise NotImplementedError

    # -- housekeeping ---------------------------------------------------
    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def stats(self) -> dict:
        return {"backend": self.name}

    def describe(self) -> str:
        return self.name


class SerialBackend(ExecutionBackend):
    """The original whole-mesh execution path, unchanged call for call,
    plus one compiled work unit per LTS cluster."""

    name = "serial"

    #: last full-mesh derivative buffer, handed back to the fused
    #: predictor as scratch — only ever an array `op.predict` itself
    #: returned, so its truncated-mode zeros are intact (see fused_ck)
    _ck_scratch = None

    def predict(self, Q: np.ndarray) -> np.ndarray:
        with _MET.phase("predict"):
            if _MET.enabled:
                _MET.inc("elem_updates/predictor", len(Q))
            self._ck_scratch = self.solver.op.predict(
                Q, out=self._ck_scratch)
            return self._ck_scratch

    def compile_unit(self, owned, halo, **fields):
        solver = self.solver
        return build_unit(solver, owned, halo,
                          row_map(solver.mesh.n_elements, owned), **fields)

    def update_predictor(self, Q, unit, dt, derivs, Iown) -> None:
        with _MET.phase("predict"):
            if _MET.enabled:
                _MET.inc("elem_updates/predictor", unit.n_owned)
            new_derivs = self.solver.op.predict_states(Q[unit.owned],
                                                       unit.op.starT)
            derivs[unit.owned] = new_derivs
            Iown[...] = taylor_integrate(new_derivs, 0.0, dt)

    def corrector(self, I, derivs, dt, t0, unit=None) -> np.ndarray:
        if _MET.enabled:
            _MET.inc("elem_updates/corrector",
                     len(I) if unit is None else unit.n_owned)
        solver = self.solver
        rows = None if unit is None else unit.rows
        with _MET.phase("corrector"):
            out = (solver.op if unit is None else unit.op).apply(I)
            add_face_fluxes(solver, derivs, dt, t0, out, unit, rows)
            add_sources(solver, out, t0, dt, rows)
        return out


def available_backends() -> tuple[str, ...]:
    return ("serial", "partitioned")


def make_backend(backend="serial", workers: int | None = None) -> ExecutionBackend:
    """Resolve a backend spec (name or instance) to a backend object.

    ``backend`` may be an :class:`ExecutionBackend` instance (returned
    as-is; ``workers`` must then be ``None``), ``"serial"`` or
    ``"partitioned"``.  ``workers`` only applies to the partitioned
    backend (default: 2).
    """
    if isinstance(backend, ExecutionBackend):
        if workers is not None:
            raise ValueError("workers= only applies when backend is given by name")
        return backend
    if backend is None or backend == "serial":
        if workers not in (None, 1):
            raise ValueError("the serial backend runs with exactly one worker")
        return SerialBackend()
    if backend == "partitioned":
        from .partitioned import PartitionedBackend

        return PartitionedBackend(workers=2 if workers is None else workers)
    raise ValueError(
        f"unknown backend {backend!r} (available: {', '.join(available_backends())})"
    )
