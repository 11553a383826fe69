"""Work units: the precompiled slice of the mesh one corrector call updates.

An LTS cluster (one per micro-step) or a partition (one per worker) is
compiled once, at setup, into a :class:`WorkUnit`: the global ids it
updates (``owned``) and only reads (``halo``), whose concatenation
``cells`` is its local numbering; a lean
:meth:`~repro.core.kernels.SpatialOperator.restricted` operator over
``cells``, holding the contiguous ``starT`` of the owned elements, whose
residual has one row per owned element; its gravity, prescribed-motion
and fault face indices; and ``rows``, the map from a
global element id to its residual row (``None``: the global id).  Point
sources are matched through ``rows`` at each call, so sources added
after compilation count.  Under the partitioned backend a unit holds one
sub-unit per partition (``parts``) instead of an operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["WorkUnit", "halo_of", "row_map", "build_unit",
           "add_face_fluxes", "add_sources"]


@dataclass(eq=False)
class WorkUnit:
    """One compiled corrector/predictor work item (see module docstring)."""

    owned: np.ndarray
    halo: np.ndarray
    op: object | None
    rows: np.ndarray | None
    gravity_faces: np.ndarray | None
    motion_faces: np.ndarray | None
    fault_faces: np.ndarray | None
    #: LTS: source cluster -> (slice of ``cells``, global ids)
    halo_groups: dict = field(default_factory=dict)
    #: LTS: owned rows whose window integrals coarser clusters consume
    export_rows: np.ndarray | None = None
    #: partitioned: per-partition sub-units
    parts: tuple = ()
    #: sub-units: rows of the parent's ``cells`` gathered, and of the
    #: parent's residual written
    src_rows: np.ndarray | None = None
    out_rows: np.ndarray | None = None
    part_id: int = -1
    #: sub-units: predictor scratch (only ever a prior predict_states
    #: result for this part; one worker task per part, no sharing)
    ck_scratch: np.ndarray | None = None

    def __post_init__(self):
        self.cells = np.concatenate([self.owned, self.halo])

    @property
    def n_owned(self) -> int:
        return len(self.owned)

    @property
    def n_halo(self) -> int:
        return len(self.halo)


def halo_of(mesh, owned_mask: np.ndarray) -> np.ndarray:
    """Sorted far-side elements of every interior face with exactly one
    side in ``owned_mask``."""
    em, ep = mesh.interior.minus_elem, mesh.interior.plus_elem
    halo = np.zeros(len(owned_mask), dtype=bool)
    halo[ep[owned_mask[em] & ~owned_mask[ep]]] = True
    halo[em[owned_mask[ep] & ~owned_mask[em]]] = True
    return np.flatnonzero(halo)


def row_map(n_elements: int, owned: np.ndarray) -> np.ndarray:
    """Global element id -> position in ``owned`` (-1 elsewhere)."""
    rows = np.full(n_elements, -1, dtype=np.int64)
    rows[owned] = np.arange(len(owned))
    return rows


def build_unit(solver, owned: np.ndarray, halo: np.ndarray,
               rows: np.ndarray | None, **fields) -> WorkUnit:
    """Compile the unit updating ``owned`` and reading ``halo``."""
    mask = np.zeros(solver.mesh.n_elements, dtype=bool)
    mask[owned] = True
    motion, fault = solver.motion, solver.fault
    return WorkUnit(
        owned=owned,
        halo=halo,
        op=solver.op.restricted(np.concatenate([owned, halo]), len(owned)),
        rows=rows,
        gravity_faces=np.flatnonzero(mask[solver.gravity.elem]),
        motion_faces=None if motion is None else np.flatnonzero(mask[motion.elem]),
        fault_faces=None if fault is None else np.flatnonzero(mask[fault.em]),
        **fields,
    )


def add_face_fluxes(solver, derivs, dt, t0, out, unit=None, rows=None) -> None:
    """Gravity, prescribed-motion and fault fluxes of ``unit``'s faces
    (every face without a unit), in the residual order of the serial
    corrector; ``rows`` maps global element ids to rows of ``out``."""
    gravity, motion, fault = (None,) * 3 if unit is None else (
        unit.gravity_faces, unit.motion_faces, unit.fault_faces)
    if gravity is None or len(gravity):
        solver.gravity.step(derivs, dt, out, faces=gravity, rows=rows)
    if solver.motion is not None and (motion is None or len(motion)):
        solver.motion.step(derivs, dt, out, t0=t0, faces=motion, rows=rows)
    if solver.fault is not None and (fault is None or len(fault)):
        solver.fault.step(derivs, dt, out, faces=fault, t0=t0, rows=rows)


def add_sources(solver, out, t0, dt, rows=None) -> None:
    """Point sources whose element has a row of ``out``."""
    for s in solver.sources:
        row = s._elem if rows is None else int(rows[s._elem])
        if row >= 0:
            s.add(out, t0, dt, row=row)
