"""Partition-parallel execution of the ADER-DG kernels (paper Sec. 5).

The mesh is split with the existing graph partitioner
(:mod:`repro.hpc.partition`) under the LTS/rupture/gravity vertex weights
of paper Eq. 28, exactly the pipeline SeisSol feeds to ParMETIS.  Each
partition gets

* the **owned** elements it updates,
* a one-element **halo** layer (the neighbors across cut faces whose
  time-integrated predictor its face kernels read), and
* a :class:`~repro.exec.unit.WorkUnit` compiled over both (as is every
  LTS cluster, once per partition: :meth:`PartitionedBackend.compile_unit`).

A step then runs in two phases with a barrier between them:

1. **predict** — every partition computes the Cauchy-Kowalewski predictor
   of its owned elements (disjoint writes into the global array);
2. **correct** — every partition *gathers* the time-integrated predictor
   of its owned + halo elements (this copy is the halo exchange: in a
   distributed run it would be the MPI message), runs its restricted
   volume/face kernels, writes its owned residual rows, and applies the
   gravity / prescribed-motion / fault modules of its owned faces.

All writes target disjoint rows, so the result is independent of
thread scheduling; the workers run concurrently because NumPy releases
the GIL inside the batched GEMMs, and they split the caller's BLAS
threads between them (:mod:`repro.exec.threads`).  The dynamic-rupture
fault is kept whole-fault atomic (every fault-adjacent element in one
partition, a stronger form of the LTS cluster-equalization constraint)
because the fault solver writes flux into both sides of each face at
once and its friction laws may carry per-face parameter arrays.
"""

from __future__ import annotations

import time as _time
from functools import cached_property

import numpy as np

from ..core.ader import taylor_integrate
from ..core.lts import cluster_elements
from ..hpc.partition import edge_cut, eq28_vertex_weights, imbalance, partition_mesh
from ..obs.metrics import get_metrics
from .backend import ExecutionBackend
from .threads import blas_limit, blas_threads
from .unit import (
    WorkUnit,
    add_face_fluxes,
    add_sources,
    build_unit,
    halo_of,
    row_map,
)

__all__ = ["PartitionedBackend", "fault_atomic_partition"]

_MET = get_metrics()


def fault_atomic_partition(mesh, parts: np.ndarray) -> np.ndarray:
    """Move every fault-adjacent element into one common partition.

    The fault solver writes flux into *both* sides of every fault face in
    one call, and friction laws may carry per-face parameter arrays (e.g.
    the Scenario-A near-seafloor strengthening) that are only consistent
    when the whole fault steps together.  So the entire fault — not just
    each face pair — is pulled into the smallest touching partition id:
    exactly one worker then calls ``fault.step``, with the same full-fault
    view the serial backend has.  The cost is some load imbalance around
    the rupture, which the Eq. 28 weights already bias against.
    """
    fault = mesh.interior.is_fault
    if not fault.any():
        return parts
    parts = parts.copy()
    ids = np.unique(np.concatenate([
        mesh.interior.minus_elem[fault], mesh.interior.plus_elem[fault]
    ]))
    parts[ids] = parts[ids].min()
    return parts


class PartitionedBackend(ExecutionBackend):
    """Thread-pool execution over Eq. 28-weighted mesh partitions.

    Parameters
    ----------
    workers:
        Thread-pool size; also the default partition count.
    n_parts:
        Number of partitions (defaults to ``workers``).  More partitions
        than workers is legal (they are processed in turn).
    refine:
        Run the boundary refinement pass of the partitioner (smaller edge
        cut, slightly slower setup).
    """

    name = "partitioned"

    def __init__(self, workers: int = 2, n_parts: int | None = None, refine: bool = True):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self.n_parts = self.workers if n_parts is None else int(n_parts)
        if self.n_parts < 1:
            raise ValueError("n_parts must be >= 1")
        self.refine = refine
        self._pool = None
        self._derivs_scratch = None
        self.halo_exchanges = 0

    # ------------------------------------------------------------------
    def bind(self, solver) -> None:
        self.solver = solver
        mesh = solver.mesh
        n_parts = min(self.n_parts, mesh.n_elements)
        cluster, _ = cluster_elements(mesh, solver.order, safety=solver.cfl_safety)
        weights = eq28_vertex_weights(mesh, cluster)
        parts = partition_mesh(mesh, n_parts, weights, refine=self.refine)
        parts = fault_atomic_partition(mesh, parts)
        self.parts = parts
        self._imbalance = imbalance(parts, weights) if n_parts > 1 else 1.0
        self._edge_cut = edge_cut(parts, mesh.dual_graph_edges())
        # (owned, halo) sizes per partition for stats(), without compiling
        self._sizes = [(int((parts == p).sum()), len(halo_of(mesh, parts == p)))
                       for p in np.unique(parts)]

    @cached_property
    def full(self) -> WorkUnit:
        """The whole mesh as one unit, one part per partition (GTS work);
        compiled on first use, so an LTS run never holds it."""
        ne = self.solver.mesh.n_elements
        return self.compile_unit(np.arange(ne), np.zeros(0, np.int64))

    @property
    def plans(self) -> list[WorkUnit]:
        return list(self.full.parts)

    def compile_unit(self, owned, halo, **fields) -> WorkUnit:
        """A unit whose work is split into one sub-unit per partition.

        Each part owns the unit's elements in its partition and reads the
        far side of its cut faces, all of them among the unit's ``cells``;
        ``src_rows``/``out_rows`` locate it in the unit's window buffer and
        residual."""
        solver = self.solver
        ne = solver.mesh.n_elements
        whole_mesh = len(owned) == ne
        unit = WorkUnit(owned=owned, halo=halo, op=None,
                        rows=None if whole_mesh else row_map(ne, owned),
                        gravity_faces=None, motion_faces=None,
                        fault_faces=None, **fields)
        pos = row_map(ne, unit.cells)
        parts = []
        for p in np.unique(self.parts[owned]):
            sub = owned[self.parts[owned] == p]
            mask = np.zeros(ne, dtype=bool)
            mask[sub] = True
            part = build_unit(solver, sub, halo_of(solver.mesh, mask), None,
                              part_id=int(p))
            part.src_rows = pos[part.cells]
            if (part.src_rows < 0).any():
                raise ValueError("a partition's halo leaves its unit's cells")
            part.out_rows = sub if whole_mesh else unit.rows[sub]
            parts.append(part)
        unit.parts = tuple(parts)
        return unit

    # ------------------------------------------------------------------
    def _run(self, fn, plans=None) -> None:
        plans = self.plans if plans is None else plans
        concurrent = min(self.workers, len(plans))
        if concurrent <= 1:
            for plan in plans:
                fn(plan)
            return
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            )
        # thread budget (repro.exec.threads): the workers share the BLAS
        # threads this thread has; set here, around the whole region,
        # because the OpenBLAS count is process-global
        with blas_limit(max(1, (blas_threads() or 1) // concurrent)):
            # list() propagates the first worker exception to the caller
            list(self._pool.map(fn, plans))

    # ------------------------------------------------------------------
    def predict(self, Q: np.ndarray) -> np.ndarray:
        op = self.solver.op
        # every row is owned by exactly one partition, so the buffer is
        # fully overwritten each call and can be reused across steps
        derivs = self._derivs_scratch
        shape = (len(Q), op.order + 1, op.nbasis, 9)
        if derivs is None or derivs.shape != shape:
            derivs = self._derivs_scratch = np.empty(shape)
        def work(part):
            # a trace-only span: the predictor's time is the "predict" phase
            with _MET.span("worker/predict", part=part.part_id,
                           owned=part.n_owned):
                part.ck_scratch = op.predict_states(
                    Q[part.owned], part.op.starT, out=part.ck_scratch)
                derivs[part.owned] = part.ck_scratch

        with _MET.phase("predict"):
            if _MET.enabled:
                _MET.inc("elem_updates/predictor", len(Q))
            self._run(work)
        return derivs

    def update_predictor(self, Q, unit, dt, derivs, Iown) -> None:
        op = self.solver.op
        def work(part):
            with _MET.span("worker/predict", part=part.part_id,
                           owned=part.n_owned):
                new_derivs = op.predict_states(Q[part.owned], part.op.starT)
                derivs[part.owned] = new_derivs
                Iown[part.out_rows] = taylor_integrate(new_derivs, 0.0, dt)

        with _MET.phase("predict"):
            if _MET.enabled:
                _MET.inc("elem_updates/predictor", unit.n_owned)
            self._run(work, unit.parts)

    def corrector(self, I, derivs, dt, t0, unit=None) -> np.ndarray:
        solver = self.solver
        unit = self.full if unit is None else unit
        # every owned row is written by exactly one part
        R = np.empty((unit.n_owned, solver.op.nbasis, 9))
        rows = unit.rows

        profiled = _MET.enabled

        def work(part):
            # halo exchange: gather the time-integrated predictor of the
            # owned elements plus the one-element halo layer
            t_gather = _time.perf_counter() if profiled else 0.0
            Iloc = I[part.src_rows]
            if profiled:
                t_compute = _time.perf_counter()
                _MET.interval(f"worker/p{part.part_id}/halo_gather",
                              t_gather, t_compute, part=part.part_id,
                              halo=part.n_halo)
            R[part.out_rows] = part.op.apply(Iloc)
            add_face_fluxes(solver, derivs, dt, t0, R, part, rows)
            if profiled:
                _MET.interval(f"worker/p{part.part_id}/compute", t_compute,
                              _time.perf_counter(), part=part.part_id,
                              owned=part.n_owned)

        with _MET.phase("corrector"):
            if _MET.enabled:
                _MET.inc("elem_updates/corrector", unit.n_owned)
            self._run(work, unit.parts)
        self.halo_exchanges += 1
        # point sources are few and cheap: applied once, after the barrier
        add_sources(solver, R, t0, dt, rows)
        return R

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __del__(self):  # pragma: no cover - interpreter teardown path
        try:
            self.close()
        except Exception:
            pass

    def stats(self) -> dict:
        return {
            "backend": self.name,
            "workers": self.workers,
            "n_parts": len(self._sizes),
            "owned": [owned for owned, _ in self._sizes],
            "halo": [halo for _, halo in self._sizes],
            "imbalance": self._imbalance,
            "edge_cut": self._edge_cut,
            "halo_exchanges": self.halo_exchanges,
        }

    def describe(self) -> str:
        return f"partitioned(workers={self.workers}, parts={len(self._sizes)})"
