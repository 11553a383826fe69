"""Clustered rate-2 local time-stepping (paper Sec. 4.4).

Elements are grouped into clusters with timestep ``2^c * dt_min``; the
cluster assignment is *normalized* so neighboring elements differ by at most
one level (SeisSol's constraint, which keeps the flux exchange simple and
the loops batched).  Fault faces and their two adjacent elements are forced
into a common cluster.

Flux exchange across cluster boundaries exploits the polynomial-in-time
ADER predictor (the property the paper highlights as making LTS "easy and
efficient" with ADER):

* a neighbor in a *coarser* cluster predicted earlier with a longer window;
  its Taylor expansion is simply integrated over the fine element's
  sub-window;
* a neighbor in a *finer* cluster accumulates its completed window integrals
  into a buffer which the coarse element consumes at its next corrector —
  SeisSol's buffer mechanism.

The update order is the canonical event-driven one: a cluster may step
when (i) every coarser neighboring cluster's Taylor expansion covers the
step window and (ii) every finer neighboring cluster has completed the
window (buffer full).  Because that cadence is static, it is compiled
once into a :class:`~repro.sched.StepPlan` and replayed by the shared
:class:`~repro.sched.Scheduler`; this module only owns the *clustering*
(assignment, normalization, statistics) and the driver facade.
"""

from __future__ import annotations

import numpy as np

from ..exec.unit import halo_of
from ..sched import HookBus, Scheduler
from .cfl import element_timesteps

__all__ = ["cluster_elements", "lts_statistics", "LocalTimeStepping"]


def cluster_elements(
    mesh, order: int, rate: int = 2, safety: float = 0.35, max_cluster: int | None = None
):
    """Assign every element to an LTS cluster.

    Returns ``(cluster_id, dt_min)`` where cluster ``c`` advances with
    ``rate^c * dt_min``.  Normalization enforces (a) neighbor clusters
    differing by at most one level and (b) both sides of a dynamic-rupture
    fault face sharing a cluster.
    """
    dts = element_timesteps(mesh, order, safety)
    dt_min = float(dts.min())
    cluster = np.floor(np.log(dts / dt_min) / np.log(rate) + 1e-12).astype(np.int64)
    if max_cluster is not None:
        cluster = np.minimum(cluster, max_cluster)

    em = mesh.interior.minus_elem
    ep = mesh.interior.plus_elem
    fault = mesh.interior.is_fault
    # iterate to the fixed point: cluster ids only decrease and are bounded
    # below by 0, so this terminates; the number of sweeps needed can reach
    # the graph diameter (e.g. equality constraints chained along a fault)
    for _ in range(mesh.n_elements + 1):
        before = cluster.copy()
        if fault.any():
            lo = np.minimum(cluster[em[fault]], cluster[ep[fault]])
            np.minimum.at(cluster, em[fault], lo)
            np.minimum.at(cluster, ep[fault], lo)
        np.minimum.at(cluster, em, cluster[ep] + 1)
        np.minimum.at(cluster, ep, cluster[em] + 1)
        if (cluster == before).all():
            break
    else:
        raise RuntimeError("LTS cluster normalization failed to converge")
    return cluster, dt_min


def lts_statistics(cluster: np.ndarray, rate: int = 2) -> dict:
    """Histogram and update-reduction factor of a clustering (cf. Fig. 4).

    The speedup factor compares the number of element updates needed to
    advance one macro step with LTS against global time-stepping at
    ``dt_min``.
    """
    cmax = int(cluster.max())
    counts = np.bincount(cluster, minlength=cmax + 1)
    updates_lts = sum(int(n) * rate ** (cmax - c) for c, n in enumerate(counts))
    updates_gts = int(cluster.size) * rate**cmax
    return {
        "counts": counts,
        "dt_factors": [rate**c for c in range(cmax + 1)],
        "updates_lts": updates_lts,
        "updates_gts": updates_gts,
        "speedup": updates_gts / max(updates_lts, 1),
    }


class LocalTimeStepping:
    """LTS driver wrapping a :class:`~repro.core.solver.CoupledSolver`.

    Reuses the solver's spatial operator, gravity boundary, fault solver and
    sources; only the time-marching differs.  Construction compiles every
    cluster, once, into a :class:`~repro.exec.unit.WorkUnit` of the
    solver's backend (``units[c]``): its owned elements, its halo grouped
    by source cluster, a lean restricted operator over the owned sides of
    its faces and its gravity/motion/fault faces.
    """

    def __init__(self, solver, rate: int = 2, max_cluster: int | None = None):
        self.solver = solver
        self.op = solver.op
        self.backend = solver.backend
        mesh = solver.mesh
        self.rate = rate
        self.cluster, self.dt_min = cluster_elements(
            mesh, solver.order, rate, solver.cfl_safety, max_cluster
        )
        self.cmax = int(self.cluster.max())
        self.n_clusters = nc = self.cmax + 1
        cluster = self.cluster
        self.elem_count = np.bincount(cluster, minlength=nc)

        # halo of every cluster, sorted by (source cluster, id) so each
        # source cluster's rows form one slice of the unit's cells
        owned = [np.flatnonzero(cluster == c) for c in range(nc)]
        halos = [h[np.argsort(cluster[h], kind="stable")]
                 for h in (halo_of(mesh, cluster == c) for c in range(nc))]
        # clusters sharing a face are exactly those in each other's halo
        self.adjacent = [set(cluster[h].tolist()) for h in halos]
        # elements a coarser neighbor reads from their cluster's
        # accumulated-window buffer
        em, ep = mesh.interior.minus_elem, mesh.interior.plus_elem
        export = np.zeros(mesh.n_elements, dtype=bool)
        export[em[cluster[em] < cluster[ep]]] = True
        export[ep[cluster[ep] < cluster[em]]] = True
        self.units = []
        for c in range(nc):
            n, src = len(owned[c]), cluster[halos[c]]
            groups = {}
            for cn in self.adjacent[c]:
                lo, hi = np.searchsorted(src, [cn, cn + 1])
                groups[cn] = (slice(n + lo, n + hi), halos[c][lo:hi])
            self.units.append(self.backend.compile_unit(
                owned[c], halos[c], halo_groups=groups,
                export_rows=np.flatnonzero(export[owned[c]])))
        self.updates = np.zeros(nc, dtype=np.int64)

    def statistics(self) -> dict:
        return lts_statistics(self.cluster, self.rate)

    # ------------------------------------------------------------------
    def run(
        self,
        t_end: float,
        callback=None,
        dt_scale: float = 1.0,
        hooks=None,
    ) -> None:
        """Advance all clusters to exactly ``t_end``.

        Thin adapter over the compiled step-plan scheduler
        (:mod:`repro.sched`): the full micro-step cadence is compiled once
        from ``(n_clusters, rate, n_macro)`` (cached by fingerprint) and
        replayed — no per-micro-step eligibility scan.  ``dt_min`` is
        shrunk slightly so that the macro timestep divides the remaining
        time (keeps the rate synchronization invariants intact).
        ``callback(solver)`` fires at every macro-step synchronization
        point (all clusters aligned), with ``solver.t`` set to that time;
        a :class:`~repro.sched.HookBus` passed as ``hooks`` subscribes to
        the full event stream.  ``dt_scale`` (in (0, 1]) uniformly shrinks
        every cluster timestep — the hook
        :class:`~repro.core.resilience.ResilientRunner` uses for
        dt-backoff recovery.
        """
        bus = HookBus()
        if callback is not None:
            bus.on_sync(callback)
        bus.extend(hooks)
        Scheduler(self.solver, lts=self).run(t_end, dt_scale=dt_scale, hooks=bus)
