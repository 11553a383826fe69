"""The four named runs of the performance ledger and how each is built.

Every workload is built through registered ensemble scenario builders
(``repro.ensemble.MemberSpec``), so the run seed reaches the program only as
the builders' own jitter: source position and moment for the quickstart
boxes, nucleation overstress for ``scenario_a``, hypocenter along strike for
``palu``.  Run lengths are chosen so one run, measured from process start,
takes a few seconds on a 2-CPU host: several runs fit in one measurement
window and their median is steady.

Why each workload exists, which layer it stresses and which it bypasses is
recorded in ``BENCHMARK.json`` next to the metric definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Workload", "WORKLOADS", "PALU_LITE", "build_handle", "member_specs"]

#: the coarsened Palu discretization of ``examples/palu_ensemble.py``
#: (about 4,680 elements in 3 LTS clusters)
PALU_LITE = {"dx_fine": 700.0, "dx_coarse": 1400.0, "n_earth_layers": 4,
             "earth_depth": 2400.0}


@dataclass(frozen=True)
class Workload:
    name: str
    #: registered ``MemberSpec`` builder name
    builder: str
    #: builder perturbation (config-field overrides)
    perturb: dict = field(default_factory=dict)
    #: simulated seconds marched by one run (one member for ensembles)
    t_end: float = 0.1
    backend: str = "serial"
    #: partition threads of the execution backend (``None``: serial)
    workers: int | None = None
    #: clustered local time stepping instead of global time stepping
    lts: bool = False
    #: the scenario has a dynamic-rupture fault (seismic moment is checked)
    fault: bool = False
    #: supervised ensemble size; 0 runs one solver in the driver's child
    members: int = 0
    #: spawned ensemble worker processes
    ensemble_workers: int = 0
    #: simulated seconds between member checkpoints
    checkpoint_every: float | None = None
    #: modules a run imports before its set-up starts: ``repro`` plus what
    #: this workload's builder, backend and time stepping use.  Modules the
    #: program imports lazily are left to set-up, as they are for a user.
    imports: tuple = ("repro.ensemble", "repro.sched")


WORKLOADS = {w.name: w for w in (
    # the layered Earth-ocean box of examples/quickstart.py: order 2, point
    # source, gravity surface, global time stepping (8 x 8 x 5 cells)
    Workload("quickstart_gts", "quickstart_example", t_end=0.15),
    # Palu-lite under clustered LTS with rate-and-state friction
    Workload("palu_lts", "palu", perturb=dict(PALU_LITE), t_end=0.1,
             lts=True, fault=True,
             imports=("repro.ensemble", "repro.sched", "repro.core.lts",
                      "repro.scenarios.palu")),
    # Scenario A as `repro scenario-a --backend partitioned --workers 2`
    # marches it: LTS, linear-slip-weakening rupture, 2 partition threads
    Workload("scenario_a_part2", "scenario_a", t_end=0.2,
             backend="partitioned", workers=2, lts=True, fault=True,
             imports=("repro.ensemble", "repro.sched", "repro.core.lts",
                      "repro.scenarios.scenario_a", "repro.exec.partitioned")),
    # two small quickstart members under the supervisor, checkpoints on
    Workload("ensemble_pair", "quickstart", t_end=0.8, members=2,
             ensemble_workers=2, checkpoint_every=0.2,
             imports=("repro.ensemble",)),
)}


def quickstart_example_builder(perturb: dict, seed: int, backend: str = "serial",
                               workers: int | None = None):
    """The domain and source of ``examples/quickstart.py`` (1,920 elements
    down to 2 km), with the ``quickstart`` builder's seed jitter: source
    position within 20 % of the extent around the example's, moment
    within 10 %.  The registered ``quickstart`` builder uses a shallower,
    coarser box (1,152 elements for 8 x 8 cells), so it cannot stand in."""
    import numpy as np

    from repro.core.materials import acoustic, elastic
    from repro.core.solver import (
        CoupledSolver,
        PointSource,
        ocean_surface_gravity_tagger,
    )
    from repro.ensemble import ScenarioHandle
    from repro.mesh.generators import layered_ocean_mesh

    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 4000.0, 9)
    mesh = layered_ocean_mesh(
        xs, xs,
        zs_earth=np.linspace(-2000.0, -500.0, 4),
        zs_ocean=np.linspace(-500.0, 0.0, 3),
        earth=elastic(rho=2700.0, cp=4000.0, cs=2300.0),
        ocean=acoustic(rho=1000.0, cp=1500.0),
    )
    mesh.tag_boundary(ocean_surface_gravity_tagger(mesh))
    solver = CoupledSolver(mesh, order=2, backend=backend, workers=workers)

    sx, sy = 2000.0 + 800.0 * (2 * rng.random(2) - 1)
    moment = 5e13 * (1.0 + 0.1 * (2 * rng.random() - 1))

    def ricker(t):
        a = (np.pi * 2.0 * (t - 0.6)) ** 2
        return (1.0 - 2.0 * a) * np.exp(-a)

    solver.add_source(PointSource([sx, sy, -1200.0], ricker,
                                  moment=[moment] * 3 + [0, 0, 0]))
    return ScenarioHandle(solver=solver, summarize=final_eta_summary)


def final_eta_summary(solver) -> dict:
    """Largest final |sea-surface height|, as the built-in builders'
    ``summarize`` reports it (``eta_abs_max``)."""
    import numpy as np

    if not len(solver.gravity):
        return {}
    return {"eta_abs_max": float(np.max(np.abs(solver.gravity.eta)))}


def build_handle(w: Workload, seed: int, backend: str | None = None,
                 lts: bool | None = None):
    """Build ``w`` for ``seed``; returns ``(handle, lts_or_None)``.

    ``backend``/``lts`` override the workload's own choice; the traced run
    uses this to build its serial and GTS twins of the same mesh and seed.
    """
    from repro.ensemble import MemberSpec, register_builder

    if w.builder == "quickstart_example":
        register_builder(w.builder, quickstart_example_builder)
    backend = w.backend if backend is None else backend
    workers = w.workers if backend == w.backend else None
    handle = MemberSpec(member_id=w.name, builder=w.builder,
                        perturb=dict(w.perturb), seed=seed,
                        backend=backend, workers=workers).build()
    if not (w.lts if lts is None else lts):
        return handle, None
    from repro.core.lts import LocalTimeStepping

    return handle, LocalTimeStepping(handle.solver)


def member_specs(w: Workload, seed: int) -> list:
    """The ensemble members of ``w``: distinct builder seeds per member."""
    from repro.ensemble import MemberSpec

    return [MemberSpec(member_id=f"member_{k}", builder=w.builder,
                       perturb=dict(w.perturb), seed=w.members * seed + k,
                       t_end=w.t_end, checkpoint_every=w.checkpoint_every)
            for k in range(w.members)]
