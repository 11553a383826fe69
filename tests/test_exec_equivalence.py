"""Serial vs partitioned execution backends: trajectory equivalence.

The partitioned backend must be an *execution* detail, never a *physics*
detail: GTS and LTS trajectories on coupled acoustic-elastic meshes with
gravity surfaces and rupturing fault faces have to match the serial
backend at any worker count, and a checkpoint written under one backend
must resume under another.  The tests here pin that contract, plus the
operator-plan cache semantics the backends share (hit on identical
problems, invalidation on any mesh/material/order change).
"""

import numpy as np
import pytest

from repro.core.lts import LocalTimeStepping
from repro.core.materials import acoustic, elastic
from repro.core.resilience import ResilientRunner
from repro.core.solver import CoupledSolver, PointSource, ocean_surface_gravity_tagger
from repro.exec import (
    PartitionedBackend,
    SerialBackend,
    available_backends,
    clear_plan_cache,
    get_plan_cache,
    make_backend,
    mesh_fingerprint,
    plan_key,
)
from repro.mesh.generators import layered_ocean_mesh
from repro.rupture.fault import FaultSolver, Prestress
from repro.rupture.friction import LinearSlipWeakening

WORKER_COUNTS = (1, 2, 4)
T_GTS = 0.25
T_LTS = 0.3


# ---------------------------------------------------------------------------
# rigs
# ---------------------------------------------------------------------------
def build_gts(order=2, backend="serial", workers=None):
    """Coupled Earth-ocean solver: gravity surface + explosive source (GTS)."""
    crust = elastic(rho=2700.0, cp=4000.0, cs=2300.0)
    ocean = acoustic(rho=1000.0, cp=1500.0)
    xs = np.linspace(0.0, 2000.0, 4)
    mesh = layered_ocean_mesh(
        xs, xs,
        zs_earth=np.linspace(-1500.0, -500.0, 3),
        zs_ocean=np.linspace(-500.0, 0.0, 2),
        earth=crust, ocean=ocean,
    )
    mesh.tag_boundary(ocean_surface_gravity_tagger(mesh))
    solver = CoupledSolver(mesh, order=order, backend=backend, workers=workers)

    def ricker(t):
        a = (np.pi * 2.0 * (t - 0.3)) ** 2
        return (1.0 - 2.0 * a) * np.exp(-a)

    solver.add_source(
        PointSource([1000.0, 1000.0, -900.0], ricker, moment=[5e12] * 3 + [0, 0, 0])
    )
    return solver


def build_lts_fault_gravity(backend="serial", workers=None):
    """Rupturing fault under a gravity-topped ocean, clustered LTS."""
    crust = elastic(2700.0, 6000.0, 3464.0)
    ocean = acoustic(1000.0, 1500.0)
    xs = np.linspace(-1500.0, 1500.0, 5)
    mesh = layered_ocean_mesh(
        xs, xs,
        zs_earth=np.linspace(-3000.0, -1000.0, 3),
        zs_ocean=np.linspace(-1000.0, 0.0, 2),
        earth=crust, ocean=ocean,
    )
    n = mesh.mark_fault(
        lambda c, nrm: (np.abs(nrm[:, 0]) > 0.99)
        & (np.abs(c[:, 0]) < 1e-6)
        & (c[:, 2] < -1000.0)
    )
    assert n > 0
    mesh.tag_boundary(ocean_surface_gravity_tagger(mesh))
    fr = LinearSlipWeakening(mu_s=0.677, mu_d=0.525, d_c=0.05)
    fault = FaultSolver(fr, Prestress(sigma_n=-120e6, tau_s=81.6e6))
    solver = CoupledSolver(mesh, order=1, fault=fault, backend=backend, workers=workers)
    lts = LocalTimeStepping(solver)
    return solver, fault, lts


def assert_states_match(ref, other, label=""):
    """Tight trajectory comparison: wavefield, sea surface, fault state."""
    q_scale = max(float(np.abs(ref.Q).max()), 1e-300)
    np.testing.assert_allclose(
        other.Q, ref.Q, rtol=1e-10, atol=1e-13 * q_scale,
        err_msg=f"wavefield diverged between backends {label}",
    )
    eta_scale = max(float(np.abs(ref.gravity.eta).max()), 1e-300)
    np.testing.assert_allclose(
        other.gravity.eta, ref.gravity.eta, rtol=1e-10, atol=1e-13 * eta_scale,
        err_msg=f"sea-surface height diverged between backends {label}",
    )
    if ref.fault is not None:
        for name in ref.fault.STATE_FIELDS:
            a, b = getattr(ref.fault, name), getattr(other.fault, name)
            scale = max(float(np.nanmax(np.abs(a), initial=0.0)), 1e-300)
            np.testing.assert_allclose(
                b, a, rtol=1e-10, atol=1e-13 * scale, equal_nan=True,
                err_msg=f"fault field {name!r} diverged between backends {label}",
            )


# ---------------------------------------------------------------------------
# GTS equivalence (gravity + source, no fault)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def gts_serial_reference():
    solver = build_gts()
    solver.run(T_GTS)
    return solver


class TestGTSEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_partitioned_matches_serial(self, gts_serial_reference, workers):
        solver = build_gts(backend="partitioned", workers=workers)
        assert isinstance(solver.backend, PartitionedBackend)
        solver.run(T_GTS)
        assert_states_match(gts_serial_reference, solver, f"(GTS, {workers} workers)")
        assert solver.backend.stats()["halo_exchanges"] > 0
        solver.backend.close()

    def test_reference_actually_moves(self, gts_serial_reference):
        # guard against a trivially-passing comparison of all-zero states
        assert np.abs(gts_serial_reference.Q).max() > 0


# ---------------------------------------------------------------------------
# LTS equivalence (fault + gravity, rate-2 clusters)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def lts_serial_reference():
    solver, fault, lts = build_lts_fault_gravity()
    lts.run(T_LTS)
    return solver, fault, lts


class TestLTSEquivalence:
    @pytest.mark.parametrize(
        "workers",
        [1, 2, pytest.param(4, marks=pytest.mark.slow)],
    )
    def test_partitioned_matches_serial(self, lts_serial_reference, workers):
        ref, ref_fault, ref_lts = lts_serial_reference
        assert ref_lts.n_clusters > 1, "rig must exercise a real LTS hierarchy"
        assert ref_fault.slip.max() > 0, "rig must actually rupture"
        solver, fault, lts = build_lts_fault_gravity(
            backend="partitioned", workers=workers
        )
        lts.run(T_LTS)
        assert_states_match(ref, solver, f"(LTS, {workers} workers)")
        solver.backend.close()


# ---------------------------------------------------------------------------
# checkpoint/resume round trip under the partitioned backend
# ---------------------------------------------------------------------------
class TestCheckpointRoundTrip:
    @pytest.mark.slow
    def test_partitioned_resume_matches_serial_uninterrupted(self, tmp_path):
        t_end = 0.3
        baseline, _, lts = build_lts_fault_gravity()
        ResilientRunner(baseline, lts=lts, checkpoint_every=0.1,
                        verbose=False).run(t_end)

        # crash a checkpointed partitioned run after 0.2 s ...
        sB, _, ltsB = build_lts_fault_gravity(backend="partitioned", workers=2)
        ResilientRunner(
            sB, lts=ltsB, checkpoint_every=0.1, checkpoint_dir=str(tmp_path),
            verbose=False,
        ).run(0.2)
        sB.backend.close()

        # ... and resume it under the partitioned backend at another width
        sC, _, ltsC = build_lts_fault_gravity(backend="partitioned", workers=4)
        runner = ResilientRunner(
            sC, lts=ltsC, checkpoint_every=0.1, checkpoint_dir=str(tmp_path),
            verbose=False,
        )
        meta = runner.resume()
        assert meta["backend"] == "partitioned(workers=2, parts=2)"
        runner.run(t_end)
        assert_states_match(baseline, sC, "(checkpoint resume)")
        sC.backend.close()

    def test_gts_checkpoint_is_backend_portable(self, tmp_path):
        t_end = 0.2
        baseline = build_gts()
        ResilientRunner(baseline, checkpoint_every=0.1, verbose=False).run(t_end)

        victim = build_gts(backend="partitioned", workers=2)
        ResilientRunner(
            victim, checkpoint_every=0.1, checkpoint_dir=str(tmp_path),
            verbose=False,
        ).run(0.1)
        victim.backend.close()

        # resume the partitioned run's checkpoint under the serial backend
        resumed = build_gts()
        runner = ResilientRunner(
            resumed, checkpoint_every=0.1, checkpoint_dir=str(tmp_path),
            verbose=False,
        )
        runner.resume()
        runner.run(t_end)
        assert_states_match(baseline, resumed, "(cross-backend resume)")


# ---------------------------------------------------------------------------
# backend selection plumbing
# ---------------------------------------------------------------------------
class TestBackendSelection:
    def test_available(self):
        assert available_backends() == ("serial", "partitioned")

    def test_make_backend_names(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend(None), SerialBackend)
        b = make_backend("partitioned", workers=3)
        assert isinstance(b, PartitionedBackend) and b.workers == 3

    def test_make_backend_instance_passthrough(self):
        inst = SerialBackend()
        assert make_backend(inst) is inst
        with pytest.raises(ValueError, match="workers"):
            make_backend(inst, workers=2)

    def test_serial_rejects_multiple_workers(self):
        with pytest.raises(ValueError, match="one worker"):
            make_backend("serial", workers=4)

    def test_unknown_backend(self):
        # "jit" named a numba backend that no longer exists
        for name in ("mpi", "jit"):
            with pytest.raises(ValueError, match="unknown backend"):
                make_backend(name)

    def test_describe_strings(self):
        gts = build_gts(backend="partitioned", workers=2)
        assert gts.backend.describe().startswith("partitioned(workers=2")
        assert build_gts().backend.describe() == "serial"
        gts.backend.close()

    def test_partition_count_capped_by_mesh(self):
        # more workers than elements must not crash the partitioner
        solver = build_gts(backend="partitioned", workers=4)
        st = solver.backend.stats()
        assert st["n_parts"] <= solver.mesh.n_elements
        assert sum(st["owned"]) == solver.mesh.n_elements  # disjoint cover
        solver.backend.close()


# ---------------------------------------------------------------------------
# operator-plan cache
# ---------------------------------------------------------------------------
class TestPlanCache:
    @pytest.mark.usefixtures("plan_cache_on")
    def test_identical_problem_hits(self):
        clear_plan_cache()
        build_gts()
        s0 = get_plan_cache().stats()
        assert s0["misses"] >= 1
        build_gts()
        s1 = get_plan_cache().stats()
        assert s1["hits"] == s0["hits"] + 1
        assert s1["misses"] == s0["misses"]

    @pytest.mark.usefixtures("plan_cache_on")
    def test_cached_plan_is_shared(self):
        clear_plan_cache()
        a, b = build_gts(), build_gts()
        assert a.op.starT is b.op.starT
        assert a.op.interior_groups is b.op.interior_groups

    @pytest.mark.usefixtures("plan_cache_on")
    def test_order_change_invalidates(self):
        clear_plan_cache()
        build_gts(order=2)
        misses0 = get_plan_cache().stats()["misses"]
        build_gts(order=1)
        assert get_plan_cache().stats()["misses"] == misses0 + 1

    def test_mesh_fingerprint_tracks_materials(self):
        a = build_gts().mesh
        b = build_gts().mesh
        assert mesh_fingerprint(a) == mesh_fingerprint(b)
        crust = elastic(rho=2700.0, cp=4000.0, cs=2300.0)
        ocean = acoustic(rho=1000.0, cp=1450.0)  # different sound speed
        xs = np.linspace(0.0, 2000.0, 4)
        c = layered_ocean_mesh(
            xs, xs,
            zs_earth=np.linspace(-1500.0, -500.0, 3),
            zs_ocean=np.linspace(-500.0, 0.0, 2),
            earth=crust, ocean=ocean,
        )
        c.tag_boundary(ocean_surface_gravity_tagger(c))
        assert mesh_fingerprint(c) != mesh_fingerprint(a)
        assert plan_key(c, 2, "godunov") != plan_key(a, 2, "godunov")

    def test_env_kill_switch(self, monkeypatch):
        clear_plan_cache()
        monkeypatch.setenv("REPRO_PLAN_CACHE", "0")
        a, b = build_gts(), build_gts()
        st = get_plan_cache().stats()
        assert st == {"entries": 0, "hits": 0, "misses": 0}
        assert a.op.starT is not b.op.starT

    def test_disabled_cache_still_correct(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_CACHE", "0")
        solver = build_gts()
        solver.run(0.05)
        assert np.isfinite(solver.Q).all()
