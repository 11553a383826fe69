"""Kernel-equivalence battery: the fused kernels against the reference
oracle.

The einsum/quadrature kernels of ``tests/reference_kernels.py`` are the
seed implementation this repo's physics tests validated; they stay in
the tree, as a test-only :class:`ReferenceOperator`, as the golden
reference.  This battery locks the fused stacked-GEMM path of
:mod:`repro.core.kernels` to it:

* **golden trajectories** — full coupled runs (GTS gravity + source, and
  clustered LTS with a rupturing fault under a gravity ocean) compared
  state-for-state across backends and worker counts;
* **per-kernel unit comparisons** on random modal states, over the whole
  mesh and over a work unit (against the oracle's masked residual);
* **property tests** (hypothesis): element-permutation invariance,
  stride/contiguity independence, dtype stability, and idempotence of
  the hoisted plan across replays;
* **work units** — for random clusterings, every cluster's unit residual
  equals the oracle's masked residual on its owned rows, every (interior
  face, side) lies in exactly one unit of its element's cluster, every
  halo element's cluster is consumed by the step plan, and a corrector
  reads nothing outside its unit's cells;
* **plan-cache hygiene** — oracle and fused operators share one plan,
  including under ``REPRO_PLAN_CACHE=0``;
* **lean plans** — a plan holds no ``star`` and no raw flux matrix (its
  bytes are exactly the arrays the step loop reads), and the oracle's
  raw matrices, rebuilt by face id, match a whole-mesh build bitwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ader import taylor_integrate
from repro.core.kernels import SpatialOperator
from repro.core.lts import LocalTimeStepping
from repro.core.riemann import FaceKind
from repro.exec import clear_plan_cache, get_plan_cache
from repro.exec.unit import halo_of
from repro.kernels.fusion import element_plan
from repro.sched import Scheduler

from tests.reference_kernels import ReferenceOperator, reference_solvers
from tests.test_exec_equivalence import (
    assert_states_match,
    build_gts,
    build_lts_fault_gravity,
)

#: the one kernel path under test (a parameter so every comparison names
#: the path it checks against the oracle)
_RUNNABLE = ("fused",)


def _variant_solver(build, variant, **kwargs):
    """Build a rig on a cold plan cache, on the oracle kernels when
    ``variant`` is ``"batched"``."""
    clear_plan_cache()
    if variant != "batched":
        return build(**kwargs)
    with reference_solvers():
        return build(**kwargs)


# ----------------------------------------------------------------------
# golden trajectories: full runs, state-for-state
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden_gts():
    """Oracle GTS trajectory (gravity surface + explosive source)."""
    solver = _variant_solver(build_gts, "batched", order=2)
    solver.run(0.25)
    return solver


@pytest.fixture(scope="module")
def golden_lts():
    """Oracle clustered-LTS trajectory with a rupturing fault."""
    solver, fault, lts = _variant_solver(build_lts_fault_gravity, "batched")
    lts.run(0.3)
    assert (fault.slip > 0).any(), "golden fixture must actually rupture"
    return solver


class TestGoldenTrajectories:
    @pytest.mark.parametrize("variant", _RUNNABLE)
    @pytest.mark.parametrize("backend,workers", [
        ("serial", None), ("partitioned", 1), ("partitioned", 2),
        ("partitioned", 4),
    ])
    def test_gts(self, golden_gts, variant, backend, workers):
        solver = _variant_solver(build_gts, variant, order=2,
                                 backend=backend, workers=workers)
        solver.run(0.25)
        assert_states_match(golden_gts, solver,
                            f"({variant}/{backend}/w={workers} vs batched)")

    @pytest.mark.parametrize("variant", _RUNNABLE)
    @pytest.mark.parametrize("backend,workers", [
        ("serial", None), ("partitioned", 2), ("partitioned", 4),
    ])
    def test_lts_fault_gravity(self, golden_lts, variant, backend, workers):
        solver, fault, lts = _variant_solver(
            build_lts_fault_gravity, variant, backend=backend, workers=workers)
        lts.run(0.3)
        assert_states_match(golden_lts, solver,
                            f"({variant}/{backend}/w={workers} vs batched)")


# ----------------------------------------------------------------------
# per-kernel unit comparisons
# ----------------------------------------------------------------------
def _operator_pair(variant, order=2):
    """(oracle op, ``variant`` op) over the same GTS mesh."""
    assert variant == SpatialOperator.kernel_variant
    clear_plan_cache()
    solver = build_gts(order=order)
    mesh = solver.mesh
    clear_plan_cache()
    ref_op = ReferenceOperator(mesh, order)
    clear_plan_cache()
    var_op = SpatialOperator(mesh, order)
    return ref_op, var_op


def _restrict(op, active):
    """``op`` restricted to the elements of ``active`` and their halo:
    ``(sub-operator, cells)``."""
    owned = np.flatnonzero(active)
    cells = np.concatenate([owned, halo_of(op.mesh, active)])
    return op.restricted(cells, len(owned)), cells


def _assert_close(a, b, label, rtol=1e-12):
    scale = max(float(np.abs(a).max()), 1e-300)
    np.testing.assert_allclose(b, a, rtol=rtol, atol=rtol * scale,
                               err_msg=label)


class TestKernelUnits:
    @pytest.mark.parametrize("variant", _RUNNABLE)
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_predictor(self, variant, order):
        ref_op, var_op = _operator_pair(variant, order=order)
        rng = np.random.default_rng(order)
        Q = rng.normal(size=(ref_op.n_elements, ref_op.nbasis, 9))
        _assert_close(ref_op.predict(Q), var_op.predict(Q),
                      f"predictor ({variant}, order {order})")

    @pytest.mark.parametrize("variant", _RUNNABLE)
    @pytest.mark.parametrize("kernel", ["volume_residual",
                                        "interior_residual",
                                        "boundary_residual"])
    @pytest.mark.parametrize("masked", [False, True])
    def test_residuals(self, variant, kernel, masked):
        """Whole mesh, or (``masked``) the restricted operator of a random
        element set against the oracle's masked residual on its rows."""
        ref_op, var_op = _operator_pair(variant)
        rng = np.random.default_rng(42)
        I = rng.normal(size=(ref_op.n_elements, ref_op.nbasis, 9))
        out_ref = np.zeros_like(I)
        if masked:
            active = rng.random(ref_op.n_elements) < 0.4
            getattr(ref_op, kernel)(I, out_ref, active=active)
            out_ref = out_ref[active]
            sub, cells = _restrict(var_op, active)
            out_var = sub.new_state()
            getattr(sub, kernel)(I[cells], out_var)
        else:
            out_var = np.zeros_like(I)
            getattr(ref_op, kernel)(I, out_ref)
            getattr(var_op, kernel)(I, out_var)
        _assert_close(out_ref, out_var,
                      f"{kernel} ({variant}, masked={masked})")

    @pytest.mark.parametrize("variant", _RUNNABLE)
    def test_predictor_out_buffer_reuse(self, variant):
        """The `out` scratch hint: reusing a prior result buffer returns
        that same buffer with values identical to a fresh allocation, and
        a shape-mismatched hint is ignored."""
        _, var_op = _operator_pair(variant)
        rng = np.random.default_rng(11)
        shape = (var_op.n_elements, var_op.nbasis, 9)
        Q1 = rng.normal(size=shape)
        Q2 = rng.normal(size=shape)
        buf = var_op.predict(Q1)
        fresh = var_op.predict(Q2)
        reused = var_op.predict(Q2, out=buf)
        assert reused is buf
        np.testing.assert_array_equal(reused, fresh)
        # mismatched hint: fall back to a fresh, correct allocation
        n = 5
        small = var_op.predict_states(Q2[:n], var_op.starT[:n], out=buf)
        assert small is not buf
        np.testing.assert_array_equal(small, fresh[:n])

    def test_serial_backend_reuses_predictor_buffer(self):
        """Steady state: the serial backend hands last step's derivative
        buffer back as scratch (page-fault churn was the dominant
        predictor cost before this)."""
        solver = _variant_solver(build_gts, "fused", order=2)
        d1 = solver.backend.predict(solver.Q)
        d2 = solver.backend.predict(solver.Q)
        assert d2 is d1
        # the oracle keeps its allocate-fresh semantics
        solver_b = _variant_solver(build_gts, "batched", order=1)
        b1 = solver_b.backend.predict(solver_b.Q)
        b2 = solver_b.backend.predict(solver_b.Q)
        assert b2 is not b1

    @pytest.mark.parametrize("variant", _RUNNABLE)
    def test_truncated_levels_are_exact_zero(self, variant):
        """Degree truncation: fused CK levels carry exact zeros where the
        oracle accumulates ~1e-16 quadrature noise."""
        ref_op, var_op = _operator_pair(variant, order=2)
        rng = np.random.default_rng(7)
        Q = rng.normal(size=(var_op.n_elements, var_op.nbasis, 9))
        derivs = var_op.predict(Q)
        plan = element_plan(var_op.order)
        for k in range(1, var_op.order + 1):
            dead = plan.perm[plan.sizes[k]:]
            assert (derivs[:, k, dead, :] == 0.0).all()


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def prop_op():
    clear_plan_cache()
    solver = build_gts(order=2)
    clear_plan_cache()
    return SpatialOperator(solver.mesh, 2)


class TestProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_element_permutation_invariance(self, prop_op, seed):
        """Permuting the element batch permutes the predictor output: no
        hidden cross-element coupling in the stacked GEMMs."""
        op = prop_op
        rng = np.random.default_rng(seed)
        Q = rng.normal(size=(op.n_elements, op.nbasis, 9))
        perm = rng.permutation(op.n_elements)
        base = op.predict_states(Q, op.starT)
        permuted = op.predict_states(Q[perm], op.starT[perm])
        np.testing.assert_array_equal(permuted, base[perm])

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_stride_independence(self, prop_op, seed):
        """Non-contiguous views (transposed copies, sliced supersets) give
        bitwise-identical results to contiguous inputs."""
        op = prop_op
        rng = np.random.default_rng(seed)
        Q = rng.normal(size=(op.n_elements, op.nbasis, 9))
        contiguous = op.predict(Q)

        # a transposed-then-transposed view: same values, exotic strides
        Qt = np.ascontiguousarray(Q.transpose(2, 1, 0)).transpose(2, 1, 0)
        assert not Qt.flags.c_contiguous
        np.testing.assert_array_equal(op.predict(Qt), contiguous)

        # every other row of a doubled array: sliced, non-contiguous
        doubled = np.repeat(Q, 2, axis=0)[::2]
        assert not doubled.flags.c_contiguous
        np.testing.assert_array_equal(op.predict(doubled), contiguous)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_dtype_stability(self, prop_op, seed):
        """float64 in, float64 out at every stage — no silent float32
        downcast anywhere in the fused chains."""
        op = prop_op
        rng = np.random.default_rng(seed)
        Q = rng.normal(size=(op.n_elements, op.nbasis, 9))
        derivs = op.predict(Q)
        assert derivs.dtype == np.float64
        sub, cells = _restrict(op, rng.random(op.n_elements) < 0.5)
        out = sub.apply(Q[cells])
        assert out.dtype == np.float64
        plan = element_plan(op.order)
        assert plan.DT.dtype == np.float64
        assert all(D.dtype == np.float64 for D in plan.Dstacks)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_unit_replay_idempotent(self, prop_op, seed):
        """Replaying one restricted operator (the LTS cadence) is
        bitwise-stable across repetitions."""
        op = prop_op
        rng = np.random.default_rng(seed)
        I = rng.normal(size=(op.n_elements, op.nbasis, 9))
        sub, cells = _restrict(op, rng.random(op.n_elements) < 0.3)
        first = sub.new_state()
        sub.interior_residual(I[cells], first)
        for _ in range(3):
            again = sub.new_state()
            sub.interior_residual(I[cells], again)
            np.testing.assert_array_equal(again, first)


# ----------------------------------------------------------------------
# work units
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def unit_rig():
    """(oracle op, serial GTS solver) over one mesh."""
    clear_plan_cache()
    solver = build_gts(order=2)
    clear_plan_cache()
    return ReferenceOperator(solver.mesh, 2), solver


def _units(solver, cluster):
    """One serial work unit per non-empty cluster of ``cluster``."""
    units = {}
    for c in np.unique(cluster):
        active = cluster == c
        units[int(c)] = solver.backend.compile_unit(
            np.flatnonzero(active), halo_of(solver.mesh, active))
    return units


class TestWorkUnits:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_clusters=st.integers(1, 4))
    def test_unit_residual_matches_oracle(self, unit_rig, seed, n_clusters):
        ref_op, solver = unit_rig
        rng = np.random.default_rng(seed)
        ne = ref_op.n_elements
        cluster = rng.integers(0, n_clusters, ne)
        I = rng.normal(size=(ne, ref_op.nbasis, 9))
        for c, unit in _units(solver, cluster).items():
            active = cluster == c
            want = np.zeros_like(I)
            ref_op.volume_residual(I, want, active=active)
            ref_op.interior_residual(I, want, active=active)
            ref_op.boundary_residual(I, want, active=active)
            _assert_close(want[active], unit.op.apply(I[unit.cells]),
                          f"unit residual (cluster {c})")

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_clusters=st.integers(1, 4))
    def test_face_sides_lie_in_one_unit(self, unit_rig, seed, n_clusters):
        """Every (interior face, side) is updated by exactly one unit: the
        one of its element's cluster."""
        _, solver = unit_rig
        mesh = solver.mesh
        itf = mesh.interior
        cluster = np.random.default_rng(seed).integers(0, n_clusters,
                                                       mesh.n_elements)
        n_faces = len(itf.minus_elem)
        seen = np.zeros((n_faces, 2), dtype=np.int64)
        where = np.full((n_faces, 2), -1)
        for c, unit in _units(solver, cluster).items():
            for grp in unit.op.interior_groups:
                for side, sl in enumerate((grp.minus, grp.plus)):
                    seen[grp.face_ids[sl], side] += 1
                    where[grp.face_ids[sl], side] = c
        regular = ~itf.is_fault
        assert (seen[regular] == 1).all()
        assert (seen[~regular] == 0).all()
        np.testing.assert_array_equal(where[regular, 0],
                                      cluster[itf.minus_elem[regular]])
        np.testing.assert_array_equal(where[regular, 1],
                                      cluster[itf.plus_elem[regular]])

    @pytest.mark.parametrize("backend,workers", [("serial", None),
                                                 ("partitioned", 2)])
    def test_halo_clusters_are_consumed(self, backend, workers):
        """The step plan consumes the cluster of every halo element at
        every micro-step, and each unit's halo groups are its halo."""
        solver, _, lts = build_lts_fault_gravity(backend=backend,
                                                 workers=workers)
        assert lts.n_clusters > 1
        plan = Scheduler(solver, lts=lts).compiled_plan(solver.t + 0.01)
        for unit in lts.units:
            assert set(lts.cluster[unit.halo].tolist()) == set(unit.halo_groups)
            cells = unit.cells
            for cn, (rows, ids) in unit.halo_groups.items():
                np.testing.assert_array_equal(cells[rows], ids)
                assert (lts.cluster[ids] == cn).all()
        for i in range(plan.n_micro):
            consumed = {int(cn) for cn, _, _ in plan.consumes(i)}
            unit = lts.units[int(plan.cluster[i])]
            assert set(lts.cluster[unit.halo].tolist()) <= consumed
        solver.backend.close()

    def test_sources_added_after_compilation_count(self):
        """Units match point sources at each call, so a source added after
        the LTS was built acts exactly like one added before."""
        before = build_gts(order=1)
        lts_before = LocalTimeStepping(before)
        after = build_gts(order=1)
        source = after.sources.pop()
        lts_after = LocalTimeStepping(after)
        after.sources.append(source)
        lts_before.run(0.05)
        lts_after.run(0.05)
        assert np.abs(before.Q).max() > 0
        np.testing.assert_array_equal(after.Q, before.Q)

    @pytest.mark.parametrize("backend,workers", [("serial", None),
                                                 ("partitioned", 2)])
    def test_corrector_reads_only_unit_cells(self, backend, workers):
        """With NaN in every window-integral, predictor and state row
        outside a unit's cells, its corrector and predictor update stay
        finite."""
        solver, fault, lts = build_lts_fault_gravity(backend=backend,
                                                     workers=workers)
        lts.run(0.05)
        be = solver.backend
        nb = solver.op.nbasis
        dt = float(lts.dt_min)
        derivs = be.predict(solver.Q)
        I = taylor_integrate(derivs, 0.0, dt)
        for unit in lts.units:
            outside = np.ones(solver.mesh.n_elements, dtype=bool)
            outside[unit.cells] = False
            assert outside.any()
            I_nan, d_nan, Q_nan = I.copy(), derivs.copy(), solver.Q.copy()
            I_nan[outside] = np.nan
            d_nan[outside] = np.nan
            Q_nan[outside] = np.nan
            out = be.corrector(I_nan[unit.cells], d_nan, dt, solver.t,
                               unit=unit)
            assert out.shape == (unit.n_owned, nb, 9)
            assert np.isfinite(out).all()
            Iown = np.empty((unit.n_owned, nb, 9))
            be.update_predictor(Q_nan, unit, dt, d_nan, Iown)
            assert np.isfinite(Iown).all()
        assert np.isfinite(fault.slip).all()
        be.close()


# ----------------------------------------------------------------------
# plan-cache hygiene
# ----------------------------------------------------------------------
class TestPlanCacheInvalidation:
    @pytest.mark.usefixtures("plan_cache_on")
    def test_no_stale_batched_plan_served_to_fused(self):
        """There is one plan kind: an oracle operator built first caches
        a plan that already carries the folded factors, and a fused
        operator on the same fingerprint shares it."""
        clear_plan_cache()
        solver = build_gts(order=2)
        mesh = solver.mesh
        clear_plan_cache()
        op_b = ReferenceOperator(mesh, 2)
        op_f = SpatialOperator(mesh, 2)
        assert op_f.interior_groups is op_b.interior_groups
        for grp in op_f.interior_groups:
            assert hasattr(grp, "Amm") and hasattr(grp, "G1")
        for grp in op_f.boundary_groups:
            assert hasattr(grp, "A") and hasattr(grp, "G")
        op_f2 = SpatialOperator(mesh, 2)
        assert op_f2.interior_groups is op_f.interior_groups

    def test_kill_switch_disables_sharing(self, monkeypatch):
        """REPRO_PLAN_CACHE=0: every operator builds its own plan, and the
        kernels remain correct (nothing depends on cache hits)."""
        clear_plan_cache()
        solver = build_gts(order=2)
        mesh = solver.mesh
        monkeypatch.setenv("REPRO_PLAN_CACHE", "0")
        clear_plan_cache()
        cache = get_plan_cache()
        assert not cache.enabled
        op_f1 = SpatialOperator(mesh, 2)
        op_f2 = SpatialOperator(mesh, 2)
        assert op_f1.interior_groups is not op_f2.interior_groups
        assert len(cache) == 0
        rng = np.random.default_rng(3)
        I = rng.normal(size=(op_f1.n_elements, op_f1.nbasis, 9))
        o1 = np.zeros_like(I)
        o2 = np.zeros_like(I)
        op_f1.interior_residual(I, o1)
        op_f2.interior_residual(I, o2)
        np.testing.assert_array_equal(o1, o2)

    def test_restricted_operators_inherit_variant(self):
        """Partition sub-operators run their parent's kernels: fused for
        the library, the oracle's for an oracle-built solver."""
        for variant in ("fused", "batched"):
            solver = _variant_solver(build_gts, variant, order=2,
                                     backend="partitioned", workers=2)
            for plan in solver.backend.plans:
                assert type(plan.op) is type(solver.op)
                assert plan.op.kernel_variant == variant
            solver.backend.close()


# ----------------------------------------------------------------------
# lean plans: only what the step loop reads; the oracle rebuilds the rest
# ----------------------------------------------------------------------
def _plan_arrays(plan):
    """Every ndarray an operator plan holds: its fields and the slots of
    its face groups."""
    arrays = []
    for value in vars(plan).values():
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, list):
            for grp in value:
                arrays += [getattr(grp, name) for name in type(grp).__slots__
                           if isinstance(getattr(grp, name, None), np.ndarray)]
    return arrays


class TestLeanPlan:
    _RAW = ("Fmm", "Fpm", "Fmp", "Fpp", "F")

    @pytest.fixture(scope="class")
    def mixed_mesh(self):
        """The coupled Earth-ocean mesh: elastic and acoustic elements,
        absorbing and gravity boundaries."""
        mesh = build_gts(order=2).mesh
        assert len({m.is_acoustic for m in mesh.materials}) == 2
        return mesh

    def test_plan_holds_only_step_loop_arrays(self, mixed_mesh):
        """No ``star``, no raw flux matrix; the plan's bytes are exactly
        ``starT`` + ``G*`` + ``A*`` + the face/element index arrays."""
        mesh = mixed_mesh
        clear_plan_cache()
        op = SpatialOperator(mesh, 2)
        # the operator's own plan; a fresh one under REPRO_PLAN_CACHE=0
        cache = get_plan_cache()
        plan = cache.get_or_build(mesh, 2, "exact", op._build_plan)
        assert (plan.starT is op.starT) == cache.enabled
        assert not hasattr(plan, "star") and not hasattr(op, "star")
        for grp in plan.interior_groups + plan.boundary_groups:
            for name in self._RAW:
                assert name not in type(grp).__slots__
                assert not hasattr(grp, name)
        itf, bnd = mesh.interior, mesh.boundary
        n_int = int((~itf.is_fault).sum())
        n_bnd = int(np.isin(bnd.kind, [FaceKind.FREE_SURFACE.value,
                                       FaceKind.ABSORBING.value,
                                       FaceKind.WALL.value]).sum())
        f8, i8, nb = 8, np.dtype(np.int64).itemsize, op.nbasis
        want = (op.n_elements * 3 * 81 * f8               # starT
                + (4 * n_int + n_bnd) * 81 * f8           # G1-G4, G
                + (4 * len(plan.interior_groups)
                   + len(plan.boundary_groups)) * nb * nb * f8  # A*
                + (3 * n_int + 2 * n_bnd) * i8)           # face ids + elements
        assert sum(a.nbytes for a in _plan_arrays(plan)) == want

    def test_oracle_rebuilds_raw_flux_by_face_id(self, mixed_mesh):
        """The oracle's per-group raw matrices equal one whole-mesh
        ``face_flux_matrices`` call indexed by face id, bitwise, and the
        plan's folded factors are ``scale * F^T`` of them — on the full
        operator and on a restricted one."""
        mesh = mixed_mesh
        clear_plan_cache()
        ref_op = ReferenceOperator(mesh, 2)
        itf, mat = mesh.interior, mesh.material_ids
        ids = np.flatnonzero(~itf.is_fault)
        em, ep = itf.minus_elem[ids], itf.plus_elem[ids]
        whole = (*ref_op.face_flux_matrices(mat[em], mat[ep], itf.normal[ids]),
                 *ref_op.face_flux_matrices(mat[ep], mat[em], -itf.normal[ids]))
        pos = np.full(len(itf.minus_elem), -1)
        pos[ids] = np.arange(len(ids))

        def check(op):
            for grp, raw in zip(op.interior_groups, op.interior_raw):
                k = pos[grp.face_ids]
                for got, want in zip(raw[:4], whole):
                    np.testing.assert_array_equal(got, want[k])
                # G1/G2 fold the owned minus sides, G3/G4 the plus sides
                m, p = grp.minus, grp.plus
                Fmm, Fpm, Fmp, Fpp, sm, sp = raw
                for g, F, sc in ((grp.G1, Fmm[m], sm[m]), (grp.G2, Fpm[m], sm[m]),
                                 (grp.G3, Fmp[p], sp[p]), (grp.G4, Fpp[p], sp[p])):
                    np.testing.assert_array_equal(
                        g, sc[:, None, None] * F.transpose(0, 2, 1))
            for grp, (F, sc) in zip(op.boundary_groups, op.boundary_raw):
                np.testing.assert_array_equal(
                    grp.G, sc[:, None, None] * F.transpose(0, 2, 1))

        check(ref_op)
        active = mesh.centroids[:, 0] < 1000.0
        sub, _ = _restrict(ref_op, active)
        assert 0 < sum(len(g.face_ids) for g in sub.interior_groups) < len(ids)
        check(sub)


# ----------------------------------------------------------------------
# fused kernels report under their own phase names
# ----------------------------------------------------------------------
class TestPhaseNames:
    def test_variant_phase_suffix(self):
        clear_plan_cache()
        solver = build_gts(order=1)
        mesh = solver.mesh
        clear_plan_cache()
        op_b = ReferenceOperator(mesh, 1)
        op_f = SpatialOperator(mesh, 1)
        assert op_b._phase_volume == "kernels/volume"
        assert op_f._phase_volume == "kernels/volume_fused"
        assert op_f._phase_interior == "kernels/surface_interior_fused"
        assert op_f._phase_boundary == "kernels/surface_boundary_fused"

    def test_report_sums_fused_phases(self):
        from repro.obs.report import _CORRECTOR_PHASES

        for name in ("kernels/volume_fused", "kernels/surface_interior_fused",
                     "kernels/surface_boundary_fused"):
            assert name in _CORRECTOR_PHASES


def test_fused_flop_counts_stay_under_batched():
    """The fused variant must never be credited with more FLOPs than the
    batched chain it replaces (the roofline gate in bench_compare relies
    on honest accounting)."""
    from repro.hpc.perfmodel import kernel_counts

    for order in (1, 2, 3, 4, 5):
        kb = kernel_counts(order, variant="batched")
        kf = kernel_counts(order, variant="fused")
        assert kf.flops_predictor < kb.flops_predictor
        assert kf.flops_surface <= kb.flops_surface
        assert kf.flops_volume == kb.flops_volume
        # traffic is unchanged: fusion removes work, not state
        assert kf.bytes_predictor == kb.bytes_predictor
        assert kf.bytes_surface == kb.bytes_surface
    for stale in ("simd", "jit"):
        with pytest.raises(ValueError, match="unknown kernel variant"):
            kernel_counts(3, variant=stale)
