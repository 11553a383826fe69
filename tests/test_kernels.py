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
* **per-kernel unit comparisons** on random modal states, masked and
  unmasked;
* **property tests** (hypothesis): element-permutation invariance,
  stride/contiguity independence, dtype stability, and idempotence of
  the hoisted plan across replays;
* **plan-cache hygiene** — oracle and fused operators share one plan,
  including under ``REPRO_PLAN_CACHE=0``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import SpatialOperator
from repro.exec import clear_plan_cache, get_plan_cache
from repro.kernels.fusion import MASK_CACHE_MAX, element_plan

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
        ref_op, var_op = _operator_pair(variant)
        rng = np.random.default_rng(42)
        I = rng.normal(size=(ref_op.n_elements, ref_op.nbasis, 9))
        active = (rng.random(ref_op.n_elements) < 0.4) if masked else None
        out_ref = np.zeros_like(I)
        out_var = np.zeros_like(I)
        getattr(ref_op, kernel)(I, out_ref, active=active)
        getattr(var_op, kernel)(I, out_var, active=active)
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
        small = var_op.predict_states(Q2[:n], var_op.star[:n],
                                      var_op.starT[:n], out=buf)
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
        base = op.predict_states(Q, op.star, op.starT)
        permuted = op.predict_states(Q[perm], op.star[perm], op.starT[perm])
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
        out = np.zeros_like(Q)
        active = rng.random(op.n_elements) < 0.5
        op.volume_residual(Q, out, active=active)
        op.interior_residual(Q, out, active=active)
        op.boundary_residual(Q, out, active=active)
        assert out.dtype == np.float64
        plan = element_plan(op.order)
        assert plan.DT.dtype == np.float64
        assert all(D.dtype == np.float64 for D in plan.Dstacks)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_masked_replay_idempotent(self, prop_op, seed):
        """Replaying the same activity mask (the LTS cadence) through the
        cached masked sub-plans is bitwise-stable across repetitions."""
        op = prop_op
        rng = np.random.default_rng(seed)
        I = rng.normal(size=(op.n_elements, op.nbasis, 9))
        active = rng.random(op.n_elements) < 0.3
        first = np.zeros_like(I)
        op.interior_residual(I, first, active=active)
        for _ in range(3):
            again = np.zeros_like(I)
            op.interior_residual(I, again, active=active)
            np.testing.assert_array_equal(again, first)

    def test_mask_cache_is_bounded(self, prop_op):
        """Distinct masks beyond MASK_CACHE_MAX evict LRU-style instead of
        growing without bound."""
        op = prop_op
        rng = np.random.default_rng(0)
        I = rng.normal(size=(op.n_elements, op.nbasis, 9))
        out = np.zeros_like(I)
        for _ in range(MASK_CACHE_MAX + 10):
            active = rng.random(op.n_elements) < 0.3
            op.volume_residual(I, out, active=active)
        assert len(op._mask_cache_volume) <= MASK_CACHE_MAX


# ----------------------------------------------------------------------
# plan-cache hygiene
# ----------------------------------------------------------------------
class TestPlanCacheInvalidation:
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
            assert hasattr(grp, "Fmm") and hasattr(grp, "Fpp")
        for grp in op_f.boundary_groups:
            assert hasattr(grp, "A") and hasattr(grp, "G")
            assert hasattr(grp, "F")
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
                assert type(plan.lop) is type(solver.op)
                assert plan.lop.kernel_variant == variant
            solver.backend.close()


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
