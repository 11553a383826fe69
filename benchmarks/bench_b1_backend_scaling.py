"""B1: partition-parallel execution backend on the Scenario-A mesh.

Times global time-stepping of the scaled Scenario-A coupled model under
the serial backend and the partitioned backend at 1/2/4 workers, checks
the trajectories agree to roundoff, and times the operator-plan cache
(cold build vs warm hit, plus invalidation on an order change).

The >= 1.5x speedup acceptance bar only applies where parallel hardware
exists: the assertion is gated on ``host_cores() >= 4`` (the CPUs this
process may run on) and the report states the core count it ran on.
Timing results are reported per backend configuration via
``report(..., backend=..., workers=...)`` so serial and partitioned
numbers never collide in ``benchmarks/out``.

Every row prints the OpenBLAS thread count its kernels ran with.  The
partitioned backend divides the BLAS threads between its workers
(:mod:`repro.exec.threads`), so a second serial row runs under
``blas_limit(1)``: the 2-worker row on a 2-CPU host compares against it
at equal BLAS threads per worker.
"""

import time

import numpy as np

from _cache import report, scenario_a_config
from repro.exec import clear_plan_cache, get_plan_cache
from repro.exec.threads import blas_limit, blas_threads, host_cores
from repro.obs import get_metrics, phases
from repro.scenarios.scenario_a import build_coupled

N_STEPS = 8
N_PROFILE_STEPS = 2


def _build(backend="serial", workers=None):
    solver, fault = build_coupled(scenario_a_config(), backend=backend, workers=workers)
    return solver


def _time_steps(solver, n_steps=N_STEPS):
    t0 = time.perf_counter()
    for _ in range(n_steps):
        solver.step()
    return (time.perf_counter() - t0) / n_steps


def _region_blas_threads(solver):
    """BLAS threads a partition worker sees inside its parallel region:
    recorded in the predictor during one (untimed) extra step.

    Run this only after the trajectory-equivalence assertion: the extra
    step advances the solver past the compared state.
    """
    seen = []
    op = solver.op
    predict = op.predict_states

    def recording(*args, **kwargs):
        seen.append(blas_threads())
        return predict(*args, **kwargs)

    op.predict_states = recording
    try:
        solver.step()
    finally:
        del op.predict_states
    return seen[0]


def _profiled_snapshot(solver, n_steps=N_PROFILE_STEPS):
    """Per-phase timers of ``n_steps`` extra (untimed) steps.

    Run this only after the timed pass and any trajectory-equivalence
    assertions: the extra steps advance the solver past the compared state.
    """
    met = get_metrics()
    met.reset()
    met.enable()
    try:
        for _ in range(n_steps):
            solver.step()
    finally:
        met.disable()
    snap = met.snapshot()
    met.reset()
    return {"n_steps_profiled": n_steps, "phases": phases(snap),
            "counters": snap["counters"]}


def test_b1_backend_scaling(benchmark):
    cores = host_cores()
    n_blas = blas_threads()
    clear_plan_cache()

    # cold operator build: every flux matrix from scratch
    t0 = time.perf_counter()
    serial = _build()
    t_setup_cold = time.perf_counter() - t0
    assert get_plan_cache().stats()["misses"] >= 1

    # one timed pass of N_STEPS steps; every backend below repeats the
    # exact same step sequence so final states are comparable
    per_step_serial = benchmark.pedantic(
        lambda: _time_steps(serial), rounds=1, iterations=1
    )
    q_serial = serial.Q.copy()

    # the same steps again on a fresh twin with one BLAS thread: the
    # serial baseline at the per-worker share of the partitioned rows
    serial_1 = _build()
    with blas_limit(1):
        per_step_serial_1 = _time_steps(serial_1)
        blas_serial_1 = blas_threads()
    np.testing.assert_array_equal(serial_1.Q, q_serial)

    rows = [
        "B1: execution-backend scaling, Scenario-A coupled mesh "
        f"({serial.mesh.n_elements} elements, order {serial.order}, "
        f"{cores} CPU core(s))",
        "speedup: vs the serial row; at 1 BLAS thread: vs the "
        "blas_limit(1) serial row",
        f"{'configuration':28} {'BLAS thr':>8} {'s/step':>10} {'speedup':>9} "
        f"{'at 1 BLAS thread':>17}",
        f"{'serial':28} {n_blas!s:>8} {per_step_serial:10.4f} {1.0:9.2f} "
        f"{per_step_serial_1 / per_step_serial:17.2f}",
        f"{'serial, blas_limit(1)':28} {blas_serial_1!s:>8} "
        f"{per_step_serial_1:10.4f} {per_step_serial / per_step_serial_1:9.2f} "
        f"{1.0:17.2f}",
    ]
    report("b1_backend_scaling", [f"per-step time: {per_step_serial:.4f} s"],
           backend="serial",
           metrics={"per_step_s": per_step_serial, "blas_threads": n_blas,
                    "per_step_s_blas1": per_step_serial_1,
                    **_profiled_snapshot(serial)})

    speedups = {}
    for workers in (1, 2, 4):
        solver = _build(backend="partitioned", workers=workers)
        per_step = _time_steps(solver)
        # equivalence guard: same step count, same dt -> same trajectory
        scale = max(np.abs(q_serial).max(), 1e-300)
        np.testing.assert_allclose(solver.Q, q_serial, rtol=1e-10,
                                   atol=1e-13 * scale)
        speedups[workers] = per_step_serial / per_step
        blas = _region_blas_threads(solver)
        rows.append(f"{'partitioned, %d worker(s)' % workers:28} "
                    f"{blas!s:>8} {per_step:10.4f} {speedups[workers]:9.2f} "
                    f"{per_step_serial_1 / per_step:17.2f}")
        report("b1_backend_scaling", [f"per-step time: {per_step:.4f} s"],
               backend="partitioned", workers=workers,
               metrics={"per_step_s": per_step, "speedup": speedups[workers],
                        "blas_threads": blas,
                        **_profiled_snapshot(solver)})
        solver.backend.close()

    # plan-cache warm hit: the operator build skips all flux-matrix setup
    hits0 = get_plan_cache().stats()["hits"]
    t0 = time.perf_counter()
    _build()
    t_setup_warm = time.perf_counter() - t0
    assert get_plan_cache().stats()["hits"] == hits0 + 1
    assert t_setup_warm < t_setup_cold, (
        f"plan-cache hit ({t_setup_warm:.3f} s) should beat the cold build "
        f"({t_setup_cold:.3f} s)"
    )

    # invalidation: a different order is a different problem -> cache miss
    misses0 = get_plan_cache().stats()["misses"]
    cfg = scenario_a_config()
    other_order = 1 if cfg.order != 1 else 2
    from dataclasses import replace

    build_coupled(replace(cfg, order=other_order))
    assert get_plan_cache().stats()["misses"] == misses0 + 1

    rows.append("")
    rows.append(f"operator setup  cold {t_setup_cold:.3f} s | plan-cache hit "
                f"{t_setup_warm:.3f} s ({t_setup_cold / max(t_setup_warm, 1e-9):.1f}x)")
    rows.append("plan cache invalidated on order change: yes")

    if cores >= 4:
        assert speedups[4] >= 1.5, (
            f"partitioned backend at 4 workers only {speedups[4]:.2f}x on "
            f"{cores} cores (acceptance bar: 1.5x)"
        )
        rows.append(f"acceptance (>=1.5x at 4 workers on {cores} cores): "
                    f"{speedups[4]:.2f}x PASS")
    else:
        rows.append(f"acceptance bar skipped: only {cores} CPU core(s) usable "
                    "(the 4-worker bar needs 4)")
    report("b1_backend_scaling", rows)
