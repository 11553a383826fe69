"""E1: supervision overhead of the multi-process ensemble driver.

Acceptance bar (ISSUE 6): on a clean (no-fault) 4-member ensemble the
supervised multi-process run must cost < 5% wall time versus running the
same members sequentially, unsupervised, in one process.  With one
worker per member the supervised fleet should in fact be *faster* than
the sequential baseline wherever parallel hardware exists — process
spawn, heartbeat traffic, durable run logs and result publishing are the
overhead the bar bounds.

Reported both ways:

* ``parallel overhead`` — supervised wall (4 workers) vs sequential
  unsupervised wall: the number the acceptance bar gates (< 5%, i.e. the
  driver never costs more than the naive loop even after paying its
  supervision machinery);
* ``2-worker overhead`` — supervised wall with 2 workers, the fleet a
  2-CPU host runs without oversubscription (each member gets
  ``host_cores() // 2`` BLAS threads, :mod:`repro.exec.threads`);
* ``serialized overhead`` — supervised wall with 1 worker vs the same
  baseline: the pure cost of supervision without the parallel win
  (informational; dominated by interpreter spawn for small members).

The acceptance bar is gated on ``host_cores() >= N_MEMBERS``: the CPUs
this process may run on, not ``os.cpu_count()``.

The digest cross-check asserts the supervised members reproduce the
sequential baseline bitwise — supervision must observe, never perturb.
"""

import os
import time

from _cache import FAST, report
from repro.ensemble import MemberSpec, Supervisor, run_member, state_digest
from repro.exec.threads import host_cores

N_MEMBERS = 4
#: member sizing: large enough that compute dominates process spawn in
#: the full run; tiny in REPRO_FAST smoke mode
T_END = 0.25 if FAST else 2.5
N_X = 4 if FAST else 6


def _specs():
    return [
        MemberSpec(
            member_id=f"e1_{k:04d}",
            builder="quickstart",
            perturb={"n_x": N_X},
            seed=100 + k,
            t_end=T_END,
        )
        for k in range(N_MEMBERS)
    ]


def _sequential_unsupervised(specs):
    """The naive loop the driver replaces: build, run, no supervision."""
    digests = {}
    t0 = time.perf_counter()
    for spec in specs:
        handle = spec.build()
        handle.solver.run(spec.t_end)
        digests[spec.member_id] = state_digest(handle.solver, handle.lts)
    return time.perf_counter() - t0, digests


def acceptance_gated(fast=FAST) -> bool:
    """Whether the < 5 % bar applies: full-size members and a core per member."""
    return not fast and host_cores() >= N_MEMBERS


def _supervised(specs, workers, out_dir):
    t0 = time.perf_counter()
    result = Supervisor(
        specs, workers=workers, out_dir=out_dir,
        member_timeout=600.0, verbose=False,
    ).run()
    return time.perf_counter() - t0, result


def test_e1_ensemble_overhead(benchmark):
    import tempfile

    out_root = tempfile.mkdtemp(prefix="e1_")
    specs = _specs()

    seq_wall, digests = _sequential_unsupervised(specs)

    par_wall, par_result = benchmark(
        _supervised, specs, N_MEMBERS, os.path.join(out_root, "par")
    )
    two_wall, _ = _supervised(specs, 2, os.path.join(out_root, "two"))
    ser_wall, _ = _supervised(specs, 1, os.path.join(out_root, "ser"))

    # supervision must observe, never perturb: bitwise identity per member
    for m in par_result.members:
        assert m.status == "ok", (m.member_id, m.status, m.diagnosis)
        assert m.digest == digests[m.member_id], m.member_id

    par_overhead = (par_wall - seq_wall) / seq_wall
    two_overhead = (two_wall - seq_wall) / seq_wall
    ser_overhead = (ser_wall - seq_wall) / seq_wall
    lines = [
        f"members: {N_MEMBERS} (quickstart n_x={N_X}, t_end={T_END}s"
        f"{', REPRO_FAST' if FAST else ''}; {host_cores()} usable CPU(s))",
        f"sequential unsupervised:      {seq_wall:8.2f} s",
        f"supervised, {N_MEMBERS} workers:        {par_wall:8.2f} s  "
        f"(overhead {par_overhead:+.1%})",
        f"supervised, 2 workers:        {two_wall:8.2f} s  "
        f"(overhead {two_overhead:+.1%})",
        f"supervised, 1 worker:         {ser_wall:8.2f} s  "
        f"(overhead {ser_overhead:+.1%}, spawn-dominated)",
        f"digest cross-check: {N_MEMBERS}/{N_MEMBERS} bitwise-identical",
    ]
    gate = acceptance_gated()
    if gate:
        assert par_overhead < 0.05, (
            f"supervision overhead {par_overhead:.1%} exceeds the 5% bar "
            f"(supervised {par_wall:.2f}s vs sequential {seq_wall:.2f}s)"
        )
        lines.append("acceptance: parallel overhead < 5% PASS")
    else:
        lines.append(
            "acceptance gate skipped "
            f"({'REPRO_FAST' if FAST else f'{host_cores()} cpus'})"
        )
    report("e1_ensemble_overhead", lines, metrics={
        "members": N_MEMBERS,
        "t_end": T_END,
        "seq_wall_s": seq_wall,
        "par_wall_s": par_wall,
        "two_wall_s": two_wall,
        "ser_wall_s": ser_wall,
        "par_overhead": par_overhead,
        "two_overhead": two_overhead,
        "ser_overhead": ser_overhead,
        "gated": gate,
    })


def test_e1_worker_roundtrip(benchmark):
    """Single-member in-process worker cost: build + run + publish."""
    import tempfile

    out_root = tempfile.mkdtemp(prefix="e1w_")
    spec = _specs()[0]

    result = benchmark(
        run_member, spec, os.path.join(out_root, spec.member_id)
    )
    assert result["status"] == "completed"
    report("e1_worker_roundtrip", [
        f"one member (t_end={spec.t_end}s): {result['wall_s']:.2f} s wall, "
        f"{result['steps']} step(s)",
        f"digest {result['digest'][:16]}…",
    ])


if __name__ == "__main__":
    class _Bench:
        def __call__(self, fn, *a, **k):
            return fn(*a, **k)

    test_e1_ensemble_overhead(_Bench())
    test_e1_worker_roundtrip(_Bench())
