"""The thread budget: processes × partition workers × BLAS threads ≤ cores.

``repro.exec.threads.blas_limit`` lowers the process-global OpenBLAS
thread count around the two parallel regions the program starts itself —
the partitioned backend's worker pool and a spawned ensemble member — and
restores it afterwards.  These tests pin that contract: the limit never
raises a count (a user's ``OPENBLAS_NUM_THREADS`` stays a cap, which CI
checks by running this file a second time under
``OPENBLAS_NUM_THREADS=1``), nests, restores, degrades to a no-op without
an OpenBLAS, reaches the partition workers and the spawned members, and
leaves every result bitwise unchanged.
"""

import importlib
import json
import os
from pathlib import Path

import pytest

from repro.ensemble import MemberSpec, Supervisor, state_digest
from repro.exec import threads
from repro.exec.threads import blas_limit, blas_threads, host_cores
from repro.obs.runlog import run_manifest
from tests.test_exec_equivalence import build_gts, build_lts_fault_gravity

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def n0():
    """The process's OpenBLAS thread count before the test."""
    n = blas_threads()
    if n is None:
        pytest.skip("no OpenBLAS loaded")
    yield n
    assert blas_threads() == n, "a test leaked a BLAS thread limit"


def _all_counts():
    return [int(lib.get()) for lib in threads._openblas()]


# ----------------------------------------------------------------------
class TestBlasLimit:
    def test_sets_and_restores_every_library(self, n0):
        before = _all_counts()
        with blas_limit(1):
            assert blas_threads() == 1
            assert _all_counts() == [1] * len(before)
        assert _all_counts() == before

    def test_never_raises_the_count(self, n0):
        with blas_limit(n0 + 7):
            assert blas_threads() == n0
        with blas_limit(0):  # clamped to one thread, never zero
            assert blas_threads() == 1

    def test_nests_inner_sees_outer(self, n0):
        with blas_limit(1):
            with blas_limit(n0):
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == n0

    def test_restores_on_exception(self, n0):
        with pytest.raises(RuntimeError), blas_limit(1):
            raise RuntimeError("boom")
        assert blas_threads() == n0

    def test_no_openblas_is_a_noop(self, monkeypatch):
        monkeypatch.setattr(threads, "_LIBS", [])
        assert blas_threads() is None
        assert threads.blas_library() is None
        with blas_limit(1):
            assert blas_threads() is None


class TestHostCores:
    def test_follows_affinity_not_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert host_cores() == 1

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert host_cores() == 3

    def test_manifest_and_e1_gate_follow_affinity(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        e1 = importlib.import_module("bench_e1_ensemble_overhead")
        monkeypatch.setattr(os, "cpu_count", lambda: 64)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        env = run_manifest()["env"]
        assert env["cores"] == 1
        assert env["blas_threads"] == blas_threads()
        assert env["blas"] == threads.blas_library()
        assert not e1.acceptance_gated(fast=False)

        cpus = set(range(e1.N_MEMBERS))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        assert run_manifest()["env"]["cores"] == e1.N_MEMBERS
        assert e1.acceptance_gated(fast=False)
        assert not e1.acceptance_gated(fast=True)


# ----------------------------------------------------------------------
class TestPartitionedRegion:
    def _seen_in_workers(self, solver):
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
        return seen

    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_share_the_callers_threads(self, n0, workers):
        solver = build_gts(backend="partitioned", workers=workers)
        assert len(solver.backend.plans) == workers
        try:
            seen = self._seen_in_workers(solver)
        finally:
            solver.backend.close()
        assert seen and set(seen) == {max(1, n0 // workers)}
        assert blas_threads() == n0

    def test_one_worker_keeps_the_full_count(self, n0):
        solver = build_gts(backend="partitioned", workers=1)
        seen = self._seen_in_workers(solver)
        assert seen and set(seen) == {n0}

    def test_region_composes_with_an_outer_limit(self, n0):
        solver = build_gts(backend="partitioned", workers=2)
        try:
            with blas_limit(1):
                seen = self._seen_in_workers(solver)
                assert blas_threads() == 1
        finally:
            solver.backend.close()
        assert set(seen) == {1}


# ----------------------------------------------------------------------
class TestSpawnedMembers:
    def test_members_record_their_share(self, n0, tmp_path):
        specs = [MemberSpec(member_id=f"m{k}", builder="quickstart",
                            perturb={"n_x": 4}, t_end=0.06, seed=k)
                 for k in range(2)]
        result = Supervisor(specs, workers=2, out_dir=str(tmp_path),
                            member_timeout=120.0).run()
        assert result.counts["ok"] == 2
        # the child starts from the same default (or the same user cap)
        # as this process; the limit only ever lowers it
        share = min(max(1, host_cores() // 2), n0)
        for m in result.members:
            path = tmp_path / m.member_id / "run.jsonl"
            records = [json.loads(line) for line in path.read_text().splitlines()]
            manifests = [r for r in records if r.get("event") == "manifest"]
            assert manifests, m.member_id
            for man in manifests:
                assert man["env"]["blas_threads"] == share, m.member_id
                assert man["env"]["cores"] == host_cores()
        assert blas_threads() == n0


# ----------------------------------------------------------------------
class TestHostVariation:
    """Tolerance: bitwise.  The BLAS thread count must not change a bit of
    the state, so a run's digest is independent of the host's budget."""

    def _gts_digest(self):
        solver = build_gts()
        solver.run(0.1)
        return state_digest(solver)

    def _lts_partitioned_digest(self):
        solver, _fault, lts = build_lts_fault_gravity(backend="partitioned",
                                                      workers=2)
        try:
            lts.run(0.1)
        finally:
            solver.backend.close()
        return state_digest(solver, lts)

    @pytest.mark.parametrize("run", ["_gts_digest", "_lts_partitioned_digest"])
    def test_digest_independent_of_blas_threads(self, n0, run):
        default = getattr(self, run)()
        with blas_limit(1):
            limited = getattr(self, run)()
        assert limited == default
