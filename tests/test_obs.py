"""Observability layer: phase timers, structured run logs, roofline report."""

import json
import threading
import time

import numpy as np
import pytest

from repro.core.health import SimulationDiverged
from repro.core.health.inject import FaultInjector
from repro.core.resilience import ResilientRunner
from repro.obs import (
    EVENT_FIELDS,
    ObsSession,
    RunLog,
    get_metrics,
    phases,
    run_manifest,
    validate_jsonl,
)
from repro.obs.report import (
    lts_cluster_updates,
    phase_total,
    roofline_rows,
    worker_split,
)

from repro.core.materials import acoustic, elastic
from repro.core.solver import (
    CoupledSolver,
    PointSource,
    ocean_surface_gravity_tagger,
)
from repro.mesh.generators import layered_ocean_mesh


def build_coupled(order=2):
    """Small coupled Earth-ocean solver (same setup as test_resilience)."""
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
    solver = CoupledSolver(mesh, order=order)

    def ricker(t):
        a = (np.pi * 2.0 * (t - 0.3)) ** 2
        return (1.0 - 2.0 * a) * np.exp(-a)

    solver.add_source(
        PointSource([1000.0, 1000.0, -900.0], ricker,
                    moment=[5e12] * 3 + [0, 0, 0])
    )
    return solver


@pytest.fixture(autouse=True)
def _clean_registry():
    met = get_metrics()
    met.disable()
    met.reset()
    yield
    met.disable()
    met.reset()


def profile_view(met=None):
    """``{"phases", "counters"}`` of the registry, as run_end records it."""
    snap = (met or get_metrics()).snapshot()
    return {"phases": phases(snap), "counters": snap["counters"]}


# ----------------------------------------------------------------------
class TestTelemetry:
    """Phase timers and counters of the instrumentation registry."""

    def test_disabled_phase_is_shared_noop(self):
        met = get_metrics()
        assert met.phase("a") is met.phase("b")  # one shared null CM
        with met.phase("a"):
            met.inc("c", 5)
            met.interval("t", 0.0, 1.0)
        view = profile_view()
        assert view["phases"] == {} and view["counters"] == {}

    def test_nested_phases_record_hierarchical_paths(self):
        met = get_metrics()
        met.enable()
        with met.phase("step"):
            with met.phase("predict"):
                pass
            with met.phase("predict"):
                pass
        snap = profile_view()["phases"]
        assert set(snap) == {"step", "step/predict"}
        assert snap["step/predict"]["calls"] == 2
        assert snap["step"]["calls"] == 1
        assert snap["step"]["seconds"] >= snap["step/predict"]["seconds"]
        # suffix aggregation finds the nested path
        assert phase_total(snap, "predict") == snap["step/predict"]["seconds"]

    def test_counters_and_add_time(self):
        met = get_metrics()
        met.enable()
        met.inc("elem_updates/predictor", 10)
        met.inc("elem_updates/predictor", 32)
        met.interval("worker/p0/compute", 0.0, 0.25)
        met.interval("worker/p0/compute", 1.0, 1.75)
        assert met.value("elem_updates/predictor") == 42
        snap = profile_view()
        assert snap["phases"]["worker/p0/compute"]["seconds"] == pytest.approx(1.0)
        assert snap["phases"]["worker/p0/compute"]["calls"] == 2
        # the phase is a histogram of seconds: sum = seconds, count = calls
        h = met.snapshot()["histograms"]["worker/p0/compute"]
        assert h["sum"] == pytest.approx(1.0) and sum(h["counts"]) == 2

    def test_reset_keeps_enabled_flag(self):
        met = get_metrics()
        met.enable()
        met.inc("x")
        met.reset()
        assert met.enabled
        assert profile_view()["counters"] == {}

    def test_counter_read_takes_the_registry_lock(self):
        """Regression: a counter read used to skip the lock, so a read
        racing the partitioned workers' increments could observe state
        torn relative to ``snapshot()``."""
        met = get_metrics()
        met.enable()

        acquisitions = []
        real_lock = met._lock

        class RecordingLock:
            def __enter__(self):
                acquisitions.append(True)
                return real_lock.__enter__()

            def __exit__(self, *exc):
                return real_lock.__exit__(*exc)

        met._lock = RecordingLock()
        try:
            met.inc("c", 2)
            acquisitions.clear()
            assert met.value("c") == 2
            assert acquisitions, "value() must acquire the registry lock"
            assert met.value("never-set") is None
        finally:
            met._lock = real_lock

    def test_counter_reads_race_concurrent_increments(self):
        met = get_metrics()
        met.enable()

        def bump():
            for _ in range(2000):
                met.inc("raced")

        reads = []

        def read():
            for _ in range(2000):
                reads.append(met.value("raced") or 0)

        threads = [threading.Thread(target=bump) for _ in range(2)]
        threads.append(threading.Thread(target=read))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert met.value("raced") == 4000
        assert all(0 <= v <= 4000 for v in reads)
        assert reads == sorted(reads)  # monotonic counter, consistent reads

    def test_thread_safety(self):
        met = get_metrics()
        met.enable()

        def work(i):
            for _ in range(1000):
                met.inc("shared")
                met.interval(f"worker/p{i}/compute", 0.0, 1e-6)
                with met.phase("kernels/volume"):
                    pass

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = profile_view()
        assert met.value("shared") == 4000
        assert snap["phases"]["kernels/volume"]["calls"] == 4000
        assert len(worker_split(snap["phases"])) == 4

    def test_disabled_overhead_below_two_percent_of_step(self):
        """The one overhead gate: every site kind — phase, counter, gauge
        and span on the disabled registry, plus the always-on ring append
        — timed in one loop, charged ``OBS_SITES_PER_STEP`` times per step
        (an upper bound on the guarded sites a step really fires), must
        cost < 2 % of a measured solver step."""
        from repro.obs.bench import OBS_SITES_PER_STEP
        from repro.obs.metrics import MetricRegistry

        solver = build_coupled(order=2)
        met = get_metrics()

        # the guarded sites one step really fires, from an enabled step
        met.enable()
        solver.step()
        snap = met.snapshot()
        met.disable()
        met.reset()
        sites = sum(h["count"] for h in snap["histograms"].values())
        sites += len(snap["counters"]) + len(snap["gauges"])
        assert 5 <= sites <= 4 * OBS_SITES_PER_STEP

        # one loop over every site kind; the registry is off except for
        # the ring append (a private registry keeps the global ring clean)
        reg = MetricRegistry()
        n = 20_000
        t0 = time.perf_counter()
        for i in range(n):
            with reg.phase("x"):
                pass
            reg.inc("c", 3)
            reg.set_gauge("g", 1.0)
            with reg.span("s", part=0):
                pass
            reg.record_step(i, 1e-3 * i, 1e-3, energy=1.0, dt_scale=1.0)
        per_iteration = (time.perf_counter() - t0) / n

        t0 = time.perf_counter()
        for _ in range(3):
            solver.step()
        per_step = (time.perf_counter() - t0) / 3

        overhead = OBS_SITES_PER_STEP * per_iteration / per_step
        assert overhead < 0.02, (
            f"instrumentation sites cost {overhead * 100:.3f}% of a step "
            f"({per_iteration * 1e9:.0f} ns per loop iteration)"
        )


# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_serial_step_phases_and_counters(self):
        solver = build_coupled(order=2)
        get_metrics().enable()
        solver.step()
        snap = profile_view()
        ne = solver.mesh.n_elements
        assert snap["counters"]["elem_updates/predictor"] == ne
        assert snap["counters"]["elem_updates/corrector"] == ne
        # the operator's phase names are variant-dependent (the default
        # fused kernels report under kernels/*_fused)
        op = solver.op
        for leaf in ("predict", "corrector", op._phase_volume,
                     op._phase_interior, op._phase_boundary,
                     "gravity/ode"):
            assert phase_total(snap["phases"], leaf) > 0.0, leaf
        # kernels nest under the corrector under the step
        assert f"step/corrector/{op._phase_volume}" in snap["phases"]

    def test_partitioned_workers_report_halo_split(self):
        solver = build_coupled(order=2)
        psolver = build_coupled(order=2)
        from repro.exec.partitioned import PartitionedBackend

        backend = PartitionedBackend(workers=4)
        backend.bind(psolver)
        psolver.backend = backend
        try:
            get_metrics().enable()
            for _ in range(2):
                psolver.step()
                solver.step()
            snap = profile_view()
        finally:
            backend.close()
        np.testing.assert_allclose(psolver.Q, solver.Q, rtol=1e-10,
                                   atol=1e-13 * max(np.abs(solver.Q).max(), 1e-300))
        split = worker_split(snap["phases"])
        assert len(split) == len(backend.plans) >= 2
        for s in split.values():
            assert s["compute_s"] > 0.0
            assert 0.0 <= s["halo_fraction"] <= 1.0
        assert snap["counters"]["elem_updates/corrector"] == \
            2 * psolver.mesh.n_elements * 2  # both solvers, two steps
        # each interval is recorded once: the predictor only as the
        # backend's predict phase (the roofline sums every */predict)
        assert not [p for p in snap["phases"] if p.startswith("worker/")
                    and p.endswith("/predict")]

    def test_lts_cluster_counters(self):
        from repro.core.lts import LocalTimeStepping

        solver = build_coupled(order=1)
        lts = LocalTimeStepping(solver)
        get_metrics().enable()
        lts.run(solver.dt * 4)
        clusters = lts_cluster_updates(profile_view()["counters"])
        assert clusters
        total = sum(c["elem_updates"] for c in clusters.values())
        assert total == sum(int(u * n) for u, n in
                            zip(lts.updates, lts.elem_count))


# ----------------------------------------------------------------------
class TestRunLog:
    def test_schema_round_trip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            log.emit("manifest", **run_manifest(config={"command": "test"}))
            log.emit("heartbeat", step=2, sim_t=0.1, dt=0.05, energy=1.0,
                     wall_rate=20.0)
            log.emit("run_end", steps=2, wall_s=0.1, phases={}, counters={})
        result = validate_jsonl(path)
        assert result["errors"] == []
        assert result["events"] == {"manifest": 1, "heartbeat": 1, "run_end": 1}
        recs = [json.loads(line) for line in open(path)]
        assert [r["seq"] for r in recs] == [0, 1, 2]
        assert len({r["run_id"] for r in recs}) == 1

    def test_unknown_event_rejected_and_garbage_detected(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        log = RunLog(path)
        with pytest.raises(ValueError, match="unknown run-log event"):
            log.emit("explosion", boom=True)
        log.emit("heartbeat", step=1, sim_t=0.0, dt=0.1)  # missing fields
        log.close()
        with open(path, "a") as fh:
            fh.write("not json at all\n")
        result = validate_jsonl(path)
        msgs = [m for _, m in result["errors"]]
        assert any("missing required field" in m for m in msgs)
        assert any("invalid JSON" in m for m in msgs)

    def test_manifest_covers_solver_identity(self):
        solver = build_coupled(order=2)
        man = run_manifest(solver, config={"command": "t"}, resumed=False)
        for key in EVENT_FIELDS["manifest"]:
            assert key in man
        assert man["order"] == 2
        assert man["n_elements"] == solver.mesh.n_elements
        assert man["backend"] == solver.backend.describe()
        assert isinstance(man["fingerprint"], str)

    def test_numpy_values_serialize(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            log.emit("heartbeat", step=np.int64(3), sim_t=np.float64(0.5),
                     dt=np.float32(0.1), energy=np.float64(2.0),
                     wall_rate=np.array([1.0, 2.0]))
        assert validate_jsonl(path)["errors"] == []


# ----------------------------------------------------------------------
class TestObsSession:
    def test_kill_resume_appends_to_same_log(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        ckpt = str(tmp_path / "ckpt")

        # first leg: checkpoint, then "die" without a clean finish
        solver = build_coupled(order=1)
        obs = ObsSession(log_json=path, heartbeat_every=1,
                         config={"command": "leg1"})
        runner = ResilientRunner(solver, checkpoint_every=0.05,
                                 checkpoint_dir=ckpt, verbose=False,
                                 runlog=obs.runlog)
        obs.start(solver)
        runner.run(0.1, callback=obs.chain(None))
        obs.runlog.close()  # abrupt end: no run_end record

        # second leg resumes from the checkpoint and appends
        solver2 = build_coupled(order=1)
        obs2 = ObsSession(log_json=path, heartbeat_every=1,
                          config={"command": "leg2"})
        runner2 = ResilientRunner(solver2, checkpoint_every=0.05,
                                  checkpoint_dir=ckpt, verbose=False,
                                  runlog=obs2.runlog)
        runner2.resume(ckpt)
        assert solver2.t == pytest.approx(solver.t)
        obs2.start(solver2, resumed=True)
        runner2.run(0.2, callback=obs2.chain(None))
        obs2.finish(solver2)

        result = validate_jsonl(path)
        assert result["errors"] == []
        assert result["events"]["manifest"] == 2
        assert result["events"]["resume"] == 1
        assert result["events"]["checkpoint"] >= 2
        assert result["events"]["heartbeat"] >= 2
        assert result["events"]["run_end"] == 1
        manifests = [json.loads(line) for line in open(path)
                     if json.loads(line)["event"] == "manifest"]
        assert [m["resumed"] for m in manifests] == [False, True]
        assert manifests[0]["fingerprint"] == manifests[1]["fingerprint"]

    def test_recovery_and_diverged_events_logged(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        solver = build_coupled(order=2)
        injector = FaultInjector().corrupt_state(at_step=4, persistent=True)
        obs = ObsSession(log_json=path, config={"command": "doomed"})
        runner = ResilientRunner(solver, injector=injector, max_retries=2,
                                 verbose=False, runlog=obs.runlog)
        obs.start(solver)
        with pytest.raises(SimulationDiverged) as exc_info:
            runner.run(0.3, callback=obs.chain(None))
        obs.runlog.close()

        # satellite: the exception reports the wall clock spent
        assert exc_info.value.wall_s is not None
        assert exc_info.value.wall_s > 0.0
        assert "s wall" in str(exc_info.value)
        assert exc_info.value.diagnostics()["wall_s"] == exc_info.value.wall_s

        result = validate_jsonl(path)
        assert result["errors"] == []
        assert result["events"]["recovery"] == 2
        assert result["events"]["diverged"] == 1
        recs = [json.loads(line) for line in open(path)]
        div = [r for r in recs if r["event"] == "diverged"][0]
        assert div["attempts"] == 3 and div["wall_s"] > 0.0
        rec = [r for r in recs if r["event"] == "recovery"][0]
        assert rec["attempt"] == 1 and "NaN" in rec["reason"]

    def test_heartbeat_rate_and_chain(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        solver = build_coupled(order=1)
        seen = []
        obs = ObsSession(log_json=path, heartbeat_every=2)
        obs.start(solver)
        cb = obs.chain(lambda s: seen.append(s.t))
        for _ in range(5):
            solver.step()
            cb(solver)
        obs.finish(solver)
        assert len(seen) == 5
        recs = [json.loads(line) for line in open(path)]
        beats = [r for r in recs if r["event"] == "heartbeat"]
        assert [b["step"] for b in beats] == [2, 4]
        assert all(b["wall_rate"] > 0 for b in beats)
        assert all(np.isfinite(b["energy"]) for b in beats)

    def test_heartbeat_without_runlog_prints_to_stdout(self, capsys):
        """Satellite regression: an explicit ``--heartbeat-every`` without
        ``--log-json`` used to be silently ignored."""
        solver = build_coupled(order=1)
        obs = ObsSession(heartbeat_every=2)
        assert obs.active  # heartbeats alone make the session active
        obs.start(solver)
        cb = obs.chain(None)
        assert cb is not None
        for _ in range(4):
            solver.step()
            cb(solver)
        obs.finish(solver)
        out = capsys.readouterr().out
        beats = [ln for ln in out.splitlines() if ln.startswith("[heartbeat]")]
        assert len(beats) == 2
        assert "step 2" in beats[0] and "step 4" in beats[1]
        assert "sim t" in beats[0] and "steps/s" in beats[0]

    def test_heartbeat_with_runlog_stays_off_stdout(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        solver = build_coupled(order=1)
        obs = ObsSession(log_json=path, heartbeat_every=1)
        obs.start(solver)
        cb = obs.chain(None)
        for _ in range(2):
            solver.step()
            cb(solver)
        obs.finish(solver)
        assert "[heartbeat]" not in capsys.readouterr().out
        recs = [json.loads(line) for line in open(path)]
        assert sum(r["event"] == "heartbeat" for r in recs) == 2

    def test_finish_is_exception_safe(self, tmp_path, capsys):
        """Satellite: an exception mid-``finish()`` (here: the trace export
        hitting a nonexistent directory) must still close the run log and
        disable the session-owned registry."""
        log_path = str(tmp_path / "run.jsonl")
        bad_trace = str(tmp_path / "no-such-dir" / "out.trace.json")
        solver = build_coupled(order=1)
        obs = ObsSession(profile=True, trace=bad_trace, log_json=log_path)
        met = get_metrics()
        assert met.enabled
        obs.start(solver)
        solver.step()
        with pytest.raises(OSError):
            obs.finish(solver)
        assert not met.enabled, "registry leaked enabled after finish() raised"
        assert obs.runlog.closed
        capsys.readouterr()  # swallow partial output

    def test_inactive_session_is_transparent(self):
        obs = ObsSession()
        assert not obs.active
        cb = object()
        assert obs.chain(cb) is cb
        assert obs.chain(None) is None
        obs.start()
        obs.finish()  # must not raise without a solver or log


# ----------------------------------------------------------------------
class TestReport:
    def _fake_run(self, n_steps=3):
        solver = build_coupled(order=2)
        get_metrics().enable()
        for _ in range(n_steps):
            solver.step()
        return solver, profile_view()

    def test_roofline_rows_sane(self):
        solver, snap = self._fake_run()
        rows = roofline_rows(snap["phases"], snap["counters"],
                             order=solver.order, node="rome")
        kernels = {r["kernel"]: r for r in rows}
        assert set(kernels) == {"predictor", "corrector"}
        for r in rows:
            assert r["seconds"] > 0
            assert r["elem_updates"] == 3 * solver.mesh.n_elements
            assert r["measured_gflops"] == pytest.approx(
                r["gflop"] / r["seconds"])
            assert r["model_gflops"] > 0
            assert 0 < r["efficiency"] < 1  # NumPy won't beat the roofline

    def test_profile_lines_render(self):
        from repro.obs.report import profile_lines

        solver, snap = self._fake_run(n_steps=1)
        lines = profile_lines(snap, order=solver.order, wall_s=1.0)
        text = "\n".join(lines)
        assert "phase breakdown" in text
        assert "roofline" in text
        assert "predictor" in text and "corrector" in text

    def test_obs_report_cli(self, tmp_path, capsys):
        from repro.__main__ import main

        path = str(tmp_path / "run.jsonl")
        solver = build_coupled(order=1)
        obs = ObsSession(profile=True, log_json=path, heartbeat_every=2,
                         config={"command": "cli-test"})
        obs.start(solver)
        cb = obs.chain(None)
        for _ in range(4):
            solver.step()
            cb(solver)
        obs.finish(solver)
        capsys.readouterr()

        assert main(["obs-report", path, "--check"]) == 0
        out = capsys.readouterr().out
        assert "0 schema error(s) -> OK" in out
        assert "cli-test" in out
        assert "heartbeats: 2" in out
        assert "phase breakdown" in out
        assert "node: local (nominal)" in out

        assert main(["obs-report", path, "--node", "rome"]) == 0
        assert "node: AMD Rome 7H12" in capsys.readouterr().out
        assert main(["obs-report", path, "--node", "atari2600"]) == 2

    def test_profile_rates_against_the_local_node(self, capsys):
        solver = build_coupled(order=1)
        obs = ObsSession(profile=True)
        obs.start(solver)
        solver.step()
        obs.finish(solver)
        assert "node: local (nominal)" in capsys.readouterr().out

    def test_obs_report_renders_log_with_non_object_lines(self, tmp_path,
                                                          capsys):
        """Regression: a line that is valid JSON but not an object used to
        crash the report with ``'list' object has no attribute 'get'``."""
        from repro.__main__ import main

        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            log.emit("manifest", **run_manifest(config={"command": "odd"}))
            log.emit("run_end", steps=1, wall_s=0.5, phases={}, counters={})
        with open(path, "a") as fh:
            fh.write("[1, 2]\n3\n\"text\"\n")
        assert main(["obs-report", path]) == 0
        out = capsys.readouterr().out
        assert "odd" in out and "run end: 1 steps" in out

    def test_check_runlog_tool(self, tmp_path):
        import importlib.util
        import os

        spec = importlib.util.spec_from_file_location(
            "check_runlog",
            os.path.join(os.path.dirname(__file__), "..", "tools",
                         "check_runlog.py"),
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)

        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            log.emit("manifest", **run_manifest(config={}))
        assert mod.main([path]) == 0
        assert mod.main([path, "--min-manifests", "2"]) == 1
        assert mod.main([path, "--require-heartbeat"]) == 1
        with open(path, "a") as fh:
            fh.write("garbage\n")
        assert mod.main([path]) == 1


# ----------------------------------------------------------------------
class TestRunLogDurability:
    """Crash-safe logging for ensemble workers (ISSUE 6 satellites)."""

    def test_durable_records_visible_before_close(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        log = RunLog(path, durable=True)
        log.emit("heartbeat", step=1, sim_t=0.0, dt=0.1, energy=0.0,
                 wall_rate=1.0)
        # no close(): a kill -9 right now must still leave the record
        with open(path) as fh:
            recs = [json.loads(line) for line in fh]
        assert len(recs) == 1 and recs[0]["event"] == "heartbeat"
        log.close()

    def test_torn_final_line_reported_not_failed(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            log.emit("heartbeat", step=1, sim_t=0.0, dt=0.1, energy=0.0,
                     wall_rate=1.0)
        with open(path, "a") as fh:
            fh.write('{"event": "heartbeat", "step": 2, "si')  # no newline
        result = validate_jsonl(path)
        assert result["errors"] == []
        assert result["truncated_tail"]
        assert result["records"] == 1  # the torn tail is not a record

    def test_garbage_with_newline_still_an_error(self, tmp_path):
        # only an UNTERMINATED final line is a legitimate crash artifact;
        # newline-terminated garbage is corruption and must keep failing
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            log.emit("heartbeat", step=1, sim_t=0.0, dt=0.1, energy=0.0,
                     wall_rate=1.0)
        with open(path, "a") as fh:
            fh.write("not json\n")
        result = validate_jsonl(path)
        assert result["errors"]
        assert not result["truncated_tail"]

    def test_torn_mid_file_line_still_an_error(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w") as fh:
            fh.write('{"torn": \n')
            fh.write('{"event": "heartbeat", "step": 2, "si')
        result = validate_jsonl(path)
        # the mid-file bad line errors even though the tail is tolerated
        assert any("invalid JSON" in m for _, m in result["errors"])
        assert result["truncated_tail"]

    def test_supervisor_events_schema(self, tmp_path):
        path = str(tmp_path / "ens.jsonl")
        with RunLog(path) as log:
            log.emit("member_start", member="m0", attempt=1,
                     scenario="quickstart", pid=123)
            log.emit("member_retry", member="m0", attempt=1,
                     reason="killed by signal 9", delay_s=0.25, resume=True,
                     dt_scale=1.0)
            log.emit("member_quarantined", member="m0", attempts=3,
                     diagnosis="worker_death after 3 attempt(s)",
                     verdict="worker_death", bundle=None)
            log.emit("member_end", member="m0", status="quarantined",
                     attempts=3, wall_s=1.5)
            log.emit("ensemble_summary", members=1, ok=0, recovered=0,
                     quarantined=1, wall_s=2.0)
        result = validate_jsonl(path)
        assert result["errors"] == []
        assert result["records"] == 5
        # an incomplete supervisor event is caught by validation
        with RunLog(str(tmp_path / "x.jsonl")) as bad:
            bad.emit("member_start", member="m")
        msgs = [m for _, m in validate_jsonl(str(tmp_path / "x.jsonl"))["errors"]]
        assert any("missing required field" in m for m in msgs)
