"""Span tracing: the registry's bounded ring, Chrome-trace export,
summarizer, CLI."""

import json
import threading
import time

import pytest

from repro.obs import ObsSession, get_metrics
from repro.obs import metrics as metrics_mod
from repro.obs.metrics import RING_CAPACITY, TRACE_RING_CAPACITY, MetricRegistry
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    chrome_trace,
    export_chrome_trace,
    load_trace,
    summarize_trace,
    trace_summary_lines,
    validate_chrome_trace,
)

from tests.test_obs import build_coupled  # shared solver factory


@pytest.fixture(autouse=True)
def _clean_registry():
    met = get_metrics()
    met.disable()
    met.reset()
    yield
    met.disable()
    met.reset()


@pytest.fixture
def small_trace_ring(monkeypatch):
    """Shrink the tracing ring so tests can overflow it (the capacity is
    a module constant, read when tracing is switched on)."""
    def shrink(capacity):
        monkeypatch.setattr(metrics_mod, "TRACE_RING_CAPACITY", capacity)
    return shrink


def _partitioned(order=2, workers=2):
    from repro.exec.partitioned import PartitionedBackend

    solver = build_coupled(order=order)
    backend = PartitionedBackend(workers=workers)
    backend.bind(solver)
    solver.backend = backend
    return solver, backend


# ----------------------------------------------------------------------
class TestTraceBuffer:
    """The registry's ring as a span buffer."""

    def test_bounded_with_drop_counter(self, small_trace_ring):
        small_trace_ring(3)
        reg = MetricRegistry()
        reg.enable(trace=True)
        for i in range(5):
            reg.interval(f"s{i}", float(i), float(i) + 0.5)
        snap = reg.trace_snapshot()
        # the oldest spans fell off the ring; the newest are intact
        assert [s[0] for s in snap["spans"]] == ["s2", "s3", "s4"]
        assert snap["dropped"] == 2 and snap["capacity"] == 3

    def test_snapshot_sorted_by_begin_and_thread_names(self):
        reg = MetricRegistry()
        reg.enable(trace=True)
        reg.interval("late", 2.0, 3.0)
        reg.interval("early", 0.0, 1.0, k=1)
        snap = reg.trace_snapshot()
        assert [s[0] for s in snap["spans"]] == ["early", "late"]
        tid = threading.get_ident()
        assert snap["threads"][tid] == threading.current_thread().name

    def test_capacity_follows_the_trace_switch(self):
        reg = MetricRegistry()
        assert reg.trace_snapshot()["capacity"] == RING_CAPACITY
        reg.enable(trace=True)
        assert reg.trace_snapshot()["capacity"] == TRACE_RING_CAPACITY
        reg.enable()
        assert reg.trace_snapshot()["capacity"] == RING_CAPACITY


class TestTelemetryTracing:
    """Span recording by the registry's entry points."""

    def test_phase_spans_recorded_when_tracing(self):
        met = get_metrics()
        met.enable(trace=True)
        assert met.tracing
        with met.phase("step"):
            with met.phase("predict"):
                pass
        spans = met.trace_snapshot()["spans"]
        names = [s[0] for s in spans]
        # sorted by begin time: the outer phase opened first
        assert names == ["step", "step/predict"]
        for _, t0, t1, tid, _ in spans:
            assert t1 >= t0
            assert tid == threading.get_ident()

    def test_trace_span_and_add_span_carry_args(self):
        met = get_metrics()
        met.enable(trace=True)
        with met.span("lts/cluster", cluster=2, elems=17):
            pass
        met.interval("worker/p1/halo_gather", 1.0, 1.5, part=1, halo=4)
        spans = {s[0]: s for s in met.trace_snapshot()["spans"]}
        assert spans["lts/cluster"][4] == {"cluster": 2, "elems": 17}
        assert spans["worker/p1/halo_gather"][4] == {"part": 1, "halo": 4}
        # a span is trace-only; an interval is also a phase timer
        hists = met.snapshot()["histograms"]
        assert "lts/cluster" not in hists
        assert hists["worker/p1/halo_gather"]["count"] == 1

    def test_trace_off_modes_are_noops(self):
        met = get_metrics()
        # enabled without trace: spans are shared no-ops
        met.enable()
        assert not met.tracing
        assert met.span("a") is met.span("b")
        met.interval("x", 0.0, 1.0)
        assert met.trace_snapshot()["spans"] == []
        # plain enable() after a traced session drops the old spans
        met.enable(trace=True)
        with met.span("s"):
            pass
        met.enable()
        assert not met.tracing
        assert met.trace_snapshot()["spans"] == []

    def test_reset_empties_buffer_but_keeps_trace_mode(self):
        met = get_metrics()
        met.enable(trace=True)
        met.interval("x", 0.0, 1.0)
        met.reset()
        assert met.tracing
        snap = met.trace_snapshot()
        assert snap["spans"] == [] and snap["dropped"] == 0
        assert snap["capacity"] == TRACE_RING_CAPACITY


    def test_disabled_overhead_with_trace_sites_below_two_percent(self):
        """The 2% guard extended to the trace entry points: a solver whose
        hot loops carry ``span``/``interval`` sites must stay free when
        the registry is fully off."""
        solver = build_coupled(order=2)
        met = get_metrics()

        met.enable(trace=True)
        solver.step()
        snap = met.snapshot()
        n_spans = len(met.trace_snapshot()["spans"])
        met.enable()  # drop the spans: measure the trace-disabled path
        met.disable()
        met.reset()
        sites = sum(h["count"] for h in snap["histograms"].values())
        sites += len(snap["counters"])
        sites += n_spans  # every span site also guards on tracing

        n = 50_000
        t0 = time.perf_counter()
        for _ in range(n):
            with met.phase("x"):
                pass
            with met.span("y", part=0):
                pass
            met.interval("z", 0.0, 1.0, part=0)
        per_call = (time.perf_counter() - t0) / n
        assert met.trace_snapshot()["spans"] == []

        t0 = time.perf_counter()
        for _ in range(3):
            solver.step()
        per_step = (time.perf_counter() - t0) / 3

        overhead = sites * per_call / per_step
        assert overhead < 0.02, (
            f"disabled trace instrumentation costs {overhead * 100:.3f}% of "
            f"a step ({sites} sites x {per_call * 1e9:.0f} ns)"
        )


# ----------------------------------------------------------------------
class TestChromeTraceExport:
    def test_traced_partitioned_run_round_trips(self, tmp_path):
        """The acceptance test: a traced 2-worker partitioned run exports
        valid Chrome-trace JSON with one lane per worker."""
        solver, backend = _partitioned(workers=2)
        get_metrics().enable(trace=True)
        try:
            for _ in range(2):
                solver.step()
        finally:
            backend.close()

        path = str(tmp_path / "run.trace.json")
        doc = export_chrome_trace(path, metadata={"steps": 2})
        assert validate_chrome_trace(doc) == []

        loaded = load_trace(path)
        assert loaded == json.loads(json.dumps(doc))  # JSON round-trip
        other = loaded["otherData"]
        assert other["schema"] == TRACE_SCHEMA_VERSION
        assert other["steps"] == 2
        assert other["dropped"] == 0
        assert other["spans"] > 0

        events = loaded["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == other["spans"]
        for ev in xs:
            assert ev["ts"] >= 0 and ev["dur"] >= 0

        # one lane per partitioned worker, named and sorted
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        n_parts = len(backend.plans)
        assert n_parts >= 2
        assert {f"worker p{p.part_id}" for p in backend.plans} <= names
        worker_tids = {e["tid"] for e in xs
                       if "args" in e and "part" in e.get("args", {})}
        assert len(worker_tids) == n_parts  # distinct lanes
        assert all(t >= 10_000 for t in worker_tids)

        # the worker slices carry the structured args the summarizer needs
        span_names = {e["name"] for e in xs}
        assert "worker/predict" in span_names
        for p in backend.plans:
            assert {f"worker/p{p.part_id}/halo_gather",
                    f"worker/p{p.part_id}/compute"} <= span_names

    def test_lts_cluster_slices_colored_by_cluster(self, tmp_path):
        from repro.core.lts import LocalTimeStepping

        solver = build_coupled(order=1)
        lts = LocalTimeStepping(solver)
        met = get_metrics()
        met.enable(trace=True)
        lts.run(solver.dt * 2)

        doc = chrome_trace(met.trace_snapshot())
        assert validate_chrome_trace(doc) == []
        clusters = [e for e in doc["traceEvents"]
                    if e.get("name") == "lts/cluster"]
        assert clusters
        for ev in clusters:
            assert "cname" in ev  # colored by cluster id
            assert ev["args"]["cluster"] >= 0
            assert ev["args"]["elems"] > 0
        assert len({e["args"]["cluster"] for e in clusters}) == lts.n_clusters

    def test_dropped_spans_surface_in_export(self, small_trace_ring):
        small_trace_ring(2)
        met = get_metrics()
        met.enable(trace=True)
        for i in range(5):
            met.interval(f"s{i}", float(i), float(i) + 0.1)
        doc = chrome_trace(met.trace_snapshot())
        assert doc["otherData"]["spans"] == 2
        assert doc["otherData"]["dropped"] == 3

    def test_empty_snapshot_exports_empty_valid_doc(self, tmp_path):
        path = str(tmp_path / "empty.trace.json")
        doc = export_chrome_trace(path)  # registry never traced
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["spans"] == 0


class TestValidator:
    def test_rejects_malformed_documents(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []

    def test_flags_bad_events(self):
        doc = {"traceEvents": [
            {"ph": "X", "name": "a", "ts": -1.0, "dur": 2.0, "pid": 0, "tid": 0},
            {"ph": "X", "name": "b", "ts": 0.0, "dur": -2.0, "pid": 0, "tid": 0},
            {"ph": "X", "ts": 0.0, "dur": 1.0, "pid": 0, "tid": 0},
            {"ph": "Q", "name": "c"},
            {"ph": "E", "name": "d", "ts": 0.0, "pid": 0, "tid": 1},
            {"ph": "B", "name": "e", "ts": 5.0, "pid": 0, "tid": 1},
            {"ph": "B", "name": "f", "ts": 4.0, "pid": 0, "tid": 1},
        ]}
        errors = validate_chrome_trace(doc)
        text = "\n".join(errors)
        assert "negative ts" in text
        assert "negative dur" in text
        assert "missing 'name'" in text
        assert "unknown phase" in text
        assert "E event without matching B" in text
        assert "non-monotone ts" in text
        assert "unclosed B" in text

    def test_accepts_matched_duration_events(self):
        doc = {"traceEvents": [
            {"ph": "B", "name": "a", "ts": 0.0, "pid": 0, "tid": 0},
            {"ph": "B", "name": "b", "ts": 1.0, "pid": 0, "tid": 0},
            {"ph": "E", "ts": 2.0, "pid": 0, "tid": 0},
            {"ph": "E", "ts": 3.0, "pid": 0, "tid": 0},
        ]}
        assert validate_chrome_trace(doc) == []


# ----------------------------------------------------------------------
class TestSummarizer:
    def _traced_partitioned_doc(self):
        solver, backend = _partitioned(workers=2)
        met = get_metrics()
        met.enable(trace=True)
        try:
            for _ in range(2):
                solver.step()
        finally:
            backend.close()
        return chrome_trace(met.trace_snapshot()), backend

    def test_summary_metrics(self):
        doc, backend = self._traced_partitioned_doc()
        s = summarize_trace(doc)
        assert s["wall_s"] > 0
        assert 0 < s["critical_path_s"] <= s["wall_s"] * (1 + 1e-9)
        assert s["parallelism"] >= 1.0
        for p in backend.plans:
            lane = s["lanes"][f"worker p{p.part_id}"]
            assert lane["busy_s"] > 0
            assert 0.0 <= lane["idle_fraction"] <= 1.0
        for p in backend.plans:
            assert s["totals"][f"worker/p{p.part_id}/compute"]["calls"] == 2
        # the halo-overlap block exists for worker traces
        assert s["halo"] is not None
        assert 0.0 <= s["halo"]["overlap_fraction"] <= 1.0
        assert s["halo"]["overlapped_s"] <= s["halo"]["halo_s"] * (1 + 1e-9)

    def test_critical_path_on_synthetic_timeline(self):
        # two lanes: [0,1] & [2,3] chain on lane A (2 s), [0.5, 1.5] on B;
        # the longest non-overlapping chain is A's 2 s
        doc = {"traceEvents": [
            {"ph": "X", "name": "a1", "ts": 0.0, "dur": 1e6, "pid": 0, "tid": 0},
            {"ph": "X", "name": "a2", "ts": 2e6, "dur": 1e6, "pid": 0, "tid": 0},
            {"ph": "X", "name": "b", "ts": 0.5e6, "dur": 1e6, "pid": 0, "tid": 1},
        ]}
        s = summarize_trace(doc)
        assert s["wall_s"] == pytest.approx(3.0)
        assert s["critical_path_s"] == pytest.approx(2.0)
        # nested spans don't inflate lane busy time
        doc["traceEvents"].append(
            {"ph": "X", "name": "a1/inner", "ts": 0.2e6, "dur": 0.5e6,
             "pid": 0, "tid": 0})
        s2 = summarize_trace(doc)
        assert s2["lanes"]["lane-0"]["busy_s"] == pytest.approx(2.0)

    def test_summary_lines_render(self):
        doc, _ = self._traced_partitioned_doc()
        lines = trace_summary_lines(summarize_trace(doc), doc["otherData"])
        text = "\n".join(lines)
        assert "critical path" in text
        assert "worker p" in text
        assert "halo gather" in text
        assert "top spans" in text

    def test_empty_trace_summary(self):
        s = summarize_trace({"traceEvents": []})
        assert s["wall_s"] == 0.0 and s["halo"] is None
        assert s["dropped"] == 0 and s["truncated"] is False

    def test_truncated_trace_surfaces_drop_count(self, small_trace_ring):
        # regression: a wrapped exporter ring used to vanish silently —
        # the summary must carry the drop count and warn the reader that
        # every number under-counts the run
        small_trace_ring(2)
        met = get_metrics()
        met.enable(trace=True)
        for i in range(7):
            met.interval(f"s{i}", float(i), float(i) + 0.1)
        doc = chrome_trace(met.trace_snapshot())
        s = summarize_trace(doc)
        assert s["dropped"] == 5
        assert s["capacity"] == 2
        assert s["truncated"] is True
        text = "\n".join(trace_summary_lines(s, doc["otherData"]))
        assert "WARNING: trace truncated" in text
        assert "5 span(s) dropped" in text

    def test_untruncated_trace_has_no_warning(self):
        doc, _ = self._traced_partitioned_doc()
        s = summarize_trace(doc)
        assert s["truncated"] is False
        text = "\n".join(trace_summary_lines(s, doc["otherData"]))
        assert "WARNING: trace truncated" not in text


# ----------------------------------------------------------------------
class TestCliAndSession:
    def test_obs_trace_cli(self, tmp_path, capsys):
        from repro.__main__ import main

        solver, backend = _partitioned(workers=2)
        met = get_metrics()
        met.enable(trace=True)
        try:
            solver.step()
        finally:
            backend.close()
        path = str(tmp_path / "run.trace.json")
        export_chrome_trace(path)
        met.disable()

        assert main(["obs-trace", path, "--check"]) == 0
        out = capsys.readouterr().out
        assert "-> OK" in out
        assert "trace span timeline" in out
        assert "worker p0" in out

        bad = str(tmp_path / "bad.trace.json")
        with open(bad, "w") as fh:
            json.dump({"traceEvents": [{"ph": "X", "ts": -1.0}]}, fh)
        assert main(["obs-trace", bad]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_obs_session_trace_export(self, tmp_path, capsys):
        path = str(tmp_path / "session.trace.json")
        solver = build_coupled(order=1)
        obs = ObsSession(trace=path, config={"command": "trace-test"})
        assert obs.active
        obs.start(solver)
        cb = obs.chain(None)
        for _ in range(2):
            solver.step()
            cb(solver)
        obs.finish(solver)

        assert not get_metrics().enabled  # session-owned registry back off
        doc = load_trace(path)
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["spans"] > 0
        assert doc["otherData"]["steps"] == 2
        assert doc["otherData"]["config"]["command"] == "trace-test"
        assert "trace:" in capsys.readouterr().out

    def test_trace_composes_with_profile(self, tmp_path, capsys):
        path = str(tmp_path / "both.trace.json")
        solver = build_coupled(order=1)
        obs = ObsSession(profile=True, trace=path)
        obs.start(solver)
        solver.step()
        obs.finish(solver)
        out = capsys.readouterr().out
        assert "== profile" in out and "trace:" in out
        assert validate_chrome_trace(load_trace(path)) == []

    def test_quickstart_example_accepts_trace(self, tmp_path):
        import inspect
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "examples"))
        try:
            import quickstart
        finally:
            sys.path.pop(0)
        assert "trace" in inspect.signature(quickstart.main).parameters
