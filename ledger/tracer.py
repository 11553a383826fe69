"""Span tracing from outside the program, and the per-layer self-time table.

The traced run wraps the public entry points of each layer (module
functions and class methods of ``repro``) with timing wrappers installed
from this file; nothing under ``src/`` changes.  Spans are kept in memory
and written once, when the run ends.

A span records its name, its table row (the layer), start and end on the
system-wide monotonic clock, its thread, its parent on the same thread and,
for a span that opens on an otherwise idle worker thread, the main-thread
span that caused it (the parallel region it runs in).

:func:`layer_table` turns spans into self times that sum to wall time:

* on the main thread a span's self time is its duration minus the part its
  child spans cover;
* a parallel region (a main-thread span whose worker-thread spans name it
  as their cause) hands its main-thread self time to the layers that ran
  on the worker lanes, each in proportion ``lane self time / n_lanes``;
  what no lane covers stays with the region's own row (waiting, dispatch);
* ``unattributed`` is wall time minus every row.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "ROWS", "TARGETS", "layer_table", "chrome_trace"]

#: table rows in print order; each becomes the per-layer metric ``<row>_s``
ROWS = (
    "setup.import", "setup.mesh", "setup.operator", "setup.backend_bind",
    "setup.lts", "setup.step_plan", "setup.other",
    "kernels.predictor", "kernels.volume", "kernels.interior_surface",
    "kernels.boundary_surface", "ader.taylor_integrate", "gravity.ode",
    "rupture.friction", "sched.self", "hooks.self", "exec.self",
    "io.checkpoint", "ensemble.spawn", "ensemble.member_run",
    "ensemble.publish", "ensemble.supervisor", "bench.check",
)

#: (module, attribute path, row) of every wrapped layer entry point
TARGETS = (
    ("repro.mesh.generators", "layered_ocean_mesh", "setup.mesh"),
    ("repro.mesh.generators", "bathymetry_mesh", "setup.mesh"),
    ("repro.mesh.generators", "box_mesh", "setup.mesh"),
    ("repro.mesh.tetmesh", "TetMesh.mark_fault", "setup.mesh"),
    ("repro.mesh.tetmesh", "TetMesh.tag_boundary", "setup.mesh"),
    ("repro.core.kernels", "SpatialOperator.__init__", "setup.operator"),
    ("repro.exec.backend", "ExecutionBackend.bind", "setup.backend_bind"),
    ("repro.exec.partitioned", "PartitionedBackend.bind", "setup.backend_bind"),
    ("repro.core.lts", "LocalTimeStepping.__init__", "setup.lts"),
    ("repro.sched.plan", "get_step_plan", "setup.step_plan"),
    ("repro.core.kernels", "SpatialOperator.predict", "kernels.predictor"),
    ("repro.core.kernels", "SpatialOperator.predict_states", "kernels.predictor"),
    ("repro.core.kernels", "SpatialOperator.volume_residual", "kernels.volume"),
    ("repro.core.kernels", "SpatialOperator.interior_residual",
     "kernels.interior_surface"),
    ("repro.core.kernels", "SpatialOperator.boundary_residual",
     "kernels.boundary_surface"),
    ("repro.core.ader", "taylor_integrate", "ader.taylor_integrate"),
    ("repro.core.gravity", "GravityBoundary.step", "gravity.ode"),
    ("repro.rupture.fault", "FaultSolver.step", "rupture.friction"),
    ("repro.sched.scheduler", "Scheduler.run", "sched.self"),
    ("repro.core.solver", "CoupledSolver.step", "sched.self"),
    ("repro.sched.hooks", "HookBus.micro_step", "hooks.self"),
    ("repro.sched.hooks", "HookBus.sync", "hooks.self"),
    ("repro.sched.hooks", "HookBus.segment_end", "hooks.self"),
    ("repro.exec.backend", "SerialBackend.predict", "exec.self"),
    ("repro.exec.backend", "SerialBackend.update_predictor", "exec.self"),
    ("repro.exec.backend", "SerialBackend.corrector", "exec.self"),
    ("repro.exec.partitioned", "PartitionedBackend.predict", "exec.self"),
    ("repro.exec.partitioned", "PartitionedBackend.update_predictor", "exec.self"),
    ("repro.exec.partitioned", "PartitionedBackend.corrector", "exec.self"),
    ("repro.io.checkpoint", "save_checkpoint", "io.checkpoint"),
    ("repro.ensemble.supervisor", "Supervisor.run", "ensemble.supervisor"),
)


class Tracer:
    """In-memory span recorder; :meth:`install` wraps the layer entry points."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_tid = threading.get_ident()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _record(self, fn, name: str, row: str):
        spans, ids, local = self.spans, self._ids, self._local
        main_tid, main_stack = self._main_tid, self._main_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            tid = threading.get_ident()
            parent = stack[-1] if stack else None
            # a worker-thread span with no parent on its lane was caused by
            # whatever the main thread is blocked in (its parallel region)
            cause = main_stack[-1] if (parent is None and tid != main_tid
                                       and main_stack) else None
            sid = next(ids)
            stack.append(sid)
            t0 = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.monotonic()
                stack.pop()
                spans.append((sid, name, row, t0, t1, tid, parent, cause))

        return wrapper

    def span(self, name: str, row: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of the benchmark's own."""
        return self._record(fn, name, row)(*args, **kwargs)

    def install(self) -> None:
        """Wrap every target in its defining class or module and in every
        loaded ``repro`` module that imported the function by name."""
        import importlib

        for modname, path, row in TARGETS:
            mod = importlib.import_module(modname)
            owner, _, attr = path.rpartition(".")
            holder = getattr(mod, owner) if owner else mod
            original = holder.__dict__[attr]
            wrapped = self._record(original, path, row)
            setattr(holder, attr, wrapped)
            if owner:
                continue
            for name, other in list(sys.modules.items()):
                if (name.startswith("repro") and other is not None
                        and getattr(other, attr, None) is original):
                    setattr(other, attr, wrapped)

    def dump(self) -> dict:
        return {"main_tid": self._main_tid, "spans": self.spans}


def _self_times(spans):
    """Per-span self time: duration minus same-lane children."""
    self_t = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[6] is not None:
            self_t[s[6]] -= s[4] - s[3]
    return self_t


def layer_table(spans, main_tid: int, wall: float, n_lanes: int,
                import_s: float) -> tuple[dict, dict]:
    """Self time per row summing to ``wall``, plus parallel-region stats.

    ``spans`` are ``(id, name, row, t0, t1, tid, parent, cause)`` tuples;
    ``import_s`` is the process-start-to-imports-done interval, which no
    span covers.  Returns ``(rows, regions)`` where ``rows`` maps every row
    of :data:`ROWS` plus ``unattributed`` to seconds and ``regions`` holds
    worker-lane busy times and the main thread's blocked time.
    """
    by_id = {s[0]: s for s in spans}
    self_t = _self_times(spans)
    rows = dict.fromkeys(ROWS, 0.0)
    rows["setup.import"] = import_s

    def root(sid):
        while by_id[sid][6] is not None:
            sid = by_id[sid][6]
        return sid

    # worker-lane self time, grouped by the region that caused it
    region_rows: dict = defaultdict(lambda: defaultdict(float))
    lane_busy: dict = defaultdict(float)
    for s in spans:
        if s[5] == main_tid:
            rows[s[2]] += self_t[s[0]]
            continue
        top = by_id[root(s[0])]
        if top[7] is None:
            continue  # worker activity outside any main-thread region
        region_rows[top[7]][s[2]] += self_t[s[0]]
        if s[6] is None:
            lane_busy[s[5]] += s[4] - s[3]

    region_time = main_wait = 0.0
    for rid, per_row in region_rows.items():
        region = by_id[rid]
        avail = self_t[rid]
        share = {r: t / n_lanes for r, t in per_row.items()}
        total = sum(share.values())
        scale = min(1.0, avail / total) if total > 0 else 0.0
        for r, t in share.items():
            rows[r] += t * scale
            rows[region[2]] -= t * scale
        region_time += region[4] - region[3]
        main_wait += avail

    rows["unattributed"] = wall - sum(rows.values())
    busy = sorted(lane_busy.values())
    regions = {
        "region_s": region_time,
        "main_wait_s": main_wait,
        "lane_busy_s": busy,
    }
    return rows, regions


def chrome_trace(spans, main_tid: int, t_origin: float, run_id: str) -> dict:
    """Chrome-trace document: one lane per thread or ensemble member,
    main thread first."""
    lanes = {main_tid: 0}
    for s in sorted(spans, key=lambda s: s[3]):
        lanes.setdefault(s[5], len(lanes))
    events = [{"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
               "args": {"name": "ledger traced run"}}]
    for tid, lane in lanes.items():
        label = "main" if lane == 0 else (
            tid if isinstance(tid, str) else f"worker thread {lane}")
        events.append({"ph": "M", "name": "thread_name", "pid": 1,
                       "tid": lane, "args": {"name": label}})
    for sid, name, row, t0, t1, tid, parent, cause in spans:
        events.append({
            "ph": "X", "name": name, "cat": row, "pid": 1, "tid": lanes[tid],
            "ts": round((t0 - t_origin) * 1e6, 3),
            "dur": round(max(t1 - t0, 0.0) * 1e6, 3),
            "args": {"run": run_id, "id": sid, "parent": parent,
                     "cause": cause},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
