"""Chrome-trace / Perfetto export and analysis of recorded span timelines.

The paper's Sec. 5-6 claims are *timeline* claims — when each LTS cluster
stepped, how much of every worker's wall clock was halo exchange, whether
communication overlapped compute — and aggregate timers cannot answer
them.  This module turns the spans in the instrumentation registry's
ring (:meth:`repro.obs.metrics.MetricRegistry.trace_snapshot`) into the
Chrome trace-event JSON format (the ``traceEvents`` array of ``"ph": "X"``
complete events), which `Perfetto <https://ui.perfetto.dev>`_ and
``chrome://tracing`` load directly:

* spans tagged with a ``part`` arg (the partitioned backend's per-worker
  halo-gather / compute / predict slices) are laid out **one lane per
  partition**, labelled ``worker p<N>``;
* LTS cluster slices (``lts/cluster`` spans) are colored by cluster id via
  the trace-event ``cname`` palette, so the rate-2 cadence — cluster 0
  stepping twice per cluster-1 step — is visible at a glance;
* all remaining spans land on one lane per recording thread.

:func:`summarize_trace` answers the offline questions (``python -m repro
obs-trace RUN.trace.json``): per-lane busy/idle fractions, a critical-path
estimate (longest chain of non-overlapping top-level spans — a proxy, as
the recorder does not capture inter-span dependencies), and the fraction
of halo-gather time during which another worker was computing (the
communication/compute-overlap currency of the paper's Fig. 6 discussion).
"""

from __future__ import annotations

import json
import os
import time

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "chrome_trace",
    "export_chrome_trace",
    "load_trace",
    "validate_chrome_trace",
    "merge_chrome_traces",
    "summarize_trace",
    "trace_summary_lines",
    "summarize_trace_file",
]

#: bumped when the exported document layout changes
TRACE_SCHEMA_VERSION = 1

#: reserved Chrome-trace color names cycled over LTS cluster ids
_CLUSTER_COLORS = (
    "thread_state_running",
    "rail_response",
    "rail_animation",
    "thread_state_runnable",
    "rail_idle",
    "rail_load",
    "thread_state_iowait",
    "cq_build_running",
)

#: tid blocks: worker lanes sit above thread lanes in the Perfetto UI
_WORKER_TID_BASE = 10_000
_PID = 0


def chrome_trace(trace_snapshot: dict, metadata: dict | None = None) -> dict:
    """Build the Chrome-trace document for one span snapshot.

    ``trace_snapshot`` is :meth:`MetricRegistry.trace_snapshot` output.  The
    earliest span start maps to ``ts = 0``; timestamps are microseconds
    (the unit the format prescribes).
    """
    spans = trace_snapshot.get("spans", [])
    threads = trace_snapshot.get("threads", {})
    t_base = min((s[1] for s in spans), default=0.0)

    # thread lanes in order of first appearance; workers get fixed tids
    thread_tids: dict[int, int] = {}
    worker_tids: dict[int, int] = {}
    events: list[dict] = []
    for name, t0, t1, tid, args in spans:
        if args is not None and "part" in args:
            part = int(args["part"])
            lane = worker_tids.setdefault(part, _WORKER_TID_BASE + part)
        else:
            lane = thread_tids.setdefault(tid, len(thread_tids))
        ev = {
            "name": name,
            "cat": name.split("/", 1)[0],
            "ph": "X",
            "ts": (t0 - t_base) * 1e6,
            "dur": max(t1 - t0, 0.0) * 1e6,
            "pid": _PID,
            "tid": lane,
        }
        if args:
            ev["args"] = dict(args)
            if "cluster" in args:
                ev["cname"] = _CLUSTER_COLORS[int(args["cluster"]) % len(_CLUSTER_COLORS)]
        events.append(ev)

    def _meta(tid, key, value):
        return {"ph": "M", "pid": _PID, "tid": tid, "name": key,
                "args": {"name": value} if key.endswith("_name")
                else {"sort_index": value}}

    lanes = [_meta(0, "process_name", "repro")]
    for part, lane in sorted(worker_tids.items()):
        lanes.append(_meta(lane, "thread_name", f"worker p{part}"))
        lanes.append(_meta(lane, "thread_sort_index", 1 + part))
    for tid, lane in thread_tids.items():
        label = threads.get(tid, f"thread-{tid}")
        lanes.append(_meta(lane, "thread_name", label))
        lanes.append(_meta(lane, "thread_sort_index", 100 + lane))

    doc = {
        "traceEvents": lanes + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_SCHEMA_VERSION,
            "spans": len(spans),
            "dropped": int(trace_snapshot.get("dropped", 0)),
            "capacity": int(trace_snapshot.get("capacity", 0)),
            # unix wall time of ts=0 — span clocks are perf_counter, which
            # is process-local; anchoring to wall time is what lets
            # merge_chrome_traces align traces from different processes
            # (only meaningful when exported by the recording process)
            "t0_unix": time.time() - (time.perf_counter() - t_base),
        },
    }
    if metadata:
        doc["otherData"].update(metadata)
    return doc


def export_chrome_trace(path: str, trace_snapshot: dict | None = None,
                        metadata: dict | None = None) -> dict:
    """Write the Perfetto-loadable JSON for ``trace_snapshot`` (default:
    the global registry's spans) to ``path``; returns the document."""
    if trace_snapshot is None:
        from .metrics import get_metrics

        trace_snapshot = get_metrics().trace_snapshot()
    doc = chrome_trace(trace_snapshot, metadata)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return doc


def load_trace(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
#: per-member trace filename inside an ensemble member directory
MEMBER_TRACE_NAME = "trace.json"


def merge_chrome_traces(run_dir: str, out_path: str | None = None) -> dict:
    """Merge per-member worker traces of an ensemble run into one timeline.

    Scans ``<run_dir>/<member>/trace.json`` (exported by workers running
    with tracing enabled), gives each member its **own process lane**
    (``pid`` 1..N, labelled with the member id via ``process_name``
    metadata), and aligns them on wall time using the ``t0_unix`` anchor
    each export records — so the merged Perfetto view shows what the
    fleet was actually doing concurrently, not N timelines all starting
    at zero.  Supervisor events from ``ensemble.jsonl`` (member starts,
    retries, quarantines) become instant markers (``"ph": "i"``) on a
    dedicated ``pid 0`` supervisor lane.  Writes the merged document to
    ``out_path`` when given; returns it either way.
    """
    members = []
    try:
        entries = sorted(os.listdir(run_dir))
    except OSError as exc:
        raise FileNotFoundError(f"not an ensemble run dir: {run_dir}") from exc
    for entry in entries:
        path = os.path.join(run_dir, entry, MEMBER_TRACE_NAME)
        if os.path.isfile(path):
            members.append((entry, load_trace(path)))
    if not members:
        raise FileNotFoundError(
            f"no member traces ({MEMBER_TRACE_NAME}) under {run_dir} — "
            "run the ensemble with tracing enabled (--trace)"
        )

    anchors = {mid: float(doc.get("otherData", {}).get("t0_unix", 0.0))
               for mid, doc in members}
    # align on the earliest member; members without an anchor start at 0
    known = [a for a in anchors.values() if a > 0.0]
    t0_global = min(known) if known else 0.0

    events: list[dict] = []
    events.append({"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
                   "args": {"name": "supervisor"}})
    events.append({"ph": "M", "pid": 0, "tid": 0, "name": "process_sort_index",
                   "args": {"sort_index": 0}})
    spans_total = dropped_total = 0
    for k, (mid, doc) in enumerate(members, start=1):
        anchor = anchors[mid]
        shift_us = (anchor - t0_global) * 1e6 if anchor > 0.0 else 0.0
        events.append({"ph": "M", "pid": k, "tid": 0, "name": "process_name",
                       "args": {"name": f"member {mid}"}})
        events.append({"ph": "M", "pid": k, "tid": 0,
                       "name": "process_sort_index",
                       "args": {"sort_index": k}})
        other = doc.get("otherData", {})
        spans_total += int(other.get("spans", 0))
        dropped_total += int(other.get("dropped", 0))
        for ev in doc.get("traceEvents", []):
            if not isinstance(ev, dict):
                continue
            ev = dict(ev)
            if ev.get("name") == "process_name" and ev.get("ph") == "M":
                continue  # replaced by the member lane label above
            ev["pid"] = k
            if ev.get("ph") != "M":
                ev["ts"] = float(ev.get("ts", 0.0)) + shift_us
            events.append(ev)

    # supervisor instant markers from the ensemble run log (wall-clock
    # stamped, so they land between the member spans they interleave with)
    sup_log = os.path.join(run_dir, "ensemble.jsonl")
    sup_events = 0
    if os.path.isfile(sup_log):
        from .runlog import read_jsonl

        for rec in read_jsonl(sup_log):
            wall = rec.get("wall")
            if not isinstance(wall, (int, float)):
                continue
            ts = max(0.0, (wall - t0_global) * 1e6) if t0_global else 0.0
            name = rec.get("event", "event")
            if rec.get("member"):
                name = f"{name}:{rec['member']}"
            ev = {"name": name, "ph": "i", "ts": ts, "pid": 0, "tid": 0,
                  "s": "p", "cat": "supervisor"}
            args = {key: rec[key] for key in
                    ("member", "attempt", "reason", "status", "pid")
                    if key in rec}
            if args:
                ev["args"] = args
            events.append(ev)
            sup_events += 1

    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_SCHEMA_VERSION,
            "merged": True,
            "members": [mid for mid, _ in members],
            "spans": spans_total,
            "dropped": dropped_total,
            "supervisor_events": sup_events,
            "t0_unix": t0_global,
        },
    }
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
    return doc


# ----------------------------------------------------------------------
def validate_chrome_trace(doc) -> list[str]:
    """Schema errors of a Chrome-trace document (empty list = valid).

    Checks the invariants the tests (and any timeline consumer) rely on:
    every complete (``X``) event carries ``name``/``ts``/``dur``/``pid``/
    ``tid`` with non-negative times, and duration (``B``/``E``) events —
    which this exporter never emits but the format allows — are properly
    nested per lane with monotone timestamps.
    """
    errors: list[str] = []
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return ["document is not an object with a traceEvents array"]
    open_stacks: dict[tuple, list] = {}
    last_ts: dict[tuple, float] = {}
    for i, ev in enumerate(doc["traceEvents"]):
        if not isinstance(ev, dict):
            errors.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if ph == "M":
            continue
        lane = (ev.get("pid"), ev.get("tid"))
        if ph == "i":
            # instant marker (the merged-timeline supervisor events)
            if "name" not in ev:
                errors.append(f"event {i}: i event missing 'name'")
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)):
                errors.append(f"event {i}: i event missing numeric ts")
            elif ts < 0:
                errors.append(f"event {i}: negative ts {ts}")
        elif ph == "X":
            for field in ("name", "ts", "dur", "pid", "tid"):
                if field not in ev:
                    errors.append(f"event {i}: X event missing {field!r}")
            ts, dur = ev.get("ts"), ev.get("dur")
            if isinstance(ts, (int, float)) and ts < 0:
                errors.append(f"event {i}: negative ts {ts}")
            if isinstance(dur, (int, float)) and dur < 0:
                errors.append(f"event {i}: negative dur {dur}")
        elif ph in ("B", "E"):
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)):
                errors.append(f"event {i}: {ph} event missing numeric ts")
                continue
            if ts < last_ts.get(lane, float("-inf")):
                errors.append(f"event {i}: non-monotone ts on lane {lane}")
            last_ts[lane] = ts
            stack = open_stacks.setdefault(lane, [])
            if ph == "B":
                stack.append(ev.get("name"))
            elif not stack:
                errors.append(f"event {i}: E event without matching B on lane {lane}")
            else:
                stack.pop()
        else:
            errors.append(f"event {i}: unknown phase {ph!r}")
    for lane, stack in open_stacks.items():
        if stack:
            errors.append(f"lane {lane}: {len(stack)} unclosed B event(s)")
    return errors


# ----------------------------------------------------------------------
def _merge_intervals(ivals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if not ivals:
        return []
    ivals = sorted(ivals)
    out = [list(ivals[0])]
    for a, b in ivals[1:]:
        if a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return [(a, b) for a, b in out]


def _covered(ivals: list[tuple[float, float]]) -> float:
    return sum(b - a for a, b in _merge_intervals(ivals))


def _top_level(spans: list[tuple[float, float, str]]) -> list[tuple[float, float, str]]:
    """Spans of one lane not nested inside an earlier span of that lane."""
    top, enclosing_end = [], float("-inf")
    for t0, t1, name in sorted(spans):
        if t1 <= enclosing_end:
            continue  # fully nested (phase hierarchy)
        top.append((t0, t1, name))
        enclosing_end = max(enclosing_end, t1)
    return top


def _longest_chain(spans: list[tuple[float, float, str]]) -> float:
    """Longest total duration of a chain of non-overlapping spans.

    A dependency-free critical-path proxy: the recorder keeps no edges, so
    any set of spans that could not have run concurrently (pairwise
    disjoint in time) bounds the makespan from below.  O(n log n) sweep.
    """
    import bisect

    by_end = sorted(spans, key=lambda s: s[1])
    ends: list[float] = []       # chain end times, ascending
    best_prefix: list[float] = []  # max chain duration ending at <= ends[i]
    best = 0.0
    for t0, t1, _ in by_end:
        i = bisect.bisect_right(ends, t0)
        prev = best_prefix[i - 1] if i else 0.0
        total = prev + (t1 - t0)
        ends.append(t1)
        best = max(best, total)
        best_prefix.append(max(total, best_prefix[-1] if best_prefix else 0.0))
    return best


def summarize_trace(doc: dict) -> dict:
    """Timeline metrics of an exported trace document.

    Returns a dict with ``wall_s``, per-lane ``lanes`` (busy/idle), phase
    ``totals`` by span name, ``critical_path_s`` + ``parallelism``, the
    exporter's ring-buffer ``dropped`` count with a ``truncated`` flag
    (a truncated trace under-reports every lane's busy time) and — when
    worker spans are present — the ``halo`` overlap block.
    """
    other = doc.get("otherData") or {}
    try:
        dropped = int(other.get("dropped") or 0)
    except (TypeError, ValueError):
        dropped = 0
    capacity = other.get("capacity")
    lane_names: dict[tuple, str] = {}
    lane_spans: dict[tuple, list] = {}
    for ev in doc.get("traceEvents", []):
        lane = (ev.get("pid"), ev.get("tid"))
        if ev.get("ph") == "M":
            if ev.get("name") == "thread_name":
                lane_names[lane] = ev["args"]["name"]
            continue
        if ev.get("ph") != "X":
            continue
        t0 = float(ev["ts"]) * 1e-6
        t1 = t0 + float(ev["dur"]) * 1e-6
        lane_spans.setdefault(lane, []).append((t0, t1, ev["name"]))

    all_spans = [s for spans in lane_spans.values() for s in spans]
    if not all_spans:
        return {"wall_s": 0.0, "lanes": {}, "totals": {},
                "critical_path_s": 0.0, "parallelism": 0.0, "halo": None,
                "dropped": dropped, "capacity": capacity,
                "truncated": dropped > 0}
    t_min = min(s[0] for s in all_spans)
    t_max = max(s[1] for s in all_spans)
    wall = t_max - t_min

    lanes = {}
    top_by_lane = {}
    for lane, spans in lane_spans.items():
        top = _top_level(spans)
        top_by_lane[lane] = top
        busy = _covered([(a, b) for a, b, _ in top])
        lanes[lane_names.get(lane, f"lane-{lane[1]}")] = {
            "spans": len(spans),
            "busy_s": busy,
            "idle_fraction": 1.0 - busy / wall if wall > 0 else 0.0,
        }

    totals: dict[str, dict] = {}
    for t0, t1, name in all_spans:
        cell = totals.setdefault(name, {"seconds": 0.0, "calls": 0})
        cell["seconds"] += t1 - t0
        cell["calls"] += 1

    all_top = [s for top in top_by_lane.values() for s in top]
    critical = _longest_chain(all_top)
    busy_total = sum(v["busy_s"] for v in lanes.values())
    parallelism = busy_total / critical if critical > 0 else 0.0

    # halo-gather vs compute overlap across worker lanes
    halo_spans = [(t0, t1, name) for t0, t1, name in all_spans
                  if name.endswith("halo_gather")]
    compute = _merge_intervals(
        [(t0, t1) for t0, t1, name in all_spans
         if name.endswith("compute") or name.endswith("predict")]
    )
    halo = None
    if halo_spans:
        halo_total = sum(t1 - t0 for t0, t1, _ in halo_spans)
        overlapped = 0.0
        for t0, t1, _ in halo_spans:
            overlapped += _covered(
                [(max(t0, a), min(t1, b)) for a, b in compute
                 if a < t1 and b > t0]
            )
        halo = {
            "halo_s": halo_total,
            "overlapped_s": overlapped,
            "overlap_fraction": overlapped / halo_total if halo_total > 0 else 0.0,
        }

    return {
        "wall_s": wall,
        "lanes": lanes,
        "totals": totals,
        "critical_path_s": critical,
        "parallelism": parallelism,
        "halo": halo,
        "dropped": dropped,
        "capacity": capacity,
        "truncated": dropped > 0,
    }


def trace_summary_lines(summary: dict, other: dict | None = None,
                        top: int = 15) -> list[str]:
    """Render :func:`summarize_trace` output as the CLI report."""
    lines = [f"trace span timeline: {summary['wall_s']:.4f} s wall"]
    if other:
        dropped = other.get("dropped", 0)
        lines.append(
            f"  {other.get('spans', '?')} spans"
            + (f" ({dropped} DROPPED past capacity "
               f"{other.get('capacity')})" if dropped else "")
        )
    if summary.get("truncated"):
        # the exporter's ring wrapped: every number below under-counts
        lines.append(
            f"  WARNING: trace truncated — {summary['dropped']} span(s) "
            f"dropped past capacity {summary.get('capacity')}; durations "
            f"and busy fractions under-count the run"
        )
    lines.append(
        f"  critical path (chain proxy): {summary['critical_path_s']:.4f} s"
        f" | achieved parallelism {summary['parallelism']:.2f}x"
    )
    if summary["lanes"]:
        lines.append("")
        lines.append("lanes (busy vs idle):")
        lines.append(f"  {'lane':24} {'spans':>7} {'busy s':>10} {'idle':>7}")
        for name in sorted(summary["lanes"]):
            lane = summary["lanes"][name]
            lines.append(
                f"  {name:24} {lane['spans']:>7} {lane['busy_s']:>10.4f} "
                f"{100.0 * lane['idle_fraction']:>6.1f}%"
            )
    if summary["halo"] is not None:
        h = summary["halo"]
        lines.append("")
        lines.append(
            f"halo gather: {h['halo_s']:.4f} s, of which "
            f"{100.0 * h['overlap_fraction']:.1f}% overlapped with "
            f"another worker's compute"
        )
    if summary["totals"]:
        lines.append("")
        lines.append(f"top spans (by total duration):")
        lines.append(f"  {'span':40} {'calls':>8} {'seconds':>10}")
        ranked = sorted(summary["totals"].items(),
                        key=lambda kv: -kv[1]["seconds"])
        for name, cell in ranked[:top]:
            lines.append(f"  {name:40} {cell['calls']:>8} {cell['seconds']:>10.4f}")
        if len(ranked) > top:
            lines.append(f"  ... {len(ranked) - top} more span names")
    return lines


def summarize_trace_file(path: str, check: bool = False) -> int:
    """CLI driver for ``python -m repro obs-trace``; returns an exit code."""
    doc = load_trace(path)
    errors = validate_chrome_trace(doc)
    if errors:
        for msg in errors:
            print(f"{path}: {msg}")
        print(f"{path}: INVALID ({len(errors)} schema error(s))")
        return 1
    if check:
        print(f"{path}: {len(doc.get('traceEvents', []))} events -> OK")
    print(f"== trace {path} ==")
    for line in trace_summary_lines(summarize_trace(doc), doc.get("otherData")):
        print(line)
    return 0
