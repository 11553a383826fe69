"""The one instrumentation registry: counters, gauges, phase timers, spans
and the flight-recorder ring, behind one ``enabled`` guard.

The paper's performance story (Sec. 5-6) is told in per-kernel times,
per-LTS-cluster update counts and communication/compute splits; the
ensemble adds operator questions (how far along is every member, is one
drifting toward divergence) and the black box the last steps before a
fault.  All of it is recorded in one process-wide :class:`MetricRegistry`
(:func:`get_metrics`):

* **counters** (``inc``) and **gauges** (``set_gauge``, last write wins,
  wall-timestamped);
* **phase timers** — ``with met.phase("kernels/volume"): ...`` times a
  block under a hierarchical, thread-local path (``step/predict``; worker
  threads accumulate *busy* time).  A phase is a log-bucketed
  :class:`Histogram` of seconds: ``sum`` = seconds, ``count`` = calls
  (:func:`phases` is that view).  ``interval`` records a hand-measured
  span the same way (the partitioned workers' halo-gather/compute split);
* **one bounded ring** of recent events: flight-recorder events
  (``record_micro``/``record_step``/``record``) are appended *always*,
  even with the registry off — the safety net :mod:`repro.obs.blackbox`
  dumps on a fault; with tracing on, every phase, interval and ``span``
  is appended too.  The ring holds :data:`RING_CAPACITY` entries, or
  :data:`TRACE_RING_CAPACITY` while tracing; the oldest fall off and are
  counted as dropped.  :meth:`MetricRegistry.mark` lets a run read only
  the entries appended since it started.

The registry is default-off: every site but the recorder append is one
attribute check and a return, and ``phase()`` returns a shared null
context manager.  The ``obs_overhead`` bench kernel and a test hold all
site kinds below 2 % of a step.  Every exporter reads this registry: the
``--profile`` report, the run log's ``metrics``/``run_end`` records, the
Chrome trace (:meth:`MetricRegistry.trace_snapshot`), diagnostic bundles
and :func:`to_prometheus` (checked by :func:`validate_prometheus`).
:func:`merge_snapshots` folds member snapshots associatively, so the
supervisor's fleet totals agree in any grouping; the snapshot is
schema-versioned (:data:`METRICS_SCHEMA_VERSION`) because it crosses
process boundaries.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
import time
from collections import deque

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "RING_CAPACITY",
    "TRACE_RING_CAPACITY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "get_metrics",
    "default_log_buckets",
    "phases",
    "merge_snapshots",
    "to_prometheus",
    "validate_prometheus",
]

#: bumped whenever the snapshot layout changes (snapshots cross process
#: boundaries: heartbeat queues, durable run logs, fleet aggregates)
METRICS_SCHEMA_VERSION = 1

#: ring entries kept without tracing: the flight recorder's recent events
#: (micro-step windows + per-step gauges + sparse events, not steps)
RING_CAPACITY = 256

#: ring entries kept while tracing: ~60 bytes/span -> tens of MB at worst
TRACE_RING_CAPACITY = 1_000_000


def default_log_buckets(lo: float = 1e-6, hi: float = 1e6) -> tuple:
    """Fixed log-spaced histogram bucket upper bounds, one per decade.

    Spanning 1e-6..1e6 covers every phase duration in seconds without
    per-metric tuning; values above ``hi`` land in the implicit +Inf
    overflow bucket.
    """
    n = int(round(math.log10(hi / lo)))
    return tuple(lo * 10.0**k for k in range(n + 1))


_BOUNDS = default_log_buckets()


class Counter:
    """Monotonic counter."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, n: int) -> None:
        if n < 0:
            raise ValueError("counters are monotonic; inc() needs n >= 0")
        self.value += n


class Gauge:
    """Last-write-wins sampled value with its wall timestamp."""

    __slots__ = ("value", "t")
    kind = "gauge"

    def __init__(self):
        self.value = 0.0
        self.t = 0.0

    def set(self, v: float, t: float) -> None:
        self.value = float(v)
        self.t = t


class Histogram:
    """Fixed log-bucket histogram (non-cumulative counts + sum + count).

    ``bounds`` (:func:`default_log_buckets`) are the upper edges of the
    finite buckets; one implicit overflow bucket catches everything above
    ``bounds[-1]`` (so ``len(counts) == len(bounds) + 1``).  The exporter
    renders the cumulative ``le=`` form Prometheus prescribes.
    """

    __slots__ = ("counts", "sum", "count")
    kind = "histogram"
    bounds = _BOUNDS

    def __init__(self):
        self.counts = [0] * (len(_BOUNDS) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, v: float) -> None:
        self.counts[bisect.bisect_left(_BOUNDS, v)] += 1
        self.sum += v
        self.count += 1


class _NullContext:
    """Shared do-nothing context manager: the disabled fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL = _NullContext()


class _Timer:
    """Context manager timing one block: a phase under the current path
    (``args is None``), or a trace-only span carrying ``args``."""

    __slots__ = ("_reg", "_name", "_args", "_t0")

    def __init__(self, reg: "MetricRegistry", name: str, args: dict | None):
        self._reg = reg
        self._name = name
        self._args = args

    def __enter__(self):
        if self._args is None:
            stack = self._reg._stack()
            stack.append(self._name if not stack else f"{stack[-1]}/{self._name}")
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        t1 = time.perf_counter()
        reg = self._reg
        if self._args is None:
            reg._time(reg._stack().pop(), self._t0, t1, None)
        else:
            with reg._lock:
                reg._push_span(self._name, self._t0, t1, self._args or None)
        return False


class MetricRegistry:
    """Process-wide instrumentation registry (default off, thread-safe).

    The metric entry points (:meth:`inc` / :meth:`set_gauge` /
    :meth:`phase` / :meth:`interval`) create the metric on first use and
    pin its type — re-using a name with a different type is a programming
    error and raises.  All mutation is lock-protected; the disabled path
    touches no lock.
    """

    def __init__(self):
        self.enabled = False
        #: whether phases, intervals and spans also go into the ring
        self.tracing = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._metrics: dict[str, object] = {}
        self._ring: deque = deque(maxlen=RING_CAPACITY)
        self._threads: dict[int, str] = {}
        #: ring appends over the registry's lifetime (positions for mark())
        self._seq = 0
        #: ``_seq`` at the last reset (appends since then minus the ring
        #: length are the entries that fell off)
        self._seq0 = 0

    # -- lifecycle ------------------------------------------------------
    def enable(self, trace: bool = False) -> None:
        """Switch recording on; ``trace=True`` also appends every phase,
        interval and span to the ring and grows it to
        :data:`TRACE_RING_CAPACITY`.  Trace mode is decided per enable: a
        plain ``enable()`` shrinks the ring back and drops earlier spans
        (flight-recorder events are kept)."""
        cap = TRACE_RING_CAPACITY if trace else RING_CAPACITY
        with self._lock:
            if self._ring.maxlen != cap:
                kept = self._ring if trace else (
                    e for e in self._ring if e[0] != "span")
                self._ring = deque(kept, maxlen=cap)
            self.tracing = bool(trace)
            self.enabled = True

    def disable(self) -> None:
        """Stop recording metrics and spans (the ring stays readable and
        keeps taking flight-recorder events)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every metric and ring entry (enabled flag and trace mode
        unchanged)."""
        with self._lock:
            self._metrics.clear()
            self._ring.clear()
            self._threads.clear()
            self._seq0 = self._seq

    # -- metrics ----------------------------------------------------------
    def _get(self, name: str, cls):
        m = self._metrics.get(name)
        if m is None:
            m = self._metrics[name] = cls()
        elif m.kind != cls.kind:
            raise ValueError(
                f"metric {name!r} is a {m.kind}, not a {cls.kind} "
                "(names pin their type on first use)"
            )
        return m

    def inc(self, name: str, n: int = 1) -> None:
        """Increment the monotonic counter ``name`` by ``n`` (>= 0)."""
        if not self.enabled:
            return
        with self._lock:
            self._get(name, Counter).inc(int(n))

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (timestamped now)."""
        if not self.enabled:
            return
        with self._lock:
            self._get(name, Gauge).set(value, time.time())

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def phase(self, name: str):
        """Timed context manager under the current phase path; a shared
        no-op when the registry is off."""
        if not self.enabled:
            return _NULL
        return _Timer(self, name, None)

    def interval(self, name: str, t0: float, t1: float, **args) -> None:
        """Record a hand-measured ``perf_counter`` interval under ``name``
        (and as a span carrying ``args`` when tracing)."""
        if self.enabled:
            self._time(name, t0, t1, args or None)

    def span(self, name: str, **args):
        """Trace-only context manager carrying structured ``args``.

        Appends one span (no phase histogram) when tracing is on; a shared
        no-op otherwise.  Use for coarse scheduler-level slices — one LTS
        cluster step — where the span's identity (cluster id, element
        count) matters more than its aggregate time.
        """
        if not (self.enabled and self.tracing):
            return _NULL
        return _Timer(self, name, args)

    def _time(self, path: str, t0: float, t1: float, args) -> None:
        with self._lock:
            self._get(path, Histogram).observe(t1 - t0)
            if self.tracing:
                self._push_span(path, t0, t1, args)

    # -- the ring ---------------------------------------------------------
    def _push_span(self, name, t0, t1, args) -> None:
        """Append one span (caller holds the lock)."""
        tid = threading.get_ident()
        if tid not in self._threads:
            self._threads[tid] = threading.current_thread().name
        self._ring.append(("span", name, float(t0), float(t1), tid, args))
        self._seq += 1

    def _push(self, entry: tuple) -> None:
        with self._lock:
            self._ring.append(entry)
            self._seq += 1

    def record_micro(self, index, cluster, t_int, dt) -> None:
        """Flight recorder: one scheduler micro-step window (always on)."""
        self._push(("micro", index, cluster, t_int, dt))

    def record_step(self, step, t, dt, energy=None, dt_scale=None) -> None:
        """Flight recorder: one supervised step/sync sweep with its physics
        gauges (always on)."""
        self._push(("step", step, t, dt, energy, dt_scale))

    def record(self, kind: str, **fields) -> None:
        """Flight recorder: a sparse named event — checkpoint, recovery,
        resume (always on)."""
        self._push((kind, fields))

    def subscribe(self, bus) -> None:
        """Record every scheduler micro-step window off a
        :class:`~repro.sched.HookBus` (cluster/window ids in the ring)."""
        bus.on_micro_step(lambda s, ev: self.record_micro(
            ev.index, ev.cluster, ev.t_int, ev.dt))

    def mark(self) -> int:
        """Current ring position, for :meth:`entries` ``since``."""
        return self._seq

    def entries(self, since: int = 0) -> list[tuple]:
        """Raw ring entries appended at or after position ``since``
        (a :meth:`mark`), oldest first."""
        with self._lock:
            n = min(len(self._ring), self._seq - since)
            return list(self._ring)[len(self._ring) - n:] if n > 0 else []

    # -- reading ----------------------------------------------------------
    def value(self, name: str):
        """Current value of a counter/gauge (``None`` if absent)."""
        with self._lock:
            m = self._metrics.get(name)
            return None if m is None or m.kind == "histogram" else m.value

    def snapshot(self) -> dict:
        """Consistent, JSON-able copy of every metric — the wire form
        workers piggyback on heartbeat messages."""
        with self._lock:
            out: dict = {
                "schema": METRICS_SCHEMA_VERSION,
                "counters": {},
                "gauges": {},
                "histograms": {},
            }
            for name in sorted(self._metrics):
                m = self._metrics[name]
                if m.kind == "counter":
                    out["counters"][name] = int(m.value)
                elif m.kind == "gauge":
                    out["gauges"][name] = {"value": m.value, "t": m.t}
                else:
                    out["histograms"][name] = {
                        "bounds": list(m.bounds),
                        "counts": list(m.counts),
                        "sum": m.sum,
                        "count": int(m.count),
                    }
            return out

    def trace_snapshot(self) -> dict:
        """The ring's spans for :func:`repro.obs.trace.chrome_trace`:
        ``{"spans": [(name, t0, t1, tid, args), ...], "threads": {tid:
        name}, "dropped": n, "capacity": n}``, spans sorted by begin."""
        with self._lock:
            spans = [e[1:] for e in self._ring if e[0] == "span"]
            return {
                "spans": sorted(spans, key=lambda s: s[1]),
                "threads": dict(self._threads),
                "dropped": self._seq - self._seq0 - len(self._ring),
                "capacity": self._ring.maxlen,
            }


_METRICS = MetricRegistry()


def get_metrics() -> MetricRegistry:
    """The process-wide instrumentation registry."""
    return _METRICS


def phases(snapshot: dict) -> dict:
    """Phase-timer view of a snapshot: ``{path: {"seconds", "calls"}}``
    (every histogram is a phase timer: sum = seconds, count = calls)."""
    return {name: {"seconds": h["sum"], "calls": int(h["count"])}
            for name, h in snapshot.get("histograms", {}).items()}


# ----------------------------------------------------------------------
def merge_snapshots(a: dict | None, b: dict | None) -> dict:
    """Associative fold of two snapshots into one.

    * counters: sum;
    * gauges: the sample with the lexicographically larger ``(t, value)``
      wins (pure max, so any fold order agrees);
    * histograms: bucket-wise sum (bounds must match — folding disjoint
      bucketings has no meaning).

    ``None`` operands act as the identity, so a fold over an empty
    member list yields the empty snapshot.
    """
    if a is None and b is None:
        return {"schema": METRICS_SCHEMA_VERSION, "counters": {},
                "gauges": {}, "histograms": {}}
    if a is None:
        a, b = b, None
    out = {
        "schema": METRICS_SCHEMA_VERSION,
        "counters": dict(a.get("counters", {})),
        "gauges": {k: dict(v) for k, v in a.get("gauges", {}).items()},
        "histograms": {k: dict(v) for k, v in a.get("histograms", {}).items()},
    }
    if b is None:
        return out
    for name, v in b.get("counters", {}).items():
        out["counters"][name] = out["counters"].get(name, 0) + int(v)
    for name, g in b.get("gauges", {}).items():
        cur = out["gauges"].get(name)
        if cur is None or (g.get("t", 0.0), g.get("value", 0.0)) > (
                cur.get("t", 0.0), cur.get("value", 0.0)):
            out["gauges"][name] = dict(g)
    for name, h in b.get("histograms", {}).items():
        cur = out["histograms"].get(name)
        if cur is None:
            out["histograms"][name] = dict(h)
            continue
        if list(cur["bounds"]) != list(h["bounds"]):
            raise ValueError(
                f"histogram {name!r}: cannot merge differing bucket bounds"
            )
        out["histograms"][name] = {
            "bounds": list(cur["bounds"]),
            "counts": [x + y for x, y in zip(cur["counts"], h["counts"])],
            "sum": cur["sum"] + h["sum"],
            "count": int(cur["count"]) + int(h["count"]),
        }
    return out

# ----------------------------------------------------------------------
_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def prom_name(name: str, prefix: str = "repro") -> str:
    """Sanitize a free-form metric path to the Prometheus name grammar."""
    name = _NAME_SANITIZE.sub("_", name)
    if prefix:
        name = f"{prefix}_{name}"
    if not re.match(r"[a-zA-Z_:]", name[0]):
        name = "_" + name
    return name


def _fmt(v: float) -> str:
    if isinstance(v, float) and math.isnan(v):
        return "NaN"
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    return repr(float(v)) if isinstance(v, float) else str(int(v))


def _labels(labels: dict | None) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="' + str(v).replace("\\", r"\\").replace('"', r"\"")
        .replace("\n", r"\n") + '"'
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def to_prometheus(snapshot: dict, prefix: str = "repro",
                  labels: dict | None = None,
                  extra: dict | None = None) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    ``labels`` are constant labels stamped on every sample (the fleet
    exporter uses ``{member="..."}``); ``extra`` maps metric name ->
    ``{labelset_tuple: value}`` gauge samples appended verbatim by the
    aggregator (fleet min/max/quantile series).  Ends with a newline, as
    the textfile collector requires.
    """
    lines: list[str] = []

    def emit(name, kind, samples):
        lines.append(f"# TYPE {name} {kind}")
        for suffix, lab, value in samples:
            lines.append(f"{name}{suffix}{_labels(lab)} {_fmt(value)}")

    for name, value in snapshot.get("counters", {}).items():
        pname = prom_name(name, prefix)
        if not pname.endswith("_total"):
            pname += "_total"
        emit(pname, "counter", [("", labels, value)])
    for name, g in snapshot.get("gauges", {}).items():
        emit(prom_name(name, prefix), "gauge", [("", labels, g["value"])])
    for name, h in snapshot.get("histograms", {}).items():
        pname = prom_name(name, prefix)
        lines.append(f"# TYPE {pname} histogram")
        cum = 0
        for bound, count in zip(list(h["bounds"]) + [math.inf],
                                h["counts"]):
            cum += int(count)
            le = "+Inf" if bound == math.inf else _fmt(float(bound))
            lab = dict(labels or {})
            lab["le"] = le
            lines.append(f"{pname}_bucket{_labels(lab)} {cum}")
        lines.append(f"{pname}_sum{_labels(labels)} {_fmt(float(h['sum']))}")
        lines.append(f"{pname}_count{_labels(labels)} {int(h['count'])}")
    for name, series in (extra or {}).items():
        pname = prom_name(name, prefix)
        lines.append(f"# TYPE {pname} gauge")
        for lab, value in series:
            lines.append(f"{pname}{_labels(lab)} {_fmt(float(value))}")
    return "\n".join(lines) + "\n"


# -- strict text-format checker ----------------------------------------
_METRIC_NAME_RE = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABEL_RE = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"'
_SAMPLE_RE = re.compile(
    rf"^({_METRIC_NAME_RE})"
    rf"(?:\{{({_LABEL_RE}(?:,{_LABEL_RE})*)?,?\}})?"
    r" (-?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|[-+]?Inf|NaN)"
    r"( [0-9]+)?$"
)
_TYPE_RE = re.compile(
    rf"^# TYPE ({_METRIC_NAME_RE}) (counter|gauge|histogram|summary|untyped)$"
)
_HELP_RE = re.compile(rf"^# HELP ({_METRIC_NAME_RE}) .*$")

_HIST_SUFFIXES = ("_bucket", "_sum", "_count")


def _family(name: str, types: dict) -> str:
    """Strip histogram/summary suffixes down to the declared family name."""
    for suffix in _HIST_SUFFIXES:
        base = name[: -len(suffix)] if name.endswith(suffix) else None
        if base and types.get(base) in ("histogram", "summary"):
            return base
    return name


def validate_prometheus(text: str) -> list[str]:
    """Schema errors of a Prometheus text-format document (empty = valid).

    Strict about everything a textfile collector is strict about: line
    grammar, label syntax, one ``# TYPE`` per family declared before its
    samples, histogram families complete (``_bucket``/``_sum``/
    ``_count``) with cumulative bucket counts ending in an ``le="+Inf"``
    bucket equal to ``_count``, and a trailing newline.
    """
    errors: list[str] = []
    if text and not text.endswith("\n"):
        errors.append("document does not end with a newline")
    types: dict[str, str] = {}
    seen_samples: set[str] = set()
    hist: dict[str, dict] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            m = _TYPE_RE.match(line)
            if m:
                name, kind = m.groups()
                if name in types:
                    errors.append(f"line {lineno}: duplicate TYPE for {name}")
                if name in seen_samples:
                    errors.append(
                        f"line {lineno}: TYPE for {name} after its samples")
                types[name] = kind
                continue
            if _HELP_RE.match(line) or line.startswith("# "):
                continue
            errors.append(f"line {lineno}: malformed comment {line!r}")
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            errors.append(f"line {lineno}: malformed sample line {line!r}")
            continue
        name, labelstr, value_s, _ts = m.groups()
        family = _family(name, types)
        seen_samples.add(family)
        if family not in types:
            errors.append(
                f"line {lineno}: sample {name} has no preceding # TYPE")
            continue
        if types[family] == "histogram":
            slot = hist.setdefault(family, {"buckets": [], "sum": None,
                                            "count": None, "line": lineno})
            labels = dict(
                part.split("=", 1) for part in (labelstr or "").split(",")
                if "=" in part
            )
            if name.endswith("_bucket"):
                le = labels.get("le")
                if le is None:
                    errors.append(f"line {lineno}: _bucket sample without le=")
                else:
                    slot["buckets"].append((le.strip('"'), float(value_s)))
            elif name.endswith("_sum"):
                slot["sum"] = float(value_s)
            elif name.endswith("_count"):
                slot["count"] = float(value_s)
            else:
                errors.append(
                    f"line {lineno}: histogram family {family} sample {name} "
                    "is not _bucket/_sum/_count")
        elif types[family] == "counter":
            if float(value_s) < 0 and value_s not in ("-Inf",):
                errors.append(f"line {lineno}: counter {name} is negative")
    for family, slot in hist.items():
        buckets = slot["buckets"]
        if not buckets or buckets[-1][0] != "+Inf":
            errors.append(f"histogram {family}: buckets must end with le=\"+Inf\"")
        counts = [c for _, c in buckets]
        if any(b < a for a, b in zip(counts, counts[1:])):
            errors.append(f"histogram {family}: bucket counts not cumulative")
        if slot["count"] is None or slot["sum"] is None:
            errors.append(f"histogram {family}: missing _sum or _count")
        elif buckets and buckets[-1][1] != slot["count"]:
            errors.append(
                f"histogram {family}: le=\"+Inf\" bucket ({buckets[-1][1]:g}) "
                f"!= _count ({slot['count']:g})")
    return errors
