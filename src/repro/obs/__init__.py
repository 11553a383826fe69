"""Observability: one instrumentation registry and its exporters.

The measurement layer behind the paper's Sec. 5-6 performance story:

* :mod:`repro.obs.metrics` — the one process-wide instrumentation
  registry (:func:`get_metrics`) behind one default-off ``enabled``
  guard: counters, gauges, phase timers (log-bucketed histograms of
  seconds under hierarchical paths) and one bounded ring that holds the
  always-on flight-recorder events plus, while tracing, every span.
  Associative snapshot merging and the Prometheus text exporter live
  here too;
* :mod:`repro.obs.session` — :class:`ObsSession` wiring for the CLI's
  ``--profile`` / ``--trace`` / ``--metrics`` exporter selectors (each
  switches the registry on) and ``--log-json`` / ``--heartbeat-every``;
* :mod:`repro.obs.report` — measured-vs-modeled GFLOP/s accounting of a
  registry snapshot against :mod:`repro.hpc.perfmodel` (imported lazily:
  it pulls in the HPC models) and the ``obs-report`` run-log summary;
* :mod:`repro.obs.trace` — the ring's spans exported as
  Chrome-trace/Perfetto JSON timelines (one lane per partitioned worker,
  LTS cluster slices colored by cluster id) plus the ``obs-trace``
  summarizer;
* :mod:`repro.obs.runlog` — JSONL event sink (manifest, heartbeats,
  resilience events), its strict validator and the tolerant reader every
  live consumer uses;
* :mod:`repro.obs.fleet` — supervisor-side :class:`FleetAggregator`
  folding member snapshots into fleet series (``fleet.prom`` /
  ``fleet.jsonl`` exporters) plus the offline ``obs-status`` view;
* :mod:`repro.obs.blackbox` — on any terminal fault the ring's
  flight-recorder events are dumped as an atomic fingerprinted
  ``*.blackbox.json`` diagnostic bundle (NaN-origin localization,
  per-field statistics, thread stacks, run manifest) classified by the
  ``obs-diagnose`` CLI;
* :mod:`repro.obs.bench` — standardized kernel benchmark battery writing
  schema-versioned ``BENCH_<host-context>.json`` trajectory records
  (compared against history and the roofline by
  ``tools/bench_compare.py``).
"""

from .blackbox import (
    BUNDLE_SCHEMA_VERSION,
    build_bundle,
    classify_bundle,
    diagnose_bundle_file,
    dump_bundle,
    find_bundles,
    load_bundle,
    newest_bundle,
    validate_bundle,
    write_bundle,
)
from .fleet import FleetAggregator, status_lines, status_rows, watch_status
from .metrics import (
    METRICS_SCHEMA_VERSION,
    MetricRegistry,
    get_metrics,
    merge_snapshots,
    phases,
    to_prometheus,
    validate_prometheus,
)
from .runlog import (EVENT_FIELDS, SCHEMA_VERSION, RunLog, read_jsonl, run_manifest,
                     validate_jsonl, validate_record)
from .session import ObsSession, add_obs_args, obs_kwargs
from .trace import (
    TRACE_SCHEMA_VERSION,
    chrome_trace,
    export_chrome_trace,
    load_trace,
    merge_chrome_traces,
    summarize_trace,
    validate_chrome_trace,
)

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "chrome_trace",
    "export_chrome_trace",
    "load_trace",
    "merge_chrome_traces",
    "summarize_trace",
    "validate_chrome_trace",
    "RunLog",
    "run_manifest",
    "validate_record",
    "validate_jsonl",
    "read_jsonl",
    "EVENT_FIELDS",
    "SCHEMA_VERSION",
    "METRICS_SCHEMA_VERSION",
    "MetricRegistry",
    "get_metrics",
    "phases",
    "merge_snapshots",
    "to_prometheus",
    "validate_prometheus",
    "FleetAggregator",
    "status_rows",
    "status_lines",
    "watch_status",
    "BUNDLE_SCHEMA_VERSION",
    "build_bundle",
    "write_bundle",
    "dump_bundle",
    "load_bundle",
    "validate_bundle",
    "classify_bundle",
    "find_bundles",
    "newest_bundle",
    "diagnose_bundle_file",
    "ObsSession",
    "add_obs_args",
    "obs_kwargs",
]
