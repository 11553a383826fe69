#!/usr/bin/env python3
"""Validate a structured run log (JSONL) produced with ``--log-json``.

Checks every line against the repro.obs schema and optionally enforces
minimum content requirements (used by CI to assert that a kill/resume
pair actually produced two manifests and a stream of heartbeats).
``metrics`` records additionally have their snapshot payload checked
against the :mod:`repro.obs.metrics` compact-snapshot shape (schema
version, counter/gauge/histogram structure), and ``recovery`` /
``diverged`` / ``member_quarantined`` records have their schema-v3
diagnostic-bundle fields type-checked (``bundle`` null-or-string,
``verdict`` a known classifier verdict).

Pointing the tool at an **ensemble out-dir** instead of a file validates
``ensemble.jsonl`` plus every member's ``run.jsonl``, reports each
member's metric staleness — how far behind the fleet's newest record the
member's last metrics snapshot is — and checks that every referenced
diagnostic bundle actually exists on disk.

Exit status: 0 when the log is valid and all requirements hold,
1 otherwise.

Run:  python tools/check_runlog.py RUN.jsonl [--min-manifests 2] [--require-heartbeat]
      python tools/check_runlog.py ENSEMBLE_DIR [--require-metrics]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs.runlog import iter_jsonl, validate_jsonl  # noqa: E402
from repro.obs.blackbox import VERDICTS  # noqa: E402
from repro.obs.metrics import METRICS_SCHEMA_VERSION  # noqa: E402

#: events whose schema-v3 payload carries a diagnostic-bundle path
_BUNDLE_EVENTS = ("recovery", "diverged", "member_quarantined", "member_retry")


def check_bundle_fields(rec) -> list[str]:
    """Type errors in a record's bundle/verdict fields (empty = ok)."""
    errors = []
    event = rec.get("event")
    if "bundle" in rec and rec["bundle"] is not None \
            and not isinstance(rec["bundle"], str):
        errors.append(f"{event}: 'bundle' must be null or a path string")
    if "verdict" in rec and rec["verdict"] is not None:
        if rec["verdict"] not in VERDICTS:
            errors.append(f"{event}: verdict {rec['verdict']!r} is not one "
                          f"of {', '.join(VERDICTS)}")
    return errors


def check_metrics_payload(snap) -> list[str]:
    """Structural errors in one compact metrics snapshot (empty = ok)."""
    errors = []
    if not isinstance(snap, dict):
        return [f"metrics payload is {type(snap).__name__}, expected object"]
    schema = snap.get("schema")
    if not isinstance(schema, int):
        errors.append("metrics payload missing integer 'schema'")
    elif schema > METRICS_SCHEMA_VERSION:
        # future schema: tolerated (forward compatibility), worth a note
        errors.append(f"metrics schema {schema} is newer than this tool "
                      f"({METRICS_SCHEMA_VERSION})")
    counters = snap.get("counters", {})
    if not isinstance(counters, dict) or any(
            not isinstance(v, (int, float)) or isinstance(v, bool)
            for v in counters.values()):
        errors.append("metrics 'counters' must map names to numbers")
    gauges = snap.get("gauges", {})
    if not isinstance(gauges, dict):
        errors.append("metrics 'gauges' must be an object")
    else:
        for name, cell in gauges.items():
            if (not isinstance(cell, dict)
                    or not isinstance(cell.get("value"), (int, float))
                    or isinstance(cell.get("value"), bool)):
                errors.append(f"gauge {name!r}: expected {{'value': number}}")
    hists = snap.get("histograms", {})
    if not isinstance(hists, dict):
        errors.append("metrics 'histograms' must be an object")
    else:
        for name, cell in hists.items():
            if not isinstance(cell, dict):
                errors.append(f"histogram {name!r}: expected object")
                continue
            bounds = cell.get("bounds")
            counts = cell.get("counts")
            if (not isinstance(bounds, list) or not isinstance(counts, list)
                    or len(counts) != len(bounds) + 1):
                errors.append(f"histogram {name!r}: need len(counts) == "
                              "len(bounds) + 1")
    return errors


def check_file(path, min_manifests=0, require_heartbeat=False,
               label=None) -> tuple[bool, dict]:
    """Validate one run log; returns (ok, info) and prints errors.

    ``info`` carries the event counts plus the wall stamps of the last
    metrics record and the last record overall (for staleness).
    """
    label = label or path
    result = validate_jsonl(path)
    ok = True
    for lineno, msg in result["errors"]:
        print(f"{label}:{lineno}: {msg}", file=sys.stderr)
        ok = False

    # second pass: metrics payload structure, bundle-field types, and
    # wall stamps for staleness
    last_wall = None
    last_metrics_wall = None
    n_metrics = 0
    bundles = []
    # (bad lines were already reported by validate_jsonl)
    for lineno, rec in iter_jsonl(path):
        wall = rec.get("wall")
        if isinstance(wall, (int, float)) and not isinstance(wall, bool):
            last_wall = max(last_wall or wall, wall)
        if rec.get("event") == "metrics":
            n_metrics += 1
            if isinstance(wall, (int, float)):
                last_metrics_wall = wall
            for msg in check_metrics_payload(rec.get("metrics")):
                print(f"{label}:{lineno}: {msg}", file=sys.stderr)
                ok = False
        if rec.get("event") in _BUNDLE_EVENTS:
            for msg in check_bundle_fields(rec):
                print(f"{label}:{lineno}: {msg}", file=sys.stderr)
                ok = False
            if isinstance(rec.get("bundle"), str):
                bundles.append(rec["bundle"])

    events = result["events"]
    n_manifests = events.get("manifest", 0)
    if n_manifests < min_manifests:
        print(f"check_runlog: {label}: {n_manifests} manifest event(s), "
              f"need >= {min_manifests}", file=sys.stderr)
        ok = False
    if require_heartbeat and events.get("heartbeat", 0) < 1:
        print(f"check_runlog: {label}: no heartbeat events", file=sys.stderr)
        ok = False

    summary = ", ".join(f"{k}={v}" for k, v in sorted(events.items()))
    if result.get("truncated_tail"):
        summary += ", truncated_tail"
    status = "OK" if ok else "FAIL"
    print(f"check_runlog: {label}: {result['records']} record(s) "
          f"[{summary}] -> {status}")
    return ok, {"events": events, "last_wall": last_wall,
                "last_metrics_wall": last_metrics_wall,
                "n_metrics": n_metrics, "bundles": bundles}


def check_ensemble_dir(run_dir, require_metrics=False) -> bool:
    """Validate an ensemble out-dir: supervisor log + member logs +
    per-member metric staleness."""
    ok = True
    referenced = []  # (source label, bundle path, dirs to resolve against)
    sup = os.path.join(run_dir, "ensemble.jsonl")
    if os.path.exists(sup):
        sup_ok, sup_info = check_file(sup, label=sup)
        ok = ok and sup_ok
        referenced += [(sup, b, None) for b in sup_info["bundles"]]
    else:
        print(f"check_runlog: {sup}: no supervisor log", file=sys.stderr)
        ok = False

    members = {}
    for name in sorted(os.listdir(run_dir)):
        mdir = os.path.join(run_dir, name)
        log = os.path.join(mdir, "run.jsonl")
        if os.path.isfile(log):
            m_ok, info = check_file(log, label=log)
            ok = ok and m_ok
            members[name] = info
            referenced += [(log, b, mdir) for b in info["bundles"]]

    if not members:
        print(f"check_runlog: {run_dir}: no member run logs", file=sys.stderr)
        return False

    # staleness is offline-relative: against the newest wall stamp seen
    # anywhere in the run, not against the clock of whoever runs the tool
    newest = max((i["last_wall"] for i in members.values()
                  if i["last_wall"] is not None), default=None)
    print(f"\nper-member metrics ({len(members)} member(s)):")
    for name, info in sorted(members.items()):
        n = info["n_metrics"]
        if n == 0:
            line = f"  {name:14} no metrics records"
            if require_metrics:
                ok = False
                line += "  [FAIL: --require-metrics]"
        else:
            stale = ""
            if newest is not None and info["last_metrics_wall"] is not None:
                stale = (f", {newest - info['last_metrics_wall']:.1f}s behind "
                         "the fleet's newest record")
            line = f"  {name:14} {n} metrics record(s){stale}"
        print(line)

    # every bundle path a log references must exist; tolerate run dirs
    # that were relocated by also trying the basename in each member dir
    # (worker logs record the path as seen inside the worker)
    if referenced:
        missing = 0
        member_dirs = [os.path.join(run_dir, n) for n in sorted(members)]
        for src, bundle, mdir in referenced:
            candidates = [bundle, os.path.join(run_dir, bundle)]
            base = os.path.basename(bundle)
            for d in ([mdir] if mdir else member_dirs):
                candidates.append(os.path.join(d, base))
            if not any(os.path.isfile(c) for c in candidates):
                print(f"check_runlog: {src}: referenced bundle "
                      f"{bundle!r} not found", file=sys.stderr)
                missing += 1
                ok = False
        print(f"\ndiagnostic bundles: {len(referenced)} referenced, "
              f"{missing} missing")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runlog", help="path to a JSONL run log, or an ensemble "
                    "out-dir (validates ensemble.jsonl + member logs)")
    ap.add_argument("--min-manifests", type=int, default=1,
                    help="minimum number of manifest events (default 1; "
                    "a kill/resume pair should have 2)")
    ap.add_argument("--require-heartbeat", action="store_true",
                    help="fail unless at least one heartbeat event is present")
    ap.add_argument("--require-metrics", action="store_true",
                    help="directory mode: fail for members without any "
                    "metrics records")
    args = ap.parse_args(argv)

    if os.path.isdir(args.runlog):
        return 0 if check_ensemble_dir(
            args.runlog, require_metrics=args.require_metrics) else 1
    if not os.path.exists(args.runlog):
        print(f"check_runlog: {args.runlog}: no such file", file=sys.stderr)
        return 1
    ok, _ = check_file(args.runlog, min_manifests=args.min_manifests,
                       require_heartbeat=args.require_heartbeat)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
