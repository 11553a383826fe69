#!/usr/bin/env python3
"""Compare the newest ``BENCH_*.json`` record against history + roofline.

Reads a benchmark-battery history file written by ``python -m repro
bench`` (see :mod:`repro.obs.bench`), takes the newest record, and

* diffs each kernel's best-of-repeats seconds against the **median of
  the comparable history** (same host context, core count, BLAS thread
  count, order, mesh size and ``fast`` flag), flagging slowdowns beyond ``--threshold``
  (default 25%);
* sanity-checks the two roofline-modeled kernels (predictor, corrector)
  against :mod:`repro.hpc.perfmodel`: a measured GFLOP/s rate *above*
  the modeled bound means the timing or FLOP accounting is broken, and
  is always an error.

Exit status: 0 normally.  With ``--check`` (the CI soft gate) the exit
code is 1 only when a roofline violation is found, or when regressions
are found **and** at least ``--min-history`` (default 3) comparable
baseline records exist — before that the comparison warns but does not
gate, so a young trajectory cannot block CI.

Run:  python tools/bench_compare.py [BENCH_linux-x86_64.json] [--check]
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs.bench import (  # noqa: E402
    BATTERY_KERNELS,
    BENCH_SCHEMA_VERSION,
    default_history_path,
    load_history,
)

#: modeled kernels whose measured GFLOP/s must stay below the roofline
_MODELED = ("predictor", "corrector")

#: tolerance on the roofline bound (timer jitter on sub-ms kernels)
_ROOFLINE_SLACK = 1.05

#: instrumentation budget: the registry's guard sites (off) plus the
#: always-on flight-recorder appends must cost less than 2% of a step
#: (repro.obs.metrics guard discipline)
_OBS_BUDGET = 0.02


def comparable_key(record: dict) -> tuple:
    """Records compare only within identical problem + host shape.

    The kernel variant is part of the key: fused records time a
    different contraction chain with different FLOP accounting than the
    older batched ones, so the switch started a fresh trajectory instead
    of reading as a speedup against the batched history.  Records
    written before the field existed ran the then-only batched path.

    So is the BLAS thread count.  Records written before it was recorded
    (``None``) form their own trajectory: nothing says whether they ran
    with one thread or with many.  Their core count was ``cpu_count``.
    """
    host = record.get("host", {})
    return (host.get("context"), host.get("cores", host.get("cpu_count")),
            host.get("blas_threads"), record.get("order"),
            record.get("n_elements"), record.get("fast"),
            record.get("kernel_variant", "batched"))


def compare(doc: dict, threshold: float = 0.25, min_history: int = 3):
    """Return ``(lines, regressions, errors, n_baseline)`` for a history."""
    records = doc.get("records", [])
    if not records:
        return ["bench_compare: history is empty"], [], [], 0

    newest = records[-1]
    lines = []
    errors = []
    if newest.get("schema") != BENCH_SCHEMA_VERSION:
        errors.append(f"newest record has schema {newest.get('schema')!r}, "
                      f"this tool understands {BENCH_SCHEMA_VERSION}")

    key = comparable_key(newest)
    baseline = [r for r in records[:-1] if comparable_key(r) == key]
    lines.append(
        f"newest: git {newest.get('git_rev', 'unknown')[:12]} | "
        f"{newest.get('n_elements')} elements, order {newest.get('order')}, "
        f"kernels={newest.get('kernel_variant', 'batched')}, "
        f"fast={newest.get('fast')} | {len(baseline)} comparable baseline "
        f"record(s)"
    )

    regressions = []
    lines.append(f"  {'kernel':14} {'seconds':>10} {'baseline':>10} "
                 f"{'delta':>8}  status")
    for name in BATTERY_KERNELS:
        cell = newest.get("benches", {}).get(name)
        if cell is None:
            lines.append(f"  {name:14} {'-':>10} — missing from newest record")
            errors.append(f"kernel {name} missing from newest record")
            continue
        sec = cell["seconds"]
        base_secs = [r["benches"][name]["seconds"] for r in baseline
                     if name in r.get("benches", {})]
        if base_secs:
            base = statistics.median(base_secs)
            delta = (sec - base) / base
            if delta > threshold:
                status = f"REGRESSION (>{threshold:.0%})"
                regressions.append((name, delta))
            elif delta < -threshold:
                status = "improved"
            else:
                status = "ok"
            lines.append(f"  {name:14} {sec:10.5f} {base:10.5f} "
                         f"{delta:+7.1%}  {status}")
        else:
            lines.append(f"  {name:14} {sec:10.5f} {'-':>10} {'-':>8}  "
                         "no baseline")

    # roofline sanity: measured rate above the modeled bound is impossible
    for name in _MODELED:
        cell = newest.get("benches", {}).get(name)
        if not cell or "gflops" not in cell or "model_gflops" not in cell:
            continue
        if cell["gflops"] > cell["model_gflops"] * _ROOFLINE_SLACK:
            errors.append(
                f"{name}: measured {cell['gflops']:.2f} GFLOP/s exceeds the "
                f"{cell['model_gflops']:.2f} GFLOP/s roofline bound — timing "
                "or FLOP accounting is broken"
            )
        else:
            lines.append(f"  roofline {name}: {cell['gflops']:.2f} / "
                         f"{cell['model_gflops']:.2f} GFLOP/s "
                         f"({100 * cell.get('efficiency', 0):.1f}% of model)")

    # instrumentation budget: the disabled guard sites and the always-on
    # flight-recorder appends, relative to a real step
    cell = newest.get("benches", {}).get("obs_overhead")
    if cell and "step_fraction" in cell:
        frac = cell["step_fraction"]
        if frac > _OBS_BUDGET:
            errors.append(
                f"obs_overhead: instrumentation sites cost {frac:.2%} of a "
                f"step (> {_OBS_BUDGET:.0%} budget) — the hot path regressed"
            )
        else:
            lines.append(f"  instrumentation budget: {frac:.3%} of a step "
                         f"(< {_OBS_BUDGET:.0%} ok)")

    return lines, regressions, errors, len(baseline)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("history", nargs="?", default=None,
                    help="BENCH_*.json history file "
                    "(default: this host's file at the repo root)")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="relative slowdown that counts as a regression "
                    "(default 0.25)")
    ap.add_argument("--min-history", type=int, default=3,
                    help="baseline records required before --check hard-fails "
                    "on regressions (default 3)")
    ap.add_argument("--check", action="store_true",
                    help="exit non-zero on roofline violations, or on "
                    "regressions once enough history exists")
    args = ap.parse_args(argv)

    path = args.history or default_history_path()
    if not os.path.exists(path):
        print(f"bench_compare: {path}: no such file", file=sys.stderr)
        return 1 if args.check else 0
    try:
        doc = load_history(path)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"bench_compare: {path}: {exc}", file=sys.stderr)
        return 1

    lines, regressions, errors, n_baseline = compare(
        doc, threshold=args.threshold, min_history=args.min_history)
    print(f"== bench_compare {path} ==")
    for line in lines:
        print(line)
    for err in errors:
        print(f"ERROR: {err}", file=sys.stderr)

    gate = bool(errors)
    if regressions:
        names = ", ".join(f"{n} ({d:+.1%})" for n, d in regressions)
        if n_baseline >= args.min_history:
            print(f"regressions: {names}", file=sys.stderr)
            gate = True
        else:
            print(f"warning: regressions ({names}) but only {n_baseline} "
                  f"baseline record(s) (< {args.min_history}): soft gate, "
                  "not failing", file=sys.stderr)
    if args.check and gate:
        return 1
    if not args.check and errors:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
