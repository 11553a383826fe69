#!/usr/bin/env python3
"""Performance ledger: the four named runs, timed from process start.

Run from the repository root::

    python3 ledger/run.py --workload quickstart_gts --seed 0 --seconds 20 --trace 0
    python3 ledger/run.py --workload palu_lts --seed 0 --seconds 20 --trace 1

Load model: one closed loop with one client.  The driver spawns one child
process (``ledger/child.py``) at a time and waits for it; the next run
starts when the previous one has exited.  Each child imports ``repro``,
builds the workload for ``--seed``, marches it and checks its output, so
interpreter start-up and imports count.  The program's own concurrency
stays within 2 CPUs (2 partition threads or 2 ensemble worker processes).
The driver sets no BLAS or thread environment variable: the BLAS thread
count a run used is read back from the child and shown in the host record.

One warm-up run (output checked, not timed) precedes the timed runs, which
repeat until ``--seconds`` is used up (at least three).  ``--trace 0``
reports the end-to-end metrics as medians over the timed runs; ``--trace 1``
also makes one traced run, plus a GTS twin of LTS workloads and a serial
twin of partitioned ones, and reports the per-layer metrics that
``BENCHMARK.json`` names with a self-time table that sums to wall time.
``ledger/README.md`` says which end-to-end metric each of them should move.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)

from child import IMPORT_LOG_ENV  # noqa: E402
from tracer import ROWS, chrome_trace, layer_table  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: output checks against stored references run for this seed only
REFERENCE_SEED = 0
#: the roundoff bound of the reference check: relative difference of final
#: energy, final largest |eta| and seismic moment.  A change that renumbers elements
#: or reorders sums must stay within it.
REFERENCE_RTOL = 1e-6
#: timed runs per measurement, whatever ``--seconds`` says
MIN_RUNS = 3
#: a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 150.0

# ----------------------------------------------------------------------
# host record and comparability key
def host_record(first: dict, w) -> dict:
    """Host settings that change the numbers (the comparability key) plus
    the code identity.  Results with different keys are never compared."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    key = {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_library": first.get("blas_library"),
        "blas_threads": first.get("blas_threads"),
        "partition_workers": first.get("partition_workers", w.workers or 1),
        "ensemble_workers": w.ensemble_workers,
        "kernel_variant": first.get("kernel_variant"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    key_id = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()
    return {"comparable_key": key, "key_id": key_id[:16],
            "git_rev": _git_rev(), "src_sha256": _src_digest()}


def _git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """SHA-256 over the package sources: the code identity of a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "repro")
    for base, dirs, files in os.walk(pkg):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, pkg).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# one child process
def spawn(args: list, env: dict, log_path: str) -> dict:
    """Run ``child.py args`` to completion; wall, CPU and peak RSS of the
    whole process tree (``wait4`` rusage includes waited-for children)."""
    t0w, t0m = time.time(), time.monotonic()
    with open(log_path, "w") as log:
        # own process group: a timeout or an interrupt also stops the
        # child's ensemble workers
        proc = subprocess.Popen([sys.executable, CHILD, *args], cwd=ROOT,
                                env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)

        def stop():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        killer = threading.Timer(CHILD_TIMEOUT_S, stop)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            stop()
            proc.wait()
            raise
        finally:
            killer.cancel()
    t1m = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "t0w": t0w, "t0m": t0m,
            "wall": t1m - t0m, "cpu": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0}


def _tail(path: str, n: int = 6) -> str:
    try:
        with open(path) as fh:
            return "".join(fh.readlines()[-n:])
    except OSError:
        return ""


class Ledger:
    """Runs, checks and aggregates one workload for one seed."""

    def __init__(self, w, seed: int, reference: dict | None, scratch: str):
        self.w = w
        self.seed = seed
        self.reference = reference
        self.scratch = scratch
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        # temporary files of the run stay inside the checkout
        self.env["TMPDIR"] = scratch
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests = None
        self._n = 0

    # -- one run --------------------------------------------------------
    def run(self, extra: tuple = (), check: bool = True,
            env: dict | None = None) -> dict | None:
        """Spawn one run; returns its record or ``None`` when it failed."""
        self._n += 1
        tag = f"run{self._n}"
        result_path = os.path.join(self.scratch, f"{tag}.json")
        args = ["--workload", self.w.name, "--seed", str(self.seed),
                "--result", result_path, *extra]
        out_dir = None
        if self.w.members:
            # a fresh output directory per run: no disk state carries over
            out_dir = tempfile.mkdtemp(prefix=f"{tag}-", dir=self.scratch)
            args += ["--out-dir", out_dir]
        rec = spawn(args, env or self.env, os.path.join(self.scratch, f"{tag}.log"))
        try:
            res = None
            if rec["rc"] == 0 and os.path.exists(result_path):
                with open(result_path) as fh:
                    res = json.load(fh)
            if res is not None and out_dir is not None:
                res["artifacts"] = ensemble_artifacts(out_dir)
        except (OSError, KeyError, ValueError, StopIteration) as exc:
            res = None
            self.problems.append(f"{tag}: unreadable output ({exc!r})")
        finally:
            if out_dir is not None:
                shutil.rmtree(out_dir, ignore_errors=True)
        units = max(self.w.members, 1)
        self.attempted += units
        if res is None:
            self.failed += units
            self.problems.append(
                f"{tag}: exit code {rec['rc']}\n"
                + _tail(os.path.join(self.scratch, f"{tag}.log")))
            return None
        rec["result"] = res
        if check:
            # a run that fails its output check still ran: it is timed
            # and counted in failure_rate
            self.failed += self._check(res, tag)
        return rec

    # -- output checks --------------------------------------------------
    def _check(self, res: dict, tag: str) -> int:
        """Number of failed units (runs, or members for an ensemble)."""
        units = max(self.w.members, 1)
        outs = (res["artifacts"]["members"] if self.w.members else [res])
        if len(outs) != units:
            self.problems.append(f"{tag}: {len(outs)} of {units} members ran")
            return units
        bad = set()
        for i, o in enumerate(outs):
            for msg in self._check_one(o, i):
                bad.add(i)
                self.problems.append(f"{tag}: {msg}")
        digests = [o["digest"] for o in outs]
        if self.digests is None:
            self.digests = digests
        for i, (d, d0) in enumerate(zip(digests, self.digests)):
            if d != d0:
                bad.add(i)
                self.problems.append(
                    f"{tag}: unit {i} state digest differs from the first run "
                    "of this seed (runs must be bitwise reproducible)")
        return len(bad)

    def _check_one(self, o: dict, i: int):
        if self.w.members:
            if o["status"] != "ok" or o["attempts"] != 1:
                yield (f"member {i} status {o['status']} after "
                       f"{o['attempts']} attempt(s); want ok after 1")
        elif not o["finite"]:
            yield "non-finite state"
        energy = o.get("energy")
        if energy is None or not math.isfinite(energy) or energy <= 0:
            yield f"unit {i}: energy {energy!r} is not finite and positive"
        eta = o.get("final_eta")
        if eta is not None and not math.isfinite(eta):
            yield f"unit {i}: final |eta| is not finite"
        if self.w.fault and not (o.get("moment") or 0) > 0:
            yield f"unit {i}: seismic moment {o.get('moment')!r} is not positive"
        if self.reference is None or self.seed != REFERENCE_SEED:
            return
        ref = self.reference["members"][i] if self.w.members else self.reference
        for key, want in ref.items():
            got = o.get(key)
            if got is None or abs(got - want) > REFERENCE_RTOL * max(abs(got), abs(want)):
                yield (f"unit {i}: {key} = {got!r} differs from the reference "
                       f"{want!r} by more than rtol {REFERENCE_RTOL:g}")

    # -- per-run end-to-end numbers -------------------------------------
    def sample(self, rec: dict) -> dict:
        res = rec["result"]
        if self.w.members:
            art = res["artifacts"]
            setup = max(m["first_heartbeat"] for m in art["members"]) - rec["t0w"]
            march = art["makespan"]
            updates = art["elem_updates"]
        else:
            setup = res["t_march0"] - rec["t0m"]
            march = res["t_march1"] - res["t_march0"]
            updates = res["elem_updates"]
        return {"wall_s": rec["wall"], "setup_s": setup,
                "elem_updates_per_s": updates / march, "march_s": march,
                "cpu_s": rec["cpu"], "peak_rss_mb": rec["rss_mb"]}


# ----------------------------------------------------------------------
# ensemble artifacts
def _read_jsonl(path: str) -> list:
    recs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                recs.append(json.loads(line))
    return recs


def ensemble_artifacts(out_dir: str) -> dict:
    """Supervision and I/O figures of one ensemble run, from its on-disk
    artifacts: ``ensemble.jsonl``, member ``run.jsonl`` and ``result.json``."""
    sup = _read_jsonl(os.path.join(out_dir, "ensemble.jsonl"))
    starts = {r["member"]: r for r in sup if r["event"] == "member_start"}
    ends = {r["member"]: r for r in sup if r["event"] == "member_end"}
    summary = next(r for r in sup if r["event"] == "ensemble_summary")
    members = []
    for mid in sorted(starts):
        mdir = os.path.join(out_dir, mid)
        log_path = os.path.join(mdir, "run.jsonl")
        log = _read_jsonl(log_path)
        with open(os.path.join(mdir, "result.json")) as fh:
            result = json.load(fh)
        ev = {}
        for r in log:
            ev.setdefault(r["event"], []).append(r)
        manifest = ev["manifest"][0]
        # a checkpoint write spans from the record before it (the last
        # heartbeat of its segment) to its own record
        ckpts = [(log[k - 1]["wall"], r["wall"]) for k, r in enumerate(log)
                 if r["event"] == "checkpoint" and k > 0]
        counters = (result.get("metrics") or {}).get("counters", {})
        gauges = (result.get("metrics") or {}).get("gauges", {})
        members.append({
            "member_id": mid,
            "status": ends.get(mid, {}).get("status", "missing"),
            "attempts": ends.get(mid, {}).get("attempts", 0),
            "digest": result["digest"],
            "pid": starts[mid]["pid"],
            "start": starts[mid]["wall"],
            "manifest": manifest["wall"],
            "run_end": ev["run_end"][-1]["wall"],
            "end": ends[mid]["wall"],
            "first_heartbeat": ev["heartbeat"][0]["wall"],
            "heartbeats": len(ev.get("heartbeat", [])),
            "checkpoints": ckpts,
            "checkpoint_writes": counters.get("io/checkpoint_writes", 0),
            "checkpoint_bytes": counters.get("io/checkpoint_bytes", 0),
            "plan_hits": counters.get("cache/plan_hits", 0),
            "plan_misses": counters.get("cache/plan_misses", 0),
            "runlog_records": len(log),
            "runlog_bytes": os.path.getsize(log_path),
            "steps": result["steps"],
            "n_elements": manifest["n_elements"],
            "order": manifest["order"],
            "kernel_variant": manifest["kernel_variant"],
            "energy": gauges.get("health/energy_total", {}).get("value"),
            "final_eta": result["summary"].get("eta_abs_max"),
        })
    return {
        "members": members,
        "makespan": summary["wall_s"],
        "elem_updates": sum(m["steps"] * m["n_elements"] for m in members),
    }


# ----------------------------------------------------------------------
# aggregation
def tail_percentile(values: list):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n - math.ceil(p / 100 * n) >= 10:
            return p, sorted(values)[math.ceil(p / 100 * n) - 1]
    return None, None


def traced_layers(led: Ledger, traced: dict, samples: list, twins: dict) -> dict:
    """Per-layer metrics from the traced run, by ``BENCHMARK.json`` name."""
    from repro.hpc.perfmodel import kernel_counts

    w = led.w
    res = traced["result"]
    with open(traced["spans_path"]) as fh:
        dump = json.load(fh)
    spans = [tuple(s) for s in dump["spans"]]
    main_tid = dump["main_tid"]
    import_s = res["t_imported"] - traced["t0m"]
    med_march = statistics.median(s["march_s"] for s in samples)
    med_wall = statistics.median(s["wall_s"] for s in samples)
    m = {}

    if w.members:
        art = res["artifacts"]
        spans += member_lanes(spans, art, res, traced["import_log"])
        n_lanes = w.ensemble_workers
        mems = art["members"]
        updates = art["elem_updates"]
        order, variant = mems[0]["order"], mems[0]["kernel_variant"]
        hits = sum(x["plan_hits"] for x in mems)
        lookups = hits + sum(x["plan_misses"] for x in mems)
        run_sum = sum(x["run_end"] - x["manifest"] for x in mems)
        micro = sum(x["steps"] for x in mems)
        m.update({
            "io.checkpoint_writes": sum(x["checkpoint_writes"] for x in mems),
            "io.checkpoint_bytes": sum(x["checkpoint_bytes"] for x in mems),
            "ensemble.overhead": art["makespan"] / (run_sum / n_lanes) - 1.0,
            "ensemble.runlog_records": sum(x["runlog_records"] for x in mems),
            "ensemble.runlog_bytes": sum(x["runlog_bytes"] for x in mems),
            "ensemble.heartbeats": sum(x["heartbeats"] for x in mems),
            "exec.parallel_speedup": run_sum / art["makespan"],
            "exec.halo_elems": 0,
            "sched.lts_theoretical_reduction": 1.0,
            "sched.lts_realized_fraction": 1.0,
        })
    else:
        n_lanes = res["partition_workers"]
        updates = res["elem_updates"]
        order, variant = res["order"], res["kernel_variant"]
        hits = res["plan_cache"]["hits"]
        lookups = hits + res["plan_cache"]["misses"]
        micro = res["micro_steps"]
        theoretical = res["lts_theoretical_reduction"]
        realized = (twins["gts"] / med_march) / theoretical if "gts" in twins else 1.0
        m.update({
            "io.checkpoint_writes": 0, "io.checkpoint_bytes": 0,
            "ensemble.overhead": 0.0, "ensemble.runlog_records": 0,
            "ensemble.runlog_bytes": 0, "ensemble.heartbeats": 0,
            "exec.parallel_speedup": (twins["serial"] / med_march
                                      if "serial" in twins else 1.0),
            "exec.halo_elems": res["halo_elems"],
            "sched.lts_theoretical_reduction": theoretical,
            "sched.lts_realized_fraction": realized,
        })

    rows, regions = layer_table(spans, main_tid, traced["wall"], n_lanes, import_s)
    busy = regions["lane_busy_s"]
    counts = kernel_counts(order, variant=variant)
    inclusive = {"predict": 0.0, "corrector": 0.0}
    for s in spans:
        if s[5] == main_tid and s[2] == "exec.self":
            kind = "corrector" if s[1].endswith("corrector") else "predict"
            inclusive[kind] += s[4] - s[3]
    m.update({f"{r}_s": rows[r] for r in ROWS})
    m.update({
        "unattributed_s": rows["unattributed"],
        "trace.wall_s": traced["wall"],
        "obs.tracing_overhead": traced["wall"] / med_wall - 1.0,
        "exec.plan_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "exec.plan_cache_lookups": lookups,
        "kernels.us_per_elem_update": 1e6 / statistics.median(
            s["elem_updates_per_s"] for s in samples),
        "kernels.predictor_gflop_computed": counts.flops_predictor * updates / 1e9,
        "kernels.corrector_gflop_computed": counts.flops_corrector * updates / 1e9,
        "sched.micro_steps": micro,
        "sched.elem_updates": updates,
        "exec.predict_s": inclusive["predict"],
        "exec.corrector_s": inclusive["corrector"],
        "exec.main_wait_s": regions["main_wait_s"],
        "exec.worker_busy_fraction": (sum(busy) / (n_lanes * regions["region_s"])
                                      if busy else 1.0),
        "exec.imbalance": max(busy) / statistics.mean(busy) if busy else 1.0,
    })
    return {"metrics": m, "rows": rows, "spans": spans, "main_tid": main_tid}


def member_lanes(spans: list, art: dict, res: dict, import_log: list) -> list:
    """Worker-lane spans of an ensemble run, rebuilt from its artifacts.

    Each member is one lane caused by the supervisor's ``Supervisor.run``
    span: spawn (member_start to manifest, with the member's own import as
    a child), run (manifest to run_end, checkpoint writes as children) and
    publish (run_end to member_end).  Wall-clock stamps are moved onto the
    monotonic clock with the child's measured offset.
    """
    sup = next(s[0] for s in spans if s[1] == "Supervisor.run")
    off = res["clock_offset"]
    imports = {r["pid"]: r for r in import_log}
    ids = iter(range(max(s[0] for s in spans) + 1, 1 << 62))
    out = []
    for mem in art["members"]:
        lane = mem["member_id"]

        def add(name, row, a, b, parent=None, cause=None):
            sid = next(ids)
            out.append((sid, name, row, a - off, b - off, lane, parent, cause))
            return sid

        spawn_id = add("member.spawn", "ensemble.spawn", mem["start"],
                       mem["manifest"], cause=sup)
        imp = imports.get(mem["pid"])
        if imp is not None:
            add("member.import", "setup.import", max(imp["t0"], mem["start"]),
                min(imp["t1"], mem["manifest"]), parent=spawn_id)
        run_id = add("member.run", "ensemble.member_run", mem["manifest"],
                     mem["run_end"], cause=sup)
        for a, b in mem["checkpoints"]:
            add("member.checkpoint", "io.checkpoint", a, b, parent=run_id)
        add("member.publish", "ensemble.publish", mem["run_end"], mem["end"],
            cause=sup)
    return out


# ----------------------------------------------------------------------
def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's outputs as the workload's reference")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"ledger: no repro package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    # metric names and units: ``Ledger.sample`` and ``traced_layers``
    # compute every metric under its BENCHMARK.json name
    metric_units = {kind: [(d["name"], d["unit"]) for d in declared[kind]]
                    for kind in ("end_to_end", "per_layer")}

    w = WORKLOADS[args.workload]
    with open(REFERENCE) as fh:
        references = json.load(fh)
    reference = None if args.write_reference else references.get(w.name)
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT)
    try:
        return measure(args, w, reference, references, metric_units, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, w, reference, references, metric_units, scratch) -> int:
    led = Ledger(w, args.seed, reference, scratch)
    t_start = time.monotonic()
    # the first run after a pause reloads libraries evicted from the page
    # cache and reads slow; it is checked but not timed
    first = led.run()
    samples = []
    while True:
        rec = led.run()
        if rec is not None:
            samples.append(led.sample(rec))
            first = first or rec
        elapsed = time.monotonic() - t_start
        typical = statistics.median(s["wall_s"] for s in samples) if samples else 0
        # stop before a run that would end past the measurement window;
        # runs that keep failing stop at three windows
        if ((len(samples) >= MIN_RUNS and elapsed + typical > args.seconds)
                or elapsed > 3 * args.seconds):
            break
    if not samples:
        print("ledger: no run completed", file=sys.stderr)
        for p in led.problems:
            print(p, file=sys.stderr)
        return 1

    res0 = first["result"]
    if w.members:
        mem0 = res0["artifacts"]["members"][0]
        res0 = dict(res0, kernel_variant=mem0["kernel_variant"])
    host = host_record(res0, w)

    if args.write_reference:
        outs = res0["artifacts"]["members"] if w.members else [res0]
        keys = ("energy", "final_eta") + (("moment",) if w.fault else ())
        vals = [{k: o[k] for k in keys if o.get(k) is not None} for o in outs]
        references[w.name] = {"members": vals} if w.members else vals[0]
        with open(REFERENCE, "w") as fh:
            json.dump(references, fh, indent=2, sort_keys=True)
            fh.write("\n")

    print(f"workload {w.name}  seed {args.seed}  timed runs {len(samples)} "
          f"(+1 warm-up)  closed loop, 1 client")
    print(f"host key {host['key_id']}: " + json.dumps(host["comparable_key"], sort_keys=True))
    print(f"code: git_rev {host['git_rev']}  src_sha256 {host['src_sha256']}")

    e2e = {}
    for name, unit in metric_units["end_to_end"]:
        vals = [s[name] for s in samples]
        e2e[name] = (statistics.median(vals), unit)
        p, v = tail_percentile(vals)
        tail = f"p{p} {v:.6g}" if p else "no percentile has >=10 runs beyond it"
        print(f"  {name:<20} {statistics.median(vals):>14.6g} {unit:<6} "
              f"median of n={len(vals)}; {tail}")
        print(f"  {'':<20} runs: " + " ".join(f"{v:.4g}" for v in vals))

    metrics = {n: {"value": v, "unit": u} for n, (v, u) in e2e.items()}
    if args.trace:
        # a failed traced run is already counted as failed by Ledger.run
        layer = trace(args, led, samples)
        if layer is not None:
            metrics = {n: {"value": layer[n], "unit": u}
                       for n, u in metric_units["per_layer"]}

    rate = led.failed / max(led.attempted, 1)
    print(f"  {'failure_rate':<20} {rate:>14.6g} {'fraction':<6} "
          f"{led.failed} failed of {led.attempted} attempted "
          f"({'members' if w.members else 'runs'})")
    for p in led.problems:
        print(f"  FAIL {p}")
    checked = ("reference + " if reference is not None and args.seed == REFERENCE_SEED
               else "")
    print(f"  output checks: {checked}finite state, positive energy, "
          f"bitwise-equal digests across runs")
    print(json.dumps({"correct": led.failed == 0, "attempted": led.attempted,
                      "failed": led.failed, "metrics": metrics}))
    return 0


def trace(args, led: Ledger, samples: list) -> dict | None:
    """The traced run and its twins; prints the self-time table."""
    w = led.w
    spans_path = os.path.join(led.scratch, "spans.json")
    import_log = os.path.join(led.scratch, "imports.jsonl")
    env = dict(led.env)
    if w.members:
        env[IMPORT_LOG_ENV] = import_log
    traced = led.run(("--spans", spans_path), env=env)
    if traced is None:
        return None
    traced["spans_path"] = spans_path
    traced["import_log"] = (_read_jsonl(import_log)
                            if os.path.exists(import_log) else [])
    twins = {}
    for kind, wanted in (("gts", w.lts), ("serial", w.backend != "serial")):
        if wanted:
            rec = led.run(("--twin", kind), check=False)
            if rec is None:
                return None
            twins[kind] = rec["result"]["t_march1"] - rec["result"]["t_march0"]

    out = traced_layers(led, traced, samples, twins)
    rows, wall = out["rows"], traced["wall"]
    print(f"traced run: wall {wall:.4f} s; self time per layer "
          f"(lanes: {len({s[5] for s in out['spans']})})")
    for r in (*ROWS, "unattributed"):
        print(f"  {r:<26} {rows[r]:>10.4f} s {100 * rows[r] / wall:>6.1f} %")
    total = sum(rows.values())
    print(f"  {'sum':<26} {total:>10.4f} s = traced wall {wall:.4f} s "
          f"(tracing overhead {out['metrics']['obs.tracing_overhead']:+.1%})")
    for kind, t in twins.items():
        print(f"  {kind} twin march {t:.4f} s")

    from repro.obs.trace import validate_chrome_trace

    doc = chrome_trace(out["spans"], out["main_tid"], traced["t0m"],
                       f"{w.name}-seed{args.seed}")
    path = os.path.join(OUT, f"{w.name}.trace.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with open(path) as fh:
        errors = validate_chrome_trace(json.load(fh))
    print(f"  chrome trace {os.path.relpath(path, ROOT)}: "
          f"{len(doc['traceEvents'])} events, "
          f"{'valid' if not errors else 'INVALID: ' + '; '.join(errors[:3])}")
    if errors or rows["unattributed"] < -1e-6:
        led.problems.append("traced run: invalid trace or negative residual")
        led.failed += 1
        return None
    return out["metrics"]


if __name__ == "__main__":
    sys.exit(main())
