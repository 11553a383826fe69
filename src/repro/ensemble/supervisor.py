"""The ensemble supervisor: spawn, watch, retry, quarantine — never crash.

:class:`Supervisor` shards :class:`~repro.ensemble.spec.MemberSpec`\\ s
across OS worker processes (``multiprocessing`` spawn) and keeps the
fleet healthy under real failures:

* **heartbeats** — every worker reports per-sync-point liveness over a
  shared queue; a member that stops beating for ``member_timeout``
  seconds is declared hung, SIGKILLed, and retried;
* **deaths** — a nonzero or signal exit code (kill -9, OOM, segfault) is
  a strike; the member retries under the
  :class:`~repro.ensemble.retry.RetryPolicy` escalation ladder
  (backoff-with-jitter → checkpoint-resume → dt-scale reduction);
* **corrupt results** — a worker that exits 0 without publishing a valid
  result file (torn write, stale attempt) is treated exactly like a
  death;
* **quarantine** — a member that exhausts its strikes is retired with its
  full attempt history as a diagnosis; the rest of the fleet keeps
  running and the driver still terminates with a complete
  :class:`~repro.ensemble.result.EnsembleResult`.

Graceful degradation goes one level further: when process spawning
itself is unavailable (restricted containers, ``workers=0``), the
supervisor falls back to in-process execution of every member — no
parallelism and no true kill/hang isolation, but the same retry ladder
and the same complete result contract.

Spawned members share the host: each runs with at most
``host_cores() // workers`` BLAS threads (:mod:`repro.exec.threads`).
In-process members run one at a time and keep the full count.

Supervisor-level events (``member_start`` / ``member_retry`` /
``member_quarantined`` / ``member_end`` / ``ensemble_summary``) stream
through :class:`~repro.obs.runlog.RunLog` alongside each member's own
durable per-member log.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import queue as queue_mod
import time

from ..core.health.inject import InjectedHang, InjectedWorkerDeath
from ..obs.blackbox import (
    BUNDLE_SUFFIX,
    build_bundle,
    classify_bundle,
    find_bundles,
    load_bundle,
    write_bundle,
)
from ..obs.fleet import FleetAggregator
from ..obs.runlog import RunLog, read_jsonl
from .result import EnsembleResult, MemberResult
from .retry import RetryPolicy
from .spec import MemberSpec
from .worker import child_main, load_result, member_paths, run_member

__all__ = ["Supervisor"]

ENSEMBLE_LOG = "ensemble.jsonl"
ENSEMBLE_RESULT = "ensemble.json"

#: seconds between periodic fleet.prom/fleet.jsonl exports mid-run
METRICS_EXPORT_EVERY = 2.0


class _Member:
    """Supervision bookkeeping for one member (parent-side only)."""

    __slots__ = (
        "spec", "paths", "proc", "attempts", "strikes", "history",
        "next_start", "resume", "dt_scale", "last_beat", "first_wall",
        "last_error", "result", "last_metrics",
    )

    def __init__(self, spec: MemberSpec, out_dir: str):
        self.spec = spec
        self.paths = member_paths(out_dir, spec.member_id)
        self.proc = None
        self.attempts = 0
        self.strikes = 0
        self.history: list[dict] = []
        self.next_start = 0.0  # monotonic gate for backoff delays
        self.resume = False
        self.dt_scale = 1.0
        self.last_beat = 0.0
        self.first_wall = None
        self.last_error = None
        self.result: MemberResult | None = None
        self.last_metrics: dict | None = None  # snapshot off the wire

    @property
    def done(self) -> bool:
        return self.result is not None


class Supervisor:
    """Fault-tolerant multi-process driver for an ensemble of members.

    Parameters
    ----------
    specs:
        The ensemble members.  Member ids must be unique.
    workers:
        Concurrent worker processes; ``0`` forces degraded in-process
        execution (no spawn).
    retry:
        The process-level :class:`RetryPolicy` (strikes, backoff,
        escalation).
    member_timeout:
        Seconds without a heartbeat before a running member is declared
        hung and killed.
    out_dir:
        Root for all artifacts: ``<out_dir>/<member_id>/`` per member,
        plus the ensemble run log and result JSON.
    runlog:
        Optional shared :class:`RunLog`; by default the supervisor opens
        ``<out_dir>/ensemble.jsonl`` itself.
    start_method:
        ``multiprocessing`` start method (default ``spawn``: a clean
        interpreter per attempt, no inherited solver state).
    """

    def __init__(
        self,
        specs,
        workers: int = 2,
        retry: RetryPolicy | None = None,
        member_timeout: float = 120.0,
        out_dir: str = "out/ensemble",
        runlog: RunLog | None = None,
        start_method: str = "spawn",
        poll_interval: float = 0.05,
        verbose: bool = False,
    ):
        specs = list(specs)
        ids = [s.member_id for s in specs]
        if len(set(ids)) != len(ids):
            raise ValueError("member ids must be unique")
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if member_timeout <= 0:
            raise ValueError("member_timeout must be positive (seconds)")
        self.specs = specs
        self.workers = workers
        self.retry = retry if retry is not None else RetryPolicy()
        self.member_timeout = member_timeout
        self.out_dir = out_dir
        self.start_method = start_method
        self.poll_interval = poll_interval
        self.verbose = verbose
        self._runlog = runlog
        self._owns_runlog = runlog is None
        #: fleet-level metric aggregation (fed by heartbeat snapshots and
        #: result files; exports fleet.prom + fleet.jsonl under out_dir)
        self.aggregator = FleetAggregator(out_dir=out_dir)
        self._metrics_on = any(getattr(s, "metrics", False) for s in specs)
        self._last_export = 0.0

    # ------------------------------------------------------------------
    def run(self) -> EnsembleResult:
        """Run the whole ensemble to a terminal state; never raises for
        member failures (only for driver-level misconfiguration)."""
        os.makedirs(self.out_dir, exist_ok=True)
        log = self._runlog
        if log is None:
            log = RunLog(os.path.join(self.out_dir, ENSEMBLE_LOG))
        wall0 = time.perf_counter()
        members = [_Member(s, self.out_dir) for s in self.specs]
        try:
            if self.workers == 0:
                self._run_in_process(members, log)
            else:
                self._run_multiprocess(members, log)
        finally:
            wall_s = time.perf_counter() - wall0
            result = EnsembleResult(
                members=[m.result for m in members],
                wall_s=wall_s,
                workers=max(self.workers, 1),
                runlog_path=log.path,
            )
            c = result.counts
            log.emit("ensemble_summary", members=len(members), ok=c["ok"],
                     recovered=c["recovered"], quarantined=c["quarantined"],
                     wall_s=wall_s)
            self._export_metrics(force=True)
            if self._owns_runlog:
                log.close()
        result.save(os.path.join(self.out_dir, ENSEMBLE_RESULT))
        if self.verbose:
            for line in result.lines():
                print(f"[ensemble] {line}")
        return result

    # -- multi-process mode --------------------------------------------
    def _run_multiprocess(self, members, log) -> None:
        _ensure_child_import_path()
        ctx = multiprocessing.get_context(self.start_method)
        beats = ctx.Queue()
        active: list[_Member] = []
        pending = list(members)
        try:
            while pending or active:
                now = time.monotonic()
                # launch members whose backoff gate has passed
                while pending and len(active) < self.workers:
                    due = [m for m in pending if m.next_start <= now]
                    if not due:
                        break
                    m = due[0]
                    pending.remove(m)
                    if self._launch(m, ctx, beats, log):
                        active.append(m)
                    elif not m.done:
                        # spawn unavailable: degrade this member in-process
                        self._attempt_in_process(m, log)
                        if not m.done:
                            pending.append(m)
                self._drain(beats, members)
                now = time.monotonic()
                for m in list(active):
                    if m.proc.exitcode is not None:
                        active.remove(m)
                        m.proc.join()
                        self._classify_exit(m, log)
                    elif now - m.last_beat > self.member_timeout:
                        m.proc.kill()
                        m.proc.join()
                        active.remove(m)
                        self._strike(
                            m, log,
                            f"heartbeat_timeout after {self.member_timeout:g}s",
                        )
                    else:
                        continue
                    if not m.done:  # retry scheduled: back into the pool
                        pending.append(m)
                self._export_metrics()
                if pending and not active:
                    # everyone is backing off; sleep until the next gate
                    gate = min(m.next_start for m in pending)
                    time.sleep(max(0.0, min(gate - time.monotonic(), 0.5)))
                else:
                    time.sleep(self.poll_interval)
        finally:
            for m in members:
                if m.proc is not None and m.proc.exitcode is None:
                    m.proc.kill()
                    m.proc.join()
            beats.close()
            beats.join_thread()

    def _launch(self, m: _Member, ctx, beats, log) -> bool:
        m.attempts += 1
        if m.first_wall is None:
            m.first_wall = time.perf_counter()
        # the most members ever running at once: each child divides the
        # host's cores by it for its BLAS threads (repro.exec.threads)
        concurrency = min(self.workers, len(self.specs))
        try:
            proc = ctx.Process(
                target=child_main,
                args=(m.spec, m.paths["dir"], beats, m.attempts, m.resume,
                      m.dt_scale, concurrency),
                daemon=True,
            )
            proc.start()
        except (OSError, ValueError) as exc:
            m.attempts -= 1
            if self.verbose:
                print(f"[ensemble] spawn failed ({exc}); degrading "
                      f"{m.spec.member_id} to in-process execution")
            return False
        m.proc = proc
        m.last_beat = time.monotonic()
        self.aggregator.update(m.spec.member_id, None, state="running")
        log.emit("member_start", member=m.spec.member_id, attempt=m.attempts,
                 scenario=m.spec.builder, pid=proc.pid,
                 metrics=self._brief(m))
        if self.verbose:
            print(f"[ensemble] {m.spec.member_id}: attempt {m.attempts} "
                  f"(pid {proc.pid}, resume={m.resume}, "
                  f"dt_scale={m.dt_scale:g})")
        return True

    def _drain(self, beats, members) -> None:
        by_id = {m.spec.member_id: m for m in members}
        while True:
            try:
                msg = beats.get_nowait()
            except (queue_mod.Empty, OSError, EOFError):
                return
            m = by_id.get(msg.get("member"))
            if m is None:
                continue
            m.last_beat = time.monotonic()
            snap = msg.get("metrics")
            if isinstance(snap, dict):
                m.last_metrics = snap
            self.aggregator.update(m.spec.member_id, snap
                                   if isinstance(snap, dict) else None,
                                   wall=msg.get("wall"))
            if msg.get("kind") == "error":
                m.last_error = msg.get("error")

    def _classify_exit(self, m: _Member, log) -> None:
        code = m.proc.exitcode
        if code == 0:
            result = load_result(m.paths["result"])
            if result is None or result.get("attempt") != m.attempts:
                # exit 0 but no usable result for THIS attempt: a torn or
                # stale publish — strike it like a death
                self._strike(m, log, "corrupt_result")
            elif result.get("status") == "diverged":
                self._strike(m, log, f"diverged: {result.get('diverged')}")
            else:
                self._succeed(m, log, result)
        elif code < 0:
            self._strike(m, log, f"killed by signal {-code}")
        else:
            reason = f"exited with status {code}"
            if m.last_error:
                reason += f" ({m.last_error})"
            self._strike(m, log, reason)

    # -- fleet metrics -------------------------------------------------
    def _brief(self, m: _Member) -> dict:
        """The member's last metrics digest (step/sim_t/energy drift) for
        embedding in supervisor run-log events — a quarantine record must
        be diagnosable from the JSONL log alone."""
        return self.aggregator.member_brief(m.spec.member_id)

    def _export_metrics(self, force: bool = False) -> None:
        """Write fleet.prom + fleet.jsonl (rate-limited unless forced)."""
        if not self._metrics_on or not self.aggregator.members:
            return
        now = time.monotonic()
        if not force and now - self._last_export < METRICS_EXPORT_EVERY:
            return
        self._last_export = now
        try:
            self.aggregator.export()
        except OSError:
            pass  # an unwritable exporter must never take down the fleet

    # -- degraded in-process mode --------------------------------------
    class _InProcessBeats:
        """Queue shim for degraded mode: the worker's ``tell()`` messages
        feed the aggregator directly, so supervisor events carry metric
        briefs and ``fleet.prom`` stays live without a process boundary."""

        def __init__(self, supervisor, member):
            self._sup = supervisor
            self._m = member

        def put_nowait(self, msg: dict) -> None:
            snap = msg.get("metrics")
            if isinstance(snap, dict):
                self._m.last_metrics = snap
            self._sup.aggregator.update(
                self._m.spec.member_id,
                snap if isinstance(snap, dict) else None,
                wall=msg.get("wall"))

    def _run_in_process(self, members, log) -> None:
        for m in members:
            while not m.done:
                gate = m.next_start - time.monotonic()
                if gate > 0:
                    time.sleep(gate)
                self._attempt_in_process(m, log)
                self._export_metrics()

    def _attempt_in_process(self, m: _Member, log) -> None:
        m.attempts += 1
        if m.first_wall is None:
            m.first_wall = time.perf_counter()
        self.aggregator.update(m.spec.member_id, None, state="running")
        log.emit("member_start", member=m.spec.member_id, attempt=m.attempts,
                 scenario=m.spec.builder, pid=os.getpid(),
                 metrics=self._brief(m))
        # each attempt gets a fresh spec copy, exactly as a spawned child
        # would: the injector's per-process `fired` counters must not leak
        # across incarnations (a persistent fault re-fires every attempt)
        spec = copy.deepcopy(m.spec)
        try:
            result = run_member(
                spec, m.paths["dir"], queue=self._InProcessBeats(self, m),
                attempt=m.attempts, resume=m.resume, dt_scale=m.dt_scale,
                in_process=True,
            )
        except InjectedWorkerDeath as exc:
            self._strike(m, log, f"killed (simulated): {exc}")
            return
        except InjectedHang as exc:
            self._strike(m, log, f"heartbeat_timeout (simulated): {exc}")
            return
        except Exception as exc:  # graceful degradation: never crash
            self._strike(m, log, f"{type(exc).__name__}: {exc}")
            return
        if result.get("status") == "diverged":
            self._strike(m, log, f"diverged: {result.get('diverged')}")
        else:
            self._succeed(m, log, result)

    # -- black-box forensics -------------------------------------------
    def _collect_bundle(self, m: _Member, reason: str):
        """Bundle path + document diagnosing this attempt's failure.

        Prefers a bundle the worker itself dumped *for this attempt*
        (divergence / unhandled exception); a process-level death leaves
        none, so the supervisor synthesizes one from what it can still
        see: the strike reason, the last heartbeat metrics and the tail
        of the member's durable run log as the ring.  Returns
        ``(path, doc)`` with ``path`` possibly ``None`` when even the
        synthesized dump cannot be written.
        """
        mdir = m.paths["dir"]
        for path in reversed(find_bundles(mdir)):
            try:
                doc = load_bundle(path)
            except (OSError, ValueError):
                continue
            if (doc.get("context") or {}).get("attempt") == m.attempts:
                return path, doc
        # no worker-side bundle for this attempt: synthesize one
        ring = [dict(rec, kind=rec.get("event", "record"))
                for rec in read_jsonl(m.paths["runlog"])[-40:]]
        doc = build_bundle(
            kind="supervisor",
            reason=reason,
            ring=ring,
            context={"member": m.spec.member_id, "attempt": m.attempts},
            metrics=m.last_metrics,
            extra={"exit": reason, "last_error": m.last_error},
        )
        path = os.path.join(
            mdir, f"supervisor-a{m.attempts:02d}{BUNDLE_SUFFIX}")
        try:
            os.makedirs(mdir, exist_ok=True)
            write_bundle(path, doc)
        except OSError:
            path = None  # classification still works off the document
        return path, doc

    # -- strike / succeed / quarantine ----------------------------------
    def _strike(self, m: _Member, log, reason: str) -> None:
        m.strikes += 1
        bundle, bundle_doc = self._collect_bundle(m, reason)
        verdict = classify_bundle(bundle_doc)
        decision = self.retry.decide(m.strikes, seed=m.spec.seed)
        entry = {
            "attempt": m.attempts,
            "reason": reason,
            "delay_s": decision.delay_s,
            "resume": decision.resume,
            "dt_scale": decision.dt_scale,
            "bundle": bundle,
            "verdict": verdict["verdict"],
        }
        m.history.append(entry)
        if decision.retry:
            m.resume = decision.resume
            m.dt_scale = decision.dt_scale
            m.next_start = time.monotonic() + decision.delay_s
            self.aggregator.update(m.spec.member_id, None, state="retrying")
            log.emit("member_retry", member=m.spec.member_id,
                     attempt=m.attempts, reason=reason,
                     delay_s=decision.delay_s, resume=decision.resume,
                     dt_scale=decision.dt_scale, bundle=bundle,
                     verdict=verdict["verdict"], metrics=self._brief(m))
            if self.verbose:
                print(f"[ensemble] {m.spec.member_id}: {reason} — retry "
                      f"{m.strikes}/{self.retry.max_retries} in "
                      f"{decision.delay_s:.2f}s")
        else:
            # the classifier verdict replaces the free-text diagnosis:
            # a quarantine record must answer *what class of fault* this
            # was, not just replay the last strike string
            evidence = verdict["evidence"][0] if verdict["evidence"] else reason
            diagnosis = (
                f"{verdict['verdict']} after {m.attempts} attempt(s): "
                f"{evidence}"
            )
            wall = time.perf_counter() - m.first_wall
            m.result = MemberResult(
                member_id=m.spec.member_id, status="quarantined",
                attempts=m.attempts, wall_s=wall, dt_scale=m.dt_scale,
                history=m.history, diagnosis=diagnosis,
                verdict=verdict["verdict"], bundle=bundle, paths=m.paths,
            )
            self.aggregator.update(m.spec.member_id, None,
                                   state="quarantined")
            log.emit("member_quarantined", member=m.spec.member_id,
                     attempts=m.attempts, diagnosis=diagnosis,
                     verdict=verdict["verdict"], bundle=bundle,
                     history=m.history, metrics=self._brief(m))
            log.emit("member_end", member=m.spec.member_id,
                     status="quarantined", attempts=m.attempts, wall_s=wall,
                     metrics=self._brief(m))
            if self.verbose:
                print(f"[ensemble] {m.spec.member_id}: {diagnosis}")

    def _succeed(self, m: _Member, log, result: dict) -> None:
        wall = time.perf_counter() - m.first_wall
        status = "ok" if m.strikes == 0 else "recovered"
        # verdict/bundle stay None even after earlier failed attempts: a
        # member that recovered on retry must not carry a stale bundle
        # path (the per-attempt dumps remain in its history entries)
        m.result = MemberResult(
            member_id=m.spec.member_id, status=status, attempts=m.attempts,
            wall_s=wall, dt_scale=float(result.get("dt_scale", m.dt_scale)),
            digest=result.get("digest"), summary=result.get("summary", {}),
            history=m.history, verdict=None, bundle=None, paths=m.paths,
        )
        # the result file carries the member's final registry snapshot —
        # authoritative over whatever heartbeat arrived last
        snap = result.get("metrics")
        if isinstance(snap, dict):
            m.last_metrics = snap
        self.aggregator.update(m.spec.member_id,
                               snap if isinstance(snap, dict) else None,
                               state=status)
        log.emit("member_end", member=m.spec.member_id, status=status,
                 attempts=m.attempts, wall_s=wall, metrics=self._brief(m))
        if self.verbose:
            print(f"[ensemble] {m.spec.member_id}: {status} after "
                  f"{m.attempts} attempt(s) in {wall:.2f}s")


def _ensure_child_import_path() -> None:
    """Make ``repro`` importable in spawned children even when the parent
    found it via ``sys.path`` manipulation rather than ``PYTHONPATH``."""
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    existing = os.environ.get("PYTHONPATH", "")
    parts = [p for p in existing.split(os.pathsep) if p]
    if src_root not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([src_root] + parts)
