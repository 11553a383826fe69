"""One workload run in a fresh interpreter, timed from process start.

``ledger/run.py`` spawns this script once per measured run, so interpreter
start-up and ``import repro`` count towards the run, as they do for a user.
It builds the workload for the given seed, marches it, checks its output and
writes one JSON result file.  With ``--spans`` the layer entry points are
wrapped by :mod:`tracer` and the spans are written next to the result.

Timestamps are ``time.monotonic()`` values (CLOCK_MONOTONIC, shared by all
processes on Linux), so the driver can subtract its own spawn time.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

#: what a spawned ensemble member imports before it runs (``child_main``)
MEMBER_IMPORTS = ("numpy", "repro.ensemble", "repro.ensemble.worker")

#: set by the traced ensemble run: spawned members append their own
#: import interval here (this file is their ``__main__`` module)
IMPORT_LOG_ENV = "LEDGER_IMPORT_LOG"

if __name__ == "__mp_main__" and os.environ.get(IMPORT_LOG_ENV):
    _t0 = time.time() - (time.monotonic() - T_START)
    for _m in MEMBER_IMPORTS:
        importlib.import_module(_m)
    with open(os.environ[IMPORT_LOG_ENV], "a") as _fh:
        _fh.write(json.dumps({"pid": os.getpid(), "t0": _t0,
                              "t1": time.time()}) + "\n")


def blas_threads():
    """``(library, threads)`` of the OpenBLAS this process loaded, read
    through its own API; ``(None, None)`` for another BLAS."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return os.path.basename(path), int(fn())
    return None, None


def _call(tracer, name, row, fn, *args):
    return fn(*args) if tracer is None else tracer.span(name, row, fn, *args)


def run_solver(w, args, tracer) -> dict:
    import numpy as np

    from repro.ensemble.worker import state_digest
    from repro.exec.plan_cache import get_plan_cache
    from repro.sched import Scheduler
    from workloads import build_handle

    backend = "serial" if args.twin == "serial" else None
    lts_on = False if args.twin == "gts" else None
    handle, lts = _call(tracer, "setup", "setup.other", build_handle,
                        w, args.seed, backend, lts_on)
    solver = handle.solver
    n_gts_steps = None if lts else Scheduler(solver).compiled_plan(w.t_end).n_micro

    t_march0 = time.monotonic()
    _call(tracer, "march", "sched.self", (lts or solver).run, w.t_end)
    t_march1 = time.monotonic()

    def check() -> dict:
        ne = solver.mesh.n_elements
        if lts is None:
            micro, updates = n_gts_steps, n_gts_steps * ne
            theoretical = 1.0
        else:
            micro = int(lts.updates.sum())
            updates = int((lts.updates * lts.elem_count).sum())
            theoretical = float(lts.statistics()["speedup"])
        stats = solver.backend.stats()
        out = {
            "n_elements": ne,
            "order": solver.order,
            "micro_steps": micro,
            "elem_updates": updates,
            "lts_theoretical_reduction": theoretical,
            "energy": float(solver.energy()),
            # None without a gravity surface
            "final_eta": handle.summarize(solver).get("eta_abs_max"),
            "moment": float(solver.fault.moment()) if solver.fault else None,
            "finite": bool(np.isfinite(solver.Q).all()),
            "digest": state_digest(solver, lts),
            "kernel_variant": solver.op.kernel_variant,
            "backend": solver.backend.describe(),
            "partition_workers": stats.get("workers", 1),
            "halo_elems": int(sum(stats.get("halo", []))),
            "plan_cache": get_plan_cache().stats(),
        }
        solver.backend.close()
        return out

    out = _call(tracer, "check", "bench.check", check)
    out.update(t_march0=t_march0, t_march1=t_march1)
    return out


def run_ensemble(w, args, tracer) -> dict:
    from repro.ensemble import Supervisor
    from workloads import member_specs

    specs = _call(tracer, "setup", "setup.other", member_specs, w, args.seed)
    # statuses, digests and timings are read from the run's artifacts
    Supervisor(specs, workers=w.ensemble_workers, out_dir=args.out_dir).run()
    return {}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True, help="result JSON path")
    ap.add_argument("--spans", help="trace the run; write spans here")
    ap.add_argument("--twin", choices=("gts", "serial"),
                    help="march the GTS or serial-backend twin instead")
    ap.add_argument("--out-dir", help="ensemble output directory")
    args = ap.parse_args()

    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    for m in w.imports:
        importlib.import_module(m)
    t_imported = time.monotonic()
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = (run_ensemble if w.members else run_solver)(w, args, tracer)
    lib, threads = blas_threads()
    out.update(t_imported=t_imported,
               clock_offset=time.time() - time.monotonic(),
               blas_library=lib, blas_threads=threads)
    if tracer is not None:
        with open(args.spans, "w") as fh:
            json.dump(tracer.dump(), fh)
    with open(args.result, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
