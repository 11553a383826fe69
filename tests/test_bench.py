"""Benchmark battery + regression-comparison harness."""

import importlib.util
import json
import os

import pytest

from repro.obs.bench import (
    BATTERY_KERNELS,
    BENCH_SCHEMA_VERSION,
    append_record,
    battery_lines,
    battery_problem,
    default_history_path,
    host_context,
    load_history,
    run_battery,
)


@pytest.fixture(scope="module")
def record():
    """One fast battery record, shared across the module (seconds to run)."""
    rec, path = run_battery(fast=True, repeats=1, append=False)
    assert path is None
    return rec


def _load_compare_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_compare",
        os.path.join(os.path.dirname(__file__), "..", "tools",
                     "bench_compare.py"),
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _synthetic_record(seconds=1.0, gflops=5.0, model_gflops=20.0, **over):
    rec = {
        "schema": BENCH_SCHEMA_VERSION,
        "unix_time": 0.0,
        "git_rev": "deadbeef",
        "fingerprint": "f" * 64,
        "host": {"context": "test-ctx", "cpu_count": 4},
        "node": "local (nominal)",
        "order": 3,
        "fast": True,
        "n_elements": 100,
        "benches": {},
    }
    for name in BATTERY_KERNELS:
        cell = {"seconds": seconds, "repeats": 1}
        if name in ("predictor", "corrector"):
            cell["gflops"] = gflops
            cell["model_gflops"] = model_gflops
            cell["efficiency"] = gflops / model_gflops
        rec["benches"][name] = cell
    rec.update(over)
    return rec


# ----------------------------------------------------------------------
class TestBattery:
    def test_battery_problem_shape(self):
        solver = battery_problem(order=2, fast=True)
        assert solver.mesh.n_elements > 0
        assert len(solver.gravity.elem) > 0  # gravity surface is tagged
        assert solver.mesh.is_acoustic_elem.any()  # coupled ocean layer
        assert not solver.mesh.is_acoustic_elem.all()

    def test_record_schema(self, record):
        assert record["schema"] == BENCH_SCHEMA_VERSION
        assert record["fast"] is True
        assert len(record["fingerprint"]) == 64
        assert record["git_rev"]
        assert record["host"]["context"] == host_context()
        assert record["host"]["cores"] >= 1
        assert set(record["host"]) >= {"blas", "blas_threads"}
        assert record["n_elements"] > 0
        for name in BATTERY_KERNELS:
            cell = record["benches"][name]
            assert cell["seconds"] > 0.0, name

    def test_modeled_kernels_carry_roofline_bounds(self, record):
        for name in ("predictor", "corrector"):
            cell = record["benches"][name]
            assert cell["elem_updates"] == record["n_elements"]
            assert cell["elem_updates_per_s"] == pytest.approx(
                cell["elem_updates"] / cell["seconds"])
            assert cell["model_gflops"] > 0
            assert cell["model_seconds"] > 0
            # a NumPy reproduction must not beat its own roofline
            assert cell["gflops"] <= cell["model_gflops"] * 1.05
            assert cell["efficiency"] == pytest.approx(
                cell["gflops"] / cell["model_gflops"])

    def test_structural_extras(self, record):
        assert record["benches"]["riemann_setup"]["faces"] > 0
        assert record["benches"]["gravity_ode"]["faces"] > 0
        assert record["benches"]["halo_gather"]["elem_updates"] > 0
        assert record["benches"]["lts_macro"]["clusters"] >= 1
        sched = record["benches"]["sched_replay"]
        assert sched["compile_seconds"] > 0.0
        assert sched["n_micro"] >= 16  # 16 macro steps, >= 1 micro each
        assert sched["n_sync"] == 16
        assert sched["micro_steps_per_s"] > 0.0

    def test_battery_lines_render(self, record):
        text = "\n".join(battery_lines(record))
        for name in BATTERY_KERNELS:
            assert name in text
        assert "GFLOP/s" in text

    def test_host_context_is_filename_safe(self):
        ctx = host_context()
        assert ctx and "/" not in ctx and " " not in ctx
        assert os.path.basename(default_history_path()) == f"BENCH_{ctx}.json"


class TestHistory:
    def test_append_and_load_round_trip(self, tmp_path, record):
        path = str(tmp_path / "BENCH_test.json")
        assert load_history(path)["records"] == []  # absent file: empty shape
        append_record(path, record)
        append_record(path, record)
        doc = load_history(path)
        assert doc["schema"] == BENCH_SCHEMA_VERSION
        assert len(doc["records"]) == 2
        assert doc["records"][0] == json.loads(json.dumps(record))

    def test_load_rejects_non_history_files(self, tmp_path):
        path = str(tmp_path / "BENCH_bad.json")
        with open(path, "w") as fh:
            json.dump([1, 2, 3], fh)
        with pytest.raises(ValueError, match="not a bench history"):
            load_history(path)

    def test_run_battery_appends(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        path = str(tmp_path / "BENCH_here.json")
        rec, out = run_battery(out=path, repeats=1)
        assert out == path
        assert load_history(path)["records"][-1] == json.loads(json.dumps(rec))


# ----------------------------------------------------------------------
class TestBenchCompare:
    def _history(self, *records):
        return {"schema": BENCH_SCHEMA_VERSION, "records": list(records)}

    def _write(self, tmp_path, doc):
        path = str(tmp_path / "BENCH_test.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def test_no_baseline_is_soft(self, tmp_path, capsys):
        mod = _load_compare_tool()
        path = self._write(tmp_path, self._history(_synthetic_record()))
        assert mod.main([path, "--check"]) == 0
        assert "no baseline" in capsys.readouterr().out

    def test_regression_soft_gates_until_three_baselines(self, tmp_path, capsys):
        mod = _load_compare_tool()
        base = [_synthetic_record(seconds=1.0) for _ in range(2)]
        slow = _synthetic_record(seconds=2.0)
        path = self._write(tmp_path, self._history(*base, slow))
        assert mod.main([path, "--check"]) == 0  # 2 baselines: warn only
        err = capsys.readouterr().err
        assert "soft gate" in err

        base3 = [_synthetic_record(seconds=1.0) for _ in range(3)]
        path = self._write(tmp_path, self._history(*base3, slow))
        assert mod.main([path, "--check"]) == 1  # 3 baselines: hard gate
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        # without --check the comparison reports but never gates on speed
        assert mod.main([path]) == 0

    def test_within_threshold_passes(self, tmp_path):
        mod = _load_compare_tool()
        base = [_synthetic_record(seconds=1.0) for _ in range(4)]
        ok = _synthetic_record(seconds=1.2)  # +20% < 25%
        path = self._write(tmp_path, self._history(*base, ok))
        assert mod.main([path, "--check"]) == 0
        assert mod.main([path, "--check", "--threshold", "0.1"]) == 1

    def test_incomparable_records_are_ignored(self, tmp_path, capsys):
        mod = _load_compare_tool()
        other = [_synthetic_record(seconds=0.1, n_elements=999)
                 for _ in range(5)]
        newest = _synthetic_record(seconds=1.0)
        path = self._write(tmp_path, self._history(*other, newest))
        assert mod.main([path, "--check"]) == 0
        assert "0 comparable baseline" in capsys.readouterr().out

    def test_kernel_variants_never_compared(self, tmp_path, capsys):
        """A variant switch starts a fresh trajectory: a fused record 10x
        faster than a batched history must not read as improvement — and a
        batched record after fused history must not read as regression."""
        mod = _load_compare_tool()
        batched = [_synthetic_record(seconds=1.0, kernel_variant="batched")
                   for _ in range(5)]
        fused = _synthetic_record(seconds=0.1, kernel_variant="fused")
        path = self._write(tmp_path, self._history(*batched, fused))
        assert mod.main([path, "--check"]) == 0
        assert "0 comparable baseline" in capsys.readouterr().out

        # ...and the mirror case: slow batched after a fast fused history
        fused_hist = [_synthetic_record(seconds=0.1, kernel_variant="fused")
                      for _ in range(5)]
        slow = _synthetic_record(seconds=1.0, kernel_variant="batched")
        path = self._write(tmp_path, self._history(*fused_hist, slow))
        assert mod.main([path, "--check"]) == 0
        assert "0 comparable baseline" in capsys.readouterr().out

    def test_pre_variant_records_compare_as_batched(self, tmp_path, capsys):
        """Records written before the kernel_variant field existed ran the
        then-only batched path and stay comparable to explicit batched."""
        mod = _load_compare_tool()
        legacy = [_synthetic_record(seconds=1.0) for _ in range(3)]
        for rec in legacy:
            assert "kernel_variant" not in rec
        new = _synthetic_record(seconds=1.05, kernel_variant="batched")
        path = self._write(tmp_path, self._history(*legacy, new))
        assert mod.main([path, "--check"]) == 0
        assert "3 comparable baseline" in capsys.readouterr().out

    def test_blas_thread_counts_never_compared(self, tmp_path, capsys):
        """A BLAS thread count is part of the key; a record without one
        starts its own trajectory instead of passing for 1 or 2 threads."""
        mod = _load_compare_tool()

        def rec(seconds, blas_threads=None):
            host = {"context": "test-ctx", "cores": 4}
            if blas_threads is not None:
                host["blas_threads"] = blas_threads
            return _synthetic_record(seconds=seconds, host=host)

        for history, newest in (
            ([rec(1.0, blas_threads=2) for _ in range(5)], rec(3.0, 1)),
            ([rec(1.0) for _ in range(5)], rec(3.0, 1)),
            ([rec(1.0, blas_threads=1) for _ in range(5)], rec(3.0)),
        ):
            path = self._write(tmp_path, self._history(*history, newest))
            assert mod.main([path, "--check"]) == 0
            assert "0 comparable baseline" in capsys.readouterr().out

        same = [rec(1.0, blas_threads=1) for _ in range(3)]
        path = self._write(tmp_path, self._history(*same, rec(3.0, 1)))
        assert mod.main([path, "--check"]) == 1

    def test_roofline_violation_always_fails(self, tmp_path, capsys):
        mod = _load_compare_tool()
        impossible = _synthetic_record(gflops=50.0, model_gflops=20.0)
        path = self._write(tmp_path, self._history(impossible))
        assert mod.main([path, "--check"]) == 1
        assert mod.main([path]) == 1  # even without --check
        assert "roofline" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        mod = _load_compare_tool()
        path = str(tmp_path / "BENCH_nope.json")
        assert mod.main([path]) == 0
        assert mod.main([path, "--check"]) == 1

    def test_real_record_compares_clean(self, tmp_path, record):
        mod = _load_compare_tool()
        path = str(tmp_path / "BENCH_real.json")
        append_record(path, record)
        append_record(path, record)
        assert mod.main([path, "--check"]) == 0


class TestCli:
    def test_bench_cli(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_FAST", "1")
        path = str(tmp_path / "BENCH_cli.json")
        assert main(["bench", "--out", path]) == 0
        out = capsys.readouterr().out
        assert "bench battery" in out
        assert "bench: appended record" in out
        assert len(load_history(path)["records"]) == 1
