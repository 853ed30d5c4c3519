"""Smoke tests for the CI benchmark runner (benchmarks/run_bench.py)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _bench_module():
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import run_bench
    finally:
        sys.path.pop(0)
    return run_bench


def _run_bench(*args, timeout=300):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "benchmarks" / "run_bench.py"),
            *args,
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_run_bench_quick_emits_schema_json(tmp_path):
    output = tmp_path / "BENCH_engine.json"
    # Seed the path with an incompatible snapshot: --force must both
    # bypass the overwrite guard and emit a fresh valid payload.
    output.write_text(json.dumps({"schema": 0, "benchmarks": []}))
    proc = _run_bench("--quick", "--force", "--output", str(output))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(output.read_text())
    assert payload["schema"] == _bench_module().SCHEMA_VERSION
    assert payload["quick"] is True
    assert payload["machine"]["cpu_count"] == os.cpu_count()
    names = {entry["name"] for entry in payload["benchmarks"]}
    # The roster must cover sampling, restarts, density, every backend,
    # and the hierarchical kernel.
    by_name = {entry["name"]: entry for entry in payload["benchmarks"]}
    assert by_name["sample_tensor_batched"]["speedup"] > 0
    assert by_name["ukmedoids_plane_shared"]["speedup"] > 0
    assert {
        "sample_tensor_batched",
        "multi_restart_shared_cache",
        "fdbscan_ported_fit",
        "backend_serial_ukmeans_restarts",
        "backend_threads_ukmeans_restarts",
        "backend_processes_ukmeans_restarts",
        "ukmedoids_plane_shared",
        "ukmedoids_plane_recompute",
        "uahc_jeffreys_fit",
        "store_aggregate_sqlite",
    } <= names
    assert by_name["store_aggregate_sqlite"]["speedup"] > 0
    assert all(entry["seconds"] > 0 for entry in payload["benchmarks"])


class TestOverwriteGuard:
    """Satellite: run_bench refuses to clobber a snapshot whose schema
    version or measurement roster differs, unless --force is passed.
    The guard runs before any benchmark executes, so these are fast."""

    def test_refuses_schema_mismatch(self, tmp_path):
        output = tmp_path / "BENCH_engine.json"
        original = json.dumps({"schema": 99, "benchmarks": []})
        output.write_text(original)
        proc = _run_bench("--quick", "--output", str(output), timeout=60)
        assert proc.returncode == 2
        assert "refusing to overwrite" in proc.stderr
        assert "schema version" in proc.stderr
        assert output.read_text() == original  # untouched

    def test_refuses_roster_mismatch(self, tmp_path):
        output = tmp_path / "BENCH_engine.json"
        original = json.dumps(
            {
                "schema": _bench_module().SCHEMA_VERSION,
                "benchmarks": [{"name": "retired_measurement", "seconds": 1}],
            }
        )
        output.write_text(original)
        proc = _run_bench("--quick", "--output", str(output), timeout=60)
        assert proc.returncode == 2
        assert "roster differs" in proc.stderr
        assert output.read_text() == original

    def test_refuses_unreadable_snapshot(self, tmp_path):
        output = tmp_path / "BENCH_engine.json"
        output.write_text("{truncated")
        proc = _run_bench("--quick", "--output", str(output), timeout=60)
        assert proc.returncode == 2
        assert "not readable" in proc.stderr

    def test_committed_snapshot_is_like_for_like(self):
        """The committed BENCH_engine.json must always be overwritable
        by the current script — i.e. schema and roster in sync."""
        run_bench = _bench_module()
        assert (
            run_bench.snapshot_conflict(REPO_ROOT / "BENCH_engine.json")
            is None
        )
