"""Smoke tests for the engine benchmark roster (benchmarks/bench_engine.py)."""

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
        import bench_engine
    finally:
        sys.path.pop(0)
    return bench_engine


def _run_bench(*args, timeout=300):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "benchmarks" / "bench_engine.py"),
            *args,
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_bench_engine_quick_emits_schema_json(tmp_path):
    output = tmp_path / "BENCH_engine.json"
    # Seed the path with an incompatible snapshot: --force must both
    # bypass the overwrite guard and emit a fresh valid payload.
    output.write_text(json.dumps({"schema": 0, "benchmarks": []}))
    proc = _run_bench("--quick", "--force", "--output", str(output))
    assert proc.returncode == 0, proc.stderr
    bench_engine = _bench_module()
    payload = json.loads(output.read_text())
    assert payload["schema"] == bench_engine.SCHEMA_VERSION
    assert payload["quick"] is True
    assert payload["machine"]["cpu_count"] == os.cpu_count()
    # Every identity check passed; quick sizes assert no floor.
    assert payload["failures"] == []
    names = [entry["name"] for entry in payload["benchmarks"]]
    assert sorted(names) == sorted(bench_engine.MEASUREMENT_NAMES)
    assert all(entry["seconds"] > 0 for entry in payload["benchmarks"])
    floored = [entry for entry in payload["benchmarks"] if "floor" in entry]
    # Eight floors live in the roster (the Elkan skip rate is asserted
    # by scale_smoke.py); each record carries its floor and measured
    # speedup, and quick sizes check none of them.
    assert len(floored) == 8
    for entry in floored:
        assert entry["floor"] > 1 and entry["speedup"] > 0
        assert entry["floor_skipped"]


class TestOverwriteGuard:
    """The roster refuses to clobber a snapshot whose schema version or
    measurement roster differs, unless --force is passed.  The guard
    runs before any benchmark executes, so these are fast."""

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
        by the current script — i.e. schema and roster in sync — and
        come from a full-size run."""
        bench_engine = _bench_module()
        snapshot = REPO_ROOT / "BENCH_engine.json"
        assert bench_engine.snapshot_conflict(snapshot) is None
        assert json.loads(snapshot.read_text())["quick"] is False
