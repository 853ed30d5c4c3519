"""Tests for the command-line interface."""

from __future__ import annotations

import os
import shutil
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main

#: Every command that fits restarts; ``--jobs`` is its one execution flag.
EXECUTION_COMMANDS = (
    "table2", "table3", "figure4", "figure5", "sweep", "report", "demo"
)


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_table2_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.runs == 5
        assert "iris" in args.datasets

    def test_figure5_base_size(self):
        args = build_parser().parse_args(["figure5", "--base-size", "1000"])
        assert args.base_size == 1000

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tableX"])

    @pytest.mark.parametrize(
        "flag", [["--backend", "serial"], ["--batch-size", "1"]]
    )
    @pytest.mark.parametrize("command", EXECUTION_COMMANDS)
    def test_jobs_is_the_only_execution_flag(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_jobs_parses_on_every_execution_command(self):
        for command in EXECUTION_COMMANDS:
            args = build_parser().parse_args([command, "--jobs", "3"])
            assert args.jobs == 3


class TestExecution:
    def test_demo(self, capsys):
        assert main(["demo", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "UCPC" in out
        assert "F-measure" in out

    def test_table2_tiny(self, capsys):
        code = main(
            [
                "table2",
                "--datasets", "iris",
                "--families", "normal",
                "--algorithms", "UKM", "UCPC",
                "--runs", "1",
                "--max-objects", "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "overall avg" in out

    def test_figure5_tiny(self, capsys):
        code = main(["figure5", "--base-size", "200", "--runs", "1"])
        assert code == 0
        assert "scalability" in capsys.readouterr().out

    def test_report_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        code = main(
            [
                "report",
                "--runs", "1",
                "--max-objects", "40",
                "--base-size", "200",
                "--output", str(out_file),
            ]
        )
        assert code == 0
        assert out_file.exists()
        text = out_file.read_text()
        assert "Table 2" in text
        assert "Figure 5" in text


def _cli_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=_cli_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )


def _stored_cells(path, surfaces=None):
    """Rows of the finished cells of the store at ``path`` (read-only;
    empty while the store does not exist yet or is being created)."""
    if not path.exists():
        return set()
    try:
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        try:
            rows = conn.execute(
                "SELECT cell_id, surface, group_json, cell_json, "
                "seed_state, status, payload FROM cells"
            ).fetchall()
        finally:
            conn.close()
    except sqlite3.Error:
        return set()
    return {row for row in rows if surfaces is None or row[1] in surfaces}


def _assert_one_error_line(proc):
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in proc.stderr
    return lines[0]


def test_demo_with_jobs_exits_zero():
    proc = _run_cli("demo", "--n-init", "4", "--jobs", "2")
    assert proc.returncode == 0, proc.stderr
    assert "best of 4 restarts" in proc.stdout


class TestErrorBoundary:
    """A library error exits 2 with one stderr line, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["table2", "--runs", "0"],
            ["demo", "--n-init", "2", "--jobs", "0"],
            ["table2", "--seed", "-1"],
            ["demo", "--seed", "-1"],
            ["store", "summary", "S.sqlite", "--metric", "theta",
             "--top", "-1"],
            ["store", "summary", "S.sqlite", "--metric", "theta",
             "--top", "0"],
            ["sweep", "--store", "S.sqlite", "--quick", "--workers", "0"],
            ["demo", "--n-init", "0"],
            ["demo", "--jobs", "0"],
            ["demo", "--patience", "-1"],
        ],
    )
    def test_repro_error_exits_2_with_one_line(self, argv):
        """The last option of ``argv`` is the invalid one, and the
        error line names it (as its library parameter)."""
        line = _assert_one_error_line(_run_cli(*argv))
        assert argv[-2].lstrip("-").replace("-", "_") in line

    def test_json_store_directory_names_import(self, tmp_path):
        """A JSON store directory written by an earlier version is not a
        store any more: resuming it names the command that converts
        it, and leaves it untouched."""
        fixture = Path(__file__).resolve().parent / "data" / "json_store_v2"
        old = tmp_path / "old"
        shutil.copytree(fixture, old)
        line = _assert_one_error_line(
            _run_cli("sweep", "--store", str(old), "--quick", "--resume")
        )
        assert f"repro store import {old} " in line
        assert sorted(p.name for p in old.rglob("*")) == sorted(
            p.name for p in fixture.rglob("*")
        )

    @pytest.mark.skipif(os.name != "posix", reason="sends a POSIX signal")
    def test_sigint_exits_130_and_leaves_a_resumable_store(self, tmp_path):
        """Ctrl-C during ``repro sweep --join`` exits 130 with one
        stderr line and no traceback.  The store keeps every finished
        cell and holds no lease; a resume reuses those cells and ends
        equal to an uninterrupted run on table2/table3 (figure4/5
        cells store measured runtimes)."""
        from repro.cli import _sweep_grid
        from repro.engine.store import open_store
        from repro.engine.sweep import run_sweep

        store = tmp_path / "S.sqlite"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", "--join", str(store),
             "--quick"],
            env=_cli_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 120
            while not _stored_cells(store):
                assert proc.poll() is None, "sweep ended before the signal"
                assert time.monotonic() < deadline, "no cell stored in 120 s"
                time.sleep(0.05)
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 130
        assert stderr.splitlines() == ["error: interrupted"]
        stored = {row[0] for row in _stored_cells(store)}
        with open_store(store) as opened:
            assert opened.active_leases() == {}

        def quick_grid(*surfaces):
            return _sweep_grid(
                build_parser().parse_args(
                    ["sweep", "--store", "S", "--quick", "--surfaces",
                     *surfaces]
                )
            )

        surfaces = ("table2", "table3", "figure4", "figure5")
        outcome = run_sweep(quick_grid(*surfaces), store, resume=True)
        assert stored and stored <= set(outcome.reused)
        reference = tmp_path / "reference.sqlite"
        run_sweep(quick_grid("table2", "table3"), reference)
        tables = {"table2", "table3"}
        assert _stored_cells(store, tables) == _stored_cells(reference, tables)

    @pytest.mark.skipif(os.name != "posix", reason="sends a POSIX signal")
    def test_sigint_to_workers_group_exits_130_quietly(self, tmp_path):
        """Ctrl-C on the process group of ``repro sweep --workers 2``
        (parent and both spawned children) exits 130 with one stderr
        line: the children ignore SIGINT, and the parent stops them with
        SIGTERM, on which each drops its leases and exits without a
        traceback.  The store resumes with every stored cell reused and
        ends equal to an uninterrupted run."""
        from repro.cli import _sweep_grid
        from repro.engine.store import open_store
        from repro.engine.sweep import run_sweep

        surfaces = ("table2", "table3")
        store = tmp_path / "W.sqlite"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", "--store", str(store),
             "--quick", "--surfaces", *surfaces, "--workers", "2",
             "--lease-ttl", "5"],
            env=_cli_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120
            while not _stored_cells(store):
                assert proc.poll() is None, "sweep ended before the signal"
                assert time.monotonic() < deadline, "no cell stored in 120 s"
                time.sleep(0.05)
            os.killpg(proc.pid, signal.SIGINT)
            _, stderr = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 130
        assert stderr.splitlines() == ["error: interrupted"]
        stored = {row[0] for row in _stored_cells(store)}
        with open_store(store) as opened:
            assert opened.active_leases() == {}

        grid = _sweep_grid(
            build_parser().parse_args(
                ["sweep", "--store", "S", "--quick", "--surfaces", *surfaces]
            )
        )
        outcome = run_sweep(grid, store, resume=True)
        assert stored and stored <= set(outcome.reused)
        reference = tmp_path / "reference.sqlite"
        run_sweep(grid, reference)
        assert _stored_cells(store) == _stored_cells(reference)

    @pytest.mark.skipif(os.name != "posix", reason="sends a POSIX signal")
    def test_sigint_while_workers_import_is_quiet(self, tmp_path):
        """Ctrl-C shortly after both children are spawned, while they
        still import ``repro`` (it takes the better part of a second):
        they start with SIGINT ignored, so only the parent reacts, and
        the command exits 130 with one stderr line.  Before, each child
        printed a ``KeyboardInterrupt`` traceback from its import."""
        env = _cli_env()
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", "--store",
             str(tmp_path / "W.sqlite"), "--quick", "--surfaces", "table2",
             "table3", "--workers", "2", "--lease-ttl", "5"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            started = False
            for line in proc.stdout:
                if line.startswith("started sweep worker 1 "):
                    started = True
                    break
            assert started, "the second worker was never started"
            # Past the interpreter's start-up, when SIGINT would still
            # end a child silently, and into its imports.
            time.sleep(0.1)
            os.killpg(proc.pid, signal.SIGINT)
            _, stderr = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 130
        assert stderr.splitlines() == ["error: interrupted"]

    def test_unrelated_directory_is_refused(self, tmp_path):
        target = tmp_path / "notastore"
        target.mkdir()
        line = _assert_one_error_line(
            _run_cli("sweep", "--store", str(target), "--quick")
        )
        assert "is a directory" in line
        assert list(target.iterdir()) == []
