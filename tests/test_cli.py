"""Tests for the command-line interface."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
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


def _run_cli(*argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


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
        [["table2", "--runs", "0"], ["demo", "--n-init", "2", "--jobs", "0"]],
    )
    def test_repro_error_exits_2_with_one_line(self, argv):
        _assert_one_error_line(_run_cli(*argv))

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

    def test_unrelated_directory_is_refused(self, tmp_path):
        target = tmp_path / "notastore"
        target.mkdir()
        line = _assert_one_error_line(
            _run_cli("sweep", "--store", str(target), "--quick")
        )
        assert "is a directory" in line
        assert list(target.iterdir()) == []
