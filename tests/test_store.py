"""Conformance suite for the result store (one SQLite file per store).

The sweep orchestrator, the reporting layer and the query helpers all
go through :class:`SqliteStore`; this suite pins its contract (the
conformance classes run on a ``.sqlite`` path and on a bare one, since
a store path is a SQLite file whatever its suffix):

* prepare/refusal matrix (different grid, results without resume,
  non-store files and directories, corrupt manifests) raises
  :class:`SweepStoreError`;
* a sweep's cells equal the direct runners', and a killed + resumed
  store equals an uninterrupted one row for row;
* damaged cells (torn or incomplete payload text) are detected,
  reported, and re-run; a truncated database or an unopenable path
  fails *cleanly* (SweepStoreError, not a raw sqlite3 error);
* the query layer (value plane, metric summaries, best-of-group,
  rank-over-grid) returns, in SQL, the rows the Python reference reads
  of :mod:`repro.engine.store.base` compute over the same store;
* JSON export/import round-trips byte for byte, and a JSON store
  directory written by an earlier version (``tests/data/json_store_v2``)
  imports, resumes with every cell reused, and re-exports unchanged; a
  fresh sweep of its grid exports to it byte for byte outside each
  cell's Q, which stays within ``Q_BOUND``.

The claim/lease layer rides the same suite: double-claim races admit
exactly one winner, expired leases are stolen, renewal is owner-only,
an interrupted worker releases its lease, and a multi-worker sweep —
including one whose worker is SIGKILLed mid-grid — leaves a store
identical to an uninterrupted single-worker run, with zero lease state
behind.

Satellite regressions live here too: cell-id collision resistance, the
durable (fsynced) atomic write, fork safety of the cached SQLite
connection, export/import cleanup on mid-copy failure, and
listdir-order independence of the import walk.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import shutil
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.engine.store.transfer as transfer_module
from repro.engine.store import (
    SWEEP_SCHEMA_VERSION,
    SqliteStore,
    atomic_write,
    build_payload,
    canonical_dumps,
    cell_id,
    diff_stores,
    export_store,
    import_store,
    open_store,
)
from repro.engine.store import base as reference
from repro.engine.sweep import (
    SweepGrid,
    Table2Spec,
    Table3Spec,
    _LeaseClaimer,
    _worker_main,
    run_sweep,
    run_sweep_worker,
    run_sweep_workers,
)
from repro.exceptions import InvalidParameterError, SweepStoreError
from repro.experiments import ExperimentConfig, run_table2, run_table3
from tests.conftest import Q_BOUND

#: A JSON store directory written by the JSON store backend before it
#: was removed: ``repro sweep --store DIR --quick --surfaces table2
#: table3`` (6 cells).
FIXTURE = Path(__file__).resolve().parent / "data" / "json_store_v2"

T2_AXES = dict(
    datasets=("iris",), families=("normal",), algorithms=("UKM", "UKmed")
)
T3_AXES = dict(
    datasets=("neuroblastoma",),
    cluster_counts=(2, 3),
    algorithms=("UKmed", "MMV"),
)


def store_path(
    tmp_path: Path, name: str = "store", suffix: str = ".sqlite"
) -> Path:
    return tmp_path / f"{name}{suffix}"


#: Every store path is a SQLite file, whatever its suffix.  The
#: conformance classes run on a ``.sqlite`` path and on a bare one (the
#: path form that named a JSON store directory before the JSON store
#: was removed), so no behaviour may hinge on the suffix.
every_suffix = pytest.mark.parametrize(
    "suffix", (".sqlite", ""), ids=("sqlite", "bare")
)

SQLITE_HEADER = b"SQLite format 3\x00"


def _grid(seed=5, n_runs=2, n_jobs=1):
    common = dict(n_runs=n_runs, n_samples=8, seed=seed, n_jobs=n_jobs)
    return SweepGrid(
        table2=Table2Spec(
            config=ExperimentConfig(scale=0.12, max_objects=40, **common),
            **T2_AXES,
        ),
        table3=Table3Spec(
            config=ExperimentConfig(scale=0.004, **common), **T3_AXES
        ),
    )


def _fixture_grid():
    """The grid the fixture was written for (the CLI's quick grid)."""
    from repro.cli import _sweep_grid, build_parser

    return _sweep_grid(
        build_parser().parse_args(
            ["sweep", "--store", "s", "--quick", "--surfaces", "table2", "table3"]
        )
    )


def _direct_reports(seed=5, n_runs=2):
    common = dict(n_runs=n_runs, n_samples=8, seed=seed)
    return (
        run_table2(
            ExperimentConfig(scale=0.12, max_objects=40, **common), **T2_AXES
        ),
        run_table3(ExperimentConfig(scale=0.004, **common), **T3_AXES),
    )


def _sqlite_rows(path: Path):
    """The full logical content of a store, deterministically."""
    conn = sqlite3.connect(str(path))
    try:
        cells = conn.execute(
            "SELECT cell_id, surface, group_json, cell_json, seed_state, "
            "status, payload FROM cells ORDER BY cell_id"
        ).fetchall()
        values = conn.execute(
            "SELECT cell_id, metric, value FROM cell_values "
            "ORDER BY cell_id, metric"
        ).fetchall()
        meta = conn.execute(
            "SELECT key, value FROM meta ORDER BY key"
        ).fetchall()
    finally:
        conn.close()
    return {"cells": cells, "values": values, "meta": meta}


def _tree_bytes(root: Path):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(Path(root).rglob("*"))
        if path.is_file()
    }


def _cut_quality(data: bytes):
    """A cell file's bytes without its Q value, and that value."""
    match = re.search(rb'"quality": (-?[0-9][0-9.eE+-]*)', data)
    return data[:match.start(1)] + data[match.end(1):], float(match.group(1))


def _update(path: Path, sql: str, params=()) -> None:
    """Edit a store behind its back (damage it, drop a row)."""
    conn = sqlite3.connect(str(path))
    with conn:
        conn.execute(sql, params)
    conn.close()


@contextmanager
def _write_lock_held(path: Path):
    """Another connection holds the store's write lock in the block."""
    holder = sqlite3.connect(str(path), isolation_level=None)
    holder.execute("BEGIN IMMEDIATE")
    try:
        yield
    finally:
        holder.execute("ROLLBACK")
        holder.close()


def _seed_payloads():
    """A small synthetic grid with deliberate value ties."""
    payloads = []
    for ds in ("alpha", "beta"):
        for idx, alg in enumerate(("A", "B", "C")):
            payloads.append(
                build_payload(
                    surface="synthetic",
                    group=(ds,),
                    cell=(alg,),
                    seed_state="f" * 40,
                    values={
                        "quality": 0.5
                        if alg != "A"
                        else (0.25 if ds == "alpha" else 0.9),
                        "runtime_ms": float(10 * (idx + 1)),
                        "n": 100,
                        "note": "not-a-number",
                    },
                )
            )
    return payloads


def _seeded_store(path: Path) -> SqliteStore:
    store = open_store(path)
    store.prepare({"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False)
    for payload in _seed_payloads():
        store.write_payload(payload)
    return store


# ----------------------------------------------------------------------
# Cell ids (satellite: collision bugfix)
# ----------------------------------------------------------------------
class TestCellId:
    def test_slug_lossiness_does_not_collide(self):
        """`a_b` and `a-b` slug to the same readable prefix but must
        map to different cell ids (pre-fix they shared one file)."""
        a = cell_id("s", ("a_b",), ("x",))
        b = cell_id("s", ("a-b",), ("x",))
        assert a != b

    def test_joiner_inside_part_does_not_collide(self):
        assert cell_id("s", ("a__b",), ("c",)) != cell_id(
            "s", ("a", "b"), ("c",)
        )

    def test_part_boundaries_are_unambiguous(self):
        assert cell_id("s", ("ab",), ("c",)) != cell_id("s", ("a",), ("bc",))
        assert cell_id("s", ("a", "b"), ()) != cell_id("s", ("a",), ("b",))

    def test_deterministic_and_filesystem_safe(self):
        first = cell_id("table2", ("iris", "normal"), ("UKM",))
        assert first == cell_id("table2", ("iris", "normal"), ("UKM",))
        assert "/" not in first and first == first.strip()
        assert first.startswith("table2__iris__normal__UKM--")


# ----------------------------------------------------------------------
# Durable atomic writes (satellite: fsync bugfix)
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_fsyncs_file_and_directory(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        target = tmp_path / "cell.json"
        atomic_write(target, "payload\n")
        assert target.read_text() == "payload\n"
        # One fsync for the tmp file's contents, one for the directory
        # entry after the rename.
        assert len(synced) >= 2

    def test_no_tmp_residue(self, tmp_path):
        target = tmp_path / "cell.json"
        atomic_write(target, "one\n")
        atomic_write(target, "two\n")
        assert target.read_text() == "two\n"
        assert list(tmp_path.glob("*.tmp")) == []


# ----------------------------------------------------------------------
# open_store
# ----------------------------------------------------------------------
class TestOpenStore:
    def test_open_store_passthrough_and_backend_keyword(self, tmp_path):
        """Every store is SQLite: ``backend`` accepts only ``None`` and
        ``"sqlite"``; ``"json"`` points at ``repro store import``."""
        store = open_store(tmp_path / "d.sqlite")
        assert isinstance(store, SqliteStore)
        assert open_store(store) is store
        assert open_store(store, backend="sqlite") is store
        assert isinstance(
            open_store(tmp_path / "suffixless", backend="sqlite"), SqliteStore
        )
        with pytest.raises(InvalidParameterError, match="repro store import"):
            open_store(tmp_path / "d", backend="json")
        with pytest.raises(InvalidParameterError, match="unknown"):
            open_store(tmp_path / "d", backend="parquet")


# ----------------------------------------------------------------------
# Prepare / refusal matrix
# ----------------------------------------------------------------------
@every_suffix
class TestPrepareMatrix:
    def _description(self, tag="grid"):
        return {"schema": SWEEP_SCHEMA_VERSION, "surfaces": {"t": tag}}

    def test_fresh_prepare_round_trips_manifest(self, tmp_path, suffix):
        path = store_path(tmp_path, suffix=suffix)
        with open_store(path) as store:
            store.prepare(self._description(), resume=False)
            assert store.read_manifest() == self._description()
            assert not store.has_cells()
        assert path.read_bytes()[: len(SQLITE_HEADER)] == SQLITE_HEADER

    def test_reopen_same_grid_ok(self, tmp_path, suffix):
        path = store_path(tmp_path, suffix=suffix)
        with open_store(path) as store:
            store.prepare(self._description(), resume=False)
        with open_store(path) as store:
            store.prepare(self._description(), resume=False)

    def test_different_grid_refused(self, tmp_path, suffix):
        path = store_path(tmp_path, suffix=suffix)
        with open_store(path) as store:
            store.prepare(self._description("one"), resume=False)
        with open_store(path) as store:
            with pytest.raises(SweepStoreError, match="different grid"):
                store.prepare(self._description("two"), resume=False)

    def test_existing_results_need_resume(self, tmp_path, suffix):
        path = store_path(tmp_path, suffix=suffix)
        with open_store(path) as store:
            store.prepare(self._description(), resume=False)
            store.write_payload(_seed_payloads()[0])
        with open_store(path) as store:
            with pytest.raises(SweepStoreError, match="resume"):
                store.prepare(self._description(), resume=False)
            store.prepare(self._description(), resume=True)

    def test_non_store_path_refused(self, tmp_path, suffix):
        path = store_path(tmp_path, suffix=suffix)
        path.write_bytes(b"definitely not a sqlite database")
        with open_store(path) as store:
            with pytest.raises(SweepStoreError):
                store.prepare(self._description(), resume=False)
        assert path.read_bytes() == b"definitely not a sqlite database"

    def test_corrupt_manifest_refused(self, tmp_path, suffix):
        path = store_path(tmp_path, suffix=suffix)
        with open_store(path) as store:
            store.prepare(self._description(), resume=False)
        _update(
            path, "UPDATE meta SET value = '{not json' WHERE key = 'manifest'"
        )
        with open_store(path) as store:
            with pytest.raises(SweepStoreError, match="unreadable"):
                store.prepare(self._description(), resume=True)


# ----------------------------------------------------------------------
# Cell round trips + damage detection
# ----------------------------------------------------------------------
@every_suffix
class TestCells:
    def _prepared(self, tmp_path, suffix):
        store = open_store(store_path(tmp_path, suffix=suffix))
        store.prepare({"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False)
        return store

    def test_write_load_iter_round_trip(self, tmp_path, suffix):
        store = self._prepared(tmp_path, suffix)
        payloads = _seed_payloads()
        names = [store.write_payload(payload) for payload in payloads]
        assert len(set(names)) == len(names)
        for name, payload in zip(names, payloads):
            loaded, problem = store.load_cell(name)
            assert problem is None
            assert loaded == payload
        iterated = list(store.iter_cells())
        assert [name for name, _p, _w in iterated] == sorted(names)
        assert all(problem is None for _n, _p, problem in iterated)
        assert store.count_cells() == len(names)
        missing, problem = store.load_cell("never-written--0000000000")
        assert missing is None and problem is None
        store.close()

    def test_write_cell_matches_build_payload(self, tmp_path, suffix):
        store = self._prepared(tmp_path, suffix)
        name = store.write_cell(
            "s", ("g",), ("c",), "a" * 40, {"quality": 0.5}
        )
        loaded, problem = store.load_cell(name)
        assert problem is None
        assert loaded == build_payload(
            "s", ("g",), ("c",), "a" * 40, {"quality": 0.5}
        )
        store.close()

    def test_load_group_all_or_none(self, tmp_path, suffix):
        store = self._prepared(tmp_path, suffix)
        payloads = _seed_payloads()
        names = [store.write_payload(payload) for payload in payloads]
        group = store.load_group(names)
        assert group is not None
        assert set(group) == set(names)
        assert group[names[0]] == payloads[0]["values"]
        assert store.load_group(names + ["missing--0000000000"]) is None
        assert store.load_group([]) == {}
        store.close()

    def test_incomplete_payload_reported(self, tmp_path, suffix):
        store = self._prepared(tmp_path, suffix)
        name = store.write_payload(_seed_payloads()[0])
        _update(
            store.path,
            "UPDATE cells SET payload = ? WHERE cell_id = ?",
            (json.dumps({"status": "running"}), name),
        )
        loaded, problem = store.load_cell(name)
        assert loaded is None and problem == "incomplete"
        assert store.load_group([name]) is None
        store.close()

    def test_torn_payload_reported(self, tmp_path, suffix):
        store = self._prepared(tmp_path, suffix)
        name = store.write_payload(_seed_payloads()[0])
        _update(
            store.path,
            "UPDATE cells SET payload = substr(payload, 1, 25) "
            "WHERE cell_id = ?",
            (name,),
        )
        loaded, problem = store.load_cell(name)
        assert loaded is None and problem == "unreadable"
        damaged = [w for _n, _p, w in store.iter_cells() if w is not None]
        assert damaged == ["unreadable"]
        store.close()


class TestSqliteSubstrate:
    """SQLite failure modes must surface as clean SweepStoreErrors."""

    def test_truncated_database_fails_cleanly(self, tmp_path):
        path = store_path(tmp_path)
        _seeded_store(path).close()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # tear trailing pages
        with open_store(path) as store:
            with pytest.raises(SweepStoreError, match="unreadable|corrupt"):
                store.query()

    def test_missing_database_fails_cleanly(self, tmp_path):
        with open_store(tmp_path / "absent.sqlite") as store:
            with pytest.raises(SweepStoreError, match="no sqlite"):
                store.load_cell("anything")

    def test_directory_fails_cleanly(self, tmp_path):
        """sqlite3 cannot open a directory; the store must say so with
        a SweepStoreError instead of a raw OperationalError, and leave
        the directory alone."""
        target = tmp_path / "notastore"
        target.mkdir()
        (target / "precious.txt").write_text("do not clobber")
        for action in (
            lambda store: store.prepare({"schema": 2, "surfaces": {}}, True),
            lambda store: store.load_cell("anything"),
        ):
            with open_store(target) as store:
                with pytest.raises(SweepStoreError, match="is a directory"):
                    action(store)
        assert os.listdir(target) == ["precious.txt"]

    def test_json_store_directory_names_import(self, tmp_path):
        old = tmp_path / "old"
        shutil.copytree(FIXTURE, old)
        with open_store(old) as store:
            with pytest.raises(
                SweepStoreError, match=r"repro store import .*old"
            ):
                store.prepare(_fixture_grid().describe(), resume=True)
        assert _tree_bytes(old) == _tree_bytes(FIXTURE)

    def test_unopenable_path_fails_cleanly(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("a file, not a directory")
        with open_store(blocker / "store.sqlite") as store:
            with pytest.raises(SweepStoreError, match="unreadable"):
                store.prepare({"schema": 2, "surfaces": {}}, False)

    def test_held_lock_is_a_store_error(self, tmp_path):
        """A write lock held past the busy timeout fails every write
        path with a SweepStoreError, not a raw sqlite3 error."""
        path = store_path(tmp_path)
        store = open_store(path)
        store.prepare({"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False)
        assert store.claim_cell("cell--0000000001", "alice", 60.0)
        store._connect().execute("PRAGMA busy_timeout=0")
        payload = _seed_payloads()[0]
        parts = ("surface", "group", "cell", "seed_state", "values")
        with _write_lock_held(path):
            for action in (
                lambda: store.write_cell(*(payload[part] for part in parts)),
                lambda: store.claim_cell("cell--0000000002", "alice", 60.0),
                lambda: store.renew_lease("cell--0000000001", "alice", 60.0),
            ):
                with pytest.raises(SweepStoreError, match="database is locked"):
                    action()
        # The lock gone, the same handle writes again.
        assert store.renew_lease("cell--0000000001", "alice", 60.0)
        assert store.write_cell(*(payload[part] for part in parts))
        store.close()

    def test_heartbeat_rides_out_a_held_lock(self, tmp_path, monkeypatch):
        """A renewal that hits a lock does not end the heartbeat: it keeps
        beating and renews the lease once the lock is released."""
        connect = SqliteStore._connect

        def impatient(self, create=False):
            conn = connect(self, create)
            conn.execute("PRAGMA busy_timeout=20")
            return conn

        monkeypatch.setattr(SqliteStore, "_connect", impatient)
        path = store_path(tmp_path)
        store = open_store(path)
        store.prepare({"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False)
        logged = []
        claimer = _LeaseClaimer(store, "alice", 0.3, logged.append)
        cell = "cell--0000000001"
        try:
            assert claimer.claim(cell)
            with claimer.heartbeat(cell):
                with _write_lock_held(path):
                    time.sleep(0.5)  # five 0.1 s beats, each refused
                    locked = store.active_leases()[cell][1]
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if store.active_leases()[cell][1] > locked:
                        break
                    time.sleep(0.05)
                renewed = store.active_leases()[cell][1]
        finally:
            claimer.close()
            store.close()
        assert renewed > locked
        assert logged == []

    def test_wal_mode_is_active(self, tmp_path):
        path = store_path(tmp_path)
        with open_store(path) as store:
            store.prepare(
                {"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False
            )
            mode = store._connect().execute(
                "PRAGMA journal_mode"
            ).fetchone()[0]
        assert mode == "wal"

    def test_concurrent_connections_share_the_store(self, tmp_path):
        """WAL's point: a second writer connection can land cells while
        the first store handle stays open for reading."""
        path = store_path(tmp_path)
        reader = open_store(path)
        reader.prepare({"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False)
        writer = open_store(path)
        payload = _seed_payloads()[0]
        name = writer.write_payload(payload)
        loaded, problem = reader.load_cell(name)
        assert problem is None and loaded == payload
        reader.close()
        writer.close()


# ----------------------------------------------------------------------
# Query / aggregation conformance (SQL vs the Python reference reads)
# ----------------------------------------------------------------------
class TestQueryConformance:
    @pytest.fixture
    def store(self, tmp_path):
        store = _seeded_store(store_path(tmp_path))
        yield store
        store.close()

    def test_value_plane_identical(self, store):
        rows = store.query()
        assert rows == reference.query(store.iter_cells())
        assert len(rows) == 18  # 6 cells x 3 numeric metrics
        # Non-numeric values never reach the value plane.
        assert all(row[4] != "note" for row in rows)
        # Filters agree too.
        for kwargs in (
            {"surface": "synthetic"},
            {"metric": "quality"},
            {"surface": "nope"},
            {"surface": "synthetic", "metric": "runtime_ms"},
        ):
            assert store.query(**kwargs) == reference.query(
                store.iter_cells(), **kwargs
            )

    def test_metric_summary_identical(self, store):
        sql_summary = store.metric_summary()
        ref_summary = reference.metric_summary(store.iter_cells())
        assert len(sql_summary) == len(ref_summary) == 3
        for s, r in zip(sql_summary, ref_summary):
            assert s[:5] == r[:5]  # surface, metric, count, min, max exact
            assert s[5] == pytest.approx(r[5], rel=1e-12)  # mean (sum order)
        assert store.metric_summary("nope") == []

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_best_cells_identical_with_ties(self, store, mode):
        sql_best = store.best_cells("quality", mode=mode)
        assert sql_best == reference.best_cells(
            store.iter_cells(), "quality", mode=mode
        )
        assert len(sql_best) == 2  # one winner per (surface, group)

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_rank_over_grid_identical_with_ties(self, store, mode):
        sql_rank = store.rank_over_grid("quality", mode=mode)
        assert sql_rank == reference.rank_over_grid(
            store.iter_cells(), "quality", mode=mode
        )
        ranks = [rank for rank, _n, _s, _v in sql_rank]
        # Competition ranking: the four 0.5 ties share one rank and the
        # next rank skips accordingly.
        assert len(ranks) == 6
        assert len(set(ranks)) == 3
        counts = {rank: ranks.count(rank) for rank in set(ranks)}
        assert max(counts.values()) == 4

    def test_mode_validated(self, store):
        for aggregate in (store.best_cells, store.rank_over_grid):
            with pytest.raises(InvalidParameterError, match="mode"):
                aggregate("quality", mode="upside-down")
        for aggregate in (reference.best_cells, reference.rank_over_grid):
            with pytest.raises(InvalidParameterError, match="mode"):
                aggregate(store.iter_cells(), "quality", mode="upside-down")


# ----------------------------------------------------------------------
# Sweep integration: kill+resume, damage, reports
# ----------------------------------------------------------------------
class TestSweepOnStore:
    def test_sweep_matches_direct_runners(self, tmp_path):
        """The small grid's stored cells and rendered reports equal the
        direct runners', and every stored payload is its canonical JSON
        text."""
        common = dict(n_runs=2, n_samples=8, seed=5)
        t3_axes = dict(T3_AXES, algorithms=("UCPC", "UKmed"))
        grid = SweepGrid(
            table2=Table2Spec(
                config=ExperimentConfig(scale=0.12, max_objects=40, **common),
                **T2_AXES,
            ),
            table3=Table3Spec(
                config=ExperimentConfig(scale=0.004, **common), **t3_axes
            ),
        )
        path = store_path(tmp_path)
        outcome = run_sweep(grid, path)
        table2 = run_table2(
            ExperimentConfig(scale=0.12, max_objects=40, **common), **T2_AXES
        )
        table3 = run_table3(
            ExperimentConfig(scale=0.004, **common), **t3_axes
        )
        for key, cell in table2.cells.items():
            assert outcome.table2.cells[key].theta == cell.theta
            assert outcome.table2.cells[key].quality == cell.quality
        for key, quality in table3.quality.items():
            assert outcome.table3.quality[key] == quality
        # (table2's render needs the UCPC baseline, which this
        # micro-grid omits.)
        assert outcome.table3.render() == table3.render()
        rows = _sqlite_rows(path)
        assert len(rows["cells"]) == 6
        for row in rows["cells"]:
            assert row[-1] == canonical_dumps(json.loads(row[-1]))
        with open_store(path) as store:
            assert store.read_manifest() == grid.describe()

    @every_suffix
    def test_kill_and_resume_identical(self, tmp_path, monkeypatch, suffix):
        """Acceptance: a killed + resumed store is identical to an
        uninterrupted one row for row (same cells, payloads, seed
        fingerprints)."""
        import repro.experiments.table2 as table2_module

        clean = store_path(tmp_path, "clean", suffix)
        run_sweep(_grid(), clean)

        killed = store_path(tmp_path, "killed", suffix)
        original = table2_module.run_table2_cell
        calls = {"count": 0}

        def bomb(*args, **kwargs):
            if calls["count"] >= 1:
                raise KeyboardInterrupt("simulated kill")
            calls["count"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(table2_module, "run_table2_cell", bomb)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(_grid(), killed)
        monkeypatch.setattr(table2_module, "run_table2_cell", original)

        outcome = run_sweep(_grid(), killed, resume=True)
        assert len(outcome.reused) == 1
        assert len(outcome.executed) == 5
        assert _sqlite_rows(clean) == _sqlite_rows(killed)
        table2, table3 = _direct_reports()
        for key, cell in table2.cells.items():
            assert outcome.table2.cells[key].theta == cell.theta

    @every_suffix
    def test_damaged_cells_rerun_to_identity(self, tmp_path, suffix):
        clean = store_path(tmp_path, "clean", suffix)
        run_sweep(_grid(), clean)
        damaged = store_path(tmp_path, "damaged", suffix)
        run_sweep(_grid(), damaged)

        torn = cell_id("table2", ("iris", "normal"), ("UKM",))
        partial = cell_id("table3", ("neuroblastoma",), ("k2", "UKmed"))
        _update(
            damaged,
            "UPDATE cells SET payload = substr(payload, 1, 25) "
            "WHERE cell_id = ?",
            (torn,),
        )
        _update(
            damaged,
            "UPDATE cells SET payload = ? WHERE cell_id = ?",
            (json.dumps({"status": "running"}), partial),
        )

        outcome = run_sweep(_grid(), damaged, resume=True)
        assert sorted(outcome.invalid) == sorted([torn, partial])
        assert sorted(outcome.executed) == sorted(outcome.invalid)
        assert _sqlite_rows(clean) == _sqlite_rows(damaged)

    def test_store_backend_keyword_is_sqlite_only(self, tmp_path):
        path = tmp_path / "suffixless"
        run_sweep(_grid(), path, store_backend="sqlite")
        assert path.is_file()
        assert len(_sqlite_rows(path)["cells"]) == 6
        refused = store_path(tmp_path, "refused")
        with pytest.raises(InvalidParameterError, match="repro store import"):
            run_sweep(_grid(), refused, store_backend="json")
        assert not refused.exists()


# ----------------------------------------------------------------------
# JSON export / import
# ----------------------------------------------------------------------
class TestExportImport:
    def _populated(self, tmp_path, name="src"):
        path = store_path(tmp_path, name)
        run_sweep(_grid(), path)
        return path

    def test_export_import_round_trip_byte_identical(self, tmp_path):
        source = self._populated(tmp_path)
        exported = tmp_path / "exported"
        names = export_store(source, exported)
        assert len(names) == 6
        assert sorted(os.listdir(exported)) == ["cells", "manifest.json"]
        assert sorted(os.listdir(exported / "cells")) == sorted(
            f"{name}.json" for name in names
        )
        copy = store_path(tmp_path, "copy")
        assert import_store(exported, copy) == names
        assert diff_stores(source, copy) == []
        assert _sqlite_rows(source) == _sqlite_rows(copy)
        again = tmp_path / "again"
        export_store(copy, again)
        assert _tree_bytes(exported) == _tree_bytes(again)

    def test_export_equals_json_store_fixture(self, tmp_path):
        """A fresh sweep of the fixture's grid, exported, is byte for
        byte the directory the JSON store backend wrote for it, except
        each cell's Q, which is within ``Q_BOUND`` of the written one."""
        path = store_path(tmp_path)
        run_sweep(_fixture_grid(), path)
        exported = tmp_path / "exported"
        export_store(path, exported)
        fresh, written = _tree_bytes(exported), _tree_bytes(FIXTURE)
        assert fresh.keys() == written.keys()
        assert fresh.pop("manifest.json") == written.pop("manifest.json")
        for name, data in written.items():
            rest, quality = _cut_quality(fresh[name])
            written_rest, written_quality = _cut_quality(data)
            assert rest == written_rest, name
            assert abs(quality - written_quality) <= Q_BOUND, name

    def test_imported_fixture_resumes_with_every_cell_reused(self, tmp_path):
        path = store_path(tmp_path)
        assert len(import_store(FIXTURE, path)) == 6
        outcome = run_sweep(_fixture_grid(), path, resume=True)
        assert outcome.executed == []
        assert len(outcome.reused) == 6
        exported = tmp_path / "exported"
        export_store(path, exported)
        assert _tree_bytes(exported) == _tree_bytes(FIXTURE)

    def test_refuses_source_without_manifest(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SweepStoreError, match="no sweep manifest"):
            import_store(empty, store_path(tmp_path, "dst"))
        assert not store_path(tmp_path, "dst").exists()
        bare = store_path(tmp_path, "bare")
        sqlite3.connect(str(bare)).close()
        with pytest.raises(SweepStoreError, match="no sweep manifest"):
            export_store(bare, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_refuses_damaged_source(self, tmp_path):
        torn = tmp_path / "torn"
        shutil.copytree(FIXTURE, torn)
        victim = sorted((torn / "cells").glob("*.json"))[0]
        victim.write_text(victim.read_text()[:25])
        with pytest.raises(SweepStoreError, match="damaged.*unreadable"):
            import_store(torn, store_path(tmp_path, "a"))
        foreign = tmp_path / "foreign"
        shutil.copytree(FIXTURE, foreign)
        victim = sorted((foreign / "cells").glob("*.json"))[0]
        victim.rename(victim.with_name("renamed--0000000000.json"))
        with pytest.raises(SweepStoreError, match="foreign id"):
            import_store(foreign, store_path(tmp_path, "b"))
        assert not store_path(tmp_path, "a").exists()
        assert not store_path(tmp_path, "b").exists()
        source = self._populated(tmp_path)
        _update(
            source,
            "UPDATE cells SET payload = substr(payload, 1, 25) "
            "WHERE cell_id = (SELECT MIN(cell_id) FROM cells)",
        )
        with pytest.raises(SweepStoreError, match="damaged"):
            export_store(source, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_refuses_populated_destination(self, tmp_path):
        source = self._populated(tmp_path)
        exported = tmp_path / "exported"
        export_store(source, exported)
        with pytest.raises(SweepStoreError, match="resume"):
            import_store(exported, source)
        with pytest.raises(SweepStoreError, match="not an empty directory"):
            export_store(source, exported)
        with pytest.raises(SweepStoreError, match="not an empty directory"):
            export_store(source, source)

    def test_refuses_directory_destination(self, tmp_path):
        source = tmp_path / "source"
        shutil.copytree(FIXTURE, source)
        with pytest.raises(SweepStoreError, match="directory"):
            import_store(source, source)
        assert _tree_bytes(source) == _tree_bytes(FIXTURE)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCLI:
    def _quick_sweep(self, store, extra=()):
        from repro.cli import main

        return main(
            [
                "sweep",
                "--store",
                str(store),
                "--quick",
                "--surfaces",
                "table2",
                "--runs",
                "1",
                *extra,
            ]
        )

    def test_sweep_and_resume(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert self._quick_sweep(store) == 0
        assert store.is_file()
        assert "sweep complete" in capsys.readouterr().out
        assert self._quick_sweep(store, ("--resume",)) == 0
        assert "0 cells run, 2 reused" in capsys.readouterr().out
        assert self._quick_sweep(store) == 2  # refused without --resume

    def test_store_export_import_and_summary(self, tmp_path, capsys):
        from repro.cli import main

        store = store_path(tmp_path)
        assert self._quick_sweep(store) == 0
        capsys.readouterr()
        exported = tmp_path / "exported"
        assert main(["store", "export", str(store), str(exported)]) == 0
        out = capsys.readouterr().out
        assert "exported 2 cells" in out and "verified" in out
        copy = store_path(tmp_path, "copy")
        assert main(["store", "import", str(exported), str(copy)]) == 0
        out = capsys.readouterr().out
        assert "imported 2 cells" in out and "verified" in out
        assert (
            main(["store", "summary", str(copy), "--metric", "quality"]) == 0
        )
        out = capsys.readouterr().out
        assert f"store {copy}" in out
        assert "best (max) per group" in out
        assert "rank over grid" in out

    def test_store_import_refusal_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["store", "import", str(empty), str(tmp_path / "x.db")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_store_summary_missing_manifest_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        bare = store_path(tmp_path, "bare")
        sqlite3.connect(str(bare)).close()
        assert main(["store", "summary", str(bare)]) == 2
        assert "no sweep manifest" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Claim/lease layer
# ----------------------------------------------------------------------
@every_suffix
class TestLeases:
    def _prepared(self, tmp_path, suffix, name="store"):
        store = open_store(store_path(tmp_path, name, suffix))
        store.prepare(
            {"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False
        )
        return store

    def test_claim_is_exclusive_while_live(self, tmp_path, suffix):
        store = self._prepared(tmp_path, suffix)
        assert store.claim_cell("cell--0000000001", "alice", 60.0)
        assert not store.claim_cell("cell--0000000001", "bob", 60.0)
        leases = store.active_leases()
        assert set(leases) == {"cell--0000000001"}
        assert leases["cell--0000000001"][0] == "alice"
        # An unrelated cell is claimable regardless.
        assert store.claim_cell("cell--0000000002", "bob", 60.0)
        store.close()

    def test_claim_is_reentrant_and_extends(self, tmp_path, suffix):
        store = self._prepared(tmp_path, suffix)
        assert store.claim_cell("cell--0000000001", "alice", 10.0)
        first = store.active_leases()["cell--0000000001"][1]
        assert store.claim_cell("cell--0000000001", "alice", 120.0)
        second = store.active_leases()["cell--0000000001"][1]
        assert second > first
        store.close()

    def test_expired_lease_is_stolen(self, tmp_path, suffix):
        store = self._prepared(tmp_path, suffix)
        assert store.claim_cell("cell--0000000001", "dead-worker", 0.05)
        time.sleep(0.1)
        assert store.claim_cell("cell--0000000001", "bob", 60.0)
        assert store.active_leases()["cell--0000000001"][0] == "bob"
        store.close()

    def test_renew_is_owner_only(self, tmp_path, suffix):
        store = self._prepared(tmp_path, suffix)
        # No lease at all: renewal reports the lease as lost.
        assert not store.renew_lease("cell--0000000001", "alice", 60.0)
        assert store.claim_cell("cell--0000000001", "alice", 10.0)
        before = store.active_leases()["cell--0000000001"][1]
        assert not store.renew_lease("cell--0000000001", "bob", 60.0)
        assert store.active_leases()["cell--0000000001"][0] == "alice"
        assert store.renew_lease("cell--0000000001", "alice", 120.0)
        assert store.active_leases()["cell--0000000001"][1] > before
        store.close()

    def test_release_is_owner_checked_then_forced(self, tmp_path, suffix):
        store = self._prepared(tmp_path, suffix)
        assert store.claim_cell("cell--0000000001", "alice", 60.0)
        store.release_cell("cell--0000000001", "bob")  # wrong owner: no-op
        assert "cell--0000000001" in store.active_leases()
        store.release_cell("cell--0000000001", "alice")
        assert store.active_leases() == {}
        assert store.claim_cell("cell--0000000001", "bob", 60.0)
        store.release_cell("cell--0000000001")  # owner=None force-releases
        assert store.active_leases() == {}
        store.release_cell("never-claimed--00")  # idempotent on absence
        store.close()

    def test_reap_drops_complete_and_expired_leases(self, tmp_path, suffix):
        store = self._prepared(tmp_path, suffix)
        done = store.write_payload(_seed_payloads()[0])
        # Owner died between writing the payload and releasing:
        assert store.claim_cell(done, "crashed-after-write", 600.0)
        # Owner died mid-cell (lease expired, no payload):
        assert store.claim_cell("pending--0000000001", "crashed-mid", 0.05)
        # A live worker still computing:
        assert store.claim_cell("pending--0000000002", "alive", 600.0)
        time.sleep(0.1)
        reaped = store.reap_leases()
        assert sorted(reaped) == sorted([done, "pending--0000000001"])
        assert set(store.active_leases()) == {"pending--0000000002"}
        store.close()

    def test_double_claim_race_admits_one_winner(self, tmp_path, suffix):
        """N handles racing an initial claim: exactly one wins (the
        single-writer upsert transaction)."""
        path = store_path(tmp_path, suffix=suffix)
        with open_store(path) as store:
            store.prepare(
                {"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False
            )
        for round_idx in range(5):
            cell = f"contested--{round_idx:010d}"
            barrier = threading.Barrier(6)
            wins: list = []

            def contend(idx, cell=cell, barrier=barrier, wins=wins):
                handle = open_store(path)
                try:
                    barrier.wait()
                    if handle.claim_cell(cell, f"worker-{idx}", 60.0):
                        wins.append(idx)
                finally:
                    handle.close()

            threads = [
                threading.Thread(target=contend, args=(idx,))
                for idx in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(wins) == 1, f"round {round_idx}: winners {wins}"

    def test_lease_history_invisible_to_store_identity(self, tmp_path, suffix):
        """Claim/renew/release/reap churn must never show up in the
        identity comparison (logical rows)."""
        plain = store_path(tmp_path, "plain", suffix)
        run_sweep(_grid(), plain)
        churned = store_path(tmp_path, "churned", suffix)
        run_sweep(_grid(), churned)
        with open_store(churned) as store:
            names = [name for name, _p, _w in store.iter_cells()]
            assert store.claim_cell(names[0], "ghost", 0.05)
            assert store.claim_cell(names[1], "worker", 60.0)
            assert store.renew_lease(names[1], "worker", 60.0)
            store.release_cell(names[1], "worker")
            time.sleep(0.1)
            store.reap_leases()
            assert store.active_leases() == {}
        assert _sqlite_rows(plain) == _sqlite_rows(churned)
        assert diff_stores(plain, churned) == []


# ----------------------------------------------------------------------
# The import walk is listdir-order independent (satellite bugfix)
# ----------------------------------------------------------------------
class TestImportOrder:
    @pytest.mark.parametrize("scramble", ["reversed", "shuffled"])
    def test_import_ignores_listdir_order(
        self, tmp_path, monkeypatch, scramble
    ):
        import random

        source = _seeded_store(store_path(tmp_path, "source"))
        exported = tmp_path / "exported"
        names = export_store(source, exported)
        real_listdir = os.listdir

        def scrambled(path):
            entries = list(real_listdir(path))
            if scramble == "reversed":
                entries.reverse()
            else:
                random.Random(0).shuffle(entries)
            return entries

        monkeypatch.setattr(os, "listdir", scrambled)
        assert import_store(exported, store_path(tmp_path)) == sorted(names)

    def test_prefix_stems_sort_by_cell_id_not_filename(self, tmp_path):
        """One id a prefix of another: filename order puts the longer id
        first (its ``-`` sorts below the ``.`` of ``.json``), cell-id
        order puts the shorter first — the walk must use cell-id order,
        the store's own row order."""
        short = build_payload("s", ("g",), ("x",), "b" * 40, {"quality": 1.0})
        short_id = cell_id("s", ("g",), ("x",))
        long_part = short_id[len("s__g__"):] + "-b"
        long = build_payload(
            "s", ("g",), (long_part,), "b" * 40, {"quality": 2.0}
        )
        long_id = cell_id("s", ("g",), (long_part,))
        assert long_id.startswith(short_id)
        source = open_store(store_path(tmp_path, "source"))
        source.prepare({"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False)
        for payload in (long, short):
            source.write_payload(payload)
        exported = tmp_path / "exported"
        export_store(source, exported)
        assert sorted(os.listdir(exported / "cells")) == [
            f"{long_id}.json",
            f"{short_id}.json",
        ]
        assert import_store(exported, store_path(tmp_path)) == [
            short_id,
            long_id,
        ]


# ----------------------------------------------------------------------
# Fork safety of the cached SQLite connection (satellite bugfix)
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="platform has no fork start method",
)
class TestSqliteForkSafety:
    def test_child_reopens_inherited_connection(self, tmp_path):
        """A store handle that crosses a fork() must lazily discard the
        inherited sqlite3.Connection and reopen in the child; both
        sides keep writing with no `database is locked` and no
        corruption."""
        path = store_path(tmp_path)
        store = open_store(path)
        store.prepare(
            {"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False
        )
        payloads = _seed_payloads()
        store.write_payload(payloads[0])  # connection now open and cached
        assert store._conn is not None
        context = multiprocessing.get_context("fork")
        queue = context.SimpleQueue()

        def child():
            try:
                name = store.write_payload(payloads[1])
                loaded, problem = store.load_cell(name)
                assert problem is None and loaded == payloads[1]
                assert store._conn_pid == os.getpid()
                assert store.claim_cell(name, "child", 30.0)
                store.release_cell(name, "child")
                queue.put("ok")
            except BaseException as error:
                queue.put(repr(error))

        process = context.Process(target=child)
        process.start()
        process.join(timeout=120)
        assert process.exitcode == 0
        assert not queue.empty()
        assert queue.get() == "ok"
        # The parent's connection survives the child's exit (the
        # child's close of its duplicate descriptors must not release
        # the parent's locks or tear its view).
        name = store.write_payload(payloads[2])
        loaded, problem = store.load_cell(name)
        assert problem is None and loaded == payloads[2]
        assert store.count_cells() == 3
        assert store.active_leases() == {}
        store.close()

    def test_processes_backend_sweep_forks_mid_run(
        self, tmp_path, force_backend
    ):
        """Regression: the `processes` execution backend forks pool
        workers while the sweep's SQLite connection is open; the sweep
        must land the same store as a serial run."""
        serial = store_path(tmp_path, "serial")
        run_sweep(_grid(), serial)
        forked = store_path(tmp_path, "forked")
        force_backend("processes")
        run_sweep(_grid(n_jobs=2), forked)
        assert _sqlite_rows(serial) == _sqlite_rows(forked)


# ----------------------------------------------------------------------
# Export/import failure cleanup (satellite bugfix)
# ----------------------------------------------------------------------
class TestTransferCleanup:
    def test_mid_copy_failure_removes_partial_destination(
        self, tmp_path, monkeypatch
    ):
        """A crash after N imported cells must not leave a partial store
        that blocks (`prepare` refusal) every retry."""
        destination = store_path(tmp_path, "dst")
        original = SqliteStore.write_payload
        calls = {"count": 0}

        def bomb(self, payload):
            if calls["count"] >= 2:
                raise RuntimeError("disk full (simulated)")
            calls["count"] += 1
            return original(self, payload)

        monkeypatch.setattr(SqliteStore, "write_payload", bomb)
        with pytest.raises(RuntimeError, match="disk full"):
            import_store(FIXTURE, destination)
        assert not destination.exists()
        assert not Path(str(destination) + "-wal").exists()
        # The retry starts from a clean slate and succeeds.
        monkeypatch.setattr(SqliteStore, "write_payload", original)
        assert len(import_store(FIXTURE, destination)) == 6
        exported = tmp_path / "exported"
        export_store(destination, exported)
        assert _tree_bytes(exported) == _tree_bytes(FIXTURE)

    def test_mid_export_failure_removes_partial_directory(
        self, tmp_path, monkeypatch
    ):
        source = store_path(tmp_path)
        run_sweep(_grid(), source)
        exported = tmp_path / "exported"
        calls = {"count": 0}

        def bomb(path, text):
            if calls["count"] >= 2:
                raise RuntimeError("disk full (simulated)")
            calls["count"] += 1
            return atomic_write(path, text)

        monkeypatch.setattr(transfer_module, "atomic_write", bomb)
        with pytest.raises(RuntimeError, match="disk full"):
            export_store(source, exported)
        assert not exported.exists()
        monkeypatch.setattr(transfer_module, "atomic_write", atomic_write)
        assert len(export_store(source, exported)) == 6

    def test_verification_failure_removes_partial_destination(
        self, tmp_path, monkeypatch
    ):
        def failing_verify(*args):
            raise SweepStoreError("verification failed (simulated)")

        monkeypatch.setattr(transfer_module, "_verify", failing_verify)
        destination = store_path(tmp_path, "dst")
        with pytest.raises(SweepStoreError, match="verification failed"):
            import_store(FIXTURE, destination)
        assert not destination.exists()
        source = store_path(tmp_path)
        run_sweep(_grid(), source)
        exported = tmp_path / "exported"
        with pytest.raises(SweepStoreError, match="verification failed"):
            export_store(source, exported)
        assert not exported.exists()

    def test_refused_existing_destination_is_not_deleted(self, tmp_path):
        """The cleanup only covers destinations *we* wrote: a populated
        store refused by prepare() must survive the refusal intact."""
        destination = store_path(tmp_path, "dst")
        run_sweep(_grid(), destination)
        before = _sqlite_rows(destination)
        with pytest.raises(SweepStoreError, match="different grid"):
            import_store(FIXTURE, destination)
        assert destination.exists()
        assert _sqlite_rows(destination) == before


# ----------------------------------------------------------------------
# Multi-worker sweep execution (tentpole)
# ----------------------------------------------------------------------
class TestMultiWorkerSweep:
    @every_suffix
    def test_single_worker_mode_equals_run_sweep(self, tmp_path, suffix):
        """Worker mode on a fresh store: one pass, same store rows and
        same reports as a plain run_sweep, zero lease state behind."""
        reference = store_path(tmp_path, "reference", suffix)
        run_sweep(_grid(), reference)
        worked = store_path(tmp_path, "worked", suffix)
        outcome = run_sweep_worker(
            _grid(), worked, worker_id="test:solo", max_passes=1
        )
        assert outcome.passes == 1
        assert len(outcome.executed) == 6
        assert not outcome.deferred
        assert _sqlite_rows(reference) == _sqlite_rows(worked)
        with open_store(worked) as store:
            assert store.active_leases() == {}
        table2, table3 = _direct_reports()
        for key, cell in table2.cells.items():
            assert outcome.table2.cells[key].theta == cell.theta
        for key, quality in table3.quality.items():
            assert outcome.table3.quality[key] == quality

    @every_suffix
    def test_foreign_lease_defers_then_expires_and_reclaims(
        self, tmp_path, suffix
    ):
        """A dead worker's live-looking lease defers its cell; once the
        lease expires a surviving worker steals it, re-runs the cell,
        and the store equals an uninterrupted single-worker run."""
        reference = store_path(tmp_path, "reference", suffix)
        run_sweep(_grid(), reference)
        shared = store_path(tmp_path, "shared", suffix)
        run_sweep(_grid(), shared)
        victim = cell_id("table2", ("iris", "normal"), ("UKM",))
        # Simulate a worker that died mid-cell: payload never written,
        # lease still ticking.
        _update(shared, "DELETE FROM cells WHERE cell_id = ?", (victim,))
        _update(
            shared, "DELETE FROM cell_values WHERE cell_id = ?", (victim,)
        )
        with open_store(shared) as store:
            assert store.claim_cell(victim, "dead-worker", 2.5)
        lines: list = []
        outcome = run_sweep_worker(
            _grid(),
            shared,
            worker_id="test:survivor",
            lease_ttl=5.0,
            poll_interval=0.1,
            progress=lines.append,
            max_passes=200,
        )
        assert outcome.executed == [victim]
        assert any("deferred" in line for line in lines)
        assert outcome.passes >= 2
        assert _sqlite_rows(reference) == _sqlite_rows(shared)
        with open_store(shared) as store:
            assert store.active_leases() == {}

    @every_suffix
    def test_interrupted_worker_releases_its_lease(
        self, tmp_path, monkeypatch, suffix
    ):
        """Ctrl-C inside a claimed cell must not strand its lease: a
        restarted worker (a new owner id) finishes in one pass instead
        of deferring the cell until the ttl runs out."""
        path = store_path(tmp_path, suffix=suffix)

        def interrupted(self, state, rng, key):
            raise KeyboardInterrupt("simulated Ctrl-C")

        with monkeypatch.context() as patch:
            patch.setattr(Table2Spec, "run", interrupted)
            with pytest.raises(KeyboardInterrupt):
                run_sweep_worker(
                    _grid(), path, worker_id="test:first", max_passes=1
                )
        with open_store(path) as store:
            assert store.active_leases() == {}
        outcome = run_sweep_worker(
            _grid(), path, worker_id="test:restarted", max_passes=3
        )
        assert outcome.passes == 1
        assert len(outcome.executed) == 6
        reference = store_path(tmp_path, "reference", suffix)
        run_sweep(_grid(), reference)
        assert _sqlite_rows(reference) == _sqlite_rows(path)

    def test_interrupt_while_storing_releases_the_lease(
        self, tmp_path, monkeypatch
    ):
        """Ctrl-C can also land after the cell body, while its payload
        is written (or inside the claim): the worker's exit path must
        still drop every lease it holds."""
        path = store_path(tmp_path)

        def interrupted(self, *args, **kwargs):
            raise KeyboardInterrupt("simulated Ctrl-C")

        with monkeypatch.context() as patch:
            patch.setattr(SqliteStore, "write_cell", interrupted)
            with pytest.raises(KeyboardInterrupt):
                run_sweep_worker(
                    _grid(), path, worker_id="test:first", max_passes=1
                )
        with open_store(path) as store:
            assert store.active_leases() == {}

    @every_suffix
    def test_two_workers_one_sigkilled_identical(self, tmp_path, suffix):
        """Acceptance: a 2-process cluster on one store — with one
        worker SIGKILLed mid-grid and its leases reclaimed — produces a
        store identical to the uninterrupted single-worker reference."""
        reference = store_path(tmp_path, "reference", suffix)
        run_sweep(_grid(), reference)
        shared = store_path(tmp_path, "shared", suffix)
        grid = _grid()
        context = multiprocessing.get_context("spawn")
        workers = [
            context.Process(
                target=_worker_main,
                args=(grid, str(shared), f"test:{tag}", 2.0, 0.1),
            )
            for tag in ("victim", "survivor")
        ]
        for process in workers:
            process.start()
        victim, survivor = workers
        time.sleep(1.5)
        victim.kill()  # SIGKILL: no cleanup, leases left ticking
        victim.join()
        survivor.join(timeout=300)
        assert not survivor.is_alive()
        assert survivor.exitcode == 0
        # The collection pass (what run_sweep_workers runs after the
        # join) finishes anything the victim left behind and reaps.
        outcome = run_sweep_worker(
            grid,
            shared,
            worker_id="test:collector",
            lease_ttl=2.0,
            poll_interval=0.1,
            max_passes=200,
        )
        with open_store(shared) as store:
            assert store.active_leases() == {}
        assert _sqlite_rows(reference) == _sqlite_rows(shared)
        table2, table3 = _direct_reports()
        for key, cell in table2.cells.items():
            assert outcome.table2.cells[key].theta == cell.theta
        for key, quality in table3.quality.items():
            assert outcome.table3.quality[key] == quality

    def test_run_sweep_workers_end_to_end(self, tmp_path):
        """The orchestrated path: spawn N children, join, collect."""
        reference = store_path(tmp_path, "reference")
        run_sweep(_grid(), reference)
        shared = store_path(tmp_path, "shared")
        outcome = run_sweep_workers(
            _grid(), shared, workers=2, lease_ttl=5.0, poll_interval=0.1
        )
        assert _sqlite_rows(reference) == _sqlite_rows(shared)
        table2, _table3 = _direct_reports()
        for key, cell in table2.cells.items():
            assert outcome.table2.cells[key].theta == cell.theta
        with pytest.raises(InvalidParameterError, match="workers"):
            run_sweep_workers(_grid(), shared, workers=0)


# ----------------------------------------------------------------------
# CLI: --workers / --join / store diff
# ----------------------------------------------------------------------
class TestCLIMultiWorker:
    def _sweep_args(self, extra):
        return [
            "sweep",
            "--quick",
            "--surfaces",
            "table2",
            "--runs",
            "1",
            *extra,
        ]

    def test_sweep_requires_store_or_join(self, capsys):
        from repro.cli import main

        assert main(self._sweep_args([])) == 2
        assert "--store" in capsys.readouterr().err

    def test_join_mode_runs_then_reuses(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "shared"
        assert main(self._sweep_args(["--join", str(store)])) == 0
        assert "sweep complete" in capsys.readouterr().out
        # A second worker joining the finished store reuses everything.
        assert main(self._sweep_args(["--join", str(store)])) == 0
        assert "0 cells run, 2 reused" in capsys.readouterr().out

    def test_workers_flag_matches_single_worker_store(self, tmp_path):
        from repro.cli import main

        reference = tmp_path / "reference"
        assert main(self._sweep_args(["--store", str(reference)])) == 0
        shared = tmp_path / "shared"
        assert (
            main(
                self._sweep_args(
                    [
                        "--store",
                        str(shared),
                        "--workers",
                        "2",
                        "--lease-ttl",
                        "5",
                    ]
                )
            )
            == 0
        )
        assert _sqlite_rows(reference) == _sqlite_rows(shared)

    def test_store_diff_cli(self, tmp_path, capsys):
        from repro.cli import main

        left = tmp_path / "left"
        assert main(self._sweep_args(["--store", str(left)])) == 0
        exported = tmp_path / "exported"
        twin = tmp_path / "twin.sqlite"
        assert main(["store", "export", str(left), str(exported)]) == 0
        assert main(["store", "import", str(exported), str(twin)]) == 0
        capsys.readouterr()
        assert main(["store", "diff", str(left), str(twin)]) == 0
        assert "stores identical" in capsys.readouterr().out
        other = tmp_path / "other"
        assert (
            main(self._sweep_args(["--store", str(other), "--seed", "9"]))
            == 0
        )
        capsys.readouterr()
        assert main(["store", "diff", str(left), str(other)]) == 1
        out = capsys.readouterr().out
        assert "stores differ" in out
        assert main(["store", "diff", str(left), str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err
