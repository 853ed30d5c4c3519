"""The result store: one SQLite file, WAL mode, SQL aggregation.

Layout (one database file)::

    meta(key, value)                       -- manifest + schema version
    cells(cell_id PRIMARY KEY, surface, group_json, cell_json,
          seed_state, status, payload)     -- payload = canonical JSON
    cell_values(cell_id, metric, value)    -- exploded numeric plane

The ``payload`` column stores the *exact canonical JSON text* of each
cell (:func:`~repro.engine.store.base.canonical_dumps`), which is what
``repro store export`` writes to ``cells/<cell_id>.json`` — so an
export/import round trip is byte-for-byte.  ``cell_values`` is the
columnar projection of every numeric value, indexed by ``(metric,
value)`` and joined against the ``(surface, group_json, cell_json)``
index on ``cells`` — the query/aggregation layer (`metric_summary`,
`best_cells`, `rank_over_grid`, group bulk loads) runs as indexed SQL
with window functions; the Python reference reads in
:mod:`repro.engine.store.base` define the rows it must return.

Refusal/resume semantics: :meth:`SqliteStore.prepare` refuses a store
written for a different grid (compared by
:func:`~repro.engine.store.base.grid_identity`, so execution settings
never count), a store that already holds results when ``resume`` was
not requested, and any path that is not a result store
(a foreign file, a directory — including a JSON store directory from an
earlier version, which ``repro store import`` converts) with
:class:`~repro.exceptions.SweepStoreError`.

Concurrency & durability: the database runs in WAL journal mode, so
concurrent writers (the multi-worker sweep) coordinate through
SQLite's locking instead of the filesystem, and readers never block a
writer.  ``synchronous=NORMAL`` under WAL means a power loss can drop
the last commits but can never corrupt the database — a lost cell is
simply re-run on resume, exactly like a cell that never got written.
Each cell write is one transaction, so a killed run can never leave a
half-written cell marked ``done``.

Claim/lease layer: the store doubles as the coordination substrate of
multi-worker sweeps.  A worker *claims* a pending cell before running
it, heartbeats the lease while computing, and releases it after the
cell's payload lands.  A lease is ``(owner, expires_at)`` in a
``leases(cell_id, owner, expires_at)`` table, created lazily so
pre-lease stores open unchanged; an expired lease means its worker died
mid-cell and any survivor may reclaim it.  A claim is **one** WAL
transaction — an upsert whose ``DO UPDATE`` is guarded by ``owner
matches OR lease expired`` — so two workers racing for a cell are
serialized by SQLite's single-writer lock and exactly one sees its row
change.  Leases are coordination only: every cell is deterministic
given the grid (seed-fingerprint replay), so the worst case of a lost
race is one cell computed twice and written twice with identical bytes.
The leases table is excluded from store identity (the logical-rows
comparison reads ``cells``/``cell_values``/``meta``) and is left empty
by a finished sweep (:meth:`SqliteStore.reap_leases`).

Fork safety: a ``sqlite3.Connection`` must never be used on both sides
of a ``fork()`` — the child would share the parent's file descriptors
and locking state.  The cached connection therefore remembers the pid
that opened it and is discarded and lazily reopened whenever it
surfaces in a different process (the ``processes`` execution backend
forks workers while the sweep's store connection is open).
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.engine.store.base import (
    SWEEP_SCHEMA_VERSION,
    CellRow,
    ValueRow,
    _check_mode,
    _numeric_items,
    build_payload,
    canonical_dumps,
    cell_id,
    grid_identity,
    validate_payload,
)
from repro.exceptions import InvalidParameterError, SweepStoreError

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS cells (
    cell_id TEXT PRIMARY KEY,
    surface TEXT NOT NULL,
    group_json TEXT NOT NULL,
    cell_json TEXT NOT NULL,
    seed_state TEXT NOT NULL,
    status TEXT NOT NULL,
    payload TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_cells_grid
    ON cells (surface, group_json, cell_json);
CREATE TABLE IF NOT EXISTS cell_values (
    cell_id TEXT NOT NULL,
    metric TEXT NOT NULL,
    value REAL NOT NULL,
    PRIMARY KEY (cell_id, metric)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_values_metric
    ON cell_values (metric, value);
"""

# Created lazily on first lease operation (not part of _SCHEMA) so
# stores written before the claim/lease layer open and verify cleanly.
_LEASES_SCHEMA = """
CREATE TABLE IF NOT EXISTS leases (
    cell_id TEXT PRIMARY KEY,
    owner TEXT NOT NULL,
    expires_at REAL NOT NULL
) WITHOUT ROWID
"""


def _is_missing_table(error: sqlite3.OperationalError) -> bool:
    return "no such table" in str(error)


def _directory_error(path: Path) -> SweepStoreError:
    """Why a directory cannot be opened as a result store."""
    if (path / "manifest.json").is_file():
        return SweepStoreError(
            f"{path} is a JSON store directory from an earlier version; "
            "result stores are SQLite files now — convert it with "
            f"`repro store import {path} {path}.sqlite`"
        )
    return SweepStoreError(f"{path} is a directory, not a sqlite result store")


class SqliteStore:
    """Single-file columnar result store (SQLite, WAL mode)."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_pid: Optional[int] = None
        self._leases_ready = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SqliteStore({str(self.path)!r})"

    def __enter__(self) -> "SqliteStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- connection ----------------------------------------------------
    def _connect(self, create: bool = False) -> sqlite3.Connection:
        if self._conn is not None and self._conn_pid != os.getpid():
            # Inherited across fork(): a sqlite3.Connection must never
            # be shared between processes.  Close *this process's*
            # duplicate of the descriptors (the parent's locks are
            # per-process and unaffected) and reopen lazily.
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
            self._leases_ready = False
        if self._conn is not None:
            return self._conn
        if self.path.is_dir():
            raise _directory_error(self.path)
        if not create and not self.path.exists():
            raise SweepStoreError(f"no sqlite result store at {self.path}")
        conn = None
        try:
            if create:
                self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(str(self.path))
            # journal_mode reads the header, so a non-database file is
            # rejected here instead of deep inside a later query.
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
        except (OSError, sqlite3.Error) as error:
            if conn is not None:
                conn.close()
            raise SweepStoreError(
                f"unreadable sqlite store {self.path}: {error}"
            ) from error
        self._conn = conn
        self._conn_pid = os.getpid()
        return conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
            self._leases_ready = False

    def _execute(self, sql: str, params: Sequence[object] = ()):
        """Run one query, mapping substrate corruption to SweepStoreError."""
        conn = self._connect()
        try:
            return conn.execute(sql, params)
        except sqlite3.OperationalError:
            raise
        except sqlite3.DatabaseError as error:
            raise SweepStoreError(
                f"corrupt sqlite store {self.path}: {error}"
            ) from error

    # -- lifecycle -----------------------------------------------------
    def prepare(self, description: Dict[str, object], resume: bool) -> None:
        """Create the store, or verify an existing one matches the grid."""
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        conn = self._connect(create=True)
        if fresh:
            with conn:
                conn.executescript(_SCHEMA)
                conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    ("manifest", canonical_dumps(description)),
                )
                conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    ("schema", str(SWEEP_SCHEMA_VERSION)),
                )
            return
        existing = self.read_manifest()
        if existing is None:
            raise SweepStoreError(
                f"{self.path} exists, is not empty and has no sweep "
                "manifest; refusing to write into it"
            )
        if grid_identity(existing) != grid_identity(description):
            raise SweepStoreError(
                f"store {self.path} was written for a different grid; "
                "use a fresh --store path (or the original grid)"
            )
        if not resume and self.has_cells():
            raise SweepStoreError(
                f"store {self.path} already holds results; pass "
                "resume=True (--resume) to fill in missing cells, or "
                "choose a fresh path"
            )

    # -- manifest ------------------------------------------------------
    def read_manifest(self) -> Optional[Dict[str, object]]:
        """The stored grid description, or ``None`` when absent.

        Raises :class:`~repro.exceptions.SweepStoreError` when a
        manifest exists but cannot be read.
        """
        try:
            row = self._execute(
                "SELECT value FROM meta WHERE key = 'manifest'"
            ).fetchone()
        except sqlite3.OperationalError as error:
            if _is_missing_table(error):
                return None
            raise SweepStoreError(
                f"unreadable sweep manifest in {self.path}: {error}"
            ) from error
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except json.JSONDecodeError as error:
            raise SweepStoreError(
                f"unreadable sweep manifest in {self.path}: {error}"
            ) from error

    # -- cells ---------------------------------------------------------
    def has_cells(self) -> bool:
        """Whether any cell result has been written."""
        try:
            row = self._execute("SELECT 1 FROM cells LIMIT 1").fetchone()
        except sqlite3.OperationalError as error:
            if _is_missing_table(error):
                return False
            raise
        return row is not None

    @staticmethod
    def _decode(
        payload_text: str,
    ) -> Tuple[Optional[Dict[str, object]], Optional[str]]:
        try:
            payload = json.loads(payload_text)
        except json.JSONDecodeError:
            return None, "unreadable"
        problem = validate_payload(payload)
        if problem is not None:
            return None, problem
        return payload, None

    def load_cell(
        self, cell: str
    ) -> Tuple[Optional[Dict[str, object]], Optional[str]]:
        """(payload, problem): payload when clean, problem when damaged.

        ``(None, None)`` means the cell simply has not run yet.
        """
        try:
            row = self._execute(
                "SELECT payload FROM cells WHERE cell_id = ?", (cell,)
            ).fetchone()
        except sqlite3.OperationalError as error:
            if _is_missing_table(error):
                return None, None
            raise SweepStoreError(
                f"corrupt sqlite store {self.path}: {error}"
            ) from error
        if row is None:
            return None, None
        return self._decode(row[0])

    def write_cell(
        self,
        surface: str,
        group: Sequence[object],
        cell: Sequence[object],
        seed_state: str,
        values: Dict[str, object],
    ) -> str:
        """Persist one freshly computed cell; returns its cell id."""
        return self.write_payload(
            build_payload(surface, group, cell, seed_state, values)
        )

    def write_payload(self, payload: Dict[str, object]) -> str:
        """Persist one complete cell payload; returns its cell id.

        The payload must be :func:`validate_payload`-clean; its id is
        derived from its own surface/group/cell parts, so an imported
        payload lands under the id it was exported with.
        """
        name = cell_id(payload["surface"], payload["group"], payload["cell"])
        value_rows = [
            (name, metric, value)
            for metric, value in _numeric_items(payload["values"])
        ]
        conn = self._connect()
        with conn:  # one transaction: the cell is either whole or absent
            conn.execute(
                "INSERT OR REPLACE INTO cells "
                "(cell_id, surface, group_json, cell_json, seed_state, "
                " status, payload) VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    name,
                    payload["surface"],
                    json.dumps(payload["group"]),
                    json.dumps(payload["cell"]),
                    payload["seed_state"],
                    payload["status"],
                    canonical_dumps(payload),
                ),
            )
            conn.execute("DELETE FROM cell_values WHERE cell_id = ?", (name,))
            conn.executemany(
                "INSERT INTO cell_values (cell_id, metric, value) "
                "VALUES (?, ?, ?)",
                value_rows,
            )
        return name

    def iter_cells(self) -> Iterator[CellRow]:
        """Every stored cell as ``(cell_id, payload, problem)``.

        Ordered by cell id; damaged cells appear with ``payload=None``
        and a problem string, exactly as :meth:`load_cell` reports them.
        """
        try:
            rows = self._execute(
                "SELECT cell_id, payload FROM cells ORDER BY cell_id"
            ).fetchall()
        except sqlite3.OperationalError as error:
            if _is_missing_table(error):
                return
            raise SweepStoreError(
                f"corrupt sqlite store {self.path}: {error}"
            ) from error
        for name, payload_text in rows:
            payload, problem = self._decode(payload_text)
            yield name, payload, problem

    def count_cells(self) -> int:
        """Number of stored cells (damaged ones included)."""
        try:
            return self._execute("SELECT COUNT(*) FROM cells").fetchone()[0]
        except sqlite3.OperationalError as error:
            if _is_missing_table(error):
                return 0
            raise

    # -- claim/lease layer ---------------------------------------------
    def _ensure_leases(self) -> sqlite3.Connection:
        conn = self._connect()
        if not self._leases_ready:
            with conn:
                conn.execute(_LEASES_SCHEMA)
            self._leases_ready = True
        return conn

    def claim_cell(self, cell: str, owner: str, ttl: float) -> bool:
        """Try to acquire the lease on one cell for ``ttl`` seconds.

        Succeeds when the cell has no lease, when ``owner`` already
        holds it (re-entrant — also extends the expiry), or when the
        existing lease has expired (its worker died; the claim *steals*
        it).  Returns ``False`` when another worker holds a live lease.
        Claiming never inspects the cell's payload: a completed cell
        can be claimed, which is harmless because re-running a
        deterministic cell rewrites identical bytes.
        """
        now = time.time()
        conn = self._ensure_leases()
        # One WAL transaction: the upsert's DO UPDATE only fires for a
        # re-entrant claim or an expired lease, so under SQLite's
        # single-writer lock exactly one racing worker sees a row
        # change — that worker holds the lease.
        with conn:
            cursor = conn.execute(
                "INSERT INTO leases (cell_id, owner, expires_at) "
                "VALUES (?, ?, ?) "
                "ON CONFLICT(cell_id) DO UPDATE SET "
                "  owner = excluded.owner, expires_at = excluded.expires_at "
                "WHERE leases.owner = excluded.owner "
                "   OR leases.expires_at <= ?",
                (cell, owner, now + ttl, now),
            )
        return cursor.rowcount > 0

    def renew_lease(self, cell: str, owner: str, ttl: float) -> bool:
        """Extend a held lease (heartbeat); ``False`` when it was lost.

        Only the current owner can renew.  A ``False`` return means the
        lease expired and was stolen (or released) — the worker keeps
        computing anyway (writes are idempotent) but must expect a peer
        to finish the cell first.
        """
        conn = self._ensure_leases()
        with conn:
            cursor = conn.execute(
                "UPDATE leases SET expires_at = ? "
                "WHERE cell_id = ? AND owner = ?",
                (time.time() + ttl, cell, owner),
            )
        return cursor.rowcount > 0

    def release_cell(self, cell: str, owner: Optional[str] = None) -> None:
        """Drop a lease.  With ``owner``, only that owner's lease.

        ``owner=None`` force-releases whatever lease exists (used by
        :meth:`reap_leases` to clear leases of dead workers).  Missing
        leases are ignored — release is idempotent.
        """
        conn = self._ensure_leases()
        with conn:
            if owner is None:
                conn.execute("DELETE FROM leases WHERE cell_id = ?", (cell,))
            else:
                conn.execute(
                    "DELETE FROM leases WHERE cell_id = ? AND owner = ?",
                    (cell, owner),
                )

    def release_leases(self, owner: str) -> None:
        """Drop every lease ``owner`` holds (a worker's exit path)."""
        conn = self._ensure_leases()
        with conn:
            conn.execute("DELETE FROM leases WHERE owner = ?", (owner,))

    def active_leases(self) -> Dict[str, Tuple[str, float]]:
        """Every recorded lease as ``{cell_id: (owner, expires_at)}``.

        Includes expired leases — expiry is a property the *reader*
        evaluates against its own clock, not a deletion event.
        """
        try:
            rows = self._execute(
                "SELECT cell_id, owner, expires_at FROM leases"
            ).fetchall()
        except sqlite3.OperationalError as error:
            if _is_missing_table(error):
                return {}
            raise SweepStoreError(
                f"corrupt sqlite store {self.path}: {error}"
            ) from error
        return {
            cell: (owner, float(expires_at))
            for cell, owner, expires_at in rows
        }

    def reap_leases(self, now: Optional[float] = None) -> List[str]:
        """Drop stale leases; returns the reaped cell ids (sorted).

        A lease is stale when its cell is already complete (the owner
        died between writing the payload and releasing) or when it has
        expired (the owner died mid-cell).  Workers call this when they
        finish a grid so a completed sweep's store carries no lease
        state at all.
        """
        clock = time.time() if now is None else now
        reaped = []
        for cell, (_owner, expires_at) in sorted(self.active_leases().items()):
            if expires_at <= clock:
                self.release_cell(cell)
                reaped.append(cell)
                continue
            payload, problem = self.load_cell(cell)
            if payload is not None and problem is None:
                self.release_cell(cell)
                reaped.append(cell)
        return reaped

    # -- SQL-side bulk load & aggregation ------------------------------
    def load_group(
        self, names: Sequence[str]
    ) -> Optional[Dict[str, Dict[str, object]]]:
        """All cells of a group, when every one is present and clean.

        ``None`` when any cell is missing or damaged — the caller then
        materializes the group and walks it cell by cell (which is
        where damaged cells get reported and re-run).  One indexed
        query for the whole group instead of N point reads.
        """
        names = list(names)
        if not names:
            return {}
        placeholders = ", ".join("?" for _ in names)
        try:
            rows = self._execute(
                "SELECT cell_id, payload FROM cells "
                f"WHERE cell_id IN ({placeholders})",
                names,
            ).fetchall()
        except sqlite3.OperationalError as error:
            if _is_missing_table(error):
                return None
            raise SweepStoreError(
                f"corrupt sqlite store {self.path}: {error}"
            ) from error
        found = dict(rows)
        values: Dict[str, Dict[str, object]] = {}
        for name in names:
            payload_text = found.get(name)
            if payload_text is None:
                return None
            payload, problem = self._decode(payload_text)
            if payload is None or problem is not None:
                return None
            values[name] = payload["values"]
        return values

    def _value_join(
        self,
        select: str,
        surface: Optional[str] = None,
        metric: Optional[str] = None,
        tail: str = "",
    ):
        clauses, params = [], []
        if surface is not None:
            clauses.append("c.surface = ?")
            params.append(surface)
        if metric is not None:
            clauses.append("v.metric = ?")
            params.append(metric)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        sql = (
            f"SELECT {select} FROM cells c "
            "JOIN cell_values v ON v.cell_id = c.cell_id"
            f"{where}{tail}"
        )
        try:
            return self._execute(sql, params).fetchall()
        except sqlite3.OperationalError as error:
            if _is_missing_table(error):
                return []
            raise SweepStoreError(
                f"corrupt sqlite store {self.path}: {error}"
            ) from error

    def query(
        self,
        surface: Optional[str] = None,
        metric: Optional[str] = None,
    ) -> List[ValueRow]:
        """The numeric value plane, ordered by (cell_id, metric).

        Damaged cells are excluded (they carry no trustworthy values).
        """
        rows = self._value_join(
            "c.cell_id, c.surface, c.group_json, c.cell_json, "
            "v.metric, v.value",
            surface=surface,
            metric=metric,
            tail=" ORDER BY c.cell_id, v.metric",
        )
        return [
            (
                name,
                row_surface,
                tuple(json.loads(group_json)),
                tuple(json.loads(cell_json)),
                found,
                float(value),
            )
            for name, row_surface, group_json, cell_json, found, value in rows
        ]

    def metric_summary(
        self, surface: Optional[str] = None
    ) -> List[Tuple[str, str, int, float, float, float]]:
        """Per (surface, metric): ``(count, min, max, mean)`` rows."""
        rows = self._value_join(
            "c.surface, v.metric, COUNT(*), MIN(v.value), MAX(v.value), "
            "AVG(v.value)",
            surface=surface,
            tail=" GROUP BY c.surface, v.metric"
            " ORDER BY c.surface, v.metric",
        )
        return [
            (s, m, int(count), float(lo), float(hi), float(mean))
            for s, m, count, lo, hi, mean in rows
        ]

    def best_cells(
        self, metric: str, mode: str = "max"
    ) -> List[Tuple[str, Tuple[str, ...], str, float]]:
        """Best-of-group for one metric: one winner per (surface, group).

        ``mode`` is ``"max"`` or ``"min"``; ties break on the smallest
        cell id.
        """
        _check_mode(mode)
        direction = "DESC" if mode == "max" else "ASC"
        try:
            rows = self._execute(
                "SELECT surface, group_json, cell_id, value FROM ("
                "  SELECT c.surface, c.group_json, c.cell_id, v.value,"
                "         ROW_NUMBER() OVER ("
                "             PARTITION BY c.surface, c.group_json"
                f"            ORDER BY v.value {direction}, c.cell_id ASC"
                "         ) AS pos"
                "  FROM cells c JOIN cell_values v ON v.cell_id = c.cell_id"
                "  WHERE v.metric = ?"
                ") WHERE pos = 1",
                (metric,),
            ).fetchall()
        except sqlite3.OperationalError as error:
            if _is_missing_table(error):
                return []
            raise SweepStoreError(
                f"corrupt sqlite store {self.path}: {error}"
            ) from error
        return sorted(
            (surface, tuple(json.loads(group_json)), name, float(value))
            for surface, group_json, name, value in rows
        )

    def rank_over_grid(
        self, metric: str, mode: str = "max"
    ) -> List[Tuple[int, str, str, float]]:
        """Every cell ranked over the whole grid for one metric.

        Competition ranking (ties share a rank, the next rank skips);
        rows ordered by (rank, cell_id).
        """
        _check_mode(mode)
        direction = "DESC" if mode == "max" else "ASC"
        rows = self._value_join(
            f"RANK() OVER (ORDER BY v.value {direction}), "
            "c.cell_id, c.surface, v.value",
            metric=metric,
        )
        return sorted(
            (int(rank), name, surface, float(value))
            for rank, name, surface, value in rows
        )


def open_store(
    store: Union[str, Path, SqliteStore], backend: Optional[str] = None
) -> SqliteStore:
    """Resolve a path (or pass through an open store) to a store.

    Every result store is a SQLite file, so ``backend`` may only be
    ``None`` or ``"sqlite"``.  A JSON store directory from an earlier
    version is converted with ``repro store import DIR STORE``.
    """
    if backend not in (None, "sqlite"):
        raise InvalidParameterError(
            f"unknown store backend {backend!r}: result stores are SQLite "
            "files; convert a JSON store directory with "
            "`repro store import DIR STORE`"
        )
    if isinstance(store, SqliteStore):
        return store
    return SqliteStore(store)
