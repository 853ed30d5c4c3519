"""The sweep result store: one SQLite file per store.

* :class:`SqliteStore` (:mod:`repro.engine.store.sqlite_store`) — a
  single WAL-mode database file with the numeric values exploded into
  an indexed columnar table, the query/aggregation layer in SQL, and
  the claim/lease layer of multi-worker sweeps;
* :mod:`repro.engine.store.base` — the cell payload contract and the
  Python reference reads the SQL is tested against;
* :func:`export_store` / :func:`import_store`
  (:mod:`repro.engine.store.transfer`) — the JSON directory exchange
  format (``manifest.json`` plus ``cells/<cell_id>.json``), with
  cell-for-cell verification, and :func:`diff_stores`.
"""

from __future__ import annotations

from repro.engine.store.base import (
    SWEEP_SCHEMA_VERSION,
    atomic_write,
    build_payload,
    canonical_dumps,
    cell_id,
    seed_fingerprint,
    validate_payload,
)
from repro.engine.store.sqlite_store import SqliteStore, open_store
from repro.engine.store.transfer import diff_stores, export_store, import_store

__all__ = [
    "SWEEP_SCHEMA_VERSION",
    "SqliteStore",
    "atomic_write",
    "build_payload",
    "canonical_dumps",
    "cell_id",
    "diff_stores",
    "export_store",
    "import_store",
    "open_store",
    "seed_fingerprint",
    "validate_payload",
]
