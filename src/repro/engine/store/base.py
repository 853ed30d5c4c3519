"""The cell payload contract and the reference query reads.

The sweep orchestrator (:mod:`repro.engine.sweep`) treats its result
store as a key-value map of *cells* — one payload per grid cell,
carrying the cell's values plus a fingerprint of the seed stream that
produced them — under a *manifest* that pins the exact grid.  This
module holds what every copy of a cell agrees on: the payload shape
(:func:`build_payload`, :func:`validate_payload`), its canonical JSON
text (:func:`canonical_dumps`, stored verbatim in the SQLite store and
written verbatim by a JSON export), the cell id (:func:`cell_id`), and
what of a manifest identifies the grid (:func:`grid_identity`).

Reference reads
---------------
:func:`query`, :func:`metric_summary`, :func:`best_cells` and
:func:`rank_over_grid` compute the report aggregations in plain Python
over a cell walk (``SqliteStore.iter_cells()``).  The store answers the
same questions with indexed SQL (``GROUP BY``, window functions); these
functions are the definition the SQL is tested against
(``tests/test_store.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError

#: Bumped whenever the store layout or a cell payload's meaning changes.
#: Version 2: collision-proof cell ids (content hash suffix) and the
#: pluggable-backend store layout.
SWEEP_SCHEMA_VERSION = 2

#: The execution settings every surface config in a manifest records,
#: at the values the default settings always recorded.  How restarts
#: are scheduled never changes a cell, so these keys are no part of a
#: grid's identity: stores written with any execution flags resume.
RECORDED_EXECUTION = {"backend": "serial", "batch_size": 1, "n_jobs": 1}


# ----------------------------------------------------------------------
# Shared payload/identity helpers
# ----------------------------------------------------------------------
def canonical_dumps(payload: Dict[str, object]) -> str:
    """Canonical JSON: sorted keys, stable indentation, no timestamps.

    Determinism is a feature — a resumed store must be byte-identical
    to an uninterrupted one wherever the values themselves are
    deterministic, and an exported cell must round-trip byte-for-byte.
    """
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fsync_directory(path: Path) -> None:
    """Flush a directory's entry table to disk (best effort).

    ``os.replace`` makes the rename atomic with respect to crashes of
    the *process*, but only an fsync of the parent directory makes the
    new entry durable across power loss.  Platforms that cannot open a
    directory (Windows) simply skip it.
    """
    try:
        dir_fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def atomic_write(path: Path, text: str) -> None:
    """Durably replace ``path`` with ``text`` (write-fsync-rename-fsync).

    The tmp file is fsynced before the rename — otherwise a power loss
    shortly after ``os.replace`` can leave a *truncated* file under the
    final name, indistinguishable from a completed write — and the
    parent directory is fsynced after it so the rename itself is
    durable.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(path.parent)


def _slug(part: object) -> str:
    return re.sub(r"[^A-Za-z0-9.+-]+", "-", str(part))


def cell_id(
    surface: str, group: Sequence[object], cell: Sequence[object]
) -> str:
    """Stable, collision-proof id of one grid cell.

    The readable prefix is a slug of the parts; slugs are lossy
    (``a_b`` and ``a-b`` both slug to ``a-b``, and the ``__`` joiner
    can itself appear inside a part), so a short content hash of the
    *raw* parts — joined on an unprintable separator so no part
    boundary is ambiguous, with the group length folded in so the
    group/cell split is unambiguous too — is appended to make distinct
    (surface, group, cell) triples map to distinct ids.
    """
    parts = tuple(str(part) for part in (surface, *group, *cell))
    key = "\x1f".join((str(len(group)), *parts))
    digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:10]
    return "__".join(_slug(part) for part in parts) + "--" + digest


def grid_identity(manifest: object) -> object:
    """``manifest`` with its execution keys at :data:`RECORDED_EXECUTION`.

    Two manifests describe the same grid exactly when their grid
    identities are equal.  A manifest that is not a sweep description
    is returned as it is.
    """
    if not isinstance(manifest, dict) or not isinstance(
        manifest.get("surfaces"), dict
    ):
        return manifest
    surfaces = {}
    for name, spec in manifest["surfaces"].items():
        if isinstance(spec, dict) and isinstance(spec.get("config"), dict):
            spec = {**spec, "config": {**spec["config"], **RECORDED_EXECUTION}}
        surfaces[name] = spec
    return {**manifest, "surfaces": surfaces}


def seed_fingerprint(rng: np.random.Generator) -> str:
    """Digest of a generator's exact state (non-consuming).

    Stored with every cell and re-derived on resume: a completed cell is
    only skipped when the replayed schedule reaches it with the *same*
    stream state, which is what makes the skip bit-identical.
    """
    state = json.dumps(rng.bit_generator.state, sort_keys=True, default=int)
    return hashlib.sha1(state.encode()).hexdigest()


def build_payload(
    surface: str,
    group: Sequence[object],
    cell: Sequence[object],
    seed_state: str,
    values: Dict[str, object],
) -> Dict[str, object]:
    """The payload of one completed cell."""
    return {
        "schema": SWEEP_SCHEMA_VERSION,
        "surface": surface,
        "group": [str(part) for part in group],
        "cell": [str(part) for part in cell],
        "seed_state": seed_state,
        "status": "done",
        "values": values,
    }


def validate_payload(payload: object) -> Optional[str]:
    """``None`` when the payload is a complete cell, a problem otherwise."""
    if (
        not isinstance(payload, dict)
        or payload.get("schema") != SWEEP_SCHEMA_VERSION
        or payload.get("status") != "done"
        or not isinstance(payload.get("values"), dict)
        or not isinstance(payload.get("seed_state"), str)
        or not isinstance(payload.get("surface"), str)
        or not isinstance(payload.get("group"), list)
        or not isinstance(payload.get("cell"), list)
    ):
        return "incomplete"
    return None


def _numeric_items(values: Dict[str, object]) -> List[Tuple[str, float]]:
    """The queryable (metric, value) projection of a values dict.

    Only real numbers land in the value plane (SQLite's ``cell_values``
    table); non-numeric values stay payload-only.
    """
    rows = []
    for metric in sorted(values):
        value = values[metric]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        rows.append((metric, float(value)))
    return rows


#: One value-plane row: (cell_id, surface, group, cell, metric, value).
ValueRow = Tuple[str, str, Tuple[str, ...], Tuple[str, ...], str, float]

#: One stored cell as a walk yields it: (cell_id, payload, problem);
#: damaged cells carry ``payload=None`` and a problem string.
CellRow = Tuple[str, Optional[Dict[str, object]], Optional[str]]


# ----------------------------------------------------------------------
# Reference reads (the definition the store's SQL is tested against)
# ----------------------------------------------------------------------
def query(
    cells: Iterable[CellRow],
    surface: Optional[str] = None,
    metric: Optional[str] = None,
) -> List[ValueRow]:
    """The numeric value plane, ordered by (cell_id, metric).

    Damaged cells are excluded (they carry no trustworthy values).
    """
    rows: List[ValueRow] = []
    for name, payload, problem in cells:
        if payload is None or problem is not None:
            continue
        if surface is not None and payload["surface"] != surface:
            continue
        group = tuple(payload["group"])
        cell = tuple(payload["cell"])
        for found, value in _numeric_items(payload["values"]):
            if metric is not None and found != metric:
                continue
            rows.append((name, payload["surface"], group, cell, found, value))
    return sorted(rows)


def metric_summary(
    cells: Iterable[CellRow], surface: Optional[str] = None
) -> List[Tuple[str, str, int, float, float, float]]:
    """Per (surface, metric): ``(count, min, max, mean)`` rows."""
    buckets: Dict[Tuple[str, str], List[float]] = {}
    for _name, row_surface, _g, _c, metric, value in query(
        cells, surface=surface
    ):
        buckets.setdefault((row_surface, metric), []).append(value)
    return [
        (s, m, len(vs), min(vs), max(vs), sum(vs) / len(vs))
        for (s, m), vs in sorted(buckets.items())
    ]


def best_cells(
    cells: Iterable[CellRow], metric: str, mode: str = "max"
) -> List[Tuple[str, Tuple[str, ...], str, float]]:
    """Best-of-group for one metric: one winner per (surface, group).

    ``mode`` is ``"max"`` or ``"min"``; ties break on the smallest
    cell id.
    """
    _check_mode(mode)
    best: Dict[Tuple[str, Tuple[str, ...]], Tuple[float, str]] = {}
    for name, surface, group, _cell, _m, value in query(cells, metric=metric):
        key = (surface, group)
        current = best.get(key)
        if current is None or _beats(value, name, current, mode):
            best[key] = (value, name)
    return [
        (surface, group, name, value)
        for (surface, group), (value, name) in sorted(best.items())
    ]


def rank_over_grid(
    cells: Iterable[CellRow], metric: str, mode: str = "max"
) -> List[Tuple[int, str, str, float]]:
    """Every cell ranked over the whole grid for one metric.

    Competition ranking (ties share a rank, the next rank skips),
    matching SQL's ``RANK() OVER (ORDER BY value)``; rows ordered by
    (rank, cell_id).
    """
    _check_mode(mode)
    rows = query(cells, metric=metric)
    ordered = sorted((row[5] for row in rows), reverse=(mode == "max"))
    ranks: Dict[float, int] = {}
    for index, value in enumerate(ordered):
        ranks.setdefault(value, index + 1)
    return sorted(
        (ranks[value], name, surface, value)
        for name, surface, _g, _c, _m, value in rows
    )


def _check_mode(mode: str) -> None:
    if mode not in ("max", "min"):
        raise InvalidParameterError(
            f"aggregation mode must be 'max' or 'min', got {mode!r}"
        )


def _beats(
    value: float, name: str, current: Tuple[float, str], mode: str
) -> bool:
    current_value, current_name = current
    if value == current_value:
        return name < current_name
    if mode == "max":
        return value > current_value
    return value < current_value
