"""Moving results in and out of a store: JSON export/import, and diff.

The JSON directory is the exchange format (and the layout result
stores used before they became one SQLite file)::

    <directory>/
      manifest.json           # canonical JSON of the grid description
      cells/
        <cell_id>.json        # canonical JSON of one cell payload

:func:`export_store` writes a store's manifest and cells there.  The
store keeps each cell's canonical JSON text verbatim, so an export is
byte-identical to the directory the JSON layout held for the same
sweep.  :func:`import_store` reads such a directory — an export, or a
store directory written by an earlier version — into a fresh store.

Both directions refuse a damaged source: a cell that does not parse, is
incomplete, or sits under an id its payload does not derive would
otherwise be dropped silently or copied as garbage.  Both verify the
copy cell for cell, and a copy that fails mid-way (or fails
verification) removes the partially written destination before
re-raising, so a retry does not find a half-populated store or
directory in its way.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.engine.store.base import (
    CellRow,
    atomic_write,
    canonical_dumps,
    cell_id,
    grid_identity,
    validate_payload,
)
from repro.engine.store.sqlite_store import SqliteStore, open_store
from repro.exceptions import SweepStoreError

MANIFEST = "manifest.json"

Store = Union[str, Path, SqliteStore]


def export_store(store: Store, directory: Union[str, Path]) -> List[str]:
    """Write a store as a JSON directory; returns the exported cell ids.

    ``directory`` must not exist yet (or be empty).  Raises
    :class:`~repro.exceptions.SweepStoreError` when the store has no
    manifest or holds damaged cells, when ``directory`` is in use, or
    when reading the export back finds any divergence.
    """
    directory = Path(directory)
    source = open_store(store)
    try:
        manifest = source.read_manifest()
        if manifest is None:
            raise SweepStoreError(
                f"{source.path} has no sweep manifest; nothing to export"
            )
        payloads = _clean(
            source.iter_cells(),
            source.path,
            "re-run them first (repro sweep --resume)",
        )
    finally:
        source.close()
    if directory.exists() and (
        not directory.is_dir() or any(directory.iterdir())
    ):
        raise SweepStoreError(
            f"{directory} exists and is not an empty directory; "
            "export into a fresh path"
        )
    try:
        (directory / "cells").mkdir(parents=True, exist_ok=True)
        atomic_write(directory / MANIFEST, canonical_dumps(manifest))
        for name, payload in payloads:
            atomic_write(
                directory / "cells" / f"{name}.json", canonical_dumps(payload)
            )
        _verify(directory, manifest, payloads, *_read_directory(directory))
    except BaseException as error:
        _discard(directory)
        if isinstance(error, OSError):
            raise SweepStoreError(
                f"cannot export to {directory}: {error}"
            ) from error
        raise
    return [name for name, _payload in payloads]


def import_store(directory: Union[str, Path], store: Store) -> List[str]:
    """Load a JSON directory into a fresh store; returns the cell ids.

    Raises :class:`~repro.exceptions.SweepStoreError` when the
    directory has no manifest or holds damaged cells, when the store
    already holds results (or another grid), or when reading the copy
    back finds any divergence.
    """
    directory = Path(directory)
    manifest, rows = _read_directory(directory)
    payloads = _clean(
        rows,
        directory,
        "remove those cell files, import, then re-run them "
        "(repro sweep --resume)",
    )
    destination = open_store(store)
    try:
        destination.prepare(manifest, resume=False)
        try:
            for _name, payload in payloads:
                destination.write_payload(payload)
            _verify(
                destination.path,
                manifest,
                payloads,
                destination.read_manifest(),
                destination.iter_cells(),
            )
        except BaseException:
            # prepare() succeeded, so whatever sits under the path now
            # is a partial copy of our own making — leaving it behind
            # would make every retry refuse the path as a used store.
            destination.close()
            _discard(destination.path)
            raise
    finally:
        destination.close()
    return [name for name, _payload in payloads]


def diff_stores(left: Store, right: Store) -> List[str]:
    """Logical differences between two stores (empty list = identical).

    Compares the manifests' grid identities (execution settings never
    count) and every cell's payload.  Payloads are
    stored as canonical JSON text, so payload equality here *is* byte
    equality of the stored cell content.  Lease state is not compared.
    """
    a, b = open_store(left), open_store(right)
    differences: List[str] = []
    try:
        manifests = {}
        for side in (a, b):
            manifests[side] = side.read_manifest()
            if manifests[side] is None:
                raise SweepStoreError(
                    f"{side.path} has no sweep manifest; nothing to diff"
                )
        if grid_identity(manifests[a]) != grid_identity(manifests[b]):
            differences.append("manifest differs")
        cells_a = {name: (payload, problem) for name, payload, problem in a.iter_cells()}
        cells_b = {name: (payload, problem) for name, payload, problem in b.iter_cells()}
        for name in sorted(set(cells_a) - set(cells_b)):
            differences.append(f"cell only in {a.path}: {name}")
        for name in sorted(set(cells_b) - set(cells_a)):
            differences.append(f"cell only in {b.path}: {name}")
        for name in sorted(set(cells_a) & set(cells_b)):
            payload_a, problem_a = cells_a[name]
            payload_b, problem_b = cells_b[name]
            if problem_a is not None or problem_b is not None:
                differences.append(
                    f"damaged cell {name}: "
                    f"{problem_a or 'clean'} vs {problem_b or 'clean'}"
                )
            elif payload_a != payload_b:
                differences.append(f"payload differs: {name}")
    finally:
        a.close()
        b.close()
    return differences


def _read_directory(directory: Path) -> Tuple[Dict, List[CellRow]]:
    """The manifest and every cell file of a JSON directory.

    Cells come in cell-id order, like the store's own walk.
    """
    manifest_path = directory / MANIFEST
    if not manifest_path.is_file():
        raise SweepStoreError(
            f"{directory} has no sweep manifest; nothing to import"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except (ValueError, OSError) as error:
        raise SweepStoreError(
            f"unreadable sweep manifest {manifest_path}: {error}"
        ) from error
    cells_dir = directory / "cells"
    # Sort the *cell ids* (file stems), not the directory listing:
    # ``os.listdir`` order is filesystem-dependent, and sorting full
    # filenames diverges from id order when one id is a prefix of
    # another (ids may contain ``+``/``-``, which sort below the ``.``
    # of ``.json``).
    names = sorted(
        entry[: -len(".json")]
        for entry in (os.listdir(cells_dir) if cells_dir.is_dir() else ())
        if entry.endswith(".json")
    )
    rows: List[CellRow] = []
    for name in names:
        try:
            payload = json.loads((cells_dir / f"{name}.json").read_text())
        except (ValueError, OSError):
            rows.append((name, None, "unreadable"))
            continue
        problem = validate_payload(payload)
        rows.append((name, None if problem else payload, problem))
    return manifest, rows


def _clean(
    rows: Iterable[CellRow], source: Path, remedy: str
) -> List[Tuple[str, dict]]:
    """The source's payloads, refusing the copy when any cell is damaged."""
    payloads: List[Tuple[str, dict]] = []
    damaged: List[str] = []
    for name, payload, problem in rows:
        if payload is None or problem is not None:
            damaged.append(f"{name} ({problem or 'missing'})")
            continue
        derived = cell_id(payload["surface"], payload["group"], payload["cell"])
        if derived != name:
            damaged.append(f"{name} (stored under foreign id; is {derived})")
            continue
        payloads.append((name, payload))
    if damaged:
        raise SweepStoreError(
            f"refusing to copy {source}: damaged cells would be lost or "
            f"copied as garbage — {', '.join(damaged)}; {remedy}"
        )
    return payloads


def _verify(
    destination: Path,
    manifest: Dict,
    payloads: List[Tuple[str, dict]],
    copied_manifest: Optional[Dict],
    copied_rows: Iterable[CellRow],
) -> None:
    """The copy holds exactly the source's manifest and payloads."""
    expected = dict(payloads)
    copied = {name: payload for name, payload, _problem in copied_rows}
    mismatched = sorted(
        name for name in expected if copied.get(name) != expected[name]
    )
    extra = sorted(set(copied) - set(expected))
    if copied_manifest != manifest:
        mismatched.insert(0, MANIFEST)
    if mismatched or extra:
        raise SweepStoreError(
            f"copy verification failed for {destination}: "
            f"mismatched {', '.join(mismatched) or '-'}; "
            f"unexpected {', '.join(extra) or '-'}"
        )


def _discard(path: Path) -> None:
    """Best-effort removal of a destination this copy wrote."""
    try:
        if path.is_dir():
            shutil.rmtree(path)
        else:
            for suffix in ("", "-wal", "-shm"):
                Path(f"{path}{suffix}").unlink(missing_ok=True)
    except OSError:
        pass  # removal is a courtesy; the original error matters more
