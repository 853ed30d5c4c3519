"""Paper-grid sweep orchestrator: one walker for every paper artifact.

The paper's headline artifacts (Tables 2-3, Figures 4-5) are a *grid*
of run-sets — datasets x algorithms x parameters — and every cell that
shares a dataset also shares that dataset's off-line work: the stacked
moment matrices, the compiled sampling plan, and the pairwise ``ÊD``
matrix cached on the dataset.  This module walks the grid as one
explicit schedule of dataset groups, so that

* each dataset is materialized **once** and every cell that needs it
  reads the same object (hence the same moment matrices, the same
  cached :meth:`~repro.objects.dataset.UncertainDataset.pairwise_ed`
  matrix and the same compiled sampling plan);
* with ``n_jobs > 1``, run-sets that execute on the process pool
  publish each dataset's stable arrays to shared memory **once** for
  all of its cells (:func:`repro.engine.backends.shared_block_registry`),
  instead of once per run-set;
* with a result store, every cell's values land in it together with a
  fingerprint of the seed stream that produced them.

Each surface spec (:class:`Table2Spec` ... :class:`Figure5Spec`,
defined next to their executors in :mod:`repro.experiments`) names the
steps of its grid and one walker runs any of them.  The direct runners
``run_table2`` ... ``run_figure5`` *are* that walker with no result
store.  On ``resume``, completed cells are skipped but their seed
consumption is *replayed* (the spec's ``skip``), so every pending cell
still sees the streams an uninterrupted run would have produced — the
resumed store is byte-identical to an uninterrupted one for the
deterministic surfaces (Tables 2-3; the Figure cells store measured
wall-clock runtimes).

Result store
------------
Cells persist in the result store (:mod:`repro.engine.store`): one
WAL-mode SQLite file with the values exploded into an indexed columnar
table.  A cell payload is ``{"schema": ..., "surface": ...,
"group": [...], "cell": [...], "seed_state": "<sha1>",
"status": "done", "values": {...}}``, stored as canonical JSON text.
Corrupted or partial cells (a killed run can only ever leave an aborted
transaction behind — each cell write is one transaction — but manual
editing happens) are detected, reported in
:attr:`SweepOutcome.invalid`, and re-run.

Multi-worker execution
----------------------
:func:`run_sweep_worker` executes the same schedule as a claim-based
*worker*: pending cells are leased on the store before running
(:meth:`~repro.engine.store.SqliteStore.claim_cell`), leases are
heartbeated while a cell computes, foreign-leased cells are deferred
with their seed consumption replayed, and the walk repeats until the
grid is fully resolved — reclaiming expired leases of dead workers on
the way.  :func:`run_sweep_workers` drives N such workers as local
processes plus a final collection pass.  Because every cell is
deterministic given the grid (the fingerprint replay above), N workers
produce a store *identical* to one worker's: same cells, same bytes.
"""

from __future__ import annotations

import hashlib
import os
import socket
import threading
import time
import uuid
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.engine.backends import shared_block_registry
from repro.engine.store import (
    SWEEP_SCHEMA_VERSION,
    SqliteStore,
    cell_id,
    open_store,
)
from repro.engine.store import seed_fingerprint as _seed_fingerprint
from repro.exceptions import InvalidParameterError, SweepStoreError
from repro.experiments.config import ExperimentConfig, SurfaceSpec
from repro.experiments.figure4 import Figure4Spec
from repro.experiments.figure5 import Figure5Spec
from repro.experiments.table2 import Table2Spec
from repro.experiments.table3 import Table3Spec

#: Execution order of the surfaces (each derives its streams from its
#: own ``config.seed``, so the order never affects any cell's seeds).
SWEEP_SURFACES = ("table2", "table3", "figure4", "figure5")

#: Default lease duration for multi-worker execution.  A worker
#: heartbeats at a third of this, so a lease only expires when its
#: worker has been dead (or wedged) for most of the ttl.
DEFAULT_LEASE_TTL = 30.0

#: Smallest accepted lease ttl.  The heartbeat interval is
#: ``max(ttl / 3, 0.05)`` seconds — below ``3 * 0.05`` the clamped
#: interval no longer fits three beats inside one ttl, so a healthy
#: worker's lease can expire between its own renewals and peers would
#: "reclaim" cells that are actively running.  Rejected eagerly at
#: claimer construction and at the CLI (``--lease-ttl``).
MIN_LEASE_TTL = 0.15



# ----------------------------------------------------------------------
# Grid specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepGrid:
    """Which surfaces a sweep covers, each with its own spec.

    A ``None`` surface is excluded.  :func:`paper_grid` builds the full
    default grid (every surface at its runner-default shape).
    """

    table2: Optional[Table2Spec] = None
    table3: Optional[Table3Spec] = None
    figure4: Optional[Figure4Spec] = None
    figure5: Optional[Figure5Spec] = None

    def __post_init__(self) -> None:
        if not any(
            (self.table2, self.table3, self.figure4, self.figure5)
        ):
            raise InvalidParameterError(
                "a SweepGrid needs at least one surface spec"
            )

    def describe(self) -> Dict[str, object]:
        """Deterministic JSON-ready description (the manifest body)."""
        surfaces: Dict[str, object] = {}
        for name in SWEEP_SURFACES:
            spec = getattr(self, name)
            if spec is not None:
                surfaces[name] = spec.describe()
        return {"schema": SWEEP_SCHEMA_VERSION, "surfaces": surfaces}


def paper_grid(
    table2_config: Optional[ExperimentConfig] = None,
    table3_config: Optional[ExperimentConfig] = None,
    figure4_config: Optional[ExperimentConfig] = None,
    figure5_config: Optional[ExperimentConfig] = None,
    figure5_base_size: int = 20000,
) -> SweepGrid:
    """The full paper grid, one spec per surface.

    A ``None`` config takes the spec's default, which is also its
    runner's default (Table 3 and Figure 4 scale-capped for laptop
    runtimes).
    """
    return SweepGrid(
        table2=Table2Spec(config=table2_config),
        table3=Table3Spec(config=table3_config),
        figure4=Figure4Spec(config=figure4_config),
        figure5=Figure5Spec(config=figure5_config, base_size=figure5_base_size),
    )


# ----------------------------------------------------------------------
# Outcome
# ----------------------------------------------------------------------
@dataclass
class SweepOutcome:
    """What one :func:`run_sweep` invocation did, plus the reports."""

    grid: SweepGrid
    #: ``None`` for a walk without a result store (the direct runners).
    store_root: Optional[Path]
    executed: List[str] = field(default_factory=list)
    reused: List[str] = field(default_factory=list)
    invalid: List[str] = field(default_factory=list)
    #: Cells skipped because another worker held their lease (only ever
    #: non-empty on intermediate worker passes; a returned outcome has
    #: absorbed every deferred cell via a later pass).
    deferred: List[str] = field(default_factory=list)
    #: Grid walks a worker needed before every cell was accounted for.
    passes: int = 1
    table2: Optional[object] = None  # Table2Report
    table3: Optional[object] = None  # Table3Report
    figure4: Optional[object] = None  # Figure4Report
    figure5: Optional[object] = None  # Figure5Report

    def artifacts(self):
        """The four reports as a :class:`PaperArtifacts` bundle."""
        from repro.experiments.reporting import PaperArtifacts

        missing = [
            name
            for name in SWEEP_SURFACES
            if getattr(self, name) is None
        ]
        if missing:
            raise InvalidParameterError(
                "artifacts() needs every surface in the grid; missing: "
                + ", ".join(missing)
            )
        return PaperArtifacts(
            table2=self.table2,
            table3=self.table3,
            figure4=self.figure4,
            figure5=self.figure5,
        )

    def summary(self) -> str:
        parts = [
            f"{len(self.executed)} cells run",
            f"{len(self.reused)} reused",
        ]
        if self.invalid:
            parts.append(f"{len(self.invalid)} damaged cells re-run")
        if self.passes > 1:
            parts.append(f"{self.passes} passes")
        return ", ".join(parts)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
Progress = Optional[Callable[[str], None]]


def _group_scope(config: ExperimentConfig):
    """Shared-memory publication scope for one dataset.

    With ``n_jobs > 1``, every run-set inside the scope that executes on
    the process pool publishes the dataset's stable arrays (moment
    matrices, ``ÊD`` matrix) once via :func:`shared_block_registry`;
    serial runs share the address space anyway, so no scope is needed.
    """
    if config.n_jobs > 1:
        return shared_block_registry()
    return nullcontext()


def _default_worker_id() -> str:
    """A globally unique lease owner id for one worker process.

    ``host:pid:uuid4-prefix`` — the host/pid prefix makes ids human-
    attributable in logs, and the 8-hex (32-bit) uuid4 suffix
    disambiguates workers that *share* a host and pid (sequential
    reuse after process exit, or several claimers in one process).
    Collision behavior: two workers would need the same host, the same
    pid *and* the same 32-bit suffix (probability 2**-32 per such
    pair); the failure mode is benign for correctness — a same-id pair
    can renew/release each other's leases, so a cell could run twice,
    but cell writes are deterministic and idempotent (both writers
    produce the same bytes).  Uniqueness of the generator is pinned in
    ``tests/test_sweep.py``.
    """
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


class _LeaseClaimer:
    """Claim/heartbeat/release plumbing for one sweep worker.

    Claims and releases go through a dedicated store handle (not the
    sweep's own, so lease traffic never interleaves with a payload
    transaction), and the heartbeat thread opens its *own* handle per
    leased cell — a ``sqlite3.Connection`` is single-thread by default
    and there is no reason to weaken that.
    """

    def __init__(self, store: SqliteStore, owner: str, ttl: float, log):
        if float(ttl) < MIN_LEASE_TTL:
            raise InvalidParameterError(
                f"lease ttl ({ttl}) must be >= {MIN_LEASE_TTL}s: the "
                "heartbeat interval clamps at 0.05s, and a ttl below "
                "three beats lets a healthy worker's lease expire "
                "between its own renewals"
            )
        self.owner = owner
        self.ttl = float(ttl)
        self.log = log
        self.store_path = store.path
        self.lease_store = SqliteStore(store.path)
        #: Whether a claim was ever attempted: only then does close()
        #: touch the lease table, so a store refused up front keeps its
        #: own error.
        self.claimed = False
        # Deterministic per-owner rotation offset for order_groups.
        self.offset = int(hashlib.sha1(owner.encode()).hexdigest()[:8], 16)

    def close(self) -> None:
        """Drop every lease this worker still holds, then the handle.

        An interrupt can land anywhere between a claim and its release
        (inside the claim, the cell body or the payload write), so the
        exit path clears them all and a restarted worker need not wait
        out the ttl.
        """
        try:
            if self.claimed:
                self.lease_store.release_leases(self.owner)
        finally:
            self.lease_store.close()

    def claim(self, name: str) -> bool:
        self.claimed = True
        return self.lease_store.claim_cell(name, self.owner, self.ttl)

    def release(self, name: str) -> None:
        self.lease_store.release_cell(name, self.owner)

    @contextmanager
    def heartbeat(self, name: str):
        """Renew the lease on ``name`` every ttl/3 while the body runs.

        Losing the lease (stolen after a stall) is logged but does not
        abort the computation: the cell is deterministic, so finishing
        and writing anyway is harmless — both writers produce the same
        bytes.  When the body raises, :meth:`close` drops the lease on
        the worker's way out.
        """
        stop = threading.Event()
        interval = max(self.ttl / 3.0, 0.05)

        def beat() -> None:
            beat_store = SqliteStore(self.store_path)
            try:
                while not stop.wait(interval):
                    try:
                        if not beat_store.renew_lease(
                            name, self.owner, self.ttl
                        ):
                            self.log(
                                f"lease lost for {name}; finishing anyway "
                                "(cell writes are idempotent)"
                            )
                            return
                    except SweepStoreError:
                        continue  # transient substrate hiccup; keep trying
            finally:
                beat_store.close()

        thread = threading.Thread(
            target=beat, name="sweep-lease-heartbeat", daemon=True
        )
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join(timeout=max(1.0, interval * 2))


class _CellLedger:
    """Per-walk bookkeeping: the store (if any), the outcome, the log.

    Without a store nothing is reused or persisted and every cell runs
    — the direct runners' walk.  With a ``claimer`` the ledger runs in
    multi-worker mode: a cell is only executed after its lease is
    claimed, foreign-leased cells are *deferred* (their seed
    consumption is still replayed, so the walk stays on the exact
    single-worker streams), and executed cells heartbeat their lease
    while running.
    """

    def __init__(
        self,
        store: Optional[SqliteStore],
        outcome: SweepOutcome,
        log,
        claimer: Optional[_LeaseClaimer] = None,
    ):
        self.store = store
        self.outcome = outcome
        self.log = log
        self.claimer = claimer

    def order_groups(self, groups: List) -> List:
        """Iteration order of a surface's dataset groups.

        Single-worker sweeps keep the natural order.  Workers rotate
        the list by an owner-derived offset so concurrent workers start
        in different groups; correctness never depends on this (group
        seed streams are independent and every group is still walked),
        it only reduces duplicate dataset materialization and claim
        contention.
        """
        if self.claimer is None or len(groups) < 2:
            return groups
        shift = self.claimer.offset % len(groups)
        return groups[shift:] + groups[:shift]

    def begin_cell(self, name: str) -> bool:
        """Whether this worker should run the cell (claims its lease)."""
        if self.claimer is None:
            return True
        if self.claimer.claim(name):
            return True
        self.outcome.deferred.append(name)
        self.log(f"deferred (leased by another worker): {name}")
        return False

    def running_cell(self, name: str):
        """Context holding the cell's lease alive while it computes."""
        if self.claimer is None:
            return nullcontext()
        return self.claimer.heartbeat(name)

    def finish_cell(
        self, surface: str, where, what, fingerprint: str, values, name: str
    ) -> None:
        """Store a computed cell, then release its lease and log it."""
        if self.store is not None:
            self.store.write_cell(surface, where, what, fingerprint, values)
        if self.claimer is not None:
            self.claimer.release(name)
        self.outcome.executed.append(name)
        self.log("/".join((surface, *where, *what)) + ": done")

    def reuse_whole_group(
        self, names: List[str]
    ) -> Optional[Dict[str, Dict[str, object]]]:
        """All cells of a group, when every one is present and clean.

        ``None`` when any cell is missing or damaged — the caller then
        materializes the group and walks it cell by cell (which is
        where damaged cells get reported and re-run).  Group streams
        are independent, so a fully-cached group can skip even its
        dataset generation.  The read is one bulk
        :meth:`~repro.engine.store.SqliteStore.load_group` call, one
        indexed query.
        """
        if self.store is None:
            return None
        values = self.store.load_group(names)
        if values is None:
            return None
        self.outcome.reused.extend(names)
        return values

    def cached_values(
        self, name: str, fingerprint: str
    ) -> Optional[Dict[str, object]]:
        """The stored values of one cell, iff reusable at this point.

        Damaged cells and fingerprint mismatches (a schedule that
        reaches the cell with a different stream state) are recorded in
        ``outcome.invalid`` and answered with ``None`` — the cell then
        re-runs and is rewritten.
        """
        if self.store is None:
            return None
        payload, problem = self.store.load_cell(name)
        if problem is not None:
            self.outcome.invalid.append(name)
            self.log(f"damaged cell ({problem}): {name} — re-running")
            return None
        if payload is None:
            return None
        if payload["seed_state"] != fingerprint:
            self.outcome.invalid.append(name)
            self.log(f"stale seed fingerprint: {name} — re-running")
            return None
        self.outcome.reused.append(name)
        return payload["values"]


def _walk(surface: str, spec: SurfaceSpec, ledger: _CellLedger):
    """Walk one surface's grid and return its report.

    The one loop behind every paper artifact.  A group whose cells are
    all stored is answered from the store without materializing its
    dataset.  Otherwise the group is prepared once and each cell, in
    order, is reused, deferred to the worker holding its lease, or run
    and written; reused and deferred cells replay their seed
    consumption (``spec.skip``), so every later cell sees the stream an
    uninterrupted walk would have produced.  That stream's fingerprint
    before each cell is what makes a reused cell safe.  Cells on one
    dataset (the same group parts of their id) share one shared-memory
    scope.
    """
    report = spec.report()
    for group in ledger.order_groups(spec.groups()):
        cells = [
            (key, where, what, cell_id(surface, where, what))
            for key, where, what in spec.cells(group)
        ]
        cached = ledger.reuse_whole_group([cell[-1] for cell in cells])
        if cached is not None:
            for key, _, _, name in cells:
                spec.record(report, key, cached[name])
            label, _ = group
            ledger.log("/".join((surface, *label)) + ": reused all cells")
            continue
        state, rng = spec.prepare(group)
        for where, dataset_cells in groupby(cells, key=itemgetter(1)):
            with _group_scope(spec.config):
                for key, _, what, name in dataset_cells:
                    fingerprint = _seed_fingerprint(rng)
                    values = ledger.cached_values(name, fingerprint)
                    if values is None and ledger.begin_cell(name):
                        with ledger.running_cell(name):
                            values = spec.run(state, rng, key)
                        ledger.finish_cell(
                            surface, where, what, fingerprint, values, name
                        )
                    else:
                        spec.skip(state, rng, key)
                    if values is not None:
                        spec.record(report, key, values)
    return report


@contextmanager
def _opened(store: Union[str, Path, SqliteStore], backend: Optional[str] = None):
    """``store`` as an open result store, closed on exit unless the
    caller passed an already-open one."""
    opened = open_store(store, backend=backend)
    try:
        yield opened
    finally:
        if not isinstance(store, SqliteStore):
            opened.close()


def _walk_grid(
    grid: SweepGrid,
    store: Optional[SqliteStore],
    log,
    claimer: Optional[_LeaseClaimer] = None,
) -> SweepOutcome:
    """Walk every surface of ``grid`` in :data:`SWEEP_SURFACES` order."""
    outcome = SweepOutcome(
        grid=grid, store_root=None if store is None else store.path
    )
    ledger = _CellLedger(store, outcome, log, claimer)
    for name in SWEEP_SURFACES:
        spec = getattr(grid, name)
        if spec is not None:
            setattr(outcome, name, _walk(name, spec, ledger))
    return outcome


def run_sweep(
    grid: SweepGrid,
    store: Union[str, Path, SqliteStore, None] = None,
    resume: bool = False,
    progress: Progress = None,
    store_backend: Optional[str] = None,
) -> SweepOutcome:
    """Execute (or resume) one paper-grid sweep.

    Parameters
    ----------
    grid:
        The surfaces to run; see :class:`SweepGrid` / :func:`paper_grid`.
    store:
        Result-store path, a SQLite file (or an already-open
        :class:`~repro.engine.store.SqliteStore`).  Created when new;
        an existing store must carry the same grid manifest (anything
        else raises :class:`~repro.exceptions.SweepStoreError`).
        ``None`` runs every cell with no persistence — this is how
        ``run_table2`` ... ``run_figure5`` run.
    resume:
        Reuse completed cells from the store, replaying their seed
        consumption so pending cells get bit-identical streams.
        Without ``resume``, a store that already holds cells is
        refused.
    progress:
        Optional ``callable(str)`` receiving one line per cell/group
        event (the CLI passes ``print``).
    store_backend:
        ``None`` or ``"sqlite"`` (the only store there is); anything
        else raises :class:`~repro.exceptions.InvalidParameterError`.

    Returns
    -------
    SweepOutcome
        Executed/reused/invalid cell ids plus one report per surface —
        the same report with a store or without one.
    """
    log = progress or (lambda _msg: None)
    if store is None:
        return _walk_grid(grid, None, log)
    with _opened(store, store_backend) as sweep_store:
        sweep_store.prepare(grid.describe(), resume)
        return _walk_grid(grid, sweep_store, log)


def _prepare_shared(
    sweep_store: SqliteStore,
    grid: SweepGrid,
    attempts: int = 5,
    delay: float = 0.2,
) -> None:
    """Prepare a store that several workers may be creating at once.

    Workers always prepare with resume semantics (an existing store
    holding a peer's cells is the normal case).  Creation itself races:
    a new SQLite file is already 4096 bytes before its schema commits,
    so a second worker can observe the store half-born for a moment,
    which ``prepare`` reports as a refusal — so a refusal is retried a
    few times before it is believed.  Genuine refusals (different grid)
    still raise, just a second late.
    """
    description = grid.describe()
    for attempt in range(attempts):
        try:
            sweep_store.prepare(description, resume=True)
            return
        except SweepStoreError:
            if attempt == attempts - 1:
                raise
            time.sleep(delay)


def run_sweep_worker(
    grid: SweepGrid,
    store: Union[str, Path, SqliteStore],
    worker_id: Optional[str] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll_interval: float = 0.5,
    progress: Progress = None,
    max_passes: int = 0,
) -> SweepOutcome:
    """Join a (possibly shared) result store as one claim-based worker.

    The worker walks the grid exactly like :func:`run_sweep` with
    ``resume=True`` — same schedule, same seed streams — but before
    executing a pending cell it *claims* the cell's lease on the store.
    A cell leased to another worker is skipped for now (its seed
    consumption is replayed, so every later cell still sees the exact
    single-worker streams) and the walk repeats until no cell is left
    deferred; each repeat reuses everything that landed in the
    meantime, reclaims expired leases of dead workers, and waits
    ``poll_interval`` seconds between passes while peers compute.  The
    returned outcome's reports come from the final, fully-resolved
    pass, so they are identical to a single-worker sweep's.

    ``max_passes`` bounds the number of walks (0 = unbounded) and
    raises :class:`~repro.exceptions.SweepStoreError` when exceeded —
    a safety valve for tests; production workers wait out live peers.
    """
    log = progress or (lambda _msg: None)
    owner = worker_id or _default_worker_id()
    with _opened(store) as sweep_store:
        claimer = _LeaseClaimer(sweep_store, owner, lease_ttl, log)
        try:
            _prepare_shared(sweep_store, grid)
            executed: List[str] = []
            passes = 0
            while True:
                passes += 1
                outcome = _walk_grid(grid, sweep_store, log, claimer)
                executed.extend(outcome.executed)
                if not outcome.deferred:
                    outcome.executed = executed
                    outcome.passes = passes
                    sweep_store.reap_leases()
                    return outcome
                if max_passes and passes >= max_passes:
                    raise SweepStoreError(
                        f"worker {owner} gave up after {passes} passes "
                        f"with {len(outcome.deferred)} cells still leased "
                        "elsewhere"
                    )
                log(
                    f"worker {owner}: pass {passes} left "
                    f"{len(outcome.deferred)} cells leased to other "
                    "workers; waiting"
                )
                time.sleep(poll_interval)
        finally:
            claimer.close()


def _worker_main(
    grid: SweepGrid,
    store_path: str,
    worker_id: str,
    lease_ttl: float,
    poll_interval: float,
) -> None:
    """Child-process entry point of :func:`run_sweep_workers`."""
    run_sweep_worker(
        grid,
        store_path,
        worker_id=worker_id,
        lease_ttl=lease_ttl,
        poll_interval=poll_interval,
    )


def run_sweep_workers(
    grid: SweepGrid,
    store: Union[str, Path, SqliteStore],
    workers: int = 2,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll_interval: float = 0.5,
    progress: Progress = None,
) -> SweepOutcome:
    """Execute one grid with ``workers`` claim-based worker processes.

    Spawns ``workers`` child processes (``spawn`` start method — no
    inherited store handles), each running :func:`run_sweep_worker`
    against the same store, then runs a final in-process collection
    pass that assembles the reports (pure reuse when the children
    covered the grid; it also finishes any cells a dead child left
    behind, so a crashed worker degrades throughput, never the result).
    The final store is identical to a single-worker run's: every cell
    is produced by the same executors from the same seed streams, and
    lease bookkeeping is reaped on completion.
    """
    if workers < 1:
        raise InvalidParameterError(
            f"workers must be >= 1, got {workers}"
        )
    import multiprocessing

    log = progress or (lambda _msg: None)
    store_path = store.path if isinstance(store, SqliteStore) else Path(store)
    context = multiprocessing.get_context("spawn")
    run_tag = uuid.uuid4().hex[:6]
    processes = []
    for index in range(workers):
        process = context.Process(
            target=_worker_main,
            args=(
                grid,
                str(store_path),
                f"{socket.gethostname()}:w{index}:{run_tag}",
                lease_ttl,
                poll_interval,
            ),
        )
        process.start()
        processes.append(process)
        log(f"started sweep worker {index} (pid {process.pid})")
    for process in processes:
        process.join()
    failed = sum(1 for process in processes if process.exitcode != 0)
    if failed:
        log(f"{failed} worker(s) exited abnormally; collection pass "
            "will finish their cells")
    return run_sweep_worker(
        grid,
        store,
        worker_id=f"{socket.gethostname()}:collector:{run_tag}",
        lease_ttl=lease_ttl,
        poll_interval=poll_interval,
        progress=progress,
    )
