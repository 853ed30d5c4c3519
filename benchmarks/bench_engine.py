"""The engine benchmark roster: measures, checks every floor, writes JSON.

Each measurement times its work, runs its identity check (the fast
path must give the reference path's results), and records the
timings; a measurement with a speed floor asserts it at full size.
The floors pin the claims the engine layer makes:

* :meth:`UncertainDataset.sample_tensor` beats the per-object sampling
  loop it replaced, drawing the same tensor — >= 5x at n=2000, S=64;
* the ported density clustering (batched sampling + blocked GEMM
  probability kernel) beats the pre-port per-object FDBSCAN, with the
  same labels — >= 3x at n=1000, S=64, m=16;
* the ``threads`` execution backend runs 16 moment-based restarts
  (UK-means, n=5000, m=16) >= 2x faster than ``serial``, with the same
  best restart — checked on >= 4 cores.  UCPC's relocation sweep is a
  sequential per-object Python loop, so threads cannot speed it up on
  CPython; it is measured alongside, with no floor;
* the pairwise-distance plane amortizes UK-medoids' off-line ``ÊD``
  matrix across an engine run-set (n=2000, n_init=8): >= 4x faster
  than the per-restart recompute it replaced, same best restart;
* the sweep orchestrator runs a small paper grid (2 microarray
  datasets x 3 algorithms x 2 cluster counts) >= 2x faster than the
  same cells run in isolation (each regenerating its dataset and
  rebuilding the moment/plan/``ÊD`` caches), with the same cell values;
* two claim-based worker processes leasing cells off one shared store
  finish a compute-dominated 12-cell grid >= 1.6x faster than one
  worker, with a store identical to the single worker's — checked on
  >= 2 cores;
* Elkan-bounded UK-means reproduces ``BasicUKMeans`` labels at
  n=100_000 (S=32, m=8, k=20) while running >= 2x faster;
* VDBiP's candidate mask, as tiled GEMMs over all ordered centroid
  pairs, equals the per-pair bisector loop it replaced and runs >= 5x
  faster on KDD Cup '99-shaped boxes (n=20_000, k=23, m=42).

Measured without a floor: multi-restart runs with shared vs fresh
sample tensors (and MinMax-BB, which must pick Basic's winner), the
execution backends on both rosters, U-AHC's Jeffreys agglomeration,
and report-shaped aggregation (metric summary + best-of-group +
rank-over-grid) over a ~10k-cell SQLite store against the Python
reference reads, whose rows it must reproduce.  The n=20_000 Basic,
bounded and mini-batch fits and the Elkan skip-rate floor live in
``scale_smoke.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py            # full sizes
    PYTHONPATH=src python benchmarks/bench_engine.py --quick    # smoke
    PYTHONPATH=src python benchmarks/bench_engine.py --output out.json

``--quick`` runs every measurement at a tenth of its size with one
repeat and records the floors without asserting them.  The exit status
is 1, after the JSON is written, when a floor is missed or an identity
check fails, and 2 when the overwrite guard refuses the output path.
Timings are best-of-``repeats`` wall clock; the JSON records the
machine shape (cores, python, numpy), so numbers are comparable only
between like machines.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import tempfile
import time
import warnings
from pathlib import Path
from typing import Callable, Dict, List, Optional

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - direct invocation convenience
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.clustering import (
    FDBSCAN,
    UAHC,
    UCPC,
    BasicUKMeans,
    BoundedUKMeans,
    MinMaxBB,
    UKMeans,
    UKMedoids,
    VDBiP,
    auto_eps,
)
from repro.clustering.fdbscan import dbscan_labels
from repro.datagen import make_blobs_uncertain
from repro.engine import (
    MultiRestartRunner,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.engine.store import (
    SWEEP_SCHEMA_VERSION,
    SqliteStore,
    diff_stores,
    open_store,
)
from repro.engine.store import base as reference
from repro.engine.sweep import (
    SweepGrid,
    Table3Spec,
    run_sweep,
    run_sweep_workers,
)
from repro.exceptions import ConvergenceWarning
from repro.experiments import ExperimentConfig
from repro.experiments.figure5 import FIGURE5_K, prepare_figure5_base
from repro.experiments.table3 import prepare_table3_group, run_table3_cell
from repro.objects import UncertainDataset, UncertainObject
from repro.utils.rng import ensure_rng, spawn_rngs

#: Bumped whenever a measurement's name or meaning changes.
SCHEMA_VERSION = 7

#: The fixed measurement roster.  :func:`run_benchmarks` must emit
#: exactly these names; the overwrite guard in :func:`main` compares an
#: existing snapshot against them *before* running anything, so a
#: snapshot from a different roster (or schema) is never silently
#: clobbered.
MEASUREMENT_NAMES = (
    "sample_tensor_batched",
    "sample_tensor_per_object",
    "multi_restart_shared_cache",
    "multi_restart_fresh_samples",
    "multi_restart_pruned",
    "fdbscan_ported_fit",
    "fdbscan_legacy_fit",
    "backend_serial_ukmeans_restarts",
    "backend_threads_ukmeans_restarts",
    "backend_processes_ukmeans_restarts",
    "backend_serial_ucpc_restarts",
    "backend_threads_ucpc_restarts",
    "ukmedoids_plane_shared",
    "ukmedoids_plane_recompute",
    "uahc_jeffreys_fit",
    "store_aggregate_sqlite",
    "sweep_orchestrated",
    "sweep_isolated_cells",
    "sweep_single_worker",
    "sweep_two_workers",
    "bounded_ukmeans_elkan",
    "bounded_ukmeans_basic_reference",
    "vdbip_mask",
)

#: ``--quick`` multiplies every dataset size (and the multi-worker
#: grid's ``n_runs``) by this factor.
QUICK_SCALE = 0.1


class Roster:
    """The records and failures of one run of the roster."""

    def __init__(self, quick: bool = False):
        self.quick = quick
        self.records: List[Dict[str, object]] = []
        self.failures: List[str] = []

    def size(self, full: int) -> int:
        """``full`` at full size; a tenth of it under ``--quick``."""
        return max(1, int(full * QUICK_SCALE)) if self.quick else full

    def repeats(self, full: int) -> int:
        """Best-of repeats: ``full`` at full size, one under ``--quick``."""
        return 1 if self.quick else full

    def record(self, name: str, seconds: float, **meta) -> None:
        self.records.append({"name": name, "seconds": seconds, **meta})
        extra = "  ".join(f"{key}={value}" for key, value in meta.items())
        print(f"{name:36s} {seconds * 1e3:10.1f} ms  {extra}", flush=True)

    def check(self, ok: bool, message: str) -> None:
        """Note a failed identity check; the run goes on."""
        if not ok:
            self.failures.append(message)

    def floor(
        self,
        name: str,
        seconds: float,
        speedup: float,
        floor: float,
        skip: Optional[str] = None,
        **meta,
    ) -> None:
        """Record a floored measurement and assert its floor.

        The floor is not asserted at quick sizes or when ``skip`` names
        a reason (e.g. too few cores); the record says which.
        """
        if skip is None and self.quick:
            skip = "quick sizes"
        self.record(
            name,
            seconds,
            **meta,
            speedup=round(speedup, 3),
            floor=floor,
            floor_skipped=skip,
        )
        if skip is None and speedup < floor:
            self.failures.append(
                f"{name}: speedup {speedup:.2f}x below the {floor}x floor"
            )


def snapshot_conflict(path: Path) -> Optional[str]:
    """Why overwriting the snapshot at ``path`` would lose information.

    Returns ``None`` when the existing file is a like-for-like snapshot
    (same schema version, same measurement roster) — the normal CI
    refresh — and a human-readable reason otherwise: an unreadable
    file, a different schema version, or a different roster all mean
    the committed trajectory would silently change meaning.
    """
    try:
        payload = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError) as error:
        return f"existing file is not readable benchmark JSON ({error})"
    if not isinstance(payload, dict):
        return "existing file is not a benchmark snapshot object"
    if payload.get("schema") != SCHEMA_VERSION:
        return (
            f"existing schema version {payload.get('schema')!r} != "
            f"{SCHEMA_VERSION}"
        )
    existing = {
        entry.get("name")
        for entry in payload.get("benchmarks", [])
        if isinstance(entry, dict)
    }
    if existing != set(MEASUREMENT_NAMES):
        missing = sorted(set(MEASUREMENT_NAMES) - existing)
        extra = sorted(existing - set(MEASUREMENT_NAMES))
        return (
            "existing measurement roster differs "
            f"(missing: {missing or '-'}, extra: {extra or '-'})"
        )
    return None


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds of ``fn()``."""
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return min(timings)


def _same_result(left, right) -> bool:
    return (
        np.array_equal(left.labels, right.labels)
        and left.objective == right.objective
    )


# ----------------------------------------------------------------------
# Off-line sampling: batched sample tensor vs the per-object loop.
# ----------------------------------------------------------------------
def _uniform_dataset(n_objects: int, seed: int = 11) -> UncertainDataset:
    """Uniform-family dataset: every marginal takes the batched path.

    The Uniform quantile transform is one multiply and one add, so
    this family isolates the Python-dispatch overhead the batched
    sampler eliminates (heavier families like truncated-Normal spend
    most of their time inside ``ndtri`` on both paths).
    """
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 10.0, size=(n_objects, 2))
    widths = rng.uniform(0.2, 2.0, size=(n_objects, 2))
    return UncertainDataset(
        [
            UncertainObject.uniform_box(centers[i], widths[i], label=0)
            for i in range(n_objects)
        ]
    )


def _per_object_loop(dataset, n_samples, seed):
    """The replaced idiom: one Python-level sample call per object."""
    rng = ensure_rng(seed)
    out = np.empty((len(dataset), n_samples, dataset.dim))
    for idx, obj in enumerate(dataset):
        out[idx] = obj.sample(n_samples, rng)
    return out


def sample_tensor(roster: Roster) -> None:
    n, n_samples = roster.size(2000), 64
    data = _uniform_dataset(n)
    # Warm both paths once so neither pays first-call plan/alloc cost.
    # On a one-family collection the batched draw consumes the stream
    # in the loop's order, so the tensors are equal value for value.
    roster.check(
        np.array_equal(
            data.sample_tensor(n_samples, 0),
            _per_object_loop(data, n_samples, 0),
        ),
        "sample_tensor_batched: tensor differs from the per-object loop",
    )
    repeats = roster.repeats(3)
    batched = _best_of(lambda: data.sample_tensor(n_samples, 0), repeats)
    looped = _best_of(lambda: _per_object_loop(data, n_samples, 0), repeats)
    roster.floor(
        "sample_tensor_batched", batched, looped / batched, 5.0,
        n=n, S=n_samples,
    )
    roster.record("sample_tensor_per_object", looped, n=n, S=n_samples)


# ----------------------------------------------------------------------
# Multi-restart engine: shared vs fresh sample tensors.
# ----------------------------------------------------------------------
def multi_restart(roster: Roster) -> None:
    n = roster.size(400)
    data = make_blobs_uncertain(
        n_objects=n, n_clusters=4, separation=4.0, seed=11
    )
    repeats = roster.repeats(3)
    best = {}
    for name, model, share in (
        ("multi_restart_shared_cache", BasicUKMeans, True),
        ("multi_restart_fresh_samples", BasicUKMeans, False),
        ("multi_restart_pruned", MinMaxBB, True),
    ):
        runner = MultiRestartRunner(
            model(4, n_samples=32), n_init=5, share_samples=share
        )
        best[name] = runner.run(data, 0)
        seconds = _best_of(lambda: runner.run(data, 0), repeats)
        roster.record(name, seconds, n=n, n_init=5)
    # Pruning is lossless: same seeds, same shared tensor, same winner.
    roster.check(
        _same_result(
            best["multi_restart_shared_cache"], best["multi_restart_pruned"]
        ),
        "multi_restart_pruned: best restart differs from BasicUKMeans'",
    )


# ----------------------------------------------------------------------
# Density clustering: ported FDBSCAN vs the pre-port implementation.
# ----------------------------------------------------------------------
def _legacy_fdbscan_fit(model, dataset, seed):
    """The pre-port FDBSCAN: per-object sampling + row-loop estimator."""
    rng = ensure_rng(seed)
    eps = model.eps if model.eps is not None else auto_eps(
        dataset, model.eps_quantile
    )
    samples = np.empty((len(dataset), model.n_samples, dataset.dim))
    for idx, obj in enumerate(dataset):
        samples[idx] = obj.sample(model.n_samples, rng)
    n = samples.shape[0]
    eps_sq = eps * eps
    probs = np.eye(n)
    for i in range(n - 1):
        diff = samples[i + 1 :] - samples[i]
        within = np.einsum("nsm,nsm->ns", diff, diff) <= eps_sq
        p = within.mean(axis=1)
        probs[i, i + 1 :] = p
        probs[i + 1 :, i] = p
    expected_neighbors = probs.sum(axis=1)
    is_core = expected_neighbors >= model.min_pts
    return dbscan_labels(is_core, probs >= model.reach_prob)


def density(roster: Roster) -> None:
    n, n_samples, m = roster.size(1000), 64, 16  # Letter-sized rows
    data = make_blobs_uncertain(
        n_objects=n, n_clusters=5, n_attributes=m, seed=7
    )
    model = FDBSCAN(n_samples=n_samples)
    ported = model.fit(data, seed=0)  # also warms both paths
    roster.check(
        np.array_equal(ported.labels, _legacy_fdbscan_fit(model, data, 0)),
        "fdbscan_ported_fit: labels differ from the pre-port path",
    )
    repeats = roster.repeats(2)
    ported_time = _best_of(lambda: model.fit(data, seed=0), repeats)
    legacy_time = _best_of(
        lambda: _legacy_fdbscan_fit(model, data, 0), repeats
    )
    roster.floor(
        "fdbscan_ported_fit", ported_time, legacy_time / ported_time, 3.0,
        n=n, S=n_samples, m=m,
    )
    roster.record("fdbscan_legacy_fit", legacy_time, n=n, S=n_samples, m=m)


# ----------------------------------------------------------------------
# Execution backends: 16 restarts at paper scale on each backend.
# ----------------------------------------------------------------------
BACKEND_RESTARTS = 16
BACKEND_K = 8


def _timed_restarts(factory, data, backend, repeats):
    """Best-of-``repeats`` wall time of the restarts driven directly on
    ``backend``, and the lowest-objective restart."""
    best_time = float("inf")
    results = None
    for _ in range(repeats):
        clusterer = factory()
        start = time.perf_counter()
        results = backend.run(clusterer, data, list(range(BACKEND_RESTARTS)))
        best_time = min(best_time, time.perf_counter() - start)
    return best_time, min(results, key=lambda result: result.objective)


def backends(roster: Roster) -> None:
    """UK-means' per-iteration kernels are large GIL-releasing numpy
    ops, so its threaded restarts scale; UCPC's interpreter-bound
    relocation sweep is why the engine routes it to processes."""
    n, m = roster.size(5000), 16
    data = make_blobs_uncertain(
        n_objects=n, n_clusters=BACKEND_K, n_attributes=m, separation=3.0,
        seed=19,
    )
    jobs = os.cpu_count() or 4
    meta = dict(n=n, m=m, n_init=BACKEND_RESTARTS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        ukmeans = lambda: UKMeans(BACKEND_K, max_iter=8)  # noqa: E731
        repeats = roster.repeats(2)
        serial_time, serial = _timed_restarts(
            ukmeans, data, SerialBackend(), repeats
        )
        threads_time, threads = _timed_restarts(
            ukmeans, data, ThreadBackend(jobs), repeats
        )
        processes_time, processes = _timed_restarts(
            ukmeans, data, ProcessBackend(jobs), repeats
        )
        roster.check(
            _same_result(serial, threads) and _same_result(serial, processes),
            "backend UK-means restarts: the backends disagree",
        )
        roster.record(
            "backend_serial_ukmeans_restarts", serial_time, **meta, n_jobs=1
        )
        roster.floor(
            "backend_threads_ukmeans_restarts",
            threads_time,
            serial_time / threads_time,
            2.0,
            skip=None if jobs >= 4 else "needs >= 4 cores",
            **meta,
            n_jobs=jobs,
        )
        roster.record(
            "backend_processes_ukmeans_restarts", processes_time, **meta,
            n_jobs=jobs,
        )

        ucpc = lambda: UCPC(BACKEND_K, max_iter=2)  # noqa: E731
        serial_time, serial = _timed_restarts(ucpc, data, SerialBackend(), 1)
        threads_time, threads = _timed_restarts(
            ucpc, data, ThreadBackend(jobs), 1
        )
    roster.check(
        _same_result(serial, threads),
        "backend UCPC restarts: threads disagree with serial",
    )
    roster.record(
        "backend_serial_ucpc_restarts", serial_time, **meta, n_jobs=1
    )
    roster.record(
        "backend_threads_ucpc_restarts", threads_time, **meta, n_jobs=jobs,
        speedup=round(serial_time / threads_time, 3),
    )


# ----------------------------------------------------------------------
# Pairwise-distance plane: shared ÊD matrix vs per-restart recompute.
# ----------------------------------------------------------------------
MEDOID_K = 25
MEDOID_RESTARTS = 8
MEDOID_MAX_ITER = 2  # bounds the on-line PAM loop; off-line phase dominates


def pairwise_plane(roster: Roster) -> None:
    n = roster.size(2000)  # Yeast-sized rows
    data = make_blobs_uncertain(
        n_objects=n, n_clusters=MEDOID_K, n_attributes=32, separation=3.0,
        seed=23,
    )

    def shared():
        # A fresh dataset per run-set, so every repetition pays the
        # one-time off-line build the dataset's cache would hide.
        model = UKMedoids(MEDOID_K, max_iter=MEDOID_MAX_ITER)
        return MultiRestartRunner(model, n_init=MEDOID_RESTARTS).run(
            UncertainDataset(data.objects), seed=5
        )

    def recompute(seeds):
        # The pre-plane behaviour: direct fits, each building its own
        # ÊD matrix on its own fresh dataset.
        return [
            UKMedoids(MEDOID_K, max_iter=MEDOID_MAX_ITER).fit(
                UncertainDataset(data.objects), seed=seed
            )
            for seed in seeds
        ]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        shared_result = shared()  # warm
        seeds = [
            entry["seed"] for entry in shared_result.extras["restart_history"]
        ]
        recompute_result = min(
            recompute(seeds), key=lambda result: result.objective
        )
        repeats = roster.repeats(2)
        shared_time = _best_of(shared, repeats)
        recompute_time = _best_of(lambda: recompute(seeds), repeats)
    roster.check(
        _same_result(shared_result, recompute_result),
        "ukmedoids_plane_shared: best restart differs from the recompute",
    )
    meta = dict(n=n, n_init=MEDOID_RESTARTS, k=MEDOID_K)
    roster.floor(
        "ukmedoids_plane_shared", shared_time, recompute_time / shared_time,
        4.0, **meta,
    )
    roster.record("ukmedoids_plane_recompute", recompute_time, **meta)


# ----------------------------------------------------------------------
# Hierarchical: U-AHC's Jeffreys agglomeration.
# ----------------------------------------------------------------------
def uahc(roster: Roster) -> None:
    n = max(roster.size(300), 20)
    data = make_blobs_uncertain(
        n_objects=n, n_clusters=4, n_attributes=5, seed=3
    )
    seconds = _best_of(
        lambda: UAHC(4, linkage="jeffreys").fit(data), roster.repeats(3)
    )
    roster.record("uahc_jeffreys_fit", seconds, n=n, m=5)


# ----------------------------------------------------------------------
# Result-store aggregation: SQL vs the Python reference reads.
# ----------------------------------------------------------------------
def _populate_synthetic_store(
    store: SqliteStore, n_cells: int, seed: int = 29
) -> None:
    """Fill ``store`` with a sweep-shaped synthetic grid of ``n_cells``.

    Groups of 50 cells (10 datasets-worth of algorithm x k cells each)
    with a few numeric metrics per cell — the shape the report
    aggregation walks, at a scale where substrate cost dominates.
    """
    rng = np.random.default_rng(seed)
    store.prepare(
        {
            "schema": SWEEP_SCHEMA_VERSION,
            "surfaces": {"synthetic": {"cells": n_cells}},
        },
        resume=False,
    )
    written = 0
    group_idx = 0
    while written < n_cells:
        group = (f"dataset{group_idx:04d}",)
        for pos in range(min(50, n_cells - written)):
            store.write_cell(
                "synthetic",
                group,
                (f"alg{pos % 5}", f"k{10 + pos // 5}"),
                seed_state=f"{written:040x}",
                values={
                    "quality": float(rng.random()),
                    "runtime_ms": float(rng.uniform(1.0, 1e3)),
                    "iterations": int(rng.integers(1, 40)),
                },
            )
            written += 1
        group_idx += 1


def _aggregate_store(store: SqliteStore):
    """The report-shaped aggregation workload over one store.

    One full metric summary plus best-of-group and rank-over-grid on
    the headline metric, in indexed SQL (GROUP BY + window functions).
    """
    return (
        store.metric_summary(),
        store.best_cells("quality", mode="max"),
        store.rank_over_grid("quality", mode="max"),
    )


def _reference_aggregate(store: SqliteStore):
    """:func:`_aggregate_store` by the Python reference reads
    (:mod:`repro.engine.store.base`) over one walk of the same store."""
    cells = list(store.iter_cells())
    return (
        reference.metric_summary(cells),
        reference.best_cells(cells, "quality", mode="max"),
        reference.rank_over_grid(cells, "quality", mode="max"),
    )


def _aggregates_agree(sql, ref) -> bool:
    """Best-of-group, rank-over-grid, summary counts and extrema agree
    row for row; the mean only to 1e-12 (SQL AVG sums in a different
    order)."""
    return (
        sql[1] == ref[1]
        and sql[2] == ref[2]
        and [row[:5] for row in sql[0]] == [row[:5] for row in ref[0]]
        and all(
            math.isclose(sql_row[5], ref_row[5], rel_tol=1e-12)
            for sql_row, ref_row in zip(sql[0], ref[0])
        )
    )


def store_aggregation(roster: Roster) -> None:
    cells = roster.size(10000)
    with tempfile.TemporaryDirectory() as tmp:
        store = open_store(Path(tmp) / "store.sqlite")
        try:
            _populate_synthetic_store(store, cells)
            roster.check(
                _aggregates_agree(
                    _aggregate_store(store), _reference_aggregate(store)
                ),
                "store_aggregate_sqlite: SQL rows differ from the reference",
            )
            repeats = roster.repeats(3)
            sql_time = _best_of(lambda: _aggregate_store(store), repeats)
            ref_time = _best_of(lambda: _reference_aggregate(store), repeats)
        finally:
            store.close()
    roster.record(
        "store_aggregate_sqlite", sql_time, cells=cells,
        speedup=round(ref_time / sql_time, 3),
    )


# ----------------------------------------------------------------------
# Sweep orchestrator: shared dataset groups vs isolated per-cell runs.
# ----------------------------------------------------------------------
SWEEP_DATASETS = ("neuroblastoma", "leukaemia")
SWEEP_KS = (25, 30)
SWEEP_ALGORITHMS = ("UKmed", "UKM", "MMV")
SWEEP_CELLS = len(SWEEP_DATASETS) * len(SWEEP_KS) * len(SWEEP_ALGORITHMS)


def _sweep_grid(config: ExperimentConfig) -> SweepGrid:
    return SweepGrid(
        table3=Table3Spec(
            config=config,
            datasets=SWEEP_DATASETS,
            cluster_counts=SWEEP_KS,
            algorithms=SWEEP_ALGORITHMS,
        )
    )


def _isolated_cells(config: ExperimentConfig):
    """The pre-orchestrator idiom: every cell is an isolated run.

    Each cell re-derives its own seed streams from scratch, regenerates
    the dataset (fresh moment matrices, fresh sampling plan) and
    rebuilds the scoring ``ÊD`` matrix — what running each grid cell as
    its own ``fit_runs`` invocation costs.
    """
    quality = {}
    for ds_idx, ds_name in enumerate(SWEEP_DATASETS):
        cell_pos = 0
        for k in SWEEP_KS:
            for alg in SWEEP_ALGORITHMS:
                ds_rng = spawn_rngs(config.seed, len(SWEEP_DATASETS))[ds_idx]
                dataset = prepare_table3_group(ds_name, ds_rng, config)
                for _ in range(cell_pos):  # replay earlier cells' streams
                    spawn_rngs(ds_rng, config.n_runs + 1)
                quality[(ds_name, k, alg)] = run_table3_cell(
                    alg, dataset, k, ds_rng, config
                )
                cell_pos += 1
    return quality


def sweep_orchestrator(roster: Roster) -> None:
    # scale=0.05 puts both microarray stand-ins at paper-shaped size
    # (~1.1k genes); n_runs=1 keeps each cell to one on-line fit, so the
    # per-dataset off-line work the orchestrator amortizes is as large
    # a share of the grid as it can be.
    scale = round(0.05 * QUICK_SCALE, 6) if roster.quick else 0.05
    config = ExperimentConfig(scale=scale, n_runs=1, n_samples=8, seed=11)

    def orchestrated():
        with tempfile.TemporaryDirectory() as tmp:
            grid = _sweep_grid(config)
            return run_sweep(grid, Path(tmp) / "store").table3.quality

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        roster.check(
            orchestrated() == _isolated_cells(config),
            "sweep_orchestrated: cell values differ from isolated runs",
        )
        repeats = roster.repeats(2)
        orchestrated_time = _best_of(orchestrated, repeats)
        isolated_time = _best_of(lambda: _isolated_cells(config), repeats)
    meta = dict(cells=SWEEP_CELLS, scale=scale, n_runs=1)
    roster.floor(
        "sweep_orchestrated", orchestrated_time,
        isolated_time / orchestrated_time, 2.0, **meta,
    )
    roster.record("sweep_isolated_cells", isolated_time, **meta)


# ----------------------------------------------------------------------
# Multi-worker sweep: two claim-based workers vs one, same shared grid.
# ----------------------------------------------------------------------
def sweep_workers(roster: Roster) -> None:
    """A compute-dominated grid: per-cell fits dwarf the off-line prep.

    Worker rotation starts the two workers in different dataset groups
    when the owner-hash offsets differ, but the floor must also hold
    when they collide and walk the same order — so the duplicated
    off-line work (dataset + ``ÊD`` matrix, ~2% here) is kept
    negligible next to the ``n_runs`` restarts inside each cell.  Each
    side runs once.
    """
    n_runs = roster.size(30)
    config = ExperimentConfig(scale=0.05, n_runs=n_runs, n_samples=8, seed=11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        with tempfile.TemporaryDirectory() as tmp:
            single_path = Path(tmp) / "single"
            double_path = Path(tmp) / "double"
            start = time.perf_counter()
            run_sweep(_sweep_grid(config), single_path)
            single = time.perf_counter() - start
            start = time.perf_counter()
            run_sweep_workers(
                _sweep_grid(config),
                double_path,
                workers=2,
                lease_ttl=10.0,
                poll_interval=0.1,
            )
            double = time.perf_counter() - start
            roster.check(
                diff_stores(single_path, double_path) == [],
                "sweep_two_workers: store differs from the single worker's",
            )
    meta = dict(cells=SWEEP_CELLS, n_runs=n_runs)
    roster.record("sweep_single_worker", single, **meta, workers=1)
    roster.floor(
        "sweep_two_workers",
        double,
        single / double,
        1.6,
        skip=None if (os.cpu_count() or 1) >= 2 else "needs >= 2 cores",
        **meta,
        workers=2,
    )


# ----------------------------------------------------------------------
# Million-object scale path: Elkan bounds vs the full Lloyd ED pass.
# ----------------------------------------------------------------------
SCALE_K = 20
SCALE_S = 32
SCALE_M = 8
SCALE_ITERS = 5  # enough post-warmup iterations for the bounds to pay


def bounded_scale(roster: Roster) -> None:
    """Every compared ED goes through the literal Basic kernel and all
    pruning tests are strict inequalities on exact mean-plane
    distances, so the labels are Basic's; the speedup is of the
    on-line ``runtime_seconds`` of one fit each."""
    n = roster.size(100_000)
    data = make_blobs_uncertain(
        n_objects=n, n_clusters=SCALE_K, n_attributes=SCALE_M,
        separation=3.0, seed=42,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        bounded = BoundedUKMeans(
            SCALE_K, n_samples=SCALE_S, max_iter=SCALE_ITERS
        ).fit(data, seed=0)
        basic = BasicUKMeans(
            SCALE_K, n_samples=SCALE_S, max_iter=SCALE_ITERS
        ).fit(data, seed=0)
    roster.check(
        np.array_equal(basic.labels, bounded.labels),
        "bounded_ukmeans_elkan: labels differ from BasicUKMeans",
    )
    meta = dict(n=n, S=SCALE_S, m=SCALE_M, k=SCALE_K)
    roster.floor(
        "bounded_ukmeans_elkan",
        bounded.runtime_seconds,
        basic.runtime_seconds / bounded.runtime_seconds,
        2.0,
        **meta,
        skip_rate=round(bounded.extras["skip_rate"], 4),
    )
    roster.record(
        "bounded_ukmeans_basic_reference", basic.runtime_seconds, **meta
    )


# ----------------------------------------------------------------------
# VDBiP's candidate mask: tiled GEMMs vs the per-pair bisector loop.
# ----------------------------------------------------------------------
def _legacy_vdbip_mask(boxes_lower, boxes_upper, centers):
    """The replaced mask: one bisector test per ordered centroid pair,
    pruning on ``max_h < 0`` with no rounding margin."""
    n = boxes_lower.shape[0]
    k = centers.shape[0]
    center_sq = np.einsum("cj,cj->c", centers, centers)
    candidates = np.ones((n, k), dtype=bool)
    for j in range(k):
        for l in range(k):
            if l == j:
                continue
            a = -2.0 * (centers[j] - centers[l])
            b = center_sq[j] - center_sq[l]
            max_h = (
                np.where(a > 0, boxes_upper * a, boxes_lower * a).sum(axis=1) + b
            )
            candidates[max_h < 0.0, l] = False
    dead = ~candidates.any(axis=1)
    if dead.any():
        candidates[dead] = True
    return candidates


def vdbip_mask(roster: Roster) -> None:
    """Figure 5's KDD Cup '99-shaped boxes and k; the centroids are the
    means of k distinct objects, as a fit's first iteration draws them.
    No bisector test on these boxes falls inside the margin, so the
    masks are equal."""
    n = roster.size(20_000)
    full, _, _ = prepare_figure5_base(ExperimentConfig(seed=11), n)
    lower, upper = full.region_bounds
    rng = ensure_rng(0)
    centers = full.mu_matrix[rng.choice(n, FIGURE5_K, replace=False)]
    model = VDBiP(FIGURE5_K)
    start = time.perf_counter()
    legacy = _legacy_vdbip_mask(lower, upper, centers)
    legacy_time = time.perf_counter() - start
    roster.check(
        np.array_equal(model._candidate_mask(lower, upper, centers), legacy),
        "vdbip_mask: mask differs from the per-pair loop's",
    )
    tiled_time = _best_of(
        lambda: model._candidate_mask(lower, upper, centers),
        roster.repeats(3),
    )
    roster.floor(
        "vdbip_mask", tiled_time, legacy_time / tiled_time, 5.0,
        n=n, k=FIGURE5_K, m=full.dim, pair_loop_s=round(legacy_time, 4),
    )


MEASUREMENTS = (
    sample_tensor,
    multi_restart,
    density,
    backends,
    pairwise_plane,
    uahc,
    store_aggregation,
    sweep_orchestrator,
    sweep_workers,
    bounded_scale,
    vdbip_mask,
)


def run_benchmarks(quick: bool = False) -> Roster:
    """Run the fixed roster; returns its records and failures."""
    roster = Roster(quick)
    for measure in MEASUREMENTS:
        measure(roster)
    emitted = [entry["name"] for entry in roster.records]
    assert sorted(emitted) == sorted(MEASUREMENT_NAMES), (
        "run_benchmarks drifted from MEASUREMENT_NAMES; update the "
        f"roster constant and bump SCHEMA_VERSION (diff: "
        f"{set(emitted) ^ set(MEASUREMENT_NAMES)})"
    )
    return roster


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the engine benchmark roster, check its floors, "
        "emit JSON."
    )
    parser.add_argument(
        "--output", default="BENCH_engine.json", help="output JSON path"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tenth-size datasets, one repeat, floors not asserted",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing snapshot even when its schema "
        "version or measurement roster differs from this script's",
    )
    args = parser.parse_args(argv)

    output = Path(args.output)
    if output.exists() and not args.force:
        conflict = snapshot_conflict(output)
        if conflict is not None:
            print(
                f"refusing to overwrite {output}: {conflict}\n"
                "(re-run with --force to overwrite anyway)",
                file=sys.stderr,
            )
            return 2

    roster = run_benchmarks(quick=args.quick)
    payload = {
        "schema": SCHEMA_VERSION,
        "quick": args.quick,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "benchmarks": roster.records,
        "failures": roster.failures,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    for failure in roster.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if roster.failures else 0


if __name__ == "__main__":
    sys.exit(main())
