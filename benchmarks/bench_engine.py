"""Benchmarks of the batch execution engine.

Pins the claims the engine layer makes:

* :meth:`UncertainDataset.sample_tensor` beats the per-object sampling
  loop it replaced by a wide margin (the off-line phase of every
  sample-based algorithm) — asserted at >= 5x for n=2000, S=64;
* multi-restart execution amortizes the off-line work: ``n_init``
  restarts through :class:`MultiRestartRunner` with a shared sample
  cache cost far less than ``n_init`` independent fits;
* the ported density clustering (batched sampling + blocked GEMM
  probability kernel) beats the pre-port per-object FDBSCAN — asserted
  at >= 3x for n=1000, S=64;
* the ``threads`` execution backend runs 16 moment-based restarts at
  paper scale (n=5000, m=16) >= 2x faster than ``serial`` on parallel
  hardware — asserted when >= 4 cores are available.  The floor is
  pinned on the moment-based roster (UK-means), whose per-iteration
  kernels are large GIL-releasing numpy ops; UCPC's relocation sweep is
  an inherently sequential per-object Python loop, so threads cannot
  speed it up on CPython — it is measured alongside for the record (and
  routed to the ``processes`` backend by the README's backend matrix);
* the pairwise-distance plane amortizes UK-medoids' off-line ``ÊD``
  matrix across an engine run-set: a paper-scale multi-restart run
  (n=2000, n_init=8) with the shared plane is asserted >= 4x faster
  than the pre-plane per-restart recompute it replaced — same seeds,
  bit-identical results;
* the sweep orchestrator runs a small paper grid (2 microarray
  datasets x 3 algorithms x 2 cluster counts at paper-shaped scale)
  >= 2x faster than the same cells executed as isolated per-cell runs
  (each regenerating its dataset and rebuilding the
  moment/plan/``ÊD`` caches) — with bit-identical cell values;
* report-shaped aggregation (metric summary + best-of-group +
  rank-over-grid) over a ~10k-cell synthetic result store in indexed
  SQL (GROUP BY + window functions) returns the rows the Python
  reference reads compute over the same store;
* the multi-worker sweep (two claim-based worker processes leasing
  cells off one shared store) finishes a compute-dominated small grid
  >= 1.6x faster than a single worker on parallel hardware — asserted
  when >= 2 cores are available, always with a store logically
  identical to the single-worker run's;
* the million-object scale path: Elkan-bounded UK-means reproduces
  ``BasicUKMeans`` bit for bit at n=100_000 (S=32, m=8, k=20) while
  running >= 2x faster (measured ~5x on the reference box), and the
  bound counters prove >= 50% of assignment-row ED evaluations are
  skipped at n=20_000.
"""

from __future__ import annotations

import os
import time
import warnings

import numpy as np
import pytest

from repro.clustering import (
    FDBSCAN,
    UCPC,
    BasicUKMeans,
    MinMaxBB,
    UKMeans,
    UKMedoids,
    auto_eps,
)
from repro.clustering.fdbscan import dbscan_labels
from repro.datagen import make_blobs_uncertain
from repro.engine import MultiRestartRunner, SerialBackend, ThreadBackend
from repro.exceptions import ConvergenceWarning
from repro.objects import UncertainDataset, UncertainObject
from repro.utils.rng import ensure_rng

N_OBJECTS = 2000
N_SAMPLES = 64


def _best_of(fn, repeats):
    """Best-of-``repeats`` wall-clock seconds for the timing floors."""
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return min(timings)


@pytest.fixture(scope="module")
def data():
    """Uniform-family dataset: every marginal takes the batched path.

    The Uniform quantile transform is a single fused multiply-add, so
    this family isolates the Python-dispatch overhead the batched
    sampler eliminates (heavier families like truncated-Normal spend
    most of their time inside ``ndtri`` on both paths).
    """
    rng = np.random.default_rng(11)
    centers = rng.normal(0.0, 10.0, size=(N_OBJECTS, 2))
    widths = rng.uniform(0.2, 2.0, size=(N_OBJECTS, 2))
    return UncertainDataset(
        [
            UncertainObject.uniform_box(centers[i], widths[i], label=0)
            for i in range(N_OBJECTS)
        ]
    )


def _per_object_loop(dataset, n_samples, seed):
    """The replaced idiom: one Python-level sample call per object."""
    rng = ensure_rng(seed)
    out = np.empty((len(dataset), n_samples, dataset.dim))
    for idx, obj in enumerate(dataset):
        out[idx] = obj.sample(n_samples, rng)
    return out


def test_sample_tensor_batched(benchmark, data):
    benchmark.group = "off-line-sampling"
    benchmark(data.sample_tensor, N_SAMPLES, 0)


def test_sample_tensor_per_object(benchmark, data):
    benchmark.group = "off-line-sampling"
    benchmark(_per_object_loop, data, N_SAMPLES, 0)


def test_sample_tensor_speedup_floor(data):
    """Acceptance pin: batched sampling >= 5x the per-object loop."""
    # Warm both paths once so neither pays first-call import/alloc cost.
    data.sample_tensor(N_SAMPLES, 0)
    _per_object_loop(data, N_SAMPLES, 0)

    batched = _best_of(lambda: data.sample_tensor(N_SAMPLES, 0), repeats=3)
    looped = _best_of(lambda: _per_object_loop(data, N_SAMPLES, 0), repeats=3)
    speedup = looped / batched
    assert speedup >= 5.0, (
        f"sample_tensor speedup {speedup:.1f}x below the 5x floor "
        f"(batched {batched * 1e3:.1f} ms, per-object {looped * 1e3:.1f} ms)"
    )


@pytest.fixture(scope="module")
def small_data():
    return make_blobs_uncertain(
        n_objects=400, n_clusters=4, separation=4.0, seed=11
    )


def test_multi_restart_shared_cache(benchmark, small_data):
    benchmark.group = "multi-restart"
    runner = MultiRestartRunner(
        BasicUKMeans(4, n_samples=32), n_init=5, share_samples=True
    )
    benchmark(runner.run, small_data, 0)


def test_multi_restart_fresh_samples(benchmark, small_data):
    benchmark.group = "multi-restart"
    runner = MultiRestartRunner(
        BasicUKMeans(4, n_samples=32), n_init=5, share_samples=False
    )
    benchmark(runner.run, small_data, 0)


def test_multi_restart_pruned(benchmark, small_data):
    benchmark.group = "multi-restart"
    runner = MultiRestartRunner(
        MinMaxBB(4, n_samples=32), n_init=5, share_samples=True
    )
    benchmark(runner.run, small_data, 0)


# ----------------------------------------------------------------------
# Density clustering: ported FDBSCAN vs the pre-port implementation.
# ----------------------------------------------------------------------
DENSITY_N = 1000
DENSITY_S = 64
DENSITY_M = 16  # Letter-dataset dimensionality (Table 1-(a))


@pytest.fixture(scope="module")
def density_data():
    """Paper-shaped workload for the density port (n=1000, S=64, m=16)."""
    return make_blobs_uncertain(
        n_objects=DENSITY_N, n_clusters=5, n_attributes=DENSITY_M, seed=7
    )


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


def test_density_ported(benchmark, density_data):
    benchmark.group = "density-clustering"
    model = FDBSCAN(n_samples=DENSITY_S)
    benchmark(model.fit, density_data, 0)


def test_density_legacy(benchmark, density_data):
    benchmark.group = "density-clustering"
    model = FDBSCAN(n_samples=DENSITY_S)
    benchmark(_legacy_fdbscan_fit, model, density_data, 0)


# ----------------------------------------------------------------------
# Execution backends: threaded restarts at paper scale.
# ----------------------------------------------------------------------
BACKEND_N = 5000
BACKEND_M = 16
BACKEND_RESTARTS = 16
BACKEND_K = 8


@pytest.fixture(scope="module")
def backend_data():
    """Paper-scale moment workload (n=5000, m=16 — Letter-sized rows)."""
    return make_blobs_uncertain(
        n_objects=BACKEND_N,
        n_clusters=BACKEND_K,
        n_attributes=BACKEND_M,
        separation=3.0,
        seed=19,
    )


def _timed_restarts(clusterer_factory, data, backend, repeats=2):
    """Best-of-``repeats`` wall time of 16 restarts driven directly on
    ``backend``, and the lowest-objective restart."""
    best_time = float("inf")
    results = None
    for _ in range(repeats):
        clusterer = clusterer_factory()
        start = time.perf_counter()
        results = backend.run(clusterer, data, list(range(BACKEND_RESTARTS)))
        best_time = min(best_time, time.perf_counter() - start)
    return best_time, min(results, key=lambda result: result.objective)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="threads-vs-serial floor is only meaningful with >= 4 cores",
)
def test_threads_backend_speedup_floor(backend_data):
    """Acceptance pin: threads >= 2x serial for 16 moment-based restarts
    at n=5000, m=16 — NumPy's assignment/update kernels release the GIL,
    so the threaded restarts scale without serializing anything.  The
    results must also stay bit-identical (backend invariance)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        factory = lambda: UKMeans(BACKEND_K, max_iter=8)  # noqa: E731
        serial_time, serial_result = _timed_restarts(
            factory, backend_data, SerialBackend()
        )
        threads_time, threads_result = _timed_restarts(
            factory, backend_data, ThreadBackend(os.cpu_count() or 4)
        )
    np.testing.assert_array_equal(serial_result.labels, threads_result.labels)
    assert serial_result.objective == threads_result.objective
    speedup = serial_time / threads_time
    assert speedup >= 2.0, (
        f"threads backend speedup {speedup:.2f}x below the 2x floor "
        f"(serial {serial_time:.2f} s, threads {threads_time:.2f} s)"
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel-backend comparison is only meaningful with >= 4 cores",
)
def test_ucpc_threads_comparison_informational(backend_data):
    """16 UCPC restarts, threads vs serial, measured for the record.

    UCPC's relocation sweep is a sequential per-object Python loop over
    k-sized arrays — interpreter-bound, so the GIL caps the threads
    backend near 1x for it (that is *why* the backend matrix routes
    UCPC to processes).  No speedup floor is asserted; the run still
    pins backend invariance of the results at paper scale."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        factory = lambda: UCPC(BACKEND_K, max_iter=2)  # noqa: E731
        _, serial_result = _timed_restarts(
            factory, backend_data, SerialBackend(), repeats=1
        )
        _, threads_result = _timed_restarts(
            factory, backend_data, ThreadBackend(os.cpu_count() or 4),
            repeats=1,
        )
    np.testing.assert_array_equal(serial_result.labels, threads_result.labels)
    assert serial_result.objective == threads_result.objective


# ----------------------------------------------------------------------
# Pairwise-distance plane: shared ÊD matrix vs per-restart recompute.
# ----------------------------------------------------------------------
MEDOID_N = 2000
MEDOID_M = 32
MEDOID_K = 25
MEDOID_RESTARTS = 8
MEDOID_MAX_ITER = 2  # bounds the on-line PAM loop; off-line phase dominates


@pytest.fixture(scope="module")
def medoid_data():
    """Paper-scale UK-medoids workload (n=2000 — Yeast-sized rows)."""
    return make_blobs_uncertain(
        n_objects=MEDOID_N,
        n_clusters=MEDOID_K,
        n_attributes=MEDOID_M,
        separation=3.0,
        seed=23,
    )


def _medoid_run_with_plane(data):
    """One run-set on the shared plane: one ÊD build + n_init PAM loops.

    The matrix is built explicitly and pinned (rather than read from the
    dataset cache) so every repetition pays the one-time off-line cost —
    otherwise the dataset-level cache would hide it from the clock.
    """
    from repro.objects.distance import pairwise_squared_expected_distances

    model = UKMedoids(MEDOID_K, max_iter=MEDOID_MAX_ITER)
    model.pairwise_ed_cache = pairwise_squared_expected_distances(data)
    return MultiRestartRunner(model, n_init=MEDOID_RESTARTS).run(data, seed=5)


def _medoid_run_per_restart_recompute(data, seeds=range(MEDOID_RESTARTS)):
    """The pre-plane behavior: direct fits, each rebuilding the ÊD matrix."""
    return [
        UKMedoids(MEDOID_K, max_iter=MEDOID_MAX_ITER).fit(data, seed=seed)
        for seed in seeds
    ]


def test_ukmedoids_plane_shared(benchmark, medoid_data):
    benchmark.group = "pairwise-plane"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        benchmark(_medoid_run_with_plane, medoid_data)


def test_ukmedoids_plane_recompute(benchmark, medoid_data):
    benchmark.group = "pairwise-plane"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        benchmark(_medoid_run_per_restart_recompute, medoid_data)


def test_pairwise_plane_speedup_floor(medoid_data):
    """Acceptance pin: the shared plane runs a UK-medoids multi-restart
    set (n=2000, n_init=8) >= 4x faster than per-restart recompute —
    with bit-identical results, since the matrix is deterministic."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        shared_result = _medoid_run_with_plane(medoid_data)  # warm
        seeds = [
            entry["seed"] for entry in shared_result.extras["restart_history"]
        ]
        recompute_result = min(
            _medoid_run_per_restart_recompute(medoid_data, seeds),
            key=lambda result: result.objective,
        )
        shared = _best_of(
            lambda: _medoid_run_with_plane(medoid_data), repeats=2
        )
        recompute = _best_of(
            lambda: _medoid_run_per_restart_recompute(medoid_data, seeds),
            repeats=2,
        )
    np.testing.assert_array_equal(shared_result.labels, recompute_result.labels)
    assert shared_result.objective == recompute_result.objective
    speedup = recompute / shared
    assert speedup >= 4.0, (
        f"pairwise-plane speedup {speedup:.1f}x below the 4x floor "
        f"(shared {shared * 1e3:.0f} ms, recompute {recompute * 1e3:.0f} ms)"
    )


# ----------------------------------------------------------------------
# Sweep orchestrator: shared dataset groups vs isolated per-cell runs.
# ----------------------------------------------------------------------
SWEEP_DATASETS = ("neuroblastoma", "leukaemia")
SWEEP_KS = (25, 30)
SWEEP_ALGORITHMS = ("UKmed", "UKM", "MMV")


def _sweep_config():
    from repro.experiments import ExperimentConfig

    # scale=0.05 puts both microarray stand-ins at paper-shaped size
    # (~1.1k genes); n_runs=1 keeps the grid's on-line fits small next
    # to the per-dataset off-line work the orchestrator amortizes.
    return ExperimentConfig(scale=0.05, n_runs=1, n_samples=8, seed=11)


def _orchestrated_grid():
    """One `repro sweep` schedule over the small grid (fresh store)."""
    import tempfile

    from repro.engine.sweep import SweepGrid, Table3Spec, run_sweep

    grid = SweepGrid(
        table3=Table3Spec(
            config=_sweep_config(),
            datasets=SWEEP_DATASETS,
            cluster_counts=SWEEP_KS,
            algorithms=SWEEP_ALGORITHMS,
        )
    )
    with tempfile.TemporaryDirectory() as tmp:
        return run_sweep(grid, os.path.join(tmp, "store")).table3.quality


def _isolated_cells():
    """The pre-orchestrator idiom: every cell is an isolated run.

    Each cell re-derives its own seed streams from scratch, regenerates
    the dataset (fresh moment matrices, fresh sampling plan) and
    rebuilds the scoring ``ÊD`` matrix — exactly what running each grid
    cell as its own `fit_runs` invocation costs.
    """
    from repro.experiments.table3 import prepare_table3_group, run_table3_cell
    from repro.objects.distance import pairwise_squared_expected_distances
    from repro.utils.rng import spawn_rngs

    config = _sweep_config()
    quality = {}
    for ds_idx, ds_name in enumerate(SWEEP_DATASETS):
        cell_pos = 0
        for k in SWEEP_KS:
            for alg in SWEEP_ALGORITHMS:
                ds_rng = spawn_rngs(config.seed, len(SWEEP_DATASETS))[ds_idx]
                dataset = prepare_table3_group(ds_name, ds_rng, config)
                for _ in range(cell_pos):  # replay earlier cells' streams
                    spawn_rngs(ds_rng, config.n_runs + 1)
                distances = pairwise_squared_expected_distances(dataset)
                quality[(ds_name, k, alg)] = run_table3_cell(
                    alg, dataset, k, ds_rng, config, distances
                )
                cell_pos += 1
    return quality


def test_sweep_orchestrator_speedup_floor():
    """Acceptance pin: the orchestrated small grid (2 datasets x 3
    algorithms x 2 cluster counts, paper-shaped microarrays) runs
    >= 2x faster than the same cells as isolated per-cell runs — and
    every cell value is bit-identical, since the orchestrator executes
    the runners' own cell executors on the same seed streams."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        orchestrated_values = _orchestrated_grid()
        isolated_values = _isolated_cells()
        assert orchestrated_values == isolated_values
        orchestrated = _best_of(_orchestrated_grid, repeats=2)
        isolated = _best_of(_isolated_cells, repeats=2)
    speedup = isolated / orchestrated
    assert speedup >= 2.0, (
        f"sweep orchestrator speedup {speedup:.1f}x below the 2x floor "
        f"(orchestrated {orchestrated:.2f} s, isolated {isolated:.2f} s)"
    )


# ----------------------------------------------------------------------
# Multi-worker sweep: two claim-based workers vs one, same shared grid.
# ----------------------------------------------------------------------
WORKER_RUNS = 30  # high n_runs: cell compute must dwarf group prep


def _worker_grid():
    """A compute-dominated grid: per-cell fits dwarf the off-line prep.

    Worker rotation starts the two workers in different dataset groups
    when the owner-hash offsets differ, but the floor must also hold
    when they collide and walk the same order — so the duplicated
    off-line work (dataset + ``ÊD`` matrix, ~2% here) is kept
    negligible next to the ``n_runs`` restarts inside each cell.
    """
    from repro.engine.sweep import SweepGrid, Table3Spec
    from repro.experiments import ExperimentConfig

    return SweepGrid(
        table3=Table3Spec(
            config=ExperimentConfig(
                scale=0.05, n_runs=WORKER_RUNS, n_samples=8, seed=11
            ),
            datasets=SWEEP_DATASETS,
            cluster_counts=SWEEP_KS,
            algorithms=SWEEP_ALGORITHMS,
        )
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="2-worker-vs-1 floor is only meaningful with >= 2 cores",
)
def test_multi_worker_sweep_speedup_floor(tmp_path):
    """Acceptance pin: two claim-based worker processes on one shared
    store finish the compute-dominated small grid >= 1.6x faster than
    a single worker — and the final store is logically identical
    (same manifest, same cells, same payload bytes), because every
    cell is produced by the same executors on the same seed streams
    regardless of which worker claims it."""
    from repro.engine.store import diff_stores
    from repro.engine.sweep import run_sweep, run_sweep_workers

    single_path = tmp_path / "single"
    double_path = tmp_path / "double"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        start = time.perf_counter()
        run_sweep(_worker_grid(), single_path)
        single = time.perf_counter() - start
        start = time.perf_counter()
        run_sweep_workers(
            _worker_grid(),
            double_path,
            workers=2,
            lease_ttl=10.0,
            poll_interval=0.1,
        )
        double = time.perf_counter() - start
    assert diff_stores(single_path, double_path) == []
    speedup = single / double
    assert speedup >= 1.6, (
        f"2-worker sweep speedup {speedup:.2f}x below the 1.6x floor "
        f"(single {single:.1f} s, two workers {double:.1f} s)"
    )


# ----------------------------------------------------------------------
# Result-store aggregation: SQL vs the Python reference reads, at scale.
# ----------------------------------------------------------------------
STORE_CELLS = 10000


def test_store_aggregation_matches_reference_reads(tmp_path):
    """Report aggregation over a ~10k-cell store: the SQL path (one
    indexed pass over the exploded ``cell_values`` plane) returns the
    rows the Python reference reads compute from the same store's
    payloads.  No speed floor: the two read the same substrate."""
    from run_bench import (
        aggregate_store,
        populate_synthetic_store,
        reference_aggregate,
    )

    from repro.engine.store import open_store

    store = open_store(tmp_path / "store.sqlite")
    try:
        populate_synthetic_store(store, STORE_CELLS)
        sql_agg = aggregate_store(store)
        ref_agg = reference_aggregate(store)
    finally:
        store.close()
    # Best-of-group, rank-over-grid, summary counts and extrema agree
    # row for row; the mean only approximately (SQL AVG sums in a
    # different order).
    assert sql_agg[1] == ref_agg[1]
    assert sql_agg[2] == ref_agg[2]
    assert [row[:5] for row in sql_agg[0]] == [row[:5] for row in ref_agg[0]]
    for sql_row, ref_row in zip(sql_agg[0], ref_agg[0]):
        assert sql_row[5] == pytest.approx(ref_row[5], rel=1e-12)


def test_density_speedup_floor(density_data):
    """Acceptance pin: ported FDBSCAN >= 3x the pre-port path at
    n=1000, S=64 — and still the exact same labels."""
    model = FDBSCAN(n_samples=DENSITY_S)
    ported = model.fit(density_data, seed=0)  # also warms both paths
    legacy_labels = _legacy_fdbscan_fit(model, density_data, 0)
    np.testing.assert_array_equal(ported.labels, legacy_labels)

    ported_time = _best_of(lambda: model.fit(density_data, seed=0), repeats=2)
    legacy_time = _best_of(
        lambda: _legacy_fdbscan_fit(model, density_data, 0), repeats=2
    )
    speedup = legacy_time / ported_time
    assert speedup >= 3.0, (
        f"density port speedup {speedup:.1f}x below the 3x floor "
        f"(ported {ported_time * 1e3:.0f} ms, legacy {legacy_time * 1e3:.0f} ms)"
    )


# ----------------------------------------------------------------------
# Million-object scale path: Elkan bounds vs the full Lloyd ED pass.
# ----------------------------------------------------------------------
SCALE_N = 100_000
SCALE_SMOKE_N = 20_000
SCALE_K = 20
SCALE_S = 32
SCALE_M = 8
SCALE_ITERS = 5  # enough post-warmup iterations for the bounds to pay


def _scale_dataset(n):
    return make_blobs_uncertain(
        n_objects=n,
        n_clusters=SCALE_K,
        n_attributes=SCALE_M,
        separation=3.0,
        seed=42,
    )


@pytest.fixture(scope="module")
def scale_smoke_data():
    return _scale_dataset(SCALE_SMOKE_N)


def test_bounded_ukmeans_smoke(benchmark, scale_smoke_data):
    from repro.clustering import BoundedUKMeans

    benchmark.group = "scale-path"
    model = BoundedUKMeans(SCALE_K, n_samples=SCALE_S, max_iter=SCALE_ITERS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        benchmark(model.fit, scale_smoke_data, 0)


def test_basic_ukmeans_smoke(benchmark, scale_smoke_data):
    benchmark.group = "scale-path"
    model = BasicUKMeans(SCALE_K, n_samples=SCALE_S, max_iter=SCALE_ITERS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        benchmark(model.fit, scale_smoke_data, 0)


def test_bounded_ukmeans_skip_counter_floor(scale_smoke_data):
    """Acceptance pin: at n=20_000 the Elkan bounds skip >= 50% of the
    assignment-row ED evaluations — counter-asserted, not inferred
    from wall clock — while the labels stay exactly Basic's."""
    from repro.clustering import BoundedUKMeans

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        bounded = BoundedUKMeans(
            SCALE_K, n_samples=SCALE_S, max_iter=SCALE_ITERS
        ).fit(scale_smoke_data, seed=0)
        basic = BasicUKMeans(
            SCALE_K, n_samples=SCALE_S, max_iter=SCALE_ITERS
        ).fit(scale_smoke_data, seed=0)
    np.testing.assert_array_equal(basic.labels, bounded.labels)
    extras = bounded.extras
    total = bounded.n_iterations * SCALE_SMOKE_N * SCALE_K
    assert extras["ed_evaluations"] + extras["ed_skipped"] == total
    assert extras["skip_rate"] >= 0.5, (
        f"skip rate {extras['skip_rate']:.3f} below the 0.5 floor "
        f"({extras['ed_evaluations']} of {total} EDs evaluated)"
    )


def test_bounded_ukmeans_scale_speedup_floor():
    """Acceptance pin: at n=100_000 (S=32, m=8, k=20) Elkan-bounded
    UK-means runs >= 2x faster than BasicUKMeans over the same
    iterations — with bit-identical labels, because every compared ED
    goes through the literal Basic kernel and all pruning tests are
    strict inequalities on exact mean-plane distances."""
    from repro.clustering import BoundedUKMeans

    data = _scale_dataset(SCALE_N)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        bounded = BoundedUKMeans(
            SCALE_K, n_samples=SCALE_S, max_iter=SCALE_ITERS
        ).fit(data, seed=0)
        basic = BasicUKMeans(
            SCALE_K, n_samples=SCALE_S, max_iter=SCALE_ITERS
        ).fit(data, seed=0)
    np.testing.assert_array_equal(basic.labels, bounded.labels)
    speedup = basic.runtime_seconds / bounded.runtime_seconds
    assert speedup >= 2.0, (
        f"bounded UK-means speedup {speedup:.2f}x below the 2x floor "
        f"(bounded {bounded.runtime_seconds:.1f} s, "
        f"basic {basic.runtime_seconds:.1f} s)"
    )
