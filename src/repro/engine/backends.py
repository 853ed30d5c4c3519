"""Execution backends for the multi-restart engine.

The engine's restarts are embarrassingly parallel, but *how* they should
execute depends on the algorithm family:

* **serial** — one restart after another in the calling process.  The
  right choice for quick fits and the reference semantics every other
  backend must reproduce bit-for-bit.
* **threads** — a ``ThreadPoolExecutor`` sharing the process address
  space.  NumPy's kernels release the GIL, so moment-based fits
  (UK-means, MMVar, UCPC) scale across cores *without serializing a
  single byte*: every restart reads the same moment matrices and sample
  tensor in place.
* **processes** — a ``ProcessPoolExecutor`` for fits whose Python-level
  bookkeeping would serialize on the GIL.  The dataset's stacked moment
  matrices, the engine's batched ``(n, S, m)`` sample tensor and the
  dataset's pairwise ``ÊD`` matrix (for ``wants_pairwise_ed``
  algorithms) are published **once** through
  :mod:`multiprocessing.shared_memory`; workers attach to the blocks by
  name instead of receiving pickled copies, so the per-restart (and
  per-worker) pickling cost no longer grows with ``n·S·m`` or ``n^2``.

``n_jobs`` is the engine's only execution setting: :func:`choose_backend`
picks the backend of every run-set from it and from the algorithm.
Pools submit one restart per task.

Determinism contract
--------------------
``ExecutionBackend.run`` consumes completed restarts strictly in
*submission order* (seed order), and the optional early-stopping rule is
evaluated on that ordered stream.  Out-of-order completion in a pool can
therefore never change which restarts are kept: for a fixed seed list,
every backend returns the identical result prefix, and the engine's
best-of selection is bit-identical across ``serial``/``threads``/
``processes`` — the backend-invariance tests pin this.
"""

from __future__ import annotations

import abc
import os
import pickle
import threading
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.clustering.base import ClusteringResult, UncertainClusterer
from repro.exceptions import InvalidParameterError
from repro.objects.dataset import UncertainDataset
from repro.utils.validation import check_int_range, check_positive

#: Per-fit element floor at or below which :func:`choose_backend` stays
#: serial: fits touching this little data are sub-millisecond, so pool
#: spin-up and task dispatch would dominate any parallel win.  The count
#: is ``n * m`` scaled by the algorithm's Monte-Carlo ``n_samples`` when
#: it is sample-based — an (n, S, m) tensor sweep is not sub-ms just
#: because the dataset is small.
AUTO_SERIAL_ELEMENTS = 4096

#: Seconds between a pool worker's checks that its parent is alive.
_PARENT_POLL_SECONDS = 0.5


@dataclass(frozen=True)
class EarlyStopping:
    """Engine-level early stopping across restarts.

    Stop *scheduling* new restarts once the best objective seen so far
    has not improved for ``patience`` consecutive completed restarts,
    evaluated in submission (seed) order.  Restarts beyond the stopping
    point are never part of the result, even if a parallel backend had
    already started them — so the selected best run is identical for
    every backend.

    Parameters
    ----------
    patience:
        Number of consecutive non-improving restarts tolerated before
        the engine stops scheduling further ones.
    min_improvement:
        Absolute objective decrease below which a restart counts as
        non-improving (0.0 = any strict decrease resets the counter).
    """

    patience: int
    min_improvement: float = 0.0

    def __post_init__(self) -> None:
        check_int_range(self.patience, "patience", low=1)
        check_positive(self.min_improvement, "min_improvement", strict=False)


class _StopClock:
    """Applies an :class:`EarlyStopping` rule to a submission-order stream."""

    def __init__(self, rule: Optional[EarlyStopping]):
        self.rule = rule
        self.best = float("inf")
        self.stale = 0

    def should_stop(self, objective: float) -> bool:
        """Record one completed restart; True = stop scheduling more.

        NaN objectives (objective-less algorithms) never improve, so
        with early stopping enabled they exhaust ``patience`` quickly —
        the runner already warns that such restarts cannot be ranked.
        """
        if self.rule is None:
            return False
        objective = float(objective)
        if not np.isnan(objective) and (
            objective < self.best - self.rule.min_improvement
        ):
            self.best = objective
            self.stale = 0
        else:
            self.stale += 1
        return self.stale >= self.rule.patience


class ExecutionBackend(abc.ABC):
    """How the engine maps restart seeds to :class:`ClusteringResult`.

    Implementations must preserve the determinism contract documented in
    the module docstring: results come back in seed order, truncated at
    the point the early-stopping rule fires on the ordered stream.
    """

    #: Identifier recorded in the winning result's ``extras``.
    name: str = "backend"

    @abc.abstractmethod
    def run(
        self,
        clusterer: UncertainClusterer,
        dataset: UncertainDataset,
        seeds: Sequence[int],
        early_stopping: Optional[EarlyStopping] = None,
    ) -> List[ClusteringResult]:
        """Fit one restart per seed; return results in seed order."""


def _run_serially(
    clusterer: UncertainClusterer,
    dataset: UncertainDataset,
    seeds: Sequence[int],
    early_stopping: Optional[EarlyStopping],
) -> List[ClusteringResult]:
    clock = _StopClock(early_stopping)
    results: List[ClusteringResult] = []
    for seed in seeds:
        result = clusterer.fit(dataset, seed=seed)
        results.append(result)
        if clock.should_stop(result.objective):
            break
    return results


def _drive_pool(
    submit: Callable[[int], Future],
    seeds: Sequence[int],
    early_stopping: Optional[EarlyStopping],
    workers: int,
) -> List[ClusteringResult]:
    """Pool driver with submission-order consumption, one seed per task.

    Without early stopping every seed is submitted upfront (the executor
    keeps all workers busy); with it, at most ``workers`` restarts are in
    flight, bounding the work scheduled past a stop decision.
    Completions are consumed strictly in submission order, so the
    early-stopping decision — and hence the returned prefix — cannot
    depend on pool scheduling.

    Whatever ends the run — the stopping rule, a failing restart or an
    interrupt — every restart not yet started is cancelled, so the
    executor's shutdown waits only for the ones already running.
    """
    seeds = list(seeds)
    window = workers if early_stopping is not None else len(seeds)
    clock = _StopClock(early_stopping)
    results: List[ClusteringResult] = []
    in_flight: deque[Future] = deque()
    submitted = 0
    try:
        while True:
            while submitted < len(seeds) and len(in_flight) < window:
                in_flight.append(submit(seeds[submitted]))
                submitted += 1
            if not in_flight:
                return results
            result = in_flight.popleft().result()
            results.append(result)
            if clock.should_stop(result.objective):
                return results
    finally:
        for future in in_flight:
            future.cancel()


class SerialBackend(ExecutionBackend):
    """Sequential in-process execution — the reference semantics."""

    name = "serial"

    def run(self, clusterer, dataset, seeds, early_stopping=None):
        return _run_serially(clusterer, dataset, seeds, early_stopping)


class ThreadBackend(ExecutionBackend):
    """Thread-pool execution over the shared address space.

    Nothing is serialized: every worker thread calls
    ``clusterer.fit(dataset, seed)`` on the *same* objects, reading the
    shared moment matrices and (for sample-based algorithms) the pinned
    sample tensor in place.  Fits are instance-state-free, and NumPy
    releases the GIL inside its kernels, so moment-based algorithms
    scale with cores while Python-loop-heavy fits degrade gracefully to
    roughly serial speed.
    """

    name = "threads"

    def __init__(self, n_jobs: int):
        self.n_jobs = check_int_range(n_jobs, "n_jobs", low=1)

    def run(self, clusterer, dataset, seeds, early_stopping=None):
        if self.n_jobs == 1 or len(seeds) == 1:
            return _run_serially(clusterer, dataset, seeds, early_stopping)
        workers = min(self.n_jobs, len(seeds))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return _drive_pool(
                lambda seed: pool.submit(clusterer.fit, dataset, seed=seed),
                seeds,
                early_stopping,
                workers,
            )


# ----------------------------------------------------------------------
# Shared-memory plumbing for the process backend
# ----------------------------------------------------------------------
#: (shm name, shape, dtype string) — everything a worker needs to attach.
_ShmSpec = Tuple[str, Tuple[int, ...], str]


class _SharedNDArray:
    """An ndarray published once in a :class:`SharedMemory` block."""

    def __init__(self, array: np.ndarray):
        array = np.ascontiguousarray(array)
        self.shape = array.shape
        self.dtype = array.dtype.str
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(1, array.nbytes)
        )
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=self.shm.buf)
        view[...] = array

    @property
    def spec(self) -> _ShmSpec:
        return (self.shm.name, self.shape, self.dtype)

    def destroy(self) -> None:
        """Close and unlink the block (idempotent)."""
        try:
            self.shm.close()
            self.shm.unlink()
        except FileNotFoundError:  # already unlinked
            pass


def _attach_shared(spec: _ShmSpec) -> Tuple[shared_memory.SharedMemory, np.ndarray]:
    """Worker-side attach: a read-only ndarray view over the named block.

    The parent owns the block's lifecycle (``_SharedNDArray.destroy``),
    so on Python >= 3.13 the attach opts out of resource tracking.  On
    older versions pool workers share the parent's tracker process and
    its name registry is a set, so the attach-side registration dedupes
    against the parent's own and the parent's ``unlink`` retires the
    name exactly once — workers must *not* unregister manually, which
    would strip the parent's entry instead.
    """
    name, shape, dtype = spec
    try:  # Python >= 3.13
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        shm = shared_memory.SharedMemory(name=name)
    array = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    array.setflags(write=False)
    return shm, array


#: Per-worker-process state installed by :func:`_init_shared_worker`.
_WORKER_STATE: Dict[str, object] = {}


def _init_shared_worker(payload: Dict[str, object]) -> None:
    """Pool initializer: rebuild the dataset/clusterer around shared blocks.

    Runs once per worker process.  The pickled parts are the light ones
    (hyperparameters, the dataset's source record and labels); every
    large array — moment matrices, the sample tensor and the ``ÊD``
    matrix — arrives as a shared-memory spec and is attached, not
    copied.  It also starts the worker's parent watchdog
    (:func:`_exit_with_parent`).
    """
    shms = []
    views = {}
    for key, spec in payload["blocks"].items():
        shm, view = _attach_shared(spec)
        shms.append(shm)
        views[key] = view
    source, labels = pickle.loads(payload["dataset"])
    dataset = UncertainDataset._from_source(
        source, views["mu"], views["mu2"], labels,
        sigma2=views["sigma2"], pairwise_ed=views.get("pairwise_ed"),
    )
    clusterer = pickle.loads(payload["clusterer"])
    if payload["sample"] is not None:
        shm, tensor = _attach_shared(payload["sample"])
        shms.append(shm)
        clusterer.sample_cache = tensor
    # Keep the SharedMemory handles referenced for the process lifetime;
    # dropping them would invalidate the array views' buffers.
    _WORKER_STATE["shms"] = shms
    _WORKER_STATE["clusterer"] = clusterer
    _WORKER_STATE["dataset"] = dataset
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), daemon=True
    ).start()


def _exit_with_parent(parent: int) -> None:
    """Worker watchdog: exit once the process that started us is gone.

    A parent killed outright (SIGKILL) never shuts its pool down, so
    its workers would block on the task queue forever — and the
    resource tracker unlinks the run's shared-memory blocks only once
    every process holding them has exited.
    """
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_SECONDS)
    os._exit(1)


def _fit_shared(seed: int) -> ClusteringResult:
    return _WORKER_STATE["clusterer"].fit(_WORKER_STATE["dataset"], seed=seed)


class SharedBlockRegistry:
    """Interns shared-memory blocks for arrays reused across run-sets.

    One engine run-set publishes its big arrays and unlinks them when it
    finishes.  A *sweep* over many run-sets on one dataset would pay
    that publication once per cell; this registry, activated with
    :func:`shared_block_registry`, lets the process backend reuse a
    block for the *same ndarray object* across runs — the dataset's
    moment matrices and the cached ``ÊD`` matrix are stable read-only
    objects, so identity is the correct cache key.  Per-cell arrays
    (sample tensors) are never interned: retaining every cell's tensor
    until the registry closes would grow without bound.

    All interned blocks are unlinked when the context exits, including
    on error; runs inside the context must therefore never outlive it.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[np.ndarray, _SharedNDArray]] = {}

    def intern(self, array: np.ndarray) -> _SharedNDArray:
        """The block publishing ``array``, created on first sight."""
        key = id(array)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is array:
            return entry[1]
        block = _SharedNDArray(array)
        self._entries[key] = (array, block)
        return block

    def destroy_all(self) -> None:
        entries = list(self._entries.values())
        self._entries.clear()
        for _, block in entries:
            block.destroy()


#: The registry runs inside ``shared_block_registry()`` consult, if any.
_ACTIVE_BLOCK_REGISTRY: Optional[SharedBlockRegistry] = None


@contextmanager
def shared_block_registry() -> "Iterator[SharedBlockRegistry]":
    """Scope within which process-backend runs share stable blocks.

    Used by the sweep orchestrator around each dataset group: every
    run-set inside the scope that executes on ``processes`` publishes
    the group's moment matrices and ``ÊD`` matrix to shared memory
    **once**, instead of once per cell.  Nesting is not
    supported — the sweep's group loop is strictly sequential.
    """
    global _ACTIVE_BLOCK_REGISTRY
    if _ACTIVE_BLOCK_REGISTRY is not None:
        raise InvalidParameterError(
            "shared_block_registry scopes cannot be nested"
        )
    registry = SharedBlockRegistry()
    _ACTIVE_BLOCK_REGISTRY = registry
    try:
        yield registry
    finally:
        _ACTIVE_BLOCK_REGISTRY = None
        registry.destroy_all()


class ProcessBackend(ExecutionBackend):
    """Process-pool execution over shared-memory tensors.

    Publication happens once per ``run``: the dataset's ``(n, m)``
    moment matrices, the engine-pinned ``(n, S, m)`` sample tensor and
    the dataset's ``(n, n)`` :meth:`~UncertainDataset.pairwise_ed`
    matrix (for ``wants_pairwise_ed`` algorithms) go into shared-memory
    blocks; workers attach by name.  The clusterer is pickled with the
    tensor stripped and the dataset as its source record and labels
    (:meth:`~UncertainDataset._moment_free_state`), so neither the
    tensor nor the matrix is ever serialized, and no generated
    dataset's objects are (the backend tests assert both with spies).
    All blocks are unlinked when the run finishes, including when a
    worker crashes.
    """

    name = "processes"

    def __init__(self, n_jobs: int):
        self.n_jobs = check_int_range(n_jobs, "n_jobs", low=1)
        #: Specs of the most recent run's blocks — exposed so tests can
        #: verify they were unlinked.
        self.last_shared_specs: List[_ShmSpec] = []

    def run(self, clusterer, dataset, seeds, early_stopping=None):
        if self.n_jobs == 1 or len(seeds) == 1:
            return _run_serially(clusterer, dataset, seeds, early_stopping)
        registry = _ACTIVE_BLOCK_REGISTRY
        #: Blocks this run created and must unlink itself; registry
        #: blocks outlive the run and are unlinked by the registry scope.
        owned: List[_SharedNDArray] = []
        specs: List[_ShmSpec] = []

        def publish(array: np.ndarray, stable: bool) -> _SharedNDArray:
            """Publish ``array``; intern only stable per-dataset arrays."""
            if stable and registry is not None:
                block = registry.intern(array)
            else:
                block = _SharedNDArray(array)
                owned.append(block)
            specs.append(block.spec)
            return block

        try:
            blocks = {
                "mu": publish(dataset.mu_matrix, stable=True),
                "mu2": publish(dataset.mu2_matrix, stable=True),
                "sigma2": publish(dataset.sigma2_matrix, stable=True),
            }
            if getattr(clusterer, "wants_pairwise_ed", False):
                # One cached matrix object per dataset, so the registry
                # interns it once per group like the moment matrices.
                blocks["pairwise_ed"] = publish(
                    dataset.pairwise_ed(), stable=True
                )
            tensor = getattr(clusterer, "sample_cache", None)
            sample_block = None
            if tensor is not None:
                # Per-cell tensors: never interned (fresh draw per run-set).
                sample_block = publish(np.asarray(tensor), stable=False)
            payload = {
                "clusterer": self._pickle_without_tensor(clusterer),
                "dataset": pickle.dumps(dataset._moment_free_state()),
                "blocks": {key: blk.spec for key, blk in blocks.items()},
                "sample": None if sample_block is None else sample_block.spec,
            }
            self.last_shared_specs = specs
            workers = min(self.n_jobs, len(seeds))
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_shared_worker,
                initargs=(payload,),
            ) as pool:
                return _drive_pool(
                    lambda seed: pool.submit(_fit_shared, seed),
                    seeds,
                    early_stopping,
                    workers,
                )
        finally:
            for block in owned:
                block.destroy()

    @staticmethod
    def _pickle_without_tensor(clusterer: UncertainClusterer) -> bytes:
        """Pickle the clusterer with its sample tensor detached."""
        tensor = getattr(clusterer, "sample_cache", None)
        if tensor is None:
            return pickle.dumps(clusterer)
        clusterer.sample_cache = None
        try:
            return pickle.dumps(clusterer)
        finally:
            clusterer.sample_cache = tensor


def choose_backend(
    clusterer: UncertainClusterer,
    dataset: UncertainDataset,
    n_restarts: int,
    n_jobs: int,
) -> ExecutionBackend:
    """The backend one run-set of ``n_restarts`` fits executes on.

    The right backend depends on the algorithm family, not the call
    site: moment/tensor kernels scale on threads (NumPy releases the
    GIL), interpreter-bound relocation loops need the process pool, and
    sub-ms fits are fastest serial.  So:

    * ``n_jobs == 1`` or a single restart → **serial** (nothing to
      parallelize);
    * at most :data:`AUTO_SERIAL_ELEMENTS` elements per fit →
      **serial** (pool overhead dominates sub-ms fits);
    * otherwise the clusterer's declared ``preferred_backend`` family —
      ``threads`` (the default) or ``processes`` (UCPC, MMVar,
      UK-medoids, UAHC).

    Every candidate is result-identical for fixed seeds, so the choice
    only ever changes wall-clock time.
    """
    n_samples = getattr(clusterer, "n_samples", None)
    per_fit_elements = len(dataset) * dataset.dim * max(1, int(n_samples or 1))
    if n_jobs == 1 or n_restarts <= 1 or per_fit_elements <= AUTO_SERIAL_ELEMENTS:
        return SerialBackend()
    if getattr(clusterer, "preferred_backend", "threads") == "processes":
        return ProcessBackend(n_jobs)
    return ThreadBackend(n_jobs)
