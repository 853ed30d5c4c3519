"""Multi-restart execution of any :class:`UncertainClusterer`.

K-means-style objectives are non-convex, so production deployments run
``n_init`` random restarts and keep the best local optimum — sklearn's
``n_init`` idiom lifted to uncertain clustering.  The runner factors the
expensive, restart-invariant work out of the loop:

* the **moment cache** is already shared for free — every restart reads
  the same :class:`~repro.objects.dataset.UncertainDataset`, whose
  stacked moment matrices are computed once at construction;
* the **sample cache** is drawn once via
  :meth:`UncertainDataset.sample_tensor` and injected into sample-based
  algorithms (those exposing ``n_samples``/``sample_cache``), so ``S``
  Monte-Carlo draws per object happen once instead of once per restart;
* the **pairwise ``ÊD`` matrix** of algorithms declaring
  ``wants_pairwise_ed`` (UK-medoids, U-AHC ``"ed"``) lives on the
  dataset too (:meth:`UncertainDataset.pairwise_ed`): the runner builds
  it once before dispatch, so the O(n^2 m) matrix — an *off-line*
  phase in the paper's accounting, excluded from every reported
  runtime — is never rebuilt per restart.

Restarts are independent, so each run-set executes on the
:class:`~repro.engine.backends.ExecutionBackend` that
:func:`~repro.engine.backends.choose_backend` picks from ``n_jobs`` and
the algorithm — serial, thread pool (nothing serialized; NumPy kernels
release the GIL) or process pool (moment matrices, the sample tensor
and the ``ÊD`` matrix published once via shared memory).  Per-restart
seeds are spawned up front from one seed sequence and completions are
consumed in submission order, making results identical for every
backend — including with engine-level early stopping enabled.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro._typing import SeedLike
from repro.clustering.base import ClusteringResult, UncertainClusterer
from repro.engine.backends import EarlyStopping, choose_backend
from repro.exceptions import InvalidParameterError, warn_convergence
from repro.objects.dataset import UncertainDataset
from repro.utils.rng import check_seed
from repro.utils.validation import check_int_range


@dataclass(frozen=True)
class RestartRecord:
    """Summary of one restart, kept in the winner's ``extras``."""

    restart: int
    seed: int
    objective: float
    n_iterations: int
    converged: bool
    runtime_seconds: float


def _spawn_seeds(seed: SeedLike, count: int) -> List[int]:
    """Derive ``count`` independent integer seeds from any seed form.

    Prefix-stable: the first ``k`` seeds of a ``count``-sized spawn
    equal a ``k``-sized spawn (SeedSequence children are indexed;
    Generator draws are sequential), so callers may derive extra seeds
    lazily without perturbing the ones already handed out.
    """
    check_seed(seed)
    if isinstance(seed, np.random.Generator):
        return [int(s) for s in seed.integers(0, 2**63 - 1, size=count)]
    sequence = np.random.SeedSequence(seed)
    return [
        int(child.generate_state(1, dtype=np.uint64)[0] >> 1)
        for child in sequence.spawn(count)
    ]


class MultiRestartRunner:
    """Best-of-``n_init`` execution of a configured clusterer.

    Parameters
    ----------
    clusterer:
        Any :class:`UncertainClusterer`; reused as-is for every restart.
    n_init:
        Number of random restarts (each gets an independent seed).
    n_jobs:
        Worker count, the only execution setting: each run-set executes
        on the backend :func:`~repro.engine.backends.choose_backend`
        picks from it and the algorithm.  Restarts stay seeded
        identically and completions are consumed in submission order,
        so the result does not depend on ``n_jobs``.
    share_samples:
        Draw one :meth:`UncertainDataset.sample_tensor` and share it
        across restarts when the algorithm is sample-based.  Restarts
        then differ only in initialization, mirroring how the paper
        fixes the sample sets while varying seeds.
    early_stopping:
        ``None`` (run every restart), an
        :class:`~repro.engine.backends.EarlyStopping` rule, or an int
        shorthand for ``EarlyStopping(patience=...)``.  Applied by
        :meth:`run` only — :meth:`run_all` is a measurement surface and
        always executes every requested restart.
    """

    def __init__(
        self,
        clusterer: UncertainClusterer,
        n_init: int = 10,
        n_jobs: int = 1,
        share_samples: bool = True,
        early_stopping: Optional[EarlyStopping | int] = None,
    ):
        self.clusterer = clusterer
        self.n_init = check_int_range(n_init, "n_init", low=1)
        self.n_jobs = check_int_range(n_jobs, "n_jobs", low=1)
        self.share_samples = bool(share_samples)
        if early_stopping is not None and not isinstance(early_stopping, EarlyStopping):
            early_stopping = EarlyStopping(patience=early_stopping)
        self.early_stopping = early_stopping

    # ------------------------------------------------------------------
    def run(
        self, dataset: UncertainDataset, seed: SeedLike = None
    ) -> ClusteringResult:
        """Run every restart and return the best-objective result.

        The winner's ``extras`` gain ``n_init``, ``best_restart``,
        ``engine_jobs``, ``engine_backend`` (the backend the run-set
        executed on), ``shared_samples``,
        ``restarts_executed``, ``early_stopped`` and
        ``restart_history`` (one dict per executed restart); its
        ``objective_history`` is preserved from the winning run.  Lower
        objective wins; NaN objectives (methods without one) lose to
        any finite objective and fall back to the first restart.

        With ``early_stopping`` set, scheduling stops once the best
        objective has not improved for ``patience`` completed restarts
        (evaluated in seed order, so the outcome is backend-invariant);
        ``restart_history`` then covers only the executed prefix.
        """
        if self.n_init > 1 and not getattr(self.clusterer, "has_objective", True):
            warnings.warn(
                f"{type(self.clusterer).__name__} produces no objective; "
                f"restarts cannot be ranked and best-of-{self.n_init} will "
                "return the first restart at n_init times the cost",
                UserWarning,
                stacklevel=2,
            )
        need_sample = self._needs_sample_cache()
        restart_seeds, sample_seed = self._derive_seeds(seed, need_sample)
        backend_name, results = self._run_with_cache(
            dataset, restart_seeds, sample_seed, need_sample,
            early_stopping=self.early_stopping,
        )
        return self._select_best(
            results, restart_seeds, self._shared(need_sample), backend_name
        )

    def run_all(
        self,
        dataset: UncertainDataset,
        seed: SeedLike = None,
        *,
        seeds: Optional[Sequence[SeedLike]] = None,
    ) -> List[ClusteringResult]:
        """Run every restart and return *all* results, in restart order.

        This is the engine entry point for callers that aggregate over
        runs instead of keeping the best — the experiment runners
        average metrics over ``n_runs`` seeded fits while still sharing
        the dataset's moment matrices and one sample tensor.

        Parameters
        ----------
        seed:
            Seeds both the derived restart seeds and (for sample-based
            algorithms) the shared tensor draw.
        seeds:
            Explicit per-restart seeds; overrides ``n_init`` (one
            restart per entry) and leaves ``seed`` as the source of the
            shared-tensor draw only.  Restarts are fitted exactly as
            ``clusterer.fit(dataset, seed=seeds[i])`` would, so a caller
            can reproduce (and test against) the direct per-fit path.

        Notes
        -----
        ``run_all`` executes on the same backend as :meth:`run` but
        ignores ``early_stopping``: callers aggregate over *all* runs, so
        truncating the series would silently change the measurement.
        """
        need_sample = self._needs_sample_cache()
        if seeds is None:
            restart_seeds, sample_seed = self._derive_seeds(seed, need_sample)
        else:
            restart_seeds = list(seeds)
            if not restart_seeds:
                raise InvalidParameterError("seeds must not be empty")
            # ``seed`` may legitimately be None here (fresh entropy for
            # the shared draw) — ``need_sample`` alone decides whether
            # the tensor is drawn.
            sample_seed = seed
        _backend_name, results = self._run_with_cache(
            dataset, restart_seeds, sample_seed, need_sample
        )
        return results

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _needs_sample_cache(self) -> bool:
        """Whether a shared tensor must be drawn for this clusterer."""
        if not self.share_samples:
            return False
        if getattr(self.clusterer, "sample_cache", None) is not None:
            # The caller already pinned a tensor; nothing to draw.
            return False
        return (
            getattr(self.clusterer, "n_samples", None) is not None
            and hasattr(self.clusterer, "sample_cache")
        )

    def _shared(self, need_sample: bool) -> bool:
        """Whether restarts read one shared tensor (drawn or pinned)."""
        return (
            need_sample
            or getattr(self.clusterer, "sample_cache", None) is not None
        )

    def _derive_seeds(
        self, seed: SeedLike, need_sample: bool
    ) -> tuple[List[int], Optional[int]]:
        """Restart seeds plus (lazily) one shared-tensor seed.

        Restart seeds come first and are the same whether or not a
        sample seed is needed, so moment-based algorithms consume
        exactly the seeds a direct per-fit loop would — the experiment
        routing equivalence in ``tests/test_engine.py`` pins this.
        """
        if isinstance(seed, np.random.Generator):
            restart = _spawn_seeds(seed, self.n_init)
            sample = _spawn_seeds(seed, 1)[0] if need_sample else None
        else:
            total = self.n_init + (1 if need_sample else 0)
            seeds = _spawn_seeds(seed, total)
            restart = seeds[: self.n_init]
            sample = seeds[-1] if need_sample else None
        return restart, sample

    def _run_with_cache(
        self,
        dataset: UncertainDataset,
        restart_seeds: Sequence[SeedLike],
        sample_seed: Optional[SeedLike],
        need_sample: bool,
        early_stopping: Optional[EarlyStopping] = None,
    ) -> Tuple[str, List[ClusteringResult]]:
        """Execute restarts with the shared sample tensor injected/restored.

        Returns the name of the backend the restarts executed on, and
        their results.

        ``need_sample`` (not ``sample_seed``) gates the draw: a None
        seed with ``need_sample`` still draws one shared tensor, from
        fresh entropy.  For ``wants_pairwise_ed`` algorithms the
        dataset's ``ÊD`` matrix is built here, before dispatch, so pool
        threads never race to build it and the process pool publishes
        it.
        """
        cache: Optional[np.ndarray] = None
        if need_sample:
            n_samples = int(self.clusterer.n_samples)
            cache = dataset.sample_tensor(n_samples, sample_seed)
            self.clusterer.sample_cache = cache
        if getattr(self.clusterer, "wants_pairwise_ed", False):
            dataset.pairwise_ed()
        try:
            backend = choose_backend(
                self.clusterer, dataset, len(restart_seeds), self.n_jobs
            )
            return backend.name, backend.run(
                self.clusterer, dataset, restart_seeds,
                early_stopping=early_stopping,
            )
        finally:
            if cache is not None:
                self.clusterer.sample_cache = None

    def _select_best(
        self,
        results: List[ClusteringResult],
        restart_seeds: Sequence[int],
        shared: bool,
        backend_name: str,
    ) -> ClusteringResult:
        objectives = np.array([r.objective for r in results], dtype=np.float64)
        comparable = np.where(np.isnan(objectives), np.inf, objectives)
        best_idx = int(np.argmin(comparable)) if np.isfinite(comparable).any() else 0
        best = results[best_idx]
        history = [
            RestartRecord(
                restart=i,
                seed=int(restart_seeds[i]),
                objective=float(r.objective),
                n_iterations=r.n_iterations,
                converged=r.converged,
                runtime_seconds=r.runtime_seconds,
            )
            for i, r in enumerate(results)
        ]
        n_unconverged = sum(1 for r in results if not r.converged)
        if n_unconverged:
            # Per-fit warnings raised inside pool workers are swallowed
            # by the ``processes`` backend (they fire in the child);
            # one parent-side aggregate keeps non-convergence visible
            # regardless of backend, and the count below makes it
            # machine-readable for sweep reports.
            warn_convergence(
                f"{n_unconverged} of {len(results)} restarts of "
                f"{self.clusterer.name} hit their iteration cap before "
                "convergence"
            )
        extras = dict(best.extras)
        extras.update(
            n_init=self.n_init,
            best_restart=best_idx,
            n_unconverged=n_unconverged,
            engine_jobs=self.n_jobs,
            engine_backend=backend_name,
            shared_samples=shared,
            # Every run of a ÊD-matrix algorithm reads the dataset's one
            # matrix.
            shared_pairwise_ed=bool(
                getattr(self.clusterer, "wants_pairwise_ed", False)
            ),
            restarts_executed=len(results),
            early_stopped=len(results) < self.n_init,
            restart_history=[asdict(record) for record in history],
            total_runtime_seconds=float(
                sum(r.runtime_seconds for r in results)
            ),
        )
        return replace(
            best, objective_history=list(best.objective_history), extras=extras
        )


def fit_runs(
    clusterer: UncertainClusterer,
    dataset: UncertainDataset,
    seeds: Sequence[SeedLike],
    *,
    sample_seed: SeedLike = None,
    share_samples: Optional[bool] = None,
    n_jobs: int = 1,
) -> List[ClusteringResult]:
    """Fit ``clusterer`` once per seed through the engine.

    The uniform multi-run entry point of the experiment runners: the
    fits execute through :meth:`MultiRestartRunner.run_all`, sharing the
    dataset's moment matrices, — for sample-based algorithms — one
    sample tensor drawn from ``sample_seed``, and — for
    ``wants_pairwise_ed`` algorithms — the dataset's one pairwise ``ÊD``
    matrix.

    ``share_samples=None`` resolves per algorithm: algorithms whose
    only randomness is the Monte-Carlo draw
    (``sample_randomness_only``, i.e. FDBSCAN/FOPTICS) draw per-run
    tensors from their own run seeds — sharing one tensor would make
    every "run" the same realization, degrading a multi-run average to
    a single measurement — while everything else shares.  With that
    resolution the series is fit-for-fit identical to
    ``[clusterer.fit(dataset, seed=s) for s in seeds]`` for both the
    moment-based *and* the sample-deterministic algorithms.

    ``n_jobs`` sets the worker count the series may use (see
    :class:`MultiRestartRunner`); it is result-identical for fixed
    seeds, so it only affects wall-clock time.
    """
    seeds = list(seeds)
    if share_samples is None:
        share_samples = not getattr(clusterer, "sample_randomness_only", False)
    runner = MultiRestartRunner(
        clusterer,
        n_init=len(seeds),
        n_jobs=n_jobs,
        share_samples=share_samples,
    )
    return runner.run_all(dataset, seed=sample_seed, seeds=seeds)
