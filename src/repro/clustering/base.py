"""Shared clustering interfaces and result types.

Every algorithm in :mod:`repro.clustering` — partitional, density-based
and hierarchical alike — consumes an :class:`~repro.objects.dataset.
UncertainDataset` and produces a :class:`ClusteringResult`, so the
evaluation protocol and experiment harness treat all of them uniformly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro._typing import IntArray, SeedLike
from repro.exceptions import InvalidParameterError, warn_convergence
from repro.objects.dataset import UncertainDataset
from repro.utils.timer import Stopwatch


@dataclass
class ClusteringResult:
    """Outcome of one clustering run.

    Attributes
    ----------
    labels:
        Cluster index per object, shape ``(n,)``.  Density-based methods
        may emit ``-1`` for noise objects.
    objective:
        Final value of the algorithm's own objective function (NaN for
        algorithms without one, e.g. FDBSCAN).
    n_iterations:
        Outer iterations executed (``I`` in the paper's complexity
        analyses); 1 for single-pass methods.
    converged:
        Whether the stopping criterion was reached before the iteration
        cap.
    runtime_seconds:
        Wall-clock "on-line" clustering time — excludes any off-line
        moment/sample precomputation, matching the paper's timing
        methodology (Section 5.2.2).
    objective_history:
        Objective value after each iteration (empty when not tracked).
    extras:
        Algorithm-specific diagnostics (e.g. pruning counters).
    """

    labels: IntArray
    objective: float = float("nan")
    n_iterations: int = 1
    converged: bool = True
    runtime_seconds: float = 0.0
    objective_history: List[float] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64)

    @property
    def n_objects(self) -> int:
        """Number of clustered objects."""
        return self.labels.shape[0]

    @property
    def n_clusters(self) -> int:
        """Number of non-noise clusters present in the labeling."""
        real = self.labels[self.labels >= 0]
        if real.size == 0:
            return 0
        return int(np.unique(real).size)

    @property
    def n_noise(self) -> int:
        """Number of objects labeled as noise (-1)."""
        return int(np.sum(self.labels < 0))

    def clusters(self) -> List[List[int]]:
        """Object indices grouped per cluster (noise excluded)."""
        groups: Dict[int, List[int]] = {}
        for idx, lab in enumerate(self.labels):
            if lab >= 0:
                groups.setdefault(int(lab), []).append(idx)
        return [groups[key] for key in sorted(groups)]

    def relabeled(self) -> "ClusteringResult":
        """Copy with cluster ids compacted to ``0..k-1`` (noise kept as -1)."""
        labels = self.labels.copy()
        real = labels >= 0
        labels[real] = np.unique(labels[real], return_inverse=True)[1]
        return replace(
            self,
            labels=labels,
            objective_history=list(self.objective_history),
            extras=dict(self.extras),
        )


class UncertainClusterer(abc.ABC):
    """Base class for every clustering algorithm in the library.

    Subclasses implement :meth:`fit`; the constructor of each subclass
    carries the algorithm's hyperparameters so that one configured
    instance can be reused across datasets and runs (the experiment
    harness relies on this).
    """

    #: Human-readable algorithm name used in reports (paper's abbreviations).
    name: str = "clusterer"

    #: Whether :meth:`fit` produces a comparable ``objective`` value.
    #: Algorithms without one (density-based, hierarchical) cannot be
    #: ranked by a best-of-``n_init`` loop, so callers should skip
    #: multi-restart execution for them.
    has_objective: bool = True

    #: Whether :meth:`fit` reads the dataset's pairwise ``ÊD`` matrix,
    #: :meth:`UncertainDataset.pairwise_ed` (the off-line phase of
    #: UK-medoids and of U-AHC's ``"ed"`` linkage).  The matrix is
    #: cached on the dataset; the multi-restart engine builds it before
    #: dispatching a declaring algorithm's restarts, so pool threads
    #: never race to build it and the process pool can publish it to
    #: its workers through shared memory.
    wants_pairwise_ed: bool = False

    #: Backend family the engine (``repro.engine.choose_backend``)
    #: dispatches this algorithm to when parallel workers are
    #: available and the fit is big enough to pay for them: ``"threads"``
    #: for fits dominated by GIL-releasing moment/tensor kernels (the
    #: default), ``"processes"`` for interpreter-bound relocation/merge
    #: loops (UCPC, MMVar, UK-medoids, UAHC).
    preferred_backend: str = "threads"

    @abc.abstractmethod
    def fit(self, dataset: UncertainDataset, seed: SeedLike = None) -> ClusteringResult:
        """Cluster ``dataset`` and return a :class:`ClusteringResult`."""

    def _result(
        self,
        watch: Stopwatch,
        labels: IntArray,
        objective: float = float("nan"),
        iterations: int = 1,
        converged: bool = True,
        history: Sequence[float] = (),
        extras: Optional[Dict[str, object]] = None,
    ) -> ClusteringResult:
        """The report every :meth:`fit` ends with.

        ``runtime_seconds`` is ``watch``'s on-line time only (Section
        5.2.2), and a fit that stopped at ``max_iter`` unconverged warns
        once, under the algorithm's :attr:`name`.
        """
        if not converged:
            warn_convergence(
                f"{self.name} hit max_iter={self.max_iter} before convergence"
            )
        return ClusteringResult(
            labels=labels,
            objective=objective,
            n_iterations=iterations,
            converged=converged,
            runtime_seconds=watch.elapsed_seconds,
            objective_history=list(history),
            extras={} if extras is None else extras,
        )

    def fit_best(
        self,
        dataset: UncertainDataset,
        seed: SeedLike = None,
        n_init: int = 10,
        n_jobs: int = 1,
        early_stopping=None,
    ) -> ClusteringResult:
        """Best-of-``n_init`` restarts via the multi-restart engine.

        Convenience wrapper around
        :class:`repro.engine.MultiRestartRunner`: restarts share the
        dataset's moment cache, one precomputed sample tensor (for
        sample-based algorithms) and one pairwise ``ÊD`` matrix (for
        ``wants_pairwise_ed`` algorithms), execute on up to ``n_jobs``
        workers (the engine picks serial, threads or processes from
        ``n_jobs`` and the algorithm; results never depend on it),
        optionally stop early once ``early_stopping`` restarts bring no
        improvement, and the lowest-objective result wins.
        """
        from repro.engine import MultiRestartRunner

        runner = MultiRestartRunner(
            self,
            n_init=n_init,
            n_jobs=n_jobs,
            early_stopping=early_stopping,
        )
        return runner.run(dataset, seed=seed)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def validate_n_clusters(n_clusters: int, n_objects: int) -> int:
    """Validate a cluster-count hyperparameter against a dataset size."""
    if not isinstance(n_clusters, (int, np.integer)) or n_clusters < 1:
        raise InvalidParameterError(
            f"n_clusters must be a positive integer, got {n_clusters!r}"
        )
    if n_clusters > n_objects:
        raise InvalidParameterError(
            f"n_clusters ({n_clusters}) exceeds dataset size ({n_objects})"
        )
    return int(n_clusters)
