"""Basic UK-means [4] — sample-based expected distances (S9).

The original UK-means evaluates the expected distance

    ED_d(o, y) = ∫ d(x, y) f(x) dx

by averaging over a sample set drawn from each object's pdf, at cost
O(S·m) per object-centroid pair and O(I·S·k·n·m) total (the complexity
the paper quotes for "basic UK-means").  The sample sets are drawn once
in the off-line phase — excluded from the timed on-line loop, matching
the paper's timing methodology.

This implementation deliberately computes the Monte-Carlo average
literally (no algebraic shortcut), because its *cost profile* is part of
what Figure 4 of the paper measures.

:meth:`BasicUKMeans.fit` is the one Lloyd loop of the sample-based
family: MinMax-BB and VDBiP (:mod:`repro.clustering.pruning`) and the
Elkan/Hamerly variant (:mod:`repro.clustering.ukmeans_bounded`) are
subclasses that replace only its assignment step, skipping the ED
integrals they can prove cannot win.  Every ED they do compare comes
from :func:`expected_distances`, so each variant reproduces Basic's
iterations by construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro._typing import IntArray, PointMetric, SeedLike
from repro.clustering._repair import repair_empty_clusters
from repro.clustering._sampling import SampleCacheMixin
from repro.clustering.base import (
    ClusteringResult,
    UncertainClusterer,
    validate_n_clusters,
)
from repro.clustering.initialization import random_seed_indices
from repro.clustering.ukmeans import ukmeans_objective
from repro.objects.dataset import UncertainDataset
from repro.utils.rng import ensure_rng
from repro.utils.timer import Stopwatch
from repro.utils.validation import check_int_range


def expected_distances(
    samples: np.ndarray,
    centers: np.ndarray,
    candidates: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Monte-Carlo squared-Euclidean ``ED(o_i, c_j)``, shape ``(n, k)``.

    The literal mean over each object's samples, batched per centroid
    (so temporaries are ``(n, S, m)``, never ``(n, S, k, m)``) over the
    rows whose ``candidates[:, j]`` is set (``None``: every row); every
    other entry is ``inf``.  An entry depends only on its object and
    centroid, so it has the same bits whichever rows are computed with
    it.
    """
    out = np.full((samples.shape[0], centers.shape[0]), np.inf)
    for j, center in enumerate(centers):
        rows = slice(None) if candidates is None else np.flatnonzero(candidates[:, j])
        diff = samples[rows] - center
        out[rows, j] = np.einsum("nsm,nsm->ns", diff, diff).mean(axis=1)
    return out


def _metric_expected_distances(
    samples: np.ndarray, centers: np.ndarray, metric: PointMetric
) -> np.ndarray:
    """Monte-Carlo ``ED_d(o_i, c_j)`` under a user point metric ``d``."""
    out = np.empty((samples.shape[0], centers.shape[0]))
    for i, rows in enumerate(samples):
        for j, center in enumerate(centers):
            total = 0.0
            for row in rows:
                total += float(metric(row, center))
            out[i, j] = total / samples.shape[1]
    return out


class _FullAssignment:
    """Basic UK-means' assignment step: every ED of every pair.

    The fit builds one step per run, so whatever state a step keeps
    (bounds, caches, counters) stays with that run: the ``threads``
    backend runs restarts of one clusterer at the same time.  The
    accelerated variants subclass it and replace :meth:`assign`, and
    may pause ``watch`` around work the paper leaves out of the
    clustering time.
    """

    def __init__(
        self,
        clusterer: "BasicUKMeans",
        dataset: UncertainDataset,
        samples: np.ndarray,
        sample_means: np.ndarray,
        watch: Stopwatch,
    ):
        self.clusterer = clusterer
        self.metric = clusterer.metric
        self.samples = samples
        self.sample_means = sample_means
        self.watch = watch
        self.ed_evaluations = 0

    def assign(self, centers: np.ndarray, assignment: IntArray) -> IntArray:
        """The nearest centroid by ED per object (``assignment``: the last one)."""
        if self.metric is None:
            distances = expected_distances(self.samples, centers)
        else:
            distances = _metric_expected_distances(self.samples, centers, self.metric)
        self.ed_evaluations += distances.size
        return np.argmin(distances, axis=1).astype(np.int64)

    def repaired(self, moves: List[Tuple[int, int]], centers: np.ndarray) -> None:
        """The empty-cluster repair moved each ``(cluster, victim)``."""

    def moved(
        self, previous: np.ndarray, centers: np.ndarray, assignment: IntArray
    ) -> None:
        """The centroids moved from ``previous`` to ``centers``."""

    def extras(self, iterations: int) -> Dict[str, object]:
        """The run's ``ClusteringResult.extras`` after ``iterations``."""
        return {
            "ed_evaluations": self.ed_evaluations,
            "n_samples": self.clusterer.n_samples,
        }


class BasicUKMeans(SampleCacheMixin, UncertainClusterer):
    """The original sample-integration UK-means of Chau et al. [4].

    Parameters
    ----------
    n_clusters:
        Number of output clusters ``k``.
    n_samples:
        Sample-set cardinality ``S`` per object for the ED integrals.
    max_iter:
        Iteration cap ``I``.
    metric:
        Optional point metric ``d``; ``None`` means squared Euclidean
        (with which the result coincides with fast UK-means up to Monte
        Carlo noise in ties).
    """

    name = "bUKM"

    #: The assignment step; :meth:`fit` builds one per run.
    _assignment = _FullAssignment

    def __init__(
        self,
        n_clusters: int,
        n_samples: int = 64,
        max_iter: int = 100,
        metric: Optional[PointMetric] = None,
    ):
        self.n_clusters = check_int_range(n_clusters, "n_clusters", low=1)
        self.n_samples = check_int_range(n_samples, "n_samples", low=1)
        self.max_iter = check_int_range(max_iter, "max_iter", low=1)
        self.metric = metric

    def fit(self, dataset: UncertainDataset, seed: SeedLike = None) -> ClusteringResult:
        """Cluster ``dataset`` with sample-based expected distances."""
        n = len(dataset)
        k = validate_n_clusters(self.n_clusters, n)
        rng = ensure_rng(seed)

        # Off-line phase: draw the per-object sample sets.
        samples = self._draw_samples(dataset, rng)
        sample_means = samples.mean(axis=1)

        seeds = random_seed_indices(n, k, rng)
        centers = sample_means[seeds].copy()

        watch = Stopwatch()
        step = self._assignment(self, dataset, samples, sample_means, watch)
        iterations = 0
        converged = False
        assignment = np.full(n, -1, dtype=np.int64)
        with watch.running():
            for _ in range(self.max_iter):
                iterations += 1
                new_assignment = step.assign(centers, assignment)
                moves = repair_empty_clusters(new_assignment, sample_means, centers, k)
                step.repaired(moves, centers)
                if np.array_equal(new_assignment, assignment):
                    converged = True
                    break
                assignment = new_assignment
                previous = centers.copy()
                for c in range(k):
                    members = assignment == c
                    if members.any():
                        centers[c] = sample_means[members].mean(axis=0)
                step.moved(previous, centers, assignment)
        return self._result(
            watch,
            assignment,
            ukmeans_objective(dataset, assignment),
            iterations,
            converged,
            extras=step.extras(iterations),
        )
