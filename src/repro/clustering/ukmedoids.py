"""UK-medoids — K-medoids over pairwise expected distances [7] (S12).

Gullo, Ponti & Tagarelli's UK-medoids precomputes the full matrix of
squared expected distances ``ÊD(o_i, o_j)`` (an off-line phase the paper
excludes from timing, like UK-means' distance precomputation) and then
runs a PAM-style alternation: assign every object to the nearest medoid
and recompute each cluster's medoid as the member minimizing the summed
``ÊD`` to its cluster.

The on-line loop is O(I·n^2) in the worst case — which is exactly why
Figure 4 of the paper shows UK-medoids orders of magnitude slower than
the centroid-based algorithms.
"""

from __future__ import annotations

import numpy as np

from repro._typing import SeedLike
from repro.clustering.base import (
    ClusteringResult,
    UncertainClusterer,
    validate_n_clusters,
)
from repro.clustering.initialization import (
    kmeanspp_seed_indices,
    random_seed_indices,
)
from repro.exceptions import InvalidParameterError
from repro.objects.dataset import UncertainDataset
from repro.utils.rng import ensure_rng
from repro.utils.timer import Stopwatch
from repro.utils.validation import check_int_range


class UKMedoids(UncertainClusterer):
    """UK-medoids [7]: PAM-style clustering on the ``ÊD`` matrix.

    Parameters
    ----------
    n_clusters:
        Number of output clusters ``k``.
    max_iter:
        Iteration cap.
    init:
        ``"random"`` or ``"kmeans++"`` seeding for the initial medoids.

    Notes
    -----
    The off-line ``ÊD`` matrix is the dataset's own
    :meth:`UncertainDataset.pairwise_ed`, built on first use and cached
    there, so every fit on one dataset — direct, engine restart or
    process-pool worker — reads the same matrix and only the first
    pays for it.
    """

    name = "UKmed"
    wants_pairwise_ed = True
    preferred_backend = "processes"

    def __init__(
        self,
        n_clusters: int,
        max_iter: int = 100,
        init: str = "random",
    ):
        if init not in ("random", "kmeans++"):
            raise InvalidParameterError(
                f"init must be 'random' or 'kmeans++', got {init!r}"
            )
        self.n_clusters = check_int_range(n_clusters, "n_clusters", low=1)
        self.max_iter = check_int_range(max_iter, "max_iter", low=1)
        self.init = init

    def fit(self, dataset: UncertainDataset, seed: SeedLike = None) -> ClusteringResult:
        """Cluster ``dataset``; see class docstring."""
        n = len(dataset)
        k = validate_n_clusters(self.n_clusters, n)
        rng = ensure_rng(seed)

        # Off-line phase: the pairwise ÊD matrix (Lemma 3 closed form).
        distances = dataset.pairwise_ed()

        if self.init == "kmeans++":
            medoids = kmeanspp_seed_indices(dataset, k, rng)
        else:
            medoids = random_seed_indices(n, k, rng)

        watch = Stopwatch()
        iterations = 0
        converged = False
        reseeded = 0
        with watch.running():
            assignment = np.argmin(distances[:, medoids], axis=1).astype(np.int64)
            for _ in range(self.max_iter):
                iterations += 1
                new_medoids = medoids.copy()
                reseed_taken = np.zeros(n, dtype=bool)
                for c in range(k):
                    members = np.flatnonzero(assignment == c)
                    if members.size == 0:
                        # Reseed an empty cluster with the worst-served
                        # object that is not already a medoid — picking
                        # a current (or freshly chosen) medoid would
                        # silently collapse the clustering to k-1
                        # distinct medoids.
                        own_cost = distances[
                            np.arange(n), medoids[assignment]
                        ].copy()
                        own_cost[medoids] = -np.inf
                        own_cost[new_medoids] = -np.inf
                        candidate = int(np.argmax(own_cost))
                        if own_cost[candidate] == -np.inf:
                            # Every object is already a medoid (k == n);
                            # keep the old medoid for this cluster.
                            continue
                        new_medoids[c] = candidate
                        reseed_taken[candidate] = True
                        reseeded += 1
                        continue
                    # Medoid = member minimizing summed ÊD within the
                    # cluster, skipping members an earlier empty cluster
                    # just took as its reseed target (the same collapse
                    # hazard from the other direction).
                    within = distances[np.ix_(members, members)].sum(axis=1)
                    free = ~reseed_taken[members]
                    if free.any():
                        members = members[free]
                        within = within[free]
                    new_medoids[c] = int(members[np.argmin(within)])
                new_assignment = np.argmin(
                    distances[:, new_medoids], axis=1
                ).astype(np.int64)
                if np.array_equal(new_assignment, assignment) and np.array_equal(
                    new_medoids, medoids
                ):
                    converged = True
                    break
                medoids = new_medoids
                assignment = new_assignment
        return self._result(
            watch,
            assignment,
            float(distances[np.arange(n), medoids[assignment]].sum()),
            iterations,
            converged,
            extras={"medoids": medoids.tolist(), "reseeded": reseeded},
        )
