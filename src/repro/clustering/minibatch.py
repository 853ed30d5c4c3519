"""Mini-batch UK-means: streaming Lloyd updates on the moment matrices.

The lossy counterpart of the bounded (lossless) scale path: instead of
a full assignment pass per iteration, each iteration draws a random
mini-batch of objects, assigns only those on the expected-value plane
(the fast UK-means decomposition makes per-object variances an additive
constant, so batch assignment needs the cached ``mu_matrix`` only), and
moves each touched centroid toward the batch members' mean with a
per-centroid learning rate ``eta_c = b_c / nu_c`` that decays with the
total count ``nu_c`` of objects the centroid has absorbed — the
Sculley-style streaming update, convex so centers stay in the data's
hull.

Because a mini-batch trajectory is noisier than full Lloyd, the model
*over-clusters* during streaming (``k_over = over_cluster * k``
centroids) and then runs a prune→merge postpass: centroids that never
absorbed an object are dropped, and the closest centroid pairs are
merged (count-weighted means) until exactly ``k`` remain.  A final full
assignment + repair pass produces the labeling and the standard
UK-means objective.

This variant is **not** exact-match guarded: it trades assignment
fidelity for per-iteration cost ``O(b * k_over * m)`` independent of
``n``.  Its accuracy deltas on the paper grid are documented in the
README's scaling section and sanity-pinned (objective within a small
factor of full UK-means on separated data) in
``tests/test_scale_path.py``.
"""

from __future__ import annotations

import numpy as np

from repro._typing import SeedLike
from repro.clustering._repair import repair_empty_clusters
from repro.clustering.base import (
    ClusteringResult,
    UncertainClusterer,
    validate_n_clusters,
)
from repro.clustering.initialization import random_seed_indices
from repro.clustering.ukmeans import _assign_to_centers, ukmeans_objective
from repro.objects.dataset import UncertainDataset
from repro.utils.rng import ensure_rng
from repro.utils.timer import Stopwatch
from repro.utils.validation import check_int_range, check_positive


class MiniBatchUKMeans(UncertainClusterer):
    """Mini-batch UK-means with an over-cluster→prune→merge postpass.

    Parameters
    ----------
    n_clusters:
        Number of output clusters ``k``.
    batch_size:
        Objects sampled per streaming iteration (clipped to ``n``).
    max_iter:
        Streaming iteration cap.
    over_cluster:
        Streaming centroid multiplier: ``k_over = min(n, over_cluster *
        k)`` centroids are maintained during streaming and merged down
        to ``k`` in the postpass.  ``1`` disables over-clustering.
    tol:
        Convergence threshold on the summed squared centroid movement
        of one streaming iteration.
    """

    name = "MB-UKM"

    def __init__(
        self,
        n_clusters: int,
        batch_size: int = 1024,
        max_iter: int = 100,
        over_cluster: int = 3,
        tol: float = 1e-7,
    ):
        self.n_clusters = check_int_range(n_clusters, "n_clusters", low=1)
        self.batch_size = check_int_range(batch_size, "batch_size", low=1)
        self.max_iter = check_int_range(max_iter, "max_iter", low=1)
        self.over_cluster = check_int_range(over_cluster, "over_cluster", low=1)
        self.tol = check_positive(tol, "tol", strict=False)

    def fit(self, dataset: UncertainDataset, seed: SeedLike = None) -> ClusteringResult:
        """Cluster ``dataset``; see class docstring."""
        n = len(dataset)
        k = validate_n_clusters(self.n_clusters, n)
        rng = ensure_rng(seed)
        mu = dataset.mu_matrix
        k_over = min(n, self.over_cluster * k)
        batch = min(self.batch_size, n)

        seeds = random_seed_indices(n, k_over, rng)
        centers = mu[seeds].copy()
        counts = np.zeros(k_over, dtype=np.int64)

        watch = Stopwatch()
        iterations = 0
        converged = False
        with watch.running():
            for _ in range(self.max_iter):
                iterations += 1
                rows = rng.choice(n, size=batch, replace=False)
                assign = _assign_to_centers(mu[rows], centers)
                old_centers = centers.copy()
                for c in np.unique(assign):
                    members = rows[assign == c]
                    counts[c] += members.size
                    eta = members.size / counts[c]
                    centers[c] = (1.0 - eta) * centers[c] + eta * mu[
                        members
                    ].mean(axis=0)
                shift = float(((centers - old_centers) ** 2).sum())
                if shift <= self.tol:
                    converged = True
                    break
            centers, counts, n_merges = self._prune_and_merge(
                centers, counts, k
            )
            labels = _assign_to_centers(mu, centers)
            repair_empty_clusters(labels, mu, centers, k)
        return self._result(
            watch,
            labels,
            ukmeans_objective(dataset, labels),
            iterations,
            converged,
            extras={
                "batch_size": batch,
                "k_over": k_over,
                "n_merges": n_merges,
                "objects_seen": int(counts.sum()),
            },
        )

    # ------------------------------------------------------------------
    # Postpass
    # ------------------------------------------------------------------
    @staticmethod
    def _prune_and_merge(
        centers: np.ndarray, counts: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Drop never-used centroids, merge closest pairs down to ``k``.

        Returns ``(centers, counts, n_merges)`` with exactly ``k``
        centroids.  Pruning keeps the ``k`` heaviest centroids when
        dropping the empties would undershoot; merging combines the
        globally closest pair into its count-weighted mean until ``k``
        remain.
        """
        order = np.argsort(-counts, kind="stable")
        used = order[counts[order] > 0]
        if used.size < k:
            # Not enough centroids ever absorbed an object (tiny data /
            # huge over_cluster): pad with the heaviest empties.
            used = order[:k]
        centers = centers[used].copy()
        counts = counts[used].copy()
        n_merges = 0
        while centers.shape[0] > k:
            diff = centers[:, None, :] - centers[None, :, :]
            dist = np.einsum("abm,abm->ab", diff, diff)
            np.fill_diagonal(dist, np.inf)
            a, b = np.unravel_index(int(np.argmin(dist)), dist.shape)
            a, b = (int(a), int(b)) if a < b else (int(b), int(a))
            weight = counts[a] + counts[b]
            if weight > 0:
                centers[a] = (
                    counts[a] * centers[a] + counts[b] * centers[b]
                ) / weight
            else:
                centers[a] = 0.5 * (centers[a] + centers[b])
            counts[a] = weight
            keep = np.ones(centers.shape[0], dtype=bool)
            keep[b] = False
            centers = centers[keep]
            counts = counts[keep]
            n_merges += 1
        return centers, counts, n_merges
