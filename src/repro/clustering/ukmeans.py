"""UK-means, the fast moment-based variant of Lee et al. [14] (S8).

Eq. (8) of the paper decomposes the expected distance as

    ED(o, y) = ED(o, mu(o)) + ||y - mu(o)||^2
             = sigma^2(o)   + ||y - mu(o)||^2,

so after the off-line moment phase the on-line loop is exactly Lloyd's
K-means over the expected values — the per-object variance offsets the
objective but never changes an assignment.  This is the algorithm the
paper refers to as plain "UK-means" with O(I·k·n·m) on-line complexity.
"""

from __future__ import annotations

import numpy as np

from repro._typing import IntArray, SeedLike
from repro.clustering._repair import repair_empty_clusters
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


def _assign_to_centers(mu: np.ndarray, centers: np.ndarray) -> IntArray:
    """Nearest center per row of ``mu`` under squared Euclidean distance."""
    mu_sq = np.einsum("ij,ij->i", mu, mu)
    center_sq = np.einsum("cj,cj->c", centers, centers)
    dist = mu_sq[:, None] - 2.0 * (mu @ centers.T) + center_sq[None, :]
    return np.argmin(dist, axis=1).astype(np.int64)


def _repair_empty_clusters(
    mu: np.ndarray,
    centers: np.ndarray,
    assignment: IntArray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, IntArray]:
    """Reseed any empty cluster with the object farthest from its center.

    Bounds-interaction invariant (audited for the Elkan/Hamerly scale
    path): reseeding ``centers[cluster]`` teleports a centroid, which
    invalidates any distance bound anchored on its previous position
    beyond drift accounting.  Fast UK-means keeps no bounds, so the
    in-place reseed here is safe.  :class:`~repro.clustering.
    ukmeans_bounded.BoundedUKMeans` runs :class:`BasicUKMeans`'s own
    loop instead, whose repair moves the victim *object* only (no
    centroid reseed); its assignment step recomputes the victim's upper
    bound exactly (``_BoundedAssignment.repaired``), while later
    centroid motion is covered by actual-displacement drift decay.
    """
    k = centers.shape[0]
    moves = repair_empty_clusters(assignment, mu, centers, k)
    for cluster, victim in moves:
        centers[cluster] = mu[victim]
    return centers, assignment


def ukmeans_objective(dataset: UncertainDataset, assignment: IntArray) -> float:
    """``sum_C J_UK(C)`` for a full assignment (Eq. (9) summed)."""
    k = int(assignment.max()) + 1
    mu = dataset.mu_matrix
    total = float(dataset.total_variances.sum())
    for c in range(k):
        members = assignment == c
        if not members.any():
            continue
        center = mu[members].mean(axis=0)
        diffs = mu[members] - center
        total += float(np.einsum("ij,ij->i", diffs, diffs).sum())
    return total


class UKMeans(UncertainClusterer):
    """Fast UK-means [14]: Lloyd iteration on expected values.

    Parameters
    ----------
    n_clusters:
        Number of output clusters ``k``.
    max_iter:
        Iteration cap ``I``.
    init:
        ``"random"`` — random objects as initial centroids;
        ``"kmeans++"`` — D²-weighted seeding on expected values.
    """

    name = "UKM"

    def __init__(self, n_clusters: int, max_iter: int = 100, init: str = "random"):
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
        mu = dataset.mu_matrix
        if self.init == "kmeans++":
            seeds = kmeanspp_seed_indices(dataset, k, rng)
        else:
            seeds = random_seed_indices(n, k, rng)
        centers = mu[seeds].copy()

        watch = Stopwatch()
        history = []
        converged = False
        iterations = 0
        with watch.running():
            assignment = _assign_to_centers(mu, centers)
            centers, assignment = _repair_empty_clusters(mu, centers, assignment, rng)
            for _ in range(self.max_iter):
                iterations += 1
                for c in range(k):
                    members = assignment == c
                    if members.any():
                        centers[c] = mu[members].mean(axis=0)
                new_assignment = _assign_to_centers(mu, centers)
                centers, new_assignment = _repair_empty_clusters(
                    mu, centers, new_assignment, rng
                )
                history.append(ukmeans_objective(dataset, new_assignment))
                if np.array_equal(new_assignment, assignment):
                    assignment = new_assignment
                    converged = True
                    break
                assignment = new_assignment
        return self._result(
            watch, assignment, history[-1], iterations, converged, history
        )
