"""Initial partitions and seed selection for partitional algorithms.

Algorithm 1 of the paper starts from "an initial partition of D (e.g., a
random partition)"; the K-means-family algorithms start from initial
centroids.  This module provides both, plus a k-means++-style seeding on
expected values which materially stabilizes all centroid-based methods.
"""

from __future__ import annotations

import numpy as np

from repro._typing import IntArray, SeedLike
from repro.exceptions import InvalidParameterError
from repro.objects.dataset import UncertainDataset
from repro.utils.rng import ensure_rng


def random_partition(
    n_objects: int, n_clusters: int, seed: SeedLike = None
) -> IntArray:
    """Uniformly random assignment with every cluster guaranteed non-empty.

    The first ``n_clusters`` slots of a random permutation are pinned to
    distinct clusters; the rest are assigned uniformly.
    """
    if n_clusters < 1 or n_clusters > n_objects:
        raise InvalidParameterError(
            f"need 1 <= n_clusters <= n_objects, got k={n_clusters}, n={n_objects}"
        )
    rng = ensure_rng(seed)
    labels = rng.integers(0, n_clusters, size=n_objects)
    pinned = rng.permutation(n_objects)[:n_clusters]
    labels[pinned] = np.arange(n_clusters)
    return labels.astype(np.int64)


def random_seed_indices(
    n_objects: int, n_clusters: int, seed: SeedLike = None
) -> IntArray:
    """``n_clusters`` distinct object indices chosen uniformly."""
    if n_clusters < 1 or n_clusters > n_objects:
        raise InvalidParameterError(
            f"need 1 <= n_clusters <= n_objects, got k={n_clusters}, n={n_objects}"
        )
    rng = ensure_rng(seed)
    return rng.choice(n_objects, size=n_clusters, replace=False).astype(np.int64)


def kmeanspp_seed_indices(
    dataset: UncertainDataset, n_clusters: int, seed: SeedLike = None
) -> IntArray:
    """k-means++ seeding over the objects' expected values.

    The classic D² weighting of Arthur & Vassilvitskii applied to
    ``mu(o)``; returns object indices usable as initial centroids or
    medoids.  Raises :class:`InvalidParameterError` when the D² weights
    overflow (expected values near the float range's square root), since
    they then define no distribution to draw from.
    """
    n = len(dataset)
    if n_clusters < 1 or n_clusters > n:
        raise InvalidParameterError(
            f"need 1 <= n_clusters <= n_objects, got k={n_clusters}, n={n}"
        )
    rng = ensure_rng(seed)
    mu = dataset.mu_matrix
    chosen = np.empty(n_clusters, dtype=np.int64)
    chosen[0] = rng.integers(0, n)
    diff = mu - mu[chosen[0]]
    best_sq = np.einsum("ij,ij->i", diff, diff)
    for idx in range(1, n_clusters):
        total = float(best_sq.sum())
        if not np.isfinite(total):
            raise InvalidParameterError(
                "k-means++ seeding failed: the squared distances between "
                "expected values overflow; rescale the data or use "
                "init='random'"
            )
        if total <= 0.0:
            # All remaining points coincide with a chosen seed: fall back
            # to uniform choice among unchosen indices.
            remaining = np.setdiff1d(np.arange(n), chosen[:idx])
            chosen[idx] = rng.choice(remaining)
        else:
            probs = best_sq / total
            chosen[idx] = rng.choice(n, p=probs)
        diff = mu - mu[chosen[idx]]
        np.minimum(best_sq, np.einsum("ij,ij->i", diff, diff), out=best_sq)
    return chosen


def partition_from_seeds(
    dataset: UncertainDataset, seed_indices: np.ndarray
) -> IntArray:
    """Assign every object to its nearest seed (by expected value)."""
    mu = dataset.mu_matrix
    seeds = mu[np.asarray(seed_indices, dtype=np.int64)]
    seed_sq = np.einsum("cj,cj->c", seeds, seeds)
    mu_sq = np.einsum("ij,ij->i", mu, mu)
    dist = mu_sq[:, None] - 2.0 * (mu @ seeds.T) + seed_sq[None, :]
    return np.argmin(dist, axis=1).astype(np.int64)
