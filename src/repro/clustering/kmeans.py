"""Deterministic K-means (Lloyd) baseline (S16).

The Case-1 evaluation protocol clusters *perturbed deterministic* data;
those datasets flow through the library as zero-variance uncertain
objects, for which UK-means reduces exactly to classic K-means.  This
module provides the explicit point-matrix entry point for users who have
plain vectors and no uncertainty model at all.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro._typing import SeedLike
from repro.clustering.base import ClusteringResult
from repro.clustering.ukmeans import UKMeans
from repro.objects.dataset import UncertainDataset


class KMeans(UKMeans):
    """Lloyd's K-means on deterministic points.

    :class:`~repro.clustering.ukmeans.UKMeans` under its own name, with
    which it coincides exactly at zero variance (Eq. (8) with sigma^2 =
    0), plus :meth:`fit_points`, which wraps the rows as point-mass
    uncertain objects.

    Parameters
    ----------
    n_clusters, max_iter, init:
        As in :class:`UKMeans`.
    """

    name = "KM"

    def fit_points(
        self,
        points: np.ndarray,
        labels: Optional[Sequence[int]] = None,
        seed: SeedLike = None,
    ) -> ClusteringResult:
        """Cluster a raw ``(n, m)`` point matrix."""
        dataset = UncertainDataset.from_points(points, labels)
        return self.fit(dataset, seed)
