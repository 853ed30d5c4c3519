"""Internal cluster-validity criteria (S18).

Section 5.1 of the paper defines, for a clustering ``C`` of uncertain
objects, the average intra-cluster distance

    intra(C) = (1/|C|) sum_C [ 1/(|C|(|C|-1)) sum_{o != o' in C} ÊD(o, o') ]

and the average inter-cluster distance

    inter(C) = (1/(|C|(|C|-1))) sum_{C != C'} [ 1/(|C||C'|)
               sum_{o in C} sum_{o' in C'} ÊD(o, o') ],

both normalized into [0, 1] before being combined into the quality score
``Q(C) = inter(C) - intra(C) ∈ [-1, 1]`` (higher is better).

Normalization divides by the maximum pairwise ÊD over the dataset, which
maps both averages into [0, 1] while preserving their ordering across
clusterings of the same data.  Noise objects (label -1) are excluded —
they belong to no cluster.  Clusters with fewer than two members
contribute zero intra-distance (they are perfectly cohesive).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.objects.dataset import UncertainDataset
from repro.objects.distance import pairwise_squared_expected_distances


@dataclass(frozen=True)
class InternalScores:
    """Intra / inter / Q values of one clustering."""

    intra: float
    inter: float

    @property
    def quality(self) -> float:
        """``Q = inter - intra`` (Section 5.1), in [-1, 1]."""
        return self.inter - self.intra


def internal_scores(
    dataset: UncertainDataset,
    labels: np.ndarray,
    distances: Optional[np.ndarray] = None,
    noise_policy: str = "residual",
) -> InternalScores:
    """Compute the paper's normalized intra/inter criteria.

    Parameters
    ----------
    dataset:
        The clustered objects.
    labels:
        Cluster label per object; -1 marks noise.
    distances:
        Optional precomputed pairwise ``ÊD`` matrix, ``(n, n)`` (reused
        across the many clusterings scored in one experiment).
    noise_policy:
        ``"residual"`` (default) — noise objects form one residual
        cluster, mirroring the F-measure's treatment, so an algorithm
        cannot inflate Q by declaring awkward objects noise;
        ``"exclude"`` — noise objects are dropped from the evaluation.
    """
    if noise_policy not in ("residual", "exclude"):
        raise InvalidParameterError(
            f"noise_policy must be 'residual' or 'exclude', got {noise_policy!r}"
        )
    n = len(dataset)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise InvalidParameterError(
            f"labels must be 1-D with one entry per object ({n}), "
            f"got shape {labels.shape}"
        )
    if distances is None:
        distances = pairwise_squared_expected_distances(dataset)
    elif np.shape(distances) != (n, n):
        raise InvalidParameterError(
            f"distances must be ({n}, {n}) for {n} objects, "
            f"got shape {np.shape(distances)}"
        )
    if noise_policy == "residual" and np.any(labels < 0):
        labels = labels.copy()
        labels[labels < 0] = labels.max() + 1

    max_dist = float(distances.max())
    if max_dist <= 0.0:
        return InternalScores(intra=0.0, inter=0.0)

    scored = np.flatnonzero(labels >= 0)
    if scored.size == 0:
        return InternalScores(intra=0.0, inter=0.0)
    # Scored objects by cluster (ascending id), each cluster's members in
    # ascending index order: cluster a is order[bounds[a]:bounds[a + 1]].
    order = scored[np.argsort(labels[scored], kind="stable")]
    sizes = np.unique(labels[scored], return_counts=True)[1]
    bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
    k = sizes.size

    # Cluster b's columns with the rows in cluster order make every
    # (a, b) block a contiguous row slice, holding exactly the elements
    # of distances[np.ix_(C_a, C_b)] in its row-major layout: the block
    # sums are numpy's pairwise sums over the same sequence, bit for bit.
    intra_terms = []
    block_means = np.zeros((k, k))
    for b in range(k):
        size_b = bounds[b + 1] - bounds[b]
        if size_b == n:  # one cluster holding every object, in order
            columns = np.ascontiguousarray(distances)
        else:
            columns = distances[np.ix_(order, order[bounds[b]:bounds[b + 1]])]
        for a in range(k):
            block = columns[bounds[a]:bounds[a + 1]]
            if a != b:
                block_means[a, b] = block.sum() / (block.shape[0] * size_b)
            elif size_b > 1:
                # intra: mean pairwise ÊD inside the cluster.  Singleton
                # clusters have an undefined (0/0) term in the paper's
                # formula; they are excluded from the average rather than
                # counted as zero — counting them as zero would let a
                # clustering inflate Q by shedding singletons.
                off_diag = block.sum() - np.trace(block)
                intra_terms.append(off_diag / (size_b * (size_b - 1)))
        del columns, block  # free this block before gathering the next
    if intra_terms:
        intra = float(np.mean(intra_terms)) / max_dist
    else:
        intra = 0.0

    # inter: average over ordered cluster pairs of the mean cross ÊD,
    # accumulated one pair at a time in (a, b) order.
    if k < 2:
        inter = 0.0
    else:
        total = 0.0
        for mean in block_means[~np.eye(k, dtype=bool)].tolist():
            total += mean
        inter = total / (k * (k - 1)) / max_dist

    return InternalScores(intra=float(np.clip(intra, 0.0, 1.0)),
                          inter=float(np.clip(inter, 0.0, 1.0)))


def quality_score(
    dataset: UncertainDataset,
    labels: np.ndarray,
    distances: Optional[np.ndarray] = None,
) -> float:
    """Shorthand for ``internal_scores(...).quality``."""
    return internal_scores(dataset, labels, distances).quality
