"""Pruning-based UK-means variants: MinMax-BB, VDBiP, cluster-shift (S10).

These algorithms accelerate the *basic* UK-means by avoiding expected-
distance (ED) integral evaluations:

* **MinMax-BB** (Ngai et al. [16]) — per object and candidate centroid,
  cheap ``MinDist``/``MaxDist`` bounds from the object's bounding box
  prune centroids that cannot be the closest:  if
  ``MinDist(o, c) > min_c' MaxDist(o, c')`` then ``c`` is pruned.
* **VDBiP** (Kao et al. [11]) — bisector pruning from the Voronoi
  diagram of the centroids: if the object's box lies entirely on
  centroid ``c_j``'s side of the ``(c_j, c_l)`` bisector hyperplane,
  ``c_l`` is pruned; when a single candidate survives, no ED at all is
  computed.
* **cluster-shift** (Ngai et al. [17]) — optional bound tightening
  reusing the previous iteration's exact EDs: if centroid ``c`` moved by
  ``delta`` then ``(sqrt(ED_old) - delta)^2 <= ED_new <=
  (sqrt(ED_old) + delta)^2``, sharpening both bounds.  The paper couples
  it with both pruners in the efficiency study.

The MinMax-BB and VDBiP masks test their bounds with a rounding margin
(the cluster-shift tightening does not), so every prune they make is
provable from the float inputs (barring overflow and underflow): the
box lies strictly on the pruning side in exact arithmetic, and the
exactly-nearest centroid of every point of the box survives.  With
``γ = (m + 8)·2⁻⁵²``, MinMax-BB keeps ``c`` iff ``MinDist·(1 − γ) <=
min_c' MaxDist·(1 + γ)``, and VDBiP prunes ``c_l`` only when ``max_box
h < −δ`` with ``δ = γ·(max(|L|, |U|)·|a| + |c_j|² + |c_l|²)`` (see
:class:`VDBiP`).  ``γ`` is twice Higham's ``γ_{m+4}`` bound on the
rounding of each computed bound, so the margin's own rounding is
covered.  Without the margin, a box within a few ulps of a bisector
could lose its exactly-nearest centroid.

Both are :class:`~repro.clustering.ukmeans_basic.BasicUKMeans`
subclasses that replace only its assignment step: the sample draw,
seeding, empty-cluster repair, convergence test and centroid update are
Basic's own loop, and every ED they compare comes from its kernel, so
they reproduce the basic UK-means iterations exactly (pruning is
lossless).  Pruning effectiveness counters are reported in
``ClusteringResult.extras``.  As in the paper, time spent *building*
pruning structures is excluded from the clustering-time measurement.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from repro._typing import IntArray
from repro.clustering._density import _TILE_ELEMENTS
from repro.clustering.ukmeans_basic import (
    BasicUKMeans,
    _FullAssignment,
    expected_distances,
)


class _PrunedAssignment(_FullAssignment):
    """Assignment through a candidate mask: EDs only for the survivors.

    Building the mask and the shift bounds (bounding-box bounds /
    Voronoi bisectors / cluster-shift) is excluded from the clustering
    time, exactly as in Section 5.2.2 of the paper ("pruning times ...
    were discarded").
    """

    def __init__(self, clusterer, dataset, samples, sample_means, watch):
        super().__init__(clusterer, dataset, samples, sample_means, watch)
        self.boxes = dataset.region_bounds
        n, k = samples.shape[0], clusterer.n_clusters
        # Cached exact EDs (cluster-shift) and the iteration at which
        # each was computed (-1 = never).  The shift bound must account
        # for the *cumulative* centroid displacement since that
        # iteration, not just the last step — a cached ED can survive
        # many iterations while its centroid keeps drifting.
        self.ed_matrix = np.full((n, k), np.nan)
        self.ed_iteration = np.full((n, k), -1, dtype=np.int64)
        self.centers_log: List[np.ndarray] = []
        self.ed_pruned = 0

    def assign(self, centers: np.ndarray, assignment: IntArray) -> IntArray:
        iteration = len(self.centers_log)
        self.watch.stop()
        self.centers_log.append(centers.copy())
        candidates = self.clusterer._candidate_mask(*self.boxes, centers)
        if self.clusterer.cluster_shift and iteration > 0:
            candidates = self._tighten_with_shift(candidates, centers)
        self.watch.start()
        # An object left with one candidate is assigned without any ED
        # integral; the others compare the EDs of their candidates.
        single = candidates.sum(axis=1) == 1
        compared = candidates & ~single[:, None]
        eds = expected_distances(self.samples, centers, compared)
        self.ed_matrix[compared] = eds[compared]
        self.ed_iteration[compared] = iteration
        n_compared = int(compared.sum())
        self.ed_evaluations += n_compared
        # A single row's own candidate counts as neither.
        self.ed_pruned += candidates.size - int(single.sum()) - n_compared
        return np.where(single, np.argmax(candidates, axis=1), np.argmin(eds, axis=1))

    def _tighten_with_shift(
        self, candidates: np.ndarray, centers: np.ndarray
    ) -> np.ndarray:
        """Cluster-shift bound tightening [17].

        With ``delta(o, c) = ||c_now - c_at_cache||`` — the displacement
        of centroid ``c`` since the iteration at which ``ED_old(o, c)``
        was cached — the squared-Euclidean ED obeys ``(sqrt(ED_old) -
        delta)^2 <= ED_new <= (sqrt(ED_old) + delta)^2`` (triangle
        inequality inside the expectation, then Jensen).  Any centroid
        whose shifted lower bound exceeds another centroid's shifted
        upper bound cannot win and is pruned.

        Cache entries may be several iterations old (an entry is only
        refreshed when the object/centroid pair survives pruning), so
        the displacement is taken against the logged centroid position
        of the entry's own iteration — using only the last step's shift
        would understate ``delta`` and make the bounds invalid.
        """
        ed_matrix, ed_iteration = self.ed_matrix, self.ed_iteration
        k = centers.shape[0]
        # shift_since[t, j] = ||centers[j] - centers_log[t][j]||
        history = np.stack(self.centers_log)  # (T, k, m)
        shift_since = np.linalg.norm(centers[None, :, :] - history, axis=2)
        have = np.isfinite(ed_matrix) & (ed_iteration >= 0)
        delta = shift_since[np.maximum(ed_iteration, 0), np.arange(k)[None, :]]
        roots = np.sqrt(np.where(have, np.maximum(ed_matrix, 0.0), 0.0))
        upper = np.where(have, (roots + delta) ** 2, np.inf)
        lower = np.where(have, np.maximum(roots - delta, 0.0) ** 2, 0.0)
        best_upper = upper.min(axis=1)
        keep = lower <= best_upper[:, None]
        tightened = candidates & keep
        # Safety: never prune every candidate of an object.
        dead = ~tightened.any(axis=1)
        if dead.any():
            tightened[dead] = candidates[dead]
        return tightened

    def extras(self, iterations: int) -> Dict[str, object]:
        """The pruning counters over every pair not assigned outright."""
        total_pairs = self.ed_evaluations + self.ed_pruned
        return {
            "ed_evaluations": self.ed_evaluations,
            "ed_pruned": self.ed_pruned,
            "pruning_rate": self.ed_pruned / total_pairs if total_pairs else 0.0,
            "cluster_shift": self.clusterer.cluster_shift,
        }


class _PruningUKMeansBase(BasicUKMeans):
    """Basic UK-means that computes the EDs of mask survivors only.

    Subclasses supply :meth:`_candidate_mask`; ``cluster_shift``
    tightens it with the cached EDs of earlier iterations.
    """

    _assignment = _PrunedAssignment

    def __init__(
        self,
        n_clusters: int,
        n_samples: int = 64,
        max_iter: int = 100,
        cluster_shift: bool = True,
    ):
        super().__init__(n_clusters, n_samples, max_iter)
        self.cluster_shift = bool(cluster_shift)

    def _candidate_mask(
        self,
        boxes_lower: np.ndarray,
        boxes_upper: np.ndarray,
        centers: np.ndarray,
    ) -> np.ndarray:
        """Boolean ``(n, k)`` mask of candidate centroids per object."""
        raise NotImplementedError


def _rounding_margin(dim: int) -> float:
    """``γ = (m + 8)·2⁻⁵²``: twice Higham's ``γ_{m+4}`` relative bound.

    Each mask bound is an ``m``-term dot product of rounded inputs
    followed by at most three more roundings, so its computed value is
    within ``γ_{m+4}`` of the exact one, relative to the sum of its
    terms' magnitudes; doubling that also covers the rounding of the
    margin itself.
    """
    return (dim + 8) * 2.0**-52


class MinMaxBB(_PruningUKMeansBase):
    """MinMax bounding-box pruning UK-means [16].

    For each object box and centroid: ``MinDist`` is the squared distance
    to the nearest box point, ``MaxDist`` to the farthest corner.  The
    expected distance always lies between them, so any centroid with
    ``MinDist > min_c MaxDist`` cannot be the closest and is pruned
    before its ED integral is ever evaluated.  Both bounds are rounded
    sums, so a centroid is kept iff ``MinDist·(1 − γ) <= min_c
    MaxDist·(1 + γ)`` with ``γ = (m + 8)·2⁻⁵²``: every prune then holds
    in exact arithmetic.
    """

    name = "MinMax-BB"

    def _candidate_mask(
        self,
        boxes_lower: np.ndarray,
        boxes_upper: np.ndarray,
        centers: np.ndarray,
    ) -> np.ndarray:
        n = boxes_lower.shape[0]
        k = centers.shape[0]
        min_dist = np.empty((n, k))
        max_dist = np.empty((n, k))
        for j in range(k):
            c = centers[j]
            below = np.maximum(boxes_lower - c, 0.0)
            above = np.maximum(c - boxes_upper, 0.0)
            gap = below + above
            min_dist[:, j] = np.einsum("ij,ij->i", gap, gap)
            far = np.maximum(np.abs(c - boxes_lower), np.abs(c - boxes_upper))
            max_dist[:, j] = np.einsum("ij,ij->i", far, far)
        gamma = _rounding_margin(centers.shape[1])
        threshold = max_dist.min(axis=1) * (1.0 + gamma)
        return min_dist * (1.0 - gamma) <= threshold[:, None]


class VDBiP(_PruningUKMeansBase):
    """Voronoi-diagram bisector pruning UK-means [11].

    For each ordered centroid pair ``(c_j, c_l)`` the bisector hyperplane
    is ``h(x) = ||x - c_j||^2 - ||x - c_l||^2 = a·x + b`` with ``a = -2
    (c_j - c_l)`` and ``b = ||c_j||^2 - ||c_l||^2``, a *linear* function
    whose maximum over the box ``[L, U]`` is attained at a corner:
    ``max_box h = U·a⁺ + L·a⁻ + b`` (``a⁺ = max(a, 0)``, ``a⁻ = min(a,
    0)``).  If ``max_box h < −δ`` with ``δ = γ·(max(|L|, |U|)·|a| +
    ||c_j||^2 + ||c_l||^2)`` and ``γ = (m + 8)·2⁻⁵²``, the whole object
    lies strictly on ``c_j``'s side even in exact arithmetic, so ``c_l``
    can never be the closest centroid and is pruned.  An object whose
    box falls entirely inside one Voronoi cell is assigned with zero ED
    evaluations; the exactly-nearest centroid of any box point is never
    pruned, so every object keeps a candidate.  A box with an infinite
    bound prunes nothing.

    The mask is computed for all ordered pairs at once as GEMMs, in
    tiles of object rows × blocks of ``j`` (times all ``k`` values of
    ``l``) whose ``(rows, pairs)`` temporaries fit the all-pairs
    kernels' fixed element budget (``_density._TILE_ELEMENTS``) at any
    ``n`` and ``k``.
    """

    name = "VDBiP"

    def _candidate_mask(
        self,
        boxes_lower: np.ndarray,
        boxes_upper: np.ndarray,
        centers: np.ndarray,
    ) -> np.ndarray:
        n, m = boxes_lower.shape
        k = centers.shape[0]
        gamma = _rounding_margin(m)
        center_sq = np.einsum("cj,cj->c", centers, centers)
        # A tile holds three (rows, j-block * k) float temporaries: the
        # two box maxima being summed and the margin.  It is about as
        # tall as it is wide, unless one j alone is wider.
        budget = _TILE_ELEMENTS // 3
        j_block = max(1, min(k, math.isqrt(budget) // k))
        rows = max(1, budget // (j_block * k))
        candidates = np.ones((n, k), dtype=bool)
        for j0 in range(0, k, j_block):
            block = slice(j0, min(j0 + j_block, k))
            width = block.stop - block.start
            # Column j_local * k + l holds the pair (j, l): a = -2 (c_j - c_l).
            a = (2.0 * (centers[None, :, :] - centers[block, None, :])).reshape(
                width * k, m
            )
            a_pos = np.maximum(a, 0.0).T
            a_neg = np.minimum(a, 0.0).T
            a_abs = np.abs(a).T
            b = (center_sq[block, None] - center_sq[None, :]).ravel()
            sq_sum = (center_sq[block, None] + center_sq[None, :]).ravel()
            for r0 in range(0, n, rows):
                part = slice(r0, min(r0 + rows, n))
                lower, upper = boxes_lower[part], boxes_upper[part]
                max_h = upper @ a_pos
                max_h += lower @ a_neg
                max_h += b
                neg_delta = np.maximum(np.abs(lower), np.abs(upper)) @ a_abs
                neg_delta += sq_sum
                neg_delta *= -gamma
                # Box provably on c_j's side of the (j, l) bisector:
                # c_l cannot be closest for these objects.
                pruned = (max_h < neg_delta).reshape(-1, width, k).any(axis=1)
                candidates[part] &= ~pruned
        return candidates
