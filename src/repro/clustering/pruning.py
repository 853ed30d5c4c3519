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

All variants reproduce the basic UK-means assignment sequence exactly
(pruning is lossless); pruning effectiveness counters are reported in
``ClusteringResult.extras``.  As in the paper, time spent *building*
pruning structures is excluded from the clustering-time measurement.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro._typing import SeedLike
from repro.clustering._density import _TILE_ELEMENTS
from repro.clustering._repair import repair_empty_clusters
from repro.clustering._sampling import SampleCacheMixin
from repro.clustering.base import (
    ClusteringResult,
    UncertainClusterer,
    validate_n_clusters,
)
from repro.clustering.initialization import random_seed_indices
from repro.clustering.ukmeans import ukmeans_objective
from repro.exceptions import InvalidParameterError, warn_convergence
from repro.objects.dataset import UncertainDataset
from repro.utils.rng import ensure_rng
from repro.utils.timer import Stopwatch


class _PruningUKMeansBase(SampleCacheMixin, UncertainClusterer):
    """Shared machinery of the pruning-based UK-means variants."""

    def __init__(
        self,
        n_clusters: int,
        n_samples: int = 64,
        max_iter: int = 100,
        cluster_shift: bool = True,
    ):
        if n_samples < 1:
            raise InvalidParameterError(f"n_samples must be >= 1, got {n_samples}")
        if max_iter < 1:
            raise InvalidParameterError(f"max_iter must be >= 1, got {max_iter}")
        self.n_clusters = int(n_clusters)
        self.n_samples = int(n_samples)
        self.max_iter = int(max_iter)
        self.cluster_shift = bool(cluster_shift)

    # -- strategy hook --------------------------------------------------
    def _candidate_mask(
        self,
        boxes_lower: np.ndarray,
        boxes_upper: np.ndarray,
        centers: np.ndarray,
    ) -> np.ndarray:
        """Boolean ``(n, k)`` mask of candidate centroids per object."""
        raise NotImplementedError

    # -- main loop -------------------------------------------------------
    def fit(self, dataset: UncertainDataset, seed: SeedLike = None) -> ClusteringResult:
        """Cluster ``dataset``; see class docstring."""
        n = len(dataset)
        k = validate_n_clusters(self.n_clusters, n)
        rng = ensure_rng(seed)

        # Off-line phase (untimed, as in the paper): samples and boxes.
        samples = self._draw_samples(dataset, rng)
        sample_means = samples.mean(axis=1)
        boxes_lower, boxes_upper = dataset.region_bounds

        seeds = random_seed_indices(n, k, rng)
        centers = sample_means[seeds].copy()

        ed_matrix = np.full((n, k), np.nan)  # cached exact EDs (cluster-shift)
        # Iteration at which each ed_matrix entry was computed (-1 =
        # never).  The shift bound must account for the *cumulative*
        # centroid displacement since that iteration, not just the last
        # step — a cached ED can survive many iterations while its
        # centroid keeps drifting.
        ed_iteration = np.full((n, k), -1, dtype=np.int64)
        centers_log: List[np.ndarray] = []
        ed_computed = 0
        ed_pruned = 0

        watch = Stopwatch()
        iterations = 0
        converged = False
        assignment = np.full(n, -1, dtype=np.int64)
        with watch.running():
            for iteration in range(self.max_iter):
                iterations += 1
                # Pruning-structure construction (bounding-box bounds /
                # Voronoi bisectors / shift bounds) is excluded from the
                # clustering time, exactly as in Section 5.2.2 of the
                # paper ("pruning times ... were discarded").
                watch.stop()
                centers_log.append(centers.copy())
                candidates = self._candidate_mask(boxes_lower, boxes_upper, centers)
                if self.cluster_shift and iteration > 0:
                    candidates = self._tighten_with_shift(
                        candidates, ed_matrix, ed_iteration, centers, centers_log
                    )
                watch.start()
                new_assignment = np.empty(n, dtype=np.int64)
                cand_counts = candidates.sum(axis=1)
                # Fully pruned objects: assigned without any ED integral.
                single = cand_counts == 1
                if single.any():
                    new_assignment[single] = np.argmax(candidates[single], axis=1)
                    ed_pruned += int((k - 1) * single.sum())
                multi = ~single
                if multi.any():
                    # Batch the surviving ED integrals per centroid.
                    eds_multi = np.full((n, k), np.inf)
                    for j in range(k):
                        rows = np.flatnonzero(multi & candidates[:, j])
                        if rows.size == 0:
                            continue
                        diff = samples[rows] - centers[j]
                        eds = np.einsum("nsm,nsm->ns", diff, diff).mean(axis=1)
                        eds_multi[rows, j] = eds
                        ed_matrix[rows, j] = eds
                        ed_iteration[rows, j] = iteration
                        ed_computed += int(rows.size)
                    n_multi = int(multi.sum())
                    ed_pruned += int(n_multi * k - candidates[multi].sum())
                    new_assignment[multi] = np.argmin(eds_multi[multi], axis=1)
                repair_empty_clusters(new_assignment, sample_means, centers, k)
                if np.array_equal(new_assignment, assignment):
                    converged = True
                    break
                assignment = new_assignment
                for c in range(k):
                    members = assignment == c
                    if members.any():
                        centers[c] = sample_means[members].mean(axis=0)
        if not converged:
            warn_convergence(
                f"{self.name} hit max_iter={self.max_iter} before convergence"
            )
        total_pairs = ed_computed + ed_pruned
        return ClusteringResult(
            labels=assignment,
            objective=ukmeans_objective(dataset, assignment),
            n_iterations=iterations,
            converged=converged,
            runtime_seconds=watch.elapsed_seconds,
            extras={
                "ed_evaluations": ed_computed,
                "ed_pruned": ed_pruned,
                "pruning_rate": ed_pruned / total_pairs if total_pairs else 0.0,
                "cluster_shift": self.cluster_shift,
            },
        )

    # -- helpers ----------------------------------------------------------
    @staticmethod
    def _tighten_with_shift(
        candidates: np.ndarray,
        ed_matrix: np.ndarray,
        ed_iteration: np.ndarray,
        centers: np.ndarray,
        centers_log: List[np.ndarray],
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
        k = centers.shape[0]
        # shift_since[t, j] = ||centers[j] - centers_log[t][j]||
        history = np.stack(centers_log)  # (T, k, m)
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
