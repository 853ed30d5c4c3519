"""FOPTICS — fuzzy OPTICS ordering of uncertain data [13] (S14).

Kriegel & Pfeifle's hierarchical density-based method produces a
*cluster ordering* with per-object reachability values rather than a
flat partition.  Distances between uncertain objects are fuzzy; we use
the Monte-Carlo **expected Euclidean distance** between matched sample
pairs (the mean of the pairwise distance distribution, which is what
FOPTICS's expected-reachability formulation reduces to under matched
sampling).

The flat clustering needed by the paper's accuracy experiments is
extracted by a horizontal cut of the reachability plot; because the
paper compares algorithms at a fixed cluster count, :class:`FOPTICS`
optionally bisects the cut threshold until the requested ``n_clusters``
emerges (documented substitution — the original paper leaves extraction
unspecified).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix, issparse, triu

from repro._typing import SeedLike
from repro.clustering import _density
from repro.clustering._density import (
    gathered_pair_expected_distances,
    knn_candidate_indices,
    symmetric_csr,
)
from repro.clustering._sampling import SampleCacheMixin
from repro.clustering.base import ClusteringResult, UncertainClusterer
from repro.exceptions import InvalidParameterError
from repro.objects.dataset import UncertainDataset
from repro.utils.rng import ensure_rng
from repro.utils.timer import Stopwatch


def expected_distance_matrix(
    samples: np.ndarray, block: Optional[int] = None
) -> np.ndarray:
    """``(n, n)`` Monte-Carlo expected Euclidean distances between objects.

    Filled from cache-sized lower-triangle tiles, bit-identical to the
    per-row difference loop (see :mod:`repro.clustering._density`);
    ``block`` pins the tile side.
    """
    return _density.expected_distance_matrix(samples, block=block)


def knn_core_distances(
    offsets: np.ndarray,
    neighbor_dists: np.ndarray,
    min_pts: int,
) -> np.ndarray:
    """Core distances over a CSR distance graph (self counts, d = 0).

    Per object the candidate multiset is ``{0.0} ∪ {distances to graph
    neighbors}``; with the complete graph this is exactly the dense
    row, so the ``min_pts``-th order statistic matches
    :func:`cluster_ordering`'s ``np.partition`` value bitwise.  Objects
    with fewer than ``min_pts - 1`` neighbors get ``inf`` (they can
    never anchor a reachability improvement).
    """
    n = offsets.shape[0] - 1
    core = np.full(n, np.inf)
    for i in range(n):
        row = neighbor_dists[offsets[i]:offsets[i + 1]]
        if row.size + 1 < min_pts:
            continue
        values = np.concatenate([[0.0], row])
        core[i] = np.partition(values, min_pts - 1)[min_pts - 1]
    return core


def cluster_ordering(
    distances: np.ndarray | csr_matrix, min_pts: int
) -> tuple[np.ndarray, np.ndarray]:
    """OPTICS core loop: returns ``(ordering, reachability)``.

    ``distances`` is the dense ``(n, n)`` matrix, or a distance graph
    as a scipy CSR matrix (absent entries are non-edges).  On a graph,
    reachability updates touch only the current object's neighbors:
    with the complete graph (``knn_cap = n - 1``) this is bitwise the
    dense loop, and with a capped graph objects outside the neighbor
    set simply never receive updates through the current object (the
    lossy approximation the cap buys its memory bound with).

    ``reachability[p]`` is the reachability value of object ``p`` at the
    moment it was placed in the ordering (inf for each ordering seed).
    """
    n = distances.shape[0]
    if min_pts > n:
        raise InvalidParameterError(
            f"min_pts ({min_pts}) exceeds the number of objects ({n})"
        )
    if issparse(distances):
        offsets = distances.indptr
        core_dist = knn_core_distances(offsets, distances.data, min_pts)

        def row(i: int):
            span = slice(offsets[i], offsets[i + 1])
            return distances.indices[span], distances.data[span]
    else:
        # Core distance: distance to the min_pts-th nearest object (self counts).
        core_dist = np.partition(distances, min_pts - 1, axis=1)[:, min_pts - 1]

        def row(i: int):
            return slice(None), distances[i]

    processed = np.zeros(n, dtype=bool)
    reachability = np.full(n, np.inf)
    ordering = np.empty(n, dtype=np.int64)
    position = 0
    # Tentative reachability used as the priority key for unprocessed points.
    pending = np.full(n, np.inf)
    for start in range(n):
        if processed[start]:
            continue
        pending[start] = 0.0
        while True:
            # Next unprocessed object with the smallest pending reachability.
            masked = np.where(processed, np.inf, pending)
            current = int(np.argmin(masked))
            if not np.isfinite(masked[current]):
                break
            processed[current] = True
            reachability[current] = (
                pending[current] if position > 0 else np.inf
            )
            if pending[current] == 0.0:
                reachability[current] = np.inf  # ordering seed
            ordering[position] = current
            position += 1
            # Update reachability of the remaining neighbors through
            # current; processed ones compete with inf and keep theirs.
            neighbors, dist = row(current)
            new_reach = np.maximum(core_dist[current], dist)
            new_reach = np.where(processed[neighbors], np.inf, new_reach)
            pending[neighbors] = np.minimum(pending[neighbors], new_reach)
    return ordering, reachability


def extract_by_threshold(
    ordering: np.ndarray, reachability: np.ndarray, threshold: float
) -> np.ndarray:
    """Horizontal cut: new cluster starts wherever reachability > threshold."""
    labels = np.empty(ordering.shape[0], dtype=np.int64)
    labels[ordering] = np.cumsum(reachability[ordering] > threshold) - 1
    return labels


class FOPTICS(SampleCacheMixin, UncertainClusterer):
    """Fuzzy OPTICS over uncertain objects [13].

    Parameters
    ----------
    min_pts:
        Neighborhood cardinality for core distances.
    n_samples:
        Monte-Carlo samples per object for the fuzzy distances.
    threshold:
        Reachability cut; ``None`` uses the 75th percentile of finite
        reachability values.
    n_clusters:
        When given, the cut threshold is bisected until (approximately)
        this many clusters are produced — used by the paper-style
        experiments that fix ``k`` across algorithms.
    knn_cap:
        When given, the expected-distance graph is capped at each
        object's ``knn_cap`` nearest neighbors *by sample-mean
        distance* (union-symmetrized), and the exact gathered ÊD
        kernel runs on those edges only — O(n · knn_cap) distances
        instead of the O(n²) matrix.  This path is **lossy** (nearest
        by expected position is not nearest by expected distance,
        and reachability chains cannot cross non-edges), except at
        ``knn_cap = n - 1`` where it is bitwise the dense ordering.
        Must be ``>= min_pts`` so core distances stay well-defined.

    Notes
    -----
    As a :class:`SampleCacheMixin` subclass, the off-line sample tensor
    can be pinned via ``sample_cache`` — the multi-restart engine and
    the experiment runners use this to draw it exactly once.
    """

    name = "FOPT"
    has_objective = False
    sample_randomness_only = True

    def __init__(
        self,
        min_pts: int = 4,
        n_samples: int = 32,
        threshold: Optional[float] = None,
        n_clusters: Optional[int] = None,
        knn_cap: Optional[int] = None,
    ):
        if min_pts < 1:
            raise InvalidParameterError(f"min_pts must be >= 1, got {min_pts}")
        if n_samples < 1:
            raise InvalidParameterError(f"n_samples must be >= 1, got {n_samples}")
        if threshold is not None and threshold <= 0:
            raise InvalidParameterError(f"threshold must be > 0, got {threshold}")
        if n_clusters is not None and n_clusters < 1:
            raise InvalidParameterError(
                f"n_clusters must be >= 1, got {n_clusters}"
            )
        if knn_cap is not None and knn_cap < min_pts:
            raise InvalidParameterError(
                f"knn_cap ({knn_cap}) must be >= min_pts ({min_pts}) so "
                "core distances stay well-defined"
            )
        self.min_pts = int(min_pts)
        self.n_samples = int(n_samples)
        self.threshold = threshold
        self.n_clusters = n_clusters
        self.knn_cap = None if knn_cap is None else int(knn_cap)

    def fit(self, dataset: UncertainDataset, seed: SeedLike = None) -> ClusteringResult:
        """Order ``dataset`` and extract a flat clustering."""
        n = len(dataset)
        rng = ensure_rng(seed)
        min_pts = min(self.min_pts, n)

        # Off-line: one batched draw of the whole (n, S, m) tensor
        # (or the engine-injected shared cache).
        samples = self._draw_samples(dataset, rng)

        watch = Stopwatch()
        extras: dict = {}
        with watch.running():
            if self.knn_cap is not None and n > 1:
                distances = self._knn_distance_graph(
                    samples, min(self.knn_cap, n - 1)
                )
                extras["knn_cap"] = self.knn_cap
                extras["n_graph_edges"] = distances.nnz // 2
            else:
                distances = expected_distance_matrix(samples)
            ordering, reachability = cluster_ordering(distances, min_pts)
            labels, threshold = self._extract(ordering, reachability)
        extras.update(
            ordering=ordering.tolist(),
            reachability=reachability.tolist(),
            threshold=threshold,
        )
        return ClusteringResult(
            labels=labels,
            runtime_seconds=watch.elapsed_seconds,
            extras=extras,
        )

    @staticmethod
    def _knn_distance_graph(
        samples: np.ndarray, k_neighbors: int
    ) -> csr_matrix:
        """Union-symmetrized kNN graph with exact gathered ÊD weights."""
        n = samples.shape[0]
        nbr = knn_candidate_indices(samples.mean(axis=1), k_neighbors)
        rows = np.repeat(np.arange(n), nbr.shape[1])
        knn = csr_matrix(
            (np.ones(nbr.size, dtype=bool), (rows, nbr.ravel())), shape=(n, n)
        )
        a, b = triu(knn + knn.T, k=1).nonzero()
        eds = gathered_pair_expected_distances(samples, a, b)
        return symmetric_csr(n, a, b, eds)

    def _extract(
        self, ordering: np.ndarray, reachability: np.ndarray
    ) -> tuple[np.ndarray, float]:
        finite = reachability[np.isfinite(reachability)]
        if finite.size == 0:
            # Single connected run: everything in one cluster.
            return np.zeros(ordering.shape[0], dtype=np.int64), float("inf")
        if self.threshold is not None:
            return (
                extract_by_threshold(ordering, reachability, self.threshold),
                self.threshold,
            )
        if self.n_clusters is None:
            cut = float(np.quantile(finite, 0.75))
            return extract_by_threshold(ordering, reachability, cut), cut
        # Bisection on the threshold to approach the requested k: the
        # number of clusters is monotonically non-increasing in the cut.
        lo = float(finite.min()) * 0.5
        hi = float(finite.max()) * 1.001
        best_labels = extract_by_threshold(ordering, reachability, hi)
        best_gap = abs(int(best_labels.max()) + 1 - self.n_clusters)
        best_cut = hi
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            labels = extract_by_threshold(ordering, reachability, mid)
            k = int(labels.max()) + 1
            gap = abs(k - self.n_clusters)
            if gap < best_gap:
                best_labels, best_gap, best_cut = labels, gap, mid
            if k > self.n_clusters:
                lo = mid
            elif k < self.n_clusters:
                hi = mid
            else:
                break
        return best_labels, best_cut
