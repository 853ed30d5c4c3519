"""U-AHC — agglomerative hierarchical clustering of uncertain data [9] (S15).

Gullo et al.'s U-AHC merges, at every step, the pair of clusters whose
*mixture-model representatives* are closest, where each cluster is
summarized by the mixture of its members' pdfs (the MMVar centroid of
Eq. (10)) and proximity between representatives is scored with an
**information-theoretic** measure over the mixture pdfs.

Substitution note (see "Substitutions" in the README): the original measure
combines entropy-based terms we cannot transcribe from [9]; our default
``linkage="jeffreys"`` scores proximity with the symmetric
Kullback-Leibler (Jeffreys) divergence between diagonal-Gaussian
approximations of the mixtures — an information-theoretic divergence
that, like the original, is sensitive to both location *and* variance
mismatch.  ``linkage="ed"`` provides the purely geometric alternative
(squared expected distance between the mixture representatives, Lemma 3
over Lemma 2 moments).

The full dendrogram is recorded; the flat clustering is obtained by
stopping at ``n_clusters`` clusters.

Under ``linkage="ed"`` the proximity between two *singleton* clusters is
exactly the squared expected distance ``ÊD`` of Lemma 3, and a merged
cluster's representative is refit from its members' summed moments
(Lemma 2), so ``ÊD(a∪b, c) = (n_a ÊD(a, c) + n_b ÊD(b, c)) / (n_a + n_b)``:
the Lance–Williams recurrence of average linkage (UPGMA).  That linkage
is therefore :func:`scipy.cluster.hierarchy.linkage` (``"average"``) over
the dataset's pairwise ``ÊD`` matrix — the same off-line artifact
UK-medoids precomputes, read from the same place,
:meth:`~repro.objects.dataset.UncertainDataset.pairwise_ed` (it declares
``wants_pairwise_ed`` for it).  The Jeffreys linkage has no such
recurrence and keeps its own merge loop over an in-fit proximity build
from lower-triangle tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro._typing import SeedLike
from repro.clustering._density import symmetric_from_tiles
from repro.clustering.base import (
    ClusteringResult,
    UncertainClusterer,
    validate_n_clusters,
)
from repro.exceptions import InvalidParameterError
from repro.objects.dataset import UncertainDataset
from repro.utils.timer import Stopwatch
from repro.utils.validation import check_int_range

#: Variance floor for the Gaussian approximations under the Jeffreys
#: linkage, whose divergence divides by per-dimension variances (point
#: masses would divide by zero).
_VAR_FLOOR = 1e-9


@dataclass(frozen=True)
class MergeStep:
    """One dendrogram merge: clusters ``left`` and ``right`` at ``height``."""

    left: int
    right: int
    height: float
    size: int


class UAHC(UncertainClusterer):
    """Agglomerative hierarchical clustering with mixture representatives.

    Parameters
    ----------
    n_clusters:
        Number of flat clusters to cut the dendrogram at.
    linkage:
        ``"jeffreys"`` (default) — symmetric KL divergence between
        diagonal-Gaussian approximations of the cluster mixtures
        (information-theoretic, per [9]);
        ``"ed"`` — squared expected distance between mixture
        representatives (geometric).

    Notes
    -----
    Under ``"jeffreys"`` cluster mixtures are tracked by their summed
    moments (Lemma 2), so a merge is O(m) and each proximity-row refresh
    is O(n·m); the overall scan cost is Theta(n^2) per merge in the
    worst case — U-AHC belongs to the "slower" group of the paper's
    Figure 4.  ``"ed"`` is average linkage, run by scipy in O(n^2).
    """

    name = "UAHC"
    has_objective = False
    #: Merge loop is interpreter-bound — the engine routes UAHC to the
    #: process pool.
    preferred_backend = "processes"

    def __init__(self, n_clusters: int, linkage: str = "jeffreys"):
        if linkage not in ("jeffreys", "ed"):
            raise InvalidParameterError(
                f"linkage must be 'jeffreys' or 'ed', got {linkage!r}"
            )
        self.n_clusters = check_int_range(n_clusters, "n_clusters", low=1)
        self.linkage = linkage

    @property
    def wants_pairwise_ed(self) -> bool:
        """Only the ``"ed"`` linkage consumes the dataset's ``ÊD`` matrix."""
        return self.linkage == "ed"

    def fit(self, dataset: UncertainDataset, seed: SeedLike = None) -> ClusteringResult:
        """Cluster ``dataset`` bottom-up; ``seed`` is unused (deterministic)."""
        n = len(dataset)
        k = validate_n_clusters(self.n_clusters, n)
        # Off-line phase of the "ed" linkage, untimed as in UK-medoids.
        matrix = dataset.pairwise_ed() if self.linkage == "ed" else None

        watch = Stopwatch()
        with watch.running():
            if matrix is not None:
                merges = self._average_linkage(matrix, k)
            else:
                merges = self._jeffreys_merges(dataset, k)
            labels = _cut(n, merges)
        extras = {"merges": merges, "linkage": self.linkage}
        return self._result(watch, labels, iterations=n - k, extras=extras)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _average_linkage(self, matrix: np.ndarray, k: int) -> List[MergeStep]:
        """The first ``n - k`` merges of average linkage over ``ÊD``.

        Each cluster is named by its smallest member, as in the Jeffreys
        loop.
        """
        from scipy.cluster.hierarchy import linkage
        from scipy.spatial.distance import squareform

        n = len(matrix)
        if k == n:
            return []
        tree = linkage(squareform(matrix, checks=False), "average")
        # scipy names the cluster formed by row i ``n + i``.
        smallest = np.arange(2 * n - 1)
        merges: List[MergeStep] = []
        for row, (x, y, height, size) in enumerate(tree[: n - k]):
            a, b = sorted((int(smallest[int(x)]), int(smallest[int(y)])))
            smallest[n + row] = a
            merges.append(
                MergeStep(left=a, right=b, height=float(height), size=int(size))
            )
        return merges

    def _jeffreys_merges(
        self, dataset: UncertainDataset, k: int
    ) -> List[MergeStep]:
        """Greedy merges under the Jeffreys linkage, down to ``k`` clusters."""
        n = len(dataset)
        # Per-active-cluster summed moments (mixture moments * count).
        mu_sum = dataset.mu_matrix.copy()
        mu2_sum = dataset.mu2_matrix.copy()
        counts = np.ones(n, dtype=np.int64)
        active = np.ones(n, dtype=bool)

        # Gaussian fits of every cluster mixture, maintained
        # incrementally: a merge touches only the absorbing cluster's
        # sums, so only that one row of (mix_mu, mix_var) is refreshed
        # per step instead of refitting all n clusters.
        mix_mu, mix_var = self._gaussian_parameters(mu_sum, mu2_sum, counts)
        prox = self._full_proximity(mix_mu, mix_var)
        np.fill_diagonal(prox, np.inf)

        merges: List[MergeStep] = []
        for _ in range(n - k):
            flat = int(np.argmin(prox))
            a, b = divmod(flat, n)
            if a > b:
                a, b = b, a
            height = float(prox[a, b])
            # Merge b into a.
            mu_sum[a] += mu_sum[b]
            mu2_sum[a] += mu2_sum[b]
            counts[a] += counts[b]
            active[b] = False
            merges.append(
                MergeStep(left=a, right=b, height=height, size=int(counts[a]))
            )
            # Retire b; refit the merged cluster's Gaussian (same
            # elementwise operations as `_gaussian_parameters`, applied
            # to the one changed row) and refresh its proximities.
            prox[b, :] = np.inf
            prox[:, b] = np.inf
            inv = 1.0 / float(counts[a])
            mix_mu[a] = mu_sum[a] * inv
            mix_var[a] = np.maximum(
                mu2_sum[a] * inv - mix_mu[a] ** 2, _VAR_FLOOR
            )
            row = self._row_against(mix_mu, mix_var, a)
            row[~active] = np.inf
            row[a] = np.inf
            prox[a, :] = row
            prox[:, a] = row
        return merges

    def _gaussian_parameters(
        self, mu_sum: np.ndarray, mu2_sum: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(means, variances) of each cluster mixture's Gaussian fit."""
        inv = 1.0 / counts.astype(np.float64)
        mix_mu = mu_sum * inv[:, None]
        mix_mu2 = mu2_sum * inv[:, None]
        mix_var = np.maximum(mix_mu2 - mix_mu**2, _VAR_FLOOR)
        return mix_mu, mix_var

    def _full_proximity(
        self, mu: np.ndarray, var: np.ndarray, block: Optional[int] = None
    ) -> np.ndarray:
        """All-pairs Jeffreys proximity, built from its lower triangle.

        Each tile of :func:`~repro.clustering._density.symmetric_from_tiles`
        evaluates :meth:`_row_against`'s elementwise formula with its
        rows as targets over an ``(rows, cols, m)`` broadcast and reduces
        the contiguous trailing axis, so every entry is bit-identical to
        the per-row loop.  Entry ``(j, i)`` has the same two addends as
        ``(i, j)``, only swapped, so the matrix is exactly symmetric and
        its lower triangle determines it.  ``block`` pins the tile side.
        The dendrogram regression in
        ``tests/test_density_hierarchical.py`` pins the merge order.
        """
        n, m = mu.shape

        def tile(rows: slice, cols: slice) -> np.ndarray:
            diff_sq = (mu[None, cols, :] - mu[rows, None, :]) ** 2
            target, other = var[rows, None, :], var[None, cols, :]
            term = (other + diff_sq) / target + (target + diff_sq) / other
            return 0.5 * (term - 2.0).sum(axis=2)

        # Per pair: eight m-vectors, one per elementwise step above.
        return symmetric_from_tiles(n, 8 * m, tile, block)

    def _row_against(
        self, mu: np.ndarray, var: np.ndarray, target: int
    ) -> np.ndarray:
        diff_sq = (mu - mu[target]) ** 2
        # Symmetric KL between diagonal Gaussians:
        # 0.5 sum_j [ (var_i + d^2)/var_t + (var_t + d^2)/var_i - 2 ].
        term = (var + diff_sq) / var[target] + (var[target] + diff_sq) / var
        return 0.5 * (term - 2.0).sum(axis=1)


def _cut(n: int, merges: List[MergeStep]) -> np.ndarray:
    """Flat labels after ``merges``, numbered by each cluster's smallest member."""
    membership = np.arange(n)
    for step in merges:
        membership[membership == step.right] = step.left
    return np.unique(membership, return_inverse=True)[1]
