"""FDBSCAN — fuzzy density-based clustering of uncertain data [12] (S13).

Kriegel & Pfeifle's FDBSCAN generalizes DBSCAN to uncertain objects by
treating the distance between two objects as a random variable:

* the **reachability probability** ``p_ij = Pr(||X_i - X_j|| <= eps)``
  is estimated by Monte Carlo over matched sample pairs drawn from the
  two objects' pdfs;
* an object is a **core object** when its *expected* number of
  eps-neighbors (``sum_j p_ij``, counting itself) reaches ``min_pts`` —
  the fuzzy analogue of DBSCAN's neighborhood cardinality test;
* cluster expansion follows edges whose reachability probability is at
  least ``reach_prob`` (0.5 by default), the matching fuzzy analogue of
  direct density-reachability.

Objects reachable from no core object are labeled noise (-1).  The
pairwise probability estimation is Theta(n^2 * S) — FDBSCAN belongs to
the paper's "slower" group in Figure 4 for exactly this reason.  The
off-line phase draws the whole ``(n, S, m)`` realization tensor through
:meth:`UncertainDataset.sample_tensor` (one vectorized draw per
distribution family) and the probability matrix is filled from
cache-sized lower-triangle tiles (see :mod:`repro.clustering._density`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
# Imported with the module, not in ``dbscan_labels``: it loads
# ``scipy.linalg`` (~0.1 s), which every paper workload needs through
# FDBSCAN, so deferring it would only move that cost into the first fit.
from scipy.sparse.csgraph import connected_components

from repro._typing import SeedLike
from repro.clustering._density import (
    eps_candidate_pairs,
    gathered_pair_probabilities,
    pairwise_within_eps_probabilities,
    sample_radii,
    scattered_row_sums,
    symmetric_csr,
)
from repro.clustering._sampling import SampleCacheMixin
from repro.clustering.base import ClusteringResult, UncertainClusterer
from repro.objects.dataset import UncertainDataset
from repro.utils.rng import ensure_rng
from repro.utils.timer import Stopwatch
from repro.utils.validation import (
    check_int_range,
    check_positive,
    check_probability,
)


def pairwise_reach_probabilities(
    samples: np.ndarray, eps: float, block: Optional[int] = None
) -> np.ndarray:
    """``(n, n)`` matrix of ``Pr(||X_i - X_j|| <= eps)`` estimates.

    ``samples`` has shape ``(n, S, m)``; the estimate for a pair uses the
    ``S`` matched sample pairs (an unbiased MC estimator of the double
    integral).  The diagonal is fixed at 1.  ``block`` pins the tile
    side of the tiled kernel (cache-sized when ``None``).
    """
    return pairwise_within_eps_probabilities(samples, eps, block=block)


def dbscan_labels(
    is_core: np.ndarray, graph: np.ndarray | csr_matrix
) -> np.ndarray:
    """DBSCAN labels from core flags and a symmetric reachability graph.

    ``graph`` is an ``(n, n)`` dense boolean array or scipy sparse
    matrix whose nonzero entries are the reachability edges.  A cluster
    is a connected component of the graph restricted to core objects,
    numbered by its smallest member (``connected_components`` numbers
    components in order of their smallest node); a non-core object
    takes the smallest cluster id among its core neighbours and is
    noise (-1) without one.  This is exactly the breadth-first DBSCAN
    expansion seeded in ascending object order: each cluster expands
    fully before the next starts, so a border object joins the first
    cluster that reaches it.
    """
    graph = csr_matrix(graph)
    core = np.flatnonzero(is_core)
    border = np.flatnonzero(~is_core)
    labels = np.full(is_core.shape[0], -1, dtype=np.int64)
    to_core = graph[:, core]
    labels[core] = connected_components(to_core[core], directed=False)[1]
    links = to_core[border].tocoo()
    first = np.full(border.shape[0], core.shape[0])
    np.minimum.at(first, links.row, labels[core[links.col]])
    reached = first < core.shape[0]
    labels[border[reached]] = first[reached]
    return labels


def auto_eps(dataset: UncertainDataset, quantile: float = 0.1) -> float:
    """Heuristic ``eps``: a low quantile of inter-object center distances.

    The paper does not publish its FDBSCAN parameterization; a quantile
    of the pairwise expected-value distances adapts eps to each dataset's
    scale, which is the standard DBSCAN calibration practice.
    """
    check_probability(quantile, "quantile")
    mu = dataset.mu_matrix
    n = mu.shape[0]
    if n < 2:
        return 1.0
    # Subsample pairs on large datasets to keep calibration cheap.
    max_rows = 512
    if n > max_rows:
        step = n // max_rows
        mu = mu[::step]
        n = mu.shape[0]
    sq = np.einsum("ij,ij->i", mu, mu)
    dist_sq = sq[:, None] - 2.0 * (mu @ mu.T) + sq[None, :]
    np.maximum(dist_sq, 0.0, out=dist_sq)
    upper = dist_sq[np.triu_indices(n, k=1)]
    return float(np.sqrt(np.quantile(upper, quantile)))


class FDBSCAN(SampleCacheMixin, UncertainClusterer):
    """Fuzzy DBSCAN over uncertain objects [12].

    Parameters
    ----------
    eps:
        Neighborhood radius; ``None`` selects it per dataset via
        :func:`auto_eps`.
    min_pts:
        Expected-neighbor-count threshold for core objects.
    reach_prob:
        Minimum reachability probability for an expansion edge.
    n_samples:
        Monte-Carlo samples per object for probability estimation.
    eps_quantile:
        Quantile used by the automatic eps calibration.
    prefilter:
        When true, a radius prefilter on the objects' sample means
        bounds the candidate-pair set before any probability kernel
        runs: a pair whose sample-mean distance exceeds ``eps + r_i +
        r_j`` (``r`` = largest sample deviation from the sample mean)
        has *exactly zero* within-eps probability by the triangle
        inequality, so labels are preserved — without ever
        materializing the ``(n, n)`` probability matrix.  This is the
        scale path for large ``n``; see the README's "Scaling beyond
        the paper grid".

    Notes
    -----
    As a :class:`SampleCacheMixin` subclass, the off-line sample tensor
    can be pinned via ``sample_cache`` — the multi-restart engine and
    the experiment runners use this to draw it exactly once.
    """

    name = "FDB"
    has_objective = False
    sample_randomness_only = True

    def __init__(
        self,
        eps: Optional[float] = None,
        min_pts: int = 4,
        reach_prob: float = 0.5,
        n_samples: int = 32,
        eps_quantile: float = 0.1,
        prefilter: bool = False,
    ):
        if eps is not None:
            check_positive(eps, "eps")
        check_probability(reach_prob, "reach_prob")
        check_probability(eps_quantile, "eps_quantile")
        self.eps = eps
        self.min_pts = check_int_range(min_pts, "min_pts", low=1)
        self.reach_prob = float(reach_prob)
        self.n_samples = check_int_range(n_samples, "n_samples", low=1)
        self.eps_quantile = float(eps_quantile)
        self.prefilter = bool(prefilter)

    def fit(self, dataset: UncertainDataset, seed: SeedLike = None) -> ClusteringResult:
        """Cluster ``dataset``; noise objects get label -1."""
        rng = ensure_rng(seed)
        eps = self.eps if self.eps is not None else auto_eps(
            dataset, self.eps_quantile
        )

        # Off-line: one batched draw of the whole (n, S, m) tensor
        # (or the engine-injected shared cache).
        samples = self._draw_samples(dataset, rng)

        watch = Stopwatch()
        extras = {"eps": eps}
        with watch.running():
            if self.prefilter:
                is_core, reachable = self._prefiltered_graph(samples, eps, extras)
            else:
                probs = pairwise_reach_probabilities(samples, eps)
                expected_neighbors = probs.sum(axis=1)  # self included (p_ii = 1)
                is_core = expected_neighbors >= self.min_pts
                reachable = probs >= self.reach_prob
            labels = dbscan_labels(is_core, reachable)
        extras["n_core"] = int(is_core.sum())
        extras["n_noise"] = int(np.sum(labels < 0))
        return self._result(watch, labels, extras=extras)

    def _prefiltered_graph(
        self, samples: np.ndarray, eps: float, extras: dict
    ) -> tuple[np.ndarray, csr_matrix]:
        """Radius-prefiltered path: no ``(n, n)`` matrix, same labels.

        Returns the core flags and the sparse reachability graph.
        Pruned pairs have exactly-zero within-eps probability (see
        :func:`repro.clustering._density.eps_candidate_pairs`), so both
        the expected neighbor counts and the reachability edge set are
        the dense path's — up to ulp-level kernel noise at threshold
        boundaries, the accepted hazard class of the dense GEMM kernel,
        pinned by the capped-vs-dense label regression.
        """
        n = samples.shape[0]
        radii = sample_radii(samples)
        ii, jj = eps_candidate_pairs(samples.mean(axis=1), radii, eps)
        pair_probs = gathered_pair_probabilities(samples, eps, ii, jj)
        # Row sums through the dense pairwise-reduction tree (absent
        # pairs are exact zeros, self contributes p_ii = 1): bitwise
        # the dense ``probs.sum(axis=1)`` given equal pair values, so
        # the min_pts core threshold can never flip on summation order.
        expected_neighbors = scattered_row_sums(n, ii, jj, pair_probs)
        is_core = expected_neighbors >= self.min_pts
        edge = pair_probs >= self.reach_prob
        reachable = symmetric_csr(
            n, ii[edge], jj[edge], np.ones(np.count_nonzero(edge), dtype=bool)
        )
        total_pairs = n * (n - 1) // 2
        extras["n_candidate_pairs"] = int(ii.size)
        extras["pair_prune_rate"] = (
            1.0 - ii.size / total_pairs if total_pairs else 0.0
        )
        return is_core, reachable
