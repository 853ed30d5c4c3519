"""UCPC ablation variants (E8) — the design alternatives the paper rejects.

Section 4.2 of the paper considers and *rejects* one U-centroid-based
criterion before settling on J:

* :class:`VarianceOnlyClustering` — minimize the summed U-centroid
  variances ``sum_C sigma^2(C̄_C)`` (Section 4.2.1).  Theorem 2 shows
  this reduces to ``sum_C |C|^-2 sum_{o in C} sigma^2(o)``, which ignores
  inter-object distances entirely (Figure 2's failure mode).  We
  implement it as an honest local-search baseline so the ablation bench
  can *measure* how badly it clusters.

One further variant probes the algorithmic (not objective) choice:

* :class:`UCPCLloyd` — minimizes the same J objective but with
  Lloyd-style batch iterations (assign every object to the cluster whose
  J-insertion cost is lowest, then rebuild all statistics) instead of
  Algorithm 1's sequential single-object relocations.  Comparing the two
  isolates how much of UCPC's behaviour comes from the relocation local
  search rather than from J itself.
"""

from __future__ import annotations

import numpy as np

from repro._typing import SeedLike
from repro.clustering.base import (
    ClusteringResult,
    UncertainClusterer,
    validate_n_clusters,
)
from repro.clustering.cluster_stats import ClusterStatsMatrix
from repro.clustering.initialization import random_partition
from repro.objects.dataset import UncertainDataset
from repro.utils.rng import ensure_rng
from repro.utils.timer import Stopwatch
from repro.utils.validation import check_int_range


class VarianceOnlyClustering(UncertainClusterer):
    """Local search minimizing ``sum_C sigma^2(C̄_C)`` (the rejected criterion).

    By Theorem 2 the per-cluster term is ``|C|^-2 sum_o sigma^2(o)``, so
    the criterion only sees the objects' variances — never their
    positions.  Expected behaviour (verified by the ablation bench): it
    happily groups far-apart low-variance objects and performs near
    chance on positional structure.
    """

    name = "VarOnly"

    def __init__(self, n_clusters: int, max_iter: int = 100):
        self.n_clusters = check_int_range(n_clusters, "n_clusters", low=1)
        self.max_iter = check_int_range(max_iter, "max_iter", low=1)

    def fit(self, dataset: UncertainDataset, seed: SeedLike = None) -> ClusteringResult:
        """Cluster ``dataset`` by U-centroid variance alone."""
        n = len(dataset)
        k = validate_n_clusters(self.n_clusters, n)
        rng = ensure_rng(seed)
        assignment = random_partition(n, k, rng)
        variances = dataset.total_variances

        watch = Stopwatch()
        history = []
        iterations = 0
        converged = False
        with watch.running():
            var_sums = np.zeros(k)
            counts = np.zeros(k, dtype=np.int64)
            np.add.at(var_sums, assignment, variances)
            np.add.at(counts, assignment, 1)

            def total():
                safe = np.maximum(counts, 1).astype(np.float64)
                per = var_sums / (safe * safe)
                return float(np.where(counts > 0, per, 0.0).sum())

            history.append(total())
            for _ in range(self.max_iter):
                iterations += 1
                moved = 0
                for idx in range(n):
                    own = int(assignment[idx])
                    if counts[own] <= 1:
                        continue
                    v = float(variances[idx])
                    best_delta = 0.0
                    best = own
                    own_after = (var_sums[own] - v) / (counts[own] - 1) ** 2
                    own_before = var_sums[own] / counts[own] ** 2
                    for c in range(k):
                        if c == own:
                            continue
                        c_after = (var_sums[c] + v) / (counts[c] + 1) ** 2
                        c_before = var_sums[c] / counts[c] ** 2
                        delta = (own_after + c_after) - (own_before + c_before)
                        if delta < best_delta - 1e-15:
                            best_delta = delta
                            best = c
                    if best != own:
                        var_sums[own] -= v
                        counts[own] -= 1
                        var_sums[best] += v
                        counts[best] += 1
                        assignment[idx] = best
                        moved += 1
                history.append(total())
                if moved == 0:
                    converged = True
                    break
        return self._result(
            watch, assignment, history[-1], iterations, converged, history
        )


class UCPCLloyd(UncertainClusterer):
    """Batch (Lloyd-style) minimization of the UCPC objective J.

    Each iteration computes, for every object, the J-insertion cost into
    each *current* cluster (Eq. (15)) and reassigns all objects at once.
    Unlike Algorithm 1 this is not monotone in general — the batch update
    invalidates the incremental deltas — so convergence is detected by
    assignment fixpoints with a cycle cap.
    """

    name = "UCPC-Lloyd"

    def __init__(self, n_clusters: int, max_iter: int = 100):
        self.n_clusters = check_int_range(n_clusters, "n_clusters", low=1)
        self.max_iter = check_int_range(max_iter, "max_iter", low=1)

    def fit(self, dataset: UncertainDataset, seed: SeedLike = None) -> ClusteringResult:
        """Cluster ``dataset`` with batch J-cost assignments."""
        n = len(dataset)
        k = validate_n_clusters(self.n_clusters, n)
        rng = ensure_rng(seed)
        assignment = random_partition(n, k, rng)
        sigma2 = dataset.sigma2_matrix
        mu2 = dataset.mu2_matrix
        mu = dataset.mu_matrix

        watch = Stopwatch()
        history = []
        iterations = 0
        converged = False
        with watch.running():
            for _ in range(self.max_iter):
                iterations += 1
                stats = ClusterStatsMatrix.from_assignment(dataset, assignment, k)
                history.append(stats.total_objective())
                current = stats.objectives()
                new_assignment = assignment.copy()
                for idx in range(n):
                    own = int(assignment[idx])
                    if stats.counts[own] <= 1:
                        continue
                    gains = stats.objectives_with(
                        sigma2[idx], mu2[idx], mu[idx]
                    ) - current
                    own_without = stats.objective_without(
                        own, sigma2[idx], mu2[idx], mu[idx]
                    )
                    gains = gains + (own_without - current[own])
                    gains[own] = 0.0
                    best = int(np.argmin(gains))
                    if gains[best] < -1e-12:
                        new_assignment[idx] = best
                if np.array_equal(new_assignment, assignment):
                    converged = True
                    break
                assignment = new_assignment
            final = ClusterStatsMatrix.from_assignment(dataset, assignment, k)
            history.append(final.total_objective())
        return self._result(
            watch, assignment, history[-1], iterations, converged, history
        )
