"""MMVar — Minimizing the Variance of cluster mixture models [8] (S11).

MMVar's centroid is the cluster's mixture model ``C_MM`` (Eq. (10)) and
its compactness criterion is the centroid's variance
``J_MM(C) = sigma^2(C_MM)`` (Eq. (11)).  With Lemma 2, per dimension:

    sigma^2_j(C_MM) = Phi_j/|C| - (S_j/|C|)^2,

with ``Phi_j = sum_o mu2_j(o)`` and ``S_j = sum_o mu_j(o)`` — so, like
UCPC, MMVar admits O(m) add/remove objective updates and runs the same
local-search relocation scheme at O(I·k·n·m).

Proposition 2 of the paper proves ``J_MM(C) = J_UK(C)/|C|``: the
*per-cluster* criteria differ only by the cardinality factor.  The summed
objectives weight clusters differently, so the two algorithms may still
produce different partitions — which the experiments confirm.
"""

from __future__ import annotations

import numpy as np

from repro._typing import SeedLike
from repro.clustering.base import (
    ClusteringResult,
    UncertainClusterer,
    validate_n_clusters,
)
from repro.clustering.initialization import random_partition
from repro.exceptions import InvalidParameterError, warn_convergence
from repro.objects.dataset import UncertainDataset
from repro.utils.rng import ensure_rng
from repro.utils.timer import Stopwatch


class MMVar(UncertainClusterer):
    """MMVar local-search clustering [8].

    Parameters
    ----------
    n_clusters:
        Number of output clusters ``k``.
    max_iter:
        Cap on relocation sweeps.
    min_improvement:
        Relative threshold below which a relocation gain is ignored.
    """

    name = "MMV"

    def __init__(
        self,
        n_clusters: int,
        max_iter: int = 100,
        min_improvement: float = 1e-12,
    ):
        if max_iter < 1:
            raise InvalidParameterError(f"max_iter must be >= 1, got {max_iter}")
        self.n_clusters = int(n_clusters)
        self.max_iter = int(max_iter)
        self.min_improvement = float(min_improvement)

    def fit(self, dataset: UncertainDataset, seed: SeedLike = None) -> ClusteringResult:
        """Cluster ``dataset`` by minimizing summed mixture-model variance."""
        n = len(dataset)
        k = validate_n_clusters(self.n_clusters, n)
        rng = ensure_rng(seed)
        assignment = random_partition(n, k, rng)

        mu2 = dataset.mu2_matrix
        mu = dataset.mu_matrix
        watch = Stopwatch()
        history = []
        iterations = 0
        converged = False
        with watch.running():
            # Cached scalar statistics (same scheme as UCPC's inner loop):
            # J_MM(c) = phi_tot/n_c - ||S_c||^2/n_c^2 per Lemma 2.
            mu2_tot = mu2.sum(axis=1)
            mu_norm_sq = np.einsum("ij,ij->i", mu, mu)
            counts = np.bincount(assignment, minlength=k).astype(np.float64)
            phi_tot = np.zeros(k)
            mean_sums = np.zeros((k, dataset.dim))
            np.add.at(phi_tot, assignment, mu2_tot)
            np.add.at(mean_sums, assignment, mu)
            ups = np.einsum("cj,cj->c", mean_sums, mean_sums)

            def objectives_vector() -> np.ndarray:
                safe = np.maximum(counts, 1.0)
                per = phi_tot / safe - ups / (safe * safe)
                return np.where(counts > 0, np.maximum(per, 0.0), 0.0)

            objectives = objectives_vector()
            history.append(float(objectives.sum()))
            for _ in range(self.max_iter):
                iterations += 1
                moved = 0
                threshold = -self.min_improvement * max(1.0, abs(history[-1]))
                # Random scan order per sweep (same policy as UCPC).
                for idx in rng.permutation(n):
                    idx = int(idx)
                    own = int(assignment[idx])
                    if counts[own] <= 1.0:
                        continue
                    p = mu2_tot[idx]
                    cross = mean_sums @ mu[idx]
                    counts_plus = counts + 1.0
                    j_with = (phi_tot + p) / counts_plus - (
                        ups + 2.0 * cross + mu_norm_sq[idx]
                    ) / (counts_plus * counts_plus)
                    n_minus = counts[own] - 1.0
                    if n_minus == 0.0:
                        j_without = 0.0
                    else:
                        j_without = (phi_tot[own] - p) / n_minus - (
                            ups[own] - 2.0 * cross[own] + mu_norm_sq[idx]
                        ) / (n_minus * n_minus)
                    delta = (j_without - objectives[own]) + (j_with - objectives)
                    delta[own] = 0.0
                    best = int(np.argmin(delta))
                    if best != own and delta[best] < threshold:
                        counts[own] -= 1.0
                        counts[best] += 1.0
                        phi_tot[own] -= p
                        phi_tot[best] += p
                        mean_sums[own] -= mu[idx]
                        mean_sums[best] += mu[idx]
                        ups[own] = ups[own] - 2.0 * cross[own] + mu_norm_sq[idx]
                        ups[best] = ups[best] + 2.0 * cross[best] + mu_norm_sq[idx]
                        objectives[own] = max(j_without, 0.0)
                        objectives[best] = max(float(j_with[best]), 0.0)
                        assignment[idx] = best
                        moved += 1
                # Refresh exact sums once per sweep to cap round-off drift.
                ups = np.einsum("cj,cj->c", mean_sums, mean_sums)
                objectives = objectives_vector()
                history.append(float(objectives.sum()))
                if moved == 0:
                    converged = True
                    break
        if not converged:
            warn_convergence(
                f"MMVar hit max_iter={self.max_iter} before convergence"
            )
        return ClusteringResult(
            labels=assignment,
            objective=history[-1],
            n_iterations=iterations,
            converged=converged,
            runtime_seconds=watch.elapsed_seconds,
            objective_history=history,
        )
