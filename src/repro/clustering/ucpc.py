"""UCPC — U-Centroid-based Partitional Clustering (Algorithm 1, S7).

The paper's contribution: a local-search heuristic minimizing
``sum_C J(C)`` where ``J(C) = sum_o ÊD(o, C̄)`` is the summed squared
expected distance of the members to the cluster's U-centroid (Eq. (14)).
Theorem 3's closed form makes ``J`` computable from the Psi/Phi/Upsilon
statistics, and Corollary 1 makes each candidate relocation an O(m)
evaluation — yielding the paper's O(I·k·n·m) total complexity
(Proposition 5) with guaranteed convergence to a local minimum
(Proposition 4).

Algorithm outline (Alg. 1 of the paper):

1. Precompute every object's moment vectors (done once by
   :class:`~repro.objects.dataset.UncertainDataset`).
2. Take an initial partition.
3. Sweep the objects; for each, find the cluster whose gain
   ``[J(C_o \\ {o}) + J(C* ∪ {o})] - [J(C_o) + J(C*)]`` is minimal and
   relocate if that improves the global objective.
4. Repeat until a full sweep relocates nothing.
"""

from __future__ import annotations

import numpy as np

from repro._typing import IntArray, SeedLike
from repro.clustering.base import (
    ClusteringResult,
    UncertainClusterer,
    validate_n_clusters,
)
from repro.clustering.initialization import (
    kmeanspp_seed_indices,
    partition_from_seeds,
    random_partition,
    random_seed_indices,
)
from repro.exceptions import InvalidParameterError, warn_convergence
from repro.objects.dataset import UncertainDataset
from repro.utils.rng import ensure_rng
from repro.utils.timer import Stopwatch


class UCPC(UncertainClusterer):
    """U-Centroid-based Partitional Clustering (the paper's Algorithm 1).

    Parameters
    ----------
    n_clusters:
        Number of output clusters ``k``.
    max_iter:
        Cap on full relocation sweeps (``I`` in Proposition 5).  The
        algorithm provably converges on its own (Proposition 4); the cap
        only guards pathological inputs.
    init:
        ``"random"`` — uniformly random initial partition (the paper's
        "e.g., a random partition");
        ``"seeds"`` — partition induced by k uniformly chosen seed
        objects (still random, but the initial centroids are spread);
        ``"kmeans++"`` — partition induced by k-means++ seeds on the
        expected values.
    min_improvement:
        Relative objective decrease below which a relocation is treated
        as numerical noise and skipped.

    Examples
    --------
    >>> from repro.datagen import make_blobs_uncertain
    >>> data = make_blobs_uncertain(n_objects=60, n_clusters=3, seed=7)
    >>> result = UCPC(n_clusters=3).fit(data, seed=7)
    >>> result.n_clusters
    3
    """

    name = "UCPC"
    #: Relocation sweep is an interpreter-bound per-object loop — the
    #: engine routes UCPC to the process pool.
    preferred_backend = "processes"

    def __init__(
        self,
        n_clusters: int,
        max_iter: int = 100,
        init: str = "random",
        min_improvement: float = 1e-12,
    ):
        if init not in ("random", "seeds", "kmeans++"):
            raise InvalidParameterError(
                f"init must be 'random', 'seeds' or 'kmeans++', got {init!r}"
            )
        if max_iter < 1:
            raise InvalidParameterError(f"max_iter must be >= 1, got {max_iter}")
        if min_improvement < 0:
            raise InvalidParameterError(
                f"min_improvement must be >= 0, got {min_improvement}"
            )
        self.n_clusters = int(n_clusters)
        self.max_iter = int(max_iter)
        self.init = init
        self.min_improvement = float(min_improvement)

    def fit(self, dataset: UncertainDataset, seed: SeedLike = None) -> ClusteringResult:
        """Run Algorithm 1 on ``dataset``."""
        n = len(dataset)
        k = validate_n_clusters(self.n_clusters, n)
        rng = ensure_rng(seed)
        assignment = self._initial_partition(dataset, k, rng)

        watch = Stopwatch()
        with watch.running():
            assignment, history, iterations, converged = self._local_search(
                dataset, assignment, k, rng
            )
        if not converged:
            warn_convergence(
                f"UCPC hit max_iter={self.max_iter} before convergence"
            )
        return ClusteringResult(
            labels=assignment,
            objective=history[-1],
            n_iterations=iterations,
            converged=converged,
            runtime_seconds=watch.elapsed_seconds,
            objective_history=history,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _initial_partition(
        self, dataset: UncertainDataset, k: int, rng: np.random.Generator
    ) -> IntArray:
        if self.init == "kmeans++":
            seeds = kmeanspp_seed_indices(dataset, k, rng)
        elif self.init == "seeds":
            seeds = random_seed_indices(len(dataset), k, rng)
        else:
            return random_partition(len(dataset), k, rng)
        assignment = partition_from_seeds(dataset, seeds)
        # Guarantee non-empty clusters: pin each seed to its own cluster.
        assignment[seeds] = np.arange(k)
        return assignment

    def _local_search(
        self,
        dataset: UncertainDataset,
        assignment: IntArray,
        k: int,
        rng: np.random.Generator,
    ) -> tuple[IntArray, list, int, bool]:
        """Algorithm 1's relocation sweeps over cached scalar statistics.

        Per cluster c we maintain the scalars ``psi_tot = sum_j Psi_j``,
        ``phi_tot = sum_j Phi_j``, the mean-sum matrix ``S`` and its
        squared row norms ``ups = ||S_c||^2``, from which (Theorem 3)

            J(c) = psi_tot/n_c + phi_tot - ups/n_c.

        Evaluating every candidate insertion (Eq. (15)) then needs one
        ``S @ mu_o`` matvec plus O(k) vector arithmetic per object —
        Corollary 1's O(k·m) with minimal interpreter overhead.
        """
        assignment = assignment.copy()
        sigma2_tot = dataset.sigma2_matrix.sum(axis=1)
        mu2_tot = dataset.mu2_matrix.sum(axis=1)
        mu = dataset.mu_matrix
        mu_norm_sq = np.einsum("ij,ij->i", mu, mu)

        counts = np.bincount(assignment, minlength=k).astype(np.float64)
        psi_tot = np.zeros(k)
        phi_tot = np.zeros(k)
        mean_sums = np.zeros((k, dataset.dim))
        np.add.at(psi_tot, assignment, sigma2_tot)
        np.add.at(phi_tot, assignment, mu2_tot)
        np.add.at(mean_sums, assignment, mu)
        ups = np.einsum("cj,cj->c", mean_sums, mean_sums)

        def objectives_vector() -> np.ndarray:
            safe = np.maximum(counts, 1.0)
            per = psi_tot / safe + phi_tot - ups / safe
            return np.where(counts > 0, per, 0.0)

        objectives = objectives_vector()
        history = [float(objectives.sum())]

        iterations = 0
        converged = False
        for _ in range(self.max_iter):
            iterations += 1
            moved = 0
            threshold = -self.min_improvement * max(1.0, abs(history[-1]))
            # Algorithm 1 leaves the scan order open; a fresh random order
            # per sweep avoids order artifacts in the local search.
            for idx in rng.permutation(len(dataset)):
                idx = int(idx)
                own = int(assignment[idx])
                if counts[own] <= 1.0:
                    # Relocating the last member would empty the cluster;
                    # the partition must keep exactly k clusters.
                    continue
                s = sigma2_tot[idx]
                p = mu2_tot[idx]
                cross = mean_sums @ mu[idx]
                counts_plus = counts + 1.0
                j_with = (psi_tot + s) / counts_plus + (phi_tot + p) - (
                    ups + 2.0 * cross + mu_norm_sq[idx]
                ) / counts_plus
                # counts[own] > 1 is guaranteed by the continue above.
                n_minus = counts[own] - 1.0
                j_without = (
                    (psi_tot[own] - s) / n_minus
                    + (phi_tot[own] - p)
                    - (ups[own] - 2.0 * cross[own] + mu_norm_sq[idx])
                    / n_minus
                )
                # Candidate total change for moving idx into cluster c:
                # [J(own \ o) + J(c ∪ o)] - [J(own) + J(c)]
                delta = (j_without - objectives[own]) + (j_with - objectives)
                delta[own] = 0.0
                best = int(np.argmin(delta))
                if best != own and delta[best] < threshold:
                    # Apply the move: O(m) cache updates (Corollary 1).
                    counts[own] -= 1.0
                    counts[best] += 1.0
                    psi_tot[own] -= s
                    psi_tot[best] += s
                    phi_tot[own] -= p
                    phi_tot[best] += p
                    mean_sums[own] -= mu[idx]
                    mean_sums[best] += mu[idx]
                    ups[own] = ups[own] - 2.0 * cross[own] + mu_norm_sq[idx]
                    ups[best] = ups[best] + 2.0 * cross[best] + mu_norm_sq[idx]
                    objectives[own] = j_without
                    objectives[best] = j_with[best]
                    assignment[idx] = best
                    moved += 1
            # Refresh from exact sums once per sweep to cap round-off drift.
            ups = np.einsum("cj,cj->c", mean_sums, mean_sums)
            objectives = objectives_vector()
            history.append(float(objectives.sum()))
            if moved == 0:
                converged = True
                break
        return assignment, history, iterations, converged
