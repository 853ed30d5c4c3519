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
from repro.exceptions import InvalidParameterError
from repro.objects.dataset import UncertainDataset
from repro.utils.rng import ensure_rng
from repro.utils.timer import Stopwatch
from repro.utils.validation import check_int_range, check_positive


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
        as numerical noise and skipped; finite and ``>= 0``.

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
        self.n_clusters = check_int_range(n_clusters, "n_clusters", low=1)
        self.max_iter = check_int_range(max_iter, "max_iter", low=1)
        self.init = init
        self.min_improvement = check_positive(
            min_improvement, "min_improvement", strict=False
        )

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
        return self._result(
            watch, assignment, history[-1], iterations, converged, history
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
        ``S @ mu_o`` matvec plus O(k) scalar arithmetic per object —
        Corollary 1's O(k·m).  For the paper's small k, numpy calls on
        k-vectors cost more than their arithmetic, so within a sweep the
        per-cluster scalars live in Python lists and each visit runs on
        Python floats: IEEE doubles, evaluated in the order of the
        vector expressions, so the result is bit for bit that of
        ``np.argmin`` over the vector of deltas.  The once-per-sweep
        refresh stays in numpy.
        """
        n = len(dataset)
        sigma2_tot = dataset.sigma2_matrix.sum(axis=1)
        mu2_tot = dataset.mu2_matrix.sum(axis=1)
        mu = dataset.mu_matrix
        mu_norm_sq = np.einsum("ij,ij->i", mu, mu)

        psi_sums = np.zeros(k)
        phi_sums = np.zeros(k)
        mean_sums = np.zeros((k, dataset.dim))
        np.add.at(psi_sums, assignment, sigma2_tot)
        np.add.at(phi_sums, assignment, mu2_tot)
        np.add.at(mean_sums, assignment, mu)
        counts = np.bincount(assignment, minlength=k).astype(np.float64).tolist()
        psi_tot = psi_sums.tolist()
        phi_tot = phi_sums.tolist()
        labels = assignment.tolist()
        sigma2_tot = sigma2_tot.tolist()
        mu2_tot = mu2_tot.tolist()
        mu_norm_sq = mu_norm_sq.tolist()

        def refresh() -> tuple[list, list, float]:
            """``ups`` and the per-cluster objectives from exact sums (this
            caps round-off drift), plus the objective total."""
            ups = np.einsum("cj,cj->c", mean_sums, mean_sums)
            sizes = np.array(counts)
            safe = np.maximum(sizes, 1.0)
            per = np.array(psi_tot) / safe + np.array(phi_tot) - ups / safe
            objectives = np.where(sizes > 0, per, 0.0)
            return ups.tolist(), objectives.tolist(), float(objectives.sum())

        ups, objectives, total = refresh()
        history = [total]
        clusters = range(k)

        iterations = 0
        converged = False
        for _ in range(self.max_iter):
            iterations += 1
            moved = 0
            threshold = -self.min_improvement * max(1.0, abs(history[-1]))
            # Algorithm 1 leaves the scan order open; a fresh random order
            # per sweep avoids order artifacts in the local search.
            for idx in rng.permutation(n).tolist():
                own = labels[idx]
                if counts[own] <= 1.0:
                    # Relocating the last member would empty the cluster;
                    # the partition must keep exactly k clusters.
                    continue
                s = sigma2_tot[idx]
                p = mu2_tot[idx]
                norm = mu_norm_sq[idx]
                cross = (mean_sums @ mu[idx]).tolist()
                # counts[own] > 1 is guaranteed by the continue above.
                n_minus = counts[own] - 1.0
                j_without = (
                    (psi_tot[own] - s) / n_minus
                    + (phi_tot[own] - p)
                    - (ups[own] - 2.0 * cross[own] + norm) / n_minus
                )
                removal = j_without - objectives[own]
                # Candidate total change for moving idx into cluster c:
                # [J(own \ o) + J(c ∪ o)] - [J(own) + J(c)], with own's
                # change 0.  Pick as np.argmin would: the first minimum
                # wins, and a NaN delta (from overflowing sums) means no
                # move, since argmin returns it and NaN < threshold fails.
                best, best_delta, best_j = own, 0.0, 0.0
                for c in clusters:
                    n_plus = counts[c] + 1.0
                    j_with = (
                        (psi_tot[c] + s) / n_plus
                        + (phi_tot[c] + p)
                        - (ups[c] + 2.0 * cross[c] + norm) / n_plus
                    )
                    delta = removal + (j_with - objectives[c])
                    if not delta >= best_delta and c != own:
                        if delta != delta:
                            best = own
                            break
                        best, best_delta, best_j = c, delta, j_with
                if best != own and best_delta < threshold:
                    # Apply the move: O(m) cache updates (Corollary 1).
                    counts[own] -= 1.0
                    counts[best] += 1.0
                    psi_tot[own] -= s
                    psi_tot[best] += s
                    phi_tot[own] -= p
                    phi_tot[best] += p
                    mean_sums[own] -= mu[idx]
                    mean_sums[best] += mu[idx]
                    ups[own] = ups[own] - 2.0 * cross[own] + norm
                    ups[best] = ups[best] + 2.0 * cross[best] + norm
                    objectives[own] = j_without
                    objectives[best] = best_j
                    labels[idx] = best
                    moved += 1
            ups, objectives, total = refresh()
            history.append(total)
            if moved == 0:
                converged = True
                break
        return np.array(labels, dtype=np.int64), history, iterations, converged
