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
from repro.objects.dataset import UncertainDataset
from repro.utils.rng import ensure_rng
from repro.utils.timer import Stopwatch
from repro.utils.validation import check_int_range, check_positive


class MMVar(UncertainClusterer):
    """MMVar local-search clustering [8].

    Parameters
    ----------
    n_clusters:
        Number of output clusters ``k``.
    max_iter:
        Cap on relocation sweeps.
    min_improvement:
        Relative threshold below which a relocation gain is ignored;
        finite and ``>= 0``.
    """

    name = "MMV"
    #: Relocation sweep is an interpreter-bound per-object loop (as in
    #: UCPC) — the engine routes MMVar to the process pool.
    preferred_backend = "processes"

    def __init__(
        self,
        n_clusters: int,
        max_iter: int = 100,
        min_improvement: float = 1e-12,
    ):
        self.n_clusters = check_int_range(n_clusters, "n_clusters", low=1)
        self.max_iter = check_int_range(max_iter, "max_iter", low=1)
        self.min_improvement = check_positive(
            min_improvement, "min_improvement", strict=False
        )

    def fit(self, dataset: UncertainDataset, seed: SeedLike = None) -> ClusteringResult:
        """Cluster ``dataset`` by minimizing summed mixture-model variance."""
        n = len(dataset)
        k = validate_n_clusters(self.n_clusters, n)
        rng = ensure_rng(seed)
        assignment = random_partition(n, k, rng)

        mu = dataset.mu_matrix
        watch = Stopwatch()
        iterations = 0
        converged = False
        with watch.running():
            # Cached scalar statistics (same scheme as UCPC's inner loop,
            # and like it run on Python floats within a sweep):
            # J_MM(c) = phi_tot/n_c - ||S_c||^2/n_c^2 per Lemma 2.
            mu2_tot = dataset.mu2_matrix.sum(axis=1)
            mu_norm_sq = np.einsum("ij,ij->i", mu, mu)
            phi_sums = np.zeros(k)
            mean_sums = np.zeros((k, dataset.dim))
            np.add.at(phi_sums, assignment, mu2_tot)
            np.add.at(mean_sums, assignment, mu)
            counts = np.bincount(assignment, minlength=k).astype(np.float64).tolist()
            phi_tot = phi_sums.tolist()
            labels = assignment.tolist()
            mu2_tot = mu2_tot.tolist()
            mu_norm_sq = mu_norm_sq.tolist()

            def refresh() -> tuple[list, list, float]:
                """``ups`` and the per-cluster objectives from exact sums
                (this caps round-off drift), plus the objective total."""
                ups = np.einsum("cj,cj->c", mean_sums, mean_sums)
                sizes = np.array(counts)
                safe = np.maximum(sizes, 1.0)
                per = np.array(phi_tot) / safe - ups / (safe * safe)
                objectives = np.where(sizes > 0, np.maximum(per, 0.0), 0.0)
                return ups.tolist(), objectives.tolist(), float(objectives.sum())

            ups, objectives, total = refresh()
            history = [total]
            clusters = range(k)
            for _ in range(self.max_iter):
                iterations += 1
                moved = 0
                threshold = -self.min_improvement * max(1.0, abs(history[-1]))
                # Random scan order per sweep (same policy as UCPC).
                for idx in rng.permutation(n).tolist():
                    own = labels[idx]
                    if counts[own] <= 1.0:
                        continue
                    p = mu2_tot[idx]
                    norm = mu_norm_sq[idx]
                    cross = (mean_sums @ mu[idx]).tolist()
                    n_minus = counts[own] - 1.0
                    j_without = (phi_tot[own] - p) / n_minus - (
                        ups[own] - 2.0 * cross[own] + norm
                    ) / (n_minus * n_minus)
                    removal = j_without - objectives[own]
                    # np.argmin's choice, as in UCPC: first minimum wins,
                    # own's change is 0 and a NaN delta means no move.
                    best, best_delta, best_j = own, 0.0, 0.0
                    for c in clusters:
                        n_plus = counts[c] + 1.0
                        j_with = (phi_tot[c] + p) / n_plus - (
                            ups[c] + 2.0 * cross[c] + norm
                        ) / (n_plus * n_plus)
                        delta = removal + (j_with - objectives[c])
                        if not delta >= best_delta and c != own:
                            if delta != delta:
                                best = own
                                break
                            best, best_delta, best_j = c, delta, j_with
                    if best != own and best_delta < threshold:
                        counts[own] -= 1.0
                        counts[best] += 1.0
                        phi_tot[own] -= p
                        phi_tot[best] += p
                        mean_sums[own] -= mu[idx]
                        mean_sums[best] += mu[idx]
                        ups[own] = ups[own] - 2.0 * cross[own] + norm
                        ups[best] = ups[best] + 2.0 * cross[best] + norm
                        objectives[own] = max(j_without, 0.0)
                        objectives[best] = max(best_j, 0.0)
                        labels[idx] = best
                        moved += 1
                ups, objectives, total = refresh()
                history.append(total)
                if moved == 0:
                    converged = True
                    break
            assignment = np.array(labels, dtype=np.int64)
        return self._result(
            watch, assignment, history[-1], iterations, converged, history
        )
