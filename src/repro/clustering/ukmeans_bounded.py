"""Triangle-inequality-bounded UK-means: Elkan/Hamerly on uncertain data.

The sample-based expected squared-Euclidean distance decomposes (the
same identity behind fast UK-means, Eq. (8) of the paper) as

    ED(o_i, c_j) = ||mu_hat_i - c_j||^2 + v_i,

where ``mu_hat_i`` is the object's *sample mean* and ``v_i`` the mean
squared deviation of its samples around it.  ``v_i`` does not depend on
the centroid, so the ED argmin per object coincides with the nearest
centroid on the *sample-mean plane* — a genuine metric space where the
triangle inequality holds.  That makes the classic accelerated K-means
bounds applicable verbatim:

* **Elkan** — a per-object upper bound ``ub_i`` on the plane distance
  to the assigned centroid, a full ``(n, k)`` lower-bound matrix, and a
  ``k x k`` centroid-centroid distance matrix.  A whole assignment row
  is skipped when ``ub_i < 0.5 * min_l cc(a_i, l)``; surviving rows
  prune candidate centroids via ``lb`` and the half-distance test.
* **Hamerly** — the memory-light variant: one lower bound per object
  (distance to the second-closest centroid).  Rows failing the combined
  test recompute in full.

Losslessness: :class:`BoundedUKMeans` is a :class:`BasicUKMeans`
subclass that replaces only the assignment step (and updates its bounds
after a repair and after the centroids move), so the sample draw,
seeding, empty-cluster repair and Lloyd updates are Basic's own.  All
skip/prune tests use *strict* inequalities on exact plane distances, so
a centroid that ties the winner is never pruned, and every expected
distance that is actually compared comes from Basic's Monte-Carlo
kernel on the same sample tensor — identical arithmetic, identical
reduction order, identical argmin tie-breaking.  Assignments therefore
reproduce ``BasicUKMeans`` exactly (the 20-seed regression in
``tests/test_scale_path.py`` pins this, like the pruning family's).
The only theoretical hazard is ulp-level noise in the Monte-Carlo
kernel flipping a *near*-tie that the exact plane geometry calls
strictly — the same accepted hazard class as MinMax-BB/cluster-shift
bound arithmetic, pinned empirically by the same regression style.

As in the paper's methodology (Section 5.2.2) the time spent building
and maintaining bound structures is excluded from the clustering-time
measurement; only expected-distance evaluations and the Lloyd updates
are timed, which is what makes the skip counters meaningful speedup
proxies.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro._typing import IntArray
from repro.clustering.ukmeans_basic import (
    BasicUKMeans,
    _FullAssignment,
    expected_distances,
)
from repro.exceptions import InvalidParameterError


def _plane_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Euclidean distances on the sample-mean plane, row by row.

    ``centers`` is one point, broadcast over ``points``, or one point
    per row.
    """
    diff = points - centers
    return np.sqrt(np.einsum("nm,nm->n", diff, diff))


def _plane_matrix(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``(len(points), len(centers))`` plane distances, one centroid at a time."""
    return np.stack([_plane_distances(points, c) for c in centers], axis=1)


def _half_nearest_other(cc: np.ndarray) -> np.ndarray:
    """``s_j = 0.5 * min_{l != j} cc(j, l)`` per centroid."""
    masked = cc.copy()
    np.fill_diagonal(masked, np.inf)
    return 0.5 * masked.min(axis=1)


class _BoundedAssignment(_FullAssignment):
    """Elkan or Hamerly bounds on the sample-mean plane.

    ``ub`` is an upper bound on the plane distance to the assigned
    centroid; ``lb`` holds ``(n, k)`` per-centroid lower bounds (Elkan)
    or ``(n,)`` second-closest lower bounds (Hamerly).  Both are built
    after the first, full pass; until then they are ``None``.
    """

    def __init__(self, clusterer, dataset, samples, sample_means, watch):
        super().__init__(clusterer, dataset, samples, sample_means, watch)
        # The bounds hold for the squared-Euclidean ED only.
        self.metric = None
        self.elkan = clusterer.bounds == "elkan"
        self.ub = self.lb = None
        self.rows_skipped = 0

    def assign(self, centers: np.ndarray, assignment: IntArray) -> IntArray:
        """One bounded pass; the first pass is Basic's full one.

        Returns what ``np.argmin`` over the full ED row gives: all
        comparisons that *prune* are strict, so exact plane ties are
        never pruned, and the surviving EDs come from Basic's kernel
        (pruned entries at +inf).
        """
        if self.ub is None:
            # The bounds need a seed state: a full pass first.
            return super().assign(centers, assignment)
        ub, lb, means = self.ub, self.lb, self.sample_means
        n, k = assignment.shape[0], centers.shape[0]
        self.watch.stop()
        cc = _plane_matrix(centers, centers)
        bound = _half_nearest_other(cc)[assignment]
        if not self.elkan:
            bound = np.maximum(bound, lb)
        # Whole-row skip: ub strictly inside the bound means the
        # assigned centroid is the unique plane argmin.  Tighten ub to
        # the exact plane distance for the other rows, then re-test.
        recheck = np.flatnonzero(~(ub < bound))
        ub[recheck] = _plane_distances(means[recheck], centers[assignment[recheck]])
        if self.elkan:
            lb[recheck, assignment[recheck]] = ub[recheck]
        act = recheck[~(ub[recheck] < bound[recheck])]
        self.rows_skipped += n - act.size
        if self.elkan:
            # Candidates: centroids that survive both the lower-bound
            # and the half-distance tests (strict pruning), refreshed
            # with exact plane distances and pruned again.
            a_act = assignment[act]
            cand = (lb[act] <= ub[act, None]) & (0.5 * cc[a_act] <= ub[act, None])
            cand[np.arange(act.size), a_act] = True
            local, cols = np.nonzero(cand & (a_act[:, None] != np.arange(k)))
            cand_rows = act[local]
            lb[cand_rows, cols] = _plane_distances(means[cand_rows], centers[cols])
            cand[local, cols] = lb[cand_rows, cols] <= ub[cand_rows]
            multi = cand.sum(axis=1) > 1
            rows = act[multi]
            compared = np.zeros((n, k), dtype=bool)
            compared[rows] = cand[multi]
        else:
            rows = act
        # Exact ED integrals for the surviving candidates: the timed
        # clustering work.  Hamerly compares every centroid of its
        # rows, so it gathers their samples once.
        self.watch.start()
        if self.elkan:
            eds = expected_distances(self.samples, centers, compared)[rows]
            self.ed_evaluations += int(compared.sum())
        else:
            eds = expected_distances(self.samples[rows], centers)
            self.ed_evaluations += eds.size
        self.watch.stop()
        winners = np.argmin(eds, axis=1)
        new_assignment = assignment.copy()
        new_assignment[rows] = winners
        if self.elkan:
            # lb holds fresh exact plane distances for every final
            # candidate, so the new ub is an exact gather.
            ub[rows] = lb[rows, winners]
        else:
            # Refresh both bounds from exact plane distances.
            plane = _plane_matrix(means[rows], centers)
            ub[rows] = plane[np.arange(rows.size), winners]
            plane[np.arange(rows.size), winners] = np.inf
            lb[rows] = plane.min(axis=1)
        self.watch.start()
        return new_assignment

    def repaired(self, moves: List[Tuple[int, int]], centers: np.ndarray) -> None:
        """Re-anchor the bounds of empty-cluster-repair victims.

        A victim now belongs to a different centroid: its upper bound
        referred to the old one and is invalid, so it is recomputed
        exactly.  Elkan's per-centroid lower bounds are assignment-
        independent and stay valid; Hamerly's single second-closest
        bound is relative to the assigned centroid, so it is reset to
        the trivial 0.
        """
        if not moves or self.ub is None:
            return
        clusters, victims = np.array(moves).T
        self.ub[victims] = _plane_distances(
            self.sample_means[victims], centers[clusters]
        )
        if not self.elkan:
            self.lb[victims] = 0.0

    def moved(
        self, previous: np.ndarray, centers: np.ndarray, assignment: IntArray
    ) -> None:
        """Build the bounds after the first pass, then decay them by the
        actual centroid displacement (untimed bound maintenance, like
        pruning-structure time in the pruning family)."""
        self.watch.stop()
        if self.ub is None:
            plane = _plane_matrix(self.sample_means, previous)
            every = np.arange(plane.shape[0])
            self.ub = plane[every, assignment]
            if not self.elkan:
                plane[every, assignment] = np.inf
                plane = plane.min(axis=1)
            self.lb = plane
        drift = _plane_distances(centers, previous)
        if self.elkan:
            np.maximum(self.lb - drift[None, :], 0.0, out=self.lb)
        else:
            np.maximum(self.lb - drift.max(), 0.0, out=self.lb)
        self.ub += drift[assignment]
        self.watch.start()

    def extras(self, iterations: int) -> Dict[str, object]:
        """The skip counters over all ``iterations * n * k`` pairs."""
        total_pairs = iterations * self.samples.shape[0] * self.clusterer.n_clusters
        ed_skipped = total_pairs - self.ed_evaluations
        return {
            "ed_evaluations": self.ed_evaluations,
            "ed_skipped": ed_skipped,
            "skip_rate": ed_skipped / total_pairs if total_pairs else 0.0,
            "rows_skipped": self.rows_skipped,
            "bounds": self.clusterer.bounds,
            "n_samples": self.clusterer.n_samples,
        }


class BoundedUKMeans(BasicUKMeans):
    """Elkan/Hamerly-bounded basic UK-means (lossless acceleration).

    Parameters
    ----------
    n_clusters:
        Number of output clusters ``k``.
    n_samples:
        Sample-set cardinality ``S`` per object for the ED integrals.
    max_iter:
        Iteration cap ``I``.
    bounds:
        ``"elkan"`` — full ``(n, k)`` lower-bound matrix (fewest ED
        evaluations, O(n*k) bound memory); ``"hamerly"`` — one lower
        bound per object (O(n) memory, whole-row skip only).

    Notes
    -----
    Supports the squared-Euclidean ED only (the decomposition the
    bounds rely on); for a custom point metric use
    :class:`BasicUKMeans`.  Assignments match ``BasicUKMeans`` exactly;
    ``extras["ed_evaluations"]`` / ``extras["ed_skipped"]`` count how
    many of the ``I * n * k`` expected-distance integrals were actually
    evaluated versus skipped by the bounds.
    """

    name = "bUKM-EH"

    _assignment = _BoundedAssignment

    def __init__(
        self,
        n_clusters: int,
        n_samples: int = 64,
        max_iter: int = 100,
        bounds: str = "elkan",
    ):
        super().__init__(n_clusters, n_samples, max_iter)
        if bounds not in ("elkan", "hamerly"):
            raise InvalidParameterError(
                f"bounds must be 'elkan' or 'hamerly', got {bounds!r}"
            )
        self.bounds = bounds
        self.name = "bUKM-EH" if bounds == "elkan" else "bUKM-H"
