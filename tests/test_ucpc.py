"""Tests for the UCPC algorithm (Algorithm 1, Propositions 4-5)."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.clustering import UCPC, UKMeans, j_ucpc, j_ucpc_closed_form
from repro.clustering.initialization import random_partition
from repro.datagen import PDF_FAMILIES, UncertaintyGenerator, make_blobs_uncertain
from repro.evaluation import f_measure
from repro.exceptions import ConvergenceWarning, InvalidParameterError
from repro.objects import UncertainDataset, UncertainObject


def _total_j(dataset, labels):
    """``sum_C J(C)`` over the clusters of ``labels`` by Theorem 3."""
    return sum(
        j_ucpc_closed_form([dataset[i] for i in np.flatnonzero(labels == c)])
        for c in np.unique(labels)
    )


class TestBasics:
    def test_produces_k_clusters(self, blob_dataset):
        result = UCPC(n_clusters=3).fit(blob_dataset, seed=0)
        assert result.n_clusters == 3
        assert result.labels.shape == (len(blob_dataset),)
        assert np.all(result.labels >= 0)

    def test_every_cluster_nonempty(self, blob_dataset):
        result = UCPC(n_clusters=5).fit(blob_dataset, seed=1)
        counts = np.bincount(result.labels, minlength=5)
        assert np.all(counts > 0)

    def test_reproducible_with_seed(self, blob_dataset):
        a = UCPC(n_clusters=3).fit(blob_dataset, seed=7)
        b = UCPC(n_clusters=3).fit(blob_dataset, seed=7)
        assert np.array_equal(a.labels, b.labels)
        assert a.objective == pytest.approx(b.objective)

    def test_recovers_separated_blobs(self):
        """Local search from a random partition can stall in a local
        minimum; the best of a few restarts must recover the structure
        (the paper likewise averages 50 runs)."""
        data = make_blobs_uncertain(
            n_objects=120, n_clusters=3, separation=8.0, seed=3
        )
        best = max(
            f_measure(UCPC(n_clusters=3).fit(data, seed=s).labels, data.labels)
            for s in range(5)
        )
        assert best > 0.95

    def test_kmeanspp_recovers_blobs_single_run(self):
        data = make_blobs_uncertain(
            n_objects=120, n_clusters=3, separation=8.0, seed=3
        )
        result = UCPC(n_clusters=3, init="kmeans++").fit(data, seed=0)
        assert f_measure(result.labels, data.labels) > 0.95

    def test_kmeanspp_init(self, blob_dataset):
        result = UCPC(n_clusters=3, init="kmeans++").fit(blob_dataset, seed=0)
        assert result.n_clusters == 3
        assert result.converged

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            UCPC(n_clusters=3, init="bogus")
        with pytest.raises(InvalidParameterError):
            UCPC(n_clusters=3, max_iter=0)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError, match="min_improvement"):
                UCPC(n_clusters=3, min_improvement=bad)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_moments_rejected_before_the_fit(self):
        """A point mass at 1e200 has mu2 = inf; k-means++ seeding used to
        fail on it with numpy's raw 'Probabilities contain NaN'."""
        points = np.array([[0.0], [1.0], [2.0], [1e200]])
        with pytest.raises(InvalidParameterError, match="object 3"):
            UCPC(n_clusters=2, init="kmeans++").fit(
                UncertainDataset.from_points(points), seed=0
            )

    def test_k_larger_than_n_rejected(self, mixed_dataset):
        with pytest.raises(InvalidParameterError):
            UCPC(n_clusters=10).fit(mixed_dataset, seed=0)

    def test_k_equals_n(self, mixed_dataset):
        result = UCPC(n_clusters=len(mixed_dataset)).fit(mixed_dataset, seed=0)
        assert result.n_clusters == len(mixed_dataset)

    def test_k_equals_one(self, blob_dataset):
        result = UCPC(n_clusters=1).fit(blob_dataset, seed=0)
        assert result.n_clusters == 1


class TestProposition4Convergence:
    def test_objective_monotonically_nonincreasing(self, blob_dataset):
        """Proposition 4: each sweep cannot increase the objective."""
        result = UCPC(n_clusters=4).fit(blob_dataset, seed=2)
        history = result.objective_history
        assert len(history) >= 2
        for prev, curr in zip(history, history[1:]):
            assert curr <= prev + 1e-6 * max(1.0, abs(prev))

    def test_converges_and_flags_it(self, blob_dataset):
        result = UCPC(n_clusters=3, max_iter=200).fit(blob_dataset, seed=0)
        assert result.converged
        assert result.n_iterations <= 200

    def test_max_iter_cap_warns(self, blob_dataset):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            UCPC(n_clusters=4, max_iter=1).fit(blob_dataset, seed=5)
        assert any(issubclass(w.category, ConvergenceWarning) for w in caught)

    def test_final_objective_matches_labels(self, blob_dataset):
        """The reported objective equals J recomputed from the labels."""
        result = UCPC(n_clusters=3).fit(blob_dataset, seed=4)
        assert result.objective == pytest.approx(
            _total_j(blob_dataset, result.labels)
        )


class TestBehaviour:
    def test_not_worse_than_ukmeans_objective(self):
        """On the shared decomposition J = sum_var/|C| + J_UK, UCPC's local
        search (best of a few restarts) should find an objective at least
        as good as evaluating J on the UK-means partition."""
        data = make_blobs_uncertain(
            n_objects=150, n_clusters=3, separation=7.0, seed=9
        )
        best_ucpc = min(
            UCPC(n_clusters=3).fit(data, seed=s).objective for s in range(5)
        )
        ukm = UKMeans(n_clusters=3).fit(data, seed=9)
        assert best_ucpc <= _total_j(data, ukm.labels) + 1e-6

    def test_variance_aware_assignment(self):
        """UCPC's objective is variance-aware where UK-means' is not.

        Two clusters of point masses: L (8 objects at -2) and R (2 objects
        at +2); a middle object M at 0 with variance v.  Adding M to a
        cluster of n points at distance d costs
        ``Delta = v/(n+1) + v + n d^2/(n+1)``, so

            Delta_L - Delta_R = v (1/9 - 1/3) + d^2 (8/9 - 2/3)

        is negative (L wins) iff v > d^2.  The preferred cluster therefore
        *flips with the variance of M* — a distinction invisible to the
        UK-means criterion, for which M is exactly tied either way.
        """
        left = [UncertainObject.from_point([-2.0]) for _ in range(8)]
        right = [UncertainObject.from_point([2.0]) for _ in range(2)]

        def total_j(middle_obj, join_left):
            return j_ucpc_closed_form(
                left + ([middle_obj] if join_left else [])
            ) + j_ucpc_closed_form(right + ([] if join_left else [middle_obj]))

        # High variance (v = 12 > d^2 = 4): the larger cluster is cheaper.
        high_var = UncertainObject.uniform_box([0.0], [6.0])
        assert total_j(high_var, join_left=True) < total_j(high_var, join_left=False)
        # Low variance (v ~ 0.03 < 4): the smaller cluster is cheaper.
        low_var = UncertainObject.uniform_box([0.0], [0.3])
        assert total_j(low_var, join_left=False) < total_j(low_var, join_left=True)
        # UK-means sees an exact tie in both cases (equal distance to both
        # centroids regardless of variance): Eq. (8)'s variance term is a
        # per-object constant.
        from repro.objects.distance import expected_distance_to_point

        for obj in (high_var, low_var):
            d_left = expected_distance_to_point(obj, [-2.0])
            d_right = expected_distance_to_point(obj, [2.0])
            assert d_left == pytest.approx(d_right)

    def test_runtime_recorded(self, blob_dataset):
        result = UCPC(n_clusters=3).fit(blob_dataset, seed=0)
        assert result.runtime_seconds > 0.0

    def test_works_on_point_mass_data(self):
        """Deterministic data: UCPC reduces to K-means-like behaviour."""
        pts = np.vstack(
            [
                np.random.default_rng(0).normal(-5, 0.3, size=(20, 2)),
                np.random.default_rng(1).normal(5, 0.3, size=(20, 2)),
            ]
        )
        labels = [0] * 20 + [1] * 20
        data = UncertainDataset.from_points(pts, labels)
        result = UCPC(n_clusters=2).fit(data, seed=0)
        assert f_measure(result.labels, data.labels) == pytest.approx(1.0)


class TestCorollary1Relocation:
    """Each visit of a sweep makes the move that recomputing J from its
    definition (Eq. (14), via the U-centroid) picks.

    UCPC scores a candidate relocation from cached Psi/Phi/Upsilon sums
    (Theorem 3, Corollary 1).  The reference below scores the same
    candidates as ``[J(C_o \\ {o}) + J(C ∪ {o})] - [J(C_o) + J(C)]`` with
    :func:`j_ucpc` over member lists, visiting the objects in the order
    UCPC draws, and applies the same rule: the first minimum wins and a
    move must beat the relative threshold.
    """

    @pytest.mark.parametrize("family", PDF_FAMILIES)
    def test_one_sweep_matches_definitional_j(self, family):
        rng = np.random.default_rng(8)
        centers = np.array([[0.0, 0.0], [3.0, 0.5], [0.5, 3.0]])
        points = np.vstack([c + rng.normal(size=(8, 2)) for c in centers])
        data = UncertaintyGenerator(family).uncertain_dataset(points, seed=9)
        n, k = len(data), 3
        start = random_partition(n, k, seed=10)
        model = UCPC(n_clusters=k, max_iter=1)
        labels, history, _, _ = model._local_search(
            data, start.copy(), k, np.random.default_rng(12)
        )

        objects = [data[i] for i in range(n)]
        reference = start.copy()

        def j_of(members):
            return j_ucpc([objects[i] for i in members])

        def members_of(c):
            return np.flatnonzero(reference == c).tolist()

        threshold = -model.min_improvement * max(
            1.0, abs(sum(j_of(members_of(c)) for c in range(k)))
        )
        moves = 0
        for idx in np.random.default_rng(12).permutation(n).tolist():
            own = reference[idx]
            own_members = members_of(own)
            if len(own_members) <= 1:
                continue
            removal = j_of([i for i in own_members if i != idx]) - j_of(own_members)
            deltas = np.zeros(k)
            for c in range(k):
                if c != own:
                    target = members_of(c)
                    deltas[c] = removal + j_of(target + [idx]) - j_of(target)
            best = int(np.argmin(deltas))
            if best != own and deltas[best] < threshold:
                reference[idx] = best
                moves += 1

        assert moves > 0
        assert np.array_equal(labels, reference)
        assert history[-1] == pytest.approx(
            sum(j_of(members_of(c)) for c in range(k)), rel=1e-12
        )
