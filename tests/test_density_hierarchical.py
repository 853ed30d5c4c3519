"""Tests for FDBSCAN, FOPTICS and U-AHC."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import FDBSCAN, FOPTICS, UAHC, auto_eps
from repro.clustering.fdbscan import pairwise_reach_probabilities
from repro.clustering.foptics import (
    cluster_ordering,
    expected_distance_matrix,
    extract_by_threshold,
)
from repro.datagen import make_blobs_uncertain
from repro.evaluation import f_measure
from repro.exceptions import InvalidParameterError


@pytest.fixture(scope="module")
def data():
    return make_blobs_uncertain(
        n_objects=90, n_clusters=3, separation=8.0, uncertainty_std=0.2, seed=31
    )


class TestFDBSCAN:
    def test_finds_dense_clusters(self, data):
        result = FDBSCAN(min_pts=4, n_samples=16).fit(data, seed=0)
        # Density clustering may emit noise; the non-noise part must align
        # with the blob structure.
        assert result.n_clusters >= 2
        assert f_measure(result.labels, data.labels) > 0.6

    def test_noise_labeling(self, data):
        # A tiny eps turns everything into noise.
        result = FDBSCAN(eps=1e-6, min_pts=4, n_samples=8).fit(data, seed=0)
        assert result.n_noise == len(data)
        assert result.n_clusters == 0

    def test_single_cluster_with_huge_eps(self, data):
        result = FDBSCAN(eps=1e3, min_pts=2, n_samples=8).fit(data, seed=0)
        assert result.n_clusters == 1
        assert result.n_noise == 0

    def test_extras_recorded(self, data):
        result = FDBSCAN(min_pts=4, n_samples=8).fit(data, seed=0)
        assert result.extras["eps"] > 0
        assert result.extras["n_core"] >= 0

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            FDBSCAN(eps=-1.0)
        with pytest.raises(InvalidParameterError):
            FDBSCAN(min_pts=0)
        with pytest.raises(InvalidParameterError):
            FDBSCAN(reach_prob=1.5)
        with pytest.raises(InvalidParameterError):
            FDBSCAN(n_samples=0)

    def test_auto_eps_positive_and_scale_aware(self, data):
        from repro.objects import UncertainDataset

        eps = auto_eps(data, quantile=0.1)
        assert eps > 0
        # The same geometry stretched 10x must yield ~10x the eps.
        stretched = UncertainDataset.from_points(data.mu_matrix * 10.0)
        assert auto_eps(stretched, quantile=0.1) == pytest.approx(
            10.0 * eps, rel=1e-6
        )

    def test_reach_probabilities_properties(self, data):
        samples = np.stack([obj.sample(8, seed=i) for i, obj in enumerate(data)])
        probs = pairwise_reach_probabilities(samples, eps=2.0)
        assert probs.shape == (len(data), len(data))
        assert np.allclose(probs, probs.T)
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        assert np.allclose(np.diag(probs), 1.0)


class TestFOPTICS:
    def test_extracts_requested_clusters(self, data):
        result = FOPTICS(min_pts=4, n_samples=16, n_clusters=3).fit(data, seed=0)
        assert result.n_clusters == 3
        assert f_measure(result.labels, data.labels) > 0.8

    def test_ordering_covers_all_objects(self, data):
        result = FOPTICS(min_pts=4, n_samples=8).fit(data, seed=0)
        ordering = result.extras["ordering"]
        assert sorted(ordering) == list(range(len(data)))

    def test_fixed_threshold_extraction(self, data):
        result = FOPTICS(min_pts=4, n_samples=8, threshold=1e6).fit(data, seed=0)
        # Threshold above every reachability: a single cluster run.
        assert result.n_clusters == 1

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            FOPTICS(min_pts=0)
        with pytest.raises(InvalidParameterError):
            FOPTICS(threshold=0.0)
        with pytest.raises(InvalidParameterError):
            FOPTICS(n_clusters=0)
        with pytest.raises(InvalidParameterError):
            FOPTICS(n_samples=0)

    def test_cluster_ordering_reachability_semantics(self):
        # Two tight groups far apart: the jump between groups must show a
        # large reachability value.
        pts = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]])
        dist = np.abs(pts - pts.T)
        ordering, reach = cluster_ordering(dist, min_pts=2)
        labels = extract_by_threshold(ordering, reach, threshold=1.0)
        assert len(set(labels[:3])) == 1
        assert len(set(labels[3:])) == 1
        assert labels[0] != labels[-1]

    def test_cluster_ordering_minpts_validation(self):
        with pytest.raises(InvalidParameterError):
            cluster_ordering(np.zeros((3, 3)), min_pts=5)

    def test_expected_distance_matrix_symmetric(self, data):
        samples = np.stack([obj.sample(8, seed=i) for i, obj in enumerate(data)])
        dist = expected_distance_matrix(samples[:20])
        assert np.allclose(dist, dist.T)
        assert np.all(dist >= 0)


class TestUAHC:
    def test_ed_linkage_recovers_blobs(self, data):
        result = UAHC(n_clusters=3, linkage="ed").fit(data, seed=0)
        assert result.n_clusters == 3
        assert f_measure(result.labels, data.labels) > 0.9

    def test_jeffreys_linkage_produces_k_clusters(self, data):
        result = UAHC(n_clusters=3).fit(data, seed=0)
        assert result.n_clusters == 3
        assert result.extras["linkage"] == "jeffreys"

    @pytest.mark.parametrize("linkage", ["jeffreys", "ed"])
    def test_labels_do_not_depend_on_the_seed(self, data, linkage):
        """UAHC draws nothing: any seed gives the same merges."""
        fits = [
            UAHC(n_clusters=3, linkage=linkage).fit(data, seed=seed)
            for seed in (0, 1, 99)
        ]
        for fit in fits[1:]:
            assert np.array_equal(fit.labels, fits[0].labels)
            assert fit.extras["merges"] == fits[0].extras["merges"]

    def test_jeffreys_is_variance_sensitive(self):
        """The information-theoretic linkage merges variance-compatible
        clusters first: two co-located objects with very different
        variances are *farther* (in Jeffreys divergence) than two
        moderately separated objects with matched variances."""
        from repro.objects import UncertainDataset, UncertainObject

        data = UncertainDataset(
            [
                UncertainObject.uniform_box([0.0], [0.1]),   # tiny variance
                UncertainObject.uniform_box([0.0], [5.0]),   # huge variance
                UncertainObject.uniform_box([1.0], [0.1]),   # matched variance
                UncertainObject.uniform_box([30.0], [0.1]),  # far away
            ]
        )
        result = UAHC(n_clusters=3).fit(data)
        labels = result.labels
        # Objects 0 and 2 (matched variances, close) merge first.
        assert labels[0] == labels[2]
        assert labels[0] != labels[1]

    def test_invalid_linkage(self):
        with pytest.raises(InvalidParameterError):
            UAHC(n_clusters=2, linkage="single")

    def test_deterministic(self, data):
        a = UAHC(n_clusters=3).fit(data)
        b = UAHC(n_clusters=3).fit(data)
        assert np.array_equal(a.labels, b.labels)

    def test_merge_history_length(self, data):
        result = UAHC(n_clusters=3).fit(data)
        merges = result.extras["merges"]
        assert len(merges) == len(data) - 3
        # Merge heights trend upward overall (closest pairs merge first);
        # mixture representatives make strict monotonicity non-guaranteed.
        heights = [m.height for m in merges]
        assert heights[0] <= max(heights)

    @staticmethod
    def _reference_agglomerate(dataset, k, linkage):
        """Per-row reference loop for both linkages.

        Greedy merges of the closest pair (first flat index on ties),
        summed-moment mixture refits and per-row proximity refreshes.
        Jeffreys rows use the model's own row kernel and variance floor;
        ``"ed"`` rows use Lemma 3 between mixture representatives
        (``sigma^2_i + sigma^2_t + ||mu_i - mu_t||^2``) with a zero
        floor, seeded by the dataset's pairwise ÊD matrix.
        """
        from repro.clustering.uahc import _VAR_FLOOR
        from repro.objects.distance import (
            pairwise_squared_expected_distances,
        )

        model = UAHC(n_clusters=k, linkage=linkage)
        floor = _VAR_FLOOR if linkage == "jeffreys" else 0.0
        n = len(dataset)
        mu_sum = dataset.mu_matrix.copy()
        mu2_sum = dataset.mu2_matrix.copy()
        counts = np.ones(n, dtype=np.int64)
        active = np.ones(n, dtype=bool)
        membership = np.arange(n)

        def gaussians():
            inv = 1.0 / counts.astype(np.float64)
            mix_mu = mu_sum * inv[:, None]
            mix_mu2 = mu2_sum * inv[:, None]
            return mix_mu, np.maximum(mix_mu2 - mix_mu**2, floor)

        def row_against(mu, var, target):
            if linkage == "jeffreys":
                return model._row_against(mu, var, target)
            diff_sq = (mu - mu[target]) ** 2
            return var.sum(axis=1) + var[target].sum() + diff_sq.sum(axis=1)

        mu, var = gaussians()
        if linkage == "ed":
            prox = pairwise_squared_expected_distances(dataset)
        else:
            prox = np.empty((n, n))
            for i in range(n):
                prox[i] = row_against(mu, var, i)
        np.fill_diagonal(prox, np.inf)
        merges = []
        n_active = n
        while n_active > k:
            flat = int(np.argmin(prox))
            a, b = divmod(flat, n)
            if a > b:
                a, b = b, a
            height = float(prox[a, b])
            mu_sum[a] += mu_sum[b]
            mu2_sum[a] += mu2_sum[b]
            counts[a] += counts[b]
            merges.append((a, b, int(counts[a]), height))
            active[b] = False
            membership[membership == b] = a
            prox[b, :] = np.inf
            prox[:, b] = np.inf
            mu, var = gaussians()
            row = row_against(mu, var, a)
            row[~active] = np.inf
            row[a] = np.inf
            prox[a, :] = row
            prox[:, a] = row
            n_active -= 1
        survivors = {
            old: new for new, old in enumerate(np.flatnonzero(active))
        }
        labels = np.array(
            [survivors[int(c)] for c in membership], dtype=np.int64
        )
        return labels, merges

    def _assert_matches_reference_loop(self, dataset, k, linkage):
        result = UAHC(n_clusters=k, linkage=linkage).fit(dataset)
        labels, merges = self._reference_agglomerate(dataset, k, linkage)
        np.testing.assert_array_equal(result.labels, labels)
        got = result.extras["merges"]
        assert [(m.left, m.right, m.size) for m in got] == [
            (a, b, size) for a, b, size, _ in merges
        ]
        heights = [m.height for m in got]
        reference = [height for *_, height in merges]
        if linkage == "jeffreys":
            assert heights == reference
        else:
            np.testing.assert_allclose(heights, reference, rtol=1e-12)
            assert np.all(np.diff(heights) >= 0.0)

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (150, 4), (200, 13)])
    def test_full_proximity_is_the_row_loop(self, n, m, block):
        """The lower-triangle tile walk reproduces the per-row
        ``_row_against`` loop bit for bit off the diagonal, and the
        matrix is exactly symmetric."""
        rng = np.random.default_rng(n + m)
        mu = 3.0 * rng.normal(size=(n, m))
        var = rng.random((n, m)) + 1e-3
        model = UAHC(n_clusters=1)
        prox = model._full_proximity(mu, var, block=block)
        rows = np.array([model._row_against(mu, var, i) for i in range(n)])
        off_diagonal = ~np.eye(n, dtype=bool)
        np.testing.assert_array_equal(prox[off_diagonal], rows[off_diagonal])
        np.testing.assert_array_equal(prox, prox.T)

    @pytest.mark.parametrize("linkage", ["jeffreys", "ed"])
    def test_vectorized_proximity_preserves_merge_order_bit_exactly(
        self, linkage
    ):
        """Jeffreys: the vectorized initial proximity structure and the
        incremental per-merge Gaussian refresh must reproduce the
        per-row reference loop *bit for bit* — agglomerative merge
        order is decided by float comparisons, so even one ulp of drift
        reorders dendrograms.  ``"ed"`` runs scipy's average linkage
        over the ÊD matrix instead of that loop: same partition, same
        merge pairs and sizes, non-decreasing heights equal to the
        loop's up to float reassociation (the Lance–Williams recurrence
        and the Lemma 3 refit differ only in rounding)."""
        data = make_blobs_uncertain(
            n_objects=120, n_clusters=4, n_attributes=5, separation=1.5,
            seed=3,
        )
        self._assert_matches_reference_loop(data, 4, linkage)

    @pytest.mark.parametrize("family", ["uniform", "normal", "exponential"])
    @pytest.mark.parametrize("name", ["iris", "wine", "glass", "ecoli"])
    def test_ed_partitions_on_benchmark_stand_ins(self, name, family):
        from repro.datagen import UncertaintyGenerator, make_benchmark

        points, classes = make_benchmark(name, seed=0)
        dataset = UncertaintyGenerator(family).generate(
            points, classes, seed=1
        ).uncertain
        self._assert_matches_reference_loop(
            dataset, int(classes.max()) + 1, "ed"
        )

    def test_ed_heights_exact_on_point_masses(self):
        """The "ed" linkage floors variances at 0, so dendrogram heights
        on deterministic points are *exact*: singleton merges sit at the
        squared distance, and merged-vs-singleton proximities carry no
        floor bias (the Jeffreys floor would add ``2 m * 1e-9`` to every
        refreshed row, silently flipping near-tie merge decisions
        against merged clusters)."""
        from repro.objects import UncertainDataset

        data = UncertainDataset.from_points([[0.0], [1.0], [10.0], [30.0]])
        result = UAHC(n_clusters=1, linkage="ed").fit(data)
        heights = [m.height for m in result.extras["merges"]]
        # ÊD(0, 1) = (0-1)^2 exactly — no variance floor on singletons.
        assert heights[0] == 1.0
        # {0,1} vs 10: mixture var 0.25 + (10 - 0.5)^2, again exact.
        assert heights[1] == 0.25 + 9.5**2

    def test_k_equals_n_is_identity(self, mixed_dataset):
        result = UAHC(n_clusters=len(mixed_dataset)).fit(mixed_dataset)
        assert result.n_clusters == len(mixed_dataset)
        assert result.extras["merges"] == []

    @pytest.mark.parametrize("linkage", ["jeffreys", "ed"])
    def test_single_object(self, linkage):
        """One object is already one cluster (scipy's linkage needs two
        observations, so ``"ed"`` must not call it)."""
        from repro.objects import UncertainDataset

        data = UncertainDataset.from_points([[1.0, 2.0]])
        result = UAHC(n_clusters=1, linkage=linkage).fit(data)
        assert result.labels.tolist() == [0]
        assert result.extras["merges"] == []

    def test_k_one_merges_all(self, mixed_dataset):
        result = UAHC(n_clusters=1).fit(mixed_dataset)
        assert result.n_clusters == 1

    def test_invalid_k(self, mixed_dataset):
        with pytest.raises(InvalidParameterError):
            UAHC(n_clusters=10).fit(mixed_dataset)
