"""Tests for the three centroid notions (Eq. (7), Eq. (10)/Lemma 2, Theorem 1)."""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import random_uncertain_objects

from repro.centroids import MixtureModelCentroid, UCentroid, ukmeans_centroid
from repro.clustering import ukmeans_objective
from repro.exceptions import EmptyClusterError, InvalidParameterError
from repro.objects import UncertainObject
from repro.objects.distance import expected_distance_to_point


class TestUKMeansCentroid:
    def test_eq7_average_of_means(self, mixed_cluster):
        center = ukmeans_centroid(mixed_cluster)
        expected = np.mean([obj.mu for obj in mixed_cluster], axis=0)
        assert np.allclose(center, expected)

    def test_empty_rejected(self):
        with pytest.raises(EmptyClusterError):
            ukmeans_centroid([])

    @pytest.mark.parametrize(
        "assignment",
        [[0, 1, 2, 0, 1], [2, 0, 2, 0, 2]],
        ids=["every-cluster", "empty-cluster-1"],
    )
    def test_centroids_of_an_assignment_give_ukmeans_objective(
        self, mixed_dataset, assignment
    ):
        """Eq. (9) summed: each cluster's members against its Eq. (7)
        centroid; an id no object carries adds nothing."""
        assignment = np.array(assignment)
        expected = 0.0
        for c in np.unique(assignment):
            members = [mixed_dataset[i] for i in np.flatnonzero(assignment == c)]
            center = ukmeans_centroid(members)
            expected += sum(expected_distance_to_point(o, center) for o in members)
        assert ukmeans_objective(mixed_dataset, assignment) == pytest.approx(expected)


class TestMixtureModelCentroid:
    def test_lemma2_moments(self, mixed_cluster):
        centroid = MixtureModelCentroid(mixed_cluster)
        n = len(mixed_cluster)
        assert np.allclose(
            centroid.mu, sum(o.mu for o in mixed_cluster) / n
        )
        assert np.allclose(
            centroid.mu2, sum(o.mu2 for o in mixed_cluster) / n
        )

    def test_moments_match_materialized_mixture(self, mixed_cluster):
        centroid = MixtureModelCentroid(mixed_cluster)
        mixture = centroid.as_distribution()
        assert np.allclose(centroid.mu, mixture.mean_vector)
        assert np.allclose(centroid.mu2, mixture.second_moment_vector)

    def test_variance_nonnegative(self, rng):
        for _ in range(5):
            cluster = random_uncertain_objects(rng, 6, 2)
            assert MixtureModelCentroid(cluster).total_variance >= 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyClusterError):
            MixtureModelCentroid([])

    def test_as_uncertain_object(self, mixed_cluster):
        obj = MixtureModelCentroid(mixed_cluster).as_uncertain_object()
        assert isinstance(obj, UncertainObject)
        assert obj.dim == 2


class TestUCentroid:
    def test_theorem1_region(self, mixed_cluster):
        """Centroid region bounds = averages of member region bounds."""
        centroid = UCentroid(mixed_cluster)
        lowers = np.mean([o.region.lower for o in mixed_cluster], axis=0)
        uppers = np.mean([o.region.upper for o in mixed_cluster], axis=0)
        assert np.allclose(centroid.region.lower, lowers)
        assert np.allclose(centroid.region.upper, uppers)

    def test_lemma5_mean_equals_ukmeans_centroid(self, mixed_cluster):
        centroid = UCentroid(mixed_cluster)
        assert np.allclose(centroid.mu, ukmeans_centroid(mixed_cluster))

    def test_lemma5_second_moment(self, mixed_cluster):
        """mu2(C̄) per Lemma 5's explicit double-sum formula."""
        centroid = UCentroid(mixed_cluster)
        n = len(mixed_cluster)
        mu2_sum = sum(o.mu2 for o in mixed_cluster)
        cross = np.zeros(2)
        for i in range(n - 1):
            for j in range(i + 1, n):
                cross += 2.0 * mixed_cluster[i].mu * mixed_cluster[j].mu
        assert np.allclose(centroid.mu2, (mu2_sum + cross) / n**2)

    def test_theorem2_variance(self, mixed_cluster):
        """sigma^2(C̄) = |C|^-2 sum_i sigma^2(o_i) (Theorem 2)."""
        centroid = UCentroid(mixed_cluster)
        n = len(mixed_cluster)
        total = sum(o.total_variance for o in mixed_cluster)
        assert centroid.total_variance == pytest.approx(total / n**2)

    @pytest.mark.parametrize("n_members", [2, 5, 37, 150])
    def test_moments_exactly_match_member_loop(self, rng, n_members):
        """The stacked-array reductions of ``__init__`` must reproduce
        the per-member accumulation loop they replaced *bit for bit*
        (outer-axis ufunc reduction accumulates row by row), on
        mixed-family clusters of any size."""
        members = random_uncertain_objects(rng, n_members, dim=3)
        centroid = UCentroid(members)
        mu_sum = np.zeros(3)
        mu2_sum = np.zeros(3)
        mu_sq_sum = np.zeros(3)
        for obj in members:
            mu_sum += obj.mu
            mu2_sum += obj.mu2
            mu_sq_sum += obj.mu**2
        cross = mu_sum**2 - mu_sq_sum
        np.testing.assert_array_equal(centroid.mu, mu_sum / n_members)
        np.testing.assert_array_equal(
            centroid.mu2, (mu2_sum + cross) / (n_members * n_members)
        )

    def test_sampling_matches_analytic_moments(self, mixed_cluster):
        centroid = UCentroid(mixed_cluster)
        samples = centroid.sample(60000, seed=0)
        assert np.allclose(samples.mean(axis=0), centroid.mu, atol=0.02)
        sample_mu2 = (samples**2).mean(axis=0)
        assert np.allclose(sample_mu2, centroid.mu2, atol=0.05)

    def test_samples_inside_region(self, mixed_cluster):
        centroid = UCentroid(mixed_cluster)
        for row in centroid.sample(500, seed=1):
            assert centroid.region.contains(row, atol=1e-9)

    def test_pdf_estimate_positive_at_mean(self, mixed_cluster):
        centroid = UCentroid(mixed_cluster)
        density = centroid.pdf_estimate(centroid.mu, n_samples=4000, seed=0)
        assert density[0] > 0.0

    def test_pdf_estimate_dim_check(self, mixed_cluster):
        centroid = UCentroid(mixed_cluster)
        with pytest.raises(InvalidParameterError):
            centroid.pdf_estimate(np.zeros(3))

    def test_singleton_cluster_is_the_object(self):
        obj = UncertainObject.uniform_box([1.0, 2.0], [0.5, 0.5])
        centroid = UCentroid([obj])
        assert np.allclose(centroid.mu, obj.mu)
        assert np.allclose(centroid.mu2, obj.mu2)
        assert centroid.region == obj.region

    def test_empty_rejected(self):
        with pytest.raises(EmptyClusterError):
            UCentroid([])

    def test_invalid_sample_size(self, mixed_cluster):
        with pytest.raises(InvalidParameterError):
            UCentroid(mixed_cluster).sample(0)

    def test_as_uncertain_object(self, mixed_cluster):
        centroid = UCentroid(mixed_cluster)
        obj = centroid.as_uncertain_object(n_samples=4000, seed=0)
        assert np.allclose(obj.mu, centroid.mu, atol=0.05)

    def test_variance_shrinks_with_cluster_size(self, rng):
        """Adding objects shrinks centroid variance ~ 1/n^2 per Theorem 2."""
        objects = random_uncertain_objects(rng, 16, 2)
        small = UCentroid(objects[:4])
        large = UCentroid(objects)
        sum_small = sum(o.total_variance for o in objects[:4])
        sum_large = sum(o.total_variance for o in objects)
        assert small.total_variance == pytest.approx(sum_small / 16)
        assert large.total_variance == pytest.approx(sum_large / 256)
