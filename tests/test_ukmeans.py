"""Tests for fast UK-means [14]."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.clustering import UKMeans, ukmeans_objective
from repro.clustering.ukmeans import _assign_to_centers
from repro.datagen import make_blobs_uncertain
from repro.evaluation import f_measure
from repro.exceptions import ConvergenceWarning, InvalidParameterError
from repro.objects import UncertainDataset, UncertainObject
from repro.objects.distance import expected_distance_to_point


class TestUKMeans:
    def test_produces_k_nonempty_clusters(self, blob_dataset):
        result = UKMeans(n_clusters=3).fit(blob_dataset, seed=0)
        counts = np.bincount(result.labels, minlength=3)
        assert np.all(counts > 0)

    def test_recovers_separated_blobs(self):
        data = make_blobs_uncertain(
            n_objects=120, n_clusters=3, separation=8.0, seed=5
        )
        result = UKMeans(n_clusters=3, init="kmeans++").fit(data, seed=5)
        assert f_measure(result.labels, data.labels) > 0.95

    def test_reproducible(self, blob_dataset):
        a = UKMeans(n_clusters=3).fit(blob_dataset, seed=11)
        b = UKMeans(n_clusters=3).fit(blob_dataset, seed=11)
        assert np.array_equal(a.labels, b.labels)

    def test_objective_history_nonincreasing(self, blob_dataset):
        result = UKMeans(n_clusters=3).fit(blob_dataset, seed=1)
        history = result.objective_history
        for prev, curr in zip(history, history[1:]):
            assert curr <= prev + 1e-6 * max(1.0, abs(prev))

    def test_variance_does_not_change_assignments(self):
        """Eq. (8): per-object variance is an additive constant, so the
        assignment sequence matches K-means on expected values exactly."""
        rng = np.random.default_rng(3)
        pts = rng.normal(0, 3, size=(40, 2))
        # Same expected values, wildly different variances.
        uncertain = UncertainDataset(
            [
                UncertainObject.uniform_box(pts[i], rng.uniform(0.1, 5.0, 2))
                for i in range(40)
            ]
        )
        deterministic = UncertainDataset.from_points(pts)
        res_u = UKMeans(n_clusters=3).fit(uncertain, seed=21)
        res_d = UKMeans(n_clusters=3).fit(deterministic, seed=21)
        assert np.array_equal(res_u.labels, res_d.labels)

    def test_objective_includes_variance_offset(self, blob_dataset):
        result = UKMeans(n_clusters=3).fit(blob_dataset, seed=2)
        assert result.objective >= float(blob_dataset.total_variances.sum())

    def test_objective_function_matches_result(self, blob_dataset):
        result = UKMeans(n_clusters=3).fit(blob_dataset, seed=2)
        assert result.objective == pytest.approx(
            ukmeans_objective(blob_dataset, result.labels)
        )

    def test_max_iter_warning(self):
        data = make_blobs_uncertain(
            n_objects=200, n_clusters=4, separation=1.0, seed=8
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            UKMeans(n_clusters=4, max_iter=1).fit(data, seed=8)
        assert any(issubclass(w.category, ConvergenceWarning) for w in caught)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            UKMeans(n_clusters=2, init="bogus")
        with pytest.raises(InvalidParameterError):
            UKMeans(n_clusters=2, max_iter=0)

    def test_assign_to_centers_correct(self):
        mu = np.array([[0.0, 0.0], [10.0, 10.0], [0.2, -0.1]])
        centers = np.array([[0.0, 0.0], [10.0, 10.0]])
        assert list(_assign_to_centers(mu, centers)) == [0, 1, 0]


    def test_assign_to_centers_matches_scalar_expected_distance(self, mixed_dataset):
        """Eq. (8): the nearest center by ``ÊD(o, c)`` is the nearest by
        the expected values, since ``sigma^2(o)`` is the same for all c."""
        centers = np.random.default_rng(4).normal(size=(3, mixed_dataset.dim))
        expected = [
            int(np.argmin([expected_distance_to_point(obj, c) for c in centers]))
            for obj in mixed_dataset
        ]
        assert _assign_to_centers(mixed_dataset.mu_matrix, centers).tolist() == expected

    @pytest.mark.parametrize("init", ["random", "kmeans++"])
    def test_point_masses_reach_a_lloyd_fixed_point(self, init):
        """On certain data UK-means is K-means: every point sits at its
        nearest cluster mean, and the objective is the summed squared
        error."""
        rng = np.random.default_rng(6)
        points = np.vstack(
            [c + rng.normal(size=(15, 2)) for c in ([0, 0], [5, 0], [0, 5])]
        )
        result = UKMeans(n_clusters=3, init=init).fit(
            UncertainDataset.from_points(points), seed=6
        )
        assert result.converged
        means = np.array(
            [points[result.labels == c].mean(axis=0) for c in range(3)]
        )
        sq = ((points[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(np.argmin(sq, axis=1), result.labels)
        assert result.objective == pytest.approx(
            sq[np.arange(len(points)), result.labels].sum()
        )
