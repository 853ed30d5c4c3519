"""Tests for the expected-distance machinery (Eq. (8), Lemma 3, S4).

Every closed form is validated against an independent Monte-Carlo
estimate of its defining integral.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import random_uncertain_objects

from repro.exceptions import InvalidParameterError
from repro.objects import (
    UncertainDataset,
    UncertainObject,
    expected_distance_mc,
    expected_distance_to_point,
    pairwise_squared_expected_distances,
    squared_expected_distance,
    squared_expected_distance_mc,
)


class TestExpectedDistanceToPoint:
    def test_eq8_decomposition(self, mixed_cluster):
        """ED(o, y) = sigma^2(o) + ||mu(o) - y||^2 (Eq. (8))."""
        y = np.array([0.3, -0.7])
        for obj in mixed_cluster:
            closed = expected_distance_to_point(obj, y)
            expected = obj.total_variance + float((obj.mu - y) @ (obj.mu - y))
            assert closed == pytest.approx(expected)

    def test_matches_monte_carlo(self, mixed_cluster):
        y = np.array([1.0, 0.5])
        for obj in mixed_cluster:
            closed = expected_distance_to_point(obj, y)
            mc = expected_distance_mc(obj, y, n_samples=60000, seed=0)
            assert mc == pytest.approx(closed, rel=0.05, abs=0.05)

    def test_distance_to_own_mean_is_variance(self, mixed_cluster):
        """ED(o, mu(o)) = sigma^2(o) — the precomputable term of [14]."""
        for obj in mixed_cluster:
            assert expected_distance_to_point(obj, obj.mu) == pytest.approx(
                obj.total_variance
            )

    def test_zero_for_point_mass_at_itself(self):
        obj = UncertainObject.from_point([2.0, 3.0])
        assert expected_distance_to_point(obj, [2.0, 3.0]) == 0.0

    def test_custom_metric_mc(self):
        obj = UncertainObject.uniform_box([0.0], [1.0])

        def manhattan(x, y):
            return float(np.abs(x - y).sum())

        value = expected_distance_mc(obj, [0.0], metric=manhattan, n_samples=20000, seed=1)
        # E|X| for X ~ U(-1, 1) is 0.5.
        assert value == pytest.approx(0.5, abs=0.02)

    def test_invalid_samples(self):
        obj = UncertainObject.from_point([0.0])
        with pytest.raises(InvalidParameterError):
            expected_distance_mc(obj, [0.0], n_samples=0)


class TestSquaredExpectedDistance:
    def test_lemma3_closed_form(self, mixed_cluster):
        """ÊD = sigma^2(o) + sigma^2(o') + ||mu(o) - mu(o')||^2 (Lemma 3)."""
        for a in mixed_cluster:
            for b in mixed_cluster:
                closed = squared_expected_distance(a, b)
                expected = (
                    a.total_variance
                    + b.total_variance
                    + float((a.mu - b.mu) @ (a.mu - b.mu))
                )
                assert closed == pytest.approx(expected)

    def test_matches_monte_carlo_double_integral(self, mixed_cluster):
        a, b = mixed_cluster[0], mixed_cluster[2]
        closed = squared_expected_distance(a, b)
        mc = squared_expected_distance_mc(a, b, n_samples=120000, seed=0)
        assert mc == pytest.approx(closed, rel=0.05)

    def test_self_distance_is_twice_variance(self, mixed_cluster):
        """ÊD(o, o) = 2 sigma^2(o): an independent copy, not identity."""
        for obj in mixed_cluster:
            assert squared_expected_distance(obj, obj) == pytest.approx(
                2.0 * obj.total_variance
            )

    def test_symmetry(self, mixed_cluster):
        a, b = mixed_cluster[1], mixed_cluster[3]
        assert squared_expected_distance(a, b) == pytest.approx(
            squared_expected_distance(b, a)
        )

    def test_dim_mismatch(self):
        a = UncertainObject.from_point([0.0])
        b = UncertainObject.from_point([0.0, 1.0])
        with pytest.raises(InvalidParameterError):
            squared_expected_distance(a, b)


class TestVectorizedDistances:
    def test_pairwise_matches_scalar(self, mixed_dataset):
        matrix = pairwise_squared_expected_distances(mixed_dataset)
        assert matrix.shape == (5, 5)
        for i, a in enumerate(mixed_dataset):
            for j, b in enumerate(mixed_dataset):
                assert matrix[i, j] == pytest.approx(
                    squared_expected_distance(a, b), abs=1e-8
                )

    def test_pairwise_symmetric(self, blob_dataset):
        matrix = pairwise_squared_expected_distances(blob_dataset)
        assert np.allclose(matrix, matrix.T)

    def test_random_objects_nonnegative(self, rng):
        objects = random_uncertain_objects(rng, 12, 3)
        ds = UncertainDataset(objects)
        matrix = pairwise_squared_expected_distances(ds)
        assert np.all(matrix >= 0.0)
