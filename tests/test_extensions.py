"""Tests for the library extensions: triangular pdf, moving-objects
workload, dataset labels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import UCPC
from repro.datagen import make_moving_objects
from repro.evaluation import f_measure
from repro.exceptions import InvalidParameterError
from repro.objects import UncertainDataset
from tests.conftest import NON_INTEGER_LABELS
from repro.uncertainty import (
    TriangularDistribution,
    quadrature_mass,
    quadrature_moments,
)


class TestTriangular:
    def test_moments_closed_form(self):
        dist = TriangularDistribution(0.0, 1.0, 4.0)
        assert dist.mean == pytest.approx(5.0 / 3.0)
        var = (0 + 1 + 16 - 0 - 0 - 4) / 18.0
        assert dist.variance == pytest.approx(var)

    def test_moments_match_quadrature(self):
        dist = TriangularDistribution(-2.0, 0.5, 3.0)
        mean, second = quadrature_moments(dist)
        assert dist.mean == pytest.approx(mean, abs=1e-8)
        assert dist.second_moment == pytest.approx(second, abs=1e-7)

    def test_pdf_integrates_to_one(self):
        dist = TriangularDistribution(1.0, 2.0, 5.0)
        assert quadrature_mass(dist) == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_sides_allowed(self):
        left = TriangularDistribution(0.0, 0.0, 2.0)  # mode at lower
        right = TriangularDistribution(0.0, 2.0, 2.0)  # mode at upper
        assert quadrature_mass(left) == pytest.approx(1.0, abs=1e-8)
        assert quadrature_mass(right) == pytest.approx(1.0, abs=1e-8)

    def test_ppf_inverts_cdf(self):
        dist = TriangularDistribution(0.0, 3.0, 4.0)
        qs = np.array([0.1, 0.5, 0.9])
        assert np.allclose(dist.cdf(dist.ppf(qs)), qs, atol=1e-9)

    def test_sampling_statistics(self):
        dist = TriangularDistribution.symmetric(2.0, 1.5)
        samples = dist.sample(40000, seed=0)
        assert samples.mean() == pytest.approx(2.0, abs=0.02)
        assert np.all((samples >= 0.5) & (samples <= 3.5))

    def test_symmetric_mean_is_center(self):
        dist = TriangularDistribution.symmetric(-1.0, 2.0)
        assert dist.mean == pytest.approx(-1.0)
        assert dist.mode == pytest.approx(-1.0)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            TriangularDistribution(2.0, 1.0, 3.0)
        with pytest.raises(InvalidParameterError):
            TriangularDistribution(1.0, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            TriangularDistribution.symmetric(0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            TriangularDistribution(np.inf, 1.0, 2.0)

    @given(
        lower=st.floats(min_value=-20, max_value=20),
        mode_frac=st.floats(min_value=0.0, max_value=1.0),
        width=st.floats(min_value=0.01, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_mean_between_bounds_property(self, lower, mode_frac, width):
        upper = lower + width
        mode = lower + mode_frac * width
        dist = TriangularDistribution(lower, mode, upper)
        assert lower - 1e-9 <= dist.mean <= upper + 1e-9
        assert dist.variance >= 0.0


class TestMovingObjects:
    def test_shapes_and_labels(self):
        fleet = make_moving_objects(n_objects=80, n_hubs=4, seed=0)
        assert len(fleet) == 80
        assert fleet.dim == 2
        assert fleet.n_classes == 4

    def test_heterogeneous_variances(self):
        fleet = make_moving_objects(n_objects=100, seed=1)
        variances = fleet.total_variances
        assert variances.max() > 3.0 * variances.min()

    def test_gaussian_variant(self):
        fleet = make_moving_objects(n_objects=50, pdf="normal", seed=2)
        assert np.all(fleet.total_variances > 0)

    def test_hubs_recoverable(self):
        fleet = make_moving_objects(
            n_objects=200, n_hubs=3, hub_radius=5.0, max_speed=2.0, seed=3
        )
        best = max(
            f_measure(UCPC(3).fit(fleet, seed=s).labels, fleet.labels)
            for s in range(3)
        )
        assert best > 0.8

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            make_moving_objects(n_objects=4, n_hubs=4)
        with pytest.raises(InvalidParameterError):
            make_moving_objects(pdf="cauchy")
        with pytest.raises(InvalidParameterError):
            make_moving_objects(max_speed=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(area_size=np.nan),
            dict(area_size=np.inf),
            dict(hub_radius=np.nan),
            dict(max_speed=np.nan),
            dict(max_staleness=-1.0),
            dict(n_hubs=0),
            dict(n_hubs=-2),
            dict(n_hubs=2.5),
            dict(n_objects="x"),
            dict(n_objects=None),
            dict(mass=np.nan),
            dict(pdf="normal", mass=1.5),
        ],
        ids=str,
    )
    def test_typed_errors_before_any_draw(self, kwargs):
        rng = np.random.default_rng(4)
        with pytest.raises(InvalidParameterError):
            make_moving_objects(**{"n_objects": 20, **kwargs}, seed=rng)
        np.testing.assert_array_equal(
            rng.random(3), np.random.default_rng(4).random(3)
        )

    def test_deterministic(self):
        a = make_moving_objects(n_objects=40, seed=9)
        b = make_moving_objects(n_objects=40, seed=9)
        assert np.allclose(a.mu_matrix, b.mu_matrix)


@pytest.mark.filterwarnings("error")
class TestFromPointsLabels:
    @pytest.mark.parametrize("labels", NON_INTEGER_LABELS, ids=str)
    def test_non_integer_labels_are_typed(self, labels):
        with pytest.raises(InvalidParameterError, match="labels must be integers"):
            UncertainDataset.from_points(np.zeros((2, 3)), labels=labels)

    def test_integer_like_labels_accepted(self):
        data = UncertainDataset.from_points(
            np.zeros((3, 1)), labels=np.array([2.0, 0.0, 1.0])
        )
        assert data.labels.tolist() == [2, 0, 1]
