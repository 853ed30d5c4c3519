"""Deeper hypothesis property tests across the library's invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.clustering
from repro.clustering import (
    FDBSCAN,
    FOPTICS,
    UAHC,
    UCPC,
    BasicUKMeans,
    BoundedUKMeans,
    MiniBatchUKMeans,
    MinMaxBB,
    MMVar,
    UKMeans,
    UKMedoids,
    VDBiP,
    j_mm,
    j_uk,
    j_ucpc,
)
from repro.clustering.base import UncertainClusterer
from repro.datagen import PDF_FAMILIES, UncertaintyGenerator
from repro.evaluation import f_measure
from repro.objects import (
    UncertainDataset,
    UncertainObject,
    pairwise_squared_expected_distances,
    squared_expected_distance,
)
from repro.uncertainty import (
    IndependentProduct,
    MixtureDistribution,
    TruncatedNormalDistribution,
    UniformDistribution,
)

# Reusable strategies -------------------------------------------------------

finite_mean = st.floats(min_value=-50, max_value=50)
small_width = st.floats(min_value=0.01, max_value=10)

uniform_objects = st.lists(
    st.tuples(finite_mean, small_width), min_size=1, max_size=8
).map(
    lambda params: [
        UncertainObject.uniform_box([m], [w]) for m, w in params
    ]
)


class TestDistanceProperties:
    @given(
        a=st.tuples(finite_mean, small_width),
        b=st.tuples(finite_mean, small_width),
    )
    @settings(max_examples=80, deadline=None)
    def test_ehat_lower_bound_is_variance_sum(self, a, b):
        """ÊD(o, o') >= sigma^2(o) + sigma^2(o') with equality iff means
        coincide (Lemma 3's closed form)."""
        obj_a = UncertainObject.uniform_box([a[0]], [a[1]])
        obj_b = UncertainObject.uniform_box([b[0]], [b[1]])
        ed = squared_expected_distance(obj_a, obj_b)
        floor = obj_a.total_variance + obj_b.total_variance
        assert ed >= floor - 1e-9
        if a[0] == b[0]:
            assert ed == pytest.approx(floor)

    @given(uniform_objects)
    @settings(max_examples=50, deadline=None)
    def test_pairwise_matrix_consistent_with_scalar(self, objects):
        dataset = UncertainDataset(objects)
        matrix = pairwise_squared_expected_distances(dataset)
        for i in range(len(objects)):
            assert matrix[i, i] == pytest.approx(
                2.0 * objects[i].total_variance, abs=1e-6
            )


class TestObjectiveProperties:
    @given(uniform_objects)
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, objects):
        """All cluster objectives are set functions: order must not matter."""
        reversed_objects = list(reversed(objects))
        assert j_uk(objects) == pytest.approx(
            j_uk(reversed_objects), rel=1e-9, abs=1e-9
        )
        assert j_mm(objects) == pytest.approx(
            j_mm(reversed_objects), rel=1e-9, abs=1e-9
        )
        assert j_ucpc(objects) == pytest.approx(
            j_ucpc(reversed_objects), rel=1e-9, abs=1e-9
        )

    @given(uniform_objects)
    @settings(max_examples=60, deadline=None)
    def test_objectives_nonnegative(self, objects):
        assert j_uk(objects) >= -1e-9
        assert j_mm(objects) >= -1e-9
        assert j_ucpc(objects) >= -1e-9

    @given(uniform_objects)
    @settings(max_examples=40, deadline=None)
    def test_translation_shifts_only_upsilon(self, objects):
        """Translating every object by t leaves J(C) unchanged (J is a
        function of pairwise structure, not absolute position)."""
        shift = 7.5
        translated = [
            UncertainObject.uniform_box([obj.mu[0] + shift],
                                        [(obj.region.widths[0]) / 2.0])
            for obj in objects
        ]
        assert j_ucpc(objects) == pytest.approx(
            j_ucpc(translated), rel=1e-6, abs=1e-6
        )


class TestMixtureProperties:
    @given(
        st.lists(
            st.tuples(finite_mean, small_width), min_size=2, max_size=6
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_mixture_mean_is_convex_combination(self, params):
        components = [
            IndependentProduct([UniformDistribution.centered(m, w)])
            for m, w in params
        ]
        mix = MixtureDistribution(components)
        means = [c.mean_vector[0] for c in components]
        assert min(means) - 1e-9 <= mix.mean_vector[0] <= max(means) + 1e-9

    @given(
        loc=finite_mean,
        scale=st.floats(min_value=0.05, max_value=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_mixture_of_identical_components_is_component(self, loc, scale):
        comp = IndependentProduct(
            [TruncatedNormalDistribution.central_mass(loc, scale, 0.95)]
        )
        mix = MixtureDistribution([comp, comp, comp])
        assert mix.mean_vector[0] == pytest.approx(comp.mean_vector[0])
        assert mix.total_variance == pytest.approx(comp.total_variance)


class TestExternalCriteriaProperties:
    labelings = st.lists(
        st.integers(min_value=0, max_value=4), min_size=4, max_size=40
    )

    @given(labelings, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=60, deadline=None)
    def test_relabeling_invariance(self, labels, seed):
        """Permuting cluster ids never changes the F-measure."""
        rng = np.random.default_rng(seed)
        pred = np.array(labels)
        ref = rng.integers(0, 3, size=pred.size)
        permutation = rng.permutation(5)
        permuted = permutation[pred]
        assert f_measure(pred, ref) == pytest.approx(f_measure(permuted, ref))


#: One small configuration of every clusterer ``repro.clustering`` exports,
#: built for data whose coordinates are multiplied by ``scale``.
SCALE_ROSTER = {
    "UKMeans": lambda scale: UKMeans(3),
    "BasicUKMeans": lambda scale: BasicUKMeans(3, n_samples=16),
    "MinMaxBB": lambda scale: MinMaxBB(3, n_samples=16),
    "VDBiP": lambda scale: VDBiP(3, n_samples=16),
    "BoundedUKMeans": lambda scale: BoundedUKMeans(3, n_samples=16),
    # tol bounds a squared centroid movement in absolute units.
    "MiniBatchUKMeans": lambda scale: MiniBatchUKMeans(
        3, batch_size=16, tol=1e-3 * scale**2
    ),
    "UCPC": lambda scale: UCPC(3),
    "MMVar": lambda scale: MMVar(3),
    "UKMedoids": lambda scale: UKMedoids(3),
    "FDBSCAN": lambda scale: FDBSCAN(min_pts=4, n_samples=16),
    "FOPTICS": lambda scale: FOPTICS(min_pts=4, n_samples=16, n_clusters=3),
    "UAHC": lambda scale: UAHC(3),
}


class TestScaleEquivariance:
    """Doubling every coordinate changes no clustering decision.

    Multiplying by 2 is exact in binary floating point and commutes with
    every rounding, and each criterion here is homogeneous in the
    coordinates: distances and FDBSCAN's quantile-derived ``eps``
    double, squared distances and variances quadruple, and UAHC's
    Jeffreys divergence does not change.  The Section 5.1 generator
    builds the doubled dataset from the doubled points with the same
    draws, so every fit must return the same labels, and every finite
    objective must be exactly 4 times the original.  The objectives stay
    above 1, where UCPC's and MMVar's relative stopping thresholds are
    scale-free; MiniBatchUKMeans's absolute ``tol`` is scaled with the
    data.  Every fit converges, so the stopping rules take part.
    """

    @staticmethod
    def _points():
        rng = np.random.default_rng(5)
        centers = np.array([[0.0, 0.0], [4.0, 1.0], [1.0, 5.0]])
        return np.vstack([c + rng.normal(size=(12, 2)) for c in centers])

    def test_covers_every_exported_clusterer(self):
        exported = {
            name
            for name in repro.clustering.__all__
            if isinstance(getattr(repro.clustering, name), type)
            and issubclass(getattr(repro.clustering, name), UncertainClusterer)
            and name != "UncertainClusterer"
        }
        assert exported == set(SCALE_ROSTER)

    @pytest.mark.parametrize("family", PDF_FAMILIES)
    @pytest.mark.parametrize("name", sorted(SCALE_ROSTER))
    def test_doubling_coordinates_keeps_labels(self, name, family):
        points = self._points()
        generator = UncertaintyGenerator(family)
        small = generator.uncertain_dataset(points, seed=3)
        large = generator.uncertain_dataset(2.0 * points, seed=3)
        assert np.array_equal(large.mu_matrix, 2.0 * small.mu_matrix)
        assert np.array_equal(large.sigma2_matrix, 4.0 * small.sigma2_matrix)

        make = SCALE_ROSTER[name]
        base = make(1.0).fit(small, seed=11)
        doubled = make(2.0).fit(large, seed=11)
        assert base.converged and doubled.converged
        assert np.array_equal(doubled.labels, base.labels)
        assert doubled.n_iterations == base.n_iterations
        if np.isnan(base.objective):
            assert np.isnan(doubled.objective)
        else:
            assert base.objective > 1.0
            assert doubled.objective == 4.0 * base.objective
        assert doubled.objective_history == [
            4.0 * value for value in base.objective_history
        ]
