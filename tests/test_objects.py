"""Tests for UncertainObject and UncertainDataset (S3)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import MinMaxBB, UKMeans, UKMedoids
from repro.engine import MultiRestartRunner
from repro.exceptions import (
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidParameterError,
)
from repro.objects import UncertainDataset, UncertainObject, objects_dim
from repro.uncertainty import (
    BoxRegion,
    EmpiricalDistribution,
    IndependentProduct,
    MixtureDistribution,
    MultivariateDistribution,
    MultivariatePointMass,
    PointMassDistribution,
    TriangularDistribution,
    TruncatedExponentialDistribution,
    TruncatedNormalDistribution,
    UniformDistribution,
)
from repro.utils.rng import ensure_rng


class TestUncertainObject:
    def test_moment_caching_matches_distribution(self, mixed_cluster):
        for obj in mixed_cluster:
            assert np.allclose(obj.mu, obj.distribution.mean_vector)
            assert np.allclose(obj.mu2, obj.distribution.second_moment_vector)
            assert np.allclose(
                obj.sigma2, obj.distribution.variance_vector, atol=1e-12
            )

    def test_total_variance_is_l1_norm(self, mixed_cluster):
        for obj in mixed_cluster:
            assert obj.total_variance == pytest.approx(obj.sigma2.sum())

    def test_from_point_zero_variance(self):
        obj = UncertainObject.from_point([1.0, 2.0], label=3)
        assert obj.total_variance == 0.0
        assert obj.label == 3
        assert np.allclose(obj.mu, [1.0, 2.0])

    def test_uniform_box_constructor(self):
        obj = UncertainObject.uniform_box([0.0, 0.0], [1.0, 2.0])
        assert np.allclose(obj.mu, [0.0, 0.0])
        assert obj.sigma2[0] == pytest.approx(4.0 / 12.0)
        assert obj.sigma2[1] == pytest.approx(16.0 / 12.0)

    def test_gaussian_constructor_mean_preserved(self):
        obj = UncertainObject.gaussian([1.0, -1.0], [0.5, 0.2], mass=0.95)
        assert np.allclose(obj.mu, [1.0, -1.0], atol=1e-9)
        # Truncation shrinks variance below the parent's.
        assert obj.sigma2[0] < 0.25

    def test_moments_read_only(self):
        obj = UncertainObject.from_point([1.0])
        with pytest.raises(ValueError):
            obj.mu[0] = 9.0

    def test_sampling_passthrough(self):
        obj = UncertainObject.uniform_box([0.0], [1.0])
        samples = obj.sample(100, seed=0)
        assert samples.shape == (100, 1)
        assert np.all(np.abs(samples) <= 1.0)

    def test_repr_contains_label(self):
        obj = UncertainObject.from_point([1.0], label=2)
        assert "label=2" in repr(obj)

    def test_objects_dim(self, mixed_cluster):
        assert objects_dim(mixed_cluster) == 2

    def test_objects_dim_empty(self):
        with pytest.raises(EmptyDatasetError):
            objects_dim([])

    def test_objects_dim_mismatch(self):
        objs = [
            UncertainObject.from_point([0.0]),
            UncertainObject.from_point([0.0, 1.0]),
        ]
        with pytest.raises(DimensionMismatchError):
            objects_dim(objs)


class TestUncertainDataset:
    def test_stacked_views(self, mixed_dataset, mixed_cluster):
        assert mixed_dataset.mu_matrix.shape == (5, 2)
        for idx, obj in enumerate(mixed_cluster):
            assert np.allclose(mixed_dataset.mu_matrix[idx], obj.mu)
            assert np.allclose(mixed_dataset.sigma2_matrix[idx], obj.sigma2)
            assert mixed_dataset.total_variances[idx] == pytest.approx(
                obj.total_variance
            )

    def test_sequence_protocol(self, mixed_dataset):
        assert len(mixed_dataset) == 5
        assert mixed_dataset[0] is mixed_dataset.objects[0]
        assert len(list(iter(mixed_dataset))) == 5

    def test_slicing_returns_dataset(self, mixed_dataset):
        sliced = mixed_dataset[1:4]
        assert isinstance(sliced, UncertainDataset)
        assert len(sliced) == 3

    def test_labels_present_only_when_all_labeled(self, blob_dataset):
        assert blob_dataset.labels is not None
        assert blob_dataset.n_classes == 3
        unlabeled = UncertainDataset(
            [UncertainObject.from_point([0.0]), UncertainObject.from_point([1.0])]
        )
        assert unlabeled.labels is None
        assert unlabeled.n_classes is None

    def test_empty_rejected(self):
        with pytest.raises(EmptyDatasetError):
            UncertainDataset([])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            UncertainDataset(
                [
                    UncertainObject.from_point([0.0]),
                    UncertainObject.from_point([0.0, 1.0]),
                ]
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_moments_rejected(self):
        """A finite point mass at 1e200 has mu2 = inf; the error names
        the first such object."""
        objects = [
            UncertainObject.from_point([0.0, 1.0]),
            UncertainObject.from_point([1e200, 1.0]),
            UncertainObject.from_point([2.0, -1e300]),
        ]
        with pytest.raises(InvalidParameterError, match="object 1 "):
            UncertainDataset(objects)
        with pytest.raises(InvalidParameterError, match="object 0 "):
            UncertainDataset(objects[2:])
        # 1e154 squares to a finite 1e308: accepted.
        assert len(UncertainDataset([UncertainObject.from_point([1e154])])) == 1

    def test_subset(self, blob_dataset):
        sub = blob_dataset.subset([0, 5, 10])
        assert len(sub) == 3
        np.testing.assert_array_equal(
            sub.mu_matrix, blob_dataset.mu_matrix[[0, 5, 10]]
        )
        # Objects built before the subset is taken are shared with it.
        first = blob_dataset[0]
        assert blob_dataset.subset([0, 5, 10])[0] is first

    def test_subset_empty_rejected(self, blob_dataset):
        with pytest.raises(EmptyDatasetError):
            blob_dataset.subset([])

    @pytest.mark.parametrize(
        "indices, match",
        [
            ([60], r"in \[-60, 60\), got 60"),
            ([0, -61], r"in \[-60, 60\), got -61"),
            ([2**70], "must be integers"),
            ([1.5], "must be integers"),
            (["1"], "must be integers"),
            ([None], "must be integers"),
            (3, "must be integers"),
        ],
        ids=str,
    )
    def test_subset_bad_index_rejected(self, blob_dataset, indices, match):
        with pytest.raises(InvalidParameterError, match=match):
            blob_dataset.subset(indices)

    def test_subset_negative_index_counts_from_end(self, blob_dataset):
        n = len(blob_dataset)
        tail = blob_dataset.subset([-1, -n])
        head = blob_dataset.subset([n - 1, 0])
        np.testing.assert_array_equal(tail.mu_matrix, head.mu_matrix)
        np.testing.assert_array_equal(tail.labels, head.labels)

    def test_sample_fraction_stratified_keeps_all_classes(self, blob_dataset):
        sub = blob_dataset.sample_fraction(0.2, seed=0, stratified=True)
        assert sub.n_classes == blob_dataset.n_classes
        assert len(sub) < len(blob_dataset)

    def test_sample_fraction_full_is_identity(self, blob_dataset):
        assert blob_dataset.sample_fraction(1.0) is blob_dataset

    def test_sample_fraction_invalid(self, blob_dataset):
        with pytest.raises(InvalidParameterError):
            blob_dataset.sample_fraction(0.0)
        with pytest.raises(InvalidParameterError):
            blob_dataset.sample_fraction(1.5)

    def test_from_points(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0]])
        ds = UncertainDataset.from_points(pts, labels=[0, 1])
        assert len(ds) == 2
        assert np.allclose(ds.mu_matrix, pts)
        assert np.all(ds.total_variances == 0.0)
        assert list(ds.labels) == [0, 1]

    def test_from_points_label_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            UncertainDataset.from_points(np.zeros((2, 2)), labels=[0])

    def test_views_read_only(self, mixed_dataset):
        with pytest.raises(ValueError):
            mixed_dataset.mu_matrix[0, 0] = 99.0


# ----------------------------------------------------------------------
# Object-built datasets under the one layout: moment columns plus an
# ``_Objects`` source, whose subsets equal datasets rebuilt from the
# chosen objects.
# ----------------------------------------------------------------------
class _Box(MultivariateDistribution):
    """An unregistered multivariate (uniform on a cube), so the batch
    sampler falls back to its own ``sample``."""

    def __init__(self, center, radius):
        self._center = np.asarray(center, dtype=np.float64)
        self._radius = float(radius)

    @property
    def region(self):
        return BoxRegion(self._center - self._radius, self._center + self._radius)

    @property
    def mean_vector(self):
        return self._center

    @property
    def second_moment_vector(self):
        return self._center**2 + self._radius**2 / 3.0

    def pdf(self, points):
        return np.ones(self._points_matrix(points).shape[0])

    def sample(self, size, seed=None):
        lower, upper = self._center - self._radius, self._center + self._radius
        return ensure_rng(seed).uniform(lower, upper, size=(size, self._center.size))


_KINDS = ("point", "product", "empirical", "mixture", "custom")


def _marginal(rng):
    center, scale = float(rng.normal(0.0, 3.0)), float(rng.uniform(0.2, 2.0))
    family = int(rng.integers(0, 5))
    if family == 0:
        return UniformDistribution.centered(center, scale)
    if family == 1:
        return TruncatedNormalDistribution.central_mass(center, scale, 0.95)
    if family == 2:
        return TruncatedExponentialDistribution.with_mean(
            center, 1.0 / scale, direction=1 if rng.random() < 0.5 else -1, mass=0.9
        )
    if family == 3:
        return TriangularDistribution.symmetric(center, scale)
    return PointMassDistribution(center)


def _distribution(kind, rng, m):
    if kind == "point":
        return MultivariatePointMass(rng.normal(0.0, 3.0, size=m))
    if kind == "product":
        return IndependentProduct([_marginal(rng) for _ in range(m)])
    if kind == "empirical":
        return EmpiricalDistribution(
            rng.normal(0.0, 2.0, size=(5, m)), weights=rng.uniform(0.1, 1.0, 5)
        )
    if kind == "mixture":
        return MixtureDistribution(
            [_distribution("product", rng, m), _distribution("point", rng, m)],
            weights=[0.3, 0.7],
        )
    return _Box(rng.normal(0.0, 3.0, size=m), rng.uniform(0.1, 1.0))


def _user_objects(kinds, m, labelled, seed):
    rng = np.random.default_rng(seed)
    return [
        UncertainObject(
            _distribution(kind, rng, m), label=i % 3 if labelled else None
        )
        for i, kind in enumerate(kinds)
    ]


def _same_bits(actual, expected) -> None:
    np.testing.assert_array_equal(
        np.ascontiguousarray(actual).view(np.uint64),
        np.ascontiguousarray(expected).view(np.uint64),
    )


def _assert_same_dataset(actual, expected) -> None:
    """Moments, labels, region bounds and one tensor draw, bit for bit."""
    for name in ("mu_matrix", "mu2_matrix", "sigma2_matrix", "total_variances"):
        _same_bits(getattr(actual, name), getattr(expected, name))
    if expected.labels is None:
        assert actual.labels is None
    else:
        np.testing.assert_array_equal(actual.labels, expected.labels)
    for side in (0, 1):
        _same_bits(actual.region_bounds[side], expected.region_bounds[side])
    _same_bits(actual.sample_tensor(3, seed=7), expected.sample_tensor(3, seed=7))


class TestObjectBuiltDatasets:
    @given(
        kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=8),
        m=st.integers(min_value=1, max_value=3),
        labelled=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_derived_datasets_equal_rebuilt_ones(
        self, kinds, m, labelled, seed, data
    ):
        objects = _user_objects(kinds, m, labelled, seed)
        dataset = UncertainDataset(objects)
        n = len(objects)
        row_of = {id(obj): i for i, obj in enumerate(objects)}
        indices = data.draw(
            st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1)
        )
        window = data.draw(st.slices(n))
        fraction = data.draw(st.floats(min_value=0.05, max_value=1.0))
        derived = [dataset.subset(indices)]
        if range(n)[window]:
            derived.append(dataset[window])
        derived += [
            dataset.sample_fraction(fraction, seed=seed, stratified=stratified)
            for stratified in (True, False)
        ]
        for sub in derived:
            rows = [row_of[id(obj)] for obj in sub.objects]
            _assert_same_dataset(sub, UncertainDataset([objects[i] for i in rows]))
        assert [row_of[id(obj)] for obj in dataset.subset(indices)] == indices
        clone = pickle.loads(pickle.dumps(dataset))
        _assert_same_dataset(clone, dataset)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: UKMeans(3),
            lambda: UKMedoids(3),
            lambda: MinMaxBB(3, n_samples=8),
        ],
    )
    def test_processes_equal_serial(self, factory, force_backend):
        """The ``_Objects`` source is the one pool payload that carries
        objects; fits on it match across backends."""
        kinds = [_KINDS[i % len(_KINDS)] for i in range(30)]
        dataset = UncertainDataset(_user_objects(kinds, 2, True, 11))
        reference = MultiRestartRunner(factory(), n_init=4).run(dataset, seed=5)
        force_backend("processes")
        result = MultiRestartRunner(factory(), n_init=4, n_jobs=2).run(
            dataset, seed=5
        )
        assert result.extras["engine_backend"] == "processes"
        np.testing.assert_array_equal(result.labels, reference.labels)
        assert result.objective == reference.objective
