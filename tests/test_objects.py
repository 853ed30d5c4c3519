"""Tests for UncertainObject and UncertainDataset (S3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import (
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidParameterError,
)
from repro.objects import UncertainDataset, UncertainObject, objects_dim


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
        assert sub[0] is blob_dataset[0]

    def test_subset_empty_rejected(self, blob_dataset):
        with pytest.raises(EmptyDatasetError):
            blob_dataset.subset([])

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
