"""Tests for clustering base types and initialization strategies."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

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
    kmeanspp_seed_indices,
    partition_from_seeds,
    random_partition,
    random_seed_indices,
    validate_n_clusters,
)
from repro.clustering.base import ClusteringResult, UncertainClusterer
from repro.exceptions import ConvergenceWarning, InvalidParameterError
from repro.objects import UncertainDataset


def _overflow_dataset(seed):
    """24 normal point masses plus four at ±1e154 on the first axis:
    every moment is finite, but squared distances to the giants
    overflow."""
    rng = np.random.default_rng(seed)
    giants = np.zeros((4, 2))
    giants[:, 0] = rng.choice([-1.0, 1.0], size=4) * rng.uniform(1.0, 1.3, size=4)
    points = np.vstack([rng.normal(size=(24, 2)), giants * 1e154])
    return UncertainDataset.from_points(points)


class TestClusteringResult:
    def test_counts(self):
        result = ClusteringResult(labels=np.array([0, 0, 1, -1, 2]))
        assert result.n_objects == 5
        assert result.n_clusters == 3
        assert result.n_noise == 1

    def test_clusters_grouping(self):
        result = ClusteringResult(labels=np.array([1, 0, 1, -1]))
        assert result.clusters() == [[1], [0, 2]]

    def test_relabeled_compacts_ids(self):
        result = ClusteringResult(labels=np.array([5, 5, 9, -1]))
        compact = result.relabeled()
        assert list(compact.labels) == [0, 0, 1, -1]
        assert compact.n_clusters == 2

    def test_relabeled_preserves_metadata(self):
        result = ClusteringResult(
            labels=np.array([3, 3]),
            objective=1.5,
            n_iterations=4,
            extras={"k": 1},
        )
        compact = result.relabeled()
        assert compact.objective == 1.5
        assert compact.n_iterations == 4
        assert compact.extras == {"k": 1}

    def test_all_noise(self):
        result = ClusteringResult(labels=np.array([-1, -1]))
        assert result.n_clusters == 0
        assert result.clusters() == []

    def test_labels_cast_to_int64(self):
        result = ClusteringResult(labels=[0.0, 1.0])
        assert result.labels.dtype == np.int64


class TestValidateNClusters:
    def test_valid(self):
        assert validate_n_clusters(3, 10) == 3

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            validate_n_clusters(0, 10)
        with pytest.raises(InvalidParameterError):
            validate_n_clusters(11, 10)
        with pytest.raises(InvalidParameterError):
            validate_n_clusters("3", 10)


#: Every clusterer ``repro.clustering`` exports: valid constructor
#: arguments, and the integer hyperparameters the constructor checks.
_SAMPLED = ("n_clusters", "n_samples", "max_iter")
INTEGER_HYPERPARAMETERS = [
    (UKMeans, {"n_clusters": 3}, ("n_clusters", "max_iter")),
    (BasicUKMeans, {"n_clusters": 3}, _SAMPLED),
    (MinMaxBB, {"n_clusters": 3}, _SAMPLED),
    (VDBiP, {"n_clusters": 3}, _SAMPLED),
    (BoundedUKMeans, {"n_clusters": 3}, _SAMPLED),
    (
        MiniBatchUKMeans,
        {"n_clusters": 3},
        ("n_clusters", "batch_size", "max_iter", "over_cluster"),
    ),
    (UCPC, {"n_clusters": 3}, ("n_clusters", "max_iter")),
    (MMVar, {"n_clusters": 3}, ("n_clusters", "max_iter")),
    (UKMedoids, {"n_clusters": 3}, ("n_clusters", "max_iter")),
    (FDBSCAN, {}, ("min_pts", "n_samples")),
    # min_pts = 3 lets knn_cap = 3 pass its ">= min_pts" check.
    (FOPTICS, {"min_pts": 3}, ("min_pts", "n_samples", "n_clusters", "knn_cap")),
    (UAHC, {"n_clusters": 3}, ("n_clusters",)),
]
#: Hyperparameters whose ``None`` means "not set".
_OPTIONAL = {(FOPTICS, "n_clusters"), (FOPTICS, "knn_cap")}


class TestHyperparameterChecks:
    """Every integer hyperparameter is checked at construction."""

    def test_covers_every_exported_clusterer(self):
        names = repro.clustering.__all__
        exported = [getattr(repro.clustering, name) for name in names]
        clusterers = {
            value
            for value in exported
            if isinstance(value, type) and issubclass(value, UncertainClusterer)
        } - {UncertainClusterer}
        assert clusterers == {cls for cls, _, _ in INTEGER_HYPERPARAMETERS}
        assert len(clusterers) == 12

    @pytest.mark.parametrize(
        "cls, valid, name, bad",
        [
            pytest.param(cls, valid, name, bad, id=f"{cls.__name__}-{name}-{bad!r}")
            for cls, valid, names in INTEGER_HYPERPARAMETERS
            for name in names
            for bad in (2.5, "3", None, 0)
            if not (bad is None and (cls, name) in _OPTIONAL)
        ],
    )
    def test_rejects_non_integers_and_values_below_minimum(
        self, cls, valid, name, bad
    ):
        with pytest.raises(InvalidParameterError, match=name):
            cls(**{**valid, name: bad})

    @pytest.mark.parametrize(
        "cls, valid, name",
        [
            pytest.param(cls, valid, name, id=f"{cls.__name__}-{name}")
            for cls, valid, names in INTEGER_HYPERPARAMETERS
            for name in names
        ],
    )
    def test_numpy_integers_stored_as_int(self, cls, valid, name):
        model = cls(**{**valid, name: np.int64(3)})
        assert type(getattr(model, name)) is int
        assert getattr(model, name) == 3

    def test_below_minimum_message(self):
        with pytest.raises(InvalidParameterError, match="max_iter must be >= 1, got 0"):
            UCPC(3, max_iter=0)


class TestRandomPartition:
    def test_every_cluster_nonempty(self):
        for seed in range(10):
            labels = random_partition(20, 6, seed=seed)
            assert np.unique(labels).size == 6

    def test_exact_k_when_n_equals_k(self):
        labels = random_partition(4, 4, seed=0)
        assert sorted(labels) == [0, 1, 2, 3]

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            random_partition(3, 4)
        with pytest.raises(InvalidParameterError):
            random_partition(3, 0)


class TestSeedSelection:
    def test_random_seed_indices_distinct(self):
        seeds = random_seed_indices(10, 5, seed=0)
        assert np.unique(seeds).size == 5

    def test_random_seed_indices_invalid(self):
        with pytest.raises(InvalidParameterError):
            random_seed_indices(3, 4)

    def test_kmeanspp_distinct_and_spread(self, blob_dataset):
        seeds = kmeanspp_seed_indices(blob_dataset, 3, seed=0)
        assert np.unique(seeds).size == 3
        # The three seeds should come from three different blobs with
        # overwhelming probability on well-separated data.
        labels = blob_dataset.labels[seeds]
        assert np.unique(labels).size == 3

    def test_kmeanspp_handles_duplicates(self):
        from repro.objects import UncertainDataset

        pts = np.zeros((5, 2))
        pts[0] = [1.0, 1.0]
        data = UncertainDataset.from_points(pts)
        seeds = kmeanspp_seed_indices(data, 3, seed=0)
        assert np.unique(seeds).size == 3

    def test_kmeanspp_invalid(self, blob_dataset):
        with pytest.raises(InvalidParameterError):
            kmeanspp_seed_indices(blob_dataset, 0, seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kmeanspp_overflowing_weights_raise_typed_error(self, seed):
        """Finite moments whose squared distances overflow leave no D²
        distribution to draw from: a typed error, not numpy's raw
        ``ValueError`` from ``rng.choice``."""
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidParameterError, match="overflow"):
                kmeanspp_seed_indices(_overflow_dataset(seed), 3, seed=seed)

    @pytest.mark.parametrize("cls", [UCPC, UKMedoids])
    def test_kmeanspp_overflow_through_classes(self, cls):
        """Both k-means++ users raise the typed error; ``init="random"``
        keeps running on the same data."""
        data = _overflow_dataset(0)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            with pytest.raises(InvalidParameterError, match="overflow"):
                cls(3, init="kmeans++").fit(data, seed=0)
            result = cls(3, init="random").fit(data, seed=0)
        assert result.labels.shape == (len(data),)

    def test_partition_from_seeds(self, blob_dataset):
        seeds = kmeanspp_seed_indices(blob_dataset, 3, seed=1)
        assignment = partition_from_seeds(blob_dataset, seeds)
        assert assignment.shape == (len(blob_dataset),)
        # Each seed object is assigned to its own cluster.
        for c, s in enumerate(seeds):
            assert assignment[s] == c
