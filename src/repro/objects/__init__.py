"""Uncertain objects, datasets, and expected-distance machinery (S3-S4)."""

from repro.objects.dataset import UncertainDataset
from repro.objects.distance import (
    expected_distance_mc,
    expected_distance_to_point,
    pairwise_squared_expected_distances,
    squared_expected_distance,
    squared_expected_distance_mc,
)
from repro.objects.uncertain_object import UncertainObject, objects_dim

__all__ = [
    "UncertainDataset",
    "UncertainObject",
    "objects_dim",
    "expected_distance_mc",
    "expected_distance_to_point",
    "pairwise_squared_expected_distances",
    "squared_expected_distance",
    "squared_expected_distance_mc",
]
