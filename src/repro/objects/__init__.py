"""Uncertain objects, datasets, and expected-distance machinery (S3-S4)."""

from repro.objects.dataset import UncertainDataset
from repro.objects.distance import (
    cross_squared_expected_distances,
    expected_distance_mc,
    expected_distance_to_point,
    expected_distances_to_points,
    pairwise_squared_expected_distances,
    squared_expected_distance,
    squared_expected_distance_mc,
)
from repro.objects.preprocessing import StandardizationPlan, UncertainStandardizer
from repro.objects.uncertain_object import UncertainObject, objects_dim

__all__ = [
    "StandardizationPlan",
    "UncertainStandardizer",
    "UncertainDataset",
    "UncertainObject",
    "objects_dim",
    "cross_squared_expected_distances",
    "expected_distance_mc",
    "expected_distance_to_point",
    "expected_distances_to_points",
    "pairwise_squared_expected_distances",
    "squared_expected_distance",
    "squared_expected_distance_mc",
]
