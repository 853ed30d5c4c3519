"""Cluster centroid notions (S5): deterministic, mixture-model, U-centroid."""

from repro.centroids.deterministic import ukmeans_centroid
from repro.centroids.mixture_model import MixtureModelCentroid
from repro.centroids.ucentroid import UCentroid

__all__ = [
    "ukmeans_centroid",
    "MixtureModelCentroid",
    "UCentroid",
]
