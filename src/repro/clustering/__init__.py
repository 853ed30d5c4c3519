"""Clustering algorithms (S6-S16): UCPC plus every paper competitor."""

from repro.clustering.base import (
    ClusteringResult,
    UncertainClusterer,
    validate_n_clusters,
)
from repro.clustering.fdbscan import FDBSCAN, auto_eps
from repro.clustering.foptics import FOPTICS
from repro.clustering.initialization import (
    kmeanspp_seed_indices,
    partition_from_seeds,
    random_partition,
    random_seed_indices,
)
from repro.clustering.minibatch import MiniBatchUKMeans
from repro.clustering.mmvar import MMVar
from repro.clustering.objectives import (
    j_hat,
    j_mm,
    j_uk,
    j_uk_lemma1,
    j_ucpc,
    j_ucpc_closed_form,
    sum_of_variances,
)
from repro.clustering.pruning import MinMaxBB, VDBiP
from repro.clustering.uahc import UAHC, MergeStep
from repro.clustering.ucpc import UCPC
from repro.clustering.ukmeans import UKMeans, ukmeans_objective
from repro.clustering.ukmeans_basic import BasicUKMeans
from repro.clustering.ukmeans_bounded import BoundedUKMeans
from repro.clustering.ukmedoids import UKMedoids

__all__ = [
    "ClusteringResult",
    "UncertainClusterer",
    "validate_n_clusters",
    "FDBSCAN",
    "auto_eps",
    "FOPTICS",
    "kmeanspp_seed_indices",
    "partition_from_seeds",
    "random_partition",
    "random_seed_indices",
    "MiniBatchUKMeans",
    "MMVar",
    "j_hat",
    "j_mm",
    "j_uk",
    "j_uk_lemma1",
    "j_ucpc",
    "j_ucpc_closed_form",
    "sum_of_variances",
    "MinMaxBB",
    "VDBiP",
    "UAHC",
    "MergeStep",
    "UCPC",
    "UKMeans",
    "ukmeans_objective",
    "BasicUKMeans",
    "BoundedUKMeans",
    "UKMedoids",
]
