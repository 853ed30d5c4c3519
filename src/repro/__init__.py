"""repro — reproduction of "Uncertain Centroid based Partitional Clustering
of Uncertain Data" (Gullo & Tagarelli, PVLDB 5(7), 2012).

The library implements the paper's UCPC algorithm and its full
experimental ecosystem: the multivariate uncertainty model, the
U-centroid, every competitor algorithm the paper evaluates against
(UK-means fast/basic, MinMax-BB, VDBiP, MMVar, UK-medoids, FDBSCAN,
FOPTICS, U-AHC), the external/internal validity criteria, the
Case-1/Case-2 uncertainty-evaluation protocol, and synthetic dataset
generators matching the paper's benchmark shapes.

Quickstart
----------
>>> from repro import UCPC, make_blobs_uncertain
>>> data = make_blobs_uncertain(n_objects=90, n_clusters=3, seed=0)
>>> result = UCPC(n_clusters=3).fit(data, seed=0)
>>> sorted(set(result.labels.tolist()))
[0, 1, 2]
"""

from repro.centroids import MixtureModelCentroid, UCentroid, ukmeans_centroid
from repro.clustering import (
    FDBSCAN,
    FOPTICS,
    MMVar,
    UAHC,
    UCPC,
    BasicUKMeans,
    ClusteringResult,
    MinMaxBB,
    UKMeans,
    UKMedoids,
    UncertainClusterer,
    VDBiP,
)
from repro.datagen import (
    UncertaintyGenerator,
    make_benchmark,
    make_blobs_uncertain,
    make_classification_like,
    make_microarray,
)
from repro.evaluation import (
    evaluate_theta,
    evaluate_theta_multirun,
    f_measure,
    internal_scores,
    quality_score,
)
from repro.engine import EarlyStopping, MultiRestartRunner, RestartRecord
from repro.exceptions import ReproError
from repro.objects import (
    UncertainDataset,
    UncertainObject,
    expected_distance_to_point,
    pairwise_squared_expected_distances,
    squared_expected_distance,
)
from repro.uncertainty import (
    BoxRegion,
    IndependentProduct,
    MixtureDistribution,
    TruncatedExponentialDistribution,
    TruncatedNormalDistribution,
    UniformDistribution,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # centroids
    "MixtureModelCentroid",
    "UCentroid",
    "ukmeans_centroid",
    # clustering
    "FDBSCAN",
    "FOPTICS",
    "MMVar",
    "UAHC",
    "UCPC",
    "BasicUKMeans",
    "ClusteringResult",
    "MinMaxBB",
    "UKMeans",
    "UKMedoids",
    "UncertainClusterer",
    "VDBiP",
    # data generation
    "UncertaintyGenerator",
    "make_benchmark",
    "make_blobs_uncertain",
    "make_classification_like",
    "make_microarray",
    # evaluation
    "evaluate_theta",
    "evaluate_theta_multirun",
    "f_measure",
    "internal_scores",
    "quality_score",
    # engine
    "EarlyStopping",
    "MultiRestartRunner",
    "RestartRecord",
    # errors
    "ReproError",
    # objects
    "UncertainDataset",
    "UncertainObject",
    "expected_distance_to_point",
    "pairwise_squared_expected_distances",
    "squared_expected_distance",
    # uncertainty
    "BoxRegion",
    "IndependentProduct",
    "MixtureDistribution",
    "TruncatedExponentialDistribution",
    "TruncatedNormalDistribution",
    "UniformDistribution",
]
