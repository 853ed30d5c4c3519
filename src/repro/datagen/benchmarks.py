"""Synthetic stand-ins for the paper's benchmark datasets (S20).

The paper evaluates on eight UCI datasets plus KDD Cup '99 (Table 1-(a)).
Those files are not redistributable here (no network access), and the
paper's uncertainty is *synthetically generated on top of them* anyway —
what the Θ/Q experiments actually exercise is the datasets' class
geometry (size, dimensionality, number of classes, degree of class
overlap).  This module synthesizes Gaussian-mixture datasets that
reproduce each benchmark's ``(n, m, #classes)`` shape from Table 1 with
a per-dataset separation level calibrated so easy benchmarks (Iris)
cluster well and hard ones (Yeast, Abalone) do not — see "Substitutions"
in the README.

All generators are deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro._typing import SeedLike
from repro.exceptions import InvalidParameterError
from repro.objects.dataset import UncertainDataset, _CellPdfs
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_int_range, check_mass, check_positive


@dataclass(frozen=True)
class BenchmarkSpec:
    """Shape parameters of one benchmark dataset (mirrors Table 1-(a)).

    Attributes
    ----------
    name:
        Dataset name as used in the paper.
    n_objects, n_attributes, n_classes:
        The columns of Table 1-(a).
    separation:
        Class-center spread in units of within-class standard deviation;
        lower values produce harder (more overlapping) datasets.
    imbalance:
        Dirichlet concentration for class sizes; large = balanced.
    """

    name: str
    n_objects: int
    n_attributes: int
    n_classes: int
    separation: float
    imbalance: float = 8.0


#: Registry reproducing Table 1-(a) of the paper.  Separations are
#: calibrated so the deterministic baseline difficulty ordering matches
#: the relative accuracy levels observable in the paper's Table 2.
BENCHMARK_SPECS: Dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in (
        BenchmarkSpec("iris", 150, 4, 3, separation=3.4),
        BenchmarkSpec("wine", 178, 13, 3, separation=2.6),
        BenchmarkSpec("glass", 214, 10, 6, separation=1.9, imbalance=2.0),
        BenchmarkSpec("ecoli", 327, 7, 5, separation=2.4, imbalance=2.0),
        BenchmarkSpec("yeast", 1484, 8, 10, separation=1.4, imbalance=1.5),
        BenchmarkSpec("image", 2310, 19, 7, separation=2.8),
        BenchmarkSpec("abalone", 4124, 7, 17, separation=1.1, imbalance=2.0),
        BenchmarkSpec("letter", 7648, 16, 10, separation=2.0),
        BenchmarkSpec("kddcup99", 4_000_000, 42, 23, separation=3.0, imbalance=0.7),
    )
}


def list_benchmarks() -> Tuple[str, ...]:
    """Names of all registered benchmark stand-ins."""
    return tuple(BENCHMARK_SPECS)


def make_benchmark(
    name: str,
    scale: float = 1.0,
    seed: SeedLike = None,
    max_objects: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic points + labels for a named benchmark stand-in.

    Parameters
    ----------
    name:
        One of :func:`list_benchmarks` (case-insensitive).
    scale:
        Fraction of the paper's object count to generate.  Every class
        keeps at least 2 objects.
    max_objects:
        Optional hard cap on the object count, applied after ``scale``.
        The experiment runners use this to keep the large benchmarks
        laptop-sized while leaving small ones (Iris, Wine) at paper
        scale.
    seed:
        Reproducibility seed.

    Returns
    -------
    (points, labels):
        ``points`` is ``(n, m)`` float64, ``labels`` ``(n,)`` int64.
    """
    if not isinstance(name, str) or name.lower() not in BENCHMARK_SPECS:
        raise InvalidParameterError(
            f"unknown benchmark {name!r}; known: {sorted(BENCHMARK_SPECS)}"
        )
    check_mass(scale, "scale")
    if max_objects is not None:
        check_int_range(max_objects, "max_objects", low=1)
    spec = BENCHMARK_SPECS[name.lower()]
    n = max(spec.n_classes * 2, int(round(spec.n_objects * scale)))
    if max_objects is not None:
        n = max(spec.n_classes * 2, min(n, max_objects))
    return make_classification_like(
        n_objects=n,
        n_attributes=spec.n_attributes,
        n_classes=spec.n_classes,
        separation=spec.separation,
        imbalance=spec.imbalance,
        seed=seed,
    )


def make_classification_like(
    n_objects: int,
    n_attributes: int,
    n_classes: int,
    separation: float = 2.5,
    imbalance: float = 8.0,
    lobes: int = 2,
    outlier_rate: float = 0.03,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Synthetic classification dataset with realistic class geometry.

    Each class is an anisotropic *multi-lobe* mixture (sub-centers
    scattered around a class center drawn from ``N(0, separation^2 I)``)
    contaminated with a small fraction of outlier objects scattered over
    the data span — the non-Gaussian, imperfect class shapes typical of
    the UCI benchmarks this generator stands in for.  ``lobes=1,
    outlier_rate=0`` recovers clean Gaussian blobs.

    Parameters
    ----------
    separation:
        Class-center spread in units of within-class std: the overlap
        knob.
    imbalance:
        Dirichlet concentration for class sizes (large = balanced);
        every class keeps at least two objects.
    lobes:
        Sub-components per class.
    outlier_rate:
        Fraction of each class replaced by broad-scatter outliers
        (kept labeled with their class, as real mislabeled points are).
    """
    check_int_range(n_classes, "n_classes", low=1)
    if check_int_range(n_objects, "n_objects") < 2 * n_classes:
        raise InvalidParameterError(
            f"need n_objects >= 2*n_classes, got n={n_objects}, k={n_classes}"
        )
    check_int_range(n_attributes, "n_attributes", low=1)
    check_positive(separation, "separation")
    check_positive(imbalance, "imbalance", strict=False)
    check_int_range(lobes, "lobes", low=1)
    if check_positive(outlier_rate, "outlier_rate", strict=False) >= 1.0:
        raise InvalidParameterError(
            f"outlier_rate must be in [0, 1), got {outlier_rate}"
        )
    rng = ensure_rng(seed)

    # Class sizes: Dirichlet split with a floor of 2 per class.
    proportions = rng.dirichlet(np.full(n_classes, imbalance))
    sizes = np.maximum(2, np.round(proportions * n_objects).astype(int))
    while sizes.sum() > n_objects:
        sizes[int(np.argmax(sizes))] -= 1
    while sizes.sum() < n_objects:
        sizes[int(np.argmin(sizes))] += 1

    centers = rng.normal(0.0, separation, size=(n_classes, n_attributes))

    points = np.empty((n_objects, n_attributes))
    labels = np.empty(n_objects, dtype=np.int64)
    cursor = 0
    # Single-lobe classes are clean Gaussian blobs: no sub-center jitter
    # and a tighter std range.
    jitter = 1.2 if lobes > 1 else 0.0
    std_low, std_high = (0.4, 1.6) if lobes > 1 else (0.6, 1.4)
    for cls in range(n_classes):
        size = int(sizes[cls])
        sub_centers = centers[cls] + rng.normal(
            0.0, jitter, size=(lobes, n_attributes)
        )
        sub_stds = rng.uniform(std_low, std_high, size=(lobes, n_attributes))
        chosen = rng.integers(0, lobes, size=size)
        samples = rng.normal(sub_centers[chosen], sub_stds[chosen])
        n_outliers = int(round(outlier_rate * size))
        if n_outliers:
            victim = rng.choice(size, n_outliers, replace=False)
            samples[victim] = rng.normal(
                0.0, 1.5 * separation, size=(n_outliers, n_attributes)
            )
        points[cursor : cursor + size] = samples
        labels[cursor : cursor + size] = cls
        cursor += size
    order = rng.permutation(n_objects)
    return points[order], labels[order]


def make_blobs_uncertain(
    n_objects: int = 90,
    n_clusters: int = 3,
    n_attributes: int = 2,
    separation: float = 4.0,
    uncertainty_std: float = 0.4,
    mass: float = 0.95,
    seed: SeedLike = None,
) -> UncertainDataset:
    """Quick uncertain-blob dataset for examples and tests.

    Generates Gaussian blobs and wraps every point as a truncated-Normal
    uncertain object with per-dimension std ``uncertainty_std`` (times a
    random per-object factor in [0.5, 1.5]).  The dataset is held as
    those per-cell pdfs; objects are built only on demand.
    """
    check_int_range(n_clusters, "n_clusters", low=1)
    check_positive(uncertainty_std, "uncertainty_std")
    check_mass(mass)
    rng = ensure_rng(seed)
    points, labels = make_classification_like(
        n_objects=n_objects,
        n_attributes=n_attributes,
        n_classes=n_clusters,
        separation=separation,
        lobes=1,
        outlier_rate=0.0,
        seed=rng,
    )
    factors = rng.uniform(0.5, 1.5, size=n_objects)
    std = np.repeat((uncertainty_std * factors)[:, None], n_attributes, axis=1)
    return _CellPdfs("normal", (points, std), mass).dataset(labels)
