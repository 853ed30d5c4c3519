"""Expected-distance machinery (S4).

Three distances from the paper:

* ``ED_d(o, y)`` — expected distance between an uncertain object and a
  deterministic point under an arbitrary point metric ``d``; in general
  it has no closed form and must be Monte-Carlo approximated
  (:func:`expected_distance_mc`).  This is the bottleneck of the *basic*
  UK-means.
* ``ED(o, y)`` — the same with squared Euclidean ``d``, which *does*
  have a closed form (Eq. (8)):
  ``ED(o, y) = ED(o, mu(o)) + ||y - mu(o)||^2``
  where ``ED(o, mu(o)) = sigma^2(o)`` is the object's scalar variance.
* ``ÊD(o, o')`` — squared expected distance between two uncertain
  objects (Eq. (13)); Lemma 3 gives the closed form
  ``sum_j [mu2_j(o) - 2 mu_j(o) mu_j(o') + mu2_j(o')]``
  which equals ``sigma^2(o) + sigma^2(o') + ||mu(o) - mu(o')||^2``.

:func:`pairwise_squared_expected_distances` is the dataset-level ``ÊD``
matrix that :meth:`~repro.objects.dataset.UncertainDataset.pairwise_ed`
builds and caches.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro._typing import FloatArray, PointMetric, SeedLike, VectorLike
from repro.exceptions import InvalidParameterError
from repro.objects.dataset import UncertainDataset
from repro.objects.uncertain_object import UncertainObject
from repro.utils.rng import ensure_rng
from repro.utils.validation import ensure_vector


# ----------------------------------------------------------------------
# Object <-> point
# ----------------------------------------------------------------------
def expected_distance_to_point(obj: UncertainObject, point: VectorLike) -> float:
    """Closed-form ``ED(o, y)`` for the squared Euclidean metric (Eq. (8)).

    ``ED(o, y) = sigma^2(o) + ||mu(o) - y||^2`` — the first term is the
    run-constant part the fast UK-means of [14] precomputes off-line.
    """
    y = ensure_vector(point, "point", dim=obj.dim)
    diff = obj.mu - y
    return obj.total_variance + float(diff @ diff)


def expected_distance_mc(
    obj: UncertainObject,
    point: VectorLike,
    metric: Optional[PointMetric] = None,
    n_samples: int = 256,
    seed: SeedLike = None,
) -> float:
    """Monte-Carlo ``ED_d(o, y)`` for an arbitrary point metric.

    This is the expensive integral the basic UK-means evaluates at every
    assignment; with the default (squared Euclidean) metric it converges
    to :func:`expected_distance_to_point`.

    Parameters
    ----------
    metric:
        Callable ``d(x, y) -> float``; defaults to squared Euclidean.
    n_samples:
        Sample-set cardinality ``S`` in the paper's complexity analysis.
    """
    if n_samples <= 0:
        raise InvalidParameterError(f"n_samples must be > 0, got {n_samples}")
    y = ensure_vector(point, "point", dim=obj.dim)
    samples = obj.sample(n_samples, seed)
    if metric is None:
        diffs = samples - y
        return float(np.einsum("ij,ij->i", diffs, diffs).mean())
    total = 0.0
    for row in samples:
        total += float(metric(row, y))
    return total / n_samples


# ----------------------------------------------------------------------
# Object <-> object (Lemma 3)
# ----------------------------------------------------------------------
def squared_expected_distance(a: UncertainObject, b: UncertainObject) -> float:
    """Closed-form ``ÊD(o, o')`` between two uncertain objects (Lemma 3)."""
    if a.dim != b.dim:
        raise InvalidParameterError(
            f"objects have different dimensionality: {a.dim} vs {b.dim}"
        )
    return float(np.sum(a.mu2 - 2.0 * a.mu * b.mu + b.mu2))


def squared_expected_distance_mc(
    a: UncertainObject,
    b: UncertainObject,
    n_samples: int = 4096,
    seed: SeedLike = None,
) -> float:
    """Monte-Carlo estimate of ``ÊD(o, o')`` from the double integral (Eq. (13)).

    Exists to validate Lemma 3 numerically; production code should use
    :func:`squared_expected_distance`.
    """
    rng = ensure_rng(seed)
    xs = a.sample(n_samples, rng)
    ys = b.sample(n_samples, rng)
    diffs = xs - ys
    return float(np.einsum("ij,ij->i", diffs, diffs).mean())


def pairwise_squared_expected_distances(dataset: UncertainDataset) -> FloatArray:
    """Full ``(n, n)`` matrix of ``ÊD(o_i, o_j)``.

    ``ÊD(o_i, o_j) = sigma^2_i + sigma^2_j + ||mu_i - mu_j||^2`` — note
    the diagonal is ``2 sigma^2_i``, not zero: the expected distance of an
    uncertain object to an independent copy of itself is twice its
    variance.  UK-medoids and the internal validity criteria consume this
    matrix.
    """
    mu = dataset.mu_matrix
    var = dataset.total_variances
    mu_sq = np.einsum("ij,ij->i", mu, mu)
    cross = mu @ mu.T
    dist_sq = mu_sq[:, None] - 2.0 * cross + mu_sq[None, :]
    np.maximum(dist_sq, 0.0, out=dist_sq)
    return dist_sq + var[:, None] + var[None, :]
