"""External cluster-validity criteria (S17).

The paper's accuracy experiments use the F-measure of Section 5.1:

    F(C, C~) = (1/|D|) * sum_u |C~_u| * max_v F_uv,

with per-(class, cluster) precision ``P_uv = |C_v ∩ C~_u| / |C_v|`` and
recall ``R_uv = |C_v ∩ C~_u| / |C~_u|``.  Noise objects (label -1, from
density-based methods) form their own singleton-like cluster bucket so
that every object participates, mirroring the treatment of unassigned
objects as a residual group.
"""

from __future__ import annotations

import numpy as np

from repro._typing import IntArray
from repro.exceptions import InvalidParameterError
from repro.utils.validation import ensure_labels


def _check_labelings(predicted: np.ndarray, reference: np.ndarray) -> tuple:
    predicted = ensure_labels(predicted)
    reference = ensure_labels(reference)
    if predicted.shape != reference.shape:
        raise InvalidParameterError(
            "predicted and reference labelings must have equal length"
        )
    if predicted.size == 0:
        raise InvalidParameterError("labelings must be non-empty")
    if np.any(reference < 0):
        raise InvalidParameterError("reference labels must be nonnegative")
    return predicted, reference


def contingency_matrix(predicted: np.ndarray, reference: np.ndarray) -> IntArray:
    """Counts ``N[u, v] = |C_v ∩ C~_u|`` (classes on rows, clusters on columns).

    Rows and columns follow the sorted ids, so noise labels (-1) in
    ``predicted`` get their own column (the first) and every object is
    counted.
    """
    predicted, reference = _check_labelings(predicted, reference)
    classes, class_of = np.unique(reference, return_inverse=True)
    clusters, cluster_of = np.unique(predicted, return_inverse=True)
    cells = np.bincount(
        class_of * clusters.size + cluster_of, minlength=classes.size * clusters.size
    )
    return cells.reshape(classes.size, clusters.size).astype(np.int64, copy=False)


def f_measure(predicted: np.ndarray, reference: np.ndarray) -> float:
    """The paper's F-measure ``F(C, C~)`` in [0, 1] (higher is better)."""
    table = contingency_matrix(predicted, reference)
    n = int(table.sum())
    class_sizes = table.sum(axis=1).astype(np.float64)  # |C~_u|
    cluster_sizes = table.sum(axis=0).astype(np.float64)  # |C_v|
    score = 0.0
    for u in range(table.shape[0]):
        best = 0.0
        for v in range(table.shape[1]):
            overlap = float(table[u, v])
            if overlap == 0.0 or cluster_sizes[v] == 0.0:
                continue
            precision = overlap / cluster_sizes[v]
            recall = overlap / class_sizes[u]
            best = max(best, 2.0 * precision * recall / (precision + recall))
        score += class_sizes[u] * best
    return score / n

