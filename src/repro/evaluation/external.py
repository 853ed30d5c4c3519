"""External cluster-validity criteria (S17).

The paper's accuracy experiments use the F-measure of Section 5.1:

    F(C, C~) = (1/|D|) * sum_u |C~_u| * max_v F_uv,

with per-(class, cluster) precision ``P_uv = |C_v ∩ C~_u| / |C_v|`` and
recall ``R_uv = |C_v ∩ C~_u| / |C~_u|``.  Noise objects (label -1, from
density-based methods) form their own singleton-like cluster bucket so
that every object participates, mirroring the treatment of unassigned
objects as a residual group.

Purity, NMI and ARI are provided as supplementary criteria (not in the
paper's tables, useful for downstream users and ablations).
"""

from __future__ import annotations

import numpy as np

from repro._typing import IntArray
from repro.exceptions import InvalidParameterError


def _check_labelings(predicted: np.ndarray, reference: np.ndarray) -> tuple:
    predicted = np.asarray(predicted, dtype=np.int64)
    reference = np.asarray(reference, dtype=np.int64)
    if predicted.shape != reference.shape or predicted.ndim != 1:
        raise InvalidParameterError(
            "predicted and reference labelings must be 1-D arrays of equal length"
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


def purity(predicted: np.ndarray, reference: np.ndarray) -> float:
    """Fraction of objects in their cluster's majority class."""
    table = contingency_matrix(predicted, reference)
    return float(table.max(axis=0).sum() / table.sum())


def normalized_mutual_information(
    predicted: np.ndarray, reference: np.ndarray
) -> float:
    """NMI with arithmetic-mean normalization, in [0, 1]."""
    table = contingency_matrix(predicted, reference).astype(np.float64)
    n = table.sum()
    joint = table / n
    p_class = joint.sum(axis=1)
    p_cluster = joint.sum(axis=0)
    mutual = 0.0
    for u in range(table.shape[0]):
        for v in range(table.shape[1]):
            if joint[u, v] > 0.0:
                mutual += joint[u, v] * np.log(
                    joint[u, v] / (p_class[u] * p_cluster[v])
                )

    def entropy(p: np.ndarray) -> float:
        nz = p[p > 0.0]
        return float(-(nz * np.log(nz)).sum())

    h_class = entropy(p_class)
    h_cluster = entropy(p_cluster)
    denom = 0.5 * (h_class + h_cluster)
    if denom == 0.0:
        return 1.0 if mutual == 0.0 else 0.0
    return float(np.clip(mutual / denom, 0.0, 1.0))


def adjusted_rand_index(predicted: np.ndarray, reference: np.ndarray) -> float:
    """Adjusted Rand index in [-1, 1] (1 = identical partitions)."""
    table = contingency_matrix(predicted, reference).astype(np.float64)
    n = table.sum()

    def comb2(x: np.ndarray) -> np.ndarray:
        return x * (x - 1.0) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(np.array([n]))[0]
    expected = sum_rows * sum_cols / total if total > 0 else 0.0
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0 if sum_cells == expected else 0.0
    return float((sum_cells - expected) / (max_index - expected))
