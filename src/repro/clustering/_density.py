"""Pairwise kernels for the density-based and hierarchical algorithms.

FDBSCAN and FOPTICS both reduce the uncertainty between two objects to
statistics of the *matched-pair sampled distances* ``d_ij,s =
||x_i,s - x_j,s||`` over an ``(n, S, m)`` realization tensor:

* FDBSCAN needs ``Pr(d_ij <= eps)`` — the fraction of sample pairs
  within ``eps`` (:func:`pairwise_within_eps_probabilities`);
* FOPTICS needs ``E[d_ij]`` — the mean sampled distance
  (:func:`expected_distance_matrix`).

Both are Theta(n^2 * S * m), as is U-AHC's initial Jeffreys proximity.
All three fill their symmetric ``(n, n)`` matrix through one tile walk,
:func:`symmetric_from_tiles`: square tiles on or below the diagonal
(row block >= column block), each written with its transpose, a
diagonal tile's upper half mirrored from its lower half.  The tile side
comes from a fixed cache-sized element budget divided by the kernel's
temporaries per object pair, so a tile stays L2-resident whatever ``n``
is, and each pair is computed once.  ``block`` pins the side per call.
The two density kernels deliberately differ inside a tile:

* the *probability* kernel expands ``d^2 = |x|^2 + |y|^2 - 2 x.y`` so
  the cross terms run as ``S`` batched GEMMs.  The expansion is
  algebraically identical to differencing but not bit-identical (a few
  ulps); FDBSCAN only ever *thresholds* ``d^2`` against ``eps^2``, so
  its discrete output absorbs that, which the 20-seed label-equivalence
  regression (``tests/test_density_equivalence.py``) pins.  The lower
  triangle is canonical: the assembly adds ``|x|^2`` and ``|y|^2`` in
  row-major order, so ``(i, j)`` and ``(j, i)`` may differ by an ulp,
  and mirroring keeps the reachability graph exactly symmetric.
* the *expected-distance* kernel keeps the difference-based summation,
  because FOPTICS consumes the *continuous* values: its ordering loop
  breaks near-ties by float comparison, so the kernel must be
  bit-identical to the row loop it replaced (also regression-pinned).
  Each entry's reductions (the ``m``-sum of the einsum over a
  C-contiguous difference tile, then the mean over the contiguous
  ``S`` axis) do not depend on the tile's shape, and swapping a pair
  only negates the differences.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from repro._typing import FloatArray
from repro.exceptions import InvalidParameterError

#: Memory cap: target element count of the largest temporary a gathered
#: or capped kernel materializes (a row or pair block), and the ceiling
#: of the tile budget below.  The default, 2**22 doubles, bounds each
#: such temporary to 32 MB; lower it for memory-constrained deployments.
DENSITY_BLOCK_ELEMENTS: int = 2**22

#: Element budget of the temporaries one tile of an all-pairs kernel
#: allocates (:func:`symmetric_from_tiles`): 2**17 doubles (1 MB) keep
#: a tile's working set well inside a core's L2 cache.  Chosen by
#: measurement at Table 2's shapes (n = 150-200, S = 32, m = 4-13),
#: where half or 1.5 times the budget was no faster.  Not a knob —
#: ``block`` pins a tile side per call.
_TILE_ELEMENTS: int = 2**17


def _block_width(per_column: int, n: int, block: Optional[int]) -> int:
    """Column-block width from an explicit pin or the global budget.

    ``per_column`` is the temporary's element count per block column.
    """
    if block is not None:
        if block < 1:
            raise InvalidParameterError(f"block must be >= 1, got {block}")
        return min(int(block), n)
    auto = DENSITY_BLOCK_ELEMENTS // max(1, per_column)
    return max(1, min(n, int(auto)))


def symmetric_from_tiles(
    n: int,
    per_pair: int,
    tile: Callable[[slice, slice], FloatArray],
    block: Optional[int] = None,
) -> FloatArray:
    """``(n, n)`` symmetric matrix filled from its lower-triangle tiles.

    ``tile(rows, cols)`` returns the ``(len(rows), len(cols))`` block of
    entries; it is called only for tiles on or below the diagonal
    (row block >= column block), and each off-diagonal tile is also
    written, transposed, above the diagonal.  A diagonal tile's upper
    half is overwritten with its lower half, so the lower triangle
    determines the result.  The tile side is ``block`` when given, else
    ``isqrt(min(DENSITY_BLOCK_ELEMENTS, _TILE_ELEMENTS) // per_pair)``,
    where ``per_pair`` is the element count of the temporaries ``tile``
    allocates per object pair.  The diagonal is whatever the tiles
    computed there.
    """
    if block is None:
        budget = min(DENSITY_BLOCK_ELEMENTS, _TILE_ELEMENTS)
        side = math.isqrt(budget // max(1, per_pair))
    else:
        side = _block_width(per_pair, n, block)
    side = max(1, min(n, side))
    out = np.empty((n, n))
    for r0 in range(0, n, side):
        rows = slice(r0, min(r0 + side, n))
        for c0 in range(0, r0, side):
            cols = slice(c0, c0 + side)
            values = tile(rows, cols)
            out[rows, cols] = values
            out[cols, rows] = values.T
        values = tile(rows, rows)
        lower = np.tril_indices(len(values), k=-1)
        values.T[lower] = values[lower]
        out[rows, rows] = values
    return out


def pairwise_within_eps_probabilities(
    samples: FloatArray, eps: float, block: Optional[int] = None
) -> FloatArray:
    """``(n, n)`` matrix of ``Pr(||X_i - X_j|| <= eps)`` estimates.

    ``samples`` has shape ``(n, S, m)``; the estimate for a pair is the
    fraction of the ``S`` matched sample pairs within ``eps`` (an
    unbiased MC estimator of the double integral).  The diagonal is
    fixed at 1.  ``block`` pins the tile side of
    :func:`symmetric_from_tiles`.
    """
    n, n_samples, _ = samples.shape
    eps_sq = eps * eps
    # (S, n, m) views: one GEMM per sample index inside each np.matmul.
    by_sample = np.ascontiguousarray(samples.swapaxes(0, 1))
    by_sample_t = np.ascontiguousarray(by_sample.transpose(0, 2, 1))
    sq_norms = np.einsum("snm,snm->sn", by_sample, by_sample)

    def tile(rows: slice, cols: slice) -> FloatArray:
        d2 = by_sample[:, rows, :] @ by_sample_t[:, :, cols]
        d2 *= -2.0
        d2 += sq_norms[:, rows, None]
        d2 += sq_norms[:, None, cols]
        return np.count_nonzero(d2 <= eps_sq, axis=0) / n_samples

    # Per pair: the S-deep d^2 column and its S-deep comparison mask.
    probs = symmetric_from_tiles(n, 2 * n_samples, tile, block)
    np.fill_diagonal(probs, 1.0)
    return probs


def expected_distance_matrix(
    samples: FloatArray, block: Optional[int] = None
) -> FloatArray:
    """``(n, n)`` Monte-Carlo expected Euclidean distances between objects.

    Entry ``(i, j)`` is the mean of the ``S`` matched-pair distances;
    the diagonal is 0.  Bit-identical to the per-row difference loop for
    every tile side — FOPTICS's ordering loop compares these values
    directly, so the kernel must never perturb a near-tie.  ``block``
    pins the tile side of :func:`symmetric_from_tiles`.
    """
    n, n_samples, m = samples.shape

    def tile(rows: slice, cols: slice) -> FloatArray:
        diff = samples[rows, None] - samples[None, cols]
        return np.sqrt(
            np.einsum("rbsm,rbsm->rbs", diff, diff)
        ).mean(axis=2)

    # Per pair: S*m differences, S squared norms and S distances.
    out = symmetric_from_tiles(n, n_samples * (m + 2), tile, block)
    np.fill_diagonal(out, 0.0)
    return out


# ----------------------------------------------------------------------
# Candidate-capped (sub-quadratic-memory) kernels
# ----------------------------------------------------------------------
# The capped density path never materializes an (n, n) matrix: a cheap
# prefilter on the objects' *sample means* produces an explicit
# candidate-pair list, and the exact matched-pair kernels run gathered
# over those pairs only.  For FDBSCAN the prefilter is *correct by the
# triangle inequality*: with r_i the object's sample radius (largest
# sample deviation from its sample mean), every matched sample pair of
# (i, j) satisfies ``||x_is - x_js|| >= ||mu_i - mu_j|| - r_i - r_j``,
# so ``||mu_i - mu_j|| > eps + r_i + r_j`` implies Pr(d_ij <= eps) is
# *exactly zero* — pruned pairs contribute nothing to expected neighbor
# counts or reachability edges.

#: Relative slack added to the candidate-pair threshold so float
#: round-off in the prefilter's own distance arithmetic can only ever
#: admit extra pairs (harmless), never prune a boundary pair.
PREFILTER_RELATIVE_SLACK: float = 1e-9


def sample_radii(samples: FloatArray, block: Optional[int] = None) -> FloatArray:
    """Per-object sample radius ``r_i = max_s ||x_is - mean_s(x_is)||``.

    ``samples`` has shape ``(n, S, m)``.  Computed in row blocks bounded
    by :data:`DENSITY_BLOCK_ELEMENTS` (an ``(B, S, m)`` difference
    temporary per block).
    """
    n, n_samples, m = samples.shape
    width = _block_width(n_samples * m, n, block)
    out = np.empty(n)
    means = samples.mean(axis=1)
    for i0 in range(0, n, width):
        i1 = min(i0 + width, n)
        diff = samples[i0:i1] - means[i0:i1, None, :]
        out[i0:i1] = np.sqrt(
            np.einsum("bsm,bsm->bs", diff, diff)
        ).max(axis=1)
    return out


def eps_candidate_pairs(
    means: FloatArray,
    radii: FloatArray,
    eps: float,
    block: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pairs ``(i < j)`` that can have ``Pr(d_ij <= eps) > 0``.

    A pair survives when ``||mu_i - mu_j|| <= eps + r_i + r_j`` (plus
    :data:`PREFILTER_RELATIVE_SLACK`, so the prefilter errs on the side
    of keeping pairs); every pruned pair has all matched sample
    distances strictly above ``eps`` and hence an exactly-zero
    within-eps probability.  Returns two equal-length int64 index
    arrays, lexicographically ordered.
    """
    n, m = means.shape
    width = _block_width(n * m, n, block)
    ii_parts = []
    jj_parts = []
    for i0 in range(0, n, width):
        i1 = min(i0 + width, n)
        diff = means[i0:i1, None, :] - means[None, :, :]
        dist = np.sqrt(np.einsum("bnm,bnm->bn", diff, diff))
        threshold = eps + radii[i0:i1, None] + radii[None, :]
        threshold += PREFILTER_RELATIVE_SLACK * np.abs(threshold)
        local_i, local_j = np.nonzero(dist <= threshold)
        gi = local_i + i0
        keep = local_j > gi
        ii_parts.append(gi[keep].astype(np.int64))
        jj_parts.append(local_j[keep].astype(np.int64))
    if not ii_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    return np.concatenate(ii_parts), np.concatenate(jj_parts)


def gathered_pair_probabilities(
    samples: FloatArray,
    eps: float,
    ii: np.ndarray,
    jj: np.ndarray,
    block: Optional[int] = None,
) -> FloatArray:
    """``Pr(||X_i - X_j|| <= eps)`` for an explicit pair list.

    Matched-pair Monte-Carlo estimate via the *difference* kernel (not
    the GEMM expansion): ulp-level value differences against the dense
    kernel are absorbed by FDBSCAN's thresholding, exactly the accepted
    hazard class of the dense GEMM kernel itself (both are pinned by
    label-equivalence regressions).
    """
    n_pairs = int(ii.size)
    _, n_samples, m = samples.shape
    eps_sq = eps * eps
    width = _block_width(n_samples * m, max(1, n_pairs), block)
    out = np.empty(n_pairs)
    for p0 in range(0, n_pairs, width):
        p1 = min(p0 + width, n_pairs)
        diff = samples[ii[p0:p1]] - samples[jj[p0:p1]]
        d2 = np.einsum("psm,psm->ps", diff, diff)
        out[p0:p1] = np.count_nonzero(d2 <= eps_sq, axis=1) / n_samples
    return out


def gathered_pair_expected_distances(
    samples: FloatArray,
    ii: np.ndarray,
    jj: np.ndarray,
    block: Optional[int] = None,
) -> FloatArray:
    """Monte-Carlo ``E[||X_i - X_j||]`` for an explicit pair list.

    Bit-identical to the corresponding :func:`expected_distance_matrix`
    entries: the same per-(pair, sample) difference/``m``-reduction and
    the same length-``S`` mean reduction tree, evaluated independently
    per pair — FOPTICS's ordering loop compares these values directly,
    so gathered and dense paths must never disagree on a near-tie.
    """
    n_pairs = int(ii.size)
    _, n_samples, m = samples.shape
    width = _block_width(n_samples * m, max(1, n_pairs), block)
    out = np.empty(n_pairs)
    for p0 in range(0, n_pairs, width):
        p1 = min(p0 + width, n_pairs)
        diff = samples[ii[p0:p1]] - samples[jj[p0:p1]]
        out[p0:p1] = np.sqrt(
            np.einsum("psm,psm->ps", diff, diff)
        ).mean(axis=1)
    return out


def knn_candidate_indices(
    means: FloatArray, k_neighbors: int, block: Optional[int] = None
) -> np.ndarray:
    """``(n, k_neighbors)`` nearest neighbors by sample-mean distance.

    Self-neighbors are excluded.  This is a *candidate selector* for
    the lossy kNN-capped FOPTICS path (selection by expected position
    is not selection by expected distance), so the fast GEMM expansion
    is used; within-row order of the returned indices is unspecified.
    """
    n, m = means.shape
    if not 1 <= k_neighbors <= n - 1:
        raise InvalidParameterError(
            f"k_neighbors must be in [1, n-1] = [1, {n - 1}], got {k_neighbors}"
        )
    width = _block_width(n, n, block)
    sq = np.einsum("nm,nm->n", means, means)
    out = np.empty((n, k_neighbors), dtype=np.int64)
    for i0 in range(0, n, width):
        i1 = min(i0 + width, n)
        dist = sq[i0:i1, None] - 2.0 * (means[i0:i1] @ means.T) + sq[None, :]
        dist[np.arange(i1 - i0), np.arange(i0, i1)] = np.inf
        out[i0:i1] = np.argpartition(dist, k_neighbors - 1, axis=1)[
            :, :k_neighbors
        ]
    return out


def symmetric_csr(
    n: int, ii: np.ndarray, jj: np.ndarray, values: np.ndarray
) -> csr_matrix:
    """``(n, n)`` CSR matrix holding each pair's value at ``(i, j)`` and ``(j, i)``.

    ``(ii, jj, values)`` is an undirected pair list (``i != j``,
    unique).  Every value is stored as given, explicit zeros included,
    and column indices are sorted within each row.
    """
    return csr_matrix(
        (
            np.concatenate([values, values]),
            (np.concatenate([ii, jj]), np.concatenate([jj, ii])),
        ),
        shape=(n, n),
    )


def scattered_row_sums(
    n: int,
    ii: np.ndarray,
    jj: np.ndarray,
    values: FloatArray,
    diagonal: float = 1.0,
    block: Optional[int] = None,
) -> FloatArray:
    """Row sums of a symmetric sparse matrix, bitwise the dense sums.

    ``(ii, jj, values)`` is an undirected pair list (``i < j``, unique);
    absent entries are exact zeros and the diagonal is ``diagonal``.
    A plain scatter-add would accumulate each row in neighbor-count
    order and drift ulps away from the dense ``matrix.sum(axis=1)`` —
    enough to flip an object sitting exactly on FDBSCAN's ``min_pts``
    core threshold.  Instead each block of rows is materialized densely
    (zeros + scattered values) and reduced with NumPy's length-``n``
    pairwise tree, the *same* reduction the dense path applies, so the
    sums are bit-identical whenever the entry values are.
    """
    matrix = symmetric_csr(n, ii, jj, values)
    width = _block_width(n, n, block)
    out = np.empty(n)
    for i0 in range(0, n, width):
        i1 = min(i0 + width, n)
        rows = matrix[i0:i1].toarray()
        rows[np.arange(i1 - i0), np.arange(i0, i1)] = diagonal
        out[i0:i1] = rows.sum(axis=1)
    return out
