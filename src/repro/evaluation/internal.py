"""Internal cluster-validity criteria (S18).

Section 5.1 of the paper defines, for a clustering ``C`` of uncertain
objects, the average intra-cluster distance

    intra(C) = (1/|C|) sum_C [ 1/(|C|(|C|-1)) sum_{o != o' in C} ÊD(o, o') ]

and the average inter-cluster distance

    inter(C) = (1/(|C|(|C|-1))) sum_{C != C'} [ 1/(|C||C'|)
               sum_{o in C} sum_{o' in C'} ÊD(o, o') ],

both normalized into [0, 1] before being combined into the quality score
``Q(C) = inter(C) - intra(C) ∈ [-1, 1]`` (higher is better).

Normalization divides by the maximum pairwise ÊD over the dataset, which
maps both averages into [0, 1] while preserving their ordering across
clusterings of the same data.  Noise objects (label -1) either form one
residual cluster or are excluded (``noise_policy``).  Singleton clusters
have no intra term and are left out of the intra average.

Both averages are computed in closed form.  By Lemma 2, ``ÊD(o, o') =
||mu_o - mu_o'||^2 + sigma^2_o + sigma^2_o'``, so every block sum
follows from four sums per cluster ``C`` — the device UCPC uses for J
(Theorem 3): its size ``n_C``, its mean ``m_C``, ``SS_C = sum_{o in C}
||mu_o - m_C||^2`` and ``V_C = sum_{o in C} sigma^2_o``.  Then

    intra_C = 2 SS_C / (n_C - 1) + 2 V_C / n_C
    inter   = [2k sum_C ||m_C - m||^2 + 2(k - 1) sum_C (SS_C + V_C) / n_C]
              / (k(k - 1))

with ``m`` the unweighted mean of the ``k`` cluster means: O(n·m) work
and memory, and the ``(n, n)`` matrix of
:meth:`~repro.objects.dataset.UncertainDataset.pairwise_ed` is read for
its maximum only.  ÊD is translation invariant, so the scored objects'
means are first centred at their own mean; every rounding is then
relative to the data's spread, not to its distance from the origin.
Normalized intra, inter and Q stay within ``1e-14`` of the definition
evaluated in exact arithmetic over the same float moments and maximum
(``tests/test_internal.py`` checks this at mean offsets up to 1e6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.objects.dataset import UncertainDataset
from repro.utils.validation import ensure_labels


@dataclass(frozen=True)
class InternalScores:
    """Intra / inter / Q values of one clustering."""

    intra: float
    inter: float

    @property
    def quality(self) -> float:
        """``Q = inter - intra`` (Section 5.1), in [-1, 1]."""
        return self.inter - self.intra


def internal_scores(
    dataset: UncertainDataset,
    labels: np.ndarray,
    *,
    noise_policy: str = "residual",
) -> InternalScores:
    """Compute the paper's normalized intra/inter criteria.

    Parameters
    ----------
    dataset:
        The clustered objects; its cached ``ÊD`` matrix
        (:meth:`~repro.objects.dataset.UncertainDataset.pairwise_ed`)
        gives the normalizing maximum.
    labels:
        Cluster label per object; -1 marks noise.
    noise_policy:
        ``"residual"`` (default) — noise objects form one residual
        cluster, mirroring the F-measure's treatment, so an algorithm
        cannot inflate Q by declaring awkward objects noise;
        ``"exclude"`` — noise objects are dropped from the evaluation.
    """
    if noise_policy not in ("residual", "exclude"):
        raise InvalidParameterError(
            f"noise_policy must be 'residual' or 'exclude', got {noise_policy!r}"
        )
    n = len(dataset)
    labels = ensure_labels(labels)
    if labels.shape != (n,):
        raise InvalidParameterError(
            f"labels must be 1-D with one entry per object ({n}), "
            f"got shape {labels.shape}"
        )
    if noise_policy == "residual" and np.any(labels < 0):
        labels[labels < 0] = labels.max() + 1

    max_dist = float(dataset.pairwise_ed().max())
    scored = np.flatnonzero(labels >= 0)
    if max_dist <= 0.0 or scored.size == 0:
        return InternalScores(intra=0.0, inter=0.0)
    # Scored objects by cluster (ascending id), each cluster's members in
    # ascending index order: cluster a is rows starts[a]:starts[a + 1].
    order = scored[np.argsort(labels[scored], kind="stable")]
    _, starts, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    k = sizes.size

    mu = dataset.mu_matrix[order]
    mu -= mu.mean(axis=0)
    means = np.add.reduceat(mu, starts) / sizes[:, None]
    mu -= np.repeat(means, sizes, axis=0)
    spread = np.add.reduceat(np.einsum("ij,ij->i", mu, mu), starts)
    variance = np.add.reduceat(dataset.total_variances[order], starts)

    # Singleton clusters have an undefined (0/0) intra term in the
    # paper's formula; they are excluded from the average rather than
    # counted as zero — counting them as zero would let a clustering
    # inflate Q by shedding singletons.
    multi = sizes > 1
    intra_terms = (2.0 * spread[multi] / (sizes[multi] - 1)
                   + 2.0 * variance[multi] / sizes[multi])
    intra = intra_terms.mean() / max_dist if intra_terms.size else 0.0
    inter = 0.0
    if k > 1:
        centred = means - means.mean(axis=0)
        between = np.einsum("ij,ij->", centred, centred)
        within = ((spread + variance) / sizes).sum()
        inter = (2 * k * between + 2 * (k - 1) * within) / (k * (k - 1)) / max_dist
    return InternalScores(intra=float(np.clip(intra, 0.0, 1.0)),
                          inter=float(np.clip(inter, 0.0, 1.0)))


def quality_score(dataset: UncertainDataset, labels: np.ndarray) -> float:
    """Shorthand for ``internal_scores(...).quality``."""
    return internal_scores(dataset, labels).quality
