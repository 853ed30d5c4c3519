"""Dataset container with vectorized moment views.

All partitional algorithms in the paper operate on per-object moment
vectors.  :class:`UncertainDataset` stacks the moments of its objects
into ``(n, m)`` matrices once, so that assignment steps run as numpy
matrix arithmetic instead of per-object Python loops.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, overload

import numpy as np

from repro._typing import FloatArray, IntArray
from repro.exceptions import (
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidParameterError,
)
from repro.objects.uncertain_object import UncertainObject


class UncertainDataset:
    """An immutable, indexable collection of :class:`UncertainObject`.

    Parameters
    ----------
    objects:
        The uncertain objects; all must share one dimensionality, and
        every mean and raw second moment must be finite.

    Notes
    -----
    The stacked views (:attr:`mu_matrix`, :attr:`mu2_matrix`,
    :attr:`sigma2_matrix`, :attr:`total_variances`) are computed eagerly;
    they correspond to the off-line phase of Algorithm 1 (Line 1) and of
    UK-means/MMVar.
    """

    __slots__ = (
        "_objects",
        "_mu",
        "_mu2",
        "_sigma2",
        "_total_var",
        "_labels",
        "_sampling_plan",
        "_pairwise_ed",
    )

    def __init__(self, objects: Sequence[UncertainObject]):
        objs: List[UncertainObject] = list(objects)
        if not objs:
            raise EmptyDatasetError("a dataset needs at least one object")
        dim = objs[0].dim
        for obj in objs:
            if obj.dim != dim:
                raise DimensionMismatchError(
                    "all objects in a dataset must share dimensionality"
                )
        self._objects = tuple(objs)
        self._mu = np.vstack([obj.mu for obj in objs])
        self._mu2 = np.vstack([obj.mu2 for obj in objs])
        finite = np.isfinite(self._mu).all(axis=1)
        finite &= np.isfinite(self._mu2).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise InvalidParameterError(
                f"object {bad} has non-finite moments (mu={self._mu[bad]}, "
                f"mu2={self._mu2[bad]}); every mu and mu2 must be finite"
            )
        self._sigma2 = np.vstack([obj.sigma2 for obj in objs])
        self._total_var = self._sigma2.sum(axis=1)
        for arr in (self._mu, self._mu2, self._sigma2, self._total_var):
            arr.setflags(write=False)
        if all(obj.label is not None for obj in objs):
            self._labels = np.array([int(obj.label) for obj in objs])
            self._labels.setflags(write=False)
        else:
            self._labels = None
        self._sampling_plan = None
        self._pairwise_ed = None

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[UncertainObject]:
        return iter(self._objects)

    @overload
    def __getitem__(self, index: int) -> UncertainObject: ...

    @overload
    def __getitem__(self, index: slice) -> "UncertainDataset": ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return UncertainDataset(self._objects[index])
        return self._objects[index]

    def __repr__(self) -> str:
        return f"UncertainDataset(n={len(self)}, dim={self.dim})"

    # ------------------------------------------------------------------
    # Shape / moment views
    # ------------------------------------------------------------------
    @property
    def objects(self) -> tuple[UncertainObject, ...]:
        """The stored objects."""
        return self._objects

    @property
    def dim(self) -> int:
        """Dimensionality m shared by every object."""
        return self._mu.shape[1]

    @property
    def mu_matrix(self) -> FloatArray:
        """Stacked expected values, shape ``(n, m)``."""
        return self._mu

    @property
    def mu2_matrix(self) -> FloatArray:
        """Stacked raw second moments, shape ``(n, m)``."""
        return self._mu2

    @property
    def sigma2_matrix(self) -> FloatArray:
        """Stacked variance vectors, shape ``(n, m)``."""
        return self._sigma2

    @property
    def total_variances(self) -> FloatArray:
        """Per-object scalar variances (Eq. (6)), shape ``(n,)``."""
        return self._total_var

    @property
    def labels(self) -> Optional[IntArray]:
        """Reference class labels if every object carries one, else None."""
        return self._labels

    @property
    def n_classes(self) -> Optional[int]:
        """Number of distinct reference classes, if labels are present."""
        if self._labels is None:
            return None
        return int(np.unique(self._labels).size)

    # ------------------------------------------------------------------
    # Batched sampling
    # ------------------------------------------------------------------
    def sample_tensor(self, n_samples: int, seed=None) -> FloatArray:
        """One ``(n, S, m)`` realization tensor for the whole dataset.

        This is the vectorized off-line phase of the sample-based
        algorithms: marginal cells are grouped by distribution family
        and drawn with one quantile transform per family (see
        :mod:`repro.uncertainty.batch`) instead of ``n`` Python-level
        ``sample`` calls.  The grouping plan is compiled lazily on
        first use and cached (the dataset is immutable), so repeated
        draws — multi-restart runs, per-seed experiments — pay only the
        vectorized transforms.  Deterministic for a fixed ``seed``.
        """
        from repro.uncertainty.batch import build_sampling_plan

        if self._sampling_plan is None:
            self._sampling_plan = build_sampling_plan(
                [obj.distribution for obj in self._objects]
            )
        return self._sampling_plan.sample(n_samples, seed)

    # ------------------------------------------------------------------
    # Pairwise-distance plane
    # ------------------------------------------------------------------
    def pairwise_ed(self) -> FloatArray:
        """The ``(n, n)`` ``ÊD`` matrix, computed once and cached.

        This is the off-line phase of UK-medoids (Lemma 3) lifted to the
        dataset, mirroring the moment matrices and the sampling plan:
        the matrix is deterministic for an immutable dataset, so this is
        the one place it is built and kept.  Every consumer — UK-medoids
        and U-AHC's ``"ed"`` linkage (direct fits, engine restarts on
        every backend), the internal validity criteria, the
        Case-1/Case-2 protocol — reads this one read-only copy instead
        of rebuilding the O(n^2 m) matrix per use.  Computed lazily on
        first call (it is O(n^2) memory, and the moment-based algorithms
        never need it).
        """
        from repro.objects.distance import pairwise_squared_expected_distances

        if self._pairwise_ed is None:
            matrix = pairwise_squared_expected_distances(self)
            matrix.setflags(write=False)
            self._pairwise_ed = matrix
        return self._pairwise_ed

    # ------------------------------------------------------------------
    # Shared-memory reconstruction (process execution backend)
    # ------------------------------------------------------------------
    def _moment_free_state(self):
        """The picklable state minus the stacked moment matrices.

        The process execution backend ships this small tuple to workers
        and publishes the ``(n, m)`` matrices through shared memory
        instead — see :meth:`_from_shared_moments`.
        """
        return self._objects, self._labels

    @classmethod
    def _from_shared_moments(
        cls, objects, labels, mu, mu2, sigma2, pairwise_ed=None
    ) -> "UncertainDataset":
        """Rebuild a dataset around externally provided moment views.

        Counterpart of :meth:`_moment_free_state`: the matrices — and
        the parent's :meth:`pairwise_ed` matrix when one is given — are
        adopted as-is (typically read-only views over shared-memory
        blocks) instead of being restacked from the objects, so worker
        processes pay neither the pickling nor the recomputation cost.
        """
        dataset = object.__new__(cls)
        dataset._objects = tuple(objects)
        dataset._mu = mu
        dataset._mu2 = mu2
        dataset._sigma2 = sigma2
        total_var = sigma2.sum(axis=1)
        total_var.setflags(write=False)
        dataset._total_var = total_var
        if labels is not None:
            labels = np.asarray(labels)
            labels.setflags(write=False)
        dataset._labels = labels
        dataset._sampling_plan = None
        dataset._pairwise_ed = pairwise_ed
        return dataset

    # ------------------------------------------------------------------
    # Derived datasets
    # ------------------------------------------------------------------
    def subset(self, indices: Iterable[int]) -> "UncertainDataset":
        """Dataset restricted to the given object indices."""
        idx_list = list(indices)
        if not idx_list:
            raise EmptyDatasetError("subset needs at least one index")
        return UncertainDataset([self._objects[i] for i in idx_list])

    def sample_fraction(
        self,
        fraction: float,
        seed=None,
        stratified: bool = True,
    ) -> "UncertainDataset":
        """Random subset holding ``fraction`` of the objects.

        Used by the scalability study (Figure 5), which varies the
        dataset size from 5% to 100% while ensuring every class remains
        represented — hence ``stratified=True`` by default.
        """
        from repro.utils.rng import ensure_rng

        if not (0.0 < fraction <= 1.0):
            raise InvalidParameterError(
                f"fraction must be in (0, 1], got {fraction}"
            )
        if fraction == 1.0:
            return self
        rng = ensure_rng(seed)
        n = len(self)
        if stratified and self._labels is not None:
            chosen: List[int] = []
            for cls in np.unique(self._labels):
                members = np.flatnonzero(self._labels == cls)
                take = max(1, int(round(fraction * members.size)))
                chosen.extend(
                    rng.choice(members, size=min(take, members.size), replace=False)
                )
            chosen.sort()
            return self.subset(chosen)
        take = max(1, int(round(fraction * n)))
        chosen = np.sort(rng.choice(n, size=take, replace=False))
        return self.subset(chosen.tolist())

    @staticmethod
    def from_points(
        points: np.ndarray, labels: Optional[Sequence[int]] = None
    ) -> "UncertainDataset":
        """Deterministic dataset: one zero-variance object per row."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise InvalidParameterError(
                f"points must be a 2-D matrix, got shape {pts.shape}"
            )
        if labels is not None and len(labels) != pts.shape[0]:
            raise InvalidParameterError("labels length must match points rows")
        objects = [
            UncertainObject.from_point(
                pts[i], label=None if labels is None else int(labels[i])
            )
            for i in range(pts.shape[0])
        ]
        return UncertainDataset(objects)
