"""Dataset container with vectorized moment views.

All partitional algorithms in the paper operate on per-object moment
vectors.  :class:`UncertainDataset` stacks the moments of its objects
into ``(n, m)`` matrices once, so that assignment steps run as numpy
matrix arithmetic instead of per-object Python loops.

A dataset can also be held as columns from the start: deterministic
points and the Section 5.1 generator compute the moment matrices, the
region bounds and the sampling plan array-at-once from per-cell
parameters, and the objects themselves are built only when something
asks for them.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, overload

import numpy as np

from repro._typing import FloatArray, IntArray
from repro.exceptions import (
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidParameterError,
)
from repro.objects.uncertain_object import UncertainObject
from repro.uncertainty.batch import point_mass_plan
from repro.utils.validation import check_finite_array


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
    UK-means/MMVar.  A *columnar* dataset (:meth:`from_points`, the
    :class:`~repro.datagen.uncertainty_gen.UncertaintyGenerator`) holds
    only those views, its region bounds and its sampling plan; it builds
    its objects on first use of :attr:`objects`, iteration or integer
    indexing, and its slices and subsets stay columnar.
    """

    __slots__ = (
        "_objects",
        "_source",
        "_mu",
        "_mu2",
        "_sigma2",
        "_total_var",
        "_labels",
        "_bounds",
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
        mu = np.vstack([obj.mu for obj in objs])
        mu2 = np.vstack([obj.mu2 for obj in objs])
        _check_finite_moments(mu, mu2)
        labelled = all(obj.label is not None for obj in objs)
        self._adopt(
            objects=tuple(objs),
            source=None,
            mu=mu,
            mu2=mu2,
            sigma2=np.vstack([obj.sigma2 for obj in objs]),
            labels=_int_labels([obj.label for obj in objs]) if labelled else None,
        )

    @classmethod
    def _from_columns(cls, mu, mu2, labels, bounds, plan, source) -> "UncertainDataset":
        """A dataset held as columns, its objects built on demand.

        ``mu`` and ``mu2`` are the ``(n, m)`` moment matrices, ``bounds``
        the ``(lower, upper)`` region matrices and ``plan`` the
        :class:`~repro.uncertainty.batch.SamplingPlan`, all computed
        array-at-once with the float operations of the per-object
        constructors, so they equal what stacking the objects gives, bit
        for bit; ``sigma2`` is derived as :class:`UncertainObject` does.
        ``source(labels)`` builds those objects, once, when something
        asks for them, and ``source.take(rows)`` is a subset's source;
        ``source`` is pickled with the dataset, so keep it small.
        """
        if mu.shape[0] == 0:
            raise EmptyDatasetError("a dataset needs at least one object")
        _check_finite_moments(mu, mu2)
        dataset = object.__new__(cls)
        dataset._adopt(
            objects=None,
            source=source,
            mu=mu,
            mu2=mu2,
            sigma2=np.maximum(mu2 - mu**2, 0.0),
            labels=None if labels is None else _int_labels(labels),
            bounds=bounds,
            plan=plan,
        )
        return dataset

    def _adopt(
        self,
        objects,
        source,
        mu,
        mu2,
        sigma2,
        labels,
        bounds=None,
        plan=None,
        pairwise_ed=None,
    ) -> None:
        """Set every slot; the arrays become read-only."""
        self._objects = objects
        self._source = source
        self._mu = mu
        self._mu2 = mu2
        self._sigma2 = sigma2
        self._total_var = sigma2.sum(axis=1)
        self._labels = labels
        self._bounds = bounds
        for arr in (mu, mu2, sigma2, self._total_var, labels, *(bounds or ())):
            if arr is not None:
                arr.setflags(write=False)
        self._sampling_plan = plan
        self._pairwise_ed = pairwise_ed

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._mu.shape[0]

    def __iter__(self) -> Iterator[UncertainObject]:
        return iter(self.objects)

    @overload
    def __getitem__(self, index: int) -> UncertainObject: ...

    @overload
    def __getitem__(self, index: slice) -> "UncertainDataset": ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.subset(range(len(self))[index])
        return self.objects[index]

    def __repr__(self) -> str:
        return f"UncertainDataset(n={len(self)}, dim={self.dim})"

    # ------------------------------------------------------------------
    # Shape / moment views
    # ------------------------------------------------------------------
    @property
    def objects(self) -> tuple[UncertainObject, ...]:
        """The stored objects; a columnar dataset builds them on first use."""
        if self._objects is None:
            self._objects = tuple(self._source(self._labels))
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
    def region_bounds(self) -> Tuple[FloatArray, FloatArray]:
        """Stacked region boxes ``(lower, upper)``, each ``(n, m)``.

        The bounding boxes MinMax-BB and VDBiP prune with; stacked from
        the objects on first use unless the dataset is columnar.
        """
        if self._bounds is None:
            bounds = tuple(
                np.vstack([getattr(obj.region, side) for obj in self.objects])
                for side in ("lower", "upper")
            )
            for bound in bounds:
                bound.setflags(write=False)
            self._bounds = bounds
        return self._bounds

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
        vectorized transforms.  A columnar dataset holds its plan from
        construction.  Deterministic for a fixed ``seed``.
        """
        # Looked up at call time, so the plan builder can be observed.
        from repro.uncertainty.batch import build_sampling_plan

        if self._sampling_plan is None:
            self._sampling_plan = build_sampling_plan(
                [obj.distribution for obj in self.objects]
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
        return self.objects, self._labels

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
        dataset._adopt(
            objects=tuple(objects),
            source=None,
            mu=mu,
            mu2=mu2,
            sigma2=sigma2,
            labels=None if labels is None else np.asarray(labels),
            pairwise_ed=pairwise_ed,
        )
        return dataset

    # ------------------------------------------------------------------
    # Derived datasets
    # ------------------------------------------------------------------
    def subset(self, indices: Iterable[int]) -> "UncertainDataset":
        """Dataset restricted to the given object indices.

        A columnar dataset's subset is columnar too: its rows are
        gathered from the matrices, the plan's parameter columns and the
        object source, and objects already built are shared.
        """
        idx_list = list(indices)
        if not idx_list:
            raise EmptyDatasetError("subset needs at least one index")
        if self._source is None:
            return UncertainDataset([self._objects[i] for i in idx_list])
        rows = np.fromiter(
            map(operator.index, idx_list), dtype=np.intp, count=len(idx_list)
        )
        subset = object.__new__(UncertainDataset)
        subset._adopt(
            objects=(
                None
                if self._objects is None
                else tuple(self._objects[i] for i in idx_list)
            ),
            source=self._source.take(rows),
            mu=self._mu[rows],
            mu2=self._mu2[rows],
            sigma2=self._sigma2[rows],
            labels=None if self._labels is None else self._labels[rows],
            bounds=tuple(bound[rows] for bound in self._bounds),
            plan=self._sampling_plan.take(rows),
        )
        return subset

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
        """Deterministic dataset: one zero-variance object per row.

        Columnar: ``mu`` is the points, ``mu2`` their squares, the
        regions are the points themselves and the plan broadcasts them;
        the point-mass objects are built only on demand.
        """
        pts = np.array(points, dtype=np.float64, order="C")
        if pts.ndim != 2:
            raise InvalidParameterError(
                f"points must be a 2-D matrix, got shape {pts.shape}"
            )
        if labels is not None and len(labels) != pts.shape[0]:
            raise InvalidParameterError("labels length must match points rows")
        check_finite_array(pts, "point")
        return UncertainDataset._from_columns(
            pts,
            pts**2,
            labels,
            bounds=(pts, pts),
            plan=point_mass_plan(pts),
            source=_PointMasses(pts),
        )


class _PointMasses:
    """Object source of :meth:`UncertainDataset.from_points`."""

    __slots__ = ("points",)

    def __init__(self, points: FloatArray):
        self.points = points

    def __call__(self, labels: Optional[IntArray]) -> List[UncertainObject]:
        return [
            UncertainObject.from_point(
                point, label=None if labels is None else int(labels[i])
            )
            for i, point in enumerate(self.points)
        ]

    def take(self, rows: IntArray) -> "_PointMasses":
        return _PointMasses(self.points[rows])


def _int_labels(labels) -> IntArray:
    values = labels.tolist() if isinstance(labels, np.ndarray) else labels
    return np.array([int(label) for label in values])


def _check_finite_moments(mu: FloatArray, mu2: FloatArray) -> None:
    """Raise naming the first object whose ``mu`` or ``mu2`` is not finite."""
    finite = np.isfinite(mu).all(axis=1)
    finite &= np.isfinite(mu2).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise InvalidParameterError(
            f"object {bad} has non-finite moments (mu={mu[bad]}, "
            f"mu2={mu2[bad]}); every mu and mu2 must be finite"
        )
