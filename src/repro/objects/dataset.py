"""Dataset container: moment columns plus one source record.

All partitional algorithms in the paper operate on per-object moment
vectors.  :class:`UncertainDataset` holds the moments of its objects as
``(n, m)`` matrices, so that assignment steps run as numpy matrix
arithmetic instead of per-object Python loops.

Every dataset has one layout: those matrices, its labels, and one small
picklable *source* record that alone knows how to build the objects,
the region bounds and the sampling plan, and how to take rows:

* :class:`_Objects` wraps the objects of ``UncertainDataset(objects)``;
* :class:`_PointMasses` holds the points of :meth:`from_points`;
* :class:`_CellPdfs` holds every cell's pdf as the arguments of its
  per-cell constructor (the Section 5.1 generator, the blob, microarray
  and moving-object generators).  Its moments, region bounds and
  sampling-plan parameters are computed as ``(n, m)`` arrays with the
  float operations of those constructors, bit for bit.

Objects, region bounds and the sampling plan are derived from the
source on first use and cached, so a generated dataset builds an
:class:`UncertainObject` only when something asks for one.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    overload,
)

import numpy as np
from scipy.special import ndtr, ndtri

from repro._typing import FloatArray, IntArray
from repro.exceptions import EmptyDatasetError, InvalidParameterError
from repro.objects.uncertain_object import UncertainObject, objects_dim
from repro.uncertainty import batch
from repro.uncertainty.base import UnivariateDistribution
from repro.uncertainty.batch import family_plan, point_mass_plan
from repro.uncertainty.exponential import TruncatedExponentialDistribution
from repro.uncertainty.normal import TruncatedNormalDistribution, _phi
from repro.uncertainty.product import IndependentProduct
from repro.uncertainty.uniform import UniformDistribution
from repro.utils.validation import check_finite_array, check_mass, ensure_labels


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
    UK-means/MMVar.  Everything else — the objects, the region bounds,
    the sampling plan, the ``ÊD`` matrix — is derived on first use and
    cached.  A generated dataset (:meth:`from_points`, the generators of
    :mod:`repro.datagen`) builds its objects only on first use of
    :attr:`objects`, iteration or integer indexing, and its slices and
    subsets gather rows without building them.
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
        objs = tuple(objects)
        objects_dim(objs)
        labelled = all(obj.label is not None for obj in objs)
        self._adopt(
            _Objects(objs),
            np.vstack([obj.mu for obj in objs]),
            np.vstack([obj.mu2 for obj in objs]),
            [obj.label for obj in objs] if labelled else None,
        )

    @classmethod
    def _from_source(cls, source, mu, mu2, labels, **cached) -> "UncertainDataset":
        """A dataset of ``source``'s objects, held as its moment matrices.

        ``mu`` and ``mu2`` must equal what stacking the source's objects
        gives, bit for bit; ``cached`` pre-fills slots of :meth:`_adopt`
        that would otherwise be derived on first use.
        """
        dataset = object.__new__(cls)
        dataset._adopt(source, mu, mu2, labels, **cached)
        return dataset

    def _adopt(
        self,
        source,
        mu: FloatArray,
        mu2: FloatArray,
        labels,
        sigma2: Optional[FloatArray] = None,
        objects: Optional[tuple] = None,
        bounds: Optional[Tuple[FloatArray, FloatArray]] = None,
        plan: Optional[batch.SamplingPlan] = None,
        pairwise_ed: Optional[FloatArray] = None,
    ) -> None:
        """The one constructor: check the moments, set every slot.

        ``sigma2`` is derived as :class:`UncertainObject` derives it
        unless given; the arrays become read-only.
        """
        if mu.shape[0] == 0:
            raise EmptyDatasetError("a dataset needs at least one object")
        _check_finite_moments(mu, mu2)
        if sigma2 is None:
            sigma2 = np.maximum(mu2 - mu**2, 0.0)
        self._source = source
        self._mu = mu
        self._mu2 = mu2
        self._sigma2 = sigma2
        self._total_var = sigma2.sum(axis=1)
        self._labels = None if labels is None else ensure_labels(labels)
        _read_only(mu, mu2, sigma2, self._total_var, self._labels)
        self._objects = objects
        self._bounds = None if bounds is None else _read_only(*bounds)
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
        """The objects, built from the source on first use."""
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

        The bounding boxes MinMax-BB and VDBiP prune with; derived from
        the source on first use.
        """
        if self._bounds is None:
            self._bounds = _read_only(*self._source.region_bounds())
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
        and drawn with one call of the family's ``quantile`` (see
        :mod:`repro.uncertainty.batch`) instead of ``n`` Python-level
        ``sample`` calls.  The grouping plan is derived from the source
        on first use and cached (the dataset is immutable), so repeated
        draws — multi-restart runs, per-seed experiments — pay only the
        vectorized transforms.  Deterministic for a fixed ``seed``.
        """
        if self._sampling_plan is None:
            self._sampling_plan = self._source.sampling_plan()
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

        The process execution backend ships this ``(source, labels)``
        pair to its workers, which rebuild the dataset with
        :meth:`_from_source` around the moment matrices (and the
        :meth:`pairwise_ed` matrix) it publishes through shared memory.
        Only the source of ``UncertainDataset(objects)`` holds objects.
        """
        return self._source, self._labels

    # ------------------------------------------------------------------
    # Derived datasets
    # ------------------------------------------------------------------
    def subset(self, indices: Iterable[int]) -> "UncertainDataset":
        """Dataset restricted to the given object indices.

        Indices are integers in ``[-n, n)``.  Rows are gathered from the
        matrices, the labels and the source; objects and region bounds
        already built are shared, and the subset derives its sampling
        plan from its own source.
        """
        n = len(self)
        try:
            rows = np.array(list(map(operator.index, indices)), dtype=np.intp)
        except (TypeError, OverflowError) as exc:
            raise InvalidParameterError(f"subset indices must be integers: {exc}") from None
        if not rows.size:
            raise EmptyDatasetError("subset needs at least one index")
        outside = (rows < -n) | (rows >= n)
        if outside.any():
            raise InvalidParameterError(
                f"subset indices must be in [{-n}, {n}), got {rows[outside][0]}"
            )
        return UncertainDataset._from_source(
            self._source.take(rows),
            self._mu[rows],
            self._mu2[rows],
            None if self._labels is None else self._labels[rows],
            sigma2=self._sigma2[rows],
            objects=(
                None
                if self._objects is None
                else tuple(self._objects[i] for i in rows)
            ),
            bounds=(
                None
                if self._bounds is None
                else tuple(bound[rows] for bound in self._bounds)
            ),
        )

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

        check_mass(fraction, "fraction")
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

        ``mu`` is the points, ``mu2`` their squares, the regions are the
        points themselves and the plan broadcasts them; the point-mass
        objects are built only on demand.
        """
        pts = np.array(points, dtype=np.float64, order="C")
        if pts.ndim != 2:
            raise InvalidParameterError(
                f"points must be a 2-D matrix, got shape {pts.shape}"
            )
        if labels is not None and ensure_labels(labels).size != pts.shape[0]:
            raise InvalidParameterError("labels length must match points rows")
        check_finite_array(pts, "point")
        return UncertainDataset._from_source(_PointMasses(pts), pts, pts**2, labels)


# ----------------------------------------------------------------------
# Sources: the picklable records a dataset derives everything else from
# ----------------------------------------------------------------------
class _Objects:
    """Source of ``UncertainDataset(objects)``: the objects themselves."""

    __slots__ = ("objects",)

    def __init__(self, objects: Tuple[UncertainObject, ...]):
        self.objects = objects

    def __call__(self, labels: Optional[IntArray]) -> Tuple[UncertainObject, ...]:
        return self.objects

    def take(self, rows: IntArray) -> "_Objects":
        return _Objects(tuple(self.objects[i] for i in rows))

    def region_bounds(self) -> Tuple[FloatArray, FloatArray]:
        lower = np.vstack([obj.region.lower for obj in self.objects])
        upper = np.vstack([obj.region.upper for obj in self.objects])
        return lower, upper

    def sampling_plan(self) -> batch.SamplingPlan:
        # Looked up at call time, so the plan builder can be observed.
        return batch.build_sampling_plan([obj.distribution for obj in self.objects])


class _PointMasses:
    """Source of :meth:`UncertainDataset.from_points`."""

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

    def region_bounds(self) -> Tuple[FloatArray, FloatArray]:
        return self.points, self.points

    def sampling_plan(self) -> batch.SamplingPlan:
        return point_mass_plan(self.points)


@dataclass(frozen=True)
class _CellPdfs:
    """Every cell's pdf, as the arguments of its constructor.

    Cell ``(i, j)``'s marginal is ``_MAKERS[family](*(a[i, j] for a in
    args), mass=mass)``; ``args`` are ``(n, m)`` arrays.  This small
    picklable record is the source of a generated dataset: it builds
    the objects with the per-cell constructors only when the dataset is
    asked for them, and its region bounds and sampling plan as columns.
    """

    family: str
    args: Tuple[FloatArray, ...]
    mass: float

    def marginals(self) -> List[List[UnivariateDistribution]]:
        """Every cell's marginal, one list per point."""
        make = functools.partial(_MAKERS[self.family], mass=self.mass)
        return [
            list(map(make, *row)) for row in zip(*(a.tolist() for a in self.args))
        ]

    def __call__(self, labels: Optional[IntArray]) -> List[UncertainObject]:
        return [
            UncertainObject(
                IndependentProduct(row),
                label=None if labels is None else int(labels[i]),
            )
            for i, row in enumerate(self.marginals())
        ]

    def take(self, rows: IntArray) -> "_CellPdfs":
        return _CellPdfs(self.family, tuple(a[rows] for a in self.args), self.mass)

    def region_bounds(self) -> Tuple[FloatArray, FloatArray]:
        columns = self._columns()
        return columns.lower, columns.upper

    def sampling_plan(self) -> batch.SamplingPlan:
        columns = self._columns()
        return family_plan(columns.family, columns.params)

    def _columns(self) -> "_Columns":
        with np.errstate(all="ignore"):
            return _COLUMNS[self.family](*self.args, self.mass)

    def dataset(self, labels) -> UncertainDataset:
        """The dataset of these cells, without building a distribution
        object.

        Raises, eagerly, every error the per-cell constructors raise:
        ``mass`` is checked once, and when any cell fails their checks,
        the cells are built one by one so the first failing cell raises
        its own error.
        """
        check_mass(self.mass)
        columns = self._columns()
        if columns.invalid.any():
            self.marginals()
        return UncertainDataset._from_source(
            self,
            columns.mean,
            columns.second,
            labels,
            bounds=(columns.lower, columns.upper),
            plan=family_plan(columns.family, columns.params),
        )


def _uniform(lower: float, upper: float, mass: float) -> UniformDistribution:
    return UniformDistribution(lower, upper)


def _normal(loc: float, scale: float, mass: float) -> TruncatedNormalDistribution:
    return TruncatedNormalDistribution.central_mass(loc, scale, mass)


def _exponential(
    mean: float, rate: float, direction: float, mass: float
) -> TruncatedExponentialDistribution:
    return TruncatedExponentialDistribution.with_mean(
        mean, rate, direction=int(direction), mass=mass
    )


_MAKERS: dict = {
    "uniform": _uniform,
    "normal": _normal,
    "exponential": _exponential,
}


class _Columns(NamedTuple):
    """A family's per-cell results as ``(n, m)`` arrays."""

    mean: FloatArray
    second: FloatArray
    lower: FloatArray
    upper: FloatArray
    #: The family and its cells' ``quantile_params``, for the plan.
    family: type
    params: Tuple[FloatArray, ...]
    #: Cells whose constructor would raise.
    invalid: np.ndarray


# Each ``*_columns`` function below is its constructor (named in its
# docstring) applied to every cell at once: numpy runs the elementwise
# IEEE operations in the constructor's order, and the calls whose numpy
# versions may round differently — Python's ``x**2`` (libm ``pow``,
# which is not ``x*x``), ``math.exp``, ``math.expm1`` — run per cell.
def _uniform_columns(lower, upper, mass) -> _Columns:
    """``UniformDistribution(lower, upper)``."""
    return _Columns(
        mean=0.5 * (lower + upper),
        second=(lower * lower + lower * upper + upper * upper) / 3.0,
        lower=lower,
        upper=upper,
        family=UniformDistribution,
        params=(lower, upper - lower),
        invalid=~(np.isfinite(lower) & np.isfinite(upper)) | (lower > upper),
    )


def _normal_columns(loc, scale, mass) -> _Columns:
    """``TruncatedNormalDistribution.central_mass(loc, scale, mass)``."""
    if mass == 1.0:
        lower = np.full(loc.shape, -np.inf)
        upper = np.full(loc.shape, np.inf)
    else:
        half = float(ndtri(0.5 + mass / 2.0)) * scale
        lower, upper = loc - half, loc + half
    alpha = (lower - loc) / scale
    beta = (upper - loc) / scale
    # At alpha = -inf and beta = +inf, ndtr and _phi give exactly the
    # constructor's fallbacks (0.0 / 1.0 and 0.0).
    cdf_alpha = ndtr(alpha)
    z_mass = ndtr(beta) - cdf_alpha
    phi_alpha = _phi(alpha)
    phi_beta = _phi(beta)
    alpha_term = np.where(phi_alpha > 0.0, alpha * phi_alpha, 0.0)
    beta_term = np.where(phi_beta > 0.0, beta * phi_beta, 0.0)
    delta = (phi_alpha - phi_beta) / z_mass
    mean = loc + scale * delta
    bracket = 1.0 + (alpha_term - beta_term) / z_mass - delta * delta
    # Python's max(bracket, 0.0): 0.0 only when strictly greater.
    variance = scale * scale * np.where(0.0 > bracket, 0.0, bracket)
    return _Columns(
        mean=mean,
        second=variance + _squares(mean),
        lower=lower,
        upper=upper,
        family=TruncatedNormalDistribution,
        params=(loc, scale, lower, upper, cdf_alpha, z_mass),
        invalid=(
            ~np.isfinite(loc)
            | ~(np.isfinite(scale) & (scale > 0))
            | (lower >= upper)
            | (z_mass <= 0.0)
        ),
    )


def _exponential_columns(mean, rate, direction, mass) -> _Columns:
    """``TruncatedExponentialDistribution.with_mean(mean, rate,
    direction, mass)``."""
    origin = mean - direction / rate
    if mass == 1.0:
        cutoff = np.full(rate.shape, np.inf)
    else:
        cutoff = -math.log(1.0 - mass) / rate
    # The captured mass and _truncated_exp_moments, per cell: an
    # infinite cutoff takes the closed forms of the untruncated pdf.
    infinite = np.isinf(cutoff)
    lam_c = rate * cutoff
    captured = -_per_cell(math.expm1, -lam_c)
    tail_ratio = _per_cell(math.exp, -lam_c) / captured
    t_mean = np.where(infinite, 1.0 / rate, 1.0 / rate - cutoff * tail_ratio)
    t_second = np.where(
        infinite,
        2.0 / (rate * rate),
        2.0 / (rate * rate) - (cutoff * cutoff + 2.0 * cutoff / rate) * tail_ratio,
    )
    upward = direction == 1.0
    return _Columns(
        mean=origin + direction * t_mean,
        # E[X^2] = origin^2 + 2*origin*d*E[T] + E[T^2]
        second=origin * origin + 2.0 * origin * direction * t_mean + t_second,
        lower=np.where(upward, origin, origin - cutoff),
        upper=np.where(upward, origin + cutoff, origin),
        family=TruncatedExponentialDistribution,
        params=(origin, rate, direction, cutoff, np.where(infinite, 1.0, captured)),
        invalid=(
            ~np.isfinite(origin)
            | ~(np.isfinite(rate) & (rate > 0))
            | (cutoff <= 0)
        ),
    )


_COLUMNS: dict = {
    "uniform": _uniform_columns,
    "normal": _normal_columns,
    "exponential": _exponential_columns,
}


def _per_cell(fn: Callable[[float], float], values: FloatArray) -> FloatArray:
    """``fn`` on each cell as a Python float."""
    cells = list(map(fn, values.ravel().tolist()))
    return np.array(cells, dtype=np.float64).reshape(values.shape)


def _squares(values: FloatArray) -> FloatArray:
    """Python's ``x**2`` (libm ``pow``, not ``x*x``) per cell."""
    cells = values.ravel().tolist()
    try:
        squares = list(map(pow, cells, repeat(2)))
    except OverflowError:
        squares = list(map(_square, cells))
    return np.array(squares, dtype=np.float64).reshape(values.shape)


def _square(x: float) -> float:
    try:
        return x**2
    except OverflowError:
        # numpy's square gives inf here; the dataset then rejects the
        # moment with a typed error naming the object.
        return math.inf


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _read_only(*arrays):
    for arr in arrays:
        if arr is not None:
            arr.setflags(write=False)
    return arrays


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
