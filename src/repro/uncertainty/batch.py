"""Family-grouped batch sampling — the off-line phase at dataset scale.

The sample-based algorithms (basic UK-means, MinMax-BB, VDBiP, the
density-based methods) all start by drawing an ``(n, S, m)`` realization
tensor.  Doing that object by object costs a Python-level ``ppf`` call
per *marginal* — ``n * m`` inverse-CDF evaluations of length ``S`` — and
dominates the off-line phase long before the on-line loop matters.

This module replaces the per-object loop with one vectorized draw per
*distribution family*.  Sampling is split into two phases:

* **plan building** (:func:`build_sampling_plan`) — every univariate
  marginal cell ``(object, dim)`` is grouped by its concrete family and
  the family's parameters are stacked into arrays once.  The plan
  depends only on the (immutable) distributions, so callers with a
  stable collection — :class:`~repro.objects.dataset.UncertainDataset`,
  the multi-restart engine — build it once and reuse it;
* **drawing** (:meth:`SamplingPlan.sample`) — one uniform matrix ``q``
  of shape ``(group, S)`` per family, mapped through the family's
  vectorized quantile transform in a single numpy call.  The transforms
  mirror each family's scalar ``ppf`` operation for operation, so
  batched and per-object sampling produce identical values for
  identical quantiles.

Beyond the univariate family registry, two multivariate families are
grouped natively so that *every* distribution in the library takes a
vectorized path: :class:`EmpiricalDistribution` (one inverse-CDF
``searchsorted`` over the stacked weight tables of the whole group) and
:class:`MixtureDistribution` (one uniform matrix selects components by
inverse CDF, then a recursive child plan over all components realizes
them in a single batched draw).  Only custom third-party multivariates
without a registered transform fall back to their own ``sample``
method, so the tensor sampler still accepts *any* collection of
:class:`~repro.uncertainty.base.MultivariateDistribution`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np
from scipy.special import ndtri

from repro._typing import FloatArray, SeedLike
from repro.exceptions import DimensionMismatchError, InvalidParameterError
from repro.uncertainty.base import MultivariateDistribution, UnivariateDistribution
from repro.uncertainty.empirical import EmpiricalDistribution
from repro.uncertainty.exponential import TruncatedExponentialDistribution
from repro.uncertainty.mixture import MixtureDistribution
from repro.uncertainty.normal import TruncatedNormalDistribution
from repro.uncertainty.point import MultivariatePointMass, PointMassDistribution
from repro.uncertainty.product import IndependentProduct
from repro.uncertainty.triangular import TriangularDistribution
from repro.uncertainty.uniform import UniformDistribution
from repro.utils.rng import ensure_rng

#: Stacks same-family marginals into a tuple of parameter arrays, each
#: shaped ``(g, 1)`` for broadcasting against a ``(g, S)`` quantile
#: matrix.
StackFn = Callable[[Sequence[UnivariateDistribution]], Tuple[FloatArray, ...]]
#: Vectorized inverse CDF: ``apply(q, *params) -> values``, ``(g, S)``.
ApplyFn = Callable[..., FloatArray]

_FAMILIES: Dict[type, Tuple[StackFn, ApplyFn]] = {}


def register_batch_sampler(
    family: type,
) -> Callable[[Tuple[StackFn, ApplyFn]], Tuple[StackFn, ApplyFn]]:
    """Register a ``(stack, apply)`` batch-sampler pair for a family.

    ``stack`` extracts the family's parameters from same-family
    marginals once (plan-build time); ``apply`` maps a ``(g, S)``
    quantile matrix through the stacked parameters (draw time) and must
    reproduce the family's scalar ``ppf`` exactly.  Registration order
    fixes the RNG consumption order of :meth:`SamplingPlan.sample`, so
    third-party families should register at import time, not lazily.
    """

    def decorator(pair: Tuple[StackFn, ApplyFn]) -> Tuple[StackFn, ApplyFn]:
        _FAMILIES[family] = pair
        return pair

    return decorator


def batch_families() -> Tuple[type, ...]:
    """Marginal families with a registered batch sampler."""
    return tuple(_FAMILIES)


def quantile_transform(family: type) -> ApplyFn:
    """The registered vectorized inverse CDF of ``family``.

    ``apply(q, *params)`` broadcasts, so per-cell parameters may be
    ``(n, m)`` arrays against an ``(n, m)`` quantile matrix.
    """
    return _FAMILIES[family][1]


def is_batchable(dist: MultivariateDistribution) -> bool:
    """Whether ``dist`` is sampled by the grouped fast path.

    True for point masses, for independent products whose marginals all
    belong to registered families, for empirical distributions, and for
    mixtures whose components are (recursively) batchable; anything
    else takes the per-object ``sample`` fallback inside
    :meth:`SamplingPlan.sample`.
    """
    if isinstance(dist, MultivariatePointMass):
        return True
    if type(dist) is IndependentProduct:
        return all(type(m) in _FAMILIES for m in dist.marginals)
    if isinstance(dist, EmpiricalDistribution):
        return True
    if isinstance(dist, MixtureDistribution):
        return all(is_batchable(comp) for comp in dist.components)
    return False


# ----------------------------------------------------------------------
# Per-family stack/apply pairs.  Each ``apply`` mirrors the scalar
# ``ppf`` of its family operation for operation (same clips, same
# special functions), so identical quantiles give identical values.
# ----------------------------------------------------------------------
def _column(values: List[float]) -> FloatArray:
    return np.array(values, dtype=np.float64)[:, None]


def _uniform_stack(marginals: Sequence[UniformDistribution]):
    return (
        _column([m.support_lower for m in marginals]),
        _column([m.support_width for m in marginals]),
    )


def _uniform_apply(q: FloatArray, lower, width) -> FloatArray:
    return lower + q * width


register_batch_sampler(UniformDistribution)((_uniform_stack, _uniform_apply))


def _truncated_normal_stack(marginals: Sequence[TruncatedNormalDistribution]):
    return (
        _column([m.loc for m in marginals]),
        _column([m.scale for m in marginals]),
        _column([m.support_lower for m in marginals]),
        _column([m.support_upper for m in marginals]),
        _column([m._cdf_alpha for m in marginals]),
        _column([m._z_mass for m in marginals]),
    )


def _truncated_normal_apply(
    q: FloatArray, loc, scale, lower, upper, cdf_alpha, z_mass
) -> FloatArray:
    inner = cdf_alpha + np.clip(q, 0.0, 1.0) * z_mass
    inner = np.clip(inner, 1e-16, 1.0 - 1e-16)
    values = loc + scale * ndtri(inner)
    return np.clip(values, lower, upper)


register_batch_sampler(TruncatedNormalDistribution)(
    (_truncated_normal_stack, _truncated_normal_apply)
)


def _truncated_exponential_stack(
    marginals: Sequence[TruncatedExponentialDistribution],
):
    return (
        _column([m.origin for m in marginals]),
        _column([m.rate for m in marginals]),
        _column([float(m.direction) for m in marginals]),
        _column([m._cutoff for m in marginals]),
        _column([m._mass for m in marginals]),
    )


def _truncated_exponential_apply(
    q: FloatArray, origin, rate, direction, cutoff, mass
) -> FloatArray:
    q = np.clip(q, 0.0, 1.0)
    q_t = np.where(direction == 1.0, q, 1.0 - q)
    t = -np.log1p(-q_t * mass) / rate
    t = np.clip(t, 0.0, cutoff)
    return origin + direction * t


register_batch_sampler(TruncatedExponentialDistribution)(
    (_truncated_exponential_stack, _truncated_exponential_apply)
)


def _triangular_stack(marginals: Sequence[TriangularDistribution]):
    return (
        _column([m.support_lower for m in marginals]),
        _column([m.mode for m in marginals]),
        _column([m.support_upper for m in marginals]),
    )


def _triangular_apply(q: FloatArray, lower, mode, upper) -> FloatArray:
    q = np.clip(q, 0.0, 1.0)
    width = upper - lower
    rising = mode - lower
    falling = upper - mode
    pivot = np.divide(rising, width, out=np.zeros_like(width), where=width > 0)
    # Both branch expressions are nonnegative under the square root, and
    # degenerate sides (mode == lower / mode == upper) collapse to the
    # endpoint exactly as in the scalar ppf.
    low_values = lower + np.sqrt(q * width * rising)
    high_values = upper - np.sqrt((1.0 - q) * width * falling)
    return np.where(q <= pivot, low_values, high_values)


register_batch_sampler(TriangularDistribution)(
    (_triangular_stack, _triangular_apply)
)


def _point_mass_stack(marginals: Sequence[PointMassDistribution]):
    return (_column([m.mean for m in marginals]),)


def _point_mass_apply(q: FloatArray, values) -> FloatArray:
    return np.broadcast_to(values, q.shape).copy()


register_batch_sampler(PointMassDistribution)(
    (_point_mass_stack, _point_mass_apply)
)


# ----------------------------------------------------------------------
# Multivariate group samplers: empirical tables and finite mixtures.
# ----------------------------------------------------------------------
class _RowCdfTable:
    """Many per-row CDF tables, searchable in one vectorized lookup.

    Row ``r``'s values are shifted into ``(r, r + 1]`` (each CDF ends at
    exactly 1), so one global ``searchsorted(table, r + q, "right")``
    performs every row's inverse-CDF lookup at once.  The shift rounds
    (``fl(x + r)`` loses low bits as ``r`` grows), so the candidate
    indices are then *refined* against the unshifted per-row values —
    the final count of entries ``<= q`` is exactly the one the per-row
    ``searchsorted(cdf_r, q, "right")`` of the sequential samplers
    produces, keeping grouped and per-object draws identical value for
    value, ulp ties included.
    """

    __slots__ = ("shifted", "raw", "offsets", "last_index")

    def __init__(self, cdfs: Sequence[FloatArray]):
        sizes = np.array([cdf.shape[0] for cdf in cdfs], dtype=np.intp)
        self.offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        self.raw = np.concatenate(list(cdfs))
        self.shifted = np.concatenate(
            [cdf + r for r, cdf in enumerate(cdfs)]
        )
        self.last_index = self.offsets + sizes - 1

    def lookup(self, q: FloatArray) -> FloatArray:
        """Flat table index selected by each uniform in ``q`` (g, S)."""
        g = q.shape[0]
        shifted_q = q + np.arange(g)[:, None]
        flat = np.searchsorted(
            self.shifted, shifted_q.ravel(), side="right"
        ).reshape(q.shape)
        lower = self.offsets[:, None]
        upper = self.last_index[:, None] + 1  # exclusive row end
        flat = np.clip(flat, lower, upper)
        top = self.raw.shape[0] - 1
        while True:
            # Exact per-row correction: entry k is counted iff
            # raw[k] <= q.  "over"/"under" are mutually exclusive (the
            # CDF is non-decreasing), so each step moves monotonically
            # toward the exact count; outside ulp ties it runs once.
            over = (flat > lower) & (
                self.raw[np.clip(flat - 1, 0, top)] > q
            )
            under = (flat < upper) & (
                self.raw[np.clip(flat, 0, top)] <= q
            )
            if not (over.any() or under.any()):
                break
            flat = flat - over + under
        # Clamp the count to the last entry, as the sequential
        # samplers do (a no-op for q < 1 since each CDF ends at 1).
        return np.minimum(flat, self.last_index[:, None])


class _EmpiricalGroup:
    """All empirical objects of a collection, one searchsorted per draw."""

    __slots__ = ("rows", "values", "table")

    def __init__(self, rows: np.ndarray, members: Sequence[EmpiricalDistribution]):
        self.rows = rows
        self.values = np.concatenate([m.samples for m in members], axis=0)
        self.table = _RowCdfTable([m.weight_cdf for m in members])

    def sample(self, n_samples: int, rng: np.random.Generator, out: FloatArray) -> None:
        q = rng.random((self.rows.size, n_samples))
        out[self.rows] = self.values[self.table.lookup(q)]


class _MixtureGroup:
    """All (batchable) mixtures of a collection.

    One uniform matrix selects each draw's component via the stacked
    weight CDFs; a recursive child :class:`SamplingPlan` over the
    concatenation of every member's components realizes all components
    in one batched draw, and the selection gathers from it.  Mirrors
    :meth:`MixtureDistribution.sample` transform for transform, so a
    single-mixture collection reproduces the sequential draws exactly.
    """

    __slots__ = ("rows", "table", "child_plan")

    def __init__(self, rows: np.ndarray, members: Sequence[MixtureDistribution]):
        self.rows = rows
        self.table = _RowCdfTable([m.weight_cdf for m in members])
        components: List[MultivariateDistribution] = []
        for member in members:
            components.extend(member.components)
        self.child_plan = build_sampling_plan(components)

    def sample(self, n_samples: int, rng: np.random.Generator, out: FloatArray) -> None:
        q = rng.random((self.rows.size, n_samples))
        chosen = self.table.lookup(q)
        realizations = self.child_plan.sample(n_samples, rng)
        out[self.rows] = realizations[chosen, np.arange(n_samples)[None, :]]


# ----------------------------------------------------------------------
# The sampling plan and the dataset-level tensor sampler.
# ----------------------------------------------------------------------
class _FamilyGroup:
    """One family's stacked cells: where they live and their params."""

    __slots__ = ("apply", "rows", "dims", "params", "dense")

    def __init__(self, apply: ApplyFn, rows, dims, params, dense) -> None:
        self.apply = apply
        self.rows = rows
        self.dims = dims
        self.params = params
        # Cells are collected in (object, dim)-lexicographic order, so a
        # group holding every cell of the collection can skip the fancy
        # scatter and write through one reshape/transpose instead.
        self.dense = dense


class SamplingPlan:
    """Precompiled batch-sampling layout for a distribution collection.

    Built once per collection by :func:`build_sampling_plan`; every
    :meth:`sample` call then runs one uniform draw plus one vectorized
    quantile transform per family, with no per-object Python work.
    """

    __slots__ = ("n_objects", "dim", "_groups", "_point_rows",
                 "_point_values", "_empirical", "_mixture", "_fallback")

    def __init__(self, n_objects, dim, groups, point_rows, point_values,
                 empirical, mixture, fallback):
        self.n_objects = n_objects
        self.dim = dim
        self._groups = groups
        self._point_rows = point_rows
        self._point_values = point_values
        self._empirical = empirical
        self._mixture = mixture
        self._fallback = fallback

    @property
    def n_batched_cells(self) -> int:
        """Univariate marginal cells covered by the family fast path."""
        return sum(group.rows.size for group in self._groups)

    @property
    def n_empirical(self) -> int:
        """Objects drawn through the grouped empirical-table path."""
        return 0 if self._empirical is None else self._empirical.rows.size

    @property
    def n_mixture(self) -> int:
        """Objects drawn through the grouped mixture path."""
        return 0 if self._mixture is None else self._mixture.rows.size

    @property
    def n_fallback(self) -> int:
        """Objects sampled through their own ``sample`` method."""
        return len(self._fallback)

    def take(self, rows: np.ndarray) -> "SamplingPlan":
        """The plan of the objects at ``rows``, as
        :func:`build_sampling_plan` would compile it for them.

        Defined for the plans of :func:`family_plan` and
        :func:`point_mass_plan` — every cell one family, or every object
        a point mass — whose rows are gathered from the parameter
        columns instead of from distribution objects.
        """
        if self._point_rows.size == self.n_objects:
            return point_mass_plan(self._point_values[rows])
        if len(self._groups) != 1 or not self._groups[0].dense:
            raise InvalidParameterError(
                "take needs a plan of one dense family group or of point masses"
            )
        group = self._groups[0]
        shape = (self.n_objects, self.dim)
        return _dense_plan(
            group.apply, [column.reshape(shape)[rows] for column in group.params]
        )

    def sample(self, n_samples: int, seed: SeedLike = None) -> FloatArray:
        """Draw the ``(n, S, m)`` tensor; deterministic for a fixed seed.

        RNG consumption order: registered family groups (registration
        order), then the empirical group, then the mixture group, then
        per-object fallbacks in collection order.  For a collection
        homogeneous in one path, this order coincides with the
        per-object loop's, so batched and sequential draws are
        identical value for value.
        """
        if n_samples < 1:
            raise InvalidParameterError(
                f"n_samples must be >= 1, got {n_samples}"
            )
        rng = ensure_rng(seed)
        out = np.empty((self.n_objects, n_samples, self.dim))
        if self._point_rows.size:
            out[self._point_rows] = self._point_values[:, None, :]
        for group in self._groups:
            q = rng.random((group.rows.size, n_samples))
            values = group.apply(q, *group.params)
            if group.dense:
                out[...] = values.reshape(
                    self.n_objects, self.dim, n_samples
                ).swapaxes(1, 2)
            else:
                out[group.rows, :, group.dims] = values
        if self._empirical is not None:
            self._empirical.sample(n_samples, rng, out)
        if self._mixture is not None:
            self._mixture.sample(n_samples, rng, out)
        for idx, dist in self._fallback:
            out[idx] = dist.sample(n_samples, rng)
        return out


def build_sampling_plan(
    distributions: Sequence[MultivariateDistribution],
) -> SamplingPlan:
    """Group a collection's cells and objects by family into a plan.

    Marginal cells of registered families are stacked per family
    (registration order), point masses are recorded for broadcast
    without randomness, empirical objects and batchable mixtures get
    their own grouped samplers, and anything else is kept as a
    per-object fallback, sampled in collection order after the grouped
    draws.
    """
    dists = list(distributions)
    if not dists:
        raise InvalidParameterError(
            "build_sampling_plan needs at least one distribution"
        )
    dim = dists[0].dim
    for dist in dists:
        if dist.dim != dim:
            raise DimensionMismatchError(
                "all distributions must share one dimensionality"
            )

    cells: Dict[type, List[Tuple[int, int, UnivariateDistribution]]] = {}
    point_rows: List[int] = []
    point_values: List[FloatArray] = []
    empirical_rows: List[int] = []
    empirical_members: List[EmpiricalDistribution] = []
    mixture_rows: List[int] = []
    mixture_members: List[MixtureDistribution] = []
    fallback: List[Tuple[int, MultivariateDistribution]] = []
    for idx, dist in enumerate(dists):
        if isinstance(dist, MultivariatePointMass):
            point_rows.append(idx)
            point_values.append(dist.mean_vector)
        elif isinstance(dist, EmpiricalDistribution):
            empirical_rows.append(idx)
            empirical_members.append(dist)
        elif isinstance(dist, MixtureDistribution) and is_batchable(dist):
            mixture_rows.append(idx)
            mixture_members.append(dist)
        elif is_batchable(dist):
            for j, marginal in enumerate(dist.marginals):
                cells.setdefault(type(marginal), []).append((idx, j, marginal))
        else:
            fallback.append((idx, dist))

    groups: List[_FamilyGroup] = []
    for family, (stack, apply) in _FAMILIES.items():
        members = cells.get(family)
        if not members:
            continue
        rows = np.fromiter((cell[0] for cell in members), dtype=np.intp)
        dims = np.fromiter((cell[1] for cell in members), dtype=np.intp)
        params = stack([cell[2] for cell in members])
        dense = rows.size == len(dists) * dim
        groups.append(_FamilyGroup(apply, rows, dims, params, dense))

    return SamplingPlan(
        n_objects=len(dists),
        dim=dim,
        groups=groups,
        point_rows=np.asarray(point_rows, dtype=np.intp),
        point_values=(
            np.vstack(point_values)
            if point_values
            else np.empty((0, dim))
        ),
        empirical=(
            _EmpiricalGroup(
                np.asarray(empirical_rows, dtype=np.intp), empirical_members
            )
            if empirical_rows
            else None
        ),
        mixture=(
            _MixtureGroup(
                np.asarray(mixture_rows, dtype=np.intp), mixture_members
            )
            if mixture_rows
            else None
        ),
        fallback=fallback,
    )


def family_plan(family: type, params: Sequence[FloatArray]) -> SamplingPlan:
    """The plan of ``n`` products whose ``n * m`` cells are all ``family``.

    ``params`` are the family's stacked parameters (its registered
    ``stack`` order) as ``(n, m)`` per-cell arrays.  Equal to
    :func:`build_sampling_plan` over the cells' distribution objects, so
    both draw the same tensor from the same seed, without building them.
    """
    return _dense_plan(quantile_transform(family), params)


def point_mass_plan(points: FloatArray) -> SamplingPlan:
    """The plan of ``n`` point masses at the rows of ``points`` ``(n, m)``."""
    n, dim = points.shape
    return SamplingPlan(
        n_objects=n,
        dim=dim,
        groups=[],
        point_rows=np.arange(n, dtype=np.intp),
        point_values=points,
        empirical=None,
        mixture=None,
        fallback=[],
    )


def _dense_plan(apply: ApplyFn, params: Sequence[FloatArray]) -> SamplingPlan:
    n, dim = params[0].shape
    group = _FamilyGroup(
        apply,
        rows=np.repeat(np.arange(n, dtype=np.intp), dim),
        dims=np.tile(np.arange(dim, dtype=np.intp), n),
        # (object, dim)-lexicographic cells, as build_sampling_plan
        # collects them: each column is a C-order ravel.
        params=tuple(
            np.ascontiguousarray(p, dtype=np.float64).reshape(-1, 1)
            for p in params
        ),
        dense=True,
    )
    return SamplingPlan(
        n_objects=n,
        dim=dim,
        groups=[group],
        point_rows=np.empty(0, dtype=np.intp),
        point_values=np.empty((0, dim)),
        empirical=None,
        mixture=None,
        fallback=[],
    )


def sample_tensor(
    distributions: Sequence[MultivariateDistribution],
    n_samples: int,
    seed: SeedLike = None,
) -> FloatArray:
    """One i.i.d. realization tensor for a distribution collection.

    One-shot convenience over :func:`build_sampling_plan` +
    :meth:`SamplingPlan.sample`; callers drawing repeatedly from the
    same collection should build the plan once instead.

    Parameters
    ----------
    distributions:
        The per-object multivariate distributions; all must share one
        dimensionality ``m``.
    n_samples:
        Sample-set cardinality ``S`` per object.
    seed:
        ``None``, an int, or a shared :class:`numpy.random.Generator`.

    Returns
    -------
    numpy.ndarray
        Shape ``(n, S, m)``; row ``i`` holds ``S`` draws of object ``i``.
    """
    return build_sampling_plan(distributions).sample(n_samples, seed)
