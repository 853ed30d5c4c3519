"""Family-grouped batch sampling — the off-line phase at dataset scale.

The sample-based algorithms (basic UK-means, MinMax-BB, VDBiP, the
density-based methods) all start by drawing an ``(n, S, m)`` realization
tensor.  Doing that object by object costs a Python-level ``ppf`` call
per *marginal* — ``n * m`` inverse-CDF evaluations of length ``S`` — and
dominates the off-line phase long before the on-line loop matters.

This module replaces the per-object loop with one vectorized draw per
*distribution family*.  Sampling is split into two phases:

* **plan building** (:func:`build_sampling_plan`) — every univariate
  marginal cell ``(object, dim)`` of the five batched families is
  grouped by its family, and the cells'
  :attr:`~repro.uncertainty.base.UnivariateDistribution.quantile_params`
  are stacked into columns once.  The plan depends only on the
  (immutable) distributions, so callers with a stable collection —
  :class:`~repro.objects.dataset.UncertainDataset`, the multi-restart
  engine — build it once and reuse it;
* **drawing** (:meth:`SamplingPlan.sample`) — one uniform matrix ``q``
  of shape ``(group, S)`` per family, mapped through the family's own
  :meth:`~repro.uncertainty.base.UnivariateDistribution.quantile` in a
  single numpy call.  Each marginal's ``ppf`` calls that same function,
  so batched and per-object sampling produce identical values for
  identical quantiles.

Point masses are broadcast without randomness.  Every other
distribution — empirical objects, mixtures, custom multivariates —
draws through its own ``sample`` method, in collection order after the
family groups, so the tensor sampler accepts *any* collection of
:class:`~repro.uncertainty.base.MultivariateDistribution`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro._typing import FloatArray, SeedLike
from repro.exceptions import DimensionMismatchError, InvalidParameterError
from repro.uncertainty.base import MultivariateDistribution, UnivariateDistribution
from repro.uncertainty.exponential import TruncatedExponentialDistribution
from repro.uncertainty.normal import TruncatedNormalDistribution
from repro.uncertainty.point import MultivariatePointMass, PointMassDistribution
from repro.uncertainty.product import IndependentProduct
from repro.uncertainty.triangular import TriangularDistribution
from repro.uncertainty.uniform import UniformDistribution
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_int_range

#: The marginal families a plan stacks.  Their groups draw from the
#: stream in this order, so reordering it changes every tensor drawn
#: from a seed.
_BATCHED = (
    UniformDistribution,
    TruncatedNormalDistribution,
    TruncatedExponentialDistribution,
    TriangularDistribution,
    PointMassDistribution,
)


class _FamilyGroup:
    """One family's stacked cells: where they live and their params."""

    __slots__ = ("quantile", "rows", "dims", "params", "dense")

    def __init__(self, quantile, rows, dims, params, dense) -> None:
        self.quantile = quantile
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
    quantile call per family, and one ``sample`` call per object of
    any other kind.
    """

    __slots__ = ("n_objects", "dim", "_groups", "_point_rows",
                 "_point_values", "_fallback")

    def __init__(self, n_objects, dim, groups, point_rows, point_values, fallback):
        self.n_objects = n_objects
        self.dim = dim
        self._groups = groups
        self._point_rows = point_rows
        self._point_values = point_values
        self._fallback = fallback

    @property
    def n_fallback(self) -> int:
        """Objects sampled through their own ``sample`` method."""
        return len(self._fallback)

    def sample(self, n_samples: int, seed: SeedLike = None) -> FloatArray:
        """Draw the ``(n, S, m)`` tensor; deterministic for a fixed seed.

        RNG consumption order: the family groups (in ``_BATCHED``
        order), then every other object's own ``sample`` in collection
        order.  For a collection of one family, or of objects that all
        sample themselves, this is the per-object loop's order, so
        batched and sequential draws are identical value for value.
        """
        check_int_range(n_samples, "n_samples", low=1)
        rng = ensure_rng(seed)
        out = np.empty((self.n_objects, n_samples, self.dim))
        if self._point_rows.size:
            out[self._point_rows] = self._point_values[:, None, :]
        for group in self._groups:
            q = rng.random((group.rows.size, n_samples))
            values = group.quantile(q, *group.params)
            if group.dense:
                out[...] = values.reshape(
                    self.n_objects, self.dim, n_samples
                ).swapaxes(1, 2)
            else:
                out[group.rows, :, group.dims] = values
        for idx, dist in self._fallback:
            out[idx] = dist.sample(n_samples, rng)
        return out


def build_sampling_plan(
    distributions: Sequence[MultivariateDistribution],
) -> SamplingPlan:
    """Group a collection's cells and objects by family into a plan.

    Marginal cells of independent products whose marginals all belong
    to the batched families are stacked per family, point masses are
    recorded for broadcast without randomness, and anything else is
    kept to sample itself, in collection order after the family draws.
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
    fallback: List[Tuple[int, MultivariateDistribution]] = []
    for idx, dist in enumerate(dists):
        if isinstance(dist, MultivariatePointMass):
            point_rows.append(idx)
            point_values.append(dist.mean_vector)
        elif type(dist) is IndependentProduct and all(
            type(m) in _BATCHED for m in dist.marginals
        ):
            for j, marginal in enumerate(dist.marginals):
                cells.setdefault(type(marginal), []).append((idx, j, marginal))
        else:
            fallback.append((idx, dist))

    groups: List[_FamilyGroup] = []
    for family in _BATCHED:
        members = cells.get(family)
        if not members:
            continue
        rows = np.fromiter((cell[0] for cell in members), dtype=np.intp)
        dims = np.fromiter((cell[1] for cell in members), dtype=np.intp)
        params = tuple(
            np.array(column, dtype=np.float64)[:, None]
            for column in zip(*(cell[2].quantile_params for cell in members))
        )
        dense = rows.size == len(dists) * dim
        groups.append(_FamilyGroup(family.quantile, rows, dims, params, dense))

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
        fallback=fallback,
    )


def family_plan(family: type, params: Sequence[FloatArray]) -> SamplingPlan:
    """The plan of ``n`` products whose ``n * m`` cells are all ``family``.

    ``params`` are the cells' stacked ``family.quantile_params`` as
    ``(n, m)`` per-cell arrays.  Equal to :func:`build_sampling_plan`
    over the cells' distribution objects, so both draw the same tensor
    from the same seed, without building them.
    """
    n, dim = params[0].shape
    group = _FamilyGroup(
        family.quantile,
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
        fallback=[],
    )


def point_mass_plan(points: FloatArray) -> SamplingPlan:
    """The plan of ``n`` point masses at the rows of ``points`` ``(n, m)``."""
    n, dim = points.shape
    return SamplingPlan(
        n_objects=n,
        dim=dim,
        groups=[],
        point_rows=np.arange(n, dtype=np.intp),
        point_values=points,
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
