"""Degenerate (point-mass) distributions.

Deterministic data is the zero-variance special case of the uncertainty
model: the Case-1 evaluation protocol clusters perturbed *deterministic*
datasets with the same algorithms, which these classes enable without
any special-casing in the clustering code.
"""

from __future__ import annotations

import numpy as np

from repro._typing import FloatArray, SeedLike, VectorLike
from repro.uncertainty.base import MultivariateDistribution, UnivariateDistribution
from repro.uncertainty.region import BoxRegion
from repro.utils.validation import check_real, ensure_vector


class PointMassDistribution(UnivariateDistribution):
    """A 1-D distribution concentrated at a single value."""

    __slots__ = ("_value",)

    def __init__(self, value: float):
        self._value = check_real(value, "value")

    @property
    def support_lower(self) -> float:
        return self._value

    @property
    def support_upper(self) -> float:
        return self._value

    @property
    def mean(self) -> float:
        return self._value

    @property
    def second_moment(self) -> float:
        return self._value**2

    @property
    def variance(self) -> float:
        return 0.0

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.where(x == self._value, np.inf, 0.0)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.where(x >= self._value, 1.0, 0.0)

    @property
    def quantile_params(self) -> tuple:
        return (self._value,)

    @staticmethod
    def quantile(q: np.ndarray, value) -> np.ndarray:
        return np.full_like(q, value)


class MultivariatePointMass(MultivariateDistribution):
    """An m-dimensional distribution concentrated at a single point."""

    __slots__ = ("_point", "_region")

    def __init__(self, point: VectorLike):
        self._point = ensure_vector(point, "point")
        self._point.setflags(write=False)
        self._region = BoxRegion.point(self._point)

    @property
    def region(self) -> BoxRegion:
        return self._region

    @property
    def mean_vector(self) -> FloatArray:
        return self._point

    @property
    def second_moment_vector(self) -> FloatArray:
        return self._point**2

    @property
    def total_variance(self) -> float:
        return 0.0

    def pdf(self, points: np.ndarray) -> np.ndarray:
        pts = self._points_matrix(points)
        hits = np.all(pts == self._point, axis=1)
        return np.where(hits, np.inf, 0.0)

    def sample(self, size: int, seed: SeedLike = None) -> FloatArray:
        return np.tile(self._point, (size, 1))
