"""Uniform distribution on an interval — one of the paper's three pdf families."""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.uncertainty.base import UnivariateDistribution
from repro.utils.validation import check_positive, check_real


class UniformDistribution(UnivariateDistribution):
    """Continuous uniform distribution on ``[lower, upper]``.

    Used by the paper's uncertainty generator: each deterministic point
    gets a Uniform pdf centered on it with a randomly chosen width, so
    the expected value equals the original point (Section 5.1).

    Analytic moments::

        mean = (lower + upper) / 2
        E[X^2] = (lower^2 + lower*upper + upper^2) / 3
    """

    __slots__ = ("_lower", "_upper")

    def __init__(self, lower: float, upper: float):
        lower = check_real(lower, "lower")
        upper = check_real(upper, "upper")
        if lower > upper:
            raise InvalidParameterError(
                f"lower ({lower}) must not exceed upper ({upper})"
            )
        self._lower = lower
        self._upper = upper

    @staticmethod
    def centered(center: float, half_width: float) -> "UniformDistribution":
        """Uniform pdf with mean exactly ``center`` and width ``2*half_width``."""
        center = check_real(center, "center")
        half_width = check_positive(half_width, "half_width", strict=False)
        return UniformDistribution(center - half_width, center + half_width)

    # ------------------------------------------------------------------
    # Support and moments
    # ------------------------------------------------------------------
    @property
    def support_lower(self) -> float:
        return self._lower

    @property
    def support_upper(self) -> float:
        return self._upper

    @property
    def mean(self) -> float:
        return 0.5 * (self._lower + self._upper)

    @property
    def second_moment(self) -> float:
        a = self._lower
        b = self._upper
        return (a * a + a * b + b * b) / 3.0

    # ------------------------------------------------------------------
    # Density / CDF / quantiles
    # ------------------------------------------------------------------
    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        width = self.support_width
        if width == 0.0:
            # Degenerate interval: represent the density as infinite at the
            # point; callers treating it as a point mass should use
            # PointMassDistribution instead.
            return np.where(x == self._lower, np.inf, 0.0)
        inside = (x >= self._lower) & (x <= self._upper)
        return np.where(inside, 1.0 / width, 0.0)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        width = self.support_width
        if width == 0.0:
            return np.where(x >= self._lower, 1.0, 0.0)
        return np.clip((x - self._lower) / width, 0.0, 1.0)

    @property
    def quantile_params(self) -> tuple:
        return (self._lower, self.support_width)

    @staticmethod
    def quantile(q: np.ndarray, lower, width) -> np.ndarray:
        return lower + q * width
