"""Triangular distribution — a common bounded uncertainty model.

Not one of the paper's three evaluation families, but ubiquitous in
uncertain-data management (it is the default "interval with a most
likely value" model) and cheap to support exactly: bounded support out
of the box, closed-form moments, and an analytic quantile function.
Provided as a library extension; the generators accept it anywhere a
family name is taken.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.uncertainty.base import UnivariateDistribution
from repro.utils.validation import check_positive, check_real


class TriangularDistribution(UnivariateDistribution):
    """Triangular distribution on ``[lower, upper]`` with mode ``mode``.

    Closed-form moments::

        mean = (lower + mode + upper) / 3
        var  = (l^2 + m^2 + u^2 - l*m - l*u - m*u) / 18
    """

    __slots__ = ("_lower", "_mode", "_upper")

    def __init__(self, lower: float, mode: float, upper: float):
        lower = check_real(lower, "lower")
        mode = check_real(mode, "mode")
        upper = check_real(upper, "upper")
        if not (lower <= mode <= upper):
            raise InvalidParameterError(
                f"need lower <= mode <= upper, got {lower}, {mode}, {upper}"
            )
        if lower == upper:
            raise InvalidParameterError(
                "degenerate triangular support; use PointMassDistribution"
            )
        self._lower = lower
        self._mode = mode
        self._upper = upper

    @staticmethod
    def symmetric(center: float, half_width: float) -> "TriangularDistribution":
        """Symmetric triangle with mean/mode exactly ``center``."""
        center = check_real(center, "center")
        half_width = check_positive(half_width, "half_width")
        return TriangularDistribution(
            center - half_width, center, center + half_width
        )

    # ------------------------------------------------------------------
    # Support and moments
    # ------------------------------------------------------------------
    @property
    def mode(self) -> float:
        """Location of the density peak."""
        return self._mode

    @property
    def support_lower(self) -> float:
        return self._lower

    @property
    def support_upper(self) -> float:
        return self._upper

    @property
    def mean(self) -> float:
        return (self._lower + self._mode + self._upper) / 3.0

    @property
    def variance(self) -> float:
        l, m, u = self._lower, self._mode, self._upper
        return (l * l + m * m + u * u - l * m - l * u - m * u) / 18.0

    @property
    def second_moment(self) -> float:
        return self.variance + self.mean**2

    # ------------------------------------------------------------------
    # Density / CDF / quantiles
    # ------------------------------------------------------------------
    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        l, m, u = self._lower, self._mode, self._upper
        width = u - l
        out = np.zeros_like(x)
        rising = (x >= l) & (x < m)
        if m > l:
            out[rising] = 2.0 * (x[rising] - l) / (width * (m - l))
        falling = (x > m) & (x <= u)
        if u > m:
            out[falling] = 2.0 * (u - x[falling]) / (width * (u - m))
        out[x == m] = 2.0 / width
        return out

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        l, m, u = self._lower, self._mode, self._upper
        width = u - l
        out = np.zeros_like(x)
        rising = (x > l) & (x <= m)
        if m > l:
            out[rising] = (x[rising] - l) ** 2 / (width * (m - l))
        falling = (x > m) & (x < u)
        if u > m:
            out[falling] = 1.0 - (u - x[falling]) ** 2 / (width * (u - m))
        out[x >= u] = 1.0
        return out

    @property
    def quantile_params(self) -> tuple:
        return (self._lower, self._mode, self._upper)

    @staticmethod
    def quantile(q: np.ndarray, lower, mode, upper) -> np.ndarray:
        q = np.clip(q, 0.0, 1.0)
        width = upper - lower
        rising = mode - lower
        falling = upper - mode
        # Both branches are evaluated everywhere (their radicands are
        # nonnegative), and a degenerate side (mode == lower or mode ==
        # upper) collapses to its endpoint.
        low_values = lower + np.sqrt(q * width * rising)
        high_values = upper - np.sqrt((1.0 - q) * width * falling)
        return np.where(q <= rising / width, low_values, high_values)
