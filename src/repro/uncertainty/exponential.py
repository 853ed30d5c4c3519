"""Shifted, truncated Exponential distribution with analytic moments.

The paper's third pdf family.  To give an Exponential pdf an expected
value equal to the deterministic point it replaces (Section 5.1), the
generator shifts the origin and optionally mirrors the direction of
decay; Case-2 truncation to a 95%-mass region is supported analytically.

The underlying variable is ``X = origin + direction * T`` where
``T ~ Exp(rate)`` truncated to ``[0, cutoff]`` and ``direction`` is +1
(decaying to the right) or -1 (decaying to the left).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.uncertainty.base import UnivariateDistribution
from repro.utils.validation import check_mass, check_positive, check_real


def _truncated_exp_moments(rate: float, cutoff: float) -> tuple[float, float]:
    """(E[T], E[T^2]) for Exp(rate) truncated to [0, cutoff]."""
    if math.isinf(cutoff):
        mean = 1.0 / rate
        second = 2.0 / (rate * rate)
        return mean, second
    lam_c = rate * cutoff
    # exp(-lam_c) / (1 - exp(-lam_c)), computed stably via expm1.
    tail_ratio = math.exp(-lam_c) / (-math.expm1(-lam_c))
    mean = 1.0 / rate - cutoff * tail_ratio
    second = 2.0 / (rate * rate) - (cutoff * cutoff + 2.0 * cutoff / rate) * tail_ratio
    return mean, second


class TruncatedExponentialDistribution(UnivariateDistribution):
    """``X = origin + direction * T``, ``T ~ Exp(rate)`` truncated to ``[0, cutoff]``.

    Parameters
    ----------
    origin:
        Location of the density peak (where the exponential starts).
    rate:
        Rate parameter ``lambda > 0`` of the parent Exponential.
    cutoff:
        Truncation point of ``T`` (``inf`` for no truncation).
    direction:
        ``+1`` for a right tail, ``-1`` for a left tail.
    """

    __slots__ = (
        "_origin",
        "_rate",
        "_cutoff",
        "_direction",
        "_mass",
        "_mean",
        "_second",
    )

    def __init__(
        self,
        origin: float,
        rate: float,
        cutoff: float = np.inf,
        direction: int = 1,
    ):
        origin = check_real(origin, "origin")
        rate = check_positive(rate, "rate")
        cutoff = check_real(cutoff, "cutoff", allow_infinite=True)
        if cutoff <= 0:
            raise InvalidParameterError(f"cutoff must be > 0, got {cutoff}")
        if direction not in (1, -1):
            raise InvalidParameterError(
                f"direction must be +1 or -1, got {direction!r}"
            )
        self._origin = origin
        self._rate = rate
        self._cutoff = cutoff
        self._direction = int(direction)
        self._mass = (
            1.0 if math.isinf(cutoff) else float(-math.expm1(-rate * cutoff))
        )
        t_mean, t_second = _truncated_exp_moments(rate, cutoff)
        self._mean = origin + direction * t_mean
        # E[X^2] = E[(origin + d*T)^2] = origin^2 + 2*origin*d*E[T] + E[T^2]
        self._second = (
            origin * origin + 2.0 * origin * direction * t_mean + t_second
        )

    @staticmethod
    def with_mean(
        mean: float,
        rate: float,
        direction: int = 1,
        mass: float = 1.0,
    ) -> "TruncatedExponentialDistribution":
        """Exponential pdf whose *untruncated* mean equals ``mean``.

        The origin is placed at ``mean - direction/rate`` so that the
        parent distribution's expectation is exactly ``mean``; when
        ``mass < 1`` the pdf is then truncated to the region containing
        ``mass`` of the probability (Case-2 construction), which shifts
        the realized mean slightly — exactly as in the paper's setup.
        """
        mean = check_real(mean, "mean")
        rate = check_positive(rate, "rate")
        if direction not in (1, -1):
            raise InvalidParameterError(
                f"direction must be +1 or -1, got {direction!r}"
            )
        mass = check_mass(mass)
        origin = mean - direction / rate
        if mass == 1.0:
            cutoff = np.inf
        else:
            cutoff = -math.log(1.0 - mass) / rate
        return TruncatedExponentialDistribution(origin, rate, cutoff, direction)

    # ------------------------------------------------------------------
    # Support and moments
    # ------------------------------------------------------------------
    @property
    def origin(self) -> float:
        """Density peak location."""
        return self._origin

    @property
    def rate(self) -> float:
        """Rate parameter of the parent Exponential."""
        return self._rate

    @property
    def direction(self) -> int:
        """Decay direction: +1 right tail, -1 left tail."""
        return self._direction

    @property
    def support_lower(self) -> float:
        if self._direction == 1:
            return self._origin
        return self._origin - self._cutoff

    @property
    def support_upper(self) -> float:
        if self._direction == 1:
            return self._origin + self._cutoff
        return self._origin

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def second_moment(self) -> float:
        return self._second

    # ------------------------------------------------------------------
    # Density / CDF / quantiles
    # ------------------------------------------------------------------
    def _t_of(self, x: np.ndarray) -> np.ndarray:
        return self._direction * (np.asarray(x, dtype=np.float64) - self._origin)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        t = self._t_of(x)
        inside = (t >= 0.0) & (t <= self._cutoff)
        density = self._rate * np.exp(-self._rate * np.where(inside, t, 0.0))
        return np.where(inside, density / self._mass, 0.0)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        t = np.clip(self._t_of(x), 0.0, self._cutoff)
        cdf_t = -np.expm1(-self._rate * t) / self._mass
        cdf_t = np.clip(cdf_t, 0.0, 1.0)
        if self._direction == 1:
            return cdf_t
        return 1.0 - cdf_t

    @property
    def quantile_params(self) -> tuple:
        return (
            self._origin,
            self._rate,
            float(self._direction),
            self._cutoff,
            self._mass,
        )

    @staticmethod
    def quantile(q: np.ndarray, origin, rate, direction, cutoff, mass) -> np.ndarray:
        q = np.clip(q, 0.0, 1.0)
        q_t = np.where(direction == 1.0, q, 1.0 - q)
        # Inverse of the truncated-Exp CDF: t = -log(1 - q*mass)/rate.
        t = -np.log1p(-q_t * mass) / rate
        t = np.clip(t, 0.0, cutoff)
        return origin + direction * t
