"""Truncated Normal distribution with analytic moments.

The paper's Case-2 objects restrict each pdf to the region holding most
(e.g. 95%) of its mass, so the Normal family must be handled in its
*truncated* form: density renormalized on ``[lower, upper]`` and moments
computed with the standard truncated-normal formulas.  The untruncated
Normal is recovered with infinite bounds.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, ndtri

from repro.exceptions import InvalidParameterError
from repro.uncertainty.base import UnivariateDistribution
from repro.utils.validation import check_mass, check_positive, check_real

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(z: np.ndarray) -> np.ndarray:
    """Standard normal density."""
    return np.exp(-0.5 * np.square(z)) / _SQRT_2PI


class TruncatedNormalDistribution(UnivariateDistribution):
    """Normal(loc, scale) truncated (and renormalized) to ``[lower, upper]``.

    Parameters
    ----------
    loc, scale:
        Parameters of the parent Normal; ``scale`` must be positive.
    lower, upper:
        Truncation interval; may be ``-inf`` / ``+inf`` for one- or
        un-truncated variants.  The interval must capture nonzero mass.

    Notes
    -----
    With ``alpha = (lower-loc)/scale``, ``beta = (upper-loc)/scale`` and
    ``Z = Phi(beta) - Phi(alpha)``::

        mean = loc + scale * (phi(alpha) - phi(beta)) / Z
        var  = scale^2 * [1 + (alpha*phi(alpha) - beta*phi(beta))/Z
                            - ((phi(alpha) - phi(beta))/Z)^2]
    """

    __slots__ = (
        "_loc",
        "_scale",
        "_lower",
        "_upper",
        "_alpha",
        "_beta",
        "_z_mass",
        "_cdf_alpha",
        "_mean",
        "_variance",
    )

    def __init__(
        self,
        loc: float,
        scale: float,
        lower: float = -np.inf,
        upper: float = np.inf,
    ):
        loc = check_real(loc, "loc")
        scale = check_positive(scale, "scale")
        lower = check_real(lower, "lower", allow_infinite=True)
        upper = check_real(upper, "upper", allow_infinite=True)
        if lower >= upper:
            raise InvalidParameterError(
                f"lower ({lower}) must be strictly less than upper ({upper})"
            )
        self._loc = loc
        self._scale = scale
        self._lower = lower
        self._upper = upper

        self._alpha = (lower - loc) / scale
        self._beta = (upper - loc) / scale
        cdf_alpha = float(ndtr(self._alpha)) if np.isfinite(self._alpha) else 0.0
        cdf_beta = float(ndtr(self._beta)) if np.isfinite(self._beta) else 1.0
        z_mass = cdf_beta - cdf_alpha
        if z_mass <= 0.0:
            raise InvalidParameterError(
                "truncation interval captures zero probability mass"
            )
        self._z_mass = z_mass
        self._cdf_alpha = cdf_alpha

        phi_alpha = float(_phi(self._alpha)) if np.isfinite(self._alpha) else 0.0
        phi_beta = float(_phi(self._beta)) if np.isfinite(self._beta) else 0.0
        alpha_term = self._alpha * phi_alpha if phi_alpha > 0.0 else 0.0
        beta_term = self._beta * phi_beta if phi_beta > 0.0 else 0.0

        delta = (phi_alpha - phi_beta) / z_mass
        self._mean = loc + scale * delta
        self._variance = scale * scale * max(
            1.0 + (alpha_term - beta_term) / z_mass - delta * delta, 0.0
        )

    @staticmethod
    def central_mass(
        loc: float, scale: float, mass: float = 0.95
    ) -> "TruncatedNormalDistribution":
        """Normal truncated to its central ``mass`` interval.

        This mirrors the paper's Case-2 construction: "R was defined as
        the region containing most of the area (e.g. 95%) of f".  The
        interval is symmetric about ``loc`` so the truncated mean stays
        exactly ``loc``.
        """
        loc = check_real(loc, "loc")
        scale = check_positive(scale, "scale")
        if check_mass(mass) == 1.0:
            return TruncatedNormalDistribution(loc, scale)
        half = float(ndtri(0.5 + mass / 2.0)) * scale
        return TruncatedNormalDistribution(loc, scale, loc - half, loc + half)

    # ------------------------------------------------------------------
    # Support and moments
    # ------------------------------------------------------------------
    @property
    def loc(self) -> float:
        """Location parameter of the parent Normal."""
        return self._loc

    @property
    def scale(self) -> float:
        """Scale parameter of the parent Normal."""
        return self._scale

    @property
    def support_lower(self) -> float:
        return self._lower

    @property
    def support_upper(self) -> float:
        return self._upper

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._variance

    @property
    def second_moment(self) -> float:
        return self._variance + self._mean**2

    # ------------------------------------------------------------------
    # Density / CDF / quantiles
    # ------------------------------------------------------------------
    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        z = (x - self._loc) / self._scale
        density = _phi(z) / (self._scale * self._z_mass)
        inside = (x >= self._lower) & (x <= self._upper)
        return np.where(inside, density, 0.0)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        z = (x - self._loc) / self._scale
        raw = (ndtr(z) - self._cdf_alpha) / self._z_mass
        return np.clip(raw, 0.0, 1.0)

    @property
    def quantile_params(self) -> tuple:
        return (
            self._loc,
            self._scale,
            self._lower,
            self._upper,
            self._cdf_alpha,
            self._z_mass,
        )

    @staticmethod
    def quantile(
        q: np.ndarray, loc, scale, lower, upper, cdf_alpha, z_mass
    ) -> np.ndarray:
        inner = cdf_alpha + np.clip(q, 0.0, 1.0) * z_mass
        # Guard the endpoints: ndtri(0/1) is +-inf, but the support is
        # the truncation interval.
        inner = np.clip(inner, 1e-16, 1.0 - 1e-16)
        values = loc + scale * ndtri(inner)
        return np.clip(values, lower, upper)
