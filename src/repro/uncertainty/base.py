"""Abstract interfaces for probability distributions over box regions.

Two layers:

* :class:`UnivariateDistribution` — a 1-D pdf supported on an interval,
  with *analytic* first and second moments.  The paper's uncertainty
  models (Uniform, Normal, Exponential, per Section 5.1) are all
  generated per attribute, so multivariate objects are products of
  independent marginals.
* :class:`MultivariateDistribution` — an m-dimensional pdf supported on
  a :class:`~repro.uncertainty.region.BoxRegion`, exposing the moment
  vectors of Eqs. (2)-(6) of the paper.
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

from repro._typing import FloatArray, SeedLike, VectorLike
from repro.uncertainty.region import BoxRegion
from repro.utils.rng import ensure_rng
from repro.utils.validation import ensure_vector


class UnivariateDistribution(abc.ABC):
    """A 1-D probability density supported on ``[support_lower, support_upper]``."""

    # ------------------------------------------------------------------
    # Support
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def support_lower(self) -> float:
        """Lower endpoint of the support interval."""

    @property
    @abc.abstractmethod
    def support_upper(self) -> float:
        """Upper endpoint of the support interval."""

    @property
    def support_width(self) -> float:
        """Width of the support interval."""
        return self.support_upper - self.support_lower

    # ------------------------------------------------------------------
    # Moments (Eqs. (4)-(5) of the paper, one dimension)
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """First moment ``mu = E[X]``."""

    @property
    @abc.abstractmethod
    def second_moment(self) -> float:
        """Raw second moment ``mu2 = E[X^2]``."""

    @property
    def variance(self) -> float:
        """Central second moment ``sigma^2 = mu2 - mu^2`` (Eq. (5))."""
        var = self.second_moment - self.mean**2
        # Round-off can produce a tiny negative value for near-degenerate
        # supports; variance is nonnegative by definition.
        return max(var, 0.0)

    # ------------------------------------------------------------------
    # Density / sampling
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Vectorized density; zero outside the support (Eq. (1))."""

    @abc.abstractmethod
    def cdf(self, x: np.ndarray) -> np.ndarray:
        """Vectorized cumulative distribution function."""

    @staticmethod
    @abc.abstractmethod
    def quantile(q: FloatArray, *params) -> FloatArray:
        """The family's inverse CDF at ``q`` in [0, 1], for parameters
        laid out as :attr:`quantile_params`.

        The family's one inverse CDF: :meth:`ppf` calls it with this
        pdf's parameters, and the batch sampler
        (:mod:`repro.uncertainty.batch`) with a family's stacked ``(g,
        1)`` parameter columns against a ``(g, S)`` quantile matrix.
        """

    @property
    @abc.abstractmethod
    def quantile_params(self) -> Tuple[float, ...]:
        """This pdf's parameters, in :meth:`quantile`'s order."""

    def ppf(self, q: np.ndarray) -> np.ndarray:
        """Vectorized quantile (inverse CDF) function on [0, 1]."""
        return self.quantile(np.asarray(q, dtype=np.float64), *self.quantile_params)

    def sample(self, size: int, seed: SeedLike = None) -> FloatArray:
        """Draw ``size`` i.i.d. samples via inverse-CDF transform."""
        rng = ensure_rng(seed)
        return np.asarray(self.ppf(rng.random(size)), dtype=np.float64)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(support=[{self.support_lower:g}, "
            f"{self.support_upper:g}], mean={self.mean:g}, var={self.variance:g})"
        )


class MultivariateDistribution(abc.ABC):
    """An m-dimensional pdf supported on a :class:`BoxRegion`.

    Subclasses expose the moment vectors of the paper:

    * :attr:`mean_vector` — ``mu(o)``, Eq. (2);
    * :attr:`second_moment_vector` — ``mu2(o)``, Eq. (2);
    * :attr:`variance_vector` — ``sigma^2(o)``, Eq. (3);
    * :attr:`total_variance` — ``sigma^2(o) = ||sigma^2(o)||_1``, Eq. (6).
    """

    @property
    @abc.abstractmethod
    def region(self) -> BoxRegion:
        """Domain region ``R`` of Definition 1."""

    @property
    def dim(self) -> int:
        """Dimensionality m."""
        return self.region.dim

    @property
    @abc.abstractmethod
    def mean_vector(self) -> FloatArray:
        """Expected-value vector ``mu(o)`` (Eq. (2))."""

    @property
    @abc.abstractmethod
    def second_moment_vector(self) -> FloatArray:
        """Raw second-order moment vector ``mu2(o)`` (Eq. (2))."""

    @property
    def variance_vector(self) -> FloatArray:
        """Variance vector ``sigma^2(o) = mu2(o) - mu(o)^2`` (Eq. (3))."""
        var = self.second_moment_vector - self.mean_vector**2
        return np.maximum(var, 0.0)

    @property
    def total_variance(self) -> float:
        """Scalar "global" variance, the 1-norm of Eq. (6)."""
        return float(np.sum(self.variance_vector))

    @abc.abstractmethod
    def pdf(self, points: np.ndarray) -> np.ndarray:
        """Density at each row of ``points`` (shape ``(n, m)`` or ``(m,)``)."""

    @abc.abstractmethod
    def sample(self, size: int, seed: SeedLike = None) -> FloatArray:
        """Draw ``size`` i.i.d. samples, shape ``(size, m)``."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _points_matrix(self, points: VectorLike) -> FloatArray:
        """Normalize pdf() input into an ``(n, m)`` matrix."""
        arr = np.asarray(points, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.shape[1] != self.dim:
            arr = ensure_vector(arr.ravel(), "points", dim=self.dim).reshape(1, -1)
        return arr

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(dim={self.dim}, mean={self.mean_vector}, "
            f"total_variance={self.total_variance:g})"
        )
