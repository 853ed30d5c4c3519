"""Empirical (sample-based) multivariate distributions.

Some pipelines produce uncertainty only as a cloud of samples (e.g. the
MCMC perturbation draws of Section 5.1, or posterior samples from a
probe-level microarray model).  :class:`EmpiricalDistribution` wraps a
weighted sample set as a first-class distribution: moments are the
weighted sample moments and the region is the sample bounding box, so
every clustering algorithm in the library works on it unchanged.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro._typing import FloatArray, MatrixLike, SeedLike, VectorLike
from repro.exceptions import InvalidParameterError
from repro.uncertainty.base import MultivariateDistribution
from repro.uncertainty.region import BoxRegion
from repro.utils.rng import ensure_rng
from repro.utils.validation import ensure_matrix, ensure_vector


class EmpiricalDistribution(MultivariateDistribution):
    """A discrete distribution over observed sample points.

    Parameters
    ----------
    samples:
        Matrix of shape ``(s, m)``: ``s`` observed realizations.
    weights:
        Optional nonnegative weights, normalized internally; default
        uniform.
    """

    __slots__ = ("_samples", "_weights", "_cdf", "_region", "_mean", "_second")

    def __init__(self, samples: MatrixLike, weights: Optional[VectorLike] = None):
        self._samples = ensure_matrix(samples, "samples")
        if self._samples.shape[0] == 0:
            raise InvalidParameterError("at least one sample is required")
        count = self._samples.shape[0]
        if weights is None:
            self._weights = np.full(count, 1.0 / count)
        else:
            raw = ensure_vector(weights, "weights", dim=count)
            if np.any(raw < 0):
                raise InvalidParameterError("weights must be nonnegative")
            total = float(raw.sum())
            if total <= 0:
                raise InvalidParameterError("weights must not all be zero")
            self._weights = raw / total
        self._samples.setflags(write=False)
        self._weights.setflags(write=False)
        # Weight CDF for inverse-transform sampling; the final entry is
        # exactly 1 (x / x == 1.0 in IEEE), so a uniform draw in [0, 1)
        # always lands inside the table.
        self._cdf = self._weights.cumsum()
        self._cdf /= self._cdf[-1]
        self._cdf.setflags(write=False)

        self._region = BoxRegion(
            self._samples.min(axis=0), self._samples.max(axis=0)
        )
        self._mean = self._weights @ self._samples
        self._second = self._weights @ (self._samples**2)
        self._mean.setflags(write=False)
        self._second.setflags(write=False)

    @property
    def samples(self) -> FloatArray:
        """The underlying sample matrix, shape ``(s, m)``."""
        return self._samples

    @property
    def weights(self) -> FloatArray:
        """Normalized sample weights, shape ``(s,)``."""
        return self._weights

    @property
    def n_samples(self) -> int:
        """Number of stored samples."""
        return self._samples.shape[0]

    @property
    def region(self) -> BoxRegion:
        return self._region

    @property
    def mean_vector(self) -> FloatArray:
        return self._mean

    @property
    def second_moment_vector(self) -> FloatArray:
        return self._second

    def pdf(self, points: np.ndarray) -> np.ndarray:
        """Probability *mass* of exact sample matches.

        An empirical distribution has no density; we return the summed
        weight of samples exactly equal to each query point, which is the
        natural discrete analogue and is sufficient for the algorithms
        that only need sampling and moments.
        """
        pts = self._points_matrix(points)
        out = np.zeros(pts.shape[0])
        for idx in range(pts.shape[0]):
            hits = np.all(self._samples == pts[idx], axis=1)
            out[idx] = float(self._weights[hits].sum())
        return out

    def sample(self, size: int, seed: SeedLike = None) -> FloatArray:
        """Bootstrap resample of the stored points.

        Implemented as an explicit inverse-CDF transform over one
        uniform per draw — the same operation ``Generator.choice``
        performs internally (stream-identical).  The batch sampler
        (:mod:`repro.uncertainty.batch`) calls this method for every
        empirical object, in collection order.
        """
        rng = ensure_rng(seed)
        indices = np.searchsorted(self._cdf, rng.random(size), side="right")
        return self._samples[np.minimum(indices, self.n_samples - 1)]
