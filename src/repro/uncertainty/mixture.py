"""Finite mixtures of multivariate distributions.

The MMVar algorithm's cluster centroid (Eq. (10) of the paper) is the
*mixture model* of the cluster: region = union of member regions, pdf =
average of member pdfs.  :class:`MixtureDistribution` implements that
object with exact moments (Lemma 2: mixture moments are the weighted
averages of component moments).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro._typing import FloatArray, SeedLike, VectorLike
from repro.exceptions import InvalidParameterError
from repro.uncertainty.base import MultivariateDistribution
from repro.uncertainty.region import BoxRegion
from repro.utils.rng import ensure_rng
from repro.utils.validation import ensure_vector


class MixtureDistribution(MultivariateDistribution):
    """Weighted finite mixture of multivariate components.

    Parameters
    ----------
    components:
        Component distributions, all of the same dimensionality.
    weights:
        Mixing proportions; default is uniform (the MMVar centroid uses
        weight ``1/|C|`` per member).  Must be nonnegative and sum to 1.
    """

    __slots__ = ("_components", "_weights", "_cdf", "_region", "_mean", "_second")

    def __init__(
        self,
        components: Sequence[MultivariateDistribution],
        weights: Optional[VectorLike] = None,
    ):
        if not components:
            raise InvalidParameterError("at least one component is required")
        self._components = tuple(components)
        dim = self._components[0].dim
        for comp in self._components:
            if comp.dim != dim:
                raise InvalidParameterError(
                    "all mixture components must share dimensionality"
                )
        n = len(self._components)
        if weights is None:
            self._weights = np.full(n, 1.0 / n)
        else:
            self._weights = ensure_vector(weights, "weights", dim=n)
            if np.any(self._weights < 0):
                raise InvalidParameterError("weights must be nonnegative")
            total = float(self._weights.sum())
            if not np.isclose(total, 1.0, rtol=1e-9, atol=1e-12):
                raise InvalidParameterError(
                    f"weights must sum to 1, got {total}"
                )
        self._weights.setflags(write=False)
        # Mixing-weight CDF for inverse-transform component selection;
        # the final entry is exactly 1 (x / x == 1.0 in IEEE).
        self._cdf = np.cumsum(self._weights)
        self._cdf /= self._cdf[-1]
        self._cdf.setflags(write=False)

        region = self._components[0].region
        for comp in self._components[1:]:
            region = region.union_box(comp.region)
        self._region = region

        # Lemma 2: moments of a mixture are the weighted component moments.
        self._mean = np.zeros(dim)
        self._second = np.zeros(dim)
        for weight, comp in zip(self._weights, self._components):
            self._mean += weight * comp.mean_vector
            self._second += weight * comp.second_moment_vector
        self._mean.setflags(write=False)
        self._second.setflags(write=False)

    @property
    def components(self) -> tuple[MultivariateDistribution, ...]:
        """The mixture components."""
        return self._components

    @property
    def weights(self) -> FloatArray:
        """The mixing proportions."""
        return self._weights

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
        pts = self._points_matrix(points)
        density = np.zeros(pts.shape[0])
        for weight, comp in zip(self._weights, self._components):
            if weight > 0.0:
                density += weight * comp.pdf(pts)
        return density

    def sample(self, size: int, seed: SeedLike = None) -> FloatArray:
        """Draw ``size`` i.i.d. mixture samples.

        Canonical two-stage scheme threading one :class:`Generator`:

        1. one uniform per draw selects the component by inverse CDF of
           the mixing weights;
        2. one batched tensor draw over *all* components (via
           :func:`repro.uncertainty.batch.sample_tensor`, which shares
           this ``rng``) realizes every component at every sample slot,
           and the selection gathers from it.

        The batch sampler calls this method for every mixture, in
        collection order, so ``sample_tensor([mix], S, seed)`` equals
        ``mix.sample(S, seed)`` draw for draw.  Realizing every
        component at every slot keeps the stream layout independent of
        which components are chosen; a c-component mixture therefore
        draws c times the samples it keeps.  The library's mixtures are
        small (MMVar centroids use their *moments*, not draws); for
        sampling-heavy use of mixtures with many expensive components,
        draw from the components directly instead.
        """
        from repro.uncertainty.batch import sample_tensor

        rng = ensure_rng(seed)
        chosen = np.searchsorted(self._cdf, rng.random(size), side="right")
        chosen = np.minimum(chosen, len(self._components) - 1)
        realizations = sample_tensor(self._components, size, rng)
        return realizations[chosen, np.arange(size)]
