"""Monte Carlo and Markov-Chain Monte Carlo samplers.

The paper perturbs deterministic datasets "according to the classic
Monte Carlo and Markov Chain Monte Carlo methods" using the SSJ library.
SSJ is a Java dependency we cannot (and need not) ship; this module is
the stand-in substrate: plain Monte Carlo draws are each distribution's
own inverse-CDF ``sample`` (batched by
:func:`repro.uncertainty.batch.sample_tensor`), and
:class:`MetropolisHastingsSampler` is a random-walk MH chain targeting
an arbitrary pdf restricted to a box region, for distributions whose
quantile function is unavailable (e.g. a U-centroid's implicit pdf).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro._typing import FloatArray, SeedLike, VectorLike
from repro.exceptions import InvalidParameterError
from repro.uncertainty.region import BoxRegion
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive, ensure_vector


@dataclass
class MCMCDiagnostics:
    """Acceptance statistics of one Metropolis-Hastings run."""

    proposed: int
    accepted: int

    @property
    def acceptance_rate(self) -> float:
        """Fraction of proposals accepted (0 when nothing proposed)."""
        if self.proposed == 0:
            return 0.0
        return self.accepted / self.proposed


class MetropolisHastingsSampler:
    """Random-walk Metropolis-Hastings over a box-constrained density.

    Parameters
    ----------
    step_scale:
        Proposal standard deviation as a fraction of each region width
        (dimension-wise).  0.25 is a robust default for box-supported
        unimodal targets.
    burn_in:
        Number of initial iterations discarded.
    thin:
        Keep every ``thin``-th post-burn-in state to reduce autocorrelation.
    """

    def __init__(
        self,
        step_scale: float = 0.25,
        burn_in: int = 100,
        thin: int = 2,
        seed: SeedLike = None,
    ):
        self._step_scale = check_positive(step_scale, "step_scale")
        if burn_in < 0:
            raise InvalidParameterError(f"burn_in must be >= 0, got {burn_in}")
        if thin < 1:
            raise InvalidParameterError(f"thin must be >= 1, got {thin}")
        self._burn_in = int(burn_in)
        self._thin = int(thin)
        self._rng = ensure_rng(seed)
        self.last_diagnostics: Optional[MCMCDiagnostics] = None

    def draw(
        self,
        pdf: Callable[[np.ndarray], np.ndarray],
        region: BoxRegion,
        size: int,
        initial: Optional[VectorLike] = None,
    ) -> FloatArray:
        """Sample ``size`` points from ``pdf`` restricted to ``region``.

        Parameters
        ----------
        pdf:
            Unnormalized target density accepting an ``(n, m)`` matrix.
        region:
            Box support; proposals outside are rejected outright.
        size:
            Number of retained samples.
        initial:
            Chain start; defaults to the region center.
        """
        if size <= 0:
            raise InvalidParameterError(f"size must be > 0, got {size}")
        widths = np.where(region.widths > 0, region.widths, 1.0)
        step = self._step_scale * widths

        if initial is None:
            state = region.center.copy()
        else:
            state = ensure_vector(initial, "initial", dim=region.dim).copy()
            if not region.contains(state):
                raise InvalidParameterError("initial state must lie in the region")
        state_density = float(np.atleast_1d(pdf(state.reshape(1, -1)))[0])
        if state_density <= 0.0:
            # Start from a point of positive density found by rejection.
            state, state_density = self._find_positive_start(pdf, region)

        total_iters = self._burn_in + size * self._thin
        samples = np.empty((size, region.dim))
        kept = 0
        accepted = 0
        for iteration in range(total_iters):
            proposal = state + self._rng.normal(0.0, step)
            if region.contains(proposal):
                prop_density = float(np.atleast_1d(pdf(proposal.reshape(1, -1)))[0])
                if prop_density > 0.0:
                    ratio = prop_density / state_density if state_density > 0 else 1.0
                    if ratio >= 1.0 or self._rng.random() < ratio:
                        state = proposal
                        state_density = prop_density
                        accepted += 1
            past_burn_in = iteration >= self._burn_in
            if past_burn_in and (iteration - self._burn_in) % self._thin == 0:
                if kept < size:
                    samples[kept] = state
                    kept += 1
        self.last_diagnostics = MCMCDiagnostics(
            proposed=total_iters, accepted=accepted
        )
        return samples

    def _find_positive_start(
        self,
        pdf: Callable[[np.ndarray], np.ndarray],
        region: BoxRegion,
        attempts: int = 1024,
    ) -> tuple[FloatArray, float]:
        """Rejection-sample a starting state with positive density."""
        for _ in range(attempts):
            candidate = region.lower + self._rng.random(region.dim) * region.widths
            density = float(np.atleast_1d(pdf(candidate.reshape(1, -1)))[0])
            if density > 0.0:
                return candidate, density
        raise InvalidParameterError(
            "could not find a positive-density starting point in the region"
        )
