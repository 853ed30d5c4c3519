"""Tests for the Metropolis-Hastings sampler (S2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.uncertainty import (
    BoxRegion,
    IndependentProduct,
    MetropolisHastingsSampler,
    TruncatedNormalDistribution,
    UniformDistribution,
)


def _target_2d():
    return IndependentProduct(
        [
            TruncatedNormalDistribution(1.0, 0.4, 0.0, 2.0),
            UniformDistribution(-1.0, 1.0),
        ]
    )


class TestMetropolisHastings:
    def test_samples_stay_in_region(self):
        target = _target_2d()
        sampler = MetropolisHastingsSampler(seed=0)
        samples = sampler.draw(target.pdf, target.region, 300)
        assert samples.shape == (300, 2)
        for row in samples:
            assert target.region.contains(row, atol=1e-9)

    def test_mean_converges_to_target(self):
        target = _target_2d()
        sampler = MetropolisHastingsSampler(seed=1, burn_in=300, thin=3)
        samples = sampler.draw(target.pdf, target.region, 4000)
        assert np.allclose(samples.mean(axis=0), target.mean_vector, atol=0.08)

    def test_diagnostics_recorded(self):
        target = _target_2d()
        sampler = MetropolisHastingsSampler(seed=2)
        sampler.draw(target.pdf, target.region, 100)
        diag = sampler.last_diagnostics
        assert diag is not None
        assert 0.0 < diag.acceptance_rate <= 1.0
        assert diag.proposed >= 100

    def test_explicit_initial_state(self):
        target = _target_2d()
        sampler = MetropolisHastingsSampler(seed=3)
        samples = sampler.draw(
            target.pdf, target.region, 10, initial=[1.0, 0.0]
        )
        assert samples.shape == (10, 2)

    def test_initial_outside_region_rejected(self):
        target = _target_2d()
        sampler = MetropolisHastingsSampler(seed=4)
        with pytest.raises(InvalidParameterError):
            sampler.draw(target.pdf, target.region, 10, initial=[10.0, 0.0])

    def test_invalid_hyperparameters(self):
        with pytest.raises(InvalidParameterError):
            MetropolisHastingsSampler(step_scale=0.0)
        with pytest.raises(InvalidParameterError):
            MetropolisHastingsSampler(burn_in=-1)
        with pytest.raises(InvalidParameterError):
            MetropolisHastingsSampler(thin=0)

    def test_zero_density_center_recovers(self):
        """A bimodal target whose region center has zero density."""
        def pdf(points):
            x = points[:, 0]
            return np.where((np.abs(x) > 0.5) & (np.abs(x) < 1.0), 1.0, 0.0)

        region = BoxRegion([-1.0], [1.0])
        sampler = MetropolisHastingsSampler(seed=5, burn_in=50)
        samples = sampler.draw(pdf, region, 200)
        assert np.all((np.abs(samples[:, 0]) > 0.5) & (np.abs(samples[:, 0]) < 1.0))

    def test_acceptance_rate_zero_when_no_proposals(self):
        from repro.uncertainty.sampling import MCMCDiagnostics

        assert MCMCDiagnostics(proposed=0, accepted=0).acceptance_rate == 0.0
