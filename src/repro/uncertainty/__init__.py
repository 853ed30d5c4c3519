"""Uncertainty-model substrate: regions, pdf families, samplers (S1-S2).

This subpackage implements Definition 1 of the paper — multivariate
uncertain representations ``(R, f)`` — together with the three pdf
families the evaluation uses (Uniform, Normal, Exponential), degenerate
and empirical variants, mixtures (the MMVar centroid), and the Monte
Carlo / MCMC samplers that replace the SSJ library.
"""

from repro.uncertainty.base import MultivariateDistribution, UnivariateDistribution
from repro.uncertainty.batch import SamplingPlan, build_sampling_plan, sample_tensor
from repro.uncertainty.empirical import EmpiricalDistribution
from repro.uncertainty.exponential import TruncatedExponentialDistribution
from repro.uncertainty.mixture import MixtureDistribution
from repro.uncertainty.moments import (
    MomentEstimate,
    monte_carlo_moments,
    quadrature_mass,
    quadrature_moments,
)
from repro.uncertainty.normal import TruncatedNormalDistribution
from repro.uncertainty.point import MultivariatePointMass, PointMassDistribution
from repro.uncertainty.product import IndependentProduct
from repro.uncertainty.region import BoxRegion, scaled_minkowski_sum
from repro.uncertainty.sampling import MCMCDiagnostics, MetropolisHastingsSampler
from repro.uncertainty.triangular import TriangularDistribution
from repro.uncertainty.uniform import UniformDistribution

__all__ = [
    "MultivariateDistribution",
    "UnivariateDistribution",
    "SamplingPlan",
    "build_sampling_plan",
    "sample_tensor",
    "EmpiricalDistribution",
    "TruncatedExponentialDistribution",
    "MixtureDistribution",
    "MomentEstimate",
    "monte_carlo_moments",
    "quadrature_mass",
    "quadrature_moments",
    "TruncatedNormalDistribution",
    "MultivariatePointMass",
    "PointMassDistribution",
    "IndependentProduct",
    "BoxRegion",
    "scaled_minkowski_sum",
    "MCMCDiagnostics",
    "MetropolisHastingsSampler",
    "TriangularDistribution",
    "UniformDistribution",
]
