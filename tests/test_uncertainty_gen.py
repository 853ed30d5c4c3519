"""Tests for the Section 5.1 uncertainty-generation pipeline (S22)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen import PDF_FAMILIES, UncertaintyGenerator
from repro.exceptions import InvalidParameterError
from repro.objects import UncertainDataset, UncertainObject
from repro.uncertainty import (
    IndependentProduct,
    TruncatedExponentialDistribution,
    TruncatedNormalDistribution,
    UniformDistribution,
)
from repro.uncertainty.sampling import MetropolisHastingsSampler
from repro.utils.rng import ensure_rng


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(7)
    return rng.normal(0, 3, size=(40, 3)), rng.integers(0, 3, size=40)


@pytest.mark.parametrize("family", PDF_FAMILIES)
class TestPerFamily:
    def test_pair_shapes(self, family, points):
        pts, labels = points
        gen = UncertaintyGenerator(family=family, spread=0.5)
        pair = gen.generate(pts, labels, seed=0)
        assert len(pair.perturbed) == 40
        assert len(pair.uncertain) == 40
        assert pair.uncertain.dim == 3

    def test_perturbed_is_deterministic(self, family, points):
        pts, labels = points
        pair = UncertaintyGenerator(family=family).generate(pts, labels, seed=0)
        assert np.all(pair.perturbed.total_variances == 0.0)

    def test_uncertain_has_variance(self, family, points):
        pts, labels = points
        pair = UncertaintyGenerator(family=family).generate(pts, labels, seed=0)
        assert np.all(pair.uncertain.total_variances > 0.0)

    def test_expected_values_near_original(self, family, points):
        """mu(f_w) = w for the untruncated pdf; truncation (Case 2)
        preserves it exactly for the symmetric families and approximately
        for the exponential."""
        pts, labels = points
        gen = UncertaintyGenerator(family=family, spread=0.5, mass=0.95)
        pair = gen.generate(pts, labels, seed=1)
        mu = pair.uncertain.mu_matrix
        scale = pts.std(axis=0)
        if family == "exponential":
            assert np.all(np.abs(mu - pts) < 0.6 * scale)
        else:
            assert np.allclose(mu, pts, atol=1e-8)

    def test_labels_carried_through(self, family, points):
        pts, labels = points
        pair = UncertaintyGenerator(family=family).generate(pts, labels, seed=2)
        assert np.array_equal(pair.perturbed.labels, labels)
        assert np.array_equal(pair.uncertain.labels, labels)

    def test_reproducible(self, family, points):
        pts, labels = points
        a = UncertaintyGenerator(family=family).generate(pts, labels, seed=3)
        b = UncertaintyGenerator(family=family).generate(pts, labels, seed=3)
        assert_same_bits(a.perturbed.mu_matrix, b.perturbed.mu_matrix)
        assert_same_bits(a.uncertain.mu_matrix, b.uncertain.mu_matrix)

    def test_perturbation_draws_from_assigned_pdf(self, family, points):
        """Each perturbed point must lie within the (untruncated) support
        scale of its pdf — loosely: within a few column stds of w."""
        pts, labels = points
        gen = UncertaintyGenerator(family=family, spread=0.5)
        pair = gen.generate(pts, labels, seed=4)
        deviation = np.abs(pair.perturbed.mu_matrix - pts)
        column_std = pts.std(axis=0)
        assert np.all(deviation < 8.0 * column_std)

    def test_region_mass_is_truncated(self, family, points):
        """Case-2 regions are bounded (truncation happened)."""
        pts, labels = points
        pair = UncertaintyGenerator(family=family, mass=0.95).generate(
            pts, labels, seed=5
        )
        for obj in pair.uncertain:
            assert np.all(np.isfinite(obj.region.lower))
            assert np.all(np.isfinite(obj.region.upper))


class TestGeneratorOptions:
    def test_mcmc_mode(self, points):
        pts, labels = points
        gen = UncertaintyGenerator(family="normal", use_mcmc=True)
        pair = gen.generate(pts[:10], labels[:10], seed=0)
        assert len(pair.perturbed) == 10
        deviation = np.abs(pair.perturbed.mu_matrix - pts[:10])
        assert np.all(deviation < 10.0 * pts.std(axis=0))

    def test_spread_scales_variance(self, points):
        pts, labels = points
        small = UncertaintyGenerator(family="normal", spread=0.2).generate(
            pts, labels, seed=6
        )
        large = UncertaintyGenerator(family="normal", spread=2.0).generate(
            pts, labels, seed=6
        )
        assert (
            large.uncertain.total_variances.mean()
            > small.uncertain.total_variances.mean()
        )

    def test_uncertain_dataset_shortcut(self, points):
        pts, labels = points
        gen = UncertaintyGenerator(family="uniform")
        ds = gen.uncertain_dataset(pts, labels, seed=7)
        assert len(ds) == 40

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            UncertaintyGenerator(family="cauchy")
        with pytest.raises(InvalidParameterError):
            UncertaintyGenerator(spread=0.0)
        with pytest.raises(InvalidParameterError):
            UncertaintyGenerator(mass=1.5)

    def test_label_length_mismatch(self, points):
        pts, _ = points
        with pytest.raises(InvalidParameterError):
            UncertaintyGenerator().generate(pts, labels=[0, 1], seed=0)

    def test_unlabeled_generation(self, points):
        pts, _ = points
        pair = UncertaintyGenerator().generate(pts, seed=8)
        assert pair.uncertain.labels is None


# ----------------------------------------------------------------------
# Frozen reference: the per-point generator before it went array-at-once.
# ----------------------------------------------------------------------
def _legacy_point_pdf(family, point, scales, rng, mass, reuse=None):
    """Marginals of ``f_w`` (``reuse``: re-truncate these to ``mass``)."""
    marginals = []
    for j, (w, s) in enumerate(zip(point, scales)):
        if family == "uniform":
            if reuse is not None:
                base = reuse[j]
                half = 0.5 * (base.support_upper - base.support_lower)
                center = 0.5 * (base.support_upper + base.support_lower)
            else:
                half = float(s) * np.sqrt(3.0)
                center = float(w)
            marginals.append(
                UniformDistribution.centered(center, half * mass)
                if mass < 1.0
                else UniformDistribution.centered(center, half)
            )
        elif family == "normal":
            if reuse is not None:
                loc, scale = reuse[j].loc, reuse[j].scale
            else:
                loc, scale = float(w), float(s)
            marginals.append(
                TruncatedNormalDistribution.central_mass(loc, scale, mass)
            )
        else:
            if reuse is not None:
                base = reuse[j]
                rate = base.rate
                direction = base.direction
                mean = base.origin + direction / rate
            else:
                rate = 1.0 / float(s)
                direction = 1 if rng.random() < 0.5 else -1
                mean = float(w)
            marginals.append(
                TruncatedExponentialDistribution.with_mean(
                    mean, rate, direction=direction, mass=mass
                )
            )
    return marginals


def _legacy_perturb(full, truncated, mcmc, rng):
    if mcmc is None:
        return full.sample(1, rng)[0]
    return mcmc.draw(truncated.pdf, truncated.region, size=1)[0]


def _legacy_generate(generator, points, labels, seed):
    """``(D', D'')`` of the per-point loop, one object at a time."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    n, m = pts.shape
    rng = ensure_rng(seed)
    column_std = pts.std(axis=0)
    column_std = np.where(column_std > 0, column_std, 1.0)
    scales = rng.uniform(0.1, 1.0, size=(n, m)) * generator.spread * column_std
    mcmc = MetropolisHastingsSampler(seed=rng) if generator.use_mcmc else None
    perturbed, uncertain = [], []
    for i in range(n):
        label = None if labels is None else int(labels[i])
        full_marginals = _legacy_point_pdf(
            generator.family, pts[i], scales[i], rng, mass=1.0
        )
        trunc_marginals = _legacy_point_pdf(
            generator.family, pts[i], scales[i], rng, mass=generator.mass,
            reuse=full_marginals,
        )
        full = IndependentProduct(full_marginals)
        truncated = IndependentProduct(trunc_marginals)
        draw = _legacy_perturb(full, truncated, mcmc, rng)
        perturbed.append(UncertainObject.from_point(draw, label=label))
        uncertain.append(UncertainObject(truncated, label=label))
    return UncertainDataset(perturbed), UncertainDataset(uncertain)


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def assert_same_bits(actual, expected) -> None:
    np.testing.assert_array_equal(_bits(actual), _bits(expected))


def assert_same_labels(actual: UncertainDataset, expected: UncertainDataset) -> None:
    if expected.labels is None:
        assert actual.labels is None
    else:
        np.testing.assert_array_equal(actual.labels, expected.labels)


def assert_same_dataset(actual: UncertainDataset, expected: UncertainDataset) -> None:
    """Moments, region bounds, labels and one tensor draw, bit for bit."""
    for name in ("mu_matrix", "mu2_matrix", "sigma2_matrix"):
        assert_same_bits(getattr(actual, name), getattr(expected, name))
    for side in ("lower", "upper"):
        assert_same_bits(
            [getattr(obj.region, side) for obj in actual],
            [getattr(obj.region, side) for obj in expected],
        )
    assert_same_labels(actual, expected)
    assert_same_bits(
        actual.sample_tensor(3, seed=5), expected.sample_tensor(3, seed=5)
    )


def _case(n, m, seed):
    rng = np.random.default_rng(1000 + seed)
    points = rng.normal(0.0, 2.0, size=(n, m)) * rng.uniform(0.5, 20.0, size=m)
    if m > 1:
        points[:, -1] = 3.0  # a constant column: zero std, unit scale
    return points, rng.integers(0, 4, size=n)


class TestArrayAtOnceMatchesPerPointLoop:
    """The generator equals the frozen per-point loop, bit for bit, and
    leaves a shared Generator at the same position."""

    def _check(self, generator, points, labels, seed):
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        pair = generator.generate(points, labels, seed=rng_new)
        perturbed, uncertain = _legacy_generate(generator, points, labels, rng_old)
        assert_same_dataset(pair.uncertain, uncertain)
        assert_same_bits(pair.perturbed.mu_matrix, perturbed.mu_matrix)
        assert_same_labels(pair.perturbed, perturbed)
        assert_same_bits(rng_new.random(4), rng_old.random(4))

    @pytest.mark.parametrize("family", PDF_FAMILIES)
    @pytest.mark.parametrize("mass", [0.95, 1.0])
    @pytest.mark.parametrize("shape", [(1, 3), (30, 1), (9, 42)], ids=str)
    @pytest.mark.parametrize("seed", [0, 17, 2012])
    @pytest.mark.parametrize("labelled", [True, False])
    def test_monte_carlo(self, family, mass, shape, seed, labelled):
        points, labels = _case(*shape, seed)
        generator = UncertaintyGenerator(family=family, spread=0.8, mass=mass)
        self._check(generator, points, labels if labelled else None, seed)

    @pytest.mark.parametrize("family", PDF_FAMILIES)
    @pytest.mark.parametrize("seed", [0, 17])
    def test_mcmc(self, family, seed):
        points, labels = _case(5, 3, seed)
        generator = UncertaintyGenerator(family=family, use_mcmc=True)
        self._check(generator, points, labels, seed)

    def test_mcmc_on_a_single_column(self):
        points, _ = _case(4, 1, 3)
        generator = UncertaintyGenerator(family="uniform", mass=1.0, use_mcmc=True)
        self._check(generator, points, None, 3)

    @pytest.mark.parametrize("family", PDF_FAMILIES)
    @pytest.mark.parametrize("use_mcmc", [False, True])
    def test_uncertain_dataset_is_generate_uncertain(self, family, use_mcmc):
        points, labels = _case(6, 4, 9)
        generator = UncertaintyGenerator(family=family, use_mcmc=use_mcmc)
        rng_short, rng_pair = np.random.default_rng(9), np.random.default_rng(9)
        alone = generator.uncertain_dataset(points, labels, seed=rng_short)
        pair = generator.generate(points, labels, seed=rng_pair)
        assert_same_dataset(alone, pair.uncertain)
        assert_same_bits(rng_short.random(4), rng_pair.random(4))
