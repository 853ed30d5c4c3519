"""Tests for the family-grouped batch sampler (repro.uncertainty.batch)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen import make_blobs_uncertain
from repro.exceptions import DimensionMismatchError, InvalidParameterError
from repro.objects import UncertainDataset
from repro.uncertainty import (
    EmpiricalDistribution,
    IndependentProduct,
    MixtureDistribution,
    TriangularDistribution,
    TruncatedExponentialDistribution,
    TruncatedNormalDistribution,
    UniformDistribution,
    batch_families,
    build_sampling_plan,
    is_batchable,
    sample_tensor,
)
from repro.uncertainty.batch import _FAMILIES
from repro.uncertainty.point import MultivariatePointMass, PointMassDistribution

from tests.conftest import random_uncertain_objects


def _family_marginals(family, rng, count=7):
    """A diverse batch of marginals of one family."""
    out = []
    for _ in range(count):
        center = float(rng.normal(0.0, 3.0))
        scale = float(rng.uniform(0.2, 2.0))
        if family is UniformDistribution:
            out.append(UniformDistribution.centered(center, scale))
        elif family is TruncatedNormalDistribution:
            out.append(
                TruncatedNormalDistribution.central_mass(center, scale, 0.95)
            )
        elif family is TruncatedExponentialDistribution:
            direction = 1 if rng.random() < 0.5 else -1
            out.append(
                TruncatedExponentialDistribution.with_mean(
                    center, 1.0 / scale, direction=direction, mass=0.95
                )
            )
        elif family is TriangularDistribution:
            out.append(TriangularDistribution.symmetric(center, scale))
        elif family is PointMassDistribution:
            out.append(PointMassDistribution(center))
        else:  # pragma: no cover - keep the parametrization honest
            raise AssertionError(f"unhandled family {family}")
    return out


class TestFamilyEquivalence:
    """Batched quantile transforms must match the scalar ppf exactly."""

    @pytest.mark.parametrize(
        "family", list(batch_families()), ids=lambda f: f.__name__
    )
    def test_batch_matches_per_marginal_ppf(self, family, rng):
        marginals = _family_marginals(family, rng)
        q = rng.random((len(marginals), 33))
        stack, apply = _FAMILIES[family]
        batched = apply(q, *stack(marginals))
        for i, marginal in enumerate(marginals):
            np.testing.assert_array_equal(
                batched[i],
                marginal.ppf(q[i]),
                err_msg=f"{family.__name__} marginal {i} diverged",
            )

    @pytest.mark.parametrize(
        "family", list(batch_families()), ids=lambda f: f.__name__
    )
    def test_degenerate_quantiles(self, family, rng):
        """Endpoints q=0 and q=1 go through the same clips as the ppf."""
        marginals = _family_marginals(family, rng, count=3)
        q = np.tile(np.array([0.0, 0.5, 1.0]), (len(marginals), 1))
        stack, apply = _FAMILIES[family]
        batched = apply(q, *stack(marginals))
        for i, marginal in enumerate(marginals):
            np.testing.assert_array_equal(batched[i], marginal.ppf(q[i]))

    def test_triangular_degenerate_sides(self):
        """mode == lower / mode == upper collapse like the scalar ppf."""
        marginals = [
            TriangularDistribution(0.0, 0.0, 2.0),
            TriangularDistribution(-1.0, 1.0, 1.0),
        ]
        q = np.tile(np.linspace(0.0, 1.0, 9), (2, 1))
        stack, apply = _FAMILIES[TriangularDistribution]
        batched = apply(q, *stack(marginals))
        for i, marginal in enumerate(marginals):
            np.testing.assert_array_equal(batched[i], marginal.ppf(q[i]))


class TestSampleTensor:
    def test_deterministic_under_fixed_seed(self, mixed_dataset):
        first = mixed_dataset.sample_tensor(12, seed=99)
        second = mixed_dataset.sample_tensor(12, seed=99)
        np.testing.assert_array_equal(first, second)

    def test_different_seeds_differ(self, blob_dataset):
        a = blob_dataset.sample_tensor(8, seed=0)
        b = blob_dataset.sample_tensor(8, seed=1)
        assert not np.array_equal(a, b)

    def test_shape(self, mixed_dataset):
        tensor = mixed_dataset.sample_tensor(5, seed=0)
        assert tensor.shape == (len(mixed_dataset), 5, mixed_dataset.dim)

    def test_samples_land_in_regions(self, mixed_dataset):
        tensor = mixed_dataset.sample_tensor(64, seed=3)
        for idx, obj in enumerate(mixed_dataset):
            lower = obj.region.lower - 1e-12
            upper = obj.region.upper + 1e-12
            assert np.all(tensor[idx] >= lower)
            assert np.all(tensor[idx] <= upper)

    def test_sample_means_approach_moments(self):
        data = make_blobs_uncertain(n_objects=40, n_clusters=2, seed=5)
        tensor = data.sample_tensor(4096, seed=7)
        np.testing.assert_allclose(
            tensor.mean(axis=1), data.mu_matrix, atol=0.1
        )

    def test_point_mass_objects_are_constant(self):
        data = UncertainDataset.from_points(np.array([[1.0, -2.0], [0.5, 3.0]]))
        tensor = data.sample_tensor(6, seed=0)
        np.testing.assert_array_equal(
            tensor, np.repeat(data.mu_matrix[:, None, :], 6, axis=1)
        )

    def test_empirical_and_mixture_grouped(self, rng):
        """Empirical/mixture objects are grouped, not per-object fallback."""
        empirical = EmpiricalDistribution(rng.normal(0.0, 1.0, size=(50, 2)))
        mixture = MixtureDistribution(
            [
                MultivariatePointMass([0.0, 0.0]),
                MultivariatePointMass([1.0, 1.0]),
            ]
        )
        uniform = IndependentProduct(
            [UniformDistribution(0.0, 1.0), UniformDistribution(2.0, 3.0)]
        )
        plan = build_sampling_plan([empirical, mixture, uniform])
        assert plan.n_fallback == 0
        assert plan.n_empirical == 1
        assert plan.n_mixture == 1
        assert plan.n_batched_cells == 2
        tensor = plan.sample(16, seed=4)
        assert tensor.shape == (3, 16, 2)
        assert np.all(tensor[2, :, 0] <= 1.0)
        assert np.all(tensor[2, :, 1] >= 2.0)

    def test_custom_distribution_falls_back(self, rng):
        """Unregistered multivariates still sample via their own method."""
        from repro.uncertainty.base import MultivariateDistribution
        from repro.uncertainty.region import BoxRegion
        from repro.utils.rng import ensure_rng

        class Spherical(MultivariateDistribution):
            """A toy multivariate with no registered batch transform."""

            @property
            def region(self):
                return BoxRegion([-1.0, -1.0], [1.0, 1.0])

            @property
            def mean_vector(self):
                return np.zeros(2)

            @property
            def second_moment_vector(self):
                return np.full(2, 0.25)

            def pdf(self, points):
                return np.ones(self._points_matrix(points).shape[0])

            def sample(self, size, seed=None):
                gen = ensure_rng(seed)
                return gen.uniform(-1.0, 1.0, size=(size, 2))

        custom = Spherical()
        uniform = IndependentProduct(
            [UniformDistribution(0.0, 1.0), UniformDistribution(2.0, 3.0)]
        )
        assert not is_batchable(custom)
        plan = build_sampling_plan([custom, uniform])
        assert plan.n_fallback == 1
        tensor = plan.sample(12, seed=3)
        assert tensor.shape == (2, 12, 2)
        assert np.all(np.abs(tensor[0]) <= 1.0)

    def test_mixed_family_objects_batch(self, mixed_dataset):
        """Objects mixing families per dimension still use the fast path."""
        plan = build_sampling_plan(
            [obj.distribution for obj in mixed_dataset]
        )
        # Every object in the fixture is a product of registered
        # families or a point mass: nothing falls back.
        assert plan.n_fallback == 0

    def test_equivalence_with_per_object_distribution(self, rng):
        """Batch tensor rows are draws from each object's distribution.

        Statistical check per object: compare batched sample moments
        with the object's analytic moments.
        """
        objects = random_uncertain_objects(rng, n=12, dim=3)
        tensor = sample_tensor(
            [o.distribution for o in objects], 2048, seed=11
        )
        for i, obj in enumerate(objects):
            np.testing.assert_allclose(
                tensor[i].mean(axis=0), obj.mu, atol=0.15
            )
            np.testing.assert_allclose(
                tensor[i].var(axis=0), obj.sigma2, atol=0.3
            )

    def test_validation(self, blob_dataset):
        with pytest.raises(InvalidParameterError):
            sample_tensor([], 4)
        with pytest.raises(InvalidParameterError):
            blob_dataset.sample_tensor(0)
        with pytest.raises(DimensionMismatchError):
            sample_tensor(
                [
                    MultivariatePointMass([0.0, 1.0]),
                    MultivariatePointMass([0.0, 1.0, 2.0]),
                ],
                4,
            )

    def test_is_batchable(self, rng):
        assert is_batchable(MultivariatePointMass([1.0]))
        assert is_batchable(
            IndependentProduct([UniformDistribution(0.0, 1.0)])
        )
        assert is_batchable(EmpiricalDistribution(rng.normal(size=(10, 2))))
        assert is_batchable(
            MixtureDistribution(
                [MultivariatePointMass([0.0]), MultivariatePointMass([1.0])]
            )
        )

    def test_generator_seed_shares_stream(self, blob_dataset):
        """Passing a Generator consumes it (two calls differ)."""
        gen = np.random.default_rng(0)
        a = blob_dataset.sample_tensor(4, seed=gen)
        b = blob_dataset.sample_tensor(4, seed=gen)
        assert not np.array_equal(a, b)


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (sup CDF distance)."""
    grid = np.sort(np.concatenate([a, b]))
    cdf_a = np.searchsorted(np.sort(a), grid, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


class TestEmpiricalBatchEquivalence:
    """Grouped empirical sampling ≡ the per-object path, exactly."""

    def _empiricals(self, rng, count=5):
        out = []
        for i in range(count):
            points = rng.normal(i, 1.0 + 0.2 * i, size=(10 + 7 * i, 2))
            weights = rng.random(points.shape[0]) if i % 2 else None
            out.append(EmpiricalDistribution(points, weights=weights))
        return out

    def test_single_object_stream_identical(self, rng):
        for dist in self._empiricals(rng):
            batched = sample_tensor([dist], 64, seed=17)[0]
            sequential = dist.sample(64, seed=17)
            np.testing.assert_array_equal(batched, sequential)

    def test_homogeneous_group_matches_per_object_loop(self, rng):
        dists = self._empiricals(rng)
        batched = sample_tensor(dists, 32, seed=3)
        gen = np.random.default_rng(3)
        looped = np.stack([d.sample(32, gen) for d in dists])
        np.testing.assert_array_equal(batched, looped)

    def test_moments_match_analytic(self, rng):
        dists = self._empiricals(rng)
        tensor = sample_tensor(dists, 8192, seed=5)
        for i, dist in enumerate(dists):
            np.testing.assert_allclose(
                tensor[i].mean(axis=0), dist.mean_vector, atol=0.15
            )
            np.testing.assert_allclose(
                (tensor[i] ** 2).mean(axis=0),
                dist.second_moment_vector,
                atol=0.5,
            )

    def test_ks_against_per_object_path(self, rng):
        """Distributional check: batched draws vs the sequential path."""
        dists = self._empiricals(rng)
        tensor = sample_tensor(dists, 4096, seed=8)
        for i, dist in enumerate(dists):
            sequential = dist.sample(4096, seed=1234 + i)
            for dim in range(2):
                assert _ks_statistic(tensor[i, :, dim], sequential[:, dim]) < 0.05

    def test_zero_weight_points_never_drawn(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        dist = EmpiricalDistribution(points, weights=[0.0, 1.0, 0.0])
        tensor = sample_tensor([dist], 256, seed=0)
        np.testing.assert_array_equal(
            tensor[0], np.ones((256, 2))
        )


class TestMixtureBatchEquivalence:
    """Grouped mixture sampling: exact single-object streams, correct
    distribution for heterogeneous groups."""

    def _mixture(self, rng, shift=0.0):
        return MixtureDistribution(
            [
                IndependentProduct(
                    [
                        UniformDistribution(shift, shift + 1.0),
                        TruncatedNormalDistribution(shift, 0.5, shift - 2, shift + 2),
                    ]
                ),
                MultivariatePointMass([shift + 3.0, shift + 3.0]),
                EmpiricalDistribution(rng.normal(shift, 1.0, size=(9, 2))),
            ],
            weights=[0.5, 0.2, 0.3],
        )

    def test_single_object_stream_identical(self, rng):
        """Regression (stream-alignment fix): Mixture.sample threads one
        Generator through selection and component realization, so the
        batched path reproduces it draw for draw."""
        mix = self._mixture(rng)
        for seed in range(5):
            batched = sample_tensor([mix], 48, seed=seed)[0]
            sequential = mix.sample(48, seed=seed)
            np.testing.assert_array_equal(batched, sequential)

    def test_sequential_draws_deterministic(self, rng):
        mix = self._mixture(rng)
        np.testing.assert_array_equal(
            mix.sample(32, seed=7), mix.sample(32, seed=7)
        )

    def test_group_of_mixtures_moments(self, rng):
        mixtures = [self._mixture(rng, shift=float(s)) for s in range(3)]
        tensor = sample_tensor(mixtures, 8192, seed=2)
        for i, mix in enumerate(mixtures):
            np.testing.assert_allclose(
                tensor[i].mean(axis=0), mix.mean_vector, atol=0.15
            )
            np.testing.assert_allclose(
                (tensor[i] ** 2).mean(axis=0),
                mix.second_moment_vector,
                rtol=0.1,
                atol=0.3,
            )

    def test_ks_against_per_object_path(self, rng):
        mixtures = [self._mixture(rng, shift=float(s)) for s in range(3)]
        tensor = sample_tensor(mixtures, 4096, seed=9)
        for i, mix in enumerate(mixtures):
            sequential = mix.sample(4096, seed=4321 + i)
            for dim in range(2):
                assert _ks_statistic(tensor[i, :, dim], sequential[:, dim]) < 0.05

    def test_nested_mixture_batches(self, rng):
        inner = MixtureDistribution(
            [MultivariatePointMass([0.0, 0.0]), MultivariatePointMass([1.0, 1.0])]
        )
        outer = MixtureDistribution(
            [inner, MultivariatePointMass([5.0, 5.0])], weights=[0.5, 0.5]
        )
        assert is_batchable(outer)
        plan = build_sampling_plan([outer])
        assert plan.n_mixture == 1
        tensor = plan.sample(2048, seed=0)
        np.testing.assert_allclose(
            tensor[0].mean(axis=0), outer.mean_vector, atol=0.1
        )

    def test_zero_weight_component_never_drawn(self):
        mix = MixtureDistribution(
            [MultivariatePointMass([0.0]), MultivariatePointMass([9.0])],
            weights=[0.0, 1.0],
        )
        tensor = sample_tensor([mix], 512, seed=0)
        np.testing.assert_array_equal(tensor[0], np.full((512, 1), 9.0))

    def test_mixture_with_unbatchable_component_falls_back(self, rng):
        from repro.uncertainty.base import MultivariateDistribution
        from repro.uncertainty.region import BoxRegion
        from repro.utils.rng import ensure_rng

        class Custom(MultivariateDistribution):
            @property
            def region(self):
                return BoxRegion([0.0], [1.0])

            @property
            def mean_vector(self):
                return np.array([0.5])

            @property
            def second_moment_vector(self):
                return np.array([1.0 / 3.0])

            def pdf(self, points):
                return np.ones(self._points_matrix(points).shape[0])

            def sample(self, size, seed=None):
                return ensure_rng(seed).random((size, 1))

        mix = MixtureDistribution(
            [Custom(), MultivariatePointMass([2.0])], weights=[0.5, 0.5]
        )
        assert not is_batchable(mix)
        plan = build_sampling_plan([mix])
        assert plan.n_fallback == 1
        tensor = plan.sample(64, seed=1)
        assert tensor.shape == (1, 64, 1)


class TestRowCdfTableExactness:
    """The grouped lookup must equal per-row searchsorted exactly, even
    at ulp-scale ties the row-shift trick would otherwise round over."""

    def test_matches_per_row_searchsorted_randomized(self, rng):
        from repro.uncertainty.batch import _RowCdfTable

        cdfs = []
        for _ in range(6):
            w = rng.random(rng.integers(2, 12))
            cdf = w.cumsum()
            cdf /= cdf[-1]
            cdfs.append(cdf)
        table = _RowCdfTable(cdfs)
        q = rng.random((6, 200))
        flat = table.lookup(q)
        for r, cdf in enumerate(cdfs):
            expected = np.minimum(
                np.searchsorted(cdf, q[r], side="right"), cdf.size - 1
            )
            np.testing.assert_array_equal(flat[r] - table.offsets[r], expected)

    def test_ulp_tie_refined(self):
        """Adversarial: a uniform one ulp below a CDF boundary in a
        high-index row — the shifted comparison rounds them equal, the
        refinement must restore the exact per-row answer."""
        from repro.uncertainty.batch import _RowCdfTable

        cdf = np.array([0.5, 1.0])
        rows = 9
        table = _RowCdfTable([cdf] * rows)
        below = np.nextafter(0.5, 0.0)  # < 0.5, collapses under + r
        q = np.full((rows, 2), below)
        q[:, 1] = 0.5  # exactly the boundary: counted by side="right"
        flat = table.lookup(q)
        for r in range(rows):
            assert flat[r, 0] - table.offsets[r] == 0, f"row {r} rounded over"
            assert flat[r, 1] - table.offsets[r] == 1

    def test_duplicate_boundaries(self):
        """Zero-weight runs create duplicate CDF entries; the count must
        include the whole run, exactly as per-row searchsorted does."""
        from repro.uncertainty.batch import _RowCdfTable

        cdf = np.array([0.25, 0.25, 0.25, 1.0])
        table = _RowCdfTable([cdf] * 4)
        q = np.full((4, 1), 0.25)
        flat = table.lookup(q)
        for r in range(4):
            assert flat[r, 0] - table.offsets[r] == 3


class TestAllFamiliesCovered:
    """The whole-repo coverage claim: a dataset mixing every
    distribution family batches with zero per-object fallbacks."""

    def test_zero_fallbacks_across_all_seven_families(self, rng):
        seven_families = [
            IndependentProduct(
                [UniformDistribution(0.0, 1.0), UniformDistribution(1.0, 2.0)]
            ),
            IndependentProduct(
                [
                    TruncatedNormalDistribution(0.0, 1.0, -2.0, 2.0),
                    TriangularDistribution(0.0, 0.5, 1.0),
                ]
            ),
            IndependentProduct(
                [
                    TruncatedExponentialDistribution(0.5, 2.0, cutoff=3.0),
                    PointMassDistribution(1.0),
                ]
            ),
            MultivariatePointMass([0.0, 0.0]),
            EmpiricalDistribution(rng.normal(0.0, 1.0, size=(20, 2))),
            MixtureDistribution(
                [
                    IndependentProduct(
                        [UniformDistribution(0.0, 1.0), UniformDistribution(0.0, 1.0)]
                    ),
                    MultivariatePointMass([4.0, 4.0]),
                ],
                weights=[0.6, 0.4],
            ),
        ]
        plan = build_sampling_plan(seven_families)
        assert plan.n_fallback == 0
        assert plan.n_empirical == 1
        assert plan.n_mixture == 1
        tensor = plan.sample(128, seed=6)
        assert tensor.shape == (6, 128, 2)
        assert np.isfinite(tensor).all()
        # Re-draw determinism over the heterogeneous plan.
        np.testing.assert_array_equal(tensor, plan.sample(128, seed=6))

