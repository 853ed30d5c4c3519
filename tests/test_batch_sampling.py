"""Tests for the family-grouped batch sampler (repro.uncertainty.batch)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

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
    build_sampling_plan,
    sample_tensor,
)
from repro.uncertainty.base import MultivariateDistribution
from repro.uncertainty.point import MultivariatePointMass, PointMassDistribution
from repro.uncertainty.region import BoxRegion
from repro.utils.rng import ensure_rng

from tests.conftest import random_uncertain_objects
from tests.test_uncertainty_gen import assert_same_bits

#: The batched families, in the order their groups draw from the stream.
FAMILIES = (
    UniformDistribution,
    TruncatedNormalDistribution,
    TruncatedExponentialDistribution,
    TriangularDistribution,
    PointMassDistribution,
)


class _Spherical(MultivariateDistribution):
    """A custom multivariate that the plan knows nothing about."""

    def __init__(self, dim: int = 2):
        self._dim = dim

    @property
    def region(self):
        return BoxRegion(-np.ones(self._dim), np.ones(self._dim))

    @property
    def mean_vector(self):
        return np.zeros(self._dim)

    @property
    def second_moment_vector(self):
        return np.full(self._dim, 1.0 / 3.0)

    def pdf(self, points):
        return np.ones(self._points_matrix(points).shape[0])

    def sample(self, size, seed=None):
        return ensure_rng(seed).uniform(-1.0, 1.0, size=(size, self._dim))


def _mixture(rng, shift=0.0):
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


def _plan_params(marginals):
    """The stacked params of the one family group of a plan over
    one-marginal products."""
    plan = build_sampling_plan([IndependentProduct([m]) for m in marginals])
    (group,) = plan._groups
    return group.params


class TestFamilyEquivalence:
    """Each marginal's ``ppf`` equals its family's ``quantile`` over the
    plan's stacked params, row by row."""

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
    def test_batch_matches_per_marginal_ppf(self, family, rng):
        marginals = _family_marginals(family, rng)
        q = rng.random((len(marginals), 33))
        batched = family.quantile(q, *_plan_params(marginals))
        for i, marginal in enumerate(marginals):
            assert_same_bits(batched[i], marginal.ppf(q[i]))

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
    def test_degenerate_quantiles(self, family, rng):
        """Endpoints q=0 and q=1 go through the same clips as the ppf."""
        marginals = _family_marginals(family, rng, count=3)
        q = np.tile(np.array([0.0, 0.5, 1.0]), (len(marginals), 1))
        batched = family.quantile(q, *_plan_params(marginals))
        for i, marginal in enumerate(marginals):
            assert_same_bits(batched[i], marginal.ppf(q[i]))

    def test_triangular_degenerate_sides(self):
        """mode == lower / mode == upper collapse to the endpoint."""
        marginals = [
            TriangularDistribution(0.0, 0.0, 2.0),
            TriangularDistribution(-1.0, 1.0, 1.0),
        ]
        q = np.tile(np.linspace(0.0, 1.0, 9), (2, 1))
        batched = TriangularDistribution.quantile(q, *_plan_params(marginals))
        for i, marginal in enumerate(marginals):
            assert_same_bits(batched[i], marginal.ppf(q[i]))
        assert batched[0, 0] == 0.0 and batched[1, -1] == 1.0


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

    def test_custom_distribution_falls_back(self):
        """Unknown multivariates still sample via their own method."""
        uniform = IndependentProduct(
            [UniformDistribution(0.0, 1.0), UniformDistribution(2.0, 3.0)]
        )
        plan = build_sampling_plan([_Spherical(), uniform])
        assert plan.n_fallback == 1
        tensor = plan.sample(12, seed=3)
        assert tensor.shape == (2, 12, 2)
        assert np.all(np.abs(tensor[0]) <= 1.0)

    def test_mixed_family_objects_batch(self, mixed_dataset):
        """Objects mixing families per dimension still use the fast path."""
        plan = build_sampling_plan(
            [obj.distribution for obj in mixed_dataset]
        )
        # Every object in the fixture is a product of batched
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
    """Empirical objects in a plan ≡ the per-object path, exactly."""

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
    """Mixtures in a plan: exact single-object streams, correct
    distribution for groups of mixtures."""

    def test_single_object_stream_identical(self, rng):
        """Regression (stream-alignment fix): Mixture.sample threads one
        Generator through selection and component realization, so the
        batched path reproduces it draw for draw."""
        mix = _mixture(rng)
        for seed in range(5):
            batched = sample_tensor([mix], 48, seed=seed)[0]
            sequential = mix.sample(48, seed=seed)
            np.testing.assert_array_equal(batched, sequential)

    def test_sequential_draws_deterministic(self, rng):
        mix = _mixture(rng)
        np.testing.assert_array_equal(
            mix.sample(32, seed=7), mix.sample(32, seed=7)
        )

    def test_group_of_mixtures_moments(self, rng):
        mixtures = [_mixture(rng, shift=float(s)) for s in range(3)]
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
        mixtures = [_mixture(rng, shift=float(s)) for s in range(3)]
        tensor = sample_tensor(mixtures, 4096, seed=9)
        for i, mix in enumerate(mixtures):
            sequential = mix.sample(4096, seed=4321 + i)
            for dim in range(2):
                assert _ks_statistic(tensor[i, :, dim], sequential[:, dim]) < 0.05

    def test_zero_weight_component_never_drawn(self):
        mix = MixtureDistribution(
            [MultivariatePointMass([0.0]), MultivariatePointMass([9.0])],
            weights=[0.0, 1.0],
        )
        tensor = sample_tensor([mix], 512, seed=0)
        np.testing.assert_array_equal(tensor[0], np.full((512, 1), 9.0))

    def test_mixture_with_unbatchable_component_falls_back(self):
        mix = MixtureDistribution(
            [_Spherical(dim=1), MultivariatePointMass([2.0])], weights=[0.5, 0.5]
        )
        plan = build_sampling_plan([mix])
        assert plan.n_fallback == 1
        tensor = plan.sample(64, seed=1)
        assert tensor.shape == (1, 64, 1)


class TestSelfSamplingObjectsDrawInCollectionOrder:
    """Empirical, mixture and custom objects draw through their own
    ``sample``, one after another in collection order, from the plan's
    one Generator."""

    @pytest.mark.parametrize(
        "layout",
        ["MM", "ME", "EM", "EE", "MEMEM", "CEMC", "NEM"],
    )
    def test_tensor_is_the_per_object_loop(self, layout, rng):
        """Layout letters: E empirical, M mixture, N mixture of mixtures,
        C custom."""

        def make(kind, i):
            if kind == "E":
                return EmpiricalDistribution(rng.normal(i, 1.0, size=(6 + 3 * i, 2)))
            if kind == "M":
                return _mixture(rng, shift=float(i))
            if kind == "N":  # a mixture of mixtures and an empirical object
                return MixtureDistribution(
                    [_mixture(rng), _mixture(rng, 5.0), make("E", i)],
                    weights=[0.2, 0.3, 0.5],
                )
            return _Spherical()

        objects = [make(kind, i) for i, kind in enumerate(layout)]
        plan = build_sampling_plan(objects)
        assert plan.n_fallback == len(objects)
        gen = np.random.default_rng(21)
        expected = np.stack([obj.sample(40, gen) for obj in objects])
        shared = np.random.default_rng(21)
        assert_same_bits(plan.sample(40, shared), expected)
        assert shared.bit_generator.state == gen.bit_generator.state


# ----------------------------------------------------------------------
# Frozen copy of the registry plan that drew every batched tensor
# before each family's inverse CDF became its own ``quantile``: the
# per-family stack/apply pairs, registered in this order, and the
# grouped draw.  Never route it through library code.
# ----------------------------------------------------------------------
def _legacy_column(values):
    return np.array(values, dtype=np.float64)[:, None]


def _legacy_uniform_stack(marginals):
    return (
        _legacy_column([m.support_lower for m in marginals]),
        _legacy_column([m.support_width for m in marginals]),
    )


def _legacy_uniform_apply(q, lower, width):
    return lower + q * width


def _legacy_truncated_normal_stack(marginals):
    return (
        _legacy_column([m.loc for m in marginals]),
        _legacy_column([m.scale for m in marginals]),
        _legacy_column([m.support_lower for m in marginals]),
        _legacy_column([m.support_upper for m in marginals]),
        _legacy_column([m._cdf_alpha for m in marginals]),
        _legacy_column([m._z_mass for m in marginals]),
    )


def _legacy_truncated_normal_apply(q, loc, scale, lower, upper, cdf_alpha, z_mass):
    inner = cdf_alpha + np.clip(q, 0.0, 1.0) * z_mass
    inner = np.clip(inner, 1e-16, 1.0 - 1e-16)
    values = loc + scale * ndtri(inner)
    return np.clip(values, lower, upper)


def _legacy_truncated_exponential_stack(marginals):
    return (
        _legacy_column([m.origin for m in marginals]),
        _legacy_column([m.rate for m in marginals]),
        _legacy_column([float(m.direction) for m in marginals]),
        _legacy_column([m._cutoff for m in marginals]),
        _legacy_column([m._mass for m in marginals]),
    )


def _legacy_truncated_exponential_apply(q, origin, rate, direction, cutoff, mass):
    q = np.clip(q, 0.0, 1.0)
    q_t = np.where(direction == 1.0, q, 1.0 - q)
    t = -np.log1p(-q_t * mass) / rate
    t = np.clip(t, 0.0, cutoff)
    return origin + direction * t


def _legacy_triangular_stack(marginals):
    return (
        _legacy_column([m.support_lower for m in marginals]),
        _legacy_column([m.mode for m in marginals]),
        _legacy_column([m.support_upper for m in marginals]),
    )


def _legacy_triangular_apply(q, lower, mode, upper):
    q = np.clip(q, 0.0, 1.0)
    width = upper - lower
    rising = mode - lower
    falling = upper - mode
    pivot = np.divide(rising, width, out=np.zeros_like(width), where=width > 0)
    low_values = lower + np.sqrt(q * width * rising)
    high_values = upper - np.sqrt((1.0 - q) * width * falling)
    return np.where(q <= pivot, low_values, high_values)


def _legacy_point_mass_stack(marginals):
    return (_legacy_column([m.mean for m in marginals]),)


def _legacy_point_mass_apply(q, values):
    return np.broadcast_to(values, q.shape).copy()


_LEGACY_FAMILIES = {
    UniformDistribution: (_legacy_uniform_stack, _legacy_uniform_apply),
    TruncatedNormalDistribution: (
        _legacy_truncated_normal_stack,
        _legacy_truncated_normal_apply,
    ),
    TruncatedExponentialDistribution: (
        _legacy_truncated_exponential_stack,
        _legacy_truncated_exponential_apply,
    ),
    TriangularDistribution: (_legacy_triangular_stack, _legacy_triangular_apply),
    PointMassDistribution: (_legacy_point_mass_stack, _legacy_point_mass_apply),
}


def _legacy_sample(distributions, n_samples, rng):
    """The registry plan's tensor of products of the five families and
    point masses."""
    n, dim = len(distributions), distributions[0].dim
    cells = {}
    point_rows, point_values = [], []
    for idx, dist in enumerate(distributions):
        if isinstance(dist, MultivariatePointMass):
            point_rows.append(idx)
            point_values.append(dist.mean_vector)
        else:
            for j, marginal in enumerate(dist.marginals):
                cells.setdefault(type(marginal), []).append((idx, j, marginal))
    out = np.empty((n, n_samples, dim))
    if point_rows:
        out[point_rows] = np.vstack(point_values)[:, None, :]
    for family, (stack, apply) in _LEGACY_FAMILIES.items():
        members = cells.get(family)
        if not members:
            continue
        rows = np.array([cell[0] for cell in members], dtype=np.intp)
        dims = np.array([cell[1] for cell in members], dtype=np.intp)
        q = rng.random((rows.size, n_samples))
        values = apply(q, *stack([cell[2] for cell in members]))
        if rows.size == n * dim:
            out[...] = values.reshape(n, dim, n_samples).swapaxes(1, 2)
        else:
            out[rows, :, dims] = values
    return out


class _EdgeQuantiles(np.random.Generator):
    """A PCG64 stream whose uniforms are exactly 0 or exactly 1 about a
    fifth of the time each."""

    def random(self, size=None, dtype=np.float64, out=None):
        q = super().random(size)
        return np.where(q < 0.2, 0.0, np.where(q >= 0.8, 1.0, q))


_reals = st.floats(min_value=-1e4, max_value=1e4)
_scales = st.floats(min_value=1e-3, max_value=1e2)


@st.composite
def _marginals(draw, family):
    if family is UniformDistribution:
        lower = draw(_reals)
        return UniformDistribution(lower, lower + draw(st.floats(0.0, 1e2)))
    if family is TruncatedNormalDistribution:
        loc, scale = draw(_reals), draw(_scales)
        below, above = (
            draw(st.one_of(st.just(np.inf), st.floats(0.1, 5.0))) for _ in "ab"
        )
        return TruncatedNormalDistribution(
            loc, scale, loc - below * scale, loc + above * scale
        )
    if family is TruncatedExponentialDistribution:
        return TruncatedExponentialDistribution(
            draw(_reals),
            draw(_scales),
            cutoff=draw(st.one_of(st.just(np.inf), _scales)),
            direction=draw(st.sampled_from([1, -1])),
        )
    if family is TriangularDistribution:
        lower = draw(_reals)
        upper = lower + draw(_scales)
        mode = draw(st.one_of(st.sampled_from([lower, upper]), st.floats(lower, upper)))
        return TriangularDistribution(lower, mode, upper)
    return PointMassDistribution(draw(_reals))


@st.composite
def _collections(draw):
    """Products of the five families and point masses; with a single
    family the plan takes its dense write."""
    n = draw(st.integers(min_value=1, max_value=6))
    dim = draw(st.integers(min_value=1, max_value=3))
    single = draw(st.one_of(st.none(), st.sampled_from(FAMILIES)))
    objects = []
    for _ in range(n):
        if single is None and draw(st.integers(0, 4)) == 0:
            point = draw(st.lists(_reals, min_size=dim, max_size=dim))
            objects.append(MultivariatePointMass(point))
            continue
        families = [single or draw(st.sampled_from(FAMILIES)) for _ in range(dim)]
        objects.append(IndependentProduct([draw(_marginals(f)) for f in families]))
    return objects


class TestLegacyRegistryPlan:
    @given(
        dists=_collections(),
        n_samples=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_plan_equals_frozen_registry_plan(self, dists, n_samples, seed):
        """Bits of the tensor and the stream's end state, with quantiles
        at exactly 0 and 1 among the draws."""
        legacy_rng = _EdgeQuantiles(np.random.PCG64(seed))
        rng = _EdgeQuantiles(np.random.PCG64(seed))
        # q = 1 on an untruncated exponential is log1p(-1): +-inf.
        with np.errstate(divide="ignore"):
            expected = _legacy_sample(dists, n_samples, legacy_rng)
            actual = build_sampling_plan(dists).sample(n_samples, rng)
        assert_same_bits(actual, expected)
        assert rng.bit_generator.state == legacy_rng.bit_generator.state
