"""Tests for the Section 5.1 uncertainty-generation pipeline (S22)."""

from __future__ import annotations

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datagen import PDF_FAMILIES, UncertaintyGenerator
from repro.datagen.uncertainty_gen import _CellPdfs
from repro.exceptions import EmptyDatasetError, InvalidParameterError
from repro.objects import UncertainDataset, UncertainObject
from repro.uncertainty import (
    IndependentProduct,
    TruncatedExponentialDistribution,
    TruncatedNormalDistribution,
    UniformDistribution,
    build_sampling_plan,
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
    """Moments, one tensor draw, region bounds and labels, bit for bit.

    The draw is taken first, so on a fresh columnar dataset it comes
    from the stored plan before any object is built.
    """
    assert_same_bits(
        actual.sample_tensor(3, seed=5), expected.sample_tensor(3, seed=5)
    )
    for name in ("mu_matrix", "mu2_matrix", "sigma2_matrix", "total_variances"):
        assert_same_bits(getattr(actual, name), getattr(expected, name))
    for side in (0, 1):
        assert_same_bits(actual.region_bounds[side], expected.region_bounds[side])
    for side in ("lower", "upper"):
        assert_same_bits(
            [getattr(obj.region, side) for obj in actual],
            [getattr(obj.region, side) for obj in expected],
        )
    assert_same_labels(actual, expected)


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
        assert_same_dataset(pair.perturbed, perturbed)
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


# ----------------------------------------------------------------------
# Input errors
# ----------------------------------------------------------------------
@pytest.fixture
def strict_warnings():
    """Turn every RuntimeWarning into an error for the test's duration."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


@pytest.mark.usefixtures("strict_warnings")
class TestInputErrors:
    @pytest.mark.parametrize("family", PDF_FAMILIES)
    @pytest.mark.parametrize("use_mcmc", [False, True])
    def test_overflowing_column_spread_names_the_column(self, family, use_mcmc):
        points = np.zeros((6, 3))
        points[:, 1] = [1e200, -1e200] * 3  # the std overflows float64
        generator = UncertaintyGenerator(family=family, use_mcmc=use_mcmc)
        for build in (generator.generate, generator.uncertain_dataset):
            with pytest.raises(InvalidParameterError, match="column 1 "):
                build(points, seed=0)

    @pytest.mark.parametrize("family", PDF_FAMILIES)
    @pytest.mark.parametrize("use_mcmc", [False, True])
    def test_empty_points(self, family, use_mcmc):
        generator = UncertaintyGenerator(family=family, use_mcmc=use_mcmc)
        with pytest.raises(EmptyDatasetError):
            generator.generate(np.empty((0, 3)), seed=0)
        with pytest.raises(EmptyDatasetError):
            generator.uncertain_dataset(np.empty((0, 3)), labels=[], seed=0)

    def test_zero_columns(self):
        with pytest.raises(InvalidParameterError, match="column"):
            UncertaintyGenerator().generate(np.empty((4, 0)), seed=0)

    def test_cell_errors_are_the_per_cell_errors(self):
        """A cell whose constructor rejects its parameters raises that
        constructor's error, as the per-point loop did: here a normal
        whose 95% interval rounds to one point (scale far below the
        ulp of its mean)."""
        points = np.full((5, 2), 1e10)
        points[:, 0] += np.arange(5) * 1e-5
        generator = UncertaintyGenerator(family="normal", spread=1e-3)
        with pytest.raises(InvalidParameterError) as legacy:
            _legacy_generate(generator, points, None, 1)
        with pytest.raises(InvalidParameterError) as columnar:
            generator.generate(points, seed=1)
        assert "strictly less than" in str(legacy.value)
        assert str(columnar.value) == str(legacy.value)

    @pytest.mark.parametrize("family", PDF_FAMILIES)
    def test_overflowing_moments_are_typed(self, family):
        """A mean near 1e160 squares past float64: a typed error naming
        the object, for the normal family too, whose Python ``x**2``
        raises ``OverflowError`` there."""
        points = np.zeros((4, 2))
        points[:, 0] = 1e160 + np.arange(4) * 1e150
        with pytest.raises(InvalidParameterError, match="object 0 has non-finite"):
            UncertaintyGenerator(family=family).uncertain_dataset(points, seed=0)


# ----------------------------------------------------------------------
# Columnar datasets: objects only on demand, equal to the object path
# ----------------------------------------------------------------------
@pytest.fixture
def object_spy(monkeypatch):
    """Counts ``UncertainObject`` constructions and sampling-plan builds."""
    import repro.uncertainty.batch as batch_module

    counts = {"objects": 0, "plans": 0}
    original_init = UncertainObject.__init__
    original_plan = batch_module.build_sampling_plan

    def counting_init(self, *args, **kwargs):
        counts["objects"] += 1
        original_init(self, *args, **kwargs)

    def counting_plan(distributions):
        counts["plans"] += 1
        return original_plan(distributions)

    monkeypatch.setattr(UncertainObject, "__init__", counting_init)
    monkeypatch.setattr(batch_module, "build_sampling_plan", counting_plan)
    return counts


def _fresh_pair(family, mass=0.95, seed=11):
    points, labels = _case(25, 4, seed)
    generator = UncertaintyGenerator(family=family, mass=mass)
    return generator.generate(points, labels, seed=seed)


def _assert_same_columns(actual: UncertainDataset, expected: UncertainDataset) -> None:
    for name in ("mu_matrix", "mu2_matrix", "sigma2_matrix", "total_variances"):
        assert_same_bits(getattr(actual, name), getattr(expected, name))
    for side in (0, 1):
        assert_same_bits(actual.region_bounds[side], expected.region_bounds[side])
    assert_same_labels(actual, expected)


class TestColumnarDatasets:
    def test_table2_builds_no_objects(self, object_spy):
        from repro.experiments import ExperimentConfig, run_table2

        config = ExperimentConfig(n_runs=1, max_objects=24, n_samples=4, seed=5)
        report = run_table2(config, datasets=("iris",), families=PDF_FAMILIES)
        assert len(report.cells) == 3 * len(report.algorithms)
        assert object_spy == {"objects": 0, "plans": 0}

    def test_figure5_fraction_builds_no_objects(self, object_spy):
        from repro.experiments import ExperimentConfig, run_figure5

        config = ExperimentConfig(n_runs=1, n_samples=4, seed=3)
        report = run_figure5(config, fractions=(0.5,), base_size=120)
        assert set(report.algorithms) >= {"MinMax-BB", "VDBiP"}
        assert object_spy == {"objects": 0, "plans": 0}

    @pytest.mark.parametrize("family", PDF_FAMILIES)
    @pytest.mark.parametrize("mass", [0.95, 1.0])
    def test_lazy_objects_restack_bitwise(self, family, mass, object_spy):
        pair = _fresh_pair(family, mass)
        for dataset in (pair.uncertain, pair.perturbed):
            object_spy.update(objects=0, plans=0)
            before = dataset.sample_tensor(6, seed=4)
            assert object_spy == {"objects": 0, "plans": 0}
            objects = dataset.objects
            assert len(objects) == len(dataset) == object_spy["objects"]
            assert dataset.objects is objects and dataset[3] is objects[3]
            _assert_same_columns(dataset, UncertainDataset(objects))
            rebuilt = build_sampling_plan([obj.distribution for obj in objects])
            assert_same_bits(rebuilt.sample(6, seed=4), before)
            assert_same_bits(dataset.sample_tensor(6, seed=4), before)

    @pytest.mark.parametrize("family", PDF_FAMILIES)
    def test_subsets_match_the_object_path(self, family, object_spy):
        pair = _fresh_pair(family)
        for dataset in (pair.uncertain, pair.perturbed):
            object_spy.update(objects=0, plans=0)
            indices = [7, 0, 7, 19, 3]
            columnar = [
                dataset.subset(indices),
                dataset.sample_fraction(0.4, seed=9),
                dataset.sample_fraction(0.3, seed=9, stratified=False),
                dataset[2:17:3],
            ]
            assert object_spy == {"objects": 0, "plans": 0}
            draws = [sub.sample_tensor(3, seed=8) for sub in columnar]
            objects = UncertainDataset(dataset.objects)
            expected = [
                objects.subset(indices),
                objects.sample_fraction(0.4, seed=9),
                objects.sample_fraction(0.3, seed=9, stratified=False),
                objects[2:17:3],
            ]
            for sub, draw, reference in zip(columnar, draws, expected):
                assert sub._objects is None
                _assert_same_columns(sub, reference)
                assert_same_bits(draw, reference.sample_tensor(3, seed=8))
                _assert_same_columns(UncertainDataset(sub.objects), reference)
            # Once built, objects are shared with subsets.
            assert dataset.subset([4])[0] is dataset[4]

    @pytest.mark.parametrize("family", PDF_FAMILIES)
    def test_pickles(self, family):
        pair = _fresh_pair(family)
        for dataset in (pair.uncertain, pair.perturbed):
            clone = pickle.loads(pickle.dumps(dataset))
            assert clone._objects is None
            _assert_same_columns(clone, dataset)
            assert_same_bits(
                clone.sample_tensor(4, seed=2), dataset.sample_tensor(4, seed=2)
            )
            _assert_same_columns(
                UncertainDataset(clone.objects), UncertainDataset(dataset.objects)
            )


# A value whose square by glibc's pow differs from x * x in the last bit.
_POW_DIFFERS = float.fromhex("-0x1.eb5a536674728p+1")


def _per_cell_args(family, loc, scale, direction):
    if family == "uniform":
        return (loc - scale, loc + scale)
    if family == "normal":
        return (loc, scale)
    return (loc, 1.0 / scale, direction)


@st.composite
def cell_grids(draw):
    """Per-cell parameters over magnitudes 1e-6 ... 1e8, where Python's
    ``x**2`` (libm ``pow``) and ``x * x`` disagree on some cells."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=4))
    cells = st.tuples(
        st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
        st.integers(min_value=-20, max_value=26),
        st.sampled_from([1.0, -1.0]),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    grid = np.array(draw(st.lists(cells, min_size=n * m, max_size=n * m)))
    loc = (grid[:, 0] * np.exp2(grid[:, 1]) * grid[:, 2]).reshape(n, m)
    scale = grid[:, 3].reshape(n, m)
    direction = grid[:, 2].reshape(n, m)
    return loc, scale, direction


class TestColumnsEqualPerCellObjects:
    """Columnar moments, region bounds and plan parameters of every
    family equal the per-cell constructors' bit for bit."""

    @staticmethod
    def _check(family, mass, grid):
        cells = _CellPdfs(family, _per_cell_args(family, *grid), mass)
        columnar = cells.dataset(labels=None)
        objects = UncertainDataset(cells(None))
        _assert_same_columns(columnar, objects)
        plan = build_sampling_plan([obj.distribution for obj in objects])
        (stored,), (rebuilt,) = columnar._sampling_plan._groups, plan._groups
        assert len(stored.params) == len(rebuilt.params)
        for got, want in zip(stored.params, rebuilt.params):
            assert_same_bits(got, want)
        assert_same_bits(columnar.sample_tensor(2, seed=1), plan.sample(2, seed=1))

    @pytest.mark.parametrize("family", PDF_FAMILIES)
    @pytest.mark.parametrize("mass", [0.95, 1.0, 0.5, 0.8173, 0.05, 0.999])
    def test_full_mantissa_grids(self, family, mass):
        """Random full-mantissa parameters, 600 cells per case: libm
        ``pow``, ``exp`` and ``expm1`` and their numpy versions round
        apart on a few percent of such cells."""
        rng = np.random.default_rng(int(mass * 1e4))
        shape = (120, 5)
        loc = rng.normal(0.0, 1.0, shape) * 10.0 ** rng.uniform(-6, 8, shape)
        scale = 10.0 ** rng.uniform(-3, 3, shape)
        direction = np.where(rng.random(shape) < 0.5, 1.0, -1.0)
        self._check(family, mass, (loc, scale, direction))

    def test_exponential_over_masses(self):
        """An exponential cell's ``rate * cutoff`` is ``-log(1 - mass)``
        up to rounding, so ``exp`` and ``expm1`` see a few values per
        mass: sweep many masses."""
        rng = np.random.default_rng(20)
        shape = (4, 3)
        for mass in rng.uniform(0.05, 0.999, 300):
            loc = rng.normal(0.0, 1.0, shape) * 10.0 ** rng.uniform(-6, 8, shape)
            scale = 10.0 ** rng.uniform(-3, 3, shape)
            direction = np.where(rng.random(shape) < 0.5, 1.0, -1.0)
            self._check("exponential", float(mass), (loc, scale, direction))

    @given(
        family=st.sampled_from(PDF_FAMILIES),
        mass=st.one_of(
            st.sampled_from([0.95, 1.0]),
            st.floats(min_value=0.05, max_value=0.999),
        ),
        grid=cell_grids(),
    )
    @example(
        family="normal",
        mass=1.0,
        grid=(np.array([[_POW_DIFFERS]]), np.array([[0.5]]), np.array([[1.0]])),
    )
    @settings(max_examples=300, deadline=None)
    def test_property(self, family, mass, grid):
        self._check(family, mass, grid)

    def test_square_is_libm_pow(self):
        """The normal family's ``mu2`` adds Python's ``mean**2``, not
        ``mean * mean``."""
        loc = np.array([[_POW_DIFFERS]])
        columnar = _CellPdfs("normal", (loc, np.array([[0.5]])), 1.0).dataset(None)
        assert columnar.mu2_matrix[0, 0] == 0.5 * 0.5 * 1.0 + _POW_DIFFERS**2
