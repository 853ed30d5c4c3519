"""Tests for the dataset synthesizers (benchmarks, microarray, moving
objects) — S20-S21."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.datagen import (
    BENCHMARK_SPECS,
    MICROARRAY_SPECS,
    list_benchmarks,
    list_microarrays,
    make_benchmark,
    make_blobs_uncertain,
    make_classification_like,
    make_microarray,
    make_moving_objects,
    make_probe_level_dataset,
)
from repro.exceptions import InvalidParameterError
from repro.experiments.config import ExperimentConfig
from repro.objects import UncertainDataset, UncertainObject
from repro.objects.dataset import _CellPdfs
from repro.utils.rng import ensure_rng


class TestBenchmarkRegistry:
    def test_table1a_shapes_registered(self):
        """The registry mirrors Table 1-(a) of the paper."""
        expected = {
            "iris": (150, 4, 3),
            "wine": (178, 13, 3),
            "glass": (214, 10, 6),
            "ecoli": (327, 7, 5),
            "yeast": (1484, 8, 10),
            "image": (2310, 19, 7),
            "abalone": (4124, 7, 17),
            "letter": (7648, 16, 10),
            "kddcup99": (4_000_000, 42, 23),
        }
        assert set(list_benchmarks()) == set(expected)
        for name, (n, m, k) in expected.items():
            spec = BENCHMARK_SPECS[name]
            assert (spec.n_objects, spec.n_attributes, spec.n_classes) == (n, m, k)

    def test_full_scale_shapes(self):
        points, labels = make_benchmark("iris", scale=1.0, seed=0)
        assert points.shape == (150, 4)
        assert labels.shape == (150,)
        assert np.unique(labels).size == 3

    def test_scaled_generation(self):
        points, labels = make_benchmark("letter", scale=0.05, seed=0)
        assert points.shape[0] == pytest.approx(0.05 * 7648, abs=2)
        assert points.shape[1] == 16
        assert np.unique(labels).size == 10  # every class survives scaling

    def test_deterministic_given_seed(self):
        a, la = make_benchmark("wine", scale=0.5, seed=3)
        b, lb = make_benchmark("wine", scale=0.5, seed=3)
        assert np.array_equal(a, b)
        assert np.array_equal(la, lb)

    def test_different_seeds_differ(self):
        a, _ = make_benchmark("wine", scale=0.5, seed=3)
        b, _ = make_benchmark("wine", scale=0.5, seed=4)
        assert not np.array_equal(a, b)

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_benchmark("mnist")

    def test_invalid_scale_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_benchmark("iris", scale=0.0)
        with pytest.raises(InvalidParameterError):
            make_benchmark("iris", scale=2.0)

    def test_difficulty_ordering(self):
        """Separation calibration: iris must be easier to cluster than
        abalone (matching the paper's relative accuracy levels)."""
        from repro.clustering import UKMeans
        from repro.evaluation import f_measure
        from repro.objects import UncertainDataset

        scores = {}
        for name in ("iris", "abalone"):
            pts, labels = make_benchmark(name, scale=0.3, seed=0)
            data = UncertainDataset.from_points(pts, labels)
            k = int(np.unique(labels).size)
            result = UKMeans(n_clusters=k, init="kmeans++").fit(data, seed=0)
            scores[name] = f_measure(result.labels, data.labels)
        assert scores["iris"] > scores["abalone"]


class TestClassificationLike:
    def test_shapes_and_class_floor(self):
        points, labels = make_classification_like(50, 3, 7, seed=0)
        assert points.shape == (50, 3)
        counts = np.bincount(labels, minlength=7)
        assert np.all(counts >= 2)

    def test_separation_controls_overlap(self):
        # Higher separation => larger between-class center spread.
        def center_spread(sep):
            pts, labels = make_classification_like(
                300, 2, 3, separation=sep, seed=1
            )
            centers = np.array(
                [pts[labels == c].mean(axis=0) for c in range(3)]
            )
            return np.linalg.norm(centers - centers.mean(axis=0), axis=1).mean()

        assert center_spread(8.0) > center_spread(1.0)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            make_classification_like(3, 2, 2)  # n < 2k
        with pytest.raises(InvalidParameterError):
            make_classification_like(10, 0, 2)
        with pytest.raises(InvalidParameterError):
            make_classification_like(10, 2, 0)
        with pytest.raises(InvalidParameterError):
            make_classification_like(10, 2, 2, separation=0.0)


class TestBlobs:
    def test_labels_and_uncertainty(self):
        data = make_blobs_uncertain(n_objects=40, n_clusters=4, seed=0)
        assert len(data) == 40
        assert data.n_classes == 4
        assert np.all(data.total_variances > 0)

    def test_mass_controls_region(self):
        tight = make_blobs_uncertain(n_objects=10, mass=0.5, seed=0)
        wide = make_blobs_uncertain(n_objects=10, mass=0.999, seed=0)
        assert np.mean(
            [o.region.widths.mean() for o in tight]
        ) < np.mean([o.region.widths.mean() for o in wide])


class TestMicroarray:
    def test_table1b_shapes_registered(self):
        assert set(list_microarrays()) == {"neuroblastoma", "leukaemia"}
        assert MICROARRAY_SPECS["neuroblastoma"].n_genes == 22282
        assert MICROARRAY_SPECS["neuroblastoma"].n_tissues == 14
        assert MICROARRAY_SPECS["leukaemia"].n_genes == 22690
        assert MICROARRAY_SPECS["leukaemia"].n_tissues == 21

    def test_scaled_generation(self):
        data = make_microarray("neuroblastoma", scale=0.01, seed=0)
        assert data.dim == 14
        assert len(data) == pytest.approx(223, abs=2)
        assert np.all(data.total_variances > 0)

    def test_unknown_name(self):
        with pytest.raises(InvalidParameterError):
            make_microarray("lymphoma")

    def test_probe_noise_decreases_with_expression(self):
        """multi-mgMOS signature: lower expression => higher probe std."""
        data = make_probe_level_dataset(
            n_genes=300, n_tissues=5, n_modules=3, seed=0
        )
        mu = data.mu_matrix.ravel()
        std = np.sqrt(data.sigma2_matrix.ravel())
        low = std[mu < np.quantile(mu, 0.2)].mean()
        high = std[mu > np.quantile(mu, 0.8)].mean()
        assert low > high

    def test_module_structure_is_discoverable(self):
        from repro.clustering import UKMeans
        from repro.evaluation import f_measure

        data = make_probe_level_dataset(
            n_genes=200, n_tissues=8, n_modules=4, module_spread=3.0, seed=1
        )
        result = UKMeans(n_clusters=4, init="kmeans++").fit(data, seed=1)
        assert f_measure(result.labels, data.labels) > 0.7

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            make_probe_level_dataset(n_genes=2, n_tissues=3, n_modules=5)
        with pytest.raises(InvalidParameterError):
            make_probe_level_dataset(n_genes=10, n_tissues=0, n_modules=2)
        with pytest.raises(InvalidParameterError):
            make_microarray("neuroblastoma", scale=0.0)

    def test_deterministic(self):
        a = make_microarray("leukaemia", scale=0.005, seed=5)
        b = make_microarray("leukaemia", scale=0.005, seed=5)
        assert np.allclose(a.mu_matrix, b.mu_matrix)


# ----------------------------------------------------------------------
# Frozen references: the per-point generators before they went columnar.
# ----------------------------------------------------------------------
def _legacy_blobs(n_objects, n_clusters, n_attributes, mass, seed):
    rng = ensure_rng(seed)
    points, labels = make_classification_like(
        n_objects=n_objects,
        n_attributes=n_attributes,
        n_classes=n_clusters,
        separation=3.0,
        lobes=1,
        outlier_rate=0.0,
        seed=rng,
    )
    objects = []
    for idx in range(n_objects):
        factor = rng.uniform(0.5, 1.5)
        std = np.full(n_attributes, 0.4 * factor)
        objects.append(
            UncertainObject.gaussian(
                points[idx], std, mass=mass, label=int(labels[idx])
            )
        )
    return UncertainDataset(objects)


def _legacy_probe_level(n_genes, n_tissues, n_modules, mass, seed):
    base_level, module_spread, within_module_std = 7.0, 2.0, 0.6
    noise_floor, noise_slope = 0.15, 0.9
    rng = ensure_rng(seed)
    module_profiles = rng.normal(
        base_level, module_spread, size=(n_modules, n_tissues)
    )
    modules = rng.integers(0, n_modules, size=n_genes)
    modules[:n_modules] = np.arange(n_modules)
    expression = module_profiles[modules] + rng.normal(
        0.0, within_module_std, size=(n_genes, n_tissues)
    )
    probe_std = noise_floor + noise_slope / (1.0 + np.exp(expression - base_level))
    objects = []
    for g in range(n_genes):
        objects.append(
            UncertainObject.gaussian(
                expression[g], probe_std[g], mass=mass, label=int(modules[g])
            )
        )
    return UncertainDataset(objects)


def _legacy_moving_objects(n_objects, n_hubs, pdf, mass, seed):
    area_size, hub_radius, max_speed, max_staleness = 100.0, 8.0, 5.0, 4.0
    rng = ensure_rng(seed)
    hubs = rng.uniform(0.2 * area_size, 0.8 * area_size, size=(n_hubs, 2))
    labels = rng.integers(0, n_hubs, size=n_objects)
    labels[: n_hubs * 2] = np.repeat(np.arange(n_hubs), 2)
    positions = hubs[labels] + rng.normal(0.0, hub_radius, size=(n_objects, 2))
    speeds = rng.uniform(0.2, 1.0, size=n_objects) * max_speed
    staleness = rng.uniform(0.1, 1.0, size=n_objects) * max_staleness
    reach = speeds * staleness
    objects = []
    for i in range(n_objects):
        half = np.full(2, reach[i])
        if pdf == "uniform":
            obj = UncertainObject.uniform_box(
                positions[i], half, label=int(labels[i])
            )
        else:
            std = np.full(2, speeds[i] * np.sqrt(staleness[i]))
            obj = UncertainObject.gaussian(
                positions[i], std, mass=mass, label=int(labels[i])
            )
        objects.append(obj)
    return UncertainDataset(objects)


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def assert_same_dataset(generated, legacy) -> None:
    """One tensor draw (taken first), moments, region bounds and labels
    bit for bit — all without building one of ``generated``'s objects."""
    np.testing.assert_array_equal(
        _bits(generated.sample_tensor(4, seed=5)),
        _bits(legacy.sample_tensor(4, seed=5)),
    )
    for name in ("mu_matrix", "mu2_matrix", "sigma2_matrix", "total_variances"):
        np.testing.assert_array_equal(
            _bits(getattr(generated, name)), _bits(getattr(legacy, name))
        )
    for side in (0, 1):
        np.testing.assert_array_equal(
            _bits(generated.region_bounds[side]), _bits(legacy.region_bounds[side])
        )
    np.testing.assert_array_equal(generated.labels, legacy.labels)
    assert generated._objects is None


class TestColumnarGeneratorsMatchPerPointLoops:
    """The generators equal their frozen per-point loops bit for bit and
    leave a shared Generator at the same position."""

    @staticmethod
    def _check(build, legacy, seed):
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        generated = build(rng_new)
        assert_same_dataset(generated, legacy(rng_old))
        np.testing.assert_array_equal(
            _bits(rng_new.random(4)), _bits(rng_old.random(4))
        )
        # Materialized objects restack to the same columns.
        assert_same_dataset(generated[:], UncertainDataset(generated.objects))

    @pytest.mark.parametrize("mass", [0.5, 0.95, 1.0])
    @pytest.mark.parametrize(
        "shape", [(2, 1, 1), (12, 6, 1), (40, 20, 3), (90, 3, 2), (150, 4, 13)],
        ids=str,
    )
    def test_blobs(self, shape, mass):
        n, k, m = shape
        self._check(
            lambda rng: make_blobs_uncertain(
                n_objects=n, n_clusters=k, n_attributes=m, separation=3.0,
                uncertainty_std=0.4, mass=mass, seed=rng,
            ),
            lambda rng: _legacy_blobs(n, k, m, mass, rng),
            seed=n + m,
        )

    @pytest.mark.parametrize("mass", [0.5, 0.95, 1.0])
    @pytest.mark.parametrize(
        "shape", [(1, 1, 1), (10, 1, 5), (40, 3, 20), (120, 14, 8), (60, 21, 10)],
        ids=str,
    )
    def test_probe_level(self, shape, mass):
        genes, tissues, modules = shape
        self._check(
            lambda rng: make_probe_level_dataset(
                n_genes=genes, n_tissues=tissues, n_modules=modules,
                mass=mass, seed=rng,
            ),
            lambda rng: _legacy_probe_level(genes, tissues, modules, mass, rng),
            seed=genes,
        )

    def test_named_microarray(self):
        named = make_microarray("neuroblastoma", scale=0.004, seed=2012)
        assert_same_dataset(named, _legacy_probe_level(89, 14, 8, 0.95, 2012))

    @pytest.mark.parametrize("pdf", ["uniform", "normal"])
    @pytest.mark.parametrize("mass", [0.5, 0.95, 1.0])
    @pytest.mark.parametrize("shape", [(2, 1), (8, 4), (60, 30), (150, 4)], ids=str)
    def test_moving_objects(self, shape, mass, pdf):
        n, hubs = shape
        self._check(
            lambda rng: make_moving_objects(
                n_objects=n, n_hubs=hubs, pdf=pdf, mass=mass, seed=rng
            ),
            lambda rng: _legacy_moving_objects(n, hubs, pdf, mass, rng),
            seed=n,
        )


# ----------------------------------------------------------------------
# Input errors: typed, and raised before any draw
# ----------------------------------------------------------------------
@pytest.mark.filterwarnings("error")
class TestTypedInputErrors:
    @staticmethod
    def _raises_before_drawing(build, match=None):
        rng = np.random.default_rng(3)
        with pytest.raises(InvalidParameterError, match=match):
            build(rng)
        np.testing.assert_array_equal(
            rng.random(3), np.random.default_rng(3).random(3)
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(imbalance=-1.0),
            dict(imbalance=np.nan),
            dict(imbalance=np.inf),
            dict(separation=np.nan),
            dict(separation=np.inf),
            dict(separation=-2.0),
            dict(n_objects=None),
            dict(n_objects=20.0),
            dict(n_attributes="2"),
            dict(n_attributes=0),
            dict(n_classes=2.5),
            dict(n_classes=None),
            dict(lobes=1.5),
            dict(lobes=0),
        ],
        ids=str,
    )
    def test_classification_like(self, kwargs):
        shape = dict(n_objects=20, n_attributes=2, n_classes=2)
        self._raises_before_drawing(
            lambda rng: make_classification_like(**{**shape, **kwargs}, seed=rng)
        )

    def test_zero_imbalance_still_accepted(self):
        points, labels = make_classification_like(20, 2, 2, imbalance=0.0, seed=1)
        assert points.shape == (20, 2) and np.bincount(labels).min() >= 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(module_spread=-1.0),
            dict(module_spread=np.nan),
            dict(within_module_std=-1.0),
            dict(within_module_std=np.inf),
            dict(mass=1.5),
            dict(mass=np.nan),
            dict(mass=0.0),
            dict(n_genes="20"),
            dict(n_tissues=3.0),
            dict(n_modules=None),
            dict(n_modules=0),
        ],
        ids=str,
    )
    def test_probe_level(self, kwargs):
        shape = dict(n_genes=20, n_tissues=3, n_modules=2)
        self._raises_before_drawing(
            lambda rng: make_probe_level_dataset(**{**shape, **kwargs}, seed=rng)
        )

    @pytest.mark.parametrize("mass", [1.5, np.nan, 0.0, -0.5])
    def test_blob_mass(self, mass):
        self._raises_before_drawing(
            lambda rng: make_blobs_uncertain(20, 2, mass=mass, seed=rng),
            match=r"mass must be in \(0, 1\]",
        )

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(n_objects=None), "n_objects must be an integer, got NoneType"),
            (dict(n_clusters=2.5), "n_clusters must be an integer, got float"),
            (dict(n_clusters=0), "n_clusters must be >= 1, got 0"),
            (dict(n_attributes="2"), "n_attributes must be an integer, got str"),
        ],
        ids=str,
    )
    def test_blob_counts(self, kwargs, match):
        self._raises_before_drawing(
            lambda rng: make_blobs_uncertain(**kwargs, seed=rng), match=match
        )

    _SHAPES = {
        make_blobs_uncertain: dict(n_objects=20, n_clusters=2),
        make_classification_like: dict(n_objects=20, n_attributes=2, n_classes=2),
        make_probe_level_dataset: dict(n_genes=20, n_tissues=3, n_modules=2),
    }

    @pytest.mark.parametrize(
        "build, name, value, expected",
        [
            pytest.param(*case, id=f"{case[1]}={case[2]!r}")
            for case in [
                (make_blobs_uncertain, "uncertainty_std", None, "a real number, got None"),
                (make_blobs_uncertain, "uncertainty_std", "x", "a real number, got 'x'"),
                (make_blobs_uncertain, "uncertainty_std", np.nan, "finite, got nan"),
                (make_blobs_uncertain, "uncertainty_std", np.inf, "finite, got inf"),
                (make_blobs_uncertain, "uncertainty_std", 0.0, "> 0, got 0.0"),
                (make_blobs_uncertain, "uncertainty_std", -1.0, "> 0, got -1.0"),
                (make_classification_like, "outlier_rate", None, "a real number, got None"),
                (make_classification_like, "outlier_rate", "x", "a real number, got 'x'"),
                (make_classification_like, "outlier_rate", np.nan, "finite, got nan"),
                (make_classification_like, "outlier_rate", -0.1, ">= 0, got -0.1"),
                (make_classification_like, "outlier_rate", 1.0, "in [0, 1), got 1.0"),
                (make_probe_level_dataset, "base_level", None, "a real number, got None"),
                (make_probe_level_dataset, "base_level", "x", "a real number, got 'x'"),
                (make_probe_level_dataset, "base_level", np.nan, "finite, got nan"),
                (make_probe_level_dataset, "base_level", -np.inf, "finite, got -inf"),
                (make_probe_level_dataset, "noise_floor", None, "a real number, got None"),
                (make_probe_level_dataset, "noise_floor", np.nan, "finite, got nan"),
                (make_probe_level_dataset, "noise_floor", 0.0, "> 0, got 0.0"),
                (make_probe_level_dataset, "noise_slope", None, "a real number, got None"),
                (make_probe_level_dataset, "noise_slope", np.inf, "finite, got inf"),
                (make_probe_level_dataset, "noise_slope", -0.5, ">= 0, got -0.5"),
            ]
        ],
    )
    def test_real_valued_knobs(self, build, name, value, expected):
        """Checked, and named, before the first draw."""
        self._raises_before_drawing(
            lambda rng: build(**self._SHAPES[build], **{name: value}, seed=rng),
            match=re.escape(f"{name} must be {expected}"),
        )

    def test_zero_noise_slope_accepted(self):
        """Every cell's probe std is then the noise floor."""
        data = make_probe_level_dataset(20, 3, 2, noise_slope=0.0, seed=1)
        np.testing.assert_allclose(data.sigma2_matrix, data.sigma2_matrix[0, 0], rtol=1e-9)

    @pytest.mark.parametrize(
        "build, match",
        [
            pytest.param(
                lambda data: make_benchmark(None),
                "unknown benchmark None; known: ",
                id="benchmark-None",
            ),
            pytest.param(
                lambda data: make_benchmark(3),
                "unknown benchmark 3; known: ",
                id="benchmark-3",
            ),
            pytest.param(
                lambda data: make_microarray(None),
                "unknown microarray dataset None; known: ",
                id="microarray-None",
            ),
            pytest.param(
                lambda data: make_benchmark("iris", scale="x"),
                "scale must be a real number, got 'x'",
                id="benchmark-scale-x",
            ),
            pytest.param(
                lambda data: make_benchmark("iris", scale=2.0),
                r"scale must be in \(0, 1\], got 2.0",
                id="benchmark-scale-2",
            ),
            pytest.param(
                lambda data: make_benchmark("iris", max_objects=2.5),
                "max_objects must be an integer, got float",
                id="benchmark-max_objects-2.5",
            ),
            pytest.param(
                lambda data: make_microarray("leukaemia", scale=None),
                "scale must be a real number, got None",
                id="microarray-scale-None",
            ),
            pytest.param(
                lambda data: ExperimentConfig(scale="x"),
                "scale must be a real number, got 'x'",
                id="config-scale-x",
            ),
            pytest.param(
                lambda data: ExperimentConfig(scale=0.0),
                r"scale must be in \(0, 1\], got 0.0",
                id="config-scale-0",
            ),
            pytest.param(
                lambda data: data.sample_tensor(2.5),
                "n_samples must be an integer, got float",
                id="sample_tensor-2.5",
            ),
            pytest.param(
                lambda data: data.sample_tensor(0),
                "n_samples must be >= 1, got 0",
                id="sample_tensor-0",
            ),
            pytest.param(
                lambda data: data.sample_fraction("x"),
                "fraction must be a real number, got 'x'",
                id="sample_fraction-x",
            ),
            pytest.param(
                lambda data: data.sample_fraction(1.5),
                r"fraction must be in \(0, 1\], got 1.5",
                id="sample_fraction-1.5",
            ),
        ],
    )
    def test_entry_points_typed(self, build, match):
        data = make_blobs_uncertain(30, 3, seed=0)
        with pytest.raises(InvalidParameterError, match=match):
            build(data)

    @pytest.mark.parametrize("family", ["uniform", "normal", "exponential"])
    @pytest.mark.parametrize("mass", [1.5, np.nan, 0.0])
    def test_cell_mass_checked_once(self, family, mass):
        """The mass error of the per-cell constructors, not a
        non-finite-moments error from the columns."""
        loc, scale = np.zeros((3, 2)), np.ones((3, 2))
        args = {
            "uniform": (loc - scale, loc + scale),
            "normal": (loc, scale),
            "exponential": (loc, scale, np.ones((3, 2))),
        }[family]
        with pytest.raises(InvalidParameterError, match=r"mass must be in \(0, 1\]"):
            _CellPdfs(family, args, mass).dataset(None)
