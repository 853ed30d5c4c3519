"""Tests for the pairwise-distance plane (the dataset's ÊD matrix).

The paper accounts UK-medoids' pairwise ÊD matrix as a one-time
*off-line* phase.  The matrix has one home,
:meth:`UncertainDataset.pairwise_ed`: it is built once per dataset
(spy-asserted for direct fits, the internal criteria and engine runs on
every backend), and every consumer — UK-medoids, U-AHC's ``"ed"``
linkage, the evaluation protocol — reads that one copy.  Everything
here is bit-identity or counting: where the matrix lives must be
invisible in the results.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.clustering import UAHC, UKMeans, UKMedoids
from repro.datagen import (
    PDF_FAMILIES,
    UncertaintyGenerator,
    make_blobs_uncertain,
    make_classification_like,
)
from repro.datagen.benchmarks import make_benchmark
from repro.engine import MultiRestartRunner, fit_runs
from repro.evaluation import internal_scores
from repro.objects import UncertainDataset
from repro.objects.distance import pairwise_squared_expected_distances


def _make_data(seed=13):
    return make_blobs_uncertain(
        n_objects=60, n_clusters=3, separation=2.5, seed=seed
    )


def _fresh(dataset):
    """The same objects in a new dataset, whose matrix is not built yet."""
    return UncertainDataset(dataset.objects)


def _merges(result):
    return [
        (m.left, m.right, m.size, m.height) for m in result.extras["merges"]
    ]


@pytest.fixture
def ed_spy(monkeypatch):
    """Counts pairwise_squared_expected_distances calls, behavior intact.

    ``UncertainDataset.pairwise_ed`` looks the kernel up in its defining
    module on every build, and no consumer calls it any other way, so
    patching that one module counts every build.
    """
    import repro.objects.distance as distance_module

    calls = {"count": 0}
    original = distance_module.pairwise_squared_expected_distances

    def counting(dataset):
        calls["count"] += 1
        return original(dataset)

    monkeypatch.setattr(
        distance_module, "pairwise_squared_expected_distances", counting
    )
    return calls


class TestDatasetPlane:
    def test_computed_once_and_cached(self, ed_spy):
        data = _make_data()
        first = data.pairwise_ed()
        second = data.pairwise_ed()
        assert first is second
        assert ed_spy["count"] == 1

    def test_matches_direct_computation(self):
        data = _make_data()
        np.testing.assert_array_equal(
            data.pairwise_ed(), pairwise_squared_expected_distances(data)
        )

    def test_cached_matrix_is_read_only(self):
        data = _make_data()
        with pytest.raises(ValueError):
            data.pairwise_ed()[0, 0] = -1.0

    def test_direct_fits_and_scores_share_one_build(self, ed_spy):
        """Direct fits and the internal criteria read the dataset's
        matrix too: two UK-medoids fits, one U-AHC ``"ed"`` fit and two
        scorings of one dataset build it once."""
        data = _make_data()
        labels = UKMedoids(3).fit(data, seed=0).labels
        UKMedoids(3).fit(data, seed=1)
        UAHC(3, linkage="ed").fit(data)
        internal_scores(data, labels)
        internal_scores(data, UKMeans(3).fit(data, seed=2).labels)
        assert ed_spy["count"] == 1

    def test_internal_scores_one_build_per_dataset(self, ed_spy):
        """``internal_scores`` reads the dataset's cached matrix for its
        maximum only: scoring several labelings of two datasets, under
        both noise policies, builds one matrix per dataset, and it stays
        cached for the next consumer."""
        rng = np.random.default_rng(0)
        datasets = [_make_data(), _make_data(seed=14)]
        for data in datasets:
            for labels in (
                UKMeans(3).fit(data, seed=4).labels,
                rng.integers(-1, 4, size=len(data)),
            ):
                for noise_policy in ("residual", "exclude"):
                    internal_scores(data, labels, noise_policy=noise_policy)
        assert ed_spy["count"] == len(datasets)
        UKMedoids(3).fit(datasets[0], seed=0)
        assert ed_spy["count"] == len(datasets)


def _plane_cases():
    """(algorithm, method) x backend.  UK-medoids' ``run`` cases keep
    their backend-only ids."""
    backends = [("serial", 1), ("threads", 3), ("processes", 2)]
    for name, method in (
        ("UKmed", "run"),
        ("UKmed", "run_all"),
        ("UAHC", "run"),
        ("UAHC", "run_all"),
    ):
        prefix = "" if (name, method) == ("UKmed", "run") else f"{name}-{method}-"
        for backend, n_jobs in backends:
            yield pytest.param(
                name, method, backend, n_jobs, id=f"{prefix}{backend}-{n_jobs}"
            )


class TestOncePerRunSet:
    """One ÊD build per dataset for an engine run-set, on every backend."""

    @pytest.mark.parametrize("name,method,backend,n_jobs", _plane_cases())
    def test_engine_builds_matrix_exactly_once(
        self, ed_spy, name, method, backend, n_jobs, force_backend
    ):
        data = _make_data()
        force_backend(backend, n_jobs)
        model = UKMedoids(3) if name == "UKmed" else UAHC(3, linkage="ed")
        runner = MultiRestartRunner(model, n_init=6, n_jobs=n_jobs)
        with warnings.catch_warnings():
            # U-AHC has no objective to rank restarts by.
            warnings.simplefilter("ignore", UserWarning)
            getattr(runner, method)(data, seed=4)
        assert ed_spy["count"] == 1

    def test_fit_runs_builds_matrix_exactly_once(self, ed_spy):
        data = _make_data()
        fit_runs(UKMedoids(3), data, [0, 1, 2, 3])
        assert ed_spy["count"] == 1

    def test_repeated_run_sets_reuse_dataset_cache(self, ed_spy):
        """Across run-sets on one dataset the cached matrix is reused —
        the off-line phase is per dataset, not per invocation."""
        data = _make_data()
        runner = MultiRestartRunner(UKMedoids(3), n_init=3)
        runner.run(data, seed=1)
        runner.run(data, seed=2)
        assert ed_spy["count"] == 1


@pytest.fixture(scope="module")
def stand_ins():
    """The uncertain iris, wine and glass stand-ins for every family."""
    cases = {}
    for name in ("iris", "wine", "glass"):
        points, labels = make_benchmark(name, max_objects=70, seed=3)
        k = int(np.unique(labels).size)
        for family in PDF_FAMILIES:
            pair = UncertaintyGenerator(family).generate(points, labels, seed=5)
            cases[name, family] = (pair.uncertain, k)
    return cases


class TestBitIdentity:
    def test_20_seed_identity_with_and_without_plane(self, force_backend):
        """The shared matrix (and a thread pool on top of it) must be
        invisible: same labels, same objective, same best restart as
        direct fits on fresh datasets that each build their own
        matrix."""
        data = _make_data()
        for seed in range(20):
            force_backend("serial")
            with_plane = MultiRestartRunner(UKMedoids(3), n_init=3).run(
                data, seed=seed
            )
            direct = [
                UKMedoids(3).fit(_fresh(data), seed=entry["seed"])
                for entry in with_plane.extras["restart_history"]
            ]
            best = int(np.argmin([result.objective for result in direct]))
            np.testing.assert_array_equal(
                with_plane.labels, direct[best].labels
            )
            assert with_plane.objective == direct[best].objective
            assert with_plane.extras["best_restart"] == best
            force_backend("threads")
            pooled = MultiRestartRunner(UKMedoids(3), n_init=3, n_jobs=2).run(
                data, seed=seed
            )
            np.testing.assert_array_equal(with_plane.labels, pooled.labels)
            assert with_plane.objective == pooled.objective
            assert (
                with_plane.extras["best_restart"]
                == pooled.extras["best_restart"]
            )

    def test_engine_fit_equals_direct_fit(self):
        data = _make_data()
        direct = UKMedoids(3).fit(data, seed=5)
        engine = MultiRestartRunner(UKMedoids(3), n_init=1).run(data, seed=5)
        # n_init=1 uses the same derived seed scheme as direct seeds do
        # through run_all; compare via run_all with explicit seeds.
        routed = MultiRestartRunner(UKMedoids(3), n_init=1).run_all(
            data, seeds=[5]
        )[0]
        np.testing.assert_array_equal(direct.labels, routed.labels)
        assert direct.objective == routed.objective
        assert engine.extras["shared_pairwise_ed"] is True

    @pytest.mark.parametrize("family", PDF_FAMILIES)
    @pytest.mark.parametrize("name", ["iris", "wine", "glass"])
    def test_processes_equal_direct_fits_on_stand_ins(
        self, stand_ins, name, family, force_backend
    ):
        """Process workers fit on the published shared-memory matrix;
        direct fits on a fresh dataset build their own.  UK-medoids
        gives equal labels and objectives, U-AHC ``"ed"`` equal labels
        and merges (heights included: both run the same scipy call on
        the same matrix)."""
        dataset, k = stand_ins[name, family]
        seeds = [0, 1, 2, 3]
        force_backend("processes")
        medoids = MultiRestartRunner(UKMedoids(k), n_jobs=2).run_all(
            dataset, seeds=seeds
        )
        for seed, routed in zip(seeds, medoids):
            direct = UKMedoids(k).fit(_fresh(dataset), seed=seed)
            np.testing.assert_array_equal(direct.labels, routed.labels)
            assert direct.objective == routed.objective
        hierarchies = MultiRestartRunner(UAHC(k, linkage="ed"), n_jobs=2).run_all(
            dataset, seeds=[0, 1]
        )
        direct = UAHC(k, linkage="ed").fit(_fresh(dataset))
        for routed in hierarchies:
            np.testing.assert_array_equal(direct.labels, routed.labels)
            assert _merges(direct) == _merges(routed)


class TestUAHCPlane:
    """U-AHC's ``"ed"`` linkage is average linkage over the dataset's ÊD
    matrix — one build per dataset, shared with UK-medoids."""

    def test_ed_linkage_declares_plane(self):
        assert UAHC(3, linkage="ed").wants_pairwise_ed is True
        assert UAHC(3, linkage="jeffreys").wants_pairwise_ed is False

    def test_engine_builds_matrix_exactly_once(self, ed_spy):
        data = _make_data()
        fit_runs(UAHC(3, linkage="ed"), data, [0, 1, 2])
        assert ed_spy["count"] == 1

    def test_jeffreys_linkage_never_builds_matrix(self, ed_spy):
        data = _make_data()
        fit_runs(UAHC(3, linkage="jeffreys"), data, [0, 1])
        assert ed_spy["count"] == 0

    def test_mixed_roster_shares_one_dataset_build(self, ed_spy):
        """UK-medoids and UAHC run-sets on one dataset read the same
        cached matrix — the off-line phase is per dataset, not per
        algorithm."""
        data = _make_data()
        fit_runs(UKMedoids(3), data, [0, 1])
        fit_runs(UAHC(3, linkage="ed"), data, [0, 1])
        assert ed_spy["count"] == 1


class TestProtocolThreading:
    """evaluate_theta/_multirun read each dataset's matrix instead of
    rebuilding it 2 x n_runs times."""

    @pytest.fixture
    def pair(self):
        points, labels = make_classification_like(
            40, 2, 3, separation=5.0, seed=11
        )
        return UncertaintyGenerator(family="normal", spread=0.8).generate(
            points, labels, seed=11
        )

    def test_multirun_builds_two_matrices_total(self, ed_spy, pair):
        """One matrix per dataset (Case-1 perturbed, Case-2 uncertain) —
        not one per fit."""
        from repro.evaluation import evaluate_theta_multirun

        evaluate_theta_multirun(UKMedoids(3), pair, n_runs=4, seed=2)
        assert ed_spy["count"] == 2

    def test_multirun_engine_matches_direct_for_ukmedoids(self, pair):
        """The engine-run series equal evaluate_theta called once per
        run seed of multirun_stream_plan."""
        from repro.evaluation import evaluate_theta, evaluate_theta_multirun
        from repro.evaluation.protocol import multirun_stream_plan

        routed = evaluate_theta_multirun(UKMedoids(3), pair, n_runs=3, seed=9)
        run_seeds, _, _ = multirun_stream_plan(9, 3)
        direct = [
            evaluate_theta(UKMedoids(3), pair, run_seed)
            for run_seed in run_seeds
        ]
        assert routed.theta_mean == float(
            np.array([o.theta for o in direct]).mean()
        )
        assert routed.quality_mean == float(
            np.array([o.quality for o in direct]).mean()
        )


class TestExperimentIntegration:
    def test_table3_builds_one_matrix_per_dataset(self, ed_spy):
        """The criterion matrix is the one the UK-medoids fits read —
        one build per dataset regardless of cells and runs."""
        from repro.experiments import ExperimentConfig, run_table3

        run_table3(
            ExperimentConfig(scale=0.004, n_runs=2, seed=3, n_samples=8),
            datasets=("neuroblastoma",),
            cluster_counts=(2, 3),
            algorithms=("UKmed",),
        )
        assert ed_spy["count"] == 1
