"""Tests for the multi-restart execution engine (repro.engine)."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.clustering import BasicUKMeans, MinMaxBB, UKMeans
from repro.datagen import make_blobs_uncertain
from repro.engine import EarlyStopping, MultiRestartRunner, RestartRecord
from repro.exceptions import InvalidParameterError


@pytest.fixture(scope="module")
def data():
    # Moderate separation so different seeds reach different optima.
    return make_blobs_uncertain(
        n_objects=90, n_clusters=4, separation=2.5, seed=13
    )


@pytest.fixture
def tensor_spy(monkeypatch):
    """Counts UncertainDataset.sample_tensor calls (behavior intact)."""
    from repro.objects.dataset import UncertainDataset

    calls = {"count": 0}
    original = UncertainDataset.sample_tensor

    def counting(self, n_samples, seed=None):
        calls["count"] += 1
        return original(self, n_samples, seed)

    monkeypatch.setattr(UncertainDataset, "sample_tensor", counting)
    return calls


class TestMultiRestartRunner:
    def test_returns_best_objective(self, data):
        runner = MultiRestartRunner(UKMeans(4), n_init=8)
        best = runner.run(data, seed=3)
        history = best.extras["restart_history"]
        assert len(history) == 8
        objectives = [record["objective"] for record in history]
        assert best.objective == pytest.approx(min(objectives))
        assert history[best.extras["best_restart"]]["objective"] == pytest.approx(
            best.objective
        )

    def test_no_worse_than_single_restart(self, data):
        """Best-of-n is at least as good as the first restart alone."""
        runner = MultiRestartRunner(UKMeans(4), n_init=6)
        best = runner.run(data, seed=5)
        first = best.extras["restart_history"][0]["objective"]
        assert best.objective <= first + 1e-12

    def test_deterministic(self, data):
        a = MultiRestartRunner(UKMeans(4), n_init=5).run(data, seed=7)
        b = MultiRestartRunner(UKMeans(4), n_init=5).run(data, seed=7)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.objective == b.objective

    def test_parallel_matches_sequential(self, data):
        sequential = MultiRestartRunner(UKMeans(4), n_init=6, n_jobs=1).run(
            data, seed=11
        )
        parallel = MultiRestartRunner(UKMeans(4), n_init=6, n_jobs=2).run(
            data, seed=11
        )
        np.testing.assert_array_equal(sequential.labels, parallel.labels)
        assert sequential.objective == parallel.objective
        assert parallel.extras["engine_jobs"] == 2

    def test_shared_sample_cache(self, data):
        clusterer = BasicUKMeans(4, n_samples=16)
        runner = MultiRestartRunner(clusterer, n_init=3, share_samples=True)
        best = runner.run(data, seed=2)
        assert best.extras["shared_samples"] is True
        # The cache is injected for the run and restored afterwards.
        assert clusterer.sample_cache is None

    def test_pinned_cache_honored(self, data):
        """A caller-pinned sample_cache survives fit_best untouched."""
        tensor = data.sample_tensor(16, seed=33)
        clusterer = BasicUKMeans(4, n_samples=16)
        clusterer.sample_cache = tensor
        best = MultiRestartRunner(clusterer, n_init=3).run(data, seed=2)
        assert best.extras["shared_samples"] is True
        assert clusterer.sample_cache is tensor
        # Restarts really used the pinned tensor: rerunning with the
        # same pin reproduces the result exactly.
        clusterer2 = BasicUKMeans(4, n_samples=16)
        clusterer2.sample_cache = tensor.copy()
        again = MultiRestartRunner(clusterer2, n_init=3).run(data, seed=2)
        np.testing.assert_array_equal(best.labels, again.labels)

    def test_objective_less_algorithms_flagged(self):
        from repro.clustering import FDBSCAN, FOPTICS, UAHC

        assert UKMeans.has_objective is True
        for cls in (FDBSCAN, FOPTICS, UAHC):
            assert cls.has_objective is False

    def test_objective_less_clusterer_warns_on_best_of(self, data):
        """run() cannot rank objective-less restarts and says so;
        run_all() aggregates without ranking, so it stays silent."""
        from repro.clustering import FDBSCAN

        runner = MultiRestartRunner(FDBSCAN(n_samples=4), n_init=2)
        with pytest.warns(UserWarning, match="no objective"):
            runner.run(data, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runner.run_all(data, seed=0)

    def test_shared_cache_off(self, data):
        best = MultiRestartRunner(
            BasicUKMeans(4, n_samples=16), n_init=2, share_samples=False
        ).run(data, seed=2)
        assert best.extras["shared_samples"] is False

    def test_moment_based_algorithms_skip_cache(self, data):
        best = MultiRestartRunner(UKMeans(4), n_init=2).run(data, seed=0)
        assert best.extras["shared_samples"] is False

    def test_pruning_variant_through_engine(self, data):
        best = MultiRestartRunner(MinMaxBB(4, n_samples=16), n_init=3).run(
            data, seed=4
        )
        assert best.n_clusters == 4
        assert best.extras["ed_pruned"] > 0

    def test_restart_record_fields(self, data):
        best = MultiRestartRunner(UKMeans(4), n_init=2).run(data, seed=1)
        record = best.extras["restart_history"][0]
        assert set(record) == {
            field for field in RestartRecord.__dataclass_fields__
        }
        assert best.extras["total_runtime_seconds"] >= 0.0

    def test_validation(self, data):
        for bad in (0, 2.5, "3", None):
            with pytest.raises(InvalidParameterError, match="n_init"):
                MultiRestartRunner(UKMeans(4), n_init=bad)
            with pytest.raises(InvalidParameterError, match="n_jobs"):
                MultiRestartRunner(UKMeans(4), n_jobs=bad)
        for bad in (0, 1.5, "3"):
            with pytest.raises(InvalidParameterError, match="patience"):
                MultiRestartRunner(UKMeans(4), early_stopping=bad)
        runner = MultiRestartRunner(
            UKMeans(4),
            n_init=np.int64(3),
            n_jobs=np.int64(2),
            early_stopping=np.int64(2),
        )
        assert (runner.n_init, runner.n_jobs) == (3, 2)
        assert runner.early_stopping == EarlyStopping(patience=2)

    def test_generator_seed(self, data):
        gen = np.random.default_rng(9)
        best = MultiRestartRunner(UKMeans(4), n_init=3).run(data, seed=gen)
        assert len(best.extras["restart_history"]) == 3


class TestRunAll:
    def test_returns_all_results_in_order(self, data):
        runner = MultiRestartRunner(UKMeans(4), n_init=5)
        results = runner.run_all(data, seed=3)
        assert len(results) == 5
        best = runner.run(data, seed=3)
        objectives = [r.objective for r in results]
        assert best.objective == pytest.approx(min(objectives))

    def test_moment_based_equals_direct_fits(self, data):
        """Moment-based algorithms consume no sample seed, so run_all
        is fit-for-fit identical to the direct per-seed loop."""
        from repro.utils.rng import spawn_rngs

        seeds = spawn_rngs(11, 4)
        direct = [UKMeans(4).fit(data, seed=s) for s in seeds]
        engine = MultiRestartRunner(UKMeans(4), n_init=1).run_all(
            data, seeds=spawn_rngs(11, 4)
        )
        for d, e in zip(direct, engine):
            np.testing.assert_array_equal(d.labels, e.labels)
            assert d.objective == e.objective

    def test_sample_based_equals_direct_fits_with_pinned_cache(self, data):
        """With the shared tensor pinned, engine restarts are identical
        to direct fits reading the same tensor."""
        tensor = data.sample_tensor(16, seed=21)
        seeds = [5, 6, 7]
        direct = []
        for s in seeds:
            algo = BasicUKMeans(4, n_samples=16)
            algo.sample_cache = tensor
            direct.append(algo.fit(data, seed=s))
        shared = BasicUKMeans(4, n_samples=16)
        shared.sample_cache = tensor.copy()
        engine = MultiRestartRunner(shared, n_init=1).run_all(data, seeds=seeds)
        for d, e in zip(direct, engine):
            np.testing.assert_array_equal(d.labels, e.labels)

    def test_empty_seeds_rejected(self, data):
        with pytest.raises(InvalidParameterError):
            MultiRestartRunner(UKMeans(4)).run_all(data, seeds=[])

    def test_sample_tensor_built_exactly_once(self, data, tensor_spy):
        """Spy: a multi-run engine execution draws one shared tensor."""
        runner = MultiRestartRunner(BasicUKMeans(4, n_samples=16), n_init=6)
        runner.run_all(data, seed=2)
        assert tensor_spy["count"] == 1


def _direct_theta(algorithm, pair, n_runs, seed):
    """Reference for evaluate_theta_multirun: evaluate_theta once per run
    seed of multirun_stream_plan; returns ``(theta_mean, quality_mean)``."""
    from repro.evaluation.protocol import evaluate_theta, multirun_stream_plan

    run_seeds, _, _ = multirun_stream_plan(seed, n_runs)
    outcomes = [
        evaluate_theta(algorithm, pair, run_seed)
        for run_seed in run_seeds
    ]
    return (
        float(np.array([o.theta for o in outcomes]).mean()),
        float(np.array([o.quality for o in outcomes]).mean()),
    )


def _direct_table2(config, ds_name, family, algorithms):
    """One Table 2 group with every cell from :func:`_direct_theta`."""
    from repro.experiments.config import build_algorithm
    from repro.experiments.table2 import prepare_table2_group
    from repro.utils.rng import spawn_rngs

    (rng,) = spawn_rngs(config.seed, 1)
    pair, n_classes = prepare_table2_group(ds_name, family, rng, config)
    cells = {}
    for alg in algorithms:
        algorithm = build_algorithm(
            alg, n_clusters=n_classes, n_samples=config.n_samples
        )
        cells[(ds_name, family, alg)] = _direct_theta(
            algorithm, pair, config.n_runs, rng
        )
    return cells


def _direct_table3(config, ds_name, cluster_counts, algorithms):
    """One Table 3 dataset with every run fitted directly."""
    from repro.evaluation.internal import internal_scores
    from repro.experiments.config import build_algorithm
    from repro.experiments.table3 import prepare_table3_group
    from repro.utils.rng import spawn_rngs

    (ds_rng,) = spawn_rngs(config.seed, 1)
    dataset = prepare_table3_group(ds_name, ds_rng, config)
    quality = {}
    for k in cluster_counts:
        for alg in algorithms:
            # Each cell spawns n_runs + 1 streams (the last seeds a
            # shared tensor), whatever the algorithm type.
            streams = spawn_rngs(ds_rng, config.n_runs + 1)
            algorithm = build_algorithm(
                alg, n_clusters=min(k, len(dataset) - 1),
                n_samples=config.n_samples,
            )
            scores = [
                internal_scores(
                    dataset, algorithm.fit(dataset, seed=s).labels
                ).quality
                for s in streams[:-1]
            ]
            quality[(ds_name, k, alg)] = float(np.array(scores).mean())
    return quality


class TestExperimentEngineRouting:
    """The experiment runners route their per-run fits through the
    engine; for moment-based and sample-deterministic algorithms that
    must reproduce direct per-fit loops, written out here as the
    reference, measurement for measurement."""

    def test_fit_runs_engine_matches_direct_for_moment_based(self, data):
        from repro.engine import fit_runs
        from repro.utils.rng import spawn_rngs

        direct = [UKMeans(4).fit(data, seed=s) for s in spawn_rngs(7, 3)]
        routed = fit_runs(UKMeans(4), data, spawn_rngs(7, 3))
        for d, e in zip(direct, routed):
            np.testing.assert_array_equal(d.labels, e.labels)
            assert d.objective == e.objective

    def test_fit_runs_shares_tensor_for_sample_based(self, data, tensor_spy):
        from repro.engine import fit_runs

        results = fit_runs(
            BasicUKMeans(4, n_samples=8), data, [0, 1, 2, 3], sample_seed=9
        )
        assert len(results) == 4
        assert tensor_spy["count"] == 1

    def test_fit_runs_shares_tensor_without_sample_seed(self, data, tensor_spy):
        """Regression: sample_seed=None must still mean *one* shared
        draw (from fresh entropy), not a per-restart draw."""
        from repro.engine import fit_runs

        fit_runs(BasicUKMeans(4, n_samples=8), data, [0, 1, 2])
        assert tensor_spy["count"] == 1

    def test_fit_runs_density_keeps_independent_draws(self, data, tensor_spy):
        """FDBSCAN's only randomness is the draw: fit_runs must not pin
        one tensor across its measurement runs (that would average n
        copies of a single realization) — and with per-run draws the
        engine path equals direct fits exactly."""
        from repro.clustering import FDBSCAN
        from repro.engine import fit_runs

        routed = fit_runs(FDBSCAN(n_samples=8), data, [0, 1, 2], sample_seed=9)
        assert tensor_spy["count"] == 3  # one independent draw per run
        direct = [FDBSCAN(n_samples=8).fit(data, seed=s) for s in [0, 1, 2]]
        for d, e in zip(direct, routed):
            np.testing.assert_array_equal(d.labels, e.labels)
        # Explicit opt-in to sharing is still possible (restart-style).
        tensor_spy["count"] = 0
        shared = fit_runs(
            FDBSCAN(n_samples=8), data, [0, 1, 2], sample_seed=9,
            share_samples=True,
        )
        assert tensor_spy["count"] == 1
        for result in shared[1:]:
            np.testing.assert_array_equal(shared[0].labels, result.labels)

    def test_mixed_roster_seed_drift_regression(self):
        """Regression: a sample-based algorithm earlier in the roster
        must not shift the seeds of later moment-based cells (the
        shared-tensor stream is spawned for every algorithm type)."""
        from repro.experiments import ExperimentConfig, run_table3

        config = ExperimentConfig(scale=0.004, n_runs=2, seed=31, n_samples=8)
        roster = ("FDB", "UKM", "MMV")
        routed = run_table3(
            config,
            datasets=("neuroblastoma",),
            cluster_counts=(2,),
            algorithms=roster,
        )
        assert routed.quality == _direct_table3(
            config, "neuroblastoma", (2,), roster
        )

    def test_table2_engine_path_identical_incl_density(self):
        """Moment-based algorithms consume no tensors; FDB/FOPT draw
        per-run independent tensors from the run seeds — so the whole
        accuracy roster equals the per-run evaluate_theta reference."""
        from repro.experiments import ExperimentConfig, run_table2

        config = ExperimentConfig(scale=0.08, n_runs=2, seed=42, n_samples=8)
        algorithms = ("FDB", "FOPT", "UKM", "MMV")
        routed = run_table2(
            config,
            datasets=("iris",),
            families=("normal",),
            algorithms=algorithms,
        )
        direct = _direct_table2(config, "iris", "normal", algorithms)
        assert {
            key: (cell.theta, cell.quality)
            for key, cell in routed.cells.items()
        } == direct

    def test_table3_engine_path_identical_for_moment_based(self):
        from repro.experiments import ExperimentConfig, run_table3

        config = ExperimentConfig(scale=0.004, n_runs=2, seed=17)
        routed = run_table3(
            config,
            datasets=("neuroblastoma",),
            cluster_counts=(2, 3),
            algorithms=("UKM", "MMV"),
        )
        assert routed.quality == _direct_table3(
            config, "neuroblastoma", (2, 3), ("UKM", "MMV")
        )

    def test_figure4_engine_path_measures_same_grid(self):
        """Runtimes are wall-clock (not comparable value-for-value);
        the runner must measure every (dataset, algorithm) cell of its
        roster with positive on-line runtimes, density methods
        included."""
        from repro.experiments import ExperimentConfig, run_figure4

        report = run_figure4(
            ExperimentConfig(scale=0.01, n_runs=2, seed=8, n_samples=8),
            datasets=("abalone",),
            slow_group=("FDB", "FOPT"),
            fast_group=("UKM",),
            n_clusters=3,
        )
        assert list(report.runtimes_ms) == [
            ("abalone", alg) for alg in ("FDB", "FOPT", "UKM", "UCPC")
        ]
        assert all(v > 0 for v in report.runtimes_ms.values())

    def test_figure5_engine_path_measures_same_grid(self):
        from repro.experiments import ExperimentConfig, run_figure5
        from repro.experiments.figure5 import (
            prepare_figure5_base,
            prepare_figure5_fraction,
        )

        config = ExperimentConfig(n_runs=1, seed=4)
        report = run_figure5(
            config, fractions=(0.5, 1.0), algorithms=("UKM",), base_size=200
        )
        full, rng_data, _ = prepare_figure5_base(config, 200)
        assert report.sizes == {
            frac: len(prepare_figure5_fraction(full, frac, rng_data))
            for frac in (0.5, 1.0)
        }
        assert list(report.runtimes_ms) == [(0.5, "UKM"), (1.0, "UKM")]
        assert all(v > 0 for v in report.runtimes_ms.values())

    def test_protocol_engine_path_identical_for_moment_based(self, data):
        from repro.datagen.uncertainty_gen import UncertaintyGenerator
        from repro.evaluation.protocol import evaluate_theta_multirun

        pair = UncertaintyGenerator(family="normal").generate(
            data.mu_matrix, data.labels, seed=0
        )
        routed = evaluate_theta_multirun(UKMeans(4), pair, n_runs=3, seed=13)
        assert (routed.theta_mean, routed.quality_mean) == _direct_theta(
            UKMeans(4), pair, 3, 13
        )


class TestFitBest:
    def test_matches_runner(self, data):
        via_method = UKMeans(4).fit_best(data, seed=17, n_init=4)
        via_runner = MultiRestartRunner(UKMeans(4), n_init=4).run(data, seed=17)
        np.testing.assert_array_equal(via_method.labels, via_runner.labels)
        assert via_method.objective == via_runner.objective

    def test_sample_based_with_jobs(self, data):
        result = BasicUKMeans(4, n_samples=16).fit_best(
            data, seed=17, n_init=4, n_jobs=2
        )
        assert result.extras["n_init"] == 4
        assert result.extras["shared_samples"] is True
