"""Tests for the pairwise-distance plane (shared ÊD matrices).

The paper accounts UK-medoids' pairwise ÊD matrix as a one-time
*off-line* phase; the plane makes the engine honor that accounting: the
matrix is computed exactly once per run-set (spy-asserted on every
backend), injected into ``wants_pairwise_ed`` algorithms, threaded
through the evaluation protocol's two fit series, and validated when it
arrives from outside.  Everything here is bit-identity or counting — the
plane must be invisible in the results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import UKMeans, UKMedoids
from repro.datagen import (
    UncertaintyGenerator,
    make_blobs_uncertain,
    make_classification_like,
)
from repro.engine import MultiRestartRunner, fit_runs
from repro.exceptions import InvalidParameterError
from repro.objects.distance import (
    pairwise_squared_expected_distances,
    validate_pairwise_ed,
)


def _make_data(seed=13):
    return make_blobs_uncertain(
        n_objects=60, n_clusters=3, separation=2.5, seed=seed
    )


@pytest.fixture
def ed_spy(monkeypatch):
    """Counts pairwise_squared_expected_distances calls, behavior intact.

    Patches every lookup site: the defining module (late-bound import in
    ``UncertainDataset.pairwise_ed``) plus the module globals of the two
    plane consumers — UK-medoids and UAHC — whose in-fit fallbacks the
    plane exists to avoid.
    """
    import repro.clustering.uahc as uahc_module
    import repro.clustering.ukmedoids as ukmedoids_module
    import repro.objects.distance as distance_module

    calls = {"count": 0}
    original = distance_module.pairwise_squared_expected_distances

    def counting(dataset):
        calls["count"] += 1
        return original(dataset)

    for module in (distance_module, ukmedoids_module, uahc_module):
        monkeypatch.setattr(
            module, "pairwise_squared_expected_distances", counting
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


class TestOncePerRunSet:
    """The satellite regression: one ÊD build per engine run-set."""

    @pytest.mark.parametrize(
        "backend,n_jobs",
        [("serial", 1), ("threads", 3), ("processes", 2)],
    )
    def test_engine_builds_matrix_exactly_once(
        self, ed_spy, backend, n_jobs, force_backend
    ):
        data = _make_data()
        force_backend(backend, n_jobs)
        MultiRestartRunner(UKMedoids(3), n_init=6, n_jobs=n_jobs).run(
            data, seed=4
        )
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


class TestBitIdentity:
    def test_20_seed_identity_with_and_without_plane(self, force_backend):
        """The plane (and a thread pool on top of it) must be
        invisible: same labels, same objective, same best restart as
        direct fits that each build their own matrix."""
        data = _make_data()
        for seed in range(20):
            force_backend("serial")
            with_plane = MultiRestartRunner(UKMedoids(3), n_init=3).run(
                data, seed=seed
            )
            direct = [
                UKMedoids(3).fit(data, seed=entry["seed"])
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

    def test_injected_matrix_is_actually_used(self):
        """Scaling the injected matrix scales the reported objective —
        proof the fits read the plane rather than recomputing."""
        data = _make_data()
        matrix = data.pairwise_ed()
        reference = MultiRestartRunner(UKMedoids(3), n_init=2).run(data, seed=3)
        scaled = MultiRestartRunner(UKMedoids(3), n_init=2).run(
            data, seed=3, pairwise_ed=2.0 * matrix
        )
        np.testing.assert_array_equal(reference.labels, scaled.labels)
        assert scaled.objective == pytest.approx(2.0 * reference.objective)

    def test_explicit_matrix_flagged_as_shared(self):
        """Provenance: shared_pairwise_ed must reflect the injection
        that actually happened."""
        data = _make_data()
        result = MultiRestartRunner(UKMedoids(3), n_init=2).run(
            data, seed=3, pairwise_ed=np.asarray(data.pairwise_ed())
        )
        assert result.extras["shared_pairwise_ed"] is True
        plain = MultiRestartRunner(UKMeans(3), n_init=2).run(
            data, seed=3, pairwise_ed=np.asarray(data.pairwise_ed())
        )
        assert plain.extras["shared_pairwise_ed"] is False

    def test_clusterer_own_matrix_wins_over_explicit(self):
        """Precedence: a constructor-fixed matrix is the most local
        intent; run(pairwise_ed=...) must not shadow it."""
        data = _make_data()
        own = np.asarray(data.pairwise_ed())
        model = UKMedoids(3, precomputed=own)
        reference = MultiRestartRunner(UKMedoids(3), n_init=2).run(data, seed=3)
        result = MultiRestartRunner(model, n_init=2).run(
            data, seed=3, pairwise_ed=2.0 * own
        )
        assert result.objective == reference.objective  # not doubled

    def test_processes_workers_use_injected_matrix(self, force_backend):
        """Workers must read the published matrix, not rebuild their
        own: pin a *different* dataset's matrix and check processes
        reproduces the serial result computed from that same pin."""
        data = _make_data(seed=13)
        other = _make_data(seed=99)
        foreign = np.asarray(other.pairwise_ed())

        def pinned():
            model = UKMedoids(3)
            model.pairwise_ed_cache = foreign
            return model

        serial = MultiRestartRunner(pinned(), n_init=4).run(data, seed=6)
        force_backend("processes")
        processes = MultiRestartRunner(pinned(), n_init=4, n_jobs=2).run(
            data, seed=6
        )
        np.testing.assert_array_equal(serial.labels, processes.labels)
        assert serial.objective == processes.objective
        # Sanity: the foreign matrix really changes the outcome.
        native = MultiRestartRunner(UKMedoids(3), n_init=4).run(data, seed=6)
        assert native.objective != serial.objective


class TestUAHCPlane:
    """UAHC joins the distance plane for its ``"ed"`` linkage: the
    initial singleton proximity structure *is* the ÊD matrix, so the
    engine seeds it from the shared cache — one build per dataset,
    bit-identical to the in-fit build."""

    def test_ed_linkage_declares_plane(self):
        from repro.clustering import UAHC

        assert UAHC(3, linkage="ed").wants_pairwise_ed is True
        assert UAHC(3, linkage="jeffreys").wants_pairwise_ed is False

    def test_engine_builds_matrix_exactly_once(self, ed_spy):
        from repro.clustering import UAHC

        data = _make_data()
        fit_runs(UAHC(3, linkage="ed"), data, [0, 1, 2])
        assert ed_spy["count"] == 1

    def test_jeffreys_linkage_never_builds_matrix(self, ed_spy):
        from repro.clustering import UAHC

        data = _make_data()
        fit_runs(UAHC(3, linkage="jeffreys"), data, [0, 1])
        assert ed_spy["count"] == 0

    def test_mixed_roster_shares_one_dataset_build(self, ed_spy):
        """UK-medoids and UAHC run-sets on one dataset read the same
        cached matrix — the off-line phase is per dataset, not per
        algorithm."""
        from repro.clustering import UAHC

        data = _make_data()
        fit_runs(UKMedoids(3), data, [0, 1])
        fit_runs(UAHC(3, linkage="ed"), data, [0, 1])
        assert ed_spy["count"] == 1

    def test_seeded_merge_structure_bit_identical_to_fallback(self):
        """With and without the injected cache: same labels, same merge
        pairs, same merge heights — the plane must be invisible."""
        from repro.clustering import UAHC

        data = _make_data()
        direct = UAHC(3, linkage="ed").fit(data)
        seeded_model = UAHC(3, linkage="ed")
        seeded_model.pairwise_ed_cache = data.pairwise_ed()
        seeded = seeded_model.fit(data)
        routed = fit_runs(UAHC(3, linkage="ed"), data, [0])[0]
        for other in (seeded, routed):
            np.testing.assert_array_equal(direct.labels, other.labels)
            assert [
                (m.left, m.right, m.height)
                for m in direct.extras["merges"]
            ] == [
                (m.left, m.right, m.height)
                for m in other.extras["merges"]
            ]

    def test_cache_shape_validated(self):
        from repro.clustering import UAHC

        data = _make_data()
        model = UAHC(3, linkage="ed")
        model.pairwise_ed_cache = np.zeros((4, 4))
        with pytest.raises(InvalidParameterError, match="must be \\(60, 60\\)"):
            model.fit(data)

    def test_pin_restored_after_engine_run(self):
        from repro.clustering import UAHC
        from repro.engine import MultiRestartRunner

        data = _make_data()
        model = UAHC(3, linkage="ed")
        MultiRestartRunner(model, n_init=1).run_all(data, seeds=[0])
        assert model.pairwise_ed_cache is None


class TestValidation:
    """Satellite: UKMedoids(precomputed=...) rejects garbage loudly."""

    def _valid(self, n=6):
        data = make_blobs_uncertain(
            n_objects=n, n_clusters=2, separation=4.0, seed=0
        )
        return pairwise_squared_expected_distances(data)

    def test_asymmetric_rejected(self):
        matrix = self._valid()
        matrix[0, 1] *= 3.0  # break symmetry
        with pytest.raises(InvalidParameterError, match="symmetric"):
            UKMedoids(2, precomputed=matrix)

    def test_nan_rejected(self):
        matrix = self._valid()
        matrix[2, 3] = matrix[3, 2] = np.nan
        with pytest.raises(InvalidParameterError, match="non-finite"):
            UKMedoids(2, precomputed=matrix)

    def test_inf_rejected(self):
        matrix = self._valid()
        matrix[1, 4] = matrix[4, 1] = np.inf
        with pytest.raises(InvalidParameterError, match="non-finite"):
            UKMedoids(2, precomputed=matrix)

    def test_negative_rejected(self):
        matrix = self._valid()
        matrix[0, 5] = matrix[5, 0] = -1e-3
        with pytest.raises(InvalidParameterError, match="negative"):
            UKMedoids(2, precomputed=matrix)

    def test_non_square_rejected(self):
        with pytest.raises(InvalidParameterError, match="square"):
            UKMedoids(2, precomputed=np.zeros((4, 5)))
        with pytest.raises(InvalidParameterError, match="square"):
            UKMedoids(2, precomputed=np.zeros(4))

    def test_wrong_size_rejected_at_fit(self):
        data = _make_data()
        model = UKMedoids(3, precomputed=self._valid(6))
        with pytest.raises(InvalidParameterError, match="must be \\(60, 60\\)"):
            model.fit(data, seed=0)

    def test_near_symmetric_tolerated(self):
        """Round-off-level asymmetry (e.g. a matrix that went through a
        transpose-accumulate) must pass the tolerance check."""
        matrix = self._valid()
        noise = 1e-12 * np.random.default_rng(0).random(matrix.shape)
        UKMedoids(2, precomputed=matrix + noise)

    def test_float64_input_adopted_as_view(self):
        """Documented aliasing contract: an already-float64 matrix is
        adopted, not copied (it is O(n^2) by design)."""
        matrix = self._valid()
        model = UKMedoids(2, precomputed=matrix)
        assert model.precomputed is matrix

    def test_other_dtypes_are_converted_copies(self):
        matrix = self._valid().astype(np.float32)
        model = UKMedoids(2, precomputed=matrix)
        assert model.precomputed is not matrix
        assert model.precomputed.dtype == np.float64

    def test_validate_helper_passes_valid_through(self):
        matrix = self._valid()
        assert validate_pairwise_ed(matrix, n=6) is matrix
        with pytest.raises(InvalidParameterError, match="must be \\(9, 9\\)"):
            validate_pairwise_ed(matrix, n=9)


class TestProtocolThreading:
    """Satellite: evaluate_theta/_multirun thread the scoring matrix
    into both fit series instead of rebuilding it 2 x n_runs times."""

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

    def test_evaluate_theta_uses_supplied_distances(self, ed_spy, pair):
        from repro.evaluation import evaluate_theta

        distances = pairwise_squared_expected_distances(pair.uncertain)
        ed_spy["count"] = 0
        evaluate_theta(UKMedoids(3), pair, seed=1, distances=distances)
        # Only the Case-1 (perturbed) matrix is built; Case 2 reuses the
        # supplied scoring matrix.
        assert ed_spy["count"] == 1

    def test_invalid_distances_rejected(self, pair):
        """The supplied matrix now feeds the Case-2 fits, so garbage is
        rejected loudly instead of silently clustered."""
        from repro.evaluation import evaluate_theta, evaluate_theta_multirun

        bad = pairwise_squared_expected_distances(pair.uncertain)
        bad[0, 1] = np.nan
        with pytest.raises(InvalidParameterError, match="non-finite"):
            evaluate_theta(UKMedoids(3), pair, seed=1, distances=bad)
        with pytest.raises(InvalidParameterError, match="non-finite"):
            evaluate_theta_multirun(
                UKMedoids(3), pair, n_runs=2, seed=1, distances=bad
            )

    def test_pin_restored_after_protocol(self, pair):
        from repro.evaluation import evaluate_theta

        model = UKMedoids(3)
        evaluate_theta(model, pair, seed=1)
        assert model.pairwise_ed_cache is None


class TestExperimentIntegration:
    def test_table3_builds_one_matrix_per_dataset(self, ed_spy):
        """The experiment runner's criterion matrix feeds the UK-medoids
        fits too — one build per dataset regardless of cells and runs."""
        from repro.experiments import ExperimentConfig, run_table3

        run_table3(
            ExperimentConfig(scale=0.004, n_runs=2, seed=3, n_samples=8),
            datasets=("neuroblastoma",),
            cluster_counts=(2, 3),
            algorithms=("UKmed",),
        )
        assert ed_spy["count"] == 1
