"""Tests for the Case-1/Case-2 Theta protocol (S19)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import UCPC, UKMeans
from repro.datagen import UncertaintyGenerator, make_classification_like
from repro.evaluation import evaluate_theta, evaluate_theta_multirun
from repro.exceptions import InvalidParameterError


@pytest.fixture(scope="module")
def pair():
    points, labels = make_classification_like(
        60, 2, 3, separation=5.0, seed=11
    )
    gen = UncertaintyGenerator(family="normal", spread=0.8)
    return gen.generate(points, labels, seed=11)


class TestEvaluateTheta:
    def test_result_fields(self, pair):
        outcome = evaluate_theta(UCPC(n_clusters=3), pair, seed=0)
        assert 0.0 <= outcome.f_case1 <= 1.0
        assert 0.0 <= outcome.f_case2 <= 1.0
        assert -1.0 <= outcome.theta <= 1.0
        assert -1.0 <= outcome.quality <= 1.0
        assert outcome.runtime_case2 >= 0.0

    def test_theta_is_difference(self, pair):
        outcome = evaluate_theta(UKMeans(n_clusters=3), pair, seed=1)
        assert outcome.theta == pytest.approx(
            outcome.f_case2 - outcome.f_case1
        )

    def test_requires_labels(self):
        points, _ = make_classification_like(20, 2, 2, seed=0)
        gen = UncertaintyGenerator()
        unlabeled = gen.generate(points, seed=0)
        with pytest.raises(InvalidParameterError):
            evaluate_theta(UCPC(n_clusters=2), unlabeled, seed=0)

    def test_reproducible(self, pair):
        a = evaluate_theta(UCPC(n_clusters=3), pair, seed=5)
        b = evaluate_theta(UCPC(n_clusters=3), pair, seed=5)
        assert a.theta == pytest.approx(b.theta)


class TestMultirun:
    def test_averaging_fields(self, pair):
        outcome = evaluate_theta_multirun(
            UCPC(n_clusters=3), pair, n_runs=3, seed=0
        )
        assert outcome.n_runs == 3
        assert -1.0 <= outcome.theta_mean <= 1.0
        assert outcome.theta_std >= 0.0
        assert outcome.runtime_mean >= 0.0

    def test_single_run_zero_std(self, pair):
        outcome = evaluate_theta_multirun(
            UCPC(n_clusters=3), pair, n_runs=1, seed=1
        )
        assert outcome.theta_std == 0.0

    def test_invalid_runs(self, pair):
        for bad in (0, 2.5, "3", None):
            with pytest.raises(InvalidParameterError, match="n_runs"):
                evaluate_theta_multirun(UCPC(n_clusters=3), pair, n_runs=bad)

    def test_mean_matches_manual_average(self, pair):
        from repro.utils.rng import spawn_rngs

        outcome = evaluate_theta_multirun(
            UKMeans(n_clusters=3), pair, n_runs=3, seed=9
        )
        manual = [
            evaluate_theta(UKMeans(n_clusters=3), pair, s).theta
            for s in spawn_rngs(9, 3)
        ]
        assert outcome.theta_mean == pytest.approx(float(np.mean(manual)))
