"""Tests for the UCPC ablation variants (VarianceOnly, UCPC-Lloyd)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import UCPC, UCPCLloyd, VarianceOnlyClustering
from repro.datagen import make_blobs_uncertain
from repro.evaluation import f_measure
from repro.exceptions import InvalidParameterError
from repro.objects import UncertainDataset, UncertainObject


@pytest.fixture(scope="module")
def blobs():
    return make_blobs_uncertain(
        n_objects=90, n_clusters=3, separation=7.0, seed=41
    )


class TestVarianceOnly:
    def test_produces_k_nonempty_clusters(self, blobs):
        result = VarianceOnlyClustering(n_clusters=3).fit(blobs, seed=0)
        assert np.all(np.bincount(result.labels, minlength=3) > 0)

    def test_objective_monotone(self, blobs):
        result = VarianceOnlyClustering(n_clusters=3).fit(blobs, seed=1)
        history = result.objective_history
        for prev, curr in zip(history, history[1:]):
            assert curr <= prev + 1e-12 * max(1.0, abs(prev))

    def test_position_blindness(self):
        """The rejected criterion ignores positions entirely: translating
        one object's mean arbitrarily far does not change its objective."""
        base = [
            UncertainObject.uniform_box([0.0], [w]) for w in (0.5, 1.0, 2.0, 3.0)
        ]
        # Moderate shifts: large enough to dominate any positional
        # criterion, small enough that the cached moments (mu2 - mu^2)
        # keep full precision.
        shifted = [
            UncertainObject.uniform_box([1e3 * i], [w])
            for i, w in enumerate((0.5, 1.0, 2.0, 3.0))
        ]
        r1 = VarianceOnlyClustering(n_clusters=2).fit(
            UncertainDataset(base), seed=3
        )
        r2 = VarianceOnlyClustering(n_clusters=2).fit(
            UncertainDataset(shifted), seed=3
        )
        assert r1.objective == pytest.approx(r2.objective)
        assert np.array_equal(r1.labels, r2.labels)

    def test_worse_than_ucpc_on_positional_structure(self, blobs):
        ucpc_f = max(
            f_measure(UCPC(3).fit(blobs, seed=s).labels, blobs.labels)
            for s in range(3)
        )
        var_f = max(
            f_measure(
                VarianceOnlyClustering(3).fit(blobs, seed=s).labels,
                blobs.labels,
            )
            for s in range(3)
        )
        assert ucpc_f > var_f

    def test_mean_f_gap_over_seeds(self):
        """Figure 2's claim, measured: on four well-separated blobs the
        rejected criterion's mean F over seeds 0-2 trails UCPC's by more
        than 0.2 (0.894 against 0.364 when written)."""
        data = make_blobs_uncertain(
            n_objects=240, n_clusters=4, separation=6.0, seed=99
        )
        ucpc_f = np.mean(
            [
                f_measure(UCPC(4).fit(data, seed=s).labels, data.labels)
                for s in range(3)
            ]
        )
        var_f = np.mean(
            [
                f_measure(
                    VarianceOnlyClustering(4).fit(data, seed=s).labels,
                    data.labels,
                )
                for s in range(3)
            ]
        )
        assert ucpc_f > var_f + 0.2

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            VarianceOnlyClustering(n_clusters=2, max_iter=0)

    def test_theorem2_objective_value(self):
        """Final objective equals sum_C |C|^-2 sum_o sigma^2(o)."""
        data = make_blobs_uncertain(n_objects=30, n_clusters=2, seed=5)
        result = VarianceOnlyClustering(n_clusters=2).fit(data, seed=5)
        total = 0.0
        for members in result.clusters():
            var_sum = sum(data[i].total_variance for i in members)
            total += var_sum / len(members) ** 2
        assert result.objective == pytest.approx(total)


class TestUCPCLloyd:
    def test_produces_k_clusters(self, blobs):
        result = UCPCLloyd(n_clusters=3).fit(blobs, seed=0)
        assert result.n_clusters == 3

    def test_reaches_comparable_objective(self, blobs):
        """Batch and relocation minimize the same J; their best-of-3
        objectives should land in the same ballpark."""
        reloc = min(UCPC(3).fit(blobs, seed=s).objective for s in range(3))
        batch = min(UCPCLloyd(3).fit(blobs, seed=s).objective for s in range(3))
        assert batch == pytest.approx(reloc, rel=0.5)

    def test_objective_matches_labels(self, blobs):
        from repro.clustering import ClusterStatsMatrix

        result = UCPCLloyd(n_clusters=3).fit(blobs, seed=2)
        stats = ClusterStatsMatrix.from_assignment(blobs, result.labels, 3)
        assert result.objective == pytest.approx(stats.total_objective())

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            UCPCLloyd(n_clusters=2, max_iter=0)

    def test_reproducible(self, blobs):
        a = UCPCLloyd(n_clusters=3).fit(blobs, seed=7)
        b = UCPCLloyd(n_clusters=3).fit(blobs, seed=7)
        assert np.array_equal(a.labels, b.labels)
