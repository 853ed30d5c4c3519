"""Tests for the experiment runners (Tables 2-3, Figures 4-5) at tiny scale."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    build_algorithm,
    run_figure4,
    run_figure5,
    run_table2,
    run_table3,
)
from repro.exceptions import InvalidParameterError

TINY = ExperimentConfig(scale=0.08, n_runs=1, seed=99, n_samples=8)


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert 0 < cfg.scale <= 1
        assert cfg.n_runs >= 1

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(scale=0.0)
        for name in ("n_runs", "n_jobs", "n_samples", "max_objects"):
            for bad in (0, 2.5, "3"):
                with pytest.raises(InvalidParameterError, match=name):
                    ExperimentConfig(**{name: bad})
        for name in ("n_runs", "n_jobs", "n_samples"):
            with pytest.raises(InvalidParameterError, match=name):
                ExperimentConfig(**{name: None})
        assert ExperimentConfig(max_objects=None).max_objects is None

    def test_build_algorithm_all_names(self):
        for name in (
            "UCPC",
            "UKM",
            "MMV",
            "UKmed",
            "bUKM",
            "MinMax-BB",
            "VDBiP",
            "FDB",
            "FOPT",
            "UAHC",
        ):
            algo = build_algorithm(name, n_clusters=3)
            assert algo.name == name

    def test_build_algorithm_unknown(self):
        with pytest.raises(InvalidParameterError):
            build_algorithm("DBSCAN", n_clusters=3)


class TestTable2:
    @pytest.fixture(scope="class")
    def report(self):
        return run_table2(
            TINY,
            datasets=("iris", "wine"),
            families=("normal",),
            algorithms=("UKM", "MMV", "UCPC"),
        )

    def test_all_cells_present(self, report):
        assert len(report.cells) == 2 * 1 * 3
        for cell in report.cells.values():
            assert -1.0 <= cell.theta <= 1.0
            assert -1.0 <= cell.quality <= 1.0

    def test_aggregates_consistent(self, report):
        manual = np.mean(
            [
                report.cells[(ds, "normal", "UCPC")].theta
                for ds in ("iris", "wine")
            ]
        )
        assert report.overall_average("UCPC", "theta") == pytest.approx(manual)
        assert report.average_score("normal", "UCPC", "theta") == pytest.approx(
            manual
        )

    def test_gain_definition(self, report):
        gain = report.overall_gain("UKM", "theta")
        assert gain == pytest.approx(
            report.overall_average("UCPC", "theta")
            - report.overall_average("UKM", "theta")
        )

    def test_render_contains_rows(self, report):
        for metric in ("theta", "quality"):
            text = report.render(metric)
            assert "iris" in text
            assert "overall avg" in text
            assert "UCPC" in text


class TestTable3:
    @pytest.fixture(scope="class")
    def report(self):
        return run_table3(
            ExperimentConfig(scale=0.004, n_runs=1, seed=5, n_samples=8),
            datasets=("neuroblastoma",),
            cluster_counts=(2, 3),
            algorithms=("UKM", "UCPC"),
        )

    def test_cells_present(self, report):
        assert len(report.quality) == 1 * 2 * 2
        for value in report.quality.values():
            assert -1.0 <= value <= 1.0

    def test_aggregates(self, report):
        avg = report.dataset_average("neuroblastoma", "UCPC")
        manual = np.mean(
            [report.quality[("neuroblastoma", k, "UCPC")] for k in (2, 3)]
        )
        assert avg == pytest.approx(manual)
        assert report.overall_average("UCPC") == pytest.approx(manual)

    def test_render(self, report):
        text = report.render()
        assert "neuroblastoma" in text
        assert "overall avg" in text


class TestFigure4:
    @pytest.fixture(scope="class")
    def report(self):
        return run_figure4(
            ExperimentConfig(scale=0.01, n_runs=1, seed=3, n_samples=8),
            datasets=("abalone",),
            slow_group=("UKmed",),
            fast_group=("UKM",),
            n_clusters=4,
        )

    def test_runtimes_positive(self, report):
        for value in report.runtimes_ms.values():
            assert value > 0.0

    def test_ucpc_always_measured(self, report):
        assert ("abalone", "UCPC") in report.runtimes_ms

    def test_orders_of_magnitude(self, report):
        oom = report.orders_of_magnitude_vs_ucpc("abalone", "UKmed")
        assert np.isfinite(oom)

    def test_render(self, report):
        text = report.render()
        assert "slower group" in text
        assert "faster group" in text


class TestFigure5:
    @pytest.fixture(scope="class")
    def report(self):
        return run_figure5(
            ExperimentConfig(n_runs=1, seed=4, n_samples=8),
            fractions=(0.25, 1.0),
            algorithms=("UKM", "UCPC"),
            base_size=400,
        )

    def test_sizes_grow_with_fraction(self, report):
        assert report.sizes[0.25] < report.sizes[1.0]

    def test_runtimes_recorded(self, report):
        assert len(report.runtimes_ms) == 2 * 2
        for value in report.runtimes_ms.values():
            assert value > 0.0

    def test_linearity_r2_bounded(self, report):
        for alg in ("UKM", "UCPC"):
            assert report.linearity_r2(alg) <= 1.0

    def test_render(self, report):
        text = report.render()
        assert "scalability" in text
        assert "25%" in text
