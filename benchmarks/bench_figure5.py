"""Benchmark harness for Figure 5 (E4) — scalability on the KDD workload.

One bench per (fraction, algorithm): the benchmark table shows runtime
growing linearly with the dataset fraction for every fast algorithm,
which is the paper's scalability claim.
"""

from __future__ import annotations

import pytest

from repro.datagen import UncertaintyGenerator, make_benchmark
from repro.experiments import SCALABILITY_ROSTER, build_algorithm
from repro.experiments.figure5 import FIGURE5_K

#: Base object count of the 100% fraction (paper: 4M; see "Substitutions"
#: in the README).
#: Scaled down so the full sweep (4 fractions x 5 algorithms) stays in
#: benchmark territory; raise via REPRO_BENCH_SCALE for larger runs.
BASE_SIZE = 4000

FRACTIONS = (0.05, 0.25, 0.5, 1.0)


@pytest.fixture(scope="module")
def kdd_full(bench_config):
    import os

    base = int(BASE_SIZE * float(os.environ.get("REPRO_BENCH_SCALE", "1.0")))
    scale = min(1.0, max(base, 200) / 4_000_000)
    points, labels = make_benchmark("kddcup99", scale=scale, seed=bench_config.seed)
    generator = UncertaintyGenerator(family="normal", spread=bench_config.spread)
    return generator.uncertain_dataset(points, labels, seed=bench_config.seed)


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("algorithm_name", SCALABILITY_ROSTER)
def test_scalability(benchmark, kdd_full, algorithm_name, fraction, bench_config):
    subset = kdd_full.sample_fraction(fraction, seed=3, stratified=True)
    k = min(FIGURE5_K, len(subset) - 1)
    algorithm = build_algorithm(
        algorithm_name, n_clusters=k, n_samples=bench_config.n_samples
    )
    benchmark.group = f"figure5-{algorithm_name}"
    benchmark.extra_info["n_objects"] = len(subset)
    # One round per point: the series across fractions is the artifact,
    # not per-point variance, and the pruning variants are costly.
    benchmark.pedantic(
        algorithm.fit, args=(subset,), kwargs={"seed": 5}, rounds=1, iterations=1
    )
