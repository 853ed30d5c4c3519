"""Ablation benches (E8) — the design choices the paper argues for, on
synthetic blobs (the stand-ins for the paper's own data are described
under "Substitutions" in the README).

Three ablations:

1. **Objective ablation** — J (UCPC) vs the variance-only criterion the
   paper rejects in Section 4.2.1 vs plain J_UK (UK-means).  The bench
   times them and asserts the paper's qualitative claim: the
   variance-only criterion loses badly on positional structure.
2. **Optimizer ablation** — Algorithm 1's sequential relocation vs a
   Lloyd-style batch minimizer of the same J.
3. **Incremental-statistics ablation** — Corollary 1's O(m) updates vs
   recomputing Theorem 3's closed form from scratch (O(|C|·m)) per
   candidate relocation, the cost the paper's formulas eliminate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import (
    UCPC,
    ClusterStats,
    UCPCLloyd,
    UKMeans,
    VarianceOnlyClustering,
    j_ucpc_closed_form,
)
from repro.datagen import make_blobs_uncertain
from repro.evaluation import f_measure


@pytest.fixture(scope="module")
def blobs():
    return make_blobs_uncertain(
        n_objects=240, n_clusters=4, separation=6.0, seed=99
    )


# ----------------------------------------------------------------------
# 1. Objective ablation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "algo_cls", [UCPC, UKMeans, VarianceOnlyClustering],
    ids=["J-UCPC", "J-UK", "variance-only"],
)
def test_objective_ablation(benchmark, blobs, algo_cls):
    algo = algo_cls(n_clusters=4)
    benchmark.group = "ablation-objective"
    result = benchmark(algo.fit, blobs, seed=1)
    benchmark.extra_info["f_measure"] = f_measure(result.labels, blobs.labels)


def test_variance_only_criterion_fails_positionally(benchmark, blobs):
    """Figure 2's claim, measured: the rejected criterion clusters far
    worse than J on positional structure.  The benchmarked callable runs
    the head-to-head comparison; the assertion checks the accuracy gap."""

    def head_to_head():
        ucpc_f = np.mean(
            [
                f_measure(UCPC(4).fit(blobs, seed=s).labels, blobs.labels)
                for s in range(3)
            ]
        )
        var_f = np.mean(
            [
                f_measure(
                    VarianceOnlyClustering(4).fit(blobs, seed=s).labels,
                    blobs.labels,
                )
                for s in range(3)
            ]
        )
        return ucpc_f, var_f

    benchmark.group = "ablation-objective"
    ucpc_f, var_f = benchmark.pedantic(head_to_head, rounds=1, iterations=1)
    assert ucpc_f > var_f + 0.2


# ----------------------------------------------------------------------
# 2. Optimizer ablation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "algo_cls", [UCPC, UCPCLloyd], ids=["relocation", "lloyd-batch"]
)
def test_optimizer_ablation(benchmark, blobs, algo_cls):
    algo = algo_cls(n_clusters=4)
    benchmark.group = "ablation-optimizer"
    result = benchmark(algo.fit, blobs, seed=2)
    benchmark.extra_info["objective"] = result.objective


# ----------------------------------------------------------------------
# 3. Incremental statistics (Corollary 1) vs recomputation
# ----------------------------------------------------------------------
def test_corollary1_incremental_update(benchmark, blobs):
    """O(m) hypothetical-insertion queries via Corollary 1."""
    stats = ClusterStats.from_objects(list(blobs)[:100])
    probe = blobs[100]
    benchmark.group = "ablation-cluster-stats"
    benchmark(stats.objective_with, probe)


def test_naive_recomputation(benchmark, blobs):
    """O(|C| m) from-scratch evaluation of Theorem 3's closed form."""
    members = list(blobs)[:100]
    probe = blobs[100]
    benchmark.group = "ablation-cluster-stats"
    benchmark(lambda: j_ucpc_closed_form(members + [probe]))
