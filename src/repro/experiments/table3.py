"""Table 3 — accuracy (Q) on real microarray datasets (E2).

The paper's microarray datasets carry inherent probe-level uncertainty
and no reference classification, so only the internal criterion Q is
reported, for every cluster count k in {2, 3, 5, 10, 15, 20, 25, 30}.
The report reproduces the per-dataset average rows and the overall
average score/gain rows (paper: UCPC best overall, max gain +.534 vs
FDBSCAN, min +.034 vs MMVar; UAHC competitive on Neuroblastoma only).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datagen.microarray import make_microarray
from repro.engine import fit_runs
from repro.evaluation.internal import internal_scores
from repro.experiments.config import (
    ACCURACY_ROSTER,
    ExperimentConfig,
    SurfaceSpec,
    build_algorithm,
)
from repro.utils.rng import spawn_rngs
from repro.utils.tables import format_table

#: Cluster counts of Table 3.
TABLE3_CLUSTER_COUNTS = (2, 3, 5, 10, 15, 20, 25, 30)

#: The two real datasets of Table 1-(b).
TABLE3_DATASETS = ("neuroblastoma", "leukaemia")


@dataclass
class Table3Report:
    """Q measurements of every (dataset, k, algorithm) cell."""

    datasets: Tuple[str, ...]
    cluster_counts: Tuple[int, ...]
    algorithms: Tuple[str, ...]
    quality: Dict[Tuple[str, int, str], float] = field(default_factory=dict)

    def dataset_average(self, dataset: str, algorithm: str) -> float:
        """Average Q over cluster counts (paper's "avg score" rows)."""
        values = [
            self.quality[(dataset, k, algorithm)] for k in self.cluster_counts
        ]
        return float(np.mean(values))

    def overall_average(self, algorithm: str) -> float:
        """Average over both datasets and every cluster count."""
        values = [
            self.quality[(ds, k, algorithm)]
            for ds in self.datasets
            for k in self.cluster_counts
        ]
        return float(np.mean(values))

    def overall_gain(self, algorithm: str) -> float:
        """UCPC's overall average Q minus ``algorithm``'s."""
        return self.overall_average("UCPC") - self.overall_average(algorithm)

    def render(self) -> str:
        """Monospace table in the paper's Table 3 layout."""
        rows: List[Sequence[object]] = []
        for ds in self.datasets:
            for k in self.cluster_counts:
                row: List[object] = [ds, k]
                row.extend(self.quality[(ds, k, alg)] for alg in self.algorithms)
                rows.append(row)
        for ds in self.datasets:
            rows.append(
                [f"{ds} avg", ""]
                + [self.dataset_average(ds, alg) for alg in self.algorithms]
            )
        rows.append(
            ["overall avg", ""]
            + [self.overall_average(alg) for alg in self.algorithms]
        )
        rows.append(
            ["overall gain", ""]
            + [
                None if alg == "UCPC" else self.overall_gain(alg)
                for alg in self.algorithms
            ]
        )
        headers = ["data", "#clust."] + list(self.algorithms)
        return format_table(rows, headers=headers, title="Table 3 — Quality (Q)")


# ----------------------------------------------------------------------
# Group / cell executors and the surface spec
# ----------------------------------------------------------------------
def prepare_table3_group(ds_name: str, ds_rng, config: ExperimentConfig):
    """Materialize one Table 3 dataset group (consumes ``ds_rng``)."""
    return make_microarray(
        ds_name, scale=config.scale, mass=config.mass, seed=ds_rng
    )


def run_table3_cell(
    alg_name: str,
    dataset,
    k: int,
    ds_rng,
    config: ExperimentConfig,
) -> float:
    """Mean Q of one (dataset, k, algorithm) cell of Table 3."""
    k_eff = min(k, len(dataset) - 1)
    algorithm = build_algorithm(
        alg_name, n_clusters=k_eff, n_samples=config.n_samples
    )
    # n_runs + 1 streams: the last seeds the shared tensor (when
    # applicable), so ds_rng consumption — and hence every later cell's
    # seeds — is the same whichever algorithm type ran before.
    streams = spawn_rngs(ds_rng, config.n_runs + 1)
    results = fit_runs(
        algorithm,
        dataset,
        streams[:-1],
        sample_seed=streams[-1],
        n_jobs=config.n_jobs,
    )
    scores = np.array(
        [internal_scores(dataset, result.labels).quality for result in results]
    )
    return float(scores.mean())


@dataclass(frozen=True)
class Table3Spec(SurfaceSpec):
    """One Table 3 sub-grid: datasets x cluster counts x algorithms."""

    config: Optional[ExperimentConfig] = None
    datasets: Tuple[str, ...] = TABLE3_DATASETS
    cluster_counts: Tuple[int, ...] = TABLE3_CLUSTER_COUNTS
    algorithms: Tuple[str, ...] = ACCURACY_ROSTER

    def __post_init__(self) -> None:
        self._normalize(
            config=self.config or ExperimentConfig(scale=0.02),
            datasets=tuple(self.datasets),
            cluster_counts=tuple(int(k) for k in self.cluster_counts),
            algorithms=tuple(self.algorithms),
        )

    def report(self) -> Table3Report:
        return Table3Report(self.datasets, self.cluster_counts, self.algorithms)

    def groups(self):
        return self._seeded([(ds,) for ds in self.datasets])

    def cells(self, group):
        label, _ = group
        return [
            (label + (k, alg), label, (f"k{k}", alg))
            for k in self.cluster_counts
            for alg in self.algorithms
        ]

    def prepare(self, group):
        (ds_name,), ds_rng = group
        return prepare_table3_group(ds_name, ds_rng, self.config), ds_rng

    def run(self, dataset, rng, key):
        _, k, alg = key
        return {"quality": run_table3_cell(alg, dataset, k, rng, self.config)}

    def skip(self, dataset, rng, key):
        spawn_rngs(rng, self.config.n_runs + 1)

    def record(self, report, key, values):
        report.quality[key] = float(values["quality"])


def run_table3(
    config: Optional[ExperimentConfig] = None,
    datasets: Sequence[str] = TABLE3_DATASETS,
    cluster_counts: Sequence[int] = TABLE3_CLUSTER_COUNTS,
    algorithms: Sequence[str] = ACCURACY_ROSTER,
) -> Table3Report:
    """Regenerate Table 3 at the configured scale.

    Notes
    -----
    Default ``config.scale`` keeps the gene count laptop-sized (the
    paper's 22k genes make the O(n^2) competitors very slow — that is
    Figure 4's point, not Table 3's).  Q is averaged over
    ``config.n_runs`` runs per cell, executed through
    :func:`repro.engine.fit_runs` and sharing one sample tensor per
    (dataset, k, algorithm) cell.  This is the sweep of the single
    Table 3 surface with no result store.
    """
    from repro.engine.sweep import SweepGrid, run_sweep

    spec = Table3Spec(config, datasets, cluster_counts, algorithms)
    return run_sweep(SweepGrid(table3=spec)).table3
