"""Table 2 — accuracy on benchmark datasets (E1).

For every benchmark dataset and pdf family (Uniform / Normal /
Exponential), every roster algorithm is pushed through the paired
Case-1/Case-2 protocol of Section 5.1 and scored with

* ``Theta = F(C'') - F(C')`` (external criterion), and
* ``Q = inter - intra`` of the Case-2 clustering (internal criterion),

averaged over ``n_runs`` runs.  The report reproduces the paper's table
layout: one row per (dataset, pdf), per-family average scores, overall
average scores, and the overall average *gain* of UCPC over every
competitor — the headline numbers of the paper (+.509 ... +.115 on
Theta; +.228 ... +.027 on Q).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datagen.benchmarks import make_benchmark
from repro.datagen.uncertainty_gen import (
    PDF_FAMILIES,
    UncertainDataPair,
    UncertaintyGenerator,
)
from repro.evaluation.protocol import evaluate_theta_multirun, multirun_stream_plan
from repro.experiments.config import (
    ACCURACY_ROSTER,
    ExperimentConfig,
    SurfaceSpec,
    build_algorithm,
)
from repro.utils.tables import format_table

#: Default datasets of Table 2 (KDDCup99 is scalability-only in the paper).
TABLE2_DATASETS = (
    "iris",
    "wine",
    "glass",
    "ecoli",
    "yeast",
    "image",
    "abalone",
    "letter",
)


@dataclass
class Table2Cell:
    """One (dataset, pdf, algorithm) measurement."""

    theta: float
    quality: float


@dataclass
class Table2Report:
    """All Table 2 measurements plus the paper's aggregate rows."""

    datasets: Tuple[str, ...]
    families: Tuple[str, ...]
    algorithms: Tuple[str, ...]
    cells: Dict[Tuple[str, str, str], Table2Cell] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Aggregates (the paper's "average score" / "overall average" rows)
    # ------------------------------------------------------------------
    def average_score(self, family: str, algorithm: str, metric: str) -> float:
        """Per-family average over datasets (paper's "avg score" rows)."""
        values = [
            getattr(self.cells[(ds, family, algorithm)], metric)
            for ds in self.datasets
        ]
        return float(np.mean(values))

    def overall_average(self, algorithm: str, metric: str) -> float:
        """Average over all datasets and families."""
        values = [
            getattr(self.cells[(ds, fam, algorithm)], metric)
            for ds in self.datasets
            for fam in self.families
        ]
        return float(np.mean(values))

    def overall_gain(self, algorithm: str, metric: str) -> float:
        """UCPC's overall average minus ``algorithm``'s (paper's last row)."""
        return self.overall_average("UCPC", metric) - self.overall_average(
            algorithm, metric
        )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self, metric: str = "theta") -> str:
        """Monospace table in the paper's layout for one metric."""
        titles = {"theta": "F-measure (Theta)", "quality": "Quality (Q)"}
        rows: List[Sequence[object]] = []
        family_tag = {"uniform": "U", "normal": "N", "exponential": "E"}
        for ds in self.datasets:
            for fam in self.families:
                row: List[object] = [ds, family_tag.get(fam, fam)]
                row.extend(
                    getattr(self.cells[(ds, fam, alg)], metric)
                    for alg in self.algorithms
                )
                rows.append(row)
        for fam in self.families:
            row = ["avg score", family_tag.get(fam, fam)]
            row.extend(
                self.average_score(fam, alg, metric) for alg in self.algorithms
            )
            rows.append(row)
        rows.append(
            ["overall avg", ""]
            + [self.overall_average(alg, metric) for alg in self.algorithms]
        )
        rows.append(
            ["overall gain", ""]
            + [
                None if alg == "UCPC" else self.overall_gain(alg, metric)
                for alg in self.algorithms
            ]
        )
        headers = ["data", "pdf"] + list(self.algorithms)
        return format_table(rows, headers=headers, title=f"Table 2 — {titles[metric]}")


# ----------------------------------------------------------------------
# Group / cell executors and the surface spec
# ----------------------------------------------------------------------
def prepare_table2_group(
    ds_name: str, family: str, rng, config: ExperimentConfig
) -> Tuple[UncertainDataPair, int]:
    """Materialize one (dataset, family) group: the paired datasets.

    Consumes ``rng`` in a fixed order (benchmark generation, then
    uncertainty injection); the group's cells consume it after that.
    """
    points, labels = make_benchmark(
        ds_name,
        scale=config.scale,
        seed=rng,
        max_objects=config.max_objects,
    )
    generator = UncertaintyGenerator(
        family=family, spread=config.spread, mass=config.mass
    )
    pair = generator.generate(points, labels, seed=rng)
    n_classes = int(np.unique(labels).size)
    return pair, n_classes


def run_table2_cell(
    alg_name: str,
    pair: UncertainDataPair,
    n_classes: int,
    rng,
    config: ExperimentConfig,
) -> Table2Cell:
    """One (dataset, family, algorithm) measurement of Table 2."""
    algorithm = build_algorithm(
        alg_name, n_clusters=n_classes, n_samples=config.n_samples
    )
    outcome = evaluate_theta_multirun(
        algorithm,
        pair,
        n_runs=config.n_runs,
        seed=rng,
        n_jobs=config.n_jobs,
    )
    return Table2Cell(theta=outcome.theta_mean, quality=outcome.quality_mean)


@dataclass(frozen=True)
class Table2Spec(SurfaceSpec):
    """One Table 2 sub-grid: datasets x families x algorithms."""

    config: Optional[ExperimentConfig] = None
    datasets: Tuple[str, ...] = TABLE2_DATASETS
    families: Tuple[str, ...] = PDF_FAMILIES
    algorithms: Tuple[str, ...] = ACCURACY_ROSTER

    def __post_init__(self) -> None:
        self._normalize(
            config=self.config or ExperimentConfig(),
            datasets=tuple(self.datasets),
            families=tuple(self.families),
            algorithms=tuple(self.algorithms),
        )

    def report(self) -> Table2Report:
        return Table2Report(self.datasets, self.families, self.algorithms)

    def groups(self):
        return self._seeded(
            [(ds, family) for ds in self.datasets for family in self.families]
        )

    def cells(self, group):
        label, _ = group
        return [(label + (alg,), label, (alg,)) for alg in self.algorithms]

    def prepare(self, group):
        (ds_name, family), rng = group
        return prepare_table2_group(ds_name, family, rng, self.config), rng

    def run(self, state, rng, key):
        pair, n_classes = state
        cell = run_table2_cell(key[-1], pair, n_classes, rng, self.config)
        return {"theta": cell.theta, "quality": cell.quality}

    def skip(self, state, rng, key):
        multirun_stream_plan(rng, self.config.n_runs)

    def record(self, report, key, values):
        report.cells[key] = Table2Cell(
            theta=values["theta"], quality=values["quality"]
        )


def run_table2(
    config: Optional[ExperimentConfig] = None,
    datasets: Sequence[str] = TABLE2_DATASETS,
    families: Sequence[str] = PDF_FAMILIES,
    algorithms: Sequence[str] = ACCURACY_ROSTER,
) -> Table2Report:
    """Regenerate Table 2 at the configured scale.

    One uncertainty-generation per (dataset, family) — shared by all
    algorithms, exactly as in the paper — then ``config.n_runs``
    clustering runs per algorithm.  This is the sweep of the single
    Table 2 surface with no result store.
    """
    from repro.engine.sweep import SweepGrid, run_sweep

    spec = Table2Spec(config, datasets, families, algorithms)
    return run_sweep(SweepGrid(table2=spec)).table2
