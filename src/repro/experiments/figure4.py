"""Figure 4 — efficiency comparison (E3).

The paper plots on-line clustering runtimes (milliseconds) on the two
largest benchmarks (Abalone, Letter) and the two real datasets, with the
algorithms split into a "slower" group (UK-medoids, basic UK-means,
UAHC, FDBSCAN, FOPTICS) and a "faster" group (UK-means, MMVar,
MinMax-BB, VDBiP); UCPC is drawn in both plots as the common reference.

Expected reproduction shape: the slow group lands orders of magnitude
above UCPC; UCPC ≈ UK-means ≈ MMVar; the pruning variants sit between
basic UK-means and fast UK-means.  Off-line phases (moment/sample/
pairwise-distance precomputation, pruning-structure construction) are
excluded, matching Section 5.2.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datagen.benchmarks import make_benchmark
from repro.datagen.microarray import make_microarray
from repro.datagen.uncertainty_gen import UncertaintyGenerator
from repro.engine import fit_runs
from repro.experiments.config import (
    FAST_ROSTER,
    SLOW_ROSTER,
    ExperimentConfig,
    SurfaceSpec,
    build_algorithm,
)
from repro.objects.dataset import UncertainDataset
from repro.utils.rng import spawn_rngs
from repro.utils.tables import format_table

#: Default datasets of Figure 4 (benchmarks + real stand-ins).
FIGURE4_DATASETS = ("abalone", "letter", "neuroblastoma", "leukaemia")


@dataclass
class Figure4Report:
    """Mean clustering runtimes (milliseconds) per dataset and algorithm."""

    datasets: Tuple[str, ...]
    slow_group: Tuple[str, ...]
    fast_group: Tuple[str, ...]
    runtimes_ms: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def render(self) -> str:
        """Two tables mirroring the paper's left/right plot split."""
        blocks = []
        for title, roster in (
            ("Figure 4 (slower group) — runtimes [ms]", self.slow_group),
            ("Figure 4 (faster group) — runtimes [ms]", self.fast_group),
        ):
            columns = list(roster) + ["UCPC"]
            rows: List[Sequence[object]] = []
            for ds in self.datasets:
                rows.append(
                    [ds] + [self.runtimes_ms[(ds, alg)] for alg in columns]
                )
            blocks.append(
                format_table(
                    rows, headers=["data"] + columns, float_fmt=".2f", title=title
                )
            )
        return "\n\n".join(blocks)

    def orders_of_magnitude_vs_ucpc(self, dataset: str, algorithm: str) -> float:
        """log10 runtime ratio vs UCPC (positive = slower than UCPC)."""
        ucpc = self.runtimes_ms[(dataset, "UCPC")]
        other = self.runtimes_ms[(dataset, algorithm)]
        return float(np.log10(max(other, 1e-9) / max(ucpc, 1e-9)))


def _load_dataset(
    name: str, config: ExperimentConfig, seed
) -> UncertainDataset:
    """Uncertain dataset for one Figure 4 workload."""
    if name in ("neuroblastoma", "leukaemia"):
        from repro.datagen.microarray import MICROARRAY_SPECS

        scale = config.scale
        if config.max_objects is not None:
            scale = min(
                scale, config.max_objects / MICROARRAY_SPECS[name].n_genes
            )
        return make_microarray(name, scale=scale, mass=config.mass, seed=seed)
    points, labels = make_benchmark(
        name, scale=config.scale, seed=seed, max_objects=config.max_objects
    )
    generator = UncertaintyGenerator(
        family="normal", spread=config.spread, mass=config.mass
    )
    return generator.uncertain_dataset(points, labels, seed=seed)


# ----------------------------------------------------------------------
# Group / cell executors and the surface spec
# ----------------------------------------------------------------------
def prepare_figure4_group(
    ds_name: str, ds_rng, config: ExperimentConfig
) -> UncertainDataset:
    """Materialize one Figure 4 dataset group (consumes ``ds_rng``)."""
    return _load_dataset(ds_name, config, ds_rng)


def figure4_roster(
    slow_group: Sequence[str] = SLOW_ROSTER,
    fast_group: Sequence[str] = FAST_ROSTER,
) -> List[str]:
    """The deduplicated run order of one Figure 4 dataset group."""
    return list(dict.fromkeys(list(slow_group) + list(fast_group) + ["UCPC"]))


def run_figure4_cell(
    alg_name: str, dataset: UncertainDataset, k: int, ds_rng, config: ExperimentConfig
) -> float:
    """Mean on-line runtime (ms) of one (dataset, algorithm) cell."""
    algorithm = build_algorithm(
        alg_name, n_clusters=k, n_samples=config.n_samples
    )
    # n_runs + 1 streams: the last seeds the shared tensor (when
    # applicable), keeping ds_rng consumption independent of the
    # algorithm type.
    streams = spawn_rngs(ds_rng, config.n_runs + 1)
    results = fit_runs(
        algorithm,
        dataset,
        streams[:-1],
        sample_seed=streams[-1],
        n_jobs=config.n_jobs,
    )
    times = np.array([result.runtime_seconds for result in results])
    return float(times.mean() * 1e3)


@dataclass(frozen=True)
class Figure4Spec(SurfaceSpec):
    """One Figure 4 sub-grid: datasets x (slow + fast + UCPC) roster."""

    config: Optional[ExperimentConfig] = None
    datasets: Tuple[str, ...] = FIGURE4_DATASETS
    slow_group: Tuple[str, ...] = SLOW_ROSTER
    fast_group: Tuple[str, ...] = FAST_ROSTER
    n_clusters: int = 10

    def __post_init__(self) -> None:
        self._normalize(
            config=self.config or ExperimentConfig(scale=0.02, n_runs=3),
            datasets=tuple(self.datasets),
            slow_group=tuple(self.slow_group),
            fast_group=tuple(self.fast_group),
            n_clusters=int(self.n_clusters),
        )

    def report(self) -> Figure4Report:
        return Figure4Report(self.datasets, self.slow_group, self.fast_group)

    def groups(self):
        return self._seeded([(ds,) for ds in self.datasets])

    def cells(self, group):
        label, _ = group
        roster = figure4_roster(self.slow_group, self.fast_group)
        return [(label + (alg,), label, (alg,)) for alg in roster]

    def prepare(self, group):
        (ds_name,), ds_rng = group
        dataset = prepare_figure4_group(ds_name, ds_rng, self.config)
        return (dataset, min(self.n_clusters, len(dataset) - 1)), ds_rng

    def run(self, state, rng, key):
        dataset, k = state
        runtime_ms = run_figure4_cell(key[-1], dataset, k, rng, self.config)
        return {"runtime_ms": runtime_ms}

    def skip(self, state, rng, key):
        spawn_rngs(rng, self.config.n_runs + 1)

    def record(self, report, key, values):
        report.runtimes_ms[key] = float(values["runtime_ms"])


def run_figure4(
    config: Optional[ExperimentConfig] = None,
    datasets: Sequence[str] = FIGURE4_DATASETS,
    slow_group: Sequence[str] = SLOW_ROSTER,
    fast_group: Sequence[str] = FAST_ROSTER,
    n_clusters: int = 10,
) -> Figure4Report:
    """Regenerate Figure 4's runtime comparison at the configured scale.

    Runs execute through :func:`repro.engine.fit_runs`: sample-based
    algorithms draw one shared tensor per (dataset, algorithm) series,
    matching the paper's off-line/on-line accounting —
    ``runtime_seconds`` only ever times the on-line clustering phase.
    This is the sweep of the single Figure 4 surface with no result
    store.
    """
    from repro.engine.sweep import SweepGrid, run_sweep

    spec = Figure4Spec(config, datasets, slow_group, fast_group, n_clusters)
    return run_sweep(SweepGrid(figure4=spec)).figure4
