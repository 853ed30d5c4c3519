"""Figure 5 — scalability on the KDD Cup '99 workload (E4).

The paper varies the KDD Cup '99 dataset size from 5% to 100% (4M
objects, 42 attributes, k fixed at 23 — every class kept represented in
each subset) and times the fast algorithms.  Expected shape: all
algorithms linear in n, MMVar scaling best, UCPC tracking UK-means.

This runner synthesizes the KDD-shaped dataset once at a base size, then
takes stratified fractions exactly as the paper does.  A linearity
diagnostic (R^2 of the least-squares line through each algorithm's
(n, time) series) quantifies the "linear trend" claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datagen.benchmarks import make_benchmark
from repro.datagen.uncertainty_gen import UncertaintyGenerator
from repro.engine import fit_runs
from repro.experiments.config import (
    SCALABILITY_ROSTER,
    ExperimentConfig,
    SurfaceSpec,
    build_algorithm,
)
from repro.utils.rng import spawn_rngs
from repro.utils.tables import format_table

#: Dataset fractions of Figure 5.
FIGURE5_FRACTIONS = (0.05, 0.25, 0.5, 0.75, 1.0)

#: Cluster count fixed by the paper (the 23 KDD Cup classes).
FIGURE5_K = 23


@dataclass
class Figure5Report:
    """Runtimes (ms) per (fraction, algorithm) plus linearity diagnostics."""

    fractions: Tuple[float, ...]
    algorithms: Tuple[str, ...]
    sizes: Dict[float, int] = field(default_factory=dict)
    runtimes_ms: Dict[Tuple[float, str], float] = field(default_factory=dict)

    def linearity_r2(self, algorithm: str) -> float:
        """R^2 of the least-squares line through (n, runtime)."""
        x = np.array([self.sizes[f] for f in self.fractions], dtype=np.float64)
        y = np.array(
            [self.runtimes_ms[(f, algorithm)] for f in self.fractions]
        )
        if x.size < 2:
            return 1.0
        slope, intercept = np.polyfit(x, y, 1)
        predicted = slope * x + intercept
        ss_res = float(((y - predicted) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        if ss_tot == 0.0:
            return 1.0
        return 1.0 - ss_res / ss_tot

    def render(self) -> str:
        """Monospace table of the scalability series."""
        rows: List[Sequence[object]] = []
        for frac in self.fractions:
            row: List[object] = [f"{frac:.0%}", self.sizes[frac]]
            row.extend(self.runtimes_ms[(frac, alg)] for alg in self.algorithms)
            rows.append(row)
        rows.append(
            ["linearity R^2", ""]
            + [self.linearity_r2(alg) for alg in self.algorithms]
        )
        headers = ["fraction", "n"] + list(self.algorithms)
        return format_table(
            rows,
            headers=headers,
            float_fmt=".2f",
            title="Figure 5 — scalability on KDD Cup '99 workload [ms]",
        )


# ----------------------------------------------------------------------
# Group / cell executors and the surface spec
# ----------------------------------------------------------------------
def prepare_figure5_base(config: ExperimentConfig, base_size: int):
    """The full KDD-shaped dataset plus the two master streams.

    Returns ``(full, rng_data, rng_runs)``; ``rng_data`` is consumed
    further by each fraction's stratified subset draw, ``rng_runs`` by
    each cell — both statefully, so a sweep replays this sequence in
    full whenever any Figure 5 cell is pending.
    """
    rng_data, rng_runs = spawn_rngs(config.seed, 2)
    scale = min(1.0, base_size / 4_000_000)
    points, labels = make_benchmark("kddcup99", scale=scale, seed=rng_data)
    generator = UncertaintyGenerator(
        family="normal", spread=config.spread, mass=config.mass
    )
    full = generator.uncertain_dataset(points, labels, seed=rng_data)
    return full, rng_data, rng_runs


def prepare_figure5_fraction(full, frac: float, rng_data):
    """One fraction's stratified subset (consumes ``rng_data``)."""
    return full.sample_fraction(frac, seed=rng_data, stratified=True)


def run_figure5_cell(
    alg_name: str, subset, k: int, rng_runs, config: ExperimentConfig
) -> float:
    """Mean on-line runtime (ms) of one (fraction, algorithm) cell."""
    algorithm = build_algorithm(
        alg_name, n_clusters=k, n_samples=config.n_samples
    )
    # n_runs + 1 streams: the last seeds the shared tensor (when
    # applicable), keeping rng_runs consumption independent of the
    # algorithm type.
    streams = spawn_rngs(rng_runs, config.n_runs + 1)
    results = fit_runs(
        algorithm,
        subset,
        streams[:-1],
        sample_seed=streams[-1],
        n_jobs=config.n_jobs,
    )
    times = np.array([result.runtime_seconds for result in results])
    return float(times.mean() * 1e3)


@dataclass(frozen=True)
class Figure5Spec(SurfaceSpec):
    """One Figure 5 sub-grid: fractions x scalability roster."""

    config: Optional[ExperimentConfig] = None
    fractions: Tuple[float, ...] = FIGURE5_FRACTIONS
    algorithms: Tuple[str, ...] = SCALABILITY_ROSTER
    base_size: int = 20000

    def __post_init__(self) -> None:
        self._normalize(
            config=self.config or ExperimentConfig(n_runs=3),
            fractions=tuple(float(f) for f in self.fractions),
            algorithms=tuple(self.algorithms),
            base_size=int(self.base_size),
        )

    def report(self) -> Figure5Report:
        return Figure5Report(self.fractions, self.algorithms)

    def groups(self):
        # Every fraction's subset draw consumes the one data stream, so
        # the surface is a single group: its dataset synthesis is only
        # skipped when every cell is reusable.
        return [((), None)]

    def cells(self, group):
        return [
            ((frac, alg), (f"f{frac}",), (alg,))
            for frac in self.fractions
            for alg in self.algorithms
        ]

    def prepare(self, group):
        full, rng_data, rng_runs = prepare_figure5_base(
            self.config, self.base_size
        )
        drawn = {}

        def subset_at(frac):
            # Each fraction's subset is drawn when the walk first reaches
            # it, reused cells included, so rng_data stays in step; only
            # the current subset is kept.
            if frac not in drawn:
                drawn.clear()
                drawn[frac] = prepare_figure5_fraction(full, frac, rng_data)
            return drawn[frac]

        return subset_at, rng_runs

    def run(self, subset_at, rng, key):
        frac, alg = key
        subset = subset_at(frac)
        k = min(FIGURE5_K, len(subset) - 1)
        runtime_ms = run_figure5_cell(alg, subset, k, rng, self.config)
        return {"runtime_ms": runtime_ms, "n": len(subset)}

    def skip(self, subset_at, rng, key):
        subset_at(key[0])
        spawn_rngs(rng, self.config.n_runs + 1)

    def record(self, report, key, values):
        report.runtimes_ms[key] = float(values["runtime_ms"])
        report.sizes[key[0]] = int(values["n"])


def run_figure5(
    config: Optional[ExperimentConfig] = None,
    fractions: Sequence[float] = FIGURE5_FRACTIONS,
    algorithms: Sequence[str] = SCALABILITY_ROSTER,
    base_size: int = 20000,
) -> Figure5Report:
    """Regenerate Figure 5 at a configurable base size.

    This is the sweep of the single Figure 5 surface with no result
    store.

    Parameters
    ----------
    base_size:
        Object count of the 100% fraction (paper: 4,000,000; default
        20,000 keeps the sweep under a minute — linearity and algorithm
        ordering are visible at any scale).
    """
    from repro.engine.sweep import SweepGrid, run_sweep

    spec = Figure5Spec(config, fractions, algorithms, base_size)
    return run_sweep(SweepGrid(figure5=spec)).figure5
