"""The three workloads: one paper artifact each, built from the seed alone.

Each workload function runs inside a fresh interpreter (one *sample*),
times the artifact call and returns the artifact's cells for the output
checks.  A cell is either numeric (``{"num": [...]}``, compared
with :data:`REL_TOL`) or a list of per-fit labelling digests seen by the
``fit_runs`` probe (``{"labels": [...]}``, compared exactly) — Figure 4
and Figure 5 cells store measured runtimes, so their outputs are checked
through the labels the fits returned.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from typing import Callable, Dict, List

DEFAULT_SEED = 2012

#: Relative tolerance of numeric cells: admits last-ulp drift from a
#: reordered summation (e.g. an ``internal_scores`` rewrite), nothing more.
REL_TOL = 1e-9
ABS_TOL = 1e-12

#: Timed ``--resume`` passes over the completed sweep store per sample.
RESUME_PASSES = 30

TABLE2_DATASETS = ("iris", "wine", "glass", "ecoli", "yeast")
FIGURE5_BASE_SIZE = 800
TABLE2_MAX_OBJECTS = 200
#: ``run_table2`` calls per sample, each at its own seed derived from the
#: workload seed.  How long one call takes depends on its seed (the
#: density methods find seed-dependent cluster counts, and
#: ``internal_scores`` is quadratic in them); summing a few calls keeps
#: that from deciding a run's median.
TABLE2_ARTIFACT_SEEDS = 3
SWEEP_FIGURE5_BASE_SIZE = 600
SWEEP_FIGURE4_DATASETS = ("abalone", "neuroblastoma")
SWEEP_FIGURE5_FRACTIONS = (0.25, 0.5, 1.0)

Cells = Dict[str, dict]


class Sample:
    """What one workload sample measured and produced."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.resume_ms: List[float] = []
        self.cells: Cells = {}
        #: Internal consistency checks: name -> passed.
        self.checks: Dict[str, bool] = {}


def _valid_number(value: float, low: float = -math.inf, high: float = math.inf) -> bool:
    return math.isfinite(value) and low <= value <= high


def _labels_cells(sample: Sample, tracer, tag: str, runtimes_ms: Dict[tuple, float]) -> None:
    """Cells of a runtime surface, matched in order to its ``fit_runs`` calls.

    ``runtimes_ms`` is the report's ``(group, algorithm) -> ms`` map in
    execution order; each cell made exactly one ``fit_runs`` call from
    the surface's module.
    """
    fits = tracer.fits_from(tag)
    sample.checks[f"{tag}.fit_calls"] = len(fits) == len(runtimes_ms) and all(
        entry["algorithm"] == alg for entry, (_, alg) in zip(fits, runtimes_ms)
    )
    for entry, ((group, alg), runtime_ms) in zip(fits, runtimes_ms.items()):
        name = f"{tag}/{group}/{alg}"
        sample.cells[name] = {"labels": entry["labels"]}
        sample.checks[f"{name}.runtime"] = _valid_number(runtime_ms) and runtime_ms > 0


# ----------------------------------------------------------------------
# table2_accuracy
# ----------------------------------------------------------------------
def table2_seeds(seed: int) -> List[int]:
    """The artifact seeds one sample runs, derived from the workload seed."""
    return [seed * TABLE2_ARTIFACT_SEEDS + j for j in range(TABLE2_ARTIFACT_SEEDS)]


def table2_config(seed: int):
    from repro.experiments import ExperimentConfig

    return ExperimentConfig(n_runs=1, max_objects=TABLE2_MAX_OBJECTS, seed=seed)


def table2_accuracy(seed: int, tracer, work_dir: Path) -> Sample:
    import repro.experiments.table2 as table2
    from repro.datagen.uncertainty_gen import PDF_FAMILIES

    sample = Sample()
    for artifact_seed in table2_seeds(seed):
        config = table2_config(artifact_seed)
        start = time.perf_counter()
        with tracer.span("experiments", name="run_table2"):
            report = table2.run_table2(config, datasets=TABLE2_DATASETS, families=PDF_FAMILIES)
        sample.wall_s += time.perf_counter() - start
        for (ds, fam, alg), cell in sorted(report.cells.items()):
            name = f"table2/{artifact_seed}/{ds}/{fam}/{alg}"
            sample.cells[name] = {"num": [cell.theta, cell.quality]}
            sample.checks[f"{name}.range"] = _valid_number(
                cell.theta, -1.0, 1.0
            ) and _valid_number(cell.quality)
    return sample


# ----------------------------------------------------------------------
# figure5_scalability
# ----------------------------------------------------------------------
def figure5_config(seed: int):
    from repro.experiments import ExperimentConfig

    return ExperimentConfig(n_runs=2, seed=seed)


def figure5_scalability(seed: int, tracer, work_dir: Path) -> Sample:
    import repro.experiments.figure5 as figure5

    sample = Sample()
    config = figure5_config(seed)
    start = time.perf_counter()
    with tracer.span("experiments", name="run_figure5"):
        report = figure5.run_figure5(config, base_size=FIGURE5_BASE_SIZE)
    sample.wall_s = time.perf_counter() - start
    _labels_cells(sample, tracer, "figure5", report.runtimes_ms)
    for frac in report.fractions:
        sample.cells[f"figure5/{frac}/n"] = {"num": [report.sizes[frac]]}
    return sample


# ----------------------------------------------------------------------
# sweep_grid
# ----------------------------------------------------------------------
def sweep_grid_spec(seed: int):
    from repro.engine.sweep import Figure4Spec, Figure5Spec, SweepGrid, Table2Spec, Table3Spec
    from repro.experiments import ExperimentConfig

    def config(**kwargs):
        return ExperimentConfig(n_runs=2, n_samples=8, seed=seed, **kwargs)

    return SweepGrid(
        table2=Table2Spec(config=config(max_objects=60), datasets=("iris", "wine")),
        table3=Table3Spec(config=config(scale=0.004)),
        figure4=Figure4Spec(
            config=config(scale=0.02, max_objects=80), datasets=SWEEP_FIGURE4_DATASETS
        ),
        figure5=Figure5Spec(
            config=config(), fractions=SWEEP_FIGURE5_FRACTIONS, base_size=SWEEP_FIGURE5_BASE_SIZE
        ),
    )


def _sweep_values(outcome) -> Dict[str, object]:
    """The report values of one sweep pass, for pass-to-pass comparison."""
    return {
        "table2": {k: (c.theta, c.quality) for k, c in outcome.table2.cells.items()},
        "table3": dict(outcome.table3.quality),
        "figure4": dict(outcome.figure4.runtimes_ms),
        "figure5": dict(outcome.figure5.runtimes_ms),
    }


def _remove_store(path: Path) -> None:
    for leftover in path.parent.glob(path.name + "*"):
        leftover.unlink()


def sweep_grid(seed: int, tracer, work_dir: Path) -> Sample:
    import repro.engine.sweep as sweep
    from repro.engine.store import open_store

    sample = Sample()
    grid = sweep_grid_spec(seed)
    path = work_dir / f"sweep-{seed}-{time.monotonic_ns()}.sqlite"
    _remove_store(path)
    try:
        start = time.perf_counter()
        with tracer.span("sweep", name="run_sweep"):
            fresh = sweep.run_sweep(grid, path, store_backend="sqlite")
        sample.wall_s = time.perf_counter() - start
        n_cells = len(fresh.executed)
        tracer.counters["sweep.cells_executed"] += n_cells
        sample.checks["sweep.fresh"] = not fresh.reused and not fresh.invalid
        expected = _sweep_values(fresh)

        resumed: List[bool] = []
        for _ in range(RESUME_PASSES):
            start = time.perf_counter()
            with tracer.span("sweep", name="run_sweep"):
                outcome = sweep.run_sweep(grid, path, resume=True, store_backend="sqlite")
            sample.resume_ms.append((time.perf_counter() - start) * 1e3)
            tracer.counters["sweep.cells_reused"] += len(outcome.reused)
            resumed.append(
                not outcome.executed
                and len(outcome.reused) == n_cells
                and _sweep_values(outcome) == expected
            )
        sample.checks["sweep.resume_reuses_every_cell"] = all(resumed)

        store = open_store(path, backend="sqlite")
        try:
            summary = store.metric_summary()
            best = store.best_cells("quality", mode="max")
            ranked = store.rank_over_grid("quality", mode="max")
        finally:
            store.close()
        counts = {(surface, metric): count for surface, metric, count, *_ in summary}
        n_quality = len(expected["table2"]) + len(expected["table3"])
        sample.checks["sweep.queries"] = (
            counts.get(("table2", "theta")) == len(expected["table2"])
            and counts.get(("figure5", "runtime_ms")) == len(expected["figure5"])
            and len(ranked) == n_quality
            and len(best) == len(grid.table2.datasets) * len(grid.table2.families)
            + len(grid.table3.datasets)
        )
    finally:
        _remove_store(path)

    for (ds, fam, alg), (theta, quality) in sorted(expected["table2"].items()):
        sample.cells[f"table2/{ds}/{fam}/{alg}"] = {"num": [theta, quality]}
    for (ds, k, alg), quality in sorted(expected["table3"].items()):
        sample.cells[f"table3/{ds}/k{k}/{alg}"] = {"num": [quality]}
        sample.checks[f"table3/{ds}/k{k}/{alg}.range"] = _valid_number(quality)
    _labels_cells(sample, tracer, "figure4", expected["figure4"])
    _labels_cells(sample, tracer, "figure5", expected["figure5"])
    return sample


#: Workload name -> sample function; BENCHMARK.json says why each was chosen.
WORKLOADS: Dict[str, Callable[[int, object, Path], Sample]] = {
    "table2_accuracy": table2_accuracy,
    "figure5_scalability": figure5_scalability,
    "sweep_grid": sweep_grid,
}


def compare_cell(got: dict, want: dict) -> bool:
    """Whether a cell matches its reference (numbers within REL_TOL)."""
    if got.keys() != want.keys():
        return False
    if "labels" in want:
        return got["labels"] == want["labels"]
    return len(got["num"]) == len(want["num"]) and all(
        math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        for a, b in zip(got["num"], want["num"])
    )
