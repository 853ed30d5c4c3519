"""Experiment configuration and the algorithm rosters of the paper (S23).

The paper evaluates a fixed roster of algorithms per experiment:

* accuracy (Tables 2-3): FDBSCAN, FOPTICS, UAHC, UK-medoids, UK-means,
  MMVar, UCPC;
* efficiency (Figure 4): the above plus basic UK-means, MinMax-BB and
  VDBiP, split into a "slower" and a "faster" group;
* scalability (Figure 5): the fast algorithms only.

Defaults here run paper-*shaped* experiments at laptop scale; pass
``scale=1.0`` and ``n_runs=50`` to match the paper's exact sizes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Callable, Dict, Optional

from repro.clustering import (
    FDBSCAN,
    FOPTICS,
    MMVar,
    UAHC,
    UCPC,
    BasicUKMeans,
    BoundedUKMeans,
    MiniBatchUKMeans,
    MinMaxBB,
    UKMeans,
    UKMedoids,
    VDBiP,
)
from repro.clustering.base import UncertainClusterer
from repro.engine.store.base import RECORDED_EXECUTION
from repro.exceptions import InvalidParameterError
from repro.utils.rng import spawn_rngs
from repro.utils.validation import check_int_range, check_mass

#: Display order of the accuracy-roster columns (matches Table 2).
ACCURACY_ROSTER = ("FDB", "FOPT", "UAHC", "UKmed", "UKM", "MMV", "UCPC")

#: The "slower" group of Figure 4 (left-hand plots).
SLOW_ROSTER = ("UKmed", "bUKM", "UAHC", "FDB", "FOPT")

#: The "faster" group of Figure 4 (right-hand plots).
FAST_ROSTER = ("UKM", "MMV", "MinMax-BB", "VDBiP")

#: Figure 5 scalability roster.
SCALABILITY_ROSTER = ("UKM", "MMV", "MinMax-BB", "VDBiP", "UCPC")


def build_algorithm(name: str, n_clusters: int, n_samples: int = 32) -> UncertainClusterer:
    """Instantiate a roster algorithm by its paper abbreviation.

    Parameters
    ----------
    name:
        Paper abbreviation (``"UCPC"``, ``"UKM"``, ``"MMV"``, ``"UKmed"``,
        ``"bUKM"``, ``"MinMax-BB"``, ``"VDBiP"``, ``"FDB"``, ``"FOPT"``,
        ``"UAHC"``), or one of the scale-path variants added on top of
        the paper rosters (``"bUKM-EH"`` for bounds-accelerated basic
        UK-means, ``"MB-UKM"`` for mini-batch UK-means).
    n_clusters:
        Desired cluster count (ignored by FDBSCAN, which discovers it).
    n_samples:
        Monte-Carlo samples for the sample-based algorithms.
    """
    factories: Dict[str, Callable[[], UncertainClusterer]] = {
        "UCPC": lambda: UCPC(n_clusters),
        "UKM": lambda: UKMeans(n_clusters),
        "MMV": lambda: MMVar(n_clusters),
        "UKmed": lambda: UKMedoids(n_clusters),
        "bUKM": lambda: BasicUKMeans(n_clusters, n_samples=n_samples),
        "MinMax-BB": lambda: MinMaxBB(n_clusters, n_samples=n_samples),
        "VDBiP": lambda: VDBiP(n_clusters, n_samples=n_samples),
        "FDB": lambda: FDBSCAN(n_samples=n_samples),
        # FOPTICS extracts its flat clustering at the requested cluster
        # count so the F-measure comparison is k-comparable across
        # algorithms (FDBSCAN, which has no ordering to cut, stays free).
        "FOPT": lambda: FOPTICS(n_samples=n_samples, n_clusters=n_clusters),
        "UAHC": lambda: UAHC(n_clusters),
        # Scale-path variants (not on any paper roster): bounds-accelerated
        # basic UK-means (lossless) and mini-batch UK-means (lossy).
        "bUKM-EH": lambda: BoundedUKMeans(n_clusters, n_samples=n_samples),
        "MB-UKM": lambda: MiniBatchUKMeans(n_clusters),
    }
    if name not in factories:
        raise InvalidParameterError(
            f"unknown algorithm {name!r}; known: {sorted(factories)}"
        )
    return factories[name]()


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs of the experiment runners.

    Attributes
    ----------
    scale:
        Fraction of the paper's dataset sizes to generate (1.0 = paper
        scale).
    max_objects:
        Hard cap on benchmark dataset sizes, applied after ``scale``;
        keeps the big benchmarks (Yeast...Letter) laptop-sized while the
        small ones stay at paper scale.  ``None`` disables the cap (use
        with ``scale=1.0`` for full paper-scale runs).
    n_runs:
        Runs averaged per measurement (paper: 50).
    seed:
        Master seed; every (dataset, family, algorithm, run) derives an
        independent stream from it.
    n_samples:
        Monte-Carlo samples for sample-based algorithms.
    spread:
        Uncertainty magnitude for the Section 5.1 generator.
    mass:
        Case-2 region probability mass (paper: 0.95).
    n_jobs:
        Worker count of the per-run fit series
        (:func:`repro.engine.fit_runs`), which picks each series'
        backend from it and the algorithm (see
        :func:`repro.engine.choose_backend`).  Result-identical for
        fixed seeds, so it only changes wall-clock time — the
        paper-scale 50-run protocols are where it pays off.
    """

    scale: float = 1.0
    max_objects: Optional[int] = 600
    n_runs: int = 5
    seed: int = 2012
    n_samples: int = 32
    spread: float = 1.0
    mass: float = 0.95
    n_jobs: int = 1

    def __post_init__(self) -> None:
        check_mass(self.scale, "scale")
        if self.max_objects is not None:
            check_int_range(self.max_objects, "max_objects", low=1)
        for name in ("n_runs", "n_samples", "n_jobs"):
            check_int_range(getattr(self, name), name, low=1)

    def describe(self) -> Dict[str, object]:
        """The JSON-ready form recorded in sweep manifests.

        Manifests written while the config still had its ``engine``
        switch (always on) and its execution settings carry ``"engine":
        true`` and the execution keys; both stay, the execution keys at
        the fixed values of
        :data:`~repro.engine.store.base.RECORDED_EXECUTION` (``n_jobs``
        never changes a cell), so those stores still resume.
        """
        return {**asdict(self), **RECORDED_EXECUTION, "engine": True}


class SurfaceSpec:
    """Base of the four surface specs (``Table2Spec`` ... ``Figure5Spec``).

    A *surface* is one paper artifact's grid.  One loop
    (:func:`repro.engine.sweep.run_sweep`) walks every surface through
    the steps its spec defines:

    * ``groups()`` — the dataset groups in run order, each a ``(label,
      rng)`` pair: the label parts name the group in progress lines;
    * ``cells(group)`` — the group's cells in run order, each a ``(key,
      where, what)`` triple: ``key`` indexes the report, ``where`` and
      ``what`` are the group and cell parts of the cell's store id;
    * ``prepare(group)`` — materialize the group; returns ``(state,
      rng)``, ``rng`` being the stream its cells consume in order;
    * ``run(state, rng, key)`` — compute one cell's stored values;
    * ``skip(state, rng, key)`` — replay one cell's seed consumption
      without running it (a stored cell, or one leased elsewhere);
    * ``record(report, key, values)`` — enter one cell's values into the
      report that ``report()`` starts.
    """

    def _normalize(self, **values) -> None:
        """Set normalized field values from a frozen ``__post_init__``."""
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _seeded(self, labels) -> list:
        """Pair every group label with its own stream from the seed."""
        return list(zip(labels, spawn_rngs(self.config.seed, len(labels))))

    def describe(self) -> Dict[str, object]:
        """The spec's manifest entry: its config and axes, JSON-ready."""
        entry: Dict[str, object] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, ExperimentConfig):
                value = value.describe()
            elif isinstance(value, tuple):
                value = list(value)
            entry[spec_field.name] = value
        return entry
