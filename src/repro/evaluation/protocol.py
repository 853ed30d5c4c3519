"""The Case-1 / Case-2 evaluation protocol and Theta (S19).

Section 5.1 of the paper compares, for every clustering method:

* **Case 1** — clustering the perturbed deterministic dataset ``D'``
  (uncertainty ignored), scored as ``F(C', C~)``;
* **Case 2** — clustering the uncertain dataset ``D''`` (uncertainty
  modeled), scored as ``F(C'', C~)``;

and reports ``Theta = F(C'') - F(C') ∈ [-1, 1]`` — positive when
modeling the uncertainty *helps* that method.  Table 2 reports Theta
(external) alongside Q (internal, Case-2 clustering only).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._typing import SeedLike
from repro.clustering.base import UncertainClusterer
from repro.datagen.uncertainty_gen import UncertainDataPair
from repro.engine.runner import fit_runs
from repro.evaluation.external import f_measure
from repro.evaluation.internal import internal_scores
from repro.exceptions import InvalidParameterError
from repro.utils.rng import spawn_rngs
from repro.utils.validation import check_int_range


@dataclass(frozen=True)
class ThetaResult:
    """Scores of one paired Case-1 / Case-2 evaluation.

    Attributes
    ----------
    f_case1, f_case2:
        F-measures of the Case-1 / Case-2 clusterings vs. the reference.
    quality:
        Internal criterion Q of the Case-2 clustering.
    runtime_case2:
        On-line clustering seconds of the Case-2 run.
    """

    f_case1: float
    f_case2: float
    quality: float
    runtime_case2: float

    @property
    def theta(self) -> float:
        """``Theta = F(C'') - F(C')`` of Section 5.1."""
        return self.f_case2 - self.f_case1


def evaluate_theta(
    algorithm: UncertainClusterer,
    pair: UncertainDataPair,
    seed: SeedLike = None,
) -> ThetaResult:
    """Run one algorithm through the paired protocol.

    The internal criterion scores the Case-2 clustering on
    ``pair.uncertain``'s cached
    :meth:`~repro.objects.dataset.UncertainDataset.pairwise_ed`, the
    same matrix a ``wants_pairwise_ed`` algorithm (UK-medoids) fits on.

    Parameters
    ----------
    algorithm:
        Any library clusterer; it is fitted twice (on ``D'`` and ``D''``).
    pair:
        The paired datasets from
        :meth:`~repro.datagen.uncertainty_gen.UncertaintyGenerator.generate`.
    seed:
        Seeds both runs (independently spawned).
    """
    reference = pair.uncertain.labels
    if reference is None:
        raise InvalidParameterError(
            "the protocol needs reference labels on the uncertain dataset"
        )
    rng1, rng2 = spawn_rngs(seed, 2)
    result_case1 = algorithm.fit(pair.perturbed, seed=rng1)
    result_case2 = algorithm.fit(pair.uncertain, seed=rng2)
    internal = internal_scores(pair.uncertain, result_case2.labels)
    return ThetaResult(
        f_case1=f_measure(result_case1.labels, reference),
        f_case2=f_measure(result_case2.labels, reference),
        quality=internal.quality,
        runtime_case2=result_case2.runtime_seconds,
    )


@dataclass(frozen=True)
class AveragedThetaResult:
    """Multi-run average of :class:`ThetaResult` (the paper uses 50 runs)."""

    theta_mean: float
    theta_std: float
    quality_mean: float
    quality_std: float
    runtime_mean: float
    n_runs: int


def evaluate_theta_multirun(
    algorithm: UncertainClusterer,
    pair: UncertainDataPair,
    n_runs: int = 10,
    seed: SeedLike = None,
    n_jobs: int = 1,
) -> AveragedThetaResult:
    """Average the paired protocol over independent runs.

    The paper averages every measurement over 50 runs to wash out
    non-deterministic initialization; the experiment harness defaults to
    fewer runs for laptop runtimes (configurable).

    The Case-1 and Case-2 fit series each execute through
    :func:`repro.engine.fit_runs` — every run reads the same dataset
    moment cache and (for sample-based algorithms with initialization
    randomness) one shared sample tensor per dataset instead of
    re-drawing per run.  Algorithms whose only randomness is the
    Monte-Carlo draw (FDBSCAN/FOPTICS) keep per-run independent draws,
    preserving the paper's averaging semantics.  Each run consumes its
    seed exactly as :func:`evaluate_theta` does, so for the moment-based
    and sample-deterministic algorithms the averages equal those of
    ``evaluate_theta`` called once per run seed of
    :func:`multirun_stream_plan`.

    Each dataset's ``ÊD`` matrix is built once, on the dataset
    (:meth:`~repro.objects.dataset.UncertainDataset.pairwise_ed`), and
    read everywhere it appears: the internal criterion of every run
    *and* — for ``wants_pairwise_ed`` algorithms — the fits of both
    series.

    ``n_jobs`` is the worker count of the two fit series (the engine
    picks their backend from it and the algorithm).  It is
    result-identical for fixed seeds, so at the paper's 50-run protocol
    it changes only how long the measurement takes.
    """
    check_int_range(n_runs, "n_runs", low=1)
    reference = pair.uncertain.labels
    if reference is None:
        raise InvalidParameterError(
            "the protocol needs reference labels on the uncertain dataset"
        )
    seeds, sample_rng1, sample_rng2 = multirun_stream_plan(seed, n_runs)
    thetas = np.empty(n_runs)
    qualities = np.empty(n_runs)
    runtimes = np.empty(n_runs)
    # Mirror evaluate_theta's consumption of each run seed (one spawned
    # stream per case), then fit each case's series through the engine.
    case_seeds = [spawn_rngs(run_seed, 2) for run_seed in seeds]
    results_case1 = fit_runs(
        algorithm,
        pair.perturbed,
        [run_pair[0] for run_pair in case_seeds],
        sample_seed=sample_rng1,
        n_jobs=n_jobs,
    )
    results_case2 = fit_runs(
        algorithm,
        pair.uncertain,
        [run_pair[1] for run_pair in case_seeds],
        sample_seed=sample_rng2,
        n_jobs=n_jobs,
    )
    for run, (case1, case2) in enumerate(zip(results_case1, results_case2)):
        thetas[run] = f_measure(case2.labels, reference) - f_measure(
            case1.labels, reference
        )
        qualities[run] = internal_scores(pair.uncertain, case2.labels).quality
        runtimes[run] = case2.runtime_seconds
    return AveragedThetaResult(
        theta_mean=float(thetas.mean()),
        theta_std=float(thetas.std()),
        quality_mean=float(qualities.mean()),
        quality_std=float(qualities.std()),
        runtime_mean=float(runtimes.mean()),
        n_runs=n_runs,
    )


def multirun_stream_plan(seed: SeedLike, n_runs: int):
    """The exact streams one :func:`evaluate_theta_multirun` call derives.

    Returns ``(run_seeds, sample_rng1, sample_rng2)``: one stream per
    run plus the two shared-tensor streams, consumed from ``seed`` in
    this fixed order regardless of algorithm type.

    Exposed so schedulers that interleave completed and pending cells
    (the sweep orchestrator's ``--resume``) can *replay* a finished
    cell's seed consumption without running its fits — calling this
    function advances a stateful ``Generator`` seed exactly as the real
    evaluation would, keeping every later cell's streams bit-identical.
    """
    run_seeds = spawn_rngs(seed, n_runs)
    # Two extra streams for the shared-tensor draws.  Derived for every
    # algorithm type so ``seed`` consumption — and hence any caller
    # reusing the generator afterwards — never depends on the roster
    # position.
    sample_rng1, sample_rng2 = _extra_streams(seed, 2, already=n_runs)
    return run_seeds, sample_rng1, sample_rng2


def _extra_streams(seed: SeedLike, count: int, already: int):
    """``count`` fresh streams distinct from the first ``already`` ones.

    For a stateful :class:`Generator` seed the next spawn is already
    distinct; for int/None seeds the spawn is restarted from the seed
    sequence, so the first ``already`` children (handed out earlier)
    are skipped.
    """
    if isinstance(seed, np.random.Generator):
        return spawn_rngs(seed, count)
    return spawn_rngs(seed, already + count)[already:]
