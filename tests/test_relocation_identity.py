"""UCPC's and MMVar's relocation sweeps equal their numpy-vector loops.

Both sweeps run each object visit on Python floats.
``_legacy_ucpc_local_search`` and ``_legacy_mmvar_fit`` below are frozen
copies of the loops they replaced, which evaluated every visit as numpy
expressions over k-vectors and chose the target with ``np.argmin``.  The
same float operations in the same order give the same bits, so every fit
must agree exactly: labels, each ``objective_history`` entry (compared
as ``float.hex``), ``n_iterations``, ``converged`` and the Generator's
state after the fit.  The argmin rule is part of the contract: the first
minimum wins, the own cluster's zero change takes part, and a NaN delta
(finite moments whose sums overflow) means no move.

Never route the references through library code; only the initial
partition comes from :mod:`repro.clustering.initialization`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import UCPC, MMVar
from repro.clustering.initialization import (
    kmeanspp_seed_indices,
    partition_from_seeds,
    random_partition,
    random_seed_indices,
)
from repro.datagen import PDF_FAMILIES, UncertaintyGenerator, make_blobs_uncertain
from repro.datagen.benchmarks import make_benchmark
from repro.objects import UncertainDataset, UncertainObject

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)

STAND_INS = ("iris", "wine", "glass", "ecoli", "yeast")
INITS = ("random", "seeds", "kmeans++")


def _legacy_ucpc_local_search(model, dataset, assignment, k, rng):
    """UCPC's relocation sweeps as numpy expressions over k-vectors."""
    assignment = assignment.copy()
    sigma2_tot = dataset.sigma2_matrix.sum(axis=1)
    mu2_tot = dataset.mu2_matrix.sum(axis=1)
    mu = dataset.mu_matrix
    mu_norm_sq = np.einsum("ij,ij->i", mu, mu)

    counts = np.bincount(assignment, minlength=k).astype(np.float64)
    psi_tot = np.zeros(k)
    phi_tot = np.zeros(k)
    mean_sums = np.zeros((k, dataset.dim))
    np.add.at(psi_tot, assignment, sigma2_tot)
    np.add.at(phi_tot, assignment, mu2_tot)
    np.add.at(mean_sums, assignment, mu)
    ups = np.einsum("cj,cj->c", mean_sums, mean_sums)

    def objectives_vector() -> np.ndarray:
        safe = np.maximum(counts, 1.0)
        per = psi_tot / safe + phi_tot - ups / safe
        return np.where(counts > 0, per, 0.0)

    objectives = objectives_vector()
    history = [float(objectives.sum())]

    iterations = 0
    converged = False
    for _ in range(model.max_iter):
        iterations += 1
        moved = 0
        threshold = -model.min_improvement * max(1.0, abs(history[-1]))
        for idx in rng.permutation(len(dataset)):
            idx = int(idx)
            own = int(assignment[idx])
            if counts[own] <= 1.0:
                continue
            s = sigma2_tot[idx]
            p = mu2_tot[idx]
            cross = mean_sums @ mu[idx]
            counts_plus = counts + 1.0
            j_with = (psi_tot + s) / counts_plus + (phi_tot + p) - (
                ups + 2.0 * cross + mu_norm_sq[idx]
            ) / counts_plus
            n_minus = counts[own] - 1.0
            j_without = (
                (psi_tot[own] - s) / n_minus
                + (phi_tot[own] - p)
                - (ups[own] - 2.0 * cross[own] + mu_norm_sq[idx])
                / n_minus
            )
            delta = (j_without - objectives[own]) + (j_with - objectives)
            delta[own] = 0.0
            best = int(np.argmin(delta))
            if best != own and delta[best] < threshold:
                counts[own] -= 1.0
                counts[best] += 1.0
                psi_tot[own] -= s
                psi_tot[best] += s
                phi_tot[own] -= p
                phi_tot[best] += p
                mean_sums[own] -= mu[idx]
                mean_sums[best] += mu[idx]
                ups[own] = ups[own] - 2.0 * cross[own] + mu_norm_sq[idx]
                ups[best] = ups[best] + 2.0 * cross[best] + mu_norm_sq[idx]
                objectives[own] = j_without
                objectives[best] = j_with[best]
                assignment[idx] = best
                moved += 1
        ups = np.einsum("cj,cj->c", mean_sums, mean_sums)
        objectives = objectives_vector()
        history.append(float(objectives.sum()))
        if moved == 0:
            converged = True
            break
    return assignment, history, iterations, converged


def _legacy_ucpc_fit(model, dataset, rng):
    """UCPC's initial partition, then the frozen sweeps."""
    k = model.n_clusters
    if model.init == "random":
        assignment = random_partition(len(dataset), k, rng)
    else:
        if model.init == "kmeans++":
            seeds = kmeanspp_seed_indices(dataset, k, rng)
        else:
            seeds = random_seed_indices(len(dataset), k, rng)
        assignment = partition_from_seeds(dataset, seeds)
        assignment[seeds] = np.arange(k)
    return _legacy_ucpc_local_search(model, dataset, assignment, k, rng)


def _legacy_mmvar_fit(model, dataset, rng):
    """MMVar's fit with its relocation sweeps over k-vectors."""
    n = len(dataset)
    k = model.n_clusters
    assignment = random_partition(n, k, rng)

    mu2 = dataset.mu2_matrix
    mu = dataset.mu_matrix
    history = []
    iterations = 0
    converged = False
    mu2_tot = mu2.sum(axis=1)
    mu_norm_sq = np.einsum("ij,ij->i", mu, mu)
    counts = np.bincount(assignment, minlength=k).astype(np.float64)
    phi_tot = np.zeros(k)
    mean_sums = np.zeros((k, dataset.dim))
    np.add.at(phi_tot, assignment, mu2_tot)
    np.add.at(mean_sums, assignment, mu)
    ups = np.einsum("cj,cj->c", mean_sums, mean_sums)

    def objectives_vector() -> np.ndarray:
        safe = np.maximum(counts, 1.0)
        per = phi_tot / safe - ups / (safe * safe)
        return np.where(counts > 0, np.maximum(per, 0.0), 0.0)

    objectives = objectives_vector()
    history.append(float(objectives.sum()))
    for _ in range(model.max_iter):
        iterations += 1
        moved = 0
        threshold = -model.min_improvement * max(1.0, abs(history[-1]))
        for idx in rng.permutation(n):
            idx = int(idx)
            own = int(assignment[idx])
            if counts[own] <= 1.0:
                continue
            p = mu2_tot[idx]
            cross = mean_sums @ mu[idx]
            counts_plus = counts + 1.0
            j_with = (phi_tot + p) / counts_plus - (
                ups + 2.0 * cross + mu_norm_sq[idx]
            ) / (counts_plus * counts_plus)
            n_minus = counts[own] - 1.0
            if n_minus == 0.0:
                j_without = 0.0
            else:
                j_without = (phi_tot[own] - p) / n_minus - (
                    ups[own] - 2.0 * cross[own] + mu_norm_sq[idx]
                ) / (n_minus * n_minus)
            delta = (j_without - objectives[own]) + (j_with - objectives)
            delta[own] = 0.0
            best = int(np.argmin(delta))
            if best != own and delta[best] < threshold:
                counts[own] -= 1.0
                counts[best] += 1.0
                phi_tot[own] -= p
                phi_tot[best] += p
                mean_sums[own] -= mu[idx]
                mean_sums[best] += mu[idx]
                ups[own] = ups[own] - 2.0 * cross[own] + mu_norm_sq[idx]
                ups[best] = ups[best] + 2.0 * cross[best] + mu_norm_sq[idx]
                objectives[own] = max(j_without, 0.0)
                objectives[best] = max(float(j_with[best]), 0.0)
                assignment[idx] = best
                moved += 1
        ups = np.einsum("cj,cj->c", mean_sums, mean_sums)
        objectives = objectives_vector()
        history.append(float(objectives.sum()))
        if moved == 0:
            converged = True
            break
    return assignment, history, iterations, converged


def assert_same_fit(model, dataset, seed):
    """``model.fit`` equals its frozen reference bit for bit; returns the
    reference's history."""
    rng = np.random.default_rng(seed)
    result = model.fit(dataset, seed=rng)
    legacy_rng = np.random.default_rng(seed)
    legacy = _legacy_ucpc_fit if isinstance(model, UCPC) else _legacy_mmvar_fit
    labels, history, iterations, converged = legacy(model, dataset, legacy_rng)
    np.testing.assert_array_equal(result.labels, labels)
    assert [h.hex() for h in result.objective_history] == [
        h.hex() for h in history
    ]
    assert result.objective.hex() == history[-1].hex()
    assert result.n_iterations == iterations
    assert result.converged == converged
    assert rng.bit_generator.state == legacy_rng.bit_generator.state
    return history


def _models(k, **kwargs):
    return [UCPC(k, init=init, **kwargs) for init in INITS] + [MMVar(k, **kwargs)]


@pytest.fixture(scope="module")
def stand_ins():
    """Each stand-in's D' and D'' for every pdf family, with its k."""
    cases = {}
    for name in STAND_INS:
        points, labels = make_benchmark(name, max_objects=70, seed=3)
        k = int(np.unique(labels).size)
        for family in PDF_FAMILIES:
            pair = UncertaintyGenerator(family).generate(points, labels, seed=5)
            cases[name, family, "D'"] = (pair.perturbed, k)
            cases[name, family, "D''"] = (pair.uncertain, k)
    return cases


def _grid_points():
    """40 point masses on {0, 1, 2}^2: nine distinct points, many ties."""
    return np.array([[i % 3, (i // 3) % 3] for i in range(40)], dtype=np.float64)


def _overflow_points(seed):
    """24 moderate point masses plus four at ±1e154 on the first axis.

    Every moment is finite, but two same-sign giants in one cluster
    overflow its sums, so its objective and every delta into it are NaN
    while the other clusters stay finite."""
    rng = np.random.default_rng(seed)
    giants = np.zeros((4, 2))
    giants[:, 0] = rng.choice([-1.0, 1.0], size=4) * rng.uniform(1.0, 1.3, size=4)
    return np.vstack([rng.normal(size=(24, 2)), giants * 1e154])


class TestStandIns:
    @pytest.mark.parametrize("name", STAND_INS)
    def test_every_family_and_version(self, stand_ins, name):
        for family in PDF_FAMILIES:
            for version in ("D'", "D''"):
                dataset, k = stand_ins[name, family, version]
                for model in _models(k):
                    for seed in (0, 1):
                        assert_same_fit(model, dataset, seed)

    def test_sweep_grid_sizes(self):
        """Larger k and m, as in the sweep's Table 3 and Figure 5 cells."""
        data = make_blobs_uncertain(
            n_objects=150, n_clusters=8, n_attributes=12, seed=4
        )
        for k in (8, 30):
            for model in _models(k):
                assert_same_fit(model, data, seed=9)


class TestDegenerateInputs:
    @pytest.mark.parametrize("k", [1, 2, 3, 9, 10])
    def test_identical_point_masses(self, k):
        data = UncertainDataset.from_points(np.full((10, 2), 1.5))
        for model in _models(k):
            for seed in range(3):
                assert_same_fit(model, data, seed)

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_point_mass_grid_ties(self, k):
        data = UncertainDataset.from_points(_grid_points())
        for model in _models(k):
            for seed in range(4):
                assert_same_fit(model, data, seed)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_overflowing_sums(self, k):
        """A NaN delta means no move, as ``np.argmin`` returns it."""
        reached_nan = False
        for data_seed in range(4):
            data = UncertainDataset.from_points(_overflow_points(data_seed))
            models = [UCPC(k, init="random"), UCPC(k, init="seeds"), MMVar(k)]
            for model in models:
                for seed in range(3):
                    history = assert_same_fit(model, data, seed)
                    reached_nan |= np.isnan(history).any()
        assert reached_nan

    def test_k_extremes(self):
        data = make_blobs_uncertain(n_objects=14, n_clusters=3, seed=8)
        n = len(data)
        for k in (1, 2, n - 1, n):
            for model in _models(k):
                for seed in range(3):
                    assert_same_fit(model, data, seed)

    def test_single_sweep(self):
        data = make_blobs_uncertain(n_objects=60, n_clusters=4, seed=2)
        for model in _models(4, max_iter=1):
            for seed in range(3):
                assert_same_fit(model, data, seed)

    @pytest.mark.parametrize(
        "points",
        [np.full((12, 3), [1.1, 0.3, 2.7]), _grid_points() * 0.3 + 0.7],
        ids=["identical", "grid"],
    )
    def test_round_off_decides(self, points):
        """With ``min_improvement=0`` any negative delta moves, and on
        point masses at non-dyadic coordinates the deltas are round-off:
        every ulp, tie and clamp decides the path."""
        data = UncertainDataset.from_points(points)
        for k in (2, 3, 4):
            for model in _models(k, min_improvement=0.0, max_iter=30):
                for seed in range(3):
                    assert_same_fit(model, data, seed)


@st.composite
def integer_datasets(draw):
    """Small datasets of point masses and uniform boxes at integer
    coordinates (exact ties in the relocation deltas), with a k."""
    n = draw(st.integers(2, 12))
    dim = draw(st.integers(1, 3))
    coords = st.integers(-3, 3)
    objects = []
    for _ in range(n):
        center = draw(st.lists(coords, min_size=dim, max_size=dim))
        if draw(st.booleans()):
            objects.append(UncertainObject.from_point(center))
        else:
            widths = draw(st.lists(st.integers(1, 2), min_size=dim, max_size=dim))
            objects.append(UncertainObject.uniform_box(center, widths))
    return UncertainDataset(objects), draw(st.integers(1, n))


class TestProperty:
    @given(
        case=integer_datasets(),
        seed=st.integers(0, 2**32 - 1),
        model_index=st.integers(0, len(INITS)),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_vector_loop(self, case, seed, model_index):
        dataset, k = case
        assert_same_fit(_models(k)[model_index], dataset, seed)
