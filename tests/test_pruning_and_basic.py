"""Tests for basic UK-means and the pruning variants (MinMax-BB, VDBiP)."""

from __future__ import annotations

import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import BasicUKMeans, BoundedUKMeans, MinMaxBB, UKMeans, VDBiP
from repro.clustering._repair import repair_empty_clusters
from repro.clustering.pruning import _PruningUKMeansBase
from repro.datagen import make_blobs_uncertain
from repro.evaluation import f_measure
from repro.exceptions import ConvergenceWarning, InvalidParameterError
from repro.experiments import ExperimentConfig
from repro.experiments.figure5 import (
    FIGURE5_K,
    prepare_figure5_base,
    prepare_figure5_fraction,
)
from repro.objects import UncertainDataset, UncertainObject


def _legacy_vdbip_mask(boxes_lower, boxes_upper, centers):
    """The VDBiP mask as the per-pair loop computed it before the GEMM
    tiles (frozen copy; prunes on ``max_h < 0`` with no margin)."""
    n = boxes_lower.shape[0]
    k = centers.shape[0]
    center_sq = np.einsum("cj,cj->c", centers, centers)
    candidates = np.ones((n, k), dtype=bool)
    for j in range(k):
        for l in range(k):
            if l == j:
                continue
            a = -2.0 * (centers[j] - centers[l])
            b = center_sq[j] - center_sq[l]
            max_h = (
                np.where(a > 0, boxes_upper * a, boxes_lower * a).sum(axis=1) + b
            )
            candidates[max_h < 0.0, l] = False
    dead = ~candidates.any(axis=1)
    if dead.any():
        candidates[dead] = True
    return candidates


def _exact(values):
    return [[Fraction(float(v)) for v in row] for row in np.atleast_2d(values)]


def _exact_sq_dists(point, centers):
    """Squared distances from ``point`` to each centroid, exactly."""
    (x,) = _exact(point)
    return [
        sum((xd - cd) ** 2 for xd, cd in zip(x, c)) for c in _exact(centers)
    ]


@pytest.fixture(scope="module")
def data():
    return make_blobs_uncertain(
        n_objects=120, n_clusters=3, separation=7.0, seed=17
    )


class TestBasicUKMeans:
    def test_recovers_blobs(self, data):
        result = BasicUKMeans(n_clusters=3, n_samples=32).fit(data, seed=0)
        assert f_measure(result.labels, data.labels) > 0.9

    def test_counts_ed_evaluations(self, data):
        result = BasicUKMeans(n_clusters=3, n_samples=16).fit(data, seed=0)
        evals = result.extras["ed_evaluations"]
        # bUKM evaluates every (object, centroid) pair every iteration.
        assert evals == len(data) * 3 * result.n_iterations

    def test_custom_metric(self, data):
        def manhattan(x, y):
            return float(np.abs(x - y).sum())

        small = data.subset(range(30))
        result = BasicUKMeans(n_clusters=3, n_samples=8, metric=manhattan).fit(
            small, seed=1
        )
        assert result.n_clusters == 3

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            BasicUKMeans(n_clusters=2, n_samples=0)
        with pytest.raises(InvalidParameterError):
            BasicUKMeans(n_clusters=2, max_iter=0)

    def test_agrees_with_fast_ukmeans_on_separated_data(self, data):
        """With squared Euclidean ED, bUKM's MC estimate converges to the
        fast UK-means assignment on well-separated clusters."""
        basic = BasicUKMeans(n_clusters=3, n_samples=64).fit(data, seed=3)
        fast = UKMeans(n_clusters=3, init="kmeans++").fit(data, seed=3)
        assert f_measure(basic.labels, data.labels) == pytest.approx(
            f_measure(fast.labels, data.labels), abs=0.1
        )


@pytest.mark.parametrize("cls", [MinMaxBB, VDBiP], ids=["MinMaxBB", "VDBiP"])
class TestPruningVariants:
    def test_recovers_blobs(self, cls, data):
        result = cls(n_clusters=3, n_samples=32).fit(data, seed=0)
        assert f_measure(result.labels, data.labels) > 0.9

    def test_prunes_something(self, cls, data):
        result = cls(n_clusters=3, n_samples=16).fit(data, seed=0)
        assert result.extras["ed_pruned"] > 0
        assert 0.0 < result.extras["pruning_rate"] <= 1.0

    def test_pruning_is_lossless(self, cls, data):
        """Pruned and unpruned runs produce the same clustering quality
        (pruning only skips provably non-winning candidates)."""
        pruned = cls(n_clusters=3, n_samples=32).fit(data, seed=5)
        plain = BasicUKMeans(n_clusters=3, n_samples=32).fit(data, seed=5)
        assert f_measure(pruned.labels, plain.labels) > 0.95

    def test_cluster_shift_toggle(self, cls, data):
        with_shift = cls(n_clusters=3, n_samples=16, cluster_shift=True).fit(
            data, seed=1
        )
        without = cls(n_clusters=3, n_samples=16, cluster_shift=False).fit(
            data, seed=1
        )
        assert with_shift.extras["cluster_shift"] is True
        assert without.extras["cluster_shift"] is False
        # Pruning (with or without shift bounds) is lossless: identical
        # seeds produce identical clusterings.
        assert f_measure(with_shift.labels, without.labels) == pytest.approx(1.0)

    def test_invalid_parameters(self, cls):
        with pytest.raises(InvalidParameterError):
            cls(n_clusters=2, n_samples=0)
        with pytest.raises(InvalidParameterError):
            cls(n_clusters=2, max_iter=0)


class TestCandidateMasks:
    """The pruning masks must never eliminate the true nearest centroid."""

    def _boxes_and_centers(self, seed):
        rng = np.random.default_rng(seed)
        centers = rng.normal(0, 5, size=(4, 2))
        mids = rng.normal(0, 5, size=(25, 2))
        half = rng.uniform(0.1, 1.5, size=(25, 2))
        return mids - half, mids + half, mids, centers

    @pytest.mark.parametrize("cls", [MinMaxBB, VDBiP], ids=["MinMaxBB", "VDBiP"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_mask_keeps_nearest_center_of_every_interior_point(self, cls, seed):
        lower, upper, mids, centers = self._boxes_and_centers(seed)
        algo = cls(n_clusters=4)
        mask = algo._candidate_mask(lower, upper, centers)
        # For random points inside each box, the nearest center must
        # remain a candidate (the pruning bounds hold for all box points,
        # hence for the pdf's support).
        rng = np.random.default_rng(seed + 100)
        for i in range(lower.shape[0]):
            for _ in range(5):
                x = rng.uniform(lower[i], upper[i])
                dists = ((centers - x) ** 2).sum(axis=1)
                nearest = int(np.argmin(dists))
                assert mask[i, nearest], (
                    f"pruned the nearest center {nearest} for object {i}"
                )

    def test_base_class_mask_not_implemented(self):
        class Dummy(_PruningUKMeansBase):
            name = "dummy"

        with pytest.raises(NotImplementedError):
            Dummy(n_clusters=2)._candidate_mask(
                np.zeros((1, 1)), np.ones((1, 1)), np.zeros((2, 1))
            )


def _near_tie_points(seed, n=200, k=4, m=8):
    """Point boxes a few ulps off the bisector of a random centroid pair."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 5.0, size=(k, m))
    points = np.empty((n, m))
    for i in range(n):
        j, l = rng.choice(k, size=2, replace=False)
        normal = centers[l] - centers[j]
        along = rng.normal(0.0, 1.0, size=m)
        along -= (along @ normal) / (normal @ normal) * normal
        point = 0.5 * (centers[j] + centers[l]) + along
        points[i] = point + rng.integers(-4, 5, size=m) * np.spacing(point)
    return points, centers


def _exactly_prunable(cls, lower, upper, centers):
    """``(k,)`` mask of the centroids that no point of the box
    ``[lower, upper]`` has as its nearest, by ``cls``'s test in exact
    arithmetic."""
    (lo,), (hi,) = _exact(lower), _exact(upper)
    exact_centers = _exact(centers)
    if cls is MinMaxBB:
        min_dist = [
            sum(max(ld - cd, cd - hd, 0) ** 2 for ld, hd, cd in zip(lo, hi, c))
            for c in exact_centers
        ]
        max_dist = [
            sum(max(abs(cd - ld), abs(cd - hd)) ** 2 for ld, hd, cd in zip(lo, hi, c))
            for c in exact_centers
        ]
        return np.array([d > min(max_dist) for d in min_dist])
    sq = [sum(cd * cd for cd in c) for c in exact_centers]

    def max_h(j, l):
        # max over the box of ||x - c_j||^2 - ||x - c_l||^2
        a = [2 * (cl - cj) for cj, cl in zip(exact_centers[j], exact_centers[l])]
        return sum(max(ad * ld, ad * hd) for ad, ld, hd in zip(a, lo, hi)) + (
            sq[j] - sq[l]
        )

    k = len(exact_centers)
    return np.array(
        [any(max_h(j, l) < 0 for j in range(k) if j != l) for l in range(k)]
    )


_magnitude = st.floats(min_value=1e-6, max_value=1e6)
_coordinate = st.one_of(
    st.integers(min_value=-3, max_value=3).map(float),
    _magnitude,
    _magnitude.map(lambda value: -value),
)


@st.composite
def _boxes_and_centers(draw):
    """Small boxes and centroids: magnitudes 1e-6..1e6 (so no square
    underflows), and small integers so that exact ties and duplicate
    centroids occur."""
    n = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=4))

    def matrix(rows, elements):
        cells = st.lists(elements, min_size=rows * m, max_size=rows * m)
        return np.array(draw(cells)).reshape(rows, m)

    lower = matrix(n, _coordinate)
    widths = matrix(n, st.one_of(st.just(0.0), st.floats(1e-6, 10.0)))
    return lower, lower + widths, matrix(k, _coordinate)


@pytest.mark.parametrize("cls", [MinMaxBB, VDBiP], ids=["MinMaxBB", "VDBiP"])
class TestProvablePruning:
    """Each pruner's rounded bounds carry a margin, so every prune holds
    in exact arithmetic.  Without it, a box a few ulps off a bisector
    could lose the centroid that is exactly nearest to it."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_exactly_nearest_centroid_is_never_pruned(self, cls, seed):
        points, centers = _near_tie_points(seed)
        mask = cls(n_clusters=len(centers))._candidate_mask(
            points, points, centers
        )
        for i, point in enumerate(points):
            dists = _exact_sq_dists(point, centers)
            nearest = [c for c, dist in enumerate(dists) if dist == min(dists)]
            assert mask[i, nearest].all(), (
                f"pruned the exactly-nearest centroid of point {i}"
            )

    @given(_boxes_and_centers())
    @settings(max_examples=150, deadline=None)
    def test_every_prune_is_exact_and_every_row_keeps_a_candidate(
        self, cls, boxes
    ):
        lower, upper, centers = boxes
        mask = cls(n_clusters=len(centers))._candidate_mask(lower, upper, centers)
        assert mask.any(axis=1).all()
        for i in range(len(lower)):
            prunable = _exactly_prunable(cls, lower[i], upper[i], centers)
            assert not (~mask[i] & ~prunable).any(), (
                f"row {i} pruned {np.flatnonzero(~mask[i] & ~prunable)} "
                "without an exact proof"
            )


@pytest.fixture(scope="module")
def figure5_subsets():
    """The KDD-shaped Figure 5 subsets of the benchmark's sweep: base
    size 600 (m = 42) at fractions 0.25, 0.5 and 1."""
    config = ExperimentConfig(n_runs=2, n_samples=8, seed=2012)
    full, rng_data, _ = prepare_figure5_base(config, 600)
    return {
        frac: prepare_figure5_fraction(full, frac, rng_data)
        for frac in (0.25, 0.5, 1.0)
    }


class TestVDBiPTiledMask:
    @pytest.mark.parametrize("frac", [0.25, 0.5, 1.0])
    def test_equals_the_pair_loop_along_a_figure5_fit(self, figure5_subsets, frac):
        """On real boxes no bisector test falls inside the margin, so
        the tiled mask equals the unmargined pair loop's at every
        iteration of a k = 23 fit."""
        masks = []

        class Checked(VDBiP):
            def _candidate_mask(self, lower, upper, centers):
                mask = super()._candidate_mask(lower, upper, centers)
                np.testing.assert_array_equal(
                    mask, _legacy_vdbip_mask(lower, upper, centers)
                )
                masks.append(mask)
                return mask

        subset = figure5_subsets[frac]
        assert subset.dim == 42
        Checked(FIGURE5_K, n_samples=8).fit(subset, seed=0)
        assert masks

    def test_temporaries_stay_tile_sized(self):
        """At n = 2000, k = 300, m = 42 the all-pairs ``(n, k(k - 1))``
        box-maximum matrix alone would take 1.4 GB; the mask's peak
        traced memory, less its ``(n, k)`` output, stays under 4 MB."""
        rng = np.random.default_rng(0)
        n, k, m = 2000, 300, 42
        lower = rng.normal(0.0, 5.0, size=(n, m))
        upper = lower + rng.uniform(0.0, 1.0, size=(n, m))
        centers = rng.normal(0.0, 5.0, size=(k, m))
        tracemalloc.start()
        try:
            mask = VDBiP(k)._candidate_mask(lower, upper, centers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mask.shape == (n, k)
        assert peak - mask.nbytes < 4 * 2**20


class TestLosslessPruningRegression:
    """Pruning must reproduce the basic UK-means assignments *exactly*.

    Regression for the cluster-shift staleness bug: the shift bound used
    only the last iteration's centroid displacement against EDs cached
    several iterations earlier, producing invalid lower bounds that
    could prune the true nearest centroid.
    """

    @pytest.mark.parametrize("cls", [MinMaxBB, VDBiP], ids=["MinMaxBB", "VDBiP"])
    @pytest.mark.parametrize("cluster_shift", [True, False], ids=["shift", "noshift"])
    def test_exact_assignment_match_across_seeds(self, cls, cluster_shift):
        data = make_blobs_uncertain(
            n_objects=80, n_clusters=4, separation=2.0, seed=23
        )
        for seed in range(20):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                basic = BasicUKMeans(n_clusters=4, n_samples=24).fit(
                    data, seed=seed
                )
                pruned = cls(
                    n_clusters=4, n_samples=24, cluster_shift=cluster_shift
                ).fit(data, seed=seed)
            np.testing.assert_array_equal(
                basic.labels,
                pruned.labels,
                err_msg=f"{cls.__name__} diverged from bUKM at seed {seed}",
            )
            assert pruned.objective == pytest.approx(basic.objective)


class TestEmptyClusterRepair:
    """The shared repair helper must not cascade new empty clusters."""

    def test_sole_member_victim_excluded(self):
        # Cluster 2 is empty and the object farthest from its centroid
        # (index 2, distance 10) is the *sole* member of cluster 1:
        # moving it — as the old argmax-only repair did — would merely
        # relocate the emptiness.  The helper must pick a cluster-0
        # object instead.
        points = np.array([[0.0], [0.1], [100.0]])
        centers = np.array([[0.05], [90.0], [50.0]])
        assignment = np.array([0, 0, 1], dtype=np.int64)
        moves = repair_empty_clusters(assignment, points, centers, k=3)
        counts = np.bincount(assignment, minlength=3)
        assert np.all(counts > 0), f"repair left empties: {counts}"
        assert assignment[2] == 1, "sole member was moved"
        assert moves and moves[0][0] == 2

    def test_cascade_is_refilled(self):
        # Two empty clusters and one far-away pair: naive repair that
        # iterates a stale empty list can end with an empty cluster.
        points = np.array([[0.0], [0.2], [10.0], [10.2]])
        centers = np.array([[0.1], [10.1], [5.0], [7.0]])
        assignment = np.array([0, 0, 1, 1], dtype=np.int64)
        repair_empty_clusters(assignment, points, centers, k=4)
        counts = np.bincount(assignment, minlength=4)
        assert np.all(counts > 0), f"repair left empties: {counts}"

    @pytest.mark.parametrize("cls", [MinMaxBB, VDBiP, BasicUKMeans])
    def test_k_near_n_adversarial(self, cls):
        """k close to n forces repeated repairs; every cluster survives."""
        rng = np.random.default_rng(5)
        # Tight groups of duplicate-ish points make many centroids
        # collapse onto the same optimum, forcing empty clusters.
        base = rng.normal(0.0, 0.05, size=(12, 2))
        points = np.vstack([base, base[:3]])
        objects = [
            UncertainObject.uniform_box(p, [0.01, 0.01], label=0)
            for p in points
        ]
        data = UncertainDataset(objects)
        k = len(data) - 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            result = cls(n_clusters=k, n_samples=8, max_iter=30).fit(
                data, seed=1
            )
        counts = np.bincount(result.labels, minlength=k)
        assert np.all(counts > 0), f"{cls.__name__} left empties: {counts}"

    def test_k_equals_n(self):
        """Extreme case: every object must end up alone in a cluster."""
        data = make_blobs_uncertain(n_objects=10, n_clusters=2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            result = MinMaxBB(n_clusters=10, n_samples=4, max_iter=20).fit(
                data, seed=3
            )
        counts = np.bincount(result.labels, minlength=10)
        assert np.all(counts == 1)


class TestSampleCache:
    @pytest.mark.parametrize("cls", [MinMaxBB, VDBiP, BasicUKMeans, BoundedUKMeans])
    def test_cache_shape_validated(self, cls, data):
        algo = cls(n_clusters=3, n_samples=8)
        algo.sample_cache = np.zeros((2, 8, 2))
        with pytest.raises(InvalidParameterError):
            algo.fit(data, seed=0)

    def test_cache_used_verbatim(self, data):
        tensor = data.sample_tensor(8, seed=42)
        algo = BasicUKMeans(n_clusters=3, n_samples=8)
        algo.sample_cache = tensor
        cached = algo.fit(data, seed=0)
        algo2 = BasicUKMeans(n_clusters=3, n_samples=8)
        algo2.sample_cache = tensor.copy()
        again = algo2.fit(data, seed=0)
        np.testing.assert_array_equal(cached.labels, again.labels)
