"""The sample-based UK-means family equals its three frozen Lloyd loops.

Basic UK-means, MinMax-BB and VDBiP (each with and without
cluster-shift) and the Elkan/Hamerly-bounded variant run one Lloyd
iteration over one sample tensor, and differ only in their assignment
step.  ``_legacy_basic_fit``, ``_legacy_pruning_fit`` and
``_legacy_bounded_fit`` below are frozen copies of the three loops that
each ran that iteration on its own: sample draw, seeding, candidate
masks, cluster-shift bounds, Elkan/Hamerly bounds, ED kernel,
empty-cluster repair, convergence test, centroid update and objective.
Every fit must agree with its reference exactly: labels, the
``float.hex`` of the objective, ``n_iterations``, ``converged``, every
``extras`` value (with its type) and the Generator's state after the
fit, hence its next draw.

The lossless regressions elsewhere compare each variant with
``BasicUKMeans`` only, so a change to the loop that every variant
inherits would pass them; these references pin the loop itself.  Never
route them through library code: the dataset supplies only its sample
tensor, its boxes and its moments.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.clustering import BasicUKMeans, BoundedUKMeans, MinMaxBB, VDBiP
from repro.datagen import PDF_FAMILIES, UncertaintyGenerator, make_blobs_uncertain
from repro.datagen.benchmarks import make_benchmark
from repro.objects import UncertainDataset, UncertainObject

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)


# ----------------------------------------------------------------------
# Frozen references
# ----------------------------------------------------------------------
def _draw_samples(model, dataset, rng):
    if model.sample_cache is not None:
        return np.asarray(model.sample_cache)
    return dataset.sample_tensor(model.n_samples, rng)


def _seed_centers(sample_means, k, rng):
    n = sample_means.shape[0]
    seeds = rng.choice(n, size=k, replace=False).astype(np.int64)
    return sample_means[seeds].copy()


def _repair(assignment, points, centers, k):
    """Move the farthest movable object into each empty cluster."""
    moves = []
    counts = np.bincount(assignment, minlength=k)
    while True:
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            return moves
        cluster = int(empty[0])
        diffs = points - centers[assignment]
        dist = np.einsum("ij,ij->i", diffs, diffs)
        movable = counts[assignment] > 1
        if not movable.any():
            return moves
        dist[~movable] = -np.inf
        victim = int(np.argmax(dist))
        counts[assignment[victim]] -= 1
        assignment[victim] = cluster
        counts[cluster] += 1
        moves.append((cluster, victim))


def _update_centers(centers, sample_means, assignment, k):
    for c in range(k):
        members = assignment == c
        if members.any():
            centers[c] = sample_means[members].mean(axis=0)


def _objective(dataset, assignment):
    k = int(assignment.max()) + 1
    mu = dataset.mu_matrix
    total = float(dataset.total_variances.sum())
    for c in range(k):
        members = assignment == c
        if not members.any():
            continue
        center = mu[members].mean(axis=0)
        diffs = mu[members] - center
        total += float(np.einsum("ij,ij->i", diffs, diffs).sum())
    return total


def _full_eds(samples, centers, metric=None):
    n = samples.shape[0]
    k = centers.shape[0]
    out = np.empty((n, k))
    if metric is not None:
        for i in range(n):
            for j in range(k):
                total = 0.0
                for row in samples[i]:
                    total += float(metric(row, centers[j]))
                out[i, j] = total / samples.shape[1]
        return out
    for j in range(k):
        diff = samples - centers[j]
        out[:, j] = np.einsum("nsm,nsm->ns", diff, diff).mean(axis=1)
    return out


def _legacy_basic_fit(model, dataset, rng):
    n = len(dataset)
    k = model.n_clusters
    samples = _draw_samples(model, dataset, rng)
    sample_means = samples.mean(axis=1)
    centers = _seed_centers(sample_means, k, rng)
    iterations = 0
    converged = False
    assignment = np.full(n, -1, dtype=np.int64)
    ed_evaluations = 0
    for _ in range(model.max_iter):
        iterations += 1
        distances = _full_eds(samples, centers, model.metric)
        ed_evaluations += n * k
        new_assignment = np.argmin(distances, axis=1).astype(np.int64)
        _repair(new_assignment, sample_means, centers, k)
        if np.array_equal(new_assignment, assignment):
            converged = True
            break
        assignment = new_assignment
        _update_centers(centers, sample_means, assignment, k)
    extras = {"ed_evaluations": ed_evaluations, "n_samples": model.n_samples}
    return assignment, _objective(dataset, assignment), iterations, converged, extras


def _margin(dim):
    return (dim + 8) * 2.0**-52


def _minmax_mask(boxes_lower, boxes_upper, centers):
    n = boxes_lower.shape[0]
    k = centers.shape[0]
    min_dist = np.empty((n, k))
    max_dist = np.empty((n, k))
    for j in range(k):
        c = centers[j]
        below = np.maximum(boxes_lower - c, 0.0)
        above = np.maximum(c - boxes_upper, 0.0)
        gap = below + above
        min_dist[:, j] = np.einsum("ij,ij->i", gap, gap)
        far = np.maximum(np.abs(c - boxes_lower), np.abs(c - boxes_upper))
        max_dist[:, j] = np.einsum("ij,ij->i", far, far)
    gamma = _margin(centers.shape[1])
    threshold = max_dist.min(axis=1) * (1.0 + gamma)
    return min_dist * (1.0 - gamma) <= threshold[:, None]


def _vdbip_mask(boxes_lower, boxes_upper, centers):
    n, m = boxes_lower.shape
    k = centers.shape[0]
    gamma = _margin(m)
    center_sq = np.einsum("cj,cj->c", centers, centers)
    budget = 2**17 // 3
    j_block = max(1, min(k, math.isqrt(budget) // k))
    rows = max(1, budget // (j_block * k))
    candidates = np.ones((n, k), dtype=bool)
    for j0 in range(0, k, j_block):
        block = slice(j0, min(j0 + j_block, k))
        width = block.stop - block.start
        a = (2.0 * (centers[None, :, :] - centers[block, None, :])).reshape(
            width * k, m
        )
        a_pos = np.maximum(a, 0.0).T
        a_neg = np.minimum(a, 0.0).T
        a_abs = np.abs(a).T
        b = (center_sq[block, None] - center_sq[None, :]).ravel()
        sq_sum = (center_sq[block, None] + center_sq[None, :]).ravel()
        for r0 in range(0, n, rows):
            part = slice(r0, min(r0 + rows, n))
            lower, upper = boxes_lower[part], boxes_upper[part]
            max_h = upper @ a_pos
            max_h += lower @ a_neg
            max_h += b
            neg_delta = np.maximum(np.abs(lower), np.abs(upper)) @ a_abs
            neg_delta += sq_sum
            neg_delta *= -gamma
            pruned = (max_h < neg_delta).reshape(-1, width, k).any(axis=1)
            candidates[part] &= ~pruned
    return candidates


def _tighten_with_shift(candidates, ed_matrix, ed_iteration, centers, centers_log):
    k = centers.shape[0]
    history = np.stack(centers_log)
    shift_since = np.linalg.norm(centers[None, :, :] - history, axis=2)
    have = np.isfinite(ed_matrix) & (ed_iteration >= 0)
    delta = shift_since[np.maximum(ed_iteration, 0), np.arange(k)[None, :]]
    roots = np.sqrt(np.where(have, np.maximum(ed_matrix, 0.0), 0.0))
    upper = np.where(have, (roots + delta) ** 2, np.inf)
    lower = np.where(have, np.maximum(roots - delta, 0.0) ** 2, 0.0)
    best_upper = upper.min(axis=1)
    keep = lower <= best_upper[:, None]
    tightened = candidates & keep
    dead = ~tightened.any(axis=1)
    if dead.any():
        tightened[dead] = candidates[dead]
    return tightened


def _legacy_pruning_fit(model, dataset, rng):
    mask = _minmax_mask if isinstance(model, MinMaxBB) else _vdbip_mask
    n = len(dataset)
    k = model.n_clusters
    samples = _draw_samples(model, dataset, rng)
    sample_means = samples.mean(axis=1)
    boxes_lower, boxes_upper = dataset.region_bounds
    centers = _seed_centers(sample_means, k, rng)
    ed_matrix = np.full((n, k), np.nan)
    ed_iteration = np.full((n, k), -1, dtype=np.int64)
    centers_log = []
    ed_computed = 0
    ed_pruned = 0
    iterations = 0
    converged = False
    assignment = np.full(n, -1, dtype=np.int64)
    for iteration in range(model.max_iter):
        iterations += 1
        centers_log.append(centers.copy())
        candidates = mask(boxes_lower, boxes_upper, centers)
        if model.cluster_shift and iteration > 0:
            candidates = _tighten_with_shift(
                candidates, ed_matrix, ed_iteration, centers, centers_log
            )
        new_assignment = np.empty(n, dtype=np.int64)
        cand_counts = candidates.sum(axis=1)
        single = cand_counts == 1
        if single.any():
            new_assignment[single] = np.argmax(candidates[single], axis=1)
            ed_pruned += int((k - 1) * single.sum())
        multi = ~single
        if multi.any():
            eds_multi = np.full((n, k), np.inf)
            for j in range(k):
                rows = np.flatnonzero(multi & candidates[:, j])
                if rows.size == 0:
                    continue
                diff = samples[rows] - centers[j]
                eds = np.einsum("nsm,nsm->ns", diff, diff).mean(axis=1)
                eds_multi[rows, j] = eds
                ed_matrix[rows, j] = eds
                ed_iteration[rows, j] = iteration
                ed_computed += int(rows.size)
            n_multi = int(multi.sum())
            ed_pruned += int(n_multi * k - candidates[multi].sum())
            new_assignment[multi] = np.argmin(eds_multi[multi], axis=1)
        _repair(new_assignment, sample_means, centers, k)
        if np.array_equal(new_assignment, assignment):
            converged = True
            break
        assignment = new_assignment
        _update_centers(centers, sample_means, assignment, k)
    total_pairs = ed_computed + ed_pruned
    extras = {
        "ed_evaluations": ed_computed,
        "ed_pruned": ed_pruned,
        "pruning_rate": ed_pruned / total_pairs if total_pairs else 0.0,
        "cluster_shift": model.cluster_shift,
    }
    return assignment, _objective(dataset, assignment), iterations, converged, extras


def _center_to_center(centers):
    diff = centers[:, None, :] - centers[None, :, :]
    return np.sqrt(np.einsum("klm,klm->kl", diff, diff))


def _half_nearest_other(cc):
    masked = cc.copy()
    np.fill_diagonal(masked, np.inf)
    return 0.5 * masked.min(axis=1)


def _elkan_assignment(samples, sample_means, centers, assignment, ub, lb):
    n, k = sample_means.shape[0], centers.shape[0]
    cc = _center_to_center(centers)
    s = _half_nearest_other(cc)
    s_a = s[assignment]
    active = ~(ub < s_a)
    for j in range(k):
        rows = np.flatnonzero(active & (assignment == j))
        if rows.size == 0:
            continue
        diff = sample_means[rows] - centers[j]
        d = np.sqrt(np.einsum("nm,nm->n", diff, diff))
        ub[rows] = d
        lb[rows, j] = d
    active &= ~(ub < s_a)
    new_assignment = assignment.copy()
    rows_skipped = int(n - active.sum())
    ed_evaluations = 0
    if active.any():
        act = np.flatnonzero(active)
        a_act = assignment[act]
        cand = lb[act] <= ub[act, None]
        cand &= 0.5 * cc[a_act] <= ub[act, None]
        cand[np.arange(act.size), a_act] = True
        for j in range(k):
            local = np.flatnonzero(cand[:, j] & (a_act != j))
            if local.size == 0:
                continue
            rows = act[local]
            diff = sample_means[rows] - centers[j]
            d = np.sqrt(np.einsum("nm,nm->n", diff, diff))
            lb[rows, j] = d
            cand[local, j] = d <= ub[rows]
        multi = cand.sum(axis=1) > 1
        if multi.any():
            eds = np.full((act.size, k), np.inf)
            for j in range(k):
                local = np.flatnonzero(multi & cand[:, j])
                if local.size == 0:
                    continue
                rows = act[local]
                diff = samples[rows] - centers[j]
                eds[local, j] = np.einsum("nsm,nsm->ns", diff, diff).mean(axis=1)
                ed_evaluations += int(rows.size)
            local_multi = np.flatnonzero(multi)
            winners = np.argmin(eds[local_multi], axis=1).astype(np.int64)
            rows = act[local_multi]
            new_assignment[rows] = winners
            ub[rows] = lb[rows, winners]
    return new_assignment, ed_evaluations, rows_skipped


def _hamerly_assignment(samples, sample_means, centers, assignment, ub, lb):
    n, k = sample_means.shape[0], centers.shape[0]
    cc = _center_to_center(centers)
    s = _half_nearest_other(cc)
    bound = np.maximum(s[assignment], lb)
    active = ~(ub < bound)
    for j in range(k):
        rows = np.flatnonzero(active & (assignment == j))
        if rows.size == 0:
            continue
        diff = sample_means[rows] - centers[j]
        ub[rows] = np.sqrt(np.einsum("nm,nm->n", diff, diff))
    active &= ~(ub < bound)
    new_assignment = assignment.copy()
    rows_skipped = int(n - active.sum())
    ed_evaluations = 0
    if active.any():
        act = np.flatnonzero(active)
        eds = np.empty((act.size, k))
        for j in range(k):
            diff = samples[act] - centers[j]
            eds[:, j] = np.einsum("nsm,nsm->ns", diff, diff).mean(axis=1)
        ed_evaluations = int(act.size * k)
        winners = np.argmin(eds, axis=1).astype(np.int64)
        new_assignment[act] = winners
        plane = np.empty((act.size, k))
        for j in range(k):
            diff = sample_means[act] - centers[j]
            plane[:, j] = np.sqrt(np.einsum("nm,nm->n", diff, diff))
        ub[act] = plane[np.arange(act.size), winners]
        plane[np.arange(act.size), winners] = np.inf
        lb[act] = plane.min(axis=1)
    return new_assignment, ed_evaluations, rows_skipped


def _legacy_bounded_fit(model, dataset, rng):
    n = len(dataset)
    k = model.n_clusters
    samples = _draw_samples(model, dataset, rng)
    sample_means = samples.mean(axis=1)
    centers = _seed_centers(sample_means, k, rng)
    iterations = 0
    converged = False
    assignment = np.full(n, -1, dtype=np.int64)
    ed_evaluations = 0
    rows_skipped = 0
    ub = lb = None
    for iteration in range(model.max_iter):
        iterations += 1
        if iteration == 0:
            distances = _full_eds(samples, centers)
            ed_evaluations += n * k
            new_assignment = np.argmin(distances, axis=1).astype(np.int64)
        else:
            step = _elkan_assignment if model.bounds == "elkan" else _hamerly_assignment
            new_assignment, n_eds, n_rows_skipped = step(
                samples, sample_means, centers, assignment, ub, lb
            )
            ed_evaluations += n_eds
            rows_skipped += n_rows_skipped
        moves = _repair(new_assignment, sample_means, centers, k)
        if moves and ub is not None:
            for cluster, victim in moves:
                diff = sample_means[victim] - centers[cluster]
                ub[victim] = float(np.sqrt(diff @ diff))
                if model.bounds == "hamerly":
                    lb[victim] = 0.0
        if np.array_equal(new_assignment, assignment):
            converged = True
            break
        assignment = new_assignment
        if iteration == 0:
            plane = np.empty((n, k))
            for j in range(k):
                diff = sample_means - centers[j]
                plane[:, j] = np.sqrt(np.einsum("nm,nm->n", diff, diff))
            if model.bounds == "elkan":
                lb = plane
            else:
                second = plane.copy()
                second[np.arange(n), assignment] = np.inf
                lb = second.min(axis=1)
            ub = plane[np.arange(n), assignment].copy()
        old_centers = centers.copy()
        _update_centers(centers, sample_means, assignment, k)
        drift = np.sqrt(
            np.einsum("km,km->k", centers - old_centers, centers - old_centers)
        )
        if model.bounds == "elkan":
            np.maximum(lb - drift[None, :], 0.0, out=lb)
        else:
            np.maximum(lb - drift.max(), 0.0, out=lb)
        ub += drift[assignment]
    total_pairs = iterations * n * k
    ed_skipped = total_pairs - ed_evaluations
    extras = {
        "ed_evaluations": ed_evaluations,
        "ed_skipped": ed_skipped,
        "skip_rate": ed_skipped / total_pairs if total_pairs else 0.0,
        "rows_skipped": rows_skipped,
        "bounds": model.bounds,
        "n_samples": model.n_samples,
    }
    return assignment, _objective(dataset, assignment), iterations, converged, extras


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
VARIANTS = {
    "bUKM": (BasicUKMeans, {}, _legacy_basic_fit),
    "MinMax-BB": (MinMaxBB, {}, _legacy_pruning_fit),
    "MinMax-BB-no-shift": (MinMaxBB, {"cluster_shift": False}, _legacy_pruning_fit),
    "VDBiP": (VDBiP, {}, _legacy_pruning_fit),
    "VDBiP-no-shift": (VDBiP, {"cluster_shift": False}, _legacy_pruning_fit),
    "Elkan": (BoundedUKMeans, {"bounds": "elkan"}, _legacy_bounded_fit),
    "Hamerly": (BoundedUKMeans, {"bounds": "hamerly"}, _legacy_bounded_fit),
}


def _near_identical_boxes():
    """Twelve tight boxes plus three near-copies: repairs at k near n."""
    rng = np.random.default_rng(5)
    base = rng.normal(0.0, 0.05, size=(12, 2))
    points = np.vstack([base, base[:3]])
    return UncertainDataset(
        [UncertainObject.uniform_box(p, [0.01, 0.01], label=0) for p in points]
    )


def _masses_among_pdfs():
    """Sixteen point masses on four spots among eight Gaussians.

    The duplicates tie, so fits at large k repair empty clusters on
    most iterations, and a victim is ranked on sample means that differ
    from the Gaussians' expected values."""
    rng = np.random.default_rng(7)
    spots = np.array([[i % 2, (i // 2) % 2] for i in range(16)], dtype=np.float64)
    objects = [UncertainObject.from_point(p) for p in 3.0 * spots]
    objects += [
        UncertainObject.gaussian(rng.normal(1.5, 1.5, 2), rng.uniform(0.3, 1.0, 2))
        for _ in range(8)
    ]
    return UncertainDataset(objects)


@pytest.fixture(scope="module")
def datasets():
    points, labels = make_benchmark("iris", max_objects=36, seed=3)
    cases = {
        "blobs": make_blobs_uncertain(
            n_objects=36, n_clusters=3, separation=2.0, seed=23
        ),
        "point-masses": UncertainDataset.from_points(
            np.array([[i % 3, (i // 3) % 3] for i in range(30)], dtype=np.float64)
        ),
        "near-identical-boxes": _near_identical_boxes(),
        "masses-among-pdfs": _masses_among_pdfs(),
    }
    for family in PDF_FAMILIES:
        cases[family] = UncertaintyGenerator(family).uncertain_dataset(
            points, labels, seed=5
        )
    return cases


def assert_same_fit(model, legacy, dataset, seed):
    rng = np.random.default_rng(seed)
    result = model.fit(dataset, seed=rng)
    legacy_rng = np.random.default_rng(seed)
    labels, objective, iterations, converged, extras = legacy(
        model, dataset, legacy_rng
    )
    np.testing.assert_array_equal(result.labels, labels)
    assert result.objective.hex() == objective.hex()
    assert result.n_iterations == iterations
    assert result.converged == converged
    assert repr(sorted(result.extras.items())) == repr(sorted(extras.items()))
    assert rng.bit_generator.state == legacy_rng.bit_generator.state


DATASETS = (
    "blobs",
    *PDF_FAMILIES,
    "point-masses",
    "near-identical-boxes",
    "masses-among-pdfs",
)


@pytest.mark.parametrize("variant", list(VARIANTS))
class TestFrozenLoops:
    @pytest.mark.parametrize("k_case", ["1", "2", "n-1", "n"])
    @pytest.mark.parametrize("name", DATASETS)
    def test_matches_frozen_loop(self, datasets, variant, name, k_case):
        cls, kwargs, legacy = VARIANTS[variant]
        dataset = datasets[name]
        n = len(dataset)
        k = {"1": 1, "2": 2, "n-1": n - 1, "n": n}[k_case]
        for seed in (0, 1):
            model = cls(k, n_samples=8, max_iter=30, **kwargs)
            assert_same_fit(model, legacy, dataset, seed)

    @pytest.mark.parametrize("name", DATASETS)
    def test_single_iteration(self, datasets, variant, name):
        cls, kwargs, legacy = VARIANTS[variant]
        model = cls(3, n_samples=8, max_iter=1, **kwargs)
        assert_same_fit(model, legacy, datasets[name], 2)

    def test_natural_k_many_seeds(self, datasets, variant):
        """Enough seeds at the data's own k for the bounds, the shift
        cache and the masks to decide many assignments."""
        cls, kwargs, legacy = VARIANTS[variant]
        for seed in range(6):
            model = cls(3, n_samples=16, **kwargs)
            assert_same_fit(model, legacy, datasets["blobs"], seed)

    def test_pinned_sample_cache(self, datasets, variant):
        cls, kwargs, legacy = VARIANTS[variant]
        dataset = datasets["normal"]
        model = cls(3, n_samples=8, **kwargs)
        model.sample_cache = dataset.sample_tensor(8, seed=42)
        assert_same_fit(model, legacy, dataset, 3)


def test_basic_custom_metric(datasets):
    """Basic UK-means' point-metric path."""
    model = BasicUKMeans(
        3, n_samples=4, metric=lambda x, y: float(np.abs(x - y).sum())
    )
    assert_same_fit(model, _legacy_basic_fit, datasets["uniform"], 4)
