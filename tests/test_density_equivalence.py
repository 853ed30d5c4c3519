"""Seed-for-seed equivalence of the ported density-based algorithms.

PR 2 moved FDBSCAN and FOPTICS from per-object sampling loops onto the
batched ``UncertainDataset.sample_tensor`` path and replaced their
row-at-a-time pairwise computations with the blocked kernels of
``repro.clustering._density``.  This suite pins — in the spirit of
``TestLosslessPruningRegression`` — that the port is *behaviorally
invisible*: against frozen copies of the pre-port implementations
(reproduced below exactly as they shipped), the ported algorithms give

* identical FDBSCAN labels, and
* identical FOPTICS cluster orderings (and extracted labels),

for the same seeds across 20 seeds.  The sampled tensors themselves are
identical because the batched sampler consumes the RNG stream in the
same order as the per-object loop for family-homogeneous datasets; the
blocked kernels then agree with the legacy row loops to a few ulps,
which the discrete outputs (labels, orderings) absorb.
"""

from __future__ import annotations

import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from repro.clustering import FDBSCAN, FOPTICS, UAHC, auto_eps
from repro.clustering import _density
from repro.clustering.base import ClusteringResult
from repro.clustering.fdbscan import dbscan_labels, pairwise_reach_probabilities
from repro.clustering.foptics import cluster_ordering, expected_distance_matrix
from repro.datagen import make_blobs_uncertain
from repro.utils.rng import ensure_rng


# ----------------------------------------------------------------------
# Frozen pre-port reference implementations (verbatim seed-code idioms).
# ----------------------------------------------------------------------
def _legacy_sample_tensor(dataset, n_samples, rng):
    """The replaced off-line idiom: one Python sample call per object."""
    samples = np.empty((len(dataset), n_samples, dataset.dim))
    for idx, obj in enumerate(dataset):
        samples[idx] = obj.sample(n_samples, rng)
    return samples


def _legacy_reach_probabilities(samples, eps):
    """Pre-port row-loop estimator of ``Pr(||X_i - X_j|| <= eps)``."""
    n, _, _ = samples.shape
    eps_sq = eps * eps
    probs = np.eye(n)
    for i in range(n - 1):
        diff = samples[i + 1 :] - samples[i]
        within = np.einsum("nsm,nsm->ns", diff, diff) <= eps_sq
        p = within.mean(axis=1)
        probs[i, i + 1 :] = p
        probs[i + 1 :, i] = p
    return probs


def _legacy_expected_distances(samples):
    """Pre-port row-loop Monte-Carlo expected-distance matrix."""
    n = samples.shape[0]
    out = np.zeros((n, n))
    for i in range(n - 1):
        diff = samples[i + 1 :] - samples[i]
        dist = np.sqrt(np.einsum("nsm,nsm->ns", diff, diff)).mean(axis=1)
        out[i, i + 1 :] = dist
        out[i + 1 :, i] = dist
    return out


def _legacy_expand(is_core, reachable) -> np.ndarray:
    """Pre-port DBSCAN-style breadth-first expansion over a dense graph."""
    n = is_core.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    cluster_id = 0
    for start in range(n):
        if labels[start] != -1 or not is_core[start]:
            continue
        labels[start] = cluster_id
        queue = deque([start])
        while queue:
            node = queue.popleft()
            if not is_core[node]:
                continue
            for neighbor in np.flatnonzero(reachable[node]):
                if labels[neighbor] == -1:
                    labels[neighbor] = cluster_id
                    if is_core[neighbor]:
                        queue.append(int(neighbor))
        cluster_id += 1
    return labels


def _legacy_fdbscan_fit(model: FDBSCAN, dataset, seed) -> np.ndarray:
    """Pre-port FDBSCAN fit: per-object sampling, row-loop estimator and
    breadth-first expansion — shares no code with the ported labeling."""
    rng = ensure_rng(seed)
    eps = model.eps if model.eps is not None else auto_eps(
        dataset, model.eps_quantile
    )
    samples = _legacy_sample_tensor(dataset, model.n_samples, rng)
    probs = _legacy_reach_probabilities(samples, eps)
    expected_neighbors = probs.sum(axis=1)
    is_core = expected_neighbors >= model.min_pts
    reachable = probs >= model.reach_prob
    return _legacy_expand(is_core, reachable)


def _legacy_foptics_fit(model: FOPTICS, dataset, seed):
    """Pre-port FOPTICS fit: per-object sampling + row-loop distances."""
    rng = ensure_rng(seed)
    min_pts = min(model.min_pts, len(dataset))
    samples = _legacy_sample_tensor(dataset, model.n_samples, rng)
    distances = _legacy_expected_distances(samples)
    ordering, reachability = cluster_ordering(distances, min_pts)
    labels, _ = model._extract(ordering, reachability)
    return ordering, reachability, labels


@pytest.fixture(scope="module")
def data():
    # Moderate separation: clusters exist but the density structure has
    # boundary objects and noise, so every code path is exercised.
    return make_blobs_uncertain(
        n_objects=80, n_clusters=4, separation=3.0, seed=91
    )


class TestDensityEquivalenceRegression:
    """Ported density algorithms must reproduce the pre-port results.

    Regression for the batched-sampling port: for family-homogeneous
    datasets the batched tensor equals the per-object draws value for
    value, and the blocked pairwise kernels must not flip any discrete
    decision (core test, reachability edge, ordering step).
    """

    def test_fdbscan_exact_label_match_across_seeds(self, data):
        model = FDBSCAN(min_pts=4, n_samples=24)
        for seed in range(20):
            ported: ClusteringResult = model.fit(data, seed=seed)
            legacy = _legacy_fdbscan_fit(model, data, seed)
            np.testing.assert_array_equal(
                ported.labels,
                legacy,
                err_msg=f"FDBSCAN diverged from the pre-port path at seed {seed}",
            )

    def test_foptics_exact_ordering_match_across_seeds(self, data):
        model = FOPTICS(min_pts=4, n_samples=24, n_clusters=4)
        for seed in range(20):
            ported = model.fit(data, seed=seed)
            ordering, reachability, labels = _legacy_foptics_fit(
                model, data, seed
            )
            np.testing.assert_array_equal(
                np.asarray(ported.extras["ordering"]),
                ordering,
                err_msg=f"FOPTICS ordering diverged at seed {seed}",
            )
            np.testing.assert_array_equal(
                ported.labels,
                labels,
                err_msg=f"FOPTICS extraction diverged at seed {seed}",
            )
            np.testing.assert_allclose(
                np.asarray(ported.extras["reachability"]),
                reachability,
                rtol=1e-9,
                err_msg=f"FOPTICS reachability diverged at seed {seed}",
            )

    def test_batched_tensor_matches_per_object_draws(self, data):
        """The off-line phase itself is stream-identical on this data."""
        for seed in (0, 7):
            batched = data.sample_tensor(16, seed=seed)
            legacy = _legacy_sample_tensor(data, 16, ensure_rng(seed))
            np.testing.assert_array_equal(batched, legacy)


@st.composite
def _core_graphs(draw):
    """A random symmetric reachability graph and random core flags.

    Self-loops are drawn both ways: the dense probability matrix has
    them, the prefiltered pair list does not."""
    n = draw(st.integers(min_value=1, max_value=24))
    density = draw(st.floats(min_value=0.0, max_value=0.5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density, k=1)
    reachable = upper | upper.T
    np.fill_diagonal(reachable, draw(st.booleans()))
    is_core = rng.random(n) < draw(st.floats(min_value=0.0, max_value=1.0))
    return is_core, reachable


class TestConnectedComponentLabeling:
    """``dbscan_labels`` (connected components over core objects) is
    exactly the frozen breadth-first expansion, dense or sparse."""

    @given(_core_graphs())
    @settings(max_examples=300, deadline=None)
    def test_matches_breadth_first_expansion(self, case):
        is_core, reachable = case
        expected = _legacy_expand(is_core, reachable)
        np.testing.assert_array_equal(dbscan_labels(is_core, reachable), expected)
        np.testing.assert_array_equal(
            dbscan_labels(is_core, csr_matrix(reachable)), expected
        )


#: ``(n, S, m)`` shapes of the tile-walk tests: Table 2's sizes, a
#: ragged middle size and degenerate ones (one pair, one object).
TILE_SHAPES = [(150, 32, 4), (200, 32, 13), (37, 5, 3), (2, 1, 1), (1, 4, 2)]


def _shaped_samples(n, n_samples, m, seed=0):
    """An ``(n, S, m)`` tensor: per-object offsets plus sample noise."""
    rng = np.random.default_rng(seed)
    offsets = 3.0 * rng.normal(size=(n, 1, m))
    return offsets + rng.normal(size=(n, n_samples, m))


class TestBlockedKernels:
    """The tiled kernels agree with the row loops and with each other
    regardless of the tile side (a pinned ``block`` or the memory cap
    only trades peak memory for iterations, never values)."""

    @pytest.fixture(scope="class")
    def samples(self, data):
        return data.sample_tensor(24, seed=5)

    def test_reach_probabilities_match_legacy_on_blobs(self, samples):
        legacy = _legacy_reach_probabilities(samples, eps=1.5)
        for block in (None, 1, 3, 64, 10_000):
            blocked = pairwise_reach_probabilities(samples, 1.5, block=block)
            np.testing.assert_array_equal(
                blocked, legacy, err_msg=f"block={block}"
            )

    def test_expected_distances_match_legacy_on_blobs(self, samples):
        """Bit-identical, not merely close: FOPTICS's ordering loop
        breaks near-ties by float comparison, so the ED kernel must
        reproduce the row loop exactly (the ROADMAP-guarded invariant)."""
        legacy = _legacy_expected_distances(samples)
        for block in (None, 1, 3, 64, 10_000):
            blocked = expected_distance_matrix(samples, block=block)
            np.testing.assert_array_equal(
                blocked, legacy, err_msg=f"block={block}"
            )

    @pytest.mark.parametrize("shape", TILE_SHAPES, ids=str)
    def test_reach_probabilities_match_legacy(self, shape):
        """Every tile side, the automatic one included, at Table 2's
        shapes (several tiles with ragged edges) and at degenerate
        ones."""
        samples = _shaped_samples(*shape)
        eps = 3.0 * np.sqrt(shape[2])
        legacy = _legacy_reach_probabilities(samples, eps)
        for block in (None, 1, 7, shape[0], 10_000):
            tiled = pairwise_reach_probabilities(samples, eps, block=block)
            np.testing.assert_array_equal(
                tiled, legacy, err_msg=f"block={block}"
            )

    @pytest.mark.parametrize("shape", TILE_SHAPES, ids=str)
    def test_expected_distances_match_legacy(self, shape):
        samples = _shaped_samples(*shape)
        legacy = _legacy_expected_distances(samples)
        for block in (None, 1, 7, shape[0], 10_000):
            tiled = expected_distance_matrix(samples, block=block)
            np.testing.assert_array_equal(
                tiled, legacy, err_msg=f"block={block}"
            )

    def test_memory_knob_respected(self, data, samples, monkeypatch):
        """Shrinking the global element budget changes nothing but the
        internal block width."""
        reference = pairwise_reach_probabilities(samples, 1.5)
        monkeypatch.setattr(_density, "DENSITY_BLOCK_ELEMENTS", 256)
        constrained = pairwise_reach_probabilities(samples, 1.5)
        np.testing.assert_array_equal(constrained, reference)
        result = FDBSCAN(min_pts=4, n_samples=24).fit(data, seed=3)
        unconstrained_labels = _legacy_fdbscan_fit(
            FDBSCAN(min_pts=4, n_samples=24), data, 3
        )
        np.testing.assert_array_equal(result.labels, unconstrained_labels)

    def test_invalid_block(self, samples):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            pairwise_reach_probabilities(samples, 1.0, block=0)


class TestTileWalk:
    """What the one tile walk guarantees beyond matching the row loops:
    a canonical lower triangle, temporaries bounded by the tile, not by
    ``n``, and entries that depend only on their two objects."""

    @pytest.mark.parametrize("block", [None, 1, 3, 7, 64])
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_lower_triangle_is_canonical(self, n, block):
        """With a tile function whose ``(i, j)`` and ``(j, i)`` values
        differ (as FDBSCAN's may by an ulp), every entry is the value
        computed at ``(max(i, j), min(i, j))``, and no tile above the
        diagonal is ever computed."""
        asked = []

        def tile(rows, cols):
            asked.append((rows.start, cols.start))
            return 1000.0 * np.arange(n)[rows, None] + np.arange(n)[None, cols]

        out = _density.symmetric_from_tiles(n, 1, tile, block)
        i, j = np.indices((n, n))
        np.testing.assert_array_equal(
            out, 1000.0 * np.maximum(i, j) + np.minimum(i, j)
        )
        assert all(row0 >= col0 for row0, col0 in asked)

    @pytest.mark.parametrize(
        "kernel", ["expected_distances", "reach_probabilities", "jeffreys"]
    )
    def test_temporaries_stay_tile_sized(self, kernel):
        """At Table 2's (200, 32, 8) each kernel's peak traced memory,
        less its (n, n) output, stays under 4 MB (the row-block kernels
        it replaced peaked at 10-16 MB there)."""
        n, n_samples, m = 200, 32, 8
        samples = _shaped_samples(n, n_samples, m)
        mu = samples.mean(axis=1)
        var = samples.var(axis=1)
        run = {
            "expected_distances": lambda: expected_distance_matrix(samples),
            "reach_probabilities": lambda: pairwise_reach_probabilities(
                samples, 3.0 * np.sqrt(m)
            ),
            "jeffreys": lambda: UAHC(1)._full_proximity(mu, var),
        }[kernel]
        tracemalloc.start()
        try:
            out = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (n, n)
        assert peak - out.nbytes < 4 * 2**20

    @given(
        n=st.integers(min_value=1, max_value=40),
        n_samples=st.integers(min_value=1, max_value=6),
        m=st.integers(min_value=1, max_value=4),
        side=st.integers(min_value=1, max_value=45),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_object_permutation_equivariance(
        self, n, n_samples, m, side, seed
    ):
        """Permuting the objects permutes the ÊD and Jeffreys matrices
        bitwise, whatever tile and orientation computes each entry.
        (FDBSCAN's GEMM expansion may drift in ulps, so it is left out.)"""
        rng = np.random.default_rng(seed)
        samples = _shaped_samples(n, n_samples, m, seed)
        p = rng.permutation(n)
        distances = expected_distance_matrix(samples, block=side)
        np.testing.assert_array_equal(
            expected_distance_matrix(samples[p], block=side),
            distances[np.ix_(p, p)],
        )
        mu = samples.mean(axis=1)
        var = samples.var(axis=1) + 1e-3
        model = UAHC(1)
        proximity = model._full_proximity(mu, var, block=side)
        np.testing.assert_array_equal(
            model._full_proximity(mu[p], var[p]),
            proximity[np.ix_(p, p)],
        )


class TestDensitySampleCache:
    """FDBSCAN/FOPTICS honor the pinned-tensor protocol the engine uses."""

    @pytest.mark.parametrize("cls", [FDBSCAN, FOPTICS], ids=["FDB", "FOPT"])
    def test_pinned_cache_reused_verbatim(self, cls, data):
        tensor = data.sample_tensor(16, seed=11)
        first = cls(n_samples=16)
        first.sample_cache = tensor
        second = cls(n_samples=16)
        second.sample_cache = tensor.copy()
        # Different fit seeds: with a pinned tensor the fit is
        # deterministic, so results must coincide.
        a = first.fit(data, seed=0)
        b = second.fit(data, seed=999)
        np.testing.assert_array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("cls", [FDBSCAN, FOPTICS], ids=["FDB", "FOPT"])
    def test_cache_shape_validated(self, cls, data):
        from repro.exceptions import InvalidParameterError

        model = cls(n_samples=8)
        model.sample_cache = np.zeros((3, 8, data.dim))
        with pytest.raises(InvalidParameterError):
            model.fit(data, seed=0)
