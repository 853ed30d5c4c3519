"""Tests for the internal validity criteria (intra / inter / Q)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import make_blobs_uncertain
from repro.evaluation import internal_scores, quality_score
from repro.exceptions import InvalidParameterError
from repro.objects import UncertainDataset, UncertainObject
from repro.objects.distance import pairwise_squared_expected_distances


class TestInternalScores:
    def test_bounds(self, blob_dataset):
        labels = np.array(blob_dataset.labels)
        scores = internal_scores(blob_dataset, labels)
        assert 0.0 <= scores.intra <= 1.0
        assert 0.0 <= scores.inter <= 1.0
        assert -1.0 <= scores.quality <= 1.0

    def test_true_labels_beat_random_labels(self, blob_dataset):
        true_q = quality_score(blob_dataset, np.array(blob_dataset.labels))
        rng = np.random.default_rng(0)
        random_q = quality_score(
            blob_dataset, rng.integers(0, 3, size=len(blob_dataset))
        )
        assert true_q > random_q

    def test_good_clustering_has_positive_q(self):
        data = make_blobs_uncertain(
            n_objects=60, n_clusters=2, separation=8.0, seed=1
        )
        assert quality_score(data, np.array(data.labels)) > 0.3

    def test_precomputed_distances_match(self, blob_dataset):
        labels = np.array(blob_dataset.labels)
        distances = pairwise_squared_expected_distances(blob_dataset)
        direct = internal_scores(blob_dataset, labels)
        cached = internal_scores(blob_dataset, labels, distances)
        assert direct.intra == pytest.approx(cached.intra)
        assert direct.inter == pytest.approx(cached.inter)

    def test_noise_excluded(self, blob_dataset):
        labels = np.array(blob_dataset.labels)
        labels[:5] = -1
        scores = internal_scores(blob_dataset, labels)
        assert -1.0 <= scores.quality <= 1.0

    def test_all_noise_residual_is_single_cluster(self, blob_dataset):
        """Residual policy: all-noise degenerates to one cluster (Q < 0)."""
        labels = np.full(len(blob_dataset), -1)
        scores = internal_scores(blob_dataset, labels)
        assert scores.inter == 0.0
        assert scores.intra > 0.0
        assert scores.quality < 0.0

    def test_all_noise_excluded_gives_zero(self, blob_dataset):
        labels = np.full(len(blob_dataset), -1)
        scores = internal_scores(blob_dataset, labels, noise_policy="exclude")
        assert scores.intra == 0.0
        assert scores.inter == 0.0
        assert scores.quality == 0.0

    def test_noise_policy_changes_score(self, blob_dataset):
        """Shedding half the objects as noise must not *improve* Q under
        the residual policy."""
        labels = np.array(blob_dataset.labels)
        noisy = labels.copy()
        noisy[::2] = -1
        residual = internal_scores(blob_dataset, noisy).quality
        excluded = internal_scores(
            blob_dataset, noisy, noise_policy="exclude"
        ).quality
        assert residual <= excluded + 1e-9

    def test_invalid_noise_policy(self, blob_dataset):
        with pytest.raises(InvalidParameterError):
            internal_scores(
                blob_dataset,
                np.zeros(len(blob_dataset)),
                noise_policy="ignore",
            )

    def test_single_cluster_zero_inter(self, blob_dataset):
        labels = np.zeros(len(blob_dataset), dtype=np.int64)
        scores = internal_scores(blob_dataset, labels)
        assert scores.inter == 0.0
        assert scores.intra > 0.0

    def test_singleton_clusters_have_zero_intra(self):
        objs = [UncertainObject.from_point([float(i)]) for i in range(4)]
        data = UncertainDataset(objs)
        labels = np.arange(4)
        scores = internal_scores(data, labels)
        assert scores.intra == 0.0
        assert scores.inter > 0.0

    def test_identical_objects_zero_everything(self):
        objs = [UncertainObject.from_point([1.0]) for _ in range(4)]
        data = UncertainDataset(objs)
        scores = internal_scores(data, np.array([0, 0, 1, 1]))
        assert scores.intra == 0.0
        assert scores.inter == 0.0

    def test_label_length_mismatch(self, blob_dataset):
        with pytest.raises(InvalidParameterError):
            internal_scores(blob_dataset, np.zeros(3))

    def test_better_separation_increases_q(self):
        near = make_blobs_uncertain(
            n_objects=60, n_clusters=2, separation=2.0, seed=5
        )
        far = make_blobs_uncertain(
            n_objects=60, n_clusters=2, separation=10.0, seed=5
        )
        q_near = quality_score(near, np.array(near.labels))
        q_far = quality_score(far, np.array(far.labels))
        assert q_far > q_near

    def test_distances_larger_than_dataset(self, blob_dataset):
        n = len(blob_dataset)
        distances = pairwise_squared_expected_distances(make_blobs_uncertain(
            n_objects=n + 10, n_clusters=3, seed=3
        ))
        with pytest.raises(InvalidParameterError, match="distances"):
            internal_scores(blob_dataset, np.zeros(n, dtype=int), distances)

    def test_distances_smaller_than_dataset(self, blob_dataset):
        n = len(blob_dataset)
        distances = pairwise_squared_expected_distances(blob_dataset)
        with pytest.raises(InvalidParameterError, match="distances"):
            internal_scores(
                blob_dataset, np.arange(n) % 3, distances[: n // 2, : n // 2]
            )

    def test_distances_not_square(self, blob_dataset):
        n = len(blob_dataset)
        distances = pairwise_squared_expected_distances(blob_dataset)
        with pytest.raises(InvalidParameterError, match="distances"):
            internal_scores(blob_dataset, np.arange(n) % 3, distances[:, :-1])

    @pytest.mark.parametrize("shape", [(), (60, 1), (1, 60)], ids=str)
    def test_labels_not_one_per_object(self, blob_dataset, shape):
        with pytest.raises(InvalidParameterError, match="labels"):
            internal_scores(blob_dataset, np.zeros(shape, dtype=int))

    @pytest.mark.parametrize("n_clusters", [1, 4])
    def test_allocates_no_full_matrix(self, n_clusters):
        n = 400
        data = make_blobs_uncertain(n_objects=n, n_clusters=4, seed=8)
        distances = pairwise_squared_expected_distances(data)
        labels = np.arange(n) % n_clusters
        tracemalloc.start()
        try:
            internal_scores(data, labels, distances)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < distances.nbytes / 2


# ----------------------------------------------------------------------
# Frozen reference: the per-block np.ix_ loop of the definition.
# ----------------------------------------------------------------------
def _legacy_internal_scores(distances, labels, noise_policy="residual"):
    """``(intra, inter)`` with one ``np.ix_`` gather per cluster pair."""
    labels = np.asarray(labels, dtype=np.int64)
    if noise_policy == "residual" and np.any(labels < 0):
        labels = labels.copy()
        labels[labels < 0] = labels.max() + 1
    max_dist = float(distances.max())
    if max_dist <= 0.0:
        return 0.0, 0.0
    cluster_ids = np.unique(labels[labels >= 0])
    if cluster_ids.size == 0:
        return 0.0, 0.0
    members = [np.flatnonzero(labels == c) for c in cluster_ids]
    intra_terms = []
    for idx in members:
        size = idx.size
        if size < 2:
            continue
        block = distances[np.ix_(idx, idx)]
        off_diag = block.sum() - np.trace(block)
        intra_terms.append(off_diag / (size * (size - 1)))
    intra = float(np.mean(intra_terms)) / max_dist if intra_terms else 0.0
    k = len(members)
    if k < 2:
        inter = 0.0
    else:
        total = 0.0
        for a in range(k):
            for b in range(k):
                if a == b:
                    continue
                total += distances[np.ix_(members[a], members[b])].mean()
        inter = total / (k * (k - 1)) / max_dist
    return float(np.clip(intra, 0.0, 1.0)), float(np.clip(inter, 0.0, 1.0))


def assert_same_scores(dataset, labels, distances, noise_policy):
    scores = internal_scores(dataset, labels, distances, noise_policy=noise_policy)
    intra, inter = _legacy_internal_scores(distances, labels, noise_policy)
    assert scores.intra.hex() == intra.hex()
    assert scores.inter.hex() == inter.hex()


@pytest.fixture(scope="module")
def reference_data():
    data = make_blobs_uncertain(n_objects=400, n_clusters=6, seed=21)
    return data, pairwise_squared_expected_distances(data)


#: Cluster ids a labeling draws from: noise, contiguous and sparse ids.
LABEL_POOL = [-1, 0, 1, 2, 3, 7, 42, 1000]


@st.composite
def labelings(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    ids = draw(
        st.lists(st.sampled_from(LABEL_POOL), min_size=1, max_size=6, unique=True)
    )
    labels = draw(st.lists(st.sampled_from(ids), min_size=n, max_size=n))
    offset = draw(st.integers(min_value=0, max_value=400 - n))
    return np.array(labels), offset


class TestMatchesPerBlockLoop:
    """The label-sorted block sums equal the ``np.ix_`` loop bit for bit."""

    @given(case=labelings(), noise_policy=st.sampled_from(["residual", "exclude"]))
    @settings(max_examples=300, deadline=None)
    def test_property(self, reference_data, case, noise_policy):
        data, distances = reference_data
        labels, offset = case
        n = labels.size
        window = slice(offset, offset + n)
        assert_same_scores(
            data[window], labels, distances[window, window].copy(), noise_policy
        )

    @pytest.mark.parametrize("noise_policy", ["residual", "exclude"])
    @pytest.mark.parametrize(
        "labeling",
        ["all_one", "all_noise", "singletons", "sparse_ids", "many_small", "skewed"],
    )
    def test_named_labelings(self, reference_data, labeling, noise_policy):
        data, distances = reference_data
        n = len(data)
        rng = np.random.default_rng(4)
        labels = {
            "all_one": np.full(n, 5),
            "all_noise": np.full(n, -1),
            "singletons": np.arange(n),
            "sparse_ids": rng.choice([3, 7, 42, -1], size=n),
            "many_small": rng.integers(-1, 131, size=n),
            "skewed": np.where(rng.random(n) < 0.9, 0, rng.integers(1, 40, size=n)),
        }[labeling]
        assert_same_scores(data, labels, distances, noise_policy)

    def test_non_contiguous_and_asymmetric_distances(self, reference_data):
        data, distances = reference_data
        rng = np.random.default_rng(5)
        labels = rng.integers(-1, 12, size=len(data))
        skewed = np.asfortranarray(distances * rng.uniform(0.5, 2.0, distances.shape))
        for noise_policy in ("residual", "exclude"):
            assert_same_scores(data, labels, skewed, noise_policy)
        assert_same_scores(data, np.zeros(len(data), dtype=int), skewed, "residual")


class TestQualityMetamorphic:
    """Renaming clusters keeps the partition, so Q keeps its value up to
    the reordered sums over clusters, and stays in [-1, 1]."""

    @given(
        case=labelings(),
        noise_policy=st.sampled_from(["residual", "exclude"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_cluster_id_permutation(self, reference_data, case, noise_policy, seed):
        data, distances = reference_data
        labels, offset = case
        window = slice(offset, offset + labels.size)
        dataset, block = data[window], distances[window, window].copy()
        ids = np.unique(labels[labels >= 0])
        renamed = dict(zip(ids.tolist(), np.random.default_rng(seed).permutation(ids)))
        permuted = np.array([renamed.get(label, -1) for label in labels.tolist()])
        scores = internal_scores(dataset, labels, block, noise_policy)
        moved = internal_scores(dataset, permuted, block, noise_policy)
        for value in (scores, moved):
            assert -1.0 <= value.quality <= 1.0
        assert moved.intra == pytest.approx(scores.intra, rel=1e-12)
        assert moved.inter == pytest.approx(scores.inter, rel=1e-12)
        assert moved.quality == pytest.approx(scores.quality, rel=1e-12, abs=1e-12)
