"""Tests for the internal validity criteria (intra / inter / Q)."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import UncertaintyGenerator, make_blobs_uncertain
from repro.datagen.benchmarks import make_classification_like
from repro.evaluation import internal_scores, quality_score
from repro.exceptions import InvalidParameterError
from repro.objects import UncertainDataset, UncertainObject
from tests.conftest import NON_INTEGER_LABELS, Q_BOUND


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

    @pytest.mark.parametrize("labels", NON_INTEGER_LABELS, ids=str)
    def test_non_integer_labels_are_typed(self, labels):
        """Fractional labels are refused, not truncated into clusters."""
        data = UncertainDataset.from_points([[0.0], [1.0]])
        with pytest.raises(InvalidParameterError, match="labels must be integers"):
            internal_scores(data, labels)

    def test_integer_like_labels_accepted(self, blob_dataset):
        labels = np.arange(len(blob_dataset)) % 3
        assert internal_scores(blob_dataset, labels.astype(float)) == (
            internal_scores(blob_dataset, labels)
        )

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

    @pytest.mark.parametrize("shape", [(), (60, 1), (1, 60)], ids=str)
    def test_labels_not_one_per_object(self, blob_dataset, shape):
        with pytest.raises(InvalidParameterError, match="labels"):
            internal_scores(blob_dataset, np.zeros(shape, dtype=int))

    @pytest.mark.parametrize(
        "n_clusters, noisy",
        [(1, False), (4, False), (133, True), (400, False)],
        ids=["1", "4", "133-noise", "400"],
    )
    def test_allocates_no_full_matrix(self, n_clusters, noisy):
        """No temporary of k·n or n² entries at any cluster count: at
        k = n a dense one-hot would be as large as the ÊD matrix."""
        n = 400
        data = make_blobs_uncertain(n_objects=n, n_clusters=4, seed=8)
        labels = np.arange(n) % n_clusters
        if noisy:
            labels[::10] = -1
        distances = data.pairwise_ed()
        for noise_policy in ("residual", "exclude"):
            tracemalloc.start()
            try:
                internal_scores(data, labels, noise_policy=noise_policy)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < distances.nbytes / 2


# ----------------------------------------------------------------------
# References: the definition in exact rationals, and the frozen per-block
# np.ix_ loop over the ÊD matrix.  Neither calls library code to score.
# ----------------------------------------------------------------------
def _scored_clusters(labels, noise_policy):
    """Member indices of each scored cluster, by ascending cluster id."""
    labels = np.asarray(labels, dtype=np.int64)
    if noise_policy == "residual" and np.any(labels < 0):
        labels = labels.copy()
        labels[labels < 0] = labels.max() + 1
    return [np.flatnonzero(labels == c) for c in np.unique(labels[labels >= 0])]


def _clip(value):
    return min(max(value, Fraction(0)), Fraction(1))


def _exact_scores(dataset, labels, noise_policy, max_dist):
    """``(intra, inter)`` as exact fractions: the closed form over the
    dataset's float moments, normalized by the float ``max_dist``."""
    clusters = _scored_clusters(labels, noise_policy)
    if max_dist <= 0.0 or not clusters:
        return Fraction(0), Fraction(0)
    mu = [[Fraction(x) for x in row] for row in dataset.mu_matrix.tolist()]
    var = [Fraction(x) for x in dataset.total_variances.tolist()]
    dims = range(dataset.dim)
    means, within, intra_terms = [], [], []
    for members in clusters:
        size = members.size
        mean = [sum(mu[i][j] for i in members) / size for j in dims]
        spread = sum((mu[i][j] - mean[j]) ** 2 for i in members for j in dims)
        variance = sum(var[i] for i in members)
        if size > 1:
            intra_terms.append(2 * spread / (size - 1) + 2 * variance / size)
        means.append(mean)
        within.append((spread + variance) / size)
    intra = sum(intra_terms) / len(intra_terms) if intra_terms else Fraction(0)
    k = len(clusters)
    inter = Fraction(0)
    if k > 1:
        centre = [sum(mean[j] for mean in means) / k for j in dims]
        between = sum((mean[j] - centre[j]) ** 2 for mean in means for j in dims)
        inter = (2 * k * between + 2 * (k - 1) * sum(within)) / (k * (k - 1))
    scale = Fraction(max_dist)
    return _clip(intra / scale), _clip(inter / scale)


def _brute_force_scores(dataset, labels, noise_policy, max_dist):
    """``(intra, inter)`` summing exact ÊD over every pair (Section 5.1)."""
    clusters = _scored_clusters(labels, noise_policy)
    if max_dist <= 0.0 or not clusters:
        return Fraction(0), Fraction(0)
    mu = [[Fraction(x) for x in row] for row in dataset.mu_matrix.tolist()]
    var = [Fraction(x) for x in dataset.total_variances.tolist()]

    def ed(i, j):
        return sum((a - b) ** 2 for a, b in zip(mu[i], mu[j])) + var[i] + var[j]

    intra_terms = [
        sum(ed(i, j) for i in members for j in members if i != j)
        / (members.size * (members.size - 1))
        for members in clusters
        if members.size > 1
    ]
    intra = sum(intra_terms) / len(intra_terms) if intra_terms else Fraction(0)
    k = len(clusters)
    inter = Fraction(0)
    if k > 1:
        inter = sum(
            sum(ed(i, j) for i in a for j in b) / (a.size * b.size)
            for x, a in enumerate(clusters)
            for y, b in enumerate(clusters)
            if x != y
        ) / (k * (k - 1))
    scale = Fraction(max_dist)
    return _clip(intra / scale), _clip(inter / scale)


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


def assert_exact_within_bound(dataset, labels, noise_policy):
    scores = internal_scores(dataset, labels, noise_policy=noise_policy)
    intra, inter = _exact_scores(
        dataset, labels, noise_policy, float(dataset.pairwise_ed().max())
    )
    assert abs(Fraction(scores.intra) - intra) <= Q_BOUND
    assert abs(Fraction(scores.inter) - inter) <= Q_BOUND
    assert abs(Fraction(scores.quality) - (inter - intra)) <= Q_BOUND


def assert_legacy_within_bound(dataset, labels, noise_policy):
    scores = internal_scores(dataset, labels, noise_policy=noise_policy)
    intra, inter = _legacy_internal_scores(
        dataset.pairwise_ed(), labels, noise_policy
    )
    assert abs(scores.intra - intra) <= Q_BOUND
    assert abs(scores.inter - inter) <= Q_BOUND
    assert abs(scores.quality - (inter - intra)) <= Q_BOUND


POOL_SIZE = 400


@pytest.fixture(scope="module")
def reference_data():
    return make_blobs_uncertain(n_objects=POOL_SIZE, n_clusters=6, seed=21)


#: Offsets added to every mean: ÊD ignores them, the float sums do not.
SHIFTS = (0.0, 1e3, 1e6)


@pytest.fixture(scope="module")
def shifted_pools():
    """``{(shift, kind): dataset}``: one Section 5.1 pair per shift, its
    uncertain ``D''`` and its point masses ``D'``."""
    points, _ = make_classification_like(
        n_objects=POOL_SIZE, n_attributes=3, n_classes=6, seed=21
    )
    pools = {}
    for shift in SHIFTS:
        pair = UncertaintyGenerator("normal").generate(points + shift, seed=3)
        pools[shift, "uncertain"] = pair.uncertain
        pools[shift, "points"] = pair.perturbed
    return pools


#: Cluster ids a labeling draws from: noise, contiguous and sparse ids.
LABEL_POOL = [-1, 0, 1, 2, 3, 7, 42, 1000]


@st.composite
def labelings(draw):
    """``(labels, start)`` over pool rows ``start:start + n``: ids drawn
    from LABEL_POOL, or k close to n — singletons with a few objects
    moved into another cluster or into noise."""
    n = draw(st.integers(min_value=1, max_value=80))
    if draw(st.booleans()):
        ids = draw(
            st.lists(st.sampled_from(LABEL_POOL), min_size=1, max_size=6, unique=True)
        )
        labels = np.array(draw(st.lists(st.sampled_from(ids), min_size=n, max_size=n)))
    else:
        labels = np.arange(n)
        moves = st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=-1, max_value=n - 1),
        )
        for row, label in draw(st.lists(moves, max_size=3)):
            labels[row] = label
    start = draw(st.integers(min_value=0, max_value=POOL_SIZE - n))
    return labels, start


def _named_labeling(name, n):
    rng = np.random.default_rng(4)
    near_singletons = np.arange(n)
    near_singletons[1::11] -= 1  # a few pairs
    near_singletons[::37] = -1  # a little noise
    return {
        "all_one": np.full(n, 5),
        "all_noise": np.full(n, -1),
        "singletons": np.arange(n),
        "sparse_ids": rng.choice([3, 7, 42, -1], size=n),
        "many_small": rng.integers(-1, 131, size=n),
        "skewed": np.where(rng.random(n) < 0.9, 0, rng.integers(1, 40, size=n)),
        "near_singletons": near_singletons,
    }[name]


NAMED_LABELINGS = [
    "all_one",
    "all_noise",
    "singletons",
    "sparse_ids",
    "many_small",
    "skewed",
    "near_singletons",
]


class TestExactReference:
    """The closed form stays within ``Q_BOUND`` of the definition in
    exact arithmetic over the same float moments and maximum, at mean
    offsets up to 1e6."""

    @given(
        case=labelings(),
        noise_policy=st.sampled_from(["residual", "exclude"]),
        shift=st.sampled_from(SHIFTS),
        kind=st.sampled_from(["uncertain", "points"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_property(self, shifted_pools, case, noise_policy, shift, kind):
        labels, start = case
        window = slice(start, start + labels.size)
        assert_exact_within_bound(
            shifted_pools[shift, kind][window], labels, noise_policy
        )

    @pytest.mark.parametrize("shift", SHIFTS)
    @pytest.mark.parametrize("noise_policy", ["residual", "exclude"])
    @pytest.mark.parametrize("labeling", NAMED_LABELINGS)
    def test_named_labelings(self, shifted_pools, labeling, noise_policy, shift):
        data = shifted_pools[shift, "uncertain"]
        labels = _named_labeling(labeling, len(data))
        assert_exact_within_bound(data, labels, noise_policy)

    @pytest.mark.parametrize("seed", range(6))
    def test_closed_form_equals_pairwise_sum(self, shifted_pools, seed):
        """The exact closed form is the pairwise definition, not a
        rounding of it: equal as fractions on small windows."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        start = int(rng.integers(0, POOL_SIZE - n))
        labels = rng.integers(-1, 4, size=n)
        for shift, kind in shifted_pools:
            data = shifted_pools[shift, kind][start:start + n]
            max_dist = float(data.pairwise_ed().max())
            for noise_policy in ("residual", "exclude"):
                assert _exact_scores(
                    data, labels, noise_policy, max_dist
                ) == _brute_force_scores(data, labels, noise_policy, max_dist)


class TestMatchesPerBlockLoop:
    """The closed form stays within ``Q_BOUND`` of the frozen ``np.ix_``
    block loop over the dataset's ÊD matrix."""

    @given(case=labelings(), noise_policy=st.sampled_from(["residual", "exclude"]))
    @settings(max_examples=300, deadline=None)
    def test_property(self, reference_data, case, noise_policy):
        labels, start = case
        window = slice(start, start + labels.size)
        assert_legacy_within_bound(reference_data[window], labels, noise_policy)

    @pytest.mark.parametrize("noise_policy", ["residual", "exclude"])
    @pytest.mark.parametrize("labeling", NAMED_LABELINGS)
    def test_named_labelings(self, reference_data, labeling, noise_policy):
        labels = _named_labeling(labeling, len(reference_data))
        assert_legacy_within_bound(reference_data, labels, noise_policy)


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
        labels, start = case
        dataset = reference_data[start:start + labels.size]
        ids = np.unique(labels[labels >= 0])
        renamed = dict(zip(ids.tolist(), np.random.default_rng(seed).permutation(ids)))
        permuted = np.array([renamed.get(label, -1) for label in labels.tolist()])
        scores = internal_scores(dataset, labels, noise_policy=noise_policy)
        moved = internal_scores(dataset, permuted, noise_policy=noise_policy)
        for value in (scores, moved):
            assert -1.0 <= value.quality <= 1.0
        assert moved.intra == pytest.approx(scores.intra, rel=1e-12)
        assert moved.inter == pytest.approx(scores.inter, rel=1e-12)
        assert moved.quality == pytest.approx(scores.quality, rel=1e-12, abs=1e-12)
