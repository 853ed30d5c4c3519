"""Tests for the external validity criterion (the paper's F-measure)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation import contingency_matrix, f_measure
from repro.exceptions import InvalidParameterError
from tests.conftest import NON_INTEGER_LABELS

PERFECT = (np.array([0, 0, 1, 1, 2, 2]), np.array([0, 0, 1, 1, 2, 2]))
PERMUTED = (np.array([2, 2, 0, 0, 1, 1]), np.array([0, 0, 1, 1, 2, 2]))


class TestContingency:
    def test_counts(self):
        pred = np.array([0, 0, 1, 1])
        ref = np.array([0, 1, 1, 1])
        table = contingency_matrix(pred, ref)
        # rows = classes {0, 1}, cols = clusters {0, 1}
        assert table.tolist() == [[1, 0], [1, 2]]

    def test_noise_gets_own_column(self):
        pred = np.array([0, -1, -1])
        ref = np.array([0, 0, 1])
        table = contingency_matrix(pred, ref)
        assert table.sum() == 3
        assert table.shape == (2, 2)  # cluster {-1} and cluster {0}

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            contingency_matrix(np.array([0, 1]), np.array([0]))

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            contingency_matrix(np.array([]), np.array([]))

    def test_negative_reference_rejected(self):
        with pytest.raises(InvalidParameterError):
            contingency_matrix(np.array([0]), np.array([-1]))

    @pytest.mark.parametrize("labels", NON_INTEGER_LABELS, ids=str)
    def test_non_integer_labels_are_typed(self, labels):
        """Fractional labels are refused, not truncated onto a class."""
        for args in ((labels, [0, 1]), ([0, 1], labels)):
            with pytest.raises(InvalidParameterError, match="labels must be integers"):
                f_measure(*args)

    def test_integer_like_labels_accepted(self):
        table = contingency_matrix(np.array([1.0, 0.0, 1.0]), [0.0, 1.0, 1.0])
        assert table.tolist() == [[0, 1], [1, 1]]


class TestFMeasure:
    def test_perfect_clustering(self):
        assert f_measure(*PERFECT) == pytest.approx(1.0)

    def test_label_permutation_invariant(self):
        assert f_measure(*PERMUTED) == pytest.approx(1.0)

    def test_single_cluster_of_two_classes(self):
        pred = np.zeros(4, dtype=int)
        ref = np.array([0, 0, 1, 1])
        # Each class: precision 0.5, recall 1.0 => F_uv = 2/3.
        assert f_measure(pred, ref) == pytest.approx(2.0 / 3.0)

    def test_worst_case_positive(self):
        # F-measure is bounded away from 0 for non-degenerate tables.
        pred = np.array([0, 1, 0, 1])
        ref = np.array([0, 0, 1, 1])
        value = f_measure(pred, ref)
        assert 0.0 < value < 1.0

    def test_all_noise_prediction(self):
        pred = np.full(4, -1)
        ref = np.array([0, 0, 1, 1])
        # Noise bucket acts as a single cluster: same as one-cluster case.
        assert f_measure(pred, ref) == pytest.approx(2.0 / 3.0)

    def test_weighted_by_class_size(self):
        # A large class clustered perfectly dominates a small one split up.
        pred = np.array([0] * 8 + [1, 2])
        ref = np.array([0] * 8 + [1, 1])
        value = f_measure(pred, ref)
        assert value > 0.8

    @given(
        labels=st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=40)
    )
    @settings(max_examples=50, deadline=None)
    def test_self_comparison_is_one(self, labels):
        arr = np.array(labels)
        assert f_measure(arr, arr) == pytest.approx(1.0)

    @given(
        pred=st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=30),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounded_in_unit_interval(self, pred, seed):
        rng = np.random.default_rng(seed)
        pred_arr = np.array(pred)
        ref = rng.integers(0, 3, size=pred_arr.size)
        value = f_measure(pred_arr, ref)
        assert 0.0 <= value <= 1.0


# ----------------------------------------------------------------------
# Frozen reference: the per-object loop before the table went
# array-at-once, with the F-measure over it.
# ----------------------------------------------------------------------
def _legacy_contingency_matrix(predicted, reference):
    predicted = np.asarray(predicted, dtype=np.int64)
    reference = np.asarray(reference, dtype=np.int64)
    classes = np.unique(reference)
    clusters = np.unique(predicted)
    class_index = {int(c): i for i, c in enumerate(classes)}
    cluster_index = {int(c): i for i, c in enumerate(clusters)}
    table = np.zeros((classes.size, clusters.size), dtype=np.int64)
    for ref, pred in zip(reference, predicted):
        table[class_index[int(ref)], cluster_index[int(pred)]] += 1
    return table


def _legacy_f_measure(predicted, reference):
    table = _legacy_contingency_matrix(predicted, reference)
    n = int(table.sum())
    class_sizes = table.sum(axis=1).astype(np.float64)
    cluster_sizes = table.sum(axis=0).astype(np.float64)
    score = 0.0
    for u in range(table.shape[0]):
        best = 0.0
        for v in range(table.shape[1]):
            overlap = float(table[u, v])
            if overlap == 0.0 or cluster_sizes[v] == 0.0:
                continue
            precision = overlap / cluster_sizes[v]
            recall = overlap / class_sizes[u]
            best = max(best, 2.0 * precision * recall / (precision + recall))
        score += class_sizes[u] * best
    return score / n


@st.composite
def labelings(draw):
    """(predicted, reference): noise and sparse cluster ids, from one
    class up to many, and from one cluster up to one per object."""
    n = draw(st.integers(min_value=1, max_value=150))
    n_classes = draw(st.sampled_from([1, 2, 5, 12]))
    cluster_ids = draw(
        st.sampled_from(
            [[-1], [0], [-1, 0, 1, 2], [-1, 3, 17, 1000], list(range(-1, 60))]
        )
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return rng.choice(cluster_ids, size=n), rng.integers(0, n_classes, size=n)


def _permute_ids(labels, seed, keep_noise=True):
    """``labels`` with its non-noise ids permuted among themselves."""
    ids = np.unique(labels[labels >= 0] if keep_noise else labels)
    permuted = np.random.default_rng(seed).permutation(ids)
    out = labels.copy()
    for old, new in zip(ids, permuted):
        out[labels == old] = new
    return out


class TestMatchesPerObjectLoop:
    @given(case=labelings())
    @settings(max_examples=300, deadline=None)
    def test_property(self, case):
        predicted, reference = case
        table = contingency_matrix(predicted, reference)
        expected = _legacy_contingency_matrix(predicted, reference)
        assert table.dtype == expected.dtype
        np.testing.assert_array_equal(table, expected)
        assert float.hex(f_measure(predicted, reference)) == float.hex(
            _legacy_f_measure(predicted, reference)
        )


class TestFMeasureMetamorphic:
    """Relabeling that keeps the partitions keeps F."""

    @given(case=labelings(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_cluster_id_permutation_is_exact(self, case, seed):
        predicted, reference = case
        permuted = _permute_ids(predicted, seed)
        assert np.array_equal(permuted < 0, predicted < 0)  # noise stays -1
        assert float.hex(f_measure(permuted, reference)) == float.hex(
            f_measure(predicted, reference)
        )

    @given(case=labelings(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_class_id_relabeling(self, case, seed):
        """An order-keeping class relabeling is exact; any permutation
        reorders the sequential sum over classes, so F may move by
        rounding only."""
        predicted, reference = case
        value = f_measure(predicted, reference)
        spread_out = 7 * reference + 3
        assert float.hex(f_measure(predicted, spread_out)) == float.hex(value)
        permuted = f_measure(predicted, _permute_ids(reference, seed, keep_noise=False))
        assert permuted == pytest.approx(value, rel=1e-12)

