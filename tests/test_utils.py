"""Tests for the utils subpackage: rng, validation, numeric, timer, tables."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError, InvalidParameterError
from repro.utils import (
    Stopwatch,
    check_finite_array,
    check_positive,
    check_probability,
    ensure_matrix,
    ensure_rng,
    ensure_vector,
    format_table,
    kahan_sum,
    relative_error,
    safe_sqrt,
    spawn_rngs,
    stable_norm_sq,
    timed,
)
from repro.utils.numeric import improved, is_close
from repro.utils.validation import check_int_range


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_reproducible(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_invalid_seed_type(self):
        with pytest.raises(InvalidParameterError):
            ensure_rng("seed")

    @pytest.mark.parametrize("seed", [-1, np.int64(-7)])
    def test_negative_seed(self, seed):
        """numpy seeds only from non-negative integers; every entry
        point that derives streams from a seed rejects the rest with a
        typed error instead of numpy's bare ``ValueError``."""
        from repro.engine.runner import _spawn_seeds

        for derive in (ensure_rng, lambda s: spawn_rngs(s, 2),
                       lambda s: _spawn_seeds(s, 2)):
            with pytest.raises(InvalidParameterError, match="non-negative"):
                derive(seed)

    def test_negative_seed_at_library_entry_points(self):
        from repro import UKMeans, make_blobs_uncertain

        data = make_blobs_uncertain(n_objects=20, n_clusters=2, seed=0)
        for call in (
            lambda: make_blobs_uncertain(n_objects=20, n_clusters=2, seed=-1),
            lambda: UKMeans(2).fit(data, seed=-1),
            lambda: UKMeans(2).fit_best(data, seed=-1, n_init=2),
            lambda: data.sample_tensor(4, -1),
        ):
            with pytest.raises(InvalidParameterError, match="non-negative"):
                call()

    def test_spawn_independent_streams(self):
        streams = spawn_rngs(7, 3)
        draws = [s.random(4) for s in streams]
        assert not np.array_equal(draws[0], draws[1])
        # Re-spawning from the same seed reproduces the streams.
        again = [s.random(4) for s in spawn_rngs(7, 3)]
        for a, b in zip(draws, again):
            assert np.array_equal(a, b)

    def test_spawn_from_generator(self):
        streams = spawn_rngs(np.random.default_rng(0), 2)
        assert len(streams) == 2

    def test_spawn_negative_count(self):
        with pytest.raises(InvalidParameterError):
            spawn_rngs(0, -1)

    def test_spawn_zero(self):
        assert spawn_rngs(0, 0) == []


class TestValidation:
    def test_ensure_vector_conversions(self):
        vec = ensure_vector([1, 2, 3])
        assert vec.dtype == np.float64
        assert vec.shape == (3,)

    def test_ensure_vector_scalar_promoted(self):
        assert ensure_vector(2.0).shape == (1,)

    def test_ensure_vector_dim_check(self):
        with pytest.raises(DimensionMismatchError):
            ensure_vector([1.0, 2.0], dim=3)

    def test_ensure_vector_rejects_matrix(self):
        with pytest.raises(InvalidParameterError):
            ensure_vector(np.zeros((2, 2)))

    def test_ensure_vector_nan_always_rejected(self):
        with pytest.raises(InvalidParameterError):
            ensure_vector([np.nan], allow_infinite=True)

    def test_ensure_vector_infinite_toggle(self):
        with pytest.raises(InvalidParameterError):
            ensure_vector([np.inf])
        assert ensure_vector([np.inf], allow_infinite=True)[0] == np.inf

    def test_ensure_matrix(self):
        mat = ensure_matrix([[1, 2], [3, 4]])
        assert mat.shape == (2, 2)
        # 1-D input becomes a single row.
        assert ensure_matrix([1.0, 2.0]).shape == (1, 2)

    def test_ensure_matrix_cols_check(self):
        with pytest.raises(DimensionMismatchError):
            ensure_matrix([[1.0, 2.0]], cols=3)

    def test_check_positive(self):
        assert check_positive(1.5, "x") == 1.5
        with pytest.raises(InvalidParameterError):
            check_positive(0.0, "x")
        assert check_positive(0.0, "x", strict=False) == 0.0
        with pytest.raises(InvalidParameterError):
            check_positive(-1.0, "x", strict=False)
        with pytest.raises(InvalidParameterError):
            check_positive(np.inf, "x")

    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(InvalidParameterError):
            check_probability(-0.1, "p")
        with pytest.raises(InvalidParameterError):
            check_probability(1.1, "p")

    def test_check_finite_array(self):
        check_finite_array(np.array([1.0, 2.0]))
        with pytest.raises(InvalidParameterError):
            check_finite_array(np.array([np.inf]))

    def test_check_int_range(self):
        assert check_int_range(5, "k", low=1, high=10) == 5
        with pytest.raises(InvalidParameterError):
            check_int_range(0, "k", low=1)
        with pytest.raises(InvalidParameterError):
            check_int_range(11, "k", high=10)
        with pytest.raises(InvalidParameterError):
            check_int_range(1.5, "k")


class TestNumeric:
    def test_kahan_sum_accuracy(self):
        # 1 + 1e-16 * 1e16 loses everything with naive float addition order.
        values = [1e16] + [1.0] * 10000 + [-1e16]
        assert kahan_sum(values) == pytest.approx(10000.0)

    def test_stable_norm_sq(self):
        assert stable_norm_sq(np.array([3.0, 4.0])) == pytest.approx(25.0)

    def test_safe_sqrt(self):
        assert safe_sqrt(4.0) == 2.0
        assert safe_sqrt(-1e-12) == 0.0
        with pytest.raises(ValueError):
            safe_sqrt(-1.0)

    def test_relative_error(self):
        assert relative_error(1.1, 1.0) == pytest.approx(0.1)
        assert relative_error(0.1, 0.0) == pytest.approx(0.1)

    def test_is_close(self):
        assert is_close(1.0, 1.0 + 1e-12)
        assert not is_close(1.0, 1.1)

    def test_improved(self):
        assert improved(0.9, 1.0)
        assert not improved(1.0 - 1e-15, 1.0)
        assert not improved(1.1, 1.0)


class TestTimer:
    def test_stopwatch_accumulates(self):
        watch = Stopwatch()
        with watch.running():
            time.sleep(0.01)
        first = watch.elapsed_seconds
        assert first >= 0.009
        with watch.running():
            time.sleep(0.01)
        assert watch.elapsed_seconds > first

    def test_stopwatch_reset(self):
        watch = Stopwatch()
        with watch.running():
            pass
        watch.reset()
        assert watch.elapsed_seconds == 0.0

    def test_double_start_is_noop(self):
        watch = Stopwatch()
        watch.start()
        watch.start()
        watch.stop()
        assert watch.elapsed_seconds >= 0.0

    def test_elapsed_ms(self):
        watch = Stopwatch(elapsed_seconds=0.5)
        assert watch.elapsed_ms == pytest.approx(500.0)

    def test_timed(self):
        result, seconds = timed(sum, [1, 2, 3])
        assert result == 6
        assert seconds >= 0.0


class TestTables:
    def test_basic_rendering(self):
        text = format_table(
            [["iris", 0.5], ["wine", 0.25]], headers=["data", "score"]
        )
        assert "data" in text
        assert "0.500" in text
        assert "0.250" in text

    def test_none_renders_dash(self):
        text = format_table([[None, 1.0]])
        assert "-" in text

    def test_title(self):
        text = format_table([[1]], title="Table X")
        assert text.startswith("Table X")

    def test_float_format(self):
        text = format_table([[0.123456]], float_fmt=".1f")
        assert "0.1" in text
        assert "0.123" not in text

    def test_empty(self):
        assert format_table([], title="empty") == "empty"

    def test_alignment(self):
        text = format_table([["a", 1.0], ["long-name", 2.0]])
        lines = text.splitlines()
        assert len(lines[0]) == len(lines[1])
