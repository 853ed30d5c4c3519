"""Shared low-level utilities: RNG handling, validation, timing, tables."""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_finite_array,
    check_positive,
    check_probability,
    ensure_matrix,
    ensure_vector,
)
from repro.utils.timer import Stopwatch, timed
from repro.utils.tables import format_table

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "check_finite_array",
    "check_positive",
    "check_probability",
    "ensure_matrix",
    "ensure_vector",
    "Stopwatch",
    "timed",
    "format_table",
]
