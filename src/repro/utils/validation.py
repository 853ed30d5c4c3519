"""Eager argument validation helpers.

The library validates inputs at its public boundaries and raises
:class:`~repro.exceptions.InvalidParameterError` /
:class:`~repro.exceptions.DimensionMismatchError` immediately, rather
than letting numpy broadcast errors surface from deep inside an
iteration loop.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro._typing import FloatArray, IntArray, MatrixLike, VectorLike
from repro.exceptions import DimensionMismatchError, InvalidParameterError


def ensure_vector(
    values: VectorLike,
    name: str = "values",
    dim: Optional[int] = None,
    allow_infinite: bool = False,
) -> FloatArray:
    """Convert ``values`` to a contiguous 1-D float64 array.

    Parameters
    ----------
    values:
        Sequence or array convertible to a 1-D float vector.
    name:
        Argument name used in error messages.
    dim:
        When given, the required length of the vector.
    allow_infinite:
        Permit +-inf entries (used for unbounded region limits); NaN is
        always rejected.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise InvalidParameterError(
            f"{name} must be 1-dimensional, got shape {arr.shape}"
        )
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(
            f"{name} must have length {dim}, got {arr.shape[0]}"
        )
    if allow_infinite:
        if np.any(np.isnan(arr)):
            raise InvalidParameterError(f"{name} must not contain NaN")
    else:
        check_finite_array(arr, name)
    return np.ascontiguousarray(arr)


def ensure_matrix(
    values: MatrixLike,
    name: str = "values",
    cols: Optional[int] = None,
) -> FloatArray:
    """Convert ``values`` to a contiguous 2-D float64 array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise InvalidParameterError(
            f"{name} must be 2-dimensional, got shape {arr.shape}"
        )
    if cols is not None and arr.shape[1] != cols:
        raise DimensionMismatchError(
            f"{name} must have {cols} columns, got {arr.shape[1]}"
        )
    check_finite_array(arr, name)
    return np.ascontiguousarray(arr)


def ensure_labels(labels) -> IntArray:
    """Convert ``labels`` to a new 1-D int64 array of label values.

    Integers keep their values; floats are accepted when every value is
    finite, integral and within int64's range.  A fractional value, NaN,
    ±inf, a string, ``None`` or a nested sequence raises
    :class:`~repro.exceptions.InvalidParameterError` instead of being
    truncated.
    """
    try:
        arr = np.asarray(labels)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"labels must be integers, got {labels!r}") from None
    if arr.ndim != 1:
        raise InvalidParameterError(
            f"labels must be integers in a 1-D sequence, got shape {arr.shape}"
        )
    if arr.dtype.kind == "f":
        integral = np.isfinite(arr) & (np.trunc(arr) == arr) & (np.abs(arr) < 2.0**63)
        if not integral.all():
            bad = float(arr[~integral][0])
            raise InvalidParameterError(f"labels must be integers, got {bad}")
    elif arr.dtype.kind not in "biu":
        raise InvalidParameterError(f"labels must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64)


def check_finite_array(arr: np.ndarray, name: str = "values") -> None:
    """Raise if ``arr`` contains NaN or infinity."""
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} must contain only finite values")


def _as_real(value: float, name: str) -> float:
    """``value`` as a float; ``None``, strings and non-numbers are refused."""
    if not isinstance(value, (str, bytes)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise InvalidParameterError(f"{name} must be a real number, got {value!r}")


def check_real(value: float, name: str, allow_infinite: bool = False) -> float:
    """Validate a scalar is a finite real number, or ``±inf`` too when
    ``allow_infinite`` (an unbounded end of a support); NaN is always
    refused."""
    value = _as_real(value, name)
    if math.isnan(value) or not (allow_infinite or math.isfinite(value)):
        expected = "a real number or infinite" if allow_infinite else "finite"
        raise InvalidParameterError(f"{name} must be {expected}, got {value}")
    return value


def check_positive(value: float, name: str, strict: bool = True) -> float:
    """Validate a scalar is positive (or nonnegative when ``strict=False``)."""
    value = check_real(value, name)
    if strict and value <= 0:
        raise InvalidParameterError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise InvalidParameterError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(value: float, name: str) -> float:
    """Validate a scalar lies in the closed interval [0, 1]."""
    value = _as_real(value, name)
    if not (0.0 <= value <= 1.0):
        raise InvalidParameterError(f"{name} must be in [0, 1], got {value}")
    return value


def check_mass(value: float, name: str = "mass") -> float:
    """Validate a fraction — a region's probability mass, a dataset
    ``scale`` or a subsample ``fraction`` — lies in (0, 1]."""
    value = _as_real(value, name)
    if not (0.0 < value <= 1.0):
        raise InvalidParameterError(f"{name} must be in (0, 1], got {value}")
    return value


def check_int_range(
    value: int,
    name: str,
    low: Optional[int] = None,
    high: Optional[int] = None,
) -> int:
    """Validate an integer lies in ``[low, high]`` (either bound optional)."""
    if not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(
            f"{name} must be an integer, got {type(value).__name__}"
        )
    value = int(value)
    if low is not None and value < low:
        raise InvalidParameterError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise InvalidParameterError(f"{name} must be <= {high}, got {value}")
    return value
