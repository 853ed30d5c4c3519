"""Random-number-generator plumbing.

Every stochastic entry point in the library accepts a ``seed`` argument
that may be ``None`` (fresh entropy), an ``int`` (reproducible), or an
already-constructed :class:`numpy.random.Generator` (shared stream).
:func:`ensure_rng` normalizes all three into a ``Generator`` so that the
rest of the code never has to branch on seed type.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro._typing import SeedLike
from repro.exceptions import InvalidParameterError


def check_seed(seed: SeedLike) -> None:
    """Raise unless ``seed`` is an accepted seed form.

    Raises
    ------
    InvalidParameterError
        If ``seed`` is of an unsupported type, or a negative integer
        (numpy's seeding accepts only non-negative ones).
    """
    if seed is None or isinstance(seed, np.random.Generator):
        return
    if not isinstance(seed, (int, np.integer)):
        raise InvalidParameterError(
            "seed must be None, an int, or a numpy Generator; "
            f"got {type(seed).__name__}"
        )
    if seed < 0:
        raise InvalidParameterError(
            f"seed must be a non-negative integer, got {seed}"
        )


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted seed form.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, a non-negative ``int`` for a
        reproducible stream, or an existing ``Generator`` which is
        returned unchanged.

    Raises
    ------
    InvalidParameterError
        If ``seed`` is not an accepted seed form (:func:`check_seed`).
    """
    check_seed(seed)
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(int(seed))


def spawn_rngs(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Derive ``count`` statistically independent generators from ``seed``.

    Uses :class:`numpy.random.SeedSequence` spawning so the children are
    independent regardless of whether ``seed`` was an int or a generator.
    This is how multi-run experiments obtain per-run streams that do not
    overlap even when runs execute in arbitrary order.
    """
    if count < 0:
        raise InvalidParameterError(f"count must be >= 0, got {count}")
    check_seed(seed)
    if isinstance(seed, np.random.Generator):
        # Derive children by drawing fresh seed material from the stream.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]
